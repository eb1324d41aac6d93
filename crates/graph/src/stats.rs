//! Structural statistics.
//!
//! Used to validate the synthetic dataset profiles (see `osn-gen`) against
//! the paper's Table II (node/edge counts) and the PPGG parameters of
//! Sec. VI-D (clustering coefficient 0.6394, power-law exponent η).

use crate::csr::CsrGraph;
use crate::ids::NodeId;

/// Summary of a graph's degree structure.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    pub nodes: usize,
    pub edges: usize,
    pub max_out_degree: usize,
    pub max_in_degree: usize,
    pub mean_out_degree: f64,
}

/// Compute the degree summary.
pub fn degree_stats(graph: &CsrGraph) -> DegreeStats {
    let n = graph.node_count();
    let mut max_out = 0;
    let mut max_in = 0;
    for v in graph.nodes() {
        max_out = max_out.max(graph.out_degree(v));
        max_in = max_in.max(graph.in_degree(v));
    }
    DegreeStats {
        nodes: n,
        edges: graph.edge_count(),
        max_out_degree: max_out,
        max_in_degree: max_in,
        mean_out_degree: if n == 0 {
            0.0
        } else {
            graph.edge_count() as f64 / n as f64
        },
    }
}

/// Average local clustering coefficient over out-neighborhoods, treating the
/// graph as undirected for triangle detection (the convention used when
/// reporting clustering for directed social graphs).
///
/// Exact but O(Σ d²); intended for the ≤ few-thousand-node graphs where the
/// paper quotes clustering (the 150-node PPGG graphs and profile
/// validation).
pub fn clustering_coefficient(graph: &CsrGraph) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for v in graph.nodes() {
        total += local_clustering(graph, v);
    }
    total / n as f64
}

/// Local clustering of one node on the undirected view: fraction of
/// neighbor pairs that are themselves connected (in either direction).
fn local_clustering(graph: &CsrGraph, v: NodeId) -> f64 {
    // Undirected neighborhood = out ∪ in neighbors.
    let mut nbrs: Vec<NodeId> = graph
        .out_targets(v)
        .iter()
        .copied()
        .chain(graph.in_sources(v).iter().copied())
        .collect();
    nbrs.sort_unstable();
    nbrs.dedup();
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let set: std::collections::HashSet<NodeId> = nbrs.iter().copied().collect();
    let mut links = 0usize;
    for &u in &nbrs {
        for &w in graph.out_targets(u) {
            if w != v && set.contains(&w) {
                links += 1;
            }
        }
    }
    // Each undirected neighbor pair can contribute up to 2 directed links;
    // normalize against the directed maximum d(d-1).
    links as f64 / (d * (d - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        for (u, v) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn triangle_has_full_clustering() {
        let g = triangle();
        assert!((clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        let mut b = GraphBuilder::new(4);
        for v in 1..4 {
            b.add_undirected_edge(0, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn degree_stats_on_triangle() {
        let g = triangle();
        let s = degree_stats(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 6);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert!((s.mean_out_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert_eq!(clustering_coefficient(&g), 0.0);
        assert_eq!(degree_stats(&g).mean_out_degree, 0.0);
    }
}
