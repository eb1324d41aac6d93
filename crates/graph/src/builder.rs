//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates validated edges and produces an immutable
//! [`CsrGraph`] in one pass. Duplicate edges keep the last
//! probability supplied (useful when a weight model overwrites placeholder
//! probabilities loaded from an edge list).

use crate::csr::CsrGraph;
use crate::error::GraphError;
#[cfg(test)]
use crate::ids::NodeId;

/// Accumulates edges for a directed graph with `n` nodes.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: u32,
    /// (source, target, probability) triples in insertion order.
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// A builder for a graph over node ids `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node count exceeds u32 range");
        GraphBuilder {
            n: n as u32,
            edges: Vec::new(),
        }
    }

    /// Pre-allocate room for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges added so far (before deduplication).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a directed edge `u -> v` with influence probability `p ∈ [0, 1]`.
    ///
    /// Self-loops are rejected: a user cannot refer a coupon to themselves.
    pub fn add_edge(&mut self, u: u32, v: u32, p: f64) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(GraphError::InvalidProbability {
                source: u,
                target: v,
                p,
            });
        }
        self.edges.push((u, v, p));
        Ok(())
    }

    /// Add both `u -> v` and `v -> u` with the same probability.
    ///
    /// The SNAP Facebook dataset is undirected; the paper (and everything
    /// downstream here) treats such graphs as two directed edges.
    pub fn add_undirected_edge(&mut self, u: u32, v: u32, p: f64) -> Result<(), GraphError> {
        self.add_edge(u, v, p)?;
        self.add_edge(v, u, p)
    }

    /// Iterate over the raw edges accumulated so far.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.edges.iter().copied()
    }

    /// Replace every probability via `f(source, target, current)`.
    ///
    /// Used by weight models such as the paper's default
    /// `P(e(i,j)) = 1 / in-degree(v_j)` which can only be computed once all
    /// edges are known.
    pub fn reweight(&mut self, mut f: impl FnMut(u32, u32, f64) -> f64) {
        for (u, v, p) in &mut self.edges {
            *p = f(*u, *v, *p);
        }
    }

    /// In-degree of every node under the current edge multiset
    /// (duplicates counted once).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        let mut deg = vec![0u32; self.n as usize];
        for &(u, v, _) in &self.edges {
            if seen.insert((u, v)) {
                deg[v as usize] += 1;
            }
        }
        deg
    }

    /// Build the immutable CSR graph.
    ///
    /// Duplicate `(u, v)` pairs are collapsed, keeping the **last** inserted
    /// probability. Out-edges are sorted by descending probability (ties
    /// broken by ascending target id so that builds are deterministic).
    pub fn build(mut self) -> Result<CsrGraph, GraphError> {
        for &(u, v, p) in &self.edges {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(GraphError::InvalidProbability {
                    source: u,
                    target: v,
                    p,
                });
            }
        }
        // Deduplicate keeping the last probability: stable-sort by (u, v) and
        // take the final entry of each run.
        self.edges.sort_by_key(|&(u, v, _)| (u, v));
        let mut dedup: Vec<(u32, u32, f64)> = Vec::with_capacity(self.edges.len());
        for &(u, v, p) in &self.edges {
            match dedup.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 = p,
                _ => dedup.push((u, v, p)),
            }
        }
        Ok(CsrGraph::from_dedup_edges(self.n, dedup))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_and_self_loops() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5, 0.5),
            Err(GraphError::NodeOutOfRange { node: 5, .. })
        ));
        assert!(matches!(
            b.add_edge(1, 1, 0.5),
            Err(GraphError::SelfLoop { node: 1 })
        ));
    }

    #[test]
    fn rejects_invalid_probability() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(0, 1, -0.1).is_err());
        assert!(b.add_edge(0, 1, 1.1).is_err());
        assert!(b.add_edge(0, 1, f64::NAN).is_err());
        assert!(b.add_edge(0, 1, 1.0).is_ok());
        assert!(b.add_edge(0, 1, 0.0).is_ok());
    }

    #[test]
    fn duplicate_edges_keep_last_probability() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.2).unwrap();
        b.add_edge(0, 1, 0.9).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        let (_, p) = g.ranked_out(NodeId(0)).next().unwrap();
        assert!((p - 0.9).abs() < 1e-12);
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1, 0.3).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.out_degree(NodeId(0)), 1);
        assert_eq!(g.out_degree(NodeId(1)), 1);
    }

    #[test]
    fn reweight_applies_to_all_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0).unwrap();
        b.add_edge(0, 2, 0.0).unwrap();
        b.reweight(|_, v, _| 1.0 / (v as f64 + 1.0));
        let g = b.build().unwrap();
        let ranked: Vec<_> = g.ranked_out(NodeId(0)).collect();
        assert_eq!(ranked[0].0, NodeId(1));
        assert!((ranked[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_degrees_count_distinct_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.7).unwrap(); // duplicate
        assert_eq!(b.in_degrees(), vec![0, 0, 2]);
    }
}
