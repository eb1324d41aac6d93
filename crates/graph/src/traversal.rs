//! Breadth-first traversals.
//!
//! Hop distances from a seed set (OPT's candidate pruning) and the
//! discovery order from a seed set (the order in which the baselines'
//! coupon strategies fund the spread).

use crate::csr::CsrGraph;
use crate::ids::NodeId;

/// Sentinel hop distance for unreachable nodes.
pub const UNREACHED: u32 = u32::MAX;

/// BFS hop distance from any node of `sources` to every node, following
/// out-edges. Unreachable nodes get [`UNREACHED`].
pub fn bfs_hops(graph: &CsrGraph, sources: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHED; graph.node_count()];
    for &s in sources {
        dist[s.index()] = 0;
    }
    // The first in-edge met in discovery order is a node's BFS tree edge.
    for u in bfs_order(graph, sources) {
        for &v in graph.out_targets(u) {
            if dist[v.index()] == UNREACHED {
                dist[v.index()] = dist[u.index()] + 1;
            }
        }
    }
    dist
}

/// Nodes reachable from `sources` (including the sources), following
/// out-edges, in BFS discovery order: the unique sources in input order,
/// then each dequeued node's undiscovered out-targets in adjacency order.
pub fn bfs_order(graph: &CsrGraph, sources: &[NodeId]) -> Vec<NodeId> {
    let mut seen = vec![false; graph.node_count()];
    let mut first_visit = |v: &NodeId| !std::mem::replace(&mut seen[v.index()], true);
    let mut order: Vec<NodeId> = sources.iter().copied().filter(&mut first_visit).collect();
    // `order` is the BFS queue: `order[head..]` are the queued nodes.
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        order.extend(graph.out_targets(u).iter().filter(|v| first_visit(v)));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn chain() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3, plus isolated 4
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn hops_on_chain() {
        let g = chain();
        let d = bfs_hops(&g, &[NodeId(0)]);
        assert_eq!(d, vec![0, 1, 2, 3, UNREACHED]);
    }

    #[test]
    fn multi_source_bfs_takes_minimum() {
        let g = chain();
        let d = bfs_hops(&g, &[NodeId(0), NodeId(2)]);
        assert_eq!(d, vec![0, 1, 0, 1, UNREACHED]);
    }

    #[test]
    fn bfs_order_includes_sources() {
        let g = chain();
        let r = bfs_order(&g, &[NodeId(2)]);
        assert_eq!(r, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn bfs_order_is_discovery_order() {
        // 3 -> {1, 0}, 1 -> 2; sources 3 then 3 again: duplicates once.
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 1, 0.5).unwrap();
        b.add_edge(3, 0, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let expect: Vec<NodeId> = std::iter::once(NodeId(3))
            .chain(g.out_targets(NodeId(3)).iter().copied())
            .chain([NodeId(2)])
            .collect();
        assert_eq!(bfs_order(&g, &[NodeId(3), NodeId(3)]), expect);
    }
}
