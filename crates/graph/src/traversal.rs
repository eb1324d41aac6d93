//! Breadth-first traversals.
//!
//! Used for the hop statistics of Table III (average farthest hop from the
//! seed set) and for reachability checks throughout the algorithms.

use crate::csr::CsrGraph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Sentinel hop distance for unreachable nodes.
pub const UNREACHED: u32 = u32::MAX;

/// BFS hop distance from any node of `sources` to every node, following
/// out-edges. Unreachable nodes get [`UNREACHED`].
pub fn bfs_hops(graph: &CsrGraph, sources: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHED; graph.node_count()];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        if dist[s.index()] == UNREACHED {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in graph.out_targets(u) {
            if dist[v.index()] == UNREACHED {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The farthest finite hop in a distance array; 0 when nothing is reached.
pub fn farthest_hop(dist: &[u32]) -> u32 {
    dist.iter()
        .copied()
        .filter(|&d| d != UNREACHED)
        .max()
        .unwrap_or(0)
}

/// Nodes reachable from `sources` (including the sources), following
/// out-edges.
pub fn reachable_set(graph: &CsrGraph, sources: &[NodeId]) -> Vec<NodeId> {
    let dist = bfs_hops(graph, sources);
    dist.iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHED)
        .map(|(i, _)| NodeId::from_index(i))
        .collect()
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
        assert_eq!(farthest_hop(&d), 3);
    }

    #[test]
    fn multi_source_bfs_takes_minimum() {
        let g = chain();
        let d = bfs_hops(&g, &[NodeId(0), NodeId(2)]);
        assert_eq!(d, vec![0, 1, 0, 1, UNREACHED]);
    }

    #[test]
    fn farthest_hop_empty_is_zero() {
        assert_eq!(farthest_hop(&[UNREACHED, UNREACHED]), 0);
        assert_eq!(farthest_hop(&[]), 0);
    }

    #[test]
    fn reachable_set_includes_sources() {
        let g = chain();
        let r = reachable_set(&g, &[NodeId(2)]);
        assert_eq!(r, vec![NodeId(2), NodeId(3)]);
    }
}
