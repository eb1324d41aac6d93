//! Shared helpers for the baseline algorithms.

use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::reach::{world_cascade, CascadeScratch};
use osn_propagation::world::WorldCache;
use s3crm_core::deployment::Deployment;

use crate::strategy::CouponStrategy;

/// The paper's seed-size sweep: `|V| / 2^n` for `n = 0..=10`, deduplicated
/// and clipped to `[1, n_nodes]`, ascending.
pub fn seed_size_sweep(n_nodes: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..=10u32).map(|n| (n_nodes >> n).max(1)).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes.retain(|&s| s <= n_nodes);
    sizes
}

/// Assemble a budget-feasible deployment from a seed prefix and a coupon
/// strategy: the allocation funds the spread in BFS order until `binv`
/// runs out (see
/// [`CouponStrategy::coupons_for_budgeted`](crate::strategy::CouponStrategy::coupons_for_budgeted)).
pub fn deployment_with_strategy(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    seeds: &[NodeId],
    strategy: CouponStrategy,
) -> Deployment {
    Deployment {
        seeds: seeds.to_vec(),
        coupons: strategy.coupons_for_budgeted(graph, data, seeds, binv),
    }
}

/// Mean activated-user count (the classical "influence spread") of a seed
/// set under the plain IC model, estimated over the world cache. Coupon
/// constraints are lifted (`k = out-degree`), matching what IM's selection
/// step optimizes.
pub fn influence_spread(graph: &CsrGraph, cache: &WorldCache, seeds: &[NodeId]) -> f64 {
    let data = NodeData::uniform(graph.node_count(), 1.0, 0.0, 0.0);
    let coupons: Vec<u32> = graph.nodes().map(|v| graph.out_degree(v) as u32).collect();
    let mut scratch = CascadeScratch::new(graph.node_count());
    let mut total = 0usize;
    for w in 0..cache.len() {
        total +=
            world_cascade(graph, &data, seeds, &coupons, cache.world(w), &mut scratch).activated;
    }
    total as f64 / cache.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    #[test]
    fn sweep_is_halving() {
        assert_eq!(seed_size_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(seed_size_sweep(1), vec![1]);
        // 4000 >> 10 = 3, so the smallest size in the sweep is 3.
        let s = seed_size_sweep(4000);
        assert!(s.contains(&4000) && s.contains(&3));
        assert_eq!(s.len(), 11);
        assert_eq!(s[0], 3);
    }

    #[test]
    fn influence_spread_counts_reachable_mass() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 0.0).unwrap();
        let g = b.build().unwrap();
        let cache = WorldCache::sample(&g, 32, 4);
        let inf = influence_spread(&g, &cache, &[NodeId(0)]);
        assert!(
            (inf - 2.0).abs() < 1e-12,
            "deterministic spread of 2, got {inf}"
        );
    }
}
