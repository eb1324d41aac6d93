//! Shared helpers for the baseline algorithms: the greedy IM and PM
//! baselines' candidate pool and seed cap, and the paper's seed-size sweep.
//! The coupon side of every seed-only baseline is
//! [`CouponStrategy::deploy`](crate::strategy::CouponStrategy::deploy).

use osn_graph::{CsrGraph, NodeId};

/// Candidate-pool size of the greedy IM and PM baselines: only this many
/// highest out-degree users are considered as seeds (see
/// [`top_out_degree`]).
pub const CANDIDATE_POOL: usize = 256;

/// The most seeds the greedy IM ranking and PM selection produce.
pub const MAX_SEEDS: usize = 64;

/// The `size` (at least one) highest out-degree users, ties in node-id
/// order: the candidate pool of the greedy IM and PM baselines.
pub fn top_out_degree(graph: &CsrGraph, size: usize) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = graph.nodes().collect();
    pool.sort_by_key(|&v| std::cmp::Reverse(graph.out_degree(v)));
    pool.truncate(size.max(1));
    pool
}

/// The paper's seed-size sweep: `|V| / 2^n` for `n = 0..=10`, deduplicated
/// and clipped to `[1, n_nodes]`, ascending.
pub fn seed_size_sweep(n_nodes: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..=10u32).map(|n| (n_nodes >> n).max(1)).collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes.retain(|&s| s <= n_nodes);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
