//! Single stochastic cascade with fresh coin flips.
//!
//! Implements the Sec. III process literally: rounds of activation, each
//! active user attempting ranked neighbors while coupons remain. Only tests
//! call it: it is the reference implementation the world-based and
//! analytic evaluators are validated against (Table III's hop statistics
//! come from the world kernels).

use osn_graph::{CsrGraph, NodeData, NodeId};
use rand::Rng;

/// Result of one simulated cascade.
#[derive(Clone, Debug)]
pub struct CascadeOutcome {
    /// Activation flag per node.
    pub active: Vec<bool>,
    /// Total benefit of activated users.
    pub benefit: f64,
    /// Total coupon cost actually redeemed (`Σ c_sc` over coupon-activated
    /// users; seeds excluded).
    pub redeemed_sc_cost: f64,
    /// Number of activated users (seeds included).
    pub activated: usize,
    /// Hop distance of the farthest activated user from the seed set.
    pub farthest_hop: u32,
}

/// Simulate one cascade from `seeds` under coupon allocation `coupons`
/// (coupons per node, indexed by node id; capped by out-degree implicitly —
/// excess coupons simply never fire).
///
/// Round structure: the frontier of round `h` holds users activated at hop
/// `h`; each attempts its ranked neighbors in order, consuming a coupon per
/// success. Within a round, users are processed in activation order; a
/// neighbor already activated earlier in the same round is skipped without
/// coupon consumption, like any other active node.
pub fn simulate_cascade<R: Rng>(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    coupons: &[u32],
    rng: &mut R,
) -> CascadeOutcome {
    debug_assert_eq!(coupons.len(), graph.node_count());
    let n = graph.node_count();
    let mut active = vec![false; n];
    let mut benefit = 0.0;
    let mut redeemed = 0.0;
    let mut activated = 0usize;

    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !active[s.index()] {
            active[s.index()] = true;
            benefit += data.benefit(s);
            activated += 1;
            frontier.push(s);
        }
    }

    let mut next: Vec<NodeId> = Vec::new();
    let mut hop = 0u32;
    let mut farthest = 0u32;
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            let mut remaining = coupons[u.index()];
            if remaining == 0 {
                continue;
            }
            for (v, p) in graph.ranked_out(u) {
                if remaining == 0 {
                    break;
                }
                if active[v.index()] {
                    continue; // no coupon consumed on an already-active friend
                }
                if rng.gen_bool(p) {
                    active[v.index()] = true;
                    benefit += data.benefit(v);
                    redeemed += data.sc_cost(v);
                    activated += 1;
                    remaining -= 1;
                    next.push(v);
                }
            }
        }
        if !next.is_empty() {
            hop += 1;
            farthest = hop;
        }
        std::mem::swap(&mut frontier, &mut next);
    }

    CascadeOutcome {
        active,
        benefit,
        redeemed_sc_cost: redeemed,
        activated,
        farthest_hop: farthest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn chain(p: f64) -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, p).unwrap();
        b.add_edge(1, 2, p).unwrap();
        b.add_edge(2, 3, p).unwrap();
        (b.build().unwrap(), NodeData::uniform(4, 1.0, 1.0, 1.0))
    }

    #[test]
    fn deterministic_chain_with_probability_one() {
        let (g, d) = chain(1.0);
        let out = simulate_cascade(&g, &d, &[NodeId(0)], &[1, 1, 1, 0], &mut rng(1));
        assert_eq!(out.activated, 4);
        assert_eq!(out.benefit, 4.0);
        assert_eq!(out.redeemed_sc_cost, 3.0);
        assert_eq!(out.farthest_hop, 3);
    }

    #[test]
    fn no_coupons_stops_at_seeds() {
        let (g, d) = chain(1.0);
        let out = simulate_cascade(&g, &d, &[NodeId(0)], &[0; 4], &mut rng(2));
        assert_eq!(out.activated, 1);
        assert_eq!(out.farthest_hop, 0);
        assert_eq!(out.redeemed_sc_cost, 0.0);
    }

    #[test]
    fn zero_probability_never_spreads() {
        let (g, d) = chain(0.0);
        let out = simulate_cascade(&g, &d, &[NodeId(0)], &[3; 4], &mut rng(3));
        assert_eq!(out.activated, 1);
    }

    #[test]
    fn coupon_constraint_limits_branching() {
        // Star: center with 5 children at probability 1, but only 2 coupons.
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        let g = b.build().unwrap();
        let d = NodeData::uniform(6, 1.0, 1.0, 1.0);
        let mut coupons = vec![0u32; 6];
        coupons[0] = 2;
        let out = simulate_cascade(&g, &d, &[NodeId(0)], &coupons, &mut rng(4));
        assert_eq!(out.activated, 3, "2 coupons → exactly 2 children");
        // With probability-1 edges the first two ranked children win.
        assert!(out.active[1] && out.active[2]);
        assert!(!out.active[3]);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let (g, d) = chain(1.0);
        let out = simulate_cascade(&g, &d, &[NodeId(0), NodeId(0)], &[0; 4], &mut rng(5));
        assert_eq!(out.activated, 1);
        assert_eq!(out.benefit, 1.0);
    }

    #[test]
    fn active_friend_does_not_consume_coupon() {
        // 0 -> 1 (p=1, rank 0) and 0 -> 2 (p=1, rank 1); node 1 is a seed.
        // With one coupon, the attempt on 1 is skipped and 2 still activates.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(0, 2, 0.9).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let mut hits = 0;
        for s in 0..200 {
            let out = simulate_cascade(&g, &d, &[NodeId(0), NodeId(1)], &[1, 0, 0], &mut rng(s));
            if out.active[2] {
                hits += 1;
            }
        }
        // Should be ~0.9 · 200 = 180, not 0.
        assert!(hits > 150, "skip-active semantics violated: {hits}/200");
    }

    #[test]
    fn empirical_frequency_matches_dependent_edge_probability() {
        // Example 1 geometry: k=1 over [0.6, 0.4] → second child active
        // w.p. 0.16.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let mut r = rng(99);
        let trials = 40_000;
        let mut second = 0usize;
        for _ in 0..trials {
            let out = simulate_cascade(&g, &d, &[NodeId(0)], &[1, 0, 0], &mut r);
            if out.active[2] {
                second += 1;
            }
        }
        let freq = second as f64 / trials as f64;
        assert!(
            (freq - 0.16).abs() < 0.01,
            "dependent-edge frequency {freq} should be ≈ 0.16"
        );
    }
}
