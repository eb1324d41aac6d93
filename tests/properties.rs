//! Property-based tests over randomly generated instances: structural
//! invariants of the propagation engine and the algorithms that must hold
//! for *every* graph, allocation, and budget.

use proptest::prelude::*;

use osn_graph::{GraphBuilder, NodeData, NodeId};
use osn_propagation::rank::redemption_probs;
use osn_propagation::world::WorldCache;
use osn_propagation::{simulate_cascade, BenefitEstimator, Ledger, SpreadEngine};
use s3crm_core::{s3ca, S3caConfig};

/// Strategy: a random small directed graph with probabilities, as raw parts.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (3usize..16).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.0f64..1.0f64);
        (Just(n), proptest::collection::vec(edge, 0..40))
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> osn_graph::CsrGraph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, p) in edges {
        if u != v {
            b.add_edge(u, v, p).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rank_dp_probabilities_are_valid((probs, k) in (proptest::collection::vec(0.0f64..1.0, 0..8), 0u32..6)) {
        let q = redemption_probs(&probs, k);
        prop_assert_eq!(q.len(), probs.len());
        for (qi, pi) in q.iter().zip(probs.iter()) {
            prop_assert!(*qi >= -1e-12 && *qi <= pi + 1e-12, "q out of range");
        }
        let total: f64 = q.iter().sum();
        prop_assert!(total <= k as f64 + 1e-9, "expected redemptions exceed k");
    }

    #[test]
    fn spread_probabilities_are_probabilities((n, edges) in graph_strategy(), k_cap in 0u32..4) {
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let coupons: Vec<u32> = (0..n)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(k_cap))
            .collect();
        let s = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
        for (i, &p) in s.active_prob().iter().enumerate() {
            prop_assert!((-1e-12..=1.0 + 1e-9).contains(&p), "P({i}) = {p}");
        }
        prop_assert!((s.active_prob()[0] - 1.0).abs() < 1e-12, "seed must be active");
        // Benefit is bounded by the total benefit in the network.
        prop_assert!(s.expected_benefit() <= d.total_benefit() + 1e-9);
    }

    #[test]
    fn benefit_is_monotone_in_coupons((n, edges) in graph_strategy()) {
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let zero = vec![0u32; n];
        let one: Vec<u32> = (0..n)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(1))
            .collect();
        let full: Vec<u32> = (0..n)
            .map(|i| g.out_degree(NodeId(i as u32)) as u32)
            .collect();
        let benefit = |k: &[u32]| SpreadEngine::new(&g, &d, &[NodeId(0)], k).expected_benefit();
        let (b0, b1, b2) = (benefit(&zero), benefit(&one), benefit(&full));
        prop_assert!(b0 <= b1 + 1e-9 && b1 <= b2 + 1e-9, "{b0} {b1} {b2}");
    }

    #[test]
    fn sc_cost_is_nonnegative_and_bounded((n, edges) in graph_strategy(), k_cap in 0u32..4) {
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let coupons: Vec<u32> = (0..n)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(k_cap))
            .collect();
        let c = Ledger::new(&g, &d, &[NodeId(0)], &coupons).sc_cost();
        prop_assert!(c >= -1e-12);
        // Each coupon's expected cost is at most max csc = 1.
        let total: u32 = coupons.iter().sum();
        prop_assert!(c <= total as f64 + 1e-9, "cost {c} > coupons {total}");
    }

    #[test]
    fn cascade_respects_coupon_budget((n, edges) in graph_strategy(), seed in 0u64..1000) {
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let coupons: Vec<u32> = (0..n)
            .map(|i| (g.out_degree(NodeId(i as u32)) as u32).min(2))
            .collect();
        let mut rng = osn_gen::seeded_rng(seed);
        let out = simulate_cascade(&g, &d, &[NodeId(0)], &coupons, &mut rng);
        // Redeemed coupons (= activated minus the seed) can never exceed
        // the total allocation.
        let total: u32 = coupons.iter().sum();
        prop_assert!(out.activated as u32 <= total + 1);
        prop_assert!(out.benefit <= n as f64 + 1e-9);
    }

    #[test]
    fn world_cascades_are_deterministic((n, edges) in graph_strategy()) {
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let coupons: Vec<u32> = (0..n)
            .map(|i| g.out_degree(NodeId(i as u32)) as u32)
            .collect();
        let cache = WorldCache::sample(&g, 4, 9);
        let mut scratch = osn_propagation::reach::CascadeScratch::new(n);
        for w in 0..cache.len() {
            let a = osn_propagation::reach::world_cascade(
                &g, &d, &[NodeId(0)], &coupons, cache.world(w), &mut scratch);
            let b = osn_propagation::reach::world_cascade(
                &g, &d, &[NodeId(0)], &coupons, cache.world(w), &mut scratch);
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn s3ca_always_respects_budget_and_degree_caps(
        (n, edges) in graph_strategy(),
        binv in 0.5f64..20.0,
    ) {
        let g = build(n, &edges);
        let d = NodeData::uniform(n, 1.0, 1.0, 1.0);
        let r = s3ca(&g, &d, binv, &S3caConfig::default());
        prop_assert!(r.objective.within_budget(binv),
            "cost {} > budget {binv}", r.objective.total_cost());
        for (i, &k) in r.deployment.coupons.iter().enumerate() {
            prop_assert!(k <= g.out_degree(NodeId(i as u32)) as u32);
        }
        for &s in &r.deployment.seeds {
            prop_assert!(d.seed_cost(s) <= binv + 1e-9);
        }
    }
}
