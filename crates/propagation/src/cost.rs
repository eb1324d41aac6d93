//! Deployment cost model (paper Table I).
//!
//! * `Cseed(S) = Σ_{s∈S} c_seed(s)` — deterministic and modular (Lemma 1).
//! * `Csc(K(I)) = Σ_{v_i∈I} Σ_j E[k_i, c_sc(v_j)]` — **local per internal
//!   node**: each coupon holder's expected distribution cost is *not*
//!   weighted by its own activation probability. This asymmetry with the
//!   (global) expected benefit is what the paper's printed arithmetic uses
//!   throughout (e.g. Example 1's cost gain for `v2`'s coupon is
//!   `0.5 + 0.2`, not `0.6·(0.5 + 0.2)`).

use crate::rank::redemption_probs;
use crate::spread::eligible_children;
use osn_graph::{CsrGraph, NodeData, NodeId};

/// `Cseed(S)`: total seed cost.
pub fn seed_cost(data: &NodeData, seeds: &[NodeId]) -> f64 {
    seeds.iter().map(|&s| data.seed_cost(s)).sum()
}

/// One internal node's term of `Csc`: `Σ_j q_j · c_sc(target_j)` over its
/// eligible ranked children.
pub(crate) fn holder_cost(data: &NodeData, targets: &[NodeId], q: &[f64]) -> f64 {
    q.iter()
        .zip(targets)
        .map(|(&qj, &v)| qj * data.sc_cost(v))
        .sum::<f64>()
}

/// `Csc(K(I))`: expected coupon cost of the allocation, using the same
/// rank/eligibility semantics as the benefit evaluator (seeds never receive
/// coupons), built from scratch. One pass over the holders' out-edges:
/// eligibility reads only the seed mask, so no spread BFS is needed.
pub fn expected_sc_cost(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    coupons: &[u32],
) -> f64 {
    debug_assert_eq!(coupons.len(), graph.node_count());
    let mut seed_mask = vec![false; graph.node_count()];
    for &s in seeds {
        seed_mask[s.index()] = true;
    }
    let mut targets = Vec::new();
    let mut probs = Vec::new();
    let mut total = 0.0;
    for (i, &k) in coupons.iter().enumerate() {
        if k > 0 {
            let u = NodeId::from_index(i);
            eligible_children(graph, &seed_mask, u, &mut targets, &mut probs);
            total += holder_cost(data, &targets, &redemption_probs(&probs, k));
        }
    }
    total
}

/// `Cseed(S) + Csc(K(I))` — the denominator of the redemption rate and the
/// quantity bounded by `Binv`.
pub fn total_cost(graph: &CsrGraph, data: &NodeData, seeds: &[NodeId], coupons: &[u32]) -> f64 {
    seed_cost(data, seeds) + expected_sc_cost(graph, data, seeds, coupons)
}

/// The objective (1a): `B / C`, defined as 0 when the cost is nonpositive
/// (no investment earns no redemption rate; this also keeps the ID phase's
/// comparisons finite when a fixture uses a free seed).
pub fn redemption_rate(benefit: f64, cost: f64) -> f64 {
    if cost > 0.0 {
        benefit / cost
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    const EPS: f64 = 1e-9;

    /// Fig. 1 reconstruction (see `osn_gen::fixtures::fig1`).
    fn fig1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3, 0.55).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.36).unwrap();
        b.add_edge(1, 2, 0.2).unwrap();
        b.add_edge(2, 3, 0.7).unwrap();
        b.add_edge(2, 1, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let d = NodeData::new(
            vec![3.0, 3.0, 3.0, 3.0, 6.0],
            vec![1.0, 1.54, 1.5, 100.0, 100.0],
            vec![1.0; 5],
        )
        .unwrap();
        (b.build().unwrap(), d)
    }

    #[test]
    fn fig1_im_package_cost() {
        // Seed v3 with 2 SCs: 1.5 + (0.7 + 0.5) = 2.7.
        let (g, d) = fig1();
        let mut k = vec![0u32; 5];
        k[2] = 2;
        let c = total_cost(&g, &d, &[NodeId(2)], &k);
        assert!((c - 2.7).abs() < EPS, "IM cost = {c}");
    }

    #[test]
    fn fig1_pm_package_cost() {
        // Seed v1 with 2 SCs: 1 + (0.55 + 0.5) = 2.05.
        let (g, d) = fig1();
        let mut k = vec![0u32; 5];
        k[0] = 2;
        let c = total_cost(&g, &d, &[NodeId(0)], &k);
        assert!((c - 2.05).abs() < EPS, "PM cost = {c}");
    }

    #[test]
    fn fig1_case2_cost_excludes_seed_from_competition() {
        // Seed v1, SCs on v1 and v2: 1 + (0.55 + 0.5·0.45) + 0.2 = 1.975.
        let (g, d) = fig1();
        let mut k = vec![0u32; 5];
        k[0] = 1;
        k[1] = 1;
        let c = total_cost(&g, &d, &[NodeId(0)], &k);
        assert!((c - 1.975).abs() < EPS, "case-2 cost = {c}");
    }

    #[test]
    fn fig1_case3_cost() {
        // Seed v1, SCs on v1 and v4: 1 + (0.55 + 0.225) + 0.9 = 2.675.
        let (g, d) = fig1();
        let mut k = vec![0u32; 5];
        k[0] = 1;
        k[3] = 1;
        let c = total_cost(&g, &d, &[NodeId(0)], &k);
        assert!((c - 2.675).abs() < EPS, "case-3 cost = {c}");
    }

    #[test]
    fn sc_cost_is_modular_in_disjoint_allocations() {
        // Lemma 1: the cost function is modular — coupons on disconnected
        // users add up exactly.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(2, 3, 0.25).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(4, 1.0, 1.0, 2.0);
        let only_a = expected_sc_cost(&g, &d, &[NodeId(0)], &[1, 0, 0, 0]);
        let only_b = expected_sc_cost(&g, &d, &[NodeId(2)], &[0, 0, 1, 0]);
        let both = expected_sc_cost(&g, &d, &[NodeId(0), NodeId(2)], &[1, 0, 1, 0]);
        assert!((only_a + only_b - both).abs() < EPS);
        assert!((only_a - 1.0).abs() < EPS); // 2.0 · 0.5
    }

    #[test]
    fn redemption_rate_handles_zero_cost() {
        assert_eq!(redemption_rate(5.0, 0.0), 0.0);
        assert_eq!(redemption_rate(5.0, 2.0), 2.5);
        assert_eq!(redemption_rate(0.0, 2.0), 0.0);
    }

    #[test]
    fn seed_cost_sums() {
        let (_, d) = fig1();
        assert!((seed_cost(&d, &[NodeId(0), NodeId(2)]) - 2.5).abs() < EPS);
        assert_eq!(seed_cost(&d, &[]), 0.0);
    }
}
