//! Linear-threshold (LT) comparison model.
//!
//! Footnote 5 of the paper: "Since the SC is usually redeemed solely, the
//! linear threshold is not suitable" — LT activation aggregates influence
//! from *all* active in-neighbors against a threshold, whereas a social
//! coupon is redeemed through exactly one referral edge, which is why the
//! paper extends IC instead. This module implements standard LT anyway as a
//! comparison substrate, so that claim is checkable: LT has no meaningful
//! notion of per-edge coupon consumption (see
//! [`lt_has_no_single_referrer`](self#tests)).
//!
//! Semantics (Kempe et al.): each node draws a threshold `θ_v ~ U[0,1]`;
//! edge weights are the influence probabilities normalized per target so
//! that `Σ_u w(u,v) ≤ 1`; `v` activates once the active in-neighbor weight
//! reaches `θ_v`.

use osn_graph::{CsrGraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-target normalized in-edge weights (`Σ ≤ 1`).
pub fn lt_weights(graph: &CsrGraph) -> Vec<Vec<(NodeId, f64)>> {
    graph
        .nodes()
        .map(|v| {
            let total: f64 = graph.in_probs(v).sum();
            let scale = if total > 1.0 { 1.0 / total } else { 1.0 };
            graph.ranked_in(v).map(|(u, p)| (u, p * scale)).collect()
        })
        .collect()
}

/// One LT cascade with fresh thresholds; returns the activation mask.
pub fn lt_simulate<R: Rng>(
    graph: &CsrGraph,
    weights: &[Vec<(NodeId, f64)>],
    seeds: &[NodeId],
    rng: &mut R,
) -> Vec<bool> {
    let n = graph.node_count();
    let thresholds: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
    let mut active = vec![false; n];
    let mut frontier: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if !active[s.index()] {
            active[s.index()] = true;
            frontier.push(s);
        }
    }
    // Iterate rounds: a node activates when its active in-weight clears the
    // threshold. Track incoming weight incrementally via out-edges of newly
    // activated nodes.
    let mut in_weight = vec![0.0f64; n];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in graph.out_targets(u) {
                if active[v.index()] {
                    continue;
                }
                // Weight of edge u -> v in the normalized reverse list.
                if let Some(&(_, w)) = weights[v.index()].iter().find(|&&(src, _)| src == u) {
                    in_weight[v.index()] += w;
                    if in_weight[v.index()] >= thresholds[v.index()] {
                        active[v.index()] = true;
                        next.push(v);
                    }
                }
            }
        }
        frontier = next;
    }
    active
}

/// Mean activated count over `samples` LT cascades.
pub fn lt_influence(graph: &CsrGraph, seeds: &[NodeId], samples: usize, rng_seed: u64) -> f64 {
    let weights = lt_weights(graph);
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut total = 0usize;
    for _ in 0..samples {
        total += lt_simulate(graph, &weights, seeds, &mut rng)
            .iter()
            .filter(|&&a| a)
            .count();
    }
    total as f64 / samples.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    #[test]
    fn weights_normalize_per_target() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(1, 2, 0.8).unwrap();
        let g = b.build().unwrap();
        let w = lt_weights(&g);
        let total: f64 = w[2].iter().map(|&(_, x)| x).sum();
        assert!((total - 1.0).abs() < 1e-12, "over-unit sums must normalize");
        // Under-unit sums stay untouched.
        let mut b2 = GraphBuilder::new(2);
        b2.add_edge(0, 1, 0.3).unwrap();
        let g2 = b2.build().unwrap();
        assert_eq!(lt_weights(&g2)[1], vec![(NodeId(0), 0.3)]);
    }

    #[test]
    fn seeds_are_always_active() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let w = lt_weights(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let active = lt_simulate(&g, &w, &[NodeId(0), NodeId(2)], &mut rng);
        assert!(active[0] && active[2]);
    }

    #[test]
    fn full_weight_edges_always_fire() {
        // w = 1.0 ≥ θ for any θ ∈ [0,1): a full-weight in-edge activates.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let w = lt_weights(&g);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..20 {
            let active = lt_simulate(&g, &w, &[NodeId(0)], &mut rng);
            assert!(active.iter().all(|&a| a));
        }
    }

    #[test]
    fn lt_influence_matches_hand_computed_expectation() {
        // Single edge with weight p: v activates iff θ ≤ p, i.e. w.p. p.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.35).unwrap();
        let g = b.build().unwrap();
        let inf = lt_influence(&g, &[NodeId(0)], 40_000, 7);
        assert!((inf - 1.35).abs() < 0.02, "LT influence {inf} ≈ 1.35");
    }

    #[test]
    fn lt_has_no_single_referrer() {
        // The footnote-5 argument: with two half-weight parents, LT
        // activation happens (w.p. ≥ the single-parent probability) even
        // though *neither* parent alone crossed the threshold — there is no
        // well-defined referring edge to attach a coupon redemption to.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let w = lt_weights(&g);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut joint_only = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            let active = lt_simulate(&g, &w, &[NodeId(0), NodeId(1)], &mut rng);
            if active[2] {
                joint_only += 1;
            }
        }
        // Both parents active → total weight 1.0 ≥ θ always; with a single
        // parent the activation probability would be only 0.5. The excess
        // mass (~0.5 of trials) has no single referrer.
        let freq = joint_only as f64 / trials as f64;
        assert!(freq > 0.95, "joint LT activation frequency {freq}");
    }
}
