//! Analytic spread evaluation.
//!
//! Computes the expected benefit of a deployment `(S, K)` in closed form:
//! activation probabilities flow through the *coupon spread* — the set of
//! nodes reachable from the seeds through coupon-holding users — using the
//! rank DP of [`rank`](crate::rank) for coupon availability and the
//! independent-parent combination `P(v) = 1 − Π_u (1 − P(u)·q_{u→v})`.
//!
//! **Exactness.** On forests this reproduces the paper's arithmetic to
//! machine precision (Fig. 1, Example 1 — asserted in tests). On graphs with
//! converging influence paths the independent-parent combination is the
//! standard first-order approximation; the Monte-Carlo evaluator is the
//! ground truth there.
//!
//! **Eligibility.** A node `u` never distributes a coupon to a friend that
//! is already deterministically active: the eligible ranked children of
//! `u` are its out-neighbors that are not seeds. This is the
//! interpretation forced by Fig. 1(c) case 2, where the seed `v1` is
//! excluded from `v2`'s rank competition (`tests/paper_fig1.rs` pins it).

use crate::rank::redemption_probs;
use osn_graph::{CsrGraph, NodeData, NodeId};
use std::collections::VecDeque;

/// Fully evaluated analytic state of one deployment.
#[derive(Clone, Debug)]
pub struct SpreadState {
    /// Hop level within the coupon spread; `None` for nodes outside it.
    pub levels: Vec<Option<u32>>,
    /// Activation probability per node (1.0 for seeds).
    pub active_prob: Vec<f64>,
    /// Expected benefit of a node's downstream subtree per unit of its own
    /// activation probability (`b(v)` plus coupon-weighted child gains).
    pub subtree_gain: Vec<f64>,
    /// Spread members in ascending level order (a topological order of the
    /// eligible edges).
    pub order: Vec<NodeId>,
    /// `Σ_v P(v)·b(v)` — the deployment's expected benefit `B(S, K)`.
    pub expected_benefit: f64,
    pub(crate) seed_mask: Vec<bool>,
    pub(crate) coupons: Vec<u32>,
}

/// BFS over the coupon spread: seeds at level 0; a node relays (expands to
/// its ranked children) only while it holds at least one coupon.
pub fn spread_levels(
    graph: &CsrGraph,
    seeds: &[NodeId],
    coupons: &[u32],
) -> (Vec<Option<u32>>, Vec<NodeId>) {
    let n = graph.node_count();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    for &s in seeds {
        if levels[s.index()].is_none() {
            levels[s.index()] = Some(0);
            order.push(s);
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        if coupons[u.index()] == 0 {
            continue;
        }
        let lu = levels[u.index()].expect("queued nodes have levels");
        for &v in graph.out_targets(u) {
            if levels[v.index()].is_none() {
                levels[v.index()] = Some(lu + 1);
                order.push(v);
                queue.push_back(v);
            }
        }
    }
    (levels, order)
}

/// Gather `u`'s eligible ranked children and their influence
/// probabilities into the scratch vectors — the one child collection every
/// evaluator, cost sum and backend shares. A coupon is never spent on a
/// **seed** (deterministically active already — the interpretation forced
/// by Fig. 1(c) case 2), and on nothing else: the literal reading of the
/// Table-I cost sum `Σ_{v_i∈I} Σ_{v_j∈N(v_i)}`; cross- and back-edges
/// participate via the fixpoint refinement below.
pub fn eligible_children(
    graph: &CsrGraph,
    seed_mask: &[bool],
    u: NodeId,
    targets: &mut Vec<NodeId>,
    probs: &mut Vec<f64>,
) {
    targets.clear();
    probs.clear();
    for (v, p) in graph.ranked_out(u) {
        if !seed_mask[v.index()] {
            targets.push(v);
            probs.push(p);
        }
    }
}

/// A borrowed coupon distribution: one spread holder's eligible ranked
/// children and their redemption probabilities. The shared currency of the
/// propagation passes below — both [`SpreadState::evaluate`] and the
/// incremental [`SpreadEngine`](crate::engine::SpreadEngine) build slices
/// of these, so the two paths run the *same* floating-point sequence (the
/// bit-identity contract between them is pinned by proptest).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DistRef<'a> {
    pub node: NodeId,
    pub targets: &'a [NodeId],
    pub q: &'a [f64],
}

/// Forward pass: activation probabilities in ascending level order (one
/// exact pass on forests), then Jacobi fixpoint refinement so cross- and
/// back-edges of cyclic graphs contribute too.
///
/// Every pass runs over the spread `members` only, so its cost is
/// O(members + distribution targets), not O(n). `active_prob` and
/// `complement` are `n`-sized scratch; the members' entries of both are
/// overwritten. **Precondition:** `active_prob` is 0 outside `members`
/// (every distribution holder and target is a member, so the non-member
/// entries are never written and stay 0). Restricting the Jacobi update
/// to members changes no bit: a non-member's complement would stay 1.0,
/// giving `new_p = 0 = old`, and the max-|Δ| convergence test does not
/// depend on iteration order.
///
/// The fixpoint round count is deliberately small: iterating to the true
/// fixpoint over-amplifies through short cycles (the independence
/// assumption echoes A→B→A), while 3 rounds keeps the estimate within
/// ±15% of Monte-Carlo on adversarially dense reciprocal graphs (see
/// `tests/evaluator_consistency.rs`). Forests converge immediately (delta
/// 0 after one round), so the pinned paper numbers are untouched.
pub(crate) fn propagate_activation(
    dists: &[DistRef<'_>],
    members: &[NodeId],
    seeds: &[NodeId],
    seed_mask: &[bool],
    active_prob: &mut [f64],
    complement: &mut [f64],
) {
    for &v in members {
        active_prob[v.index()] = 0.0;
    }
    for &s in seeds {
        active_prob[s.index()] = 1.0;
    }
    // Initial ordered pass (exact on forests).
    for d in dists {
        let pu = active_prob[d.node.index()];
        if pu <= 0.0 {
            continue;
        }
        for (&v, &qj) in d.targets.iter().zip(d.q.iter()) {
            let c = pu * qj;
            let pv = &mut active_prob[v.index()];
            *pv = 1.0 - (1.0 - *pv) * (1.0 - c);
        }
    }
    // Bounded fixpoint refinement: recompute every non-seed member's
    // probability from all incoming distributions.
    for _ in 0..3 {
        for &v in members {
            complement[v.index()] = 1.0;
        }
        for d in dists {
            let pu = active_prob[d.node.index()];
            if pu <= 0.0 {
                continue;
            }
            for (&v, &qj) in d.targets.iter().zip(d.q.iter()) {
                complement[v.index()] *= 1.0 - pu * qj;
            }
        }
        let mut delta = 0.0f64;
        for &v in members {
            let i = v.index();
            if seed_mask[i] {
                continue;
            }
            let new_p = 1.0 - complement[i];
            let old = active_prob[i];
            if (new_p - old).abs() > delta {
                delta = (new_p - old).abs();
            }
            active_prob[i] = new_p;
        }
        if delta < 1e-12 {
            break;
        }
    }
}

/// Backward pass: subtree gains in descending level order, reusing the
/// forward pass's distributions (holders with no eligible children are
/// no-ops — their gain stays their own benefit). `subtree_gain` must
/// arrive initialized to every node's own benefit.
pub(crate) fn accumulate_gains(dists: &[DistRef<'_>], data: &NodeData, subtree_gain: &mut [f64]) {
    for d in dists.iter().rev() {
        let mut gain = data.benefit(d.node);
        for (&v, &qj) in d.targets.iter().zip(d.q.iter()) {
            gain += qj * subtree_gain[v.index()];
        }
        subtree_gain[d.node.index()] = gain;
    }
}

/// `Σ_v P(v)·b(v)` over the spread members, in spread order.
pub(crate) fn benefit_sum(order: &[NodeId], active_prob: &[f64], data: &NodeData) -> f64 {
    order
        .iter()
        .map(|&v| active_prob[v.index()] * data.benefit(v))
        .sum()
}

impl SpreadState {
    /// Evaluate the deployment `(seeds, coupons)` analytically.
    pub fn evaluate(
        graph: &CsrGraph,
        data: &NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
    ) -> SpreadState {
        debug_assert_eq!(coupons.len(), graph.node_count());
        let n = graph.node_count();
        let mut seed_mask = vec![false; n];
        for &s in seeds {
            seed_mask[s.index()] = true;
        }
        let (levels, order) = spread_levels(graph, seeds, coupons);

        // (holder, eligible children, q per child) for every coupon holder
        // in the spread. Per-edge redemption probabilities q are static per
        // deployment (they depend only on each holder's ranked eligible
        // children and coupon count), so they are computed once and shared
        // by the forward and backward passes.
        let mut distributions: Vec<(NodeId, Vec<NodeId>, Vec<f64>)> = Vec::new();
        let mut elig_targets: Vec<NodeId> = Vec::new();
        let mut elig_probs: Vec<f64> = Vec::new();
        for &u in &order {
            let k = coupons[u.index()];
            if k == 0 {
                continue;
            }
            eligible_children(graph, &seed_mask, u, &mut elig_targets, &mut elig_probs);
            if elig_targets.is_empty() {
                continue;
            }
            let q = redemption_probs(&elig_probs, k);
            distributions.push((u, elig_targets.clone(), q));
        }
        let dists: Vec<DistRef<'_>> = distributions
            .iter()
            .map(|(u, targets, q)| DistRef {
                node: *u,
                targets,
                q,
            })
            .collect();

        let mut active_prob = vec![0.0f64; n];
        let mut complement = vec![1.0f64; n];
        propagate_activation(
            &dists,
            &order,
            seeds,
            &seed_mask,
            &mut active_prob,
            &mut complement,
        );

        // Outside the spread every node's gain is just its own benefit (no
        // coupons reach it during the current deployment).
        let mut subtree_gain: Vec<f64> = (0..n)
            .map(|i| data.benefit(NodeId::from_index(i)))
            .collect();
        accumulate_gains(&dists, data, &mut subtree_gain);

        let expected_benefit = benefit_sum(&order, &active_prob, data);

        SpreadState {
            levels,
            active_prob,
            subtree_gain,
            order,
            expected_benefit,
            seed_mask,
            coupons: coupons.to_vec(),
        }
    }

    /// First-order marginal effect of giving `u` `extra` additional coupons:
    /// `(ΔB, ΔCsc)` — the benefit delta weighted by `u`'s activation
    /// probability and downstream gains, and the local expected-SC-cost
    /// delta (paper Table I formula; independent of `u`'s activation).
    pub fn coupon_delta(
        &self,
        graph: &CsrGraph,
        data: &NodeData,
        u: NodeId,
        extra: u32,
    ) -> (f64, f64) {
        let k_old = self.coupons[u.index()];
        self.coupon_count_delta(graph, data, u, k_old + extra)
    }

    /// First-order effect of removing one coupon from `u` (the quantity the
    /// SCM deterioration index is built from). Both components are ≤ 0.
    pub fn coupon_removal_delta(&self, graph: &CsrGraph, data: &NodeData, u: NodeId) -> (f64, f64) {
        let k_old = self.coupons[u.index()];
        if k_old == 0 {
            return (0.0, 0.0);
        }
        self.coupon_count_delta(graph, data, u, k_old - 1)
    }

    /// `(ΔB, ΔCsc)` of changing `u`'s allocation from its current value to
    /// `new_k`, everything else held fixed.
    pub fn coupon_count_delta(
        &self,
        graph: &CsrGraph,
        data: &NodeData,
        u: NodeId,
        new_k: u32,
    ) -> (f64, f64) {
        let k_old = self.coupons[u.index()];
        let mut targets = Vec::new();
        let mut probs = Vec::new();
        eligible_children(graph, &self.seed_mask, u, &mut targets, &mut probs);
        if targets.is_empty() {
            return (0.0, 0.0);
        }
        let q_old = redemption_probs(&probs, k_old);
        let q_new = redemption_probs(&probs, new_k);
        let pu = self.active_prob[u.index()];
        let mut db = 0.0;
        let mut dc = 0.0;
        for ((&v, &qo), &qn) in targets.iter().zip(q_old.iter()).zip(q_new.iter()) {
            let dq = qn - qo;
            db += pu * dq * self.subtree_gain[v.index()];
            dc += dq * data.sc_cost(v);
        }
        (db, dc)
    }
}

/// Benefit and total cost of a standalone "seed package": `v` activated as a
/// seed with `k` coupons, evaluated in isolation (the quantity the ID phase
/// ranks its pivot-source queue by).
pub fn standalone_package(graph: &CsrGraph, data: &NodeData, v: NodeId, k: u32) -> (f64, f64) {
    let probs = graph.out_probs(v);
    let q = redemption_probs(probs, k);
    let mut benefit = data.benefit(v);
    let mut cost = data.seed_cost(v);
    for ((t, _), &qj) in graph.ranked_out(v).zip(q.iter()) {
        benefit += qj * data.benefit(t);
        cost += qj * data.sc_cost(t);
    }
    (benefit, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    const EPS: f64 = 1e-9;

    /// The Example 1 tree (see `osn_gen::fixtures::example1`; rebuilt here
    /// to keep this crate free of a dev-dependency cycle).
    fn example1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(1, 4, 0.4).unwrap();
        b.add_edge(2, 5, 0.8).unwrap();
        b.add_edge(2, 6, 0.7).unwrap();
        let mut seed_costs = vec![100.0; 7];
        seed_costs[0] = 0.0;
        (
            b.build().unwrap(),
            NodeData::new(vec![1.0; 7], seed_costs, vec![1.0; 7]).unwrap(),
        )
    }

    #[test]
    fn example1_initial_deployment_benefit() {
        // Seed v1 with one SC: B = 1 + 0.6 + (1−0.6)·0.4 = 1.76.
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        assert!((s.expected_benefit - 1.76).abs() < EPS);
        assert!((s.active_prob[1] - 0.6).abs() < EPS);
        assert!((s.active_prob[2] - 0.16).abs() < EPS);
    }

    #[test]
    fn example1_iteration1_marginal_deltas() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);

        // SC to v1 (K1 = 2): ΔB = 0.24, ΔC = 0.24 → MR 1.
        let (db, dc) = s.coupon_delta(&g, &d, NodeId(0), 1);
        assert!((db - 0.24).abs() < EPS, "ΔB(v1) = {db}");
        assert!((dc - 0.24).abs() < EPS, "ΔC(v1) = {dc}");

        // SC to v2: ΔB = 0.42, ΔC = 0.7 → MR 0.6.
        let (db, dc) = s.coupon_delta(&g, &d, NodeId(1), 1);
        assert!((db - 0.42).abs() < EPS, "ΔB(v2) = {db}");
        assert!((dc - 0.7).abs() < EPS, "ΔC(v2) = {dc}");

        // SC to v3: ΔB = 0.1504, ΔC = 0.94 → MR 0.16.
        let (db, dc) = s.coupon_delta(&g, &d, NodeId(2), 1);
        assert!((db - 0.1504).abs() < EPS, "ΔB(v3) = {db}");
        assert!((dc - 0.94).abs() < EPS, "ΔC(v3) = {dc}");
        assert!((db / dc - 0.16).abs() < 1e-3);
    }

    #[test]
    fn deltas_match_full_reevaluation_on_trees() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        for cand in [0u32, 1, 2] {
            let (db, _) = s.coupon_delta(&g, &d, NodeId(cand), 1);
            let mut k2 = k.clone();
            k2[cand as usize] += 1;
            let s2 = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k2);
            assert!(
                (s2.expected_benefit - s.expected_benefit - db).abs() < EPS,
                "delta mismatch at v{cand}"
            );
        }
    }

    #[test]
    fn seed_is_excluded_from_rank_competition() {
        // Fig. 1(c) case 2 geometry: v2's top-ranked friend is the seed v1;
        // v2's single coupon must reach v3 unconditionally.
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 0, 0.36).unwrap(); // v2 -> v1 (seed)
        b.add_edge(1, 2, 0.2).unwrap(); //  v2 -> v3
        b.add_edge(0, 1, 0.5).unwrap(); //  v1 -> v2
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 3.0, 1.0, 1.0);
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &[1, 1, 0]);
        // P(v2) = 0.5; P(v3) = 0.5 · 0.2 (no (1 − 0.36) factor).
        assert!((s.active_prob[1] - 0.5).abs() < EPS);
        assert!((s.active_prob[2] - 0.1).abs() < EPS);
    }

    #[test]
    fn standalone_package_matches_hand_computation() {
        let (g, d) = example1();
        // v1 with 1 coupon: the paper's initial deployment —
        // B = 1 + 0.6 + (1−0.6)·0.4 = 1.76, C = 0 + 0.6 + 0.16 = 0.76.
        let (b, c) = standalone_package(&g, &d, NodeId(0), 1);
        assert!((b - 1.76).abs() < EPS);
        assert!((c - 0.76).abs() < EPS);
        // Leaf: no children, package is just the node itself.
        let (b, c) = standalone_package(&g, &d, NodeId(3), 5);
        assert!((b - 1.0).abs() < EPS);
        assert!((c - 100.0).abs() < EPS);
    }

    #[test]
    fn empty_deployment_is_zero() {
        let (g, d) = example1();
        let s = SpreadState::evaluate(&g, &d, &[], &[0; 7]);
        assert_eq!(s.expected_benefit, 0.0);
        assert!(s.order.is_empty());
    }

    #[test]
    fn spread_stops_at_couponless_nodes() {
        let (g, _) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let (levels, order) = spread_levels(&g, &[NodeId(0)], &k);
        // v2, v3 enter the spread; the leaves do not (v2/v3 hold no coupons).
        assert_eq!(order.len(), 3);
        assert_eq!(levels[3], None);
        k[1] = 1;
        let (levels, order) = spread_levels(&g, &[NodeId(0)], &k);
        assert_eq!(order.len(), 5);
        assert_eq!(levels[3], Some(2));
    }

    #[test]
    fn subtree_gains_accumulate_downstream() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 1; // v2 relays
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        // gain(v2) = 1 + 0.5 + 0.2 = 1.7 (k=1 over [0.5, 0.4]).
        assert!((s.subtree_gain[1] - 1.7).abs() < EPS);
        // gain(v1) = 1 + 0.6·1.7 + 0.16·1 = 2.18.
        assert!((s.subtree_gain[0] - 2.18).abs() < EPS);
    }
}
