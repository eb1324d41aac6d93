//! Executable form of the Theorem 1 reduction (Sec. III): on the
//! hardness-reduction instance, any optimal S3CRM solution must seed the
//! unique affordable user `v_u`, spend its `k` coupons on the designated
//! `V_b` users, and relay to their `V_a` counterparts — i.e. solve the
//! embedded coverage/IM problem. S3CRM being able to express that instance
//! is exactly what makes it as hard as maximum k-cover.
//!
//! The gadget also illustrates the *limits* of the Theorem 2 guarantee:
//! with the literal `b(V_b) = 0`, `b0 = max b / min b` is unbounded, the
//! approximation ratio `1 − e^{−1/(b0·c0)} − ε` collapses to 0, and the
//! one-step greedy genuinely cannot see through zero-benefit intermediates.
//! Regularizing `b(V_b)` to any positive value restores the guarantee and
//! S3CA recovers the optimum — both directions are asserted below.

use osn_gen::fixtures::hardness_reduction;
use osn_graph::NodeId;
use s3crm_baselines::opt::{exhaustive_opt, OptConfig};
use s3crm_core::{s3ca, S3caConfig};

fn opt_cfg(m: usize, k: usize) -> OptConfig {
    OptConfig {
        max_seeds: 1,
        seed_pool: 4,
        max_total_coupons: (2 * k) as u32,
        max_coupons_per_node: k as u32,
        support_width: 2 * m,
    }
}

#[test]
fn opt_solves_the_embedded_coverage_instance() {
    let (m, k, eps) = (4usize, 2usize, 0.01f64);
    let f = hardness_reduction(m, k, &[1, 3], eps, 0.0);
    let (dep, val) = exhaustive_opt(&f.graph, &f.data, f.budget, &opt_cfg(m, k));

    // The only seed is v_u.
    assert_eq!(dep.seeds, vec![NodeId(0)]);
    // v_u holds exactly k coupons (k = out-degree here).
    assert_eq!(dep.coupons[0], k as u32);
    // The designated V_b users relay (1 coupon each, at zero V_a cost).
    assert!(
        dep.coupons[1] >= 1 && dep.coupons[3] >= 1,
        "{:?}",
        dep.coupons
    );

    // Value: benefit = ε + k·1 (all edges have probability 1);
    // cost = k (seed) + k·ε (coupons into V_b) + 0 (coupons into V_a).
    let expect_benefit = eps + k as f64;
    let expect_cost = k as f64 + k as f64 * eps;
    assert!(
        (val.benefit - expect_benefit).abs() < 1e-9,
        "benefit {}",
        val.benefit
    );
    assert!(
        (val.total_cost() - expect_cost).abs() < 1e-9,
        "cost {}",
        val.total_cost()
    );
}

#[test]
fn greedy_gets_stuck_on_the_literal_gadget() {
    // b(V_b) = 0: v_u's second coupon has zero one-step marginal benefit
    // (its target V_b user carries none itself and holds no coupons yet),
    // so ID stalls after the first pair and SCM has no spare coupons to
    // maneuver. This is the b0 → ∞ regime where Theorem 2 promises
    // nothing — the gadget would not be NP-hard evidence otherwise.
    let (m, k) = (5usize, 2usize);
    let f = hardness_reduction(m, k, &[2, 4], 0.01, 0.0);
    let greedy = s3ca(&f.graph, &f.data, f.budget, &S3caConfig::default());
    let (_, opt) = exhaustive_opt(&f.graph, &f.data, f.budget, &opt_cfg(m, k));
    assert_eq!(greedy.deployment.seeds, vec![NodeId(0)]);
    assert!(
        greedy.objective.rate <= opt.rate + 1e-9,
        "greedy can never beat OPT"
    );
    assert!(
        greedy.objective.benefit < opt.benefit - 0.5,
        "expected the greedy to reach only one counterpart: {} vs OPT {}",
        greedy.objective.benefit,
        opt.benefit
    );
}

#[test]
fn regularized_gadget_restores_the_guarantee() {
    // Any positive b(V_b) makes every marginal visible again; S3CA then
    // recovers the full k-coverage structure.
    let (m, k) = (5usize, 2usize);
    let f = hardness_reduction(m, k, &[2, 4], 0.01, 0.05);
    let greedy = s3ca(&f.graph, &f.data, f.budget, &S3caConfig::default());
    assert_eq!(greedy.deployment.seeds, vec![NodeId(0)]);
    assert_eq!(
        greedy.deployment.coupons[0], k as u32,
        "both coupons bought"
    );
    // Both designated relays funded → both counterparts active.
    let expect_benefit = 0.01 + 2.0 * 0.05 + 2.0;
    assert!(
        (greedy.objective.benefit - expect_benefit).abs() < 1e-9,
        "S3CA benefit {} should be {expect_benefit}",
        greedy.objective.benefit
    );
    assert!(greedy.objective.within_budget(f.budget));
}

#[test]
fn budget_caps_coupons_at_k() {
    // With Binv = k + kε the seed cannot afford more than k coupons into
    // V_b — the mechanism that encodes the k-cover cardinality constraint.
    let f = hardness_reduction(6, 3, &[1, 2, 3], 0.01, 0.05);
    let greedy = s3ca(&f.graph, &f.data, f.budget, &S3caConfig::default());
    assert!(greedy.objective.within_budget(f.budget));
    // Benefit can never exceed ε + k·(vb_benefit) + k (k counterparts).
    assert!(greedy.objective.benefit <= 0.01 + 3.0 * 0.05 + 3.0 + 1e-9);
}

#[test]
fn non_designated_users_are_unreachable() {
    let f = hardness_reduction(4, 2, &[1, 3], 0.01, 0.05);
    let greedy = s3ca(&f.graph, &f.data, f.budget, &S3caConfig::default());
    // v_b^2 (node 2) has no in-edge from v_u: its counterpart v_a^2
    // (node 6) can never be activated.
    let engine = osn_propagation::SpreadEngine::new(
        &f.graph,
        &f.data,
        &greedy.deployment.seeds,
        &greedy.deployment.coupons,
    );
    assert_eq!(engine.active_prob()[6], 0.0);
}
