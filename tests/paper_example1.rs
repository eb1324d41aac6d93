//! Reproduces Example 1 (Sec. IV-A): the Investment Deployment iteration-1
//! arithmetic on the two-level tree of Fig. 3.

use osn_gen::fixtures::example1;
use osn_graph::NodeId;
use osn_propagation::{BenefitEstimator, DeltaScratch, SpreadEngine};
use s3crm_core::id_phase::{investment_deployment, ExploreTracker};

const EPS: f64 = 1e-9;

#[test]
fn initial_deployment_numbers() {
    // Seed v1 with one SC: benefit 1.76, expected SC cost 0.76.
    let f = example1();
    let mut k = vec![0u32; 7];
    k[0] = 1;
    let s = SpreadEngine::new(&f.graph, &f.data, &[NodeId(0)], &k);
    assert!((s.expected_benefit() - 1.76).abs() < EPS);
    assert!((s.ledger().sc_cost() - 0.76).abs() < EPS);
}

#[test]
fn iteration1_marginal_redemptions() {
    // MR(v1) = 0.24/0.24 = 1; MR(v2) = 0.42/0.7 = 0.6;
    // MR(v3) = 0.15/0.94 ≈ 0.16. The SC goes to v1.
    let f = example1();
    let mut k = vec![0u32; 7];
    k[0] = 1;
    let s = SpreadEngine::new(&f.graph, &f.data, &[NodeId(0)], &k);
    let mut scratch = DeltaScratch::default();

    let (db1, dc1) = s.coupon_add_delta(NodeId(0), &mut scratch);
    assert!((db1 / dc1 - 1.0).abs() < EPS, "MR(v1) = {}", db1 / dc1);

    let (db2, dc2) = s.coupon_add_delta(NodeId(1), &mut scratch);
    assert!((db2 - 0.42).abs() < EPS && (dc2 - 0.7).abs() < EPS);
    assert!((db2 / dc2 - 0.6).abs() < EPS, "MR(v2) = {}", db2 / dc2);

    let (db3, dc3) = s.coupon_add_delta(NodeId(2), &mut scratch);
    assert!((dc3 - 0.94).abs() < EPS);
    assert!((db3 / dc3 - 0.16).abs() < 1e-3, "MR(v3) = {}", db3 / dc3);

    // v1 wins iteration 1.
    assert!(db1 / dc1 > db2 / dc2 && db2 / dc2 > db3 / dc3);
}

#[test]
fn dependent_edge_becomes_independent_with_second_coupon() {
    // With K1 = 2 both children compete no more: P(v3) jumps 0.16 → 0.4
    // (the paper's "the influence probability improves" broadening effect).
    let f = example1();
    let mut k = vec![0u32; 7];
    k[0] = 1;
    let mut s = SpreadEngine::new(&f.graph, &f.data, &[NodeId(0)], &k);
    assert!((s.active_prob()[2] - 0.16).abs() < EPS);
    s.add_coupons(NodeId(0), 1);
    assert!((s.active_prob()[2] - 0.4).abs() < EPS);
}

#[test]
fn only_v1_is_ever_seeded() {
    // Every other user's seed cost (100) exceeds the budget (5).
    let f = example1();
    let mut tracker = ExploreTracker::new(7);
    let out = investment_deployment(&f.graph, &f.data, f.budget, &mut tracker, 10_000);
    assert_eq!(out.deployment.seeds, vec![NodeId(0)]);
}

#[test]
fn id_invests_greedily_by_marginal_redemption() {
    // With a budget that fits exactly the initial package plus one more
    // coupon (cost 0.76 + 0.24), the loop's move must be v1's second SC
    // (MR 1), never v2's or v3's (MR 0.6 / 0.16 — both also over budget).
    let f = example1();
    let mut tracker = ExploreTracker::new(7);
    let out = investment_deployment(&f.graph, &f.data, 1.0, &mut tracker, 10_000);
    assert!(out.iterations >= 2);
    assert_eq!(out.deployment.coupons[1], 0);
    assert_eq!(out.deployment.coupons[2], 0);
}
