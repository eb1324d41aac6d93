//! Reproduces the Fig. 1 comparison example (Sec. III) end to end:
//! every number the paper prints for IM, PM, and S3CRM on the 5-user
//! network must come out of our propagation engine exactly.

use osn_gen::fixtures::fig1;
use osn_graph::NodeId;
use osn_propagation::McBackend;
use s3crm_baselines::opt::{exhaustive_opt, OptConfig};
use s3crm_core::{s3ca, S3caConfig};
use s3crm_tests::{analytic, deployment};

const EPS: f64 = 1e-9;

#[test]
fn im_package_numbers() {
    // IM with unlimited strategy picks v3 (max influence): benefit 6.6,
    // cost 2.7, redemption rate 2.44.
    let f = fig1();
    let dep = deployment(5, &[2], &[(2, 2)]);
    let (b, c, r) = analytic(&f.graph, &f.data, &dep);
    assert!((b - 6.6).abs() < EPS, "IM benefit {b}");
    assert!((c - 2.7).abs() < EPS, "IM cost {c}");
    assert!((r - 6.6 / 2.7).abs() < EPS);
}

#[test]
fn pm_package_numbers() {
    // PM picks v1: benefit 6.15, cost 2.05, rate 3. Profit = 6.15 − 1.
    let f = fig1();
    let dep = deployment(5, &[0], &[(0, 2)]);
    let (b, c, r) = analytic(&f.graph, &f.data, &dep);
    assert!((b - 6.15).abs() < EPS);
    assert!((c - 2.05).abs() < EPS);
    assert!((r - 3.0).abs() < EPS);
    assert!(
        (b - f.data.seed_cost(NodeId(0)) - 5.15).abs() < EPS,
        "profit"
    );
}

#[test]
fn s3crm_case2_numbers() {
    // Seed v1, one SC each on v1 and v2: benefit 5.46, cost 1.975.
    // The edge v1→v2 is dependent (k1 = 1): P(v2) = (1 − 0.55)·0.5.
    let f = fig1();
    let dep = deployment(5, &[0], &[(0, 1), (1, 1)]);
    let (b, c, r) = analytic(&f.graph, &f.data, &dep);
    assert!((b - 5.46).abs() < EPS, "case-2 benefit {b}");
    assert!((c - 1.975).abs() < EPS, "case-2 cost {c}");
    assert!((r - 5.46 / 1.975).abs() < EPS);
}

#[test]
fn s3crm_case3_is_the_optimum() {
    // Seed v1, SCs on v1 and v4: benefit 8.295, cost 2.675, rate ≈ 3.1 —
    // the paper's best deployment, reaping b(v5) = 6 two hops out.
    let f = fig1();
    let dep = deployment(5, &[0], &[(0, 1), (3, 1)]);
    let (b, c, r) = analytic(&f.graph, &f.data, &dep);
    assert!((b - 8.295).abs() < EPS);
    assert!((c - 2.675).abs() < EPS);
    assert!((r - 8.295 / 2.675).abs() < EPS);

    // The exhaustive solver agrees that this is OPT under the 3.5 budget.
    let (opt_dep, opt_val) = exhaustive_opt(&f.graph, &f.data, f.budget, &OptConfig::default());
    assert_eq!(opt_dep.seeds, vec![NodeId(0)]);
    assert_eq!(opt_dep.coupons, vec![1, 0, 0, 1, 0]);
    assert!((opt_val.rate - r).abs() < EPS);
}

#[test]
fn s3ca_beats_both_im_and_pm_packages() {
    let f = fig1();
    let result = s3ca(&f.graph, &f.data, f.budget, &S3caConfig::default());
    assert!(
        result.objective.rate > 3.0,
        "S3CA rate {} must beat PM's 3.0",
        result.objective.rate
    );
    assert!(result.objective.within_budget(f.budget));
}

#[test]
fn monte_carlo_confirms_the_analytic_numbers() {
    let f = fig1();
    let backend = McBackend::sample(&f.graph, 60_000, 17);
    let dep = deployment(5, &[0], &[(0, 1), (3, 1)]);
    let mc = backend
        .evaluator(&f.graph, &f.data)
        .simulate(&dep.seeds, &dep.coupons)
        .expected_benefit;
    assert!(
        (mc - 8.295).abs() < 0.05,
        "Monte-Carlo benefit {mc} should approach 8.295"
    );
}

#[test]
fn expensive_users_never_become_seeds() {
    // c_seed(v4) = c_seed(v5) = 100 > Binv: the paper notes they can never
    // be seeds, yet v5's benefit is reachable through coupons.
    let f = fig1();
    let result = s3ca(&f.graph, &f.data, f.budget, &S3caConfig::default());
    assert!(!result.deployment.seeds.contains(&NodeId(3)));
    assert!(!result.deployment.seeds.contains(&NodeId(4)));
}
