//! End-to-end pipeline tests: generate a dataset-shaped network, run every
//! algorithm, and check the cross-algorithm invariants the paper's
//! evaluation relies on.

use osn_gen::DatasetProfile;
use osn_propagation::spread::SpreadState;
use osn_propagation::{McBackend, RedemptionReport};
use s3crm_baselines::im::{im_with_strategy, ImConfig};
use s3crm_baselines::im_s::im_s;
use s3crm_baselines::pm::{pm_with_strategy, PmConfig};
use s3crm_baselines::strategy::CouponStrategy;
use s3crm_core::{s3ca, EstimatorBackend, S3caConfig};
use s3crm_tests::oracle_value;

fn small_facebook() -> osn_gen::profiles::GeneratedInstance {
    DatasetProfile::Facebook.generate(0.06, 77).unwrap() // ~240 nodes
}

#[test]
fn every_algorithm_stays_within_budget() {
    let inst = small_facebook();
    let im_cfg = ImConfig {
        worlds: 16,
        ..ImConfig::default()
    };
    let deployments = vec![
        (
            "IM-U",
            im_with_strategy(
                &inst.graph,
                &inst.data,
                inst.budget,
                CouponStrategy::Unlimited,
                &im_cfg,
            ),
        ),
        (
            "IM-L",
            im_with_strategy(
                &inst.graph,
                &inst.data,
                inst.budget,
                CouponStrategy::DROPBOX,
                &im_cfg,
            ),
        ),
        (
            "PM-U",
            pm_with_strategy(
                &inst.graph,
                &inst.data,
                inst.budget,
                CouponStrategy::Unlimited,
                &PmConfig::default(),
            ),
        ),
        ("IM-S", im_s(&inst.graph, &inst.data, inst.budget, &im_cfg)),
        (
            "S3CA",
            s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default()).deployment,
        ),
    ];
    for (name, dep) in deployments {
        let v = s3crm_core::objective::evaluate(&inst.graph, &inst.data, &dep);
        assert!(
            v.within_budget(inst.budget),
            "{name} exceeded budget: {} > {}",
            v.total_cost(),
            inst.budget
        );
        // Coupon allocations never exceed out-degrees.
        for (i, &k) in dep.coupons.iter().enumerate() {
            let deg = inst.graph.out_degree(osn_graph::NodeId(i as u32)) as u32;
            assert!(k <= deg, "{name}: K[{i}] = {k} > degree {deg}");
        }
    }
}

#[test]
fn s3ca_wins_the_redemption_rate_comparison() {
    // The headline claim: S3CA's redemption rate beats the IM/PM baselines
    // (paper: up to 30x). Evaluate everything on a shared world cache.
    let inst = small_facebook();
    let backend = McBackend::sample(&inst.graph, 400, 5);
    let im_cfg = ImConfig {
        worlds: 16,
        ..ImConfig::default()
    };
    let report = |dep: &s3crm_core::Deployment| {
        RedemptionReport::compute(&inst.graph, &inst.data, &dep.seeds, &dep.coupons, &backend)
            .redemption_rate
    };

    let s3 = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
    let s3_rate = report(&s3.deployment);
    for (name, dep) in [
        (
            "IM-U",
            im_with_strategy(
                &inst.graph,
                &inst.data,
                inst.budget,
                CouponStrategy::Unlimited,
                &im_cfg,
            ),
        ),
        (
            "PM-U",
            pm_with_strategy(
                &inst.graph,
                &inst.data,
                inst.budget,
                CouponStrategy::Unlimited,
                &PmConfig::default(),
            ),
        ),
        ("IM-S", im_s(&inst.graph, &inst.data, inst.budget, &im_cfg)),
    ] {
        let rate = report(&dep);
        assert!(
            s3_rate >= rate * 0.95,
            "S3CA rate {s3_rate} should not lose to {name}'s {rate}"
        );
    }
}

#[test]
fn s3ca_is_deterministic_end_to_end() {
    let inst = small_facebook();
    let a = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
    let b = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
    assert_eq!(a.deployment, b.deployment);
}

/// The objective S3CA returns — after ID alone or after ID, GPI and SC
/// Maneuver, each on its own maintained evaluator — is the from-scratch
/// oracle's value of the returned deployment, bit for bit, under both ID
/// estimators.
#[test]
fn returned_objective_is_the_oracle_value_bitwise() {
    let mut scm_moves = 0;
    let instances = [
        DatasetProfile::Facebook.generate(0.06, 1).unwrap(), // SCM moves coupons
        DatasetProfile::Facebook.generate(0.06, 77).unwrap(),
        DatasetProfile::Douban.generate(0.0001, 5).unwrap(),
        DatasetProfile::Epinions.generate(0.004, 9).unwrap(),
    ];
    for inst in &instances {
        for factor in [0.5, 1.0, 2.0] {
            for (estimator, base) in [EstimatorBackend::Mc, EstimatorBackend::Sketch]
                .into_iter()
                .flat_map(|e| [(e, S3caConfig::default()), (e, S3caConfig::id_only())])
            {
                let config = S3caConfig { estimator, ..base };
                let binv = inst.budget * factor;
                let result = s3ca(&inst.graph, &inst.data, binv, &config);
                scm_moves += result.telemetry.scm_coupons_moved;
                let dep = &result.deployment;
                let state =
                    SpreadState::evaluate(&inst.graph, &inst.data, &dep.seeds, &dep.coupons);
                let oracle = oracle_value(&inst.graph, &inst.data, dep, &state);
                let got = result.objective;
                for (what, a, b) in [
                    ("benefit", got.benefit, oracle.benefit),
                    ("seed cost", got.seed_cost, oracle.seed_cost),
                    ("sc cost", got.sc_cost, oracle.sc_cost),
                    ("rate", got.rate, oracle.rate),
                ] {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{:?} at {factor}x budget, {estimator:?}, SCM {}: {what} {a} vs oracle {b}",
                        inst.profile,
                        config.enable_scm
                    );
                }
            }
        }
    }
    assert!(scm_moves > 0, "no instance exercised SC Maneuver's moves");
}

#[test]
fn phases_never_hurt_the_objective() {
    let inst = small_facebook();
    let id_only = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::id_only());
    let full = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
    assert!(full.objective.rate >= id_only.objective.rate - 1e-9);
}

#[test]
fn budget_monotonicity_of_benefit() {
    // Fig. 6(b): more budget → at least as much total benefit for S3CA.
    let inst = small_facebook();
    let backend = McBackend::sample(&inst.graph, 300, 9);
    let mut last = -1.0f64;
    for factor in [0.5, 1.0, 2.0] {
        let r = s3ca(
            &inst.graph,
            &inst.data,
            inst.budget * factor,
            &S3caConfig::default(),
        );
        let rep = RedemptionReport::compute(
            &inst.graph,
            &inst.data,
            &r.deployment.seeds,
            &r.deployment.coupons,
            &backend,
        );
        assert!(
            rep.expected_benefit >= last * 0.9,
            "benefit should broadly grow with budget: {last} -> {}",
            rep.expected_benefit
        );
        last = rep.expected_benefit;
    }
}

#[test]
fn s3ca_spreads_multiple_hops() {
    // Table III's qualitative claim: S3CA allocates coupons along chains,
    // not just at the seeds, so its spread reaches beyond the first hop.
    // (The paper's IM-L sits at exactly 1 hop on the full-size datasets;
    // on heavily scaled-down instances the budget-ordered BFS allocation
    // reaches deeper, so the cross-algorithm ordering is reported in
    // EXPERIMENTS.md rather than asserted here.)
    let inst = small_facebook();
    let backend = McBackend::sample(&inst.graph, 400, 3);
    let s3 = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
    let s3_hops = RedemptionReport::compute(
        &inst.graph,
        &inst.data,
        &s3.deployment.seeds,
        &s3.deployment.coupons,
        &backend,
    )
    .avg_farthest_hop;
    assert!(
        s3_hops > 0.0,
        "S3CA's spread must reach beyond its seeds in expectation"
    );
    // Note: whether the rate optimum funds *non-seed* internal users
    // depends on the price regime — with 1/in-degree influence
    // probabilities and κ = 10, downstream coupons pay only when seeds are
    // expensive relative to coupons (large κ, the Fig. 7(e) regime), so
    // deep allocation is reported in EXPERIMENTS.md rather than asserted
    // here.
}
