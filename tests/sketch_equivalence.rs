//! Sketch-vs-MC equivalence: the `osn-sketch` coverage oracle must agree
//! with the exact/Monte-Carlo reference within its stated (ε, δ) bound.
//!
//! On **forests** both error sources of the sketch backend vanish
//! structurally (the static demand gate is exact when every node has a
//! unique parent, and the analytic engine is exact on forests), so the
//! only gap is sampling noise — bounded by Hoeffding at `ε·B_total` with
//! probability `1 − δ`. Every fixture here is seeded and the sketch
//! builder's RNG streams are deterministic, so these are pins, not flaky
//! statistical tests: a passing tolerance passes forever.

use proptest::prelude::*;

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_propagation::{BenefitEstimator, McBackend, SpreadEngine};
use osn_sketch::{SketchEstimator, SketchIndex, SketchParams};
use s3crm_core::{s3ca, EstimatorBackend, S3caConfig};

fn params(seed: u64) -> SketchParams {
    SketchParams {
        epsilon: 0.08,
        delta: 0.05,
        roots_per_world: 2,
        seed,
        ..SketchParams::default()
    }
}

/// Strategy: a random tree as (parent_of_i for i in 1..n, edge prob,
/// benefit) triples — node 0 is the root.
fn tree_strategy() -> impl Strategy<Value = Vec<(u32, f64, f64)>> {
    proptest::collection::vec((0u32..8, 0.05f64..1.0, 0.1f64..4.0), 1..10)
}

fn build_tree(spec: &[(u32, f64, f64)]) -> (CsrGraph, NodeData) {
    let n = spec.len() + 1;
    let mut b = GraphBuilder::new(n);
    let mut benefits = vec![1.0f64];
    for (i, &(parent, p, benefit)) in spec.iter().enumerate() {
        let child = (i + 1) as u32;
        b.add_edge(parent.min(child - 1), child, p).unwrap();
        benefits.push(benefit);
    }
    let mut seed_costs = vec![50.0; n];
    seed_costs[0] = 0.0;
    (
        b.build().unwrap(),
        NodeData::new(benefits, seed_costs, vec![1.0; n]).unwrap(),
    )
}

proptest! {
    /// On any seeded tree the sketch estimate lands within ε·B_total of
    /// the exact analytic benefit, for the whole greedy move ladder.
    #[test]
    fn sketch_benefit_within_epsilon_on_trees(spec in tree_strategy(), k0 in 1u32..4) {
        let (g, d) = build_tree(&spec);
        let p = params(0xE0);
        let idx = SketchIndex::build(&g, &d, &p);
        let tol = p.epsilon * d.total_benefit();
        let mut coupons = vec![0u32; g.node_count()];
        coupons[0] = k0.min(g.out_degree(NodeId(0)) as u32);
        let mut sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &coupons);
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
        prop_assert!(
            (sk.expected_benefit() - SpreadEngine::expected_benefit(&engine)).abs() <= tol,
            "initial: sketch {} vs exact {} (tol {tol})",
            sk.expected_benefit(),
            SpreadEngine::expected_benefit(&engine)
        );
        // Costs are exact in every backend — bitwise, not approximately.
        prop_assert_eq!(
            sk.sc_cost().to_bits(),
            SpreadEngine::sc_cost(&engine).to_bits()
        );
        // Walk a deterministic move ladder and re-check at every step.
        for step in 0..3u32 {
            let u = NodeId((step as usize % g.node_count()) as u32);
            let (a1, _) = BenefitEstimator::add_coupons(&mut sk, u, 1);
            let (a2, _) = SpreadEngine::add_coupons(&mut engine, u, 1);
            prop_assert_eq!(a1, a2, "coupon caps must agree");
            prop_assert!(
                (sk.expected_benefit() - SpreadEngine::expected_benefit(&engine)).abs() <= tol,
                "step {step}: sketch {} vs exact {} (tol {tol})",
                sk.expected_benefit(),
                SpreadEngine::expected_benefit(&engine)
            );
            prop_assert_eq!(
                sk.sc_cost().to_bits(),
                SpreadEngine::sc_cost(&engine).to_bits()
            );
        }
    }
}

#[test]
fn degenerate_empty_graph() {
    let g = GraphBuilder::new(0).build().unwrap();
    let d = NodeData::new(vec![], vec![], vec![]).unwrap();
    let idx = SketchIndex::build(&g, &d, &params(1));
    assert_eq!(idx.sketch_count(), 0);
    assert_eq!(idx.unit(), 0.0);
}

#[test]
fn degenerate_p0_edges_confine_spread_to_seeds() {
    let mut b = GraphBuilder::new(4);
    for v in 1..4 {
        b.add_edge(0, v, 0.0).unwrap();
    }
    let g = b.build().unwrap();
    let d = NodeData::new(vec![1.0; 4], vec![0.0, 9.0, 9.0, 9.0], vec![1.0; 4]).unwrap();
    let p = params(2);
    let idx = SketchIndex::build(&g, &d, &p);
    let mut coupons = vec![0u32; 4];
    coupons[0] = 3;
    let sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &coupons);
    let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
    // Dead edges: the exact benefit is the seed's own mass; the sketch
    // must agree within tolerance (sampling alone decides which roots were
    // drawn, no edge is ever live).
    let tol = p.epsilon * d.total_benefit();
    assert!((sk.expected_benefit() - SpreadEngine::expected_benefit(&engine)).abs() <= tol);
    assert_eq!(SpreadEngine::expected_benefit(&engine), 1.0);
}

#[test]
fn degenerate_p1_chain_is_fully_covered() {
    let mut b = GraphBuilder::new(4);
    for v in 0..3u32 {
        b.add_edge(v, v + 1, 1.0).unwrap();
    }
    let g = b.build().unwrap();
    let d = NodeData::new(vec![1.0; 4], vec![0.0, 9.0, 9.0, 9.0], vec![1.0; 4]).unwrap();
    let p = params(3);
    let idx = SketchIndex::build(&g, &d, &p);
    let mut coupons = vec![1u32; 4];
    coupons[3] = 0;
    let sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &coupons);
    // Every edge is live in every world and every node holds a coupon, so
    // every sketch is covered: the estimate is exactly B_total.
    assert_eq!(sk.expected_benefit(), d.total_benefit());
}

#[test]
fn degenerate_zero_coupon_deployment_matches_engine() {
    let mut b = GraphBuilder::new(5);
    b.add_edge(0, 1, 0.7).unwrap();
    b.add_edge(1, 2, 0.6).unwrap();
    b.add_edge(0, 3, 0.5).unwrap();
    b.add_edge(3, 4, 0.4).unwrap();
    let g = b.build().unwrap();
    let d = NodeData::new(vec![2.0; 5], vec![0.0, 9.0, 9.0, 9.0, 9.0], vec![1.0; 5]).unwrap();
    let p = params(4);
    let idx = SketchIndex::build(&g, &d, &p);
    let coupons = vec![0u32; 5];
    let sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &coupons);
    let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &coupons);
    // No coupons, no spread: both sides report exactly the seed's mass.
    let tol = p.epsilon * d.total_benefit();
    assert!((sk.expected_benefit() - SpreadEngine::expected_benefit(&engine)).abs() <= tol);
}

/// The acceptance pin: on seeded generated instances, the sketch-backed
/// full ID phase selects deployments whose *Monte-Carlo-evaluated* benefit
/// is within the index's stated additive (ε, δ) band of the reference
/// pipeline's choice (plus the shared MC evaluation noise, which cancels:
/// both deployments are scored on the same world cache).
#[test]
fn sketch_backed_id_matches_reference_within_epsilon() {
    let p = SketchParams::default(); // ε = 0.1, δ = 0.1 — the stated bound
    for seed in [1u64, 2, 3] {
        let inst = osn_gen::DatasetProfile::Facebook
            .generate(0.05, seed)
            .expect("generation");
        let mc_cfg = S3caConfig::default();
        let sk_cfg = S3caConfig {
            estimator: EstimatorBackend::Sketch,
            ..S3caConfig::default()
        };
        let reference = s3ca(&inst.graph, &inst.data, inst.budget, &mc_cfg);
        let sketch = s3ca(&inst.graph, &inst.data, inst.budget, &sk_cfg);
        assert!(sketch.objective.within_budget(inst.budget * 1.001));
        assert!(
            !reference.deployment.seeds.is_empty(),
            "seed {seed}: no seeds"
        );
        assert!(
            !sketch.deployment.seeds.is_empty(),
            "seed {seed}: no sketch seeds"
        );

        let backend = McBackend::sample(&inst.graph, 512, 0xE7A1 ^ seed);
        let ev = backend.evaluator(&inst.graph, &inst.data);
        let ref_benefit = ev
            .simulate(&reference.deployment.seeds, &reference.deployment.coupons)
            .expected_benefit;
        let sk_benefit = ev
            .simulate(&sketch.deployment.seeds, &sketch.deployment.coupons)
            .expected_benefit;
        let tol = p.epsilon * inst.data.total_benefit();
        assert!(
            sk_benefit >= ref_benefit - tol,
            "seed {seed}: sketch-guided MC benefit {sk_benefit} fell more than \
             ε·B_total = {tol} below reference {ref_benefit}"
        );
    }
}

/// Deployment columns at matched seeds: the sketch backend is bitwise
/// reproducible run-to-run (same index, same greedy trajectory).
#[test]
fn sketch_backend_deployments_are_reproducible() {
    let inst = osn_gen::DatasetProfile::Facebook
        .generate(0.05, 7)
        .expect("generation");
    let cfg = S3caConfig {
        estimator: EstimatorBackend::Sketch,
        ..S3caConfig::default()
    };
    let a = s3ca(&inst.graph, &inst.data, inst.budget, &cfg);
    let b = s3ca(&inst.graph, &inst.data, inst.budget, &cfg);
    assert_eq!(a.deployment, b.deployment);
    assert_eq!(a.objective, b.objective);
}
