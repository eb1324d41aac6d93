//! Cross-validation of the two benefit evaluators (Lemma 2's estimation
//! story): the analytic spread evaluator must agree with Monte-Carlo
//! sampling on forests (where it is exact) and stay close on general
//! graphs — through both the per-candidate and the batched entry points.
//! Instance construction is shared with the other integration tests via
//! `s3crm_tests` (`tests/common.rs`).

use osn_gen::{erdos_renyi, seeded_rng, weights};
use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_pool::ThreadPool;
use osn_propagation::world::WorldCache;
use osn_propagation::{
    reference_simulate_batch, BenefitEstimator, DeploymentRef, McBackend, SpreadEngine,
};
use s3crm_tests::{assert_stats_bit_identical, random_tree, root_heavy_coupons, unit_data};

/// Analytic `B(S, K)`, from the production evaluator.
fn analytic_benefit(g: &CsrGraph, d: &NodeData, seeds: &[NodeId], k: &[u32]) -> f64 {
    SpreadEngine::new(g, d, seeds, k).expected_benefit()
}

/// Monte-Carlo `B(S, K)` over `worlds` worlds sampled from `seed`.
fn mc_benefit(
    g: &CsrGraph,
    d: &NodeData,
    seeds: &[NodeId],
    k: &[u32],
    worlds: usize,
    seed: u64,
) -> f64 {
    McBackend::sample(g, worlds, seed)
        .evaluator(g, d)
        .simulate(seeds, k)
        .expected_benefit
}

#[test]
fn exact_on_random_trees() {
    for seed in 0..5u64 {
        let g = random_tree(4, 3, seed);
        let n = g.node_count();
        let d = unit_data(&g);
        // Coupons on the first two levels.
        let k = root_heavy_coupons(n, 10);
        let analytic = analytic_benefit(&g, &d, &[NodeId(0)], &k);
        let mc = mc_benefit(&g, &d, &[NodeId(0)], &k, 30_000, seed ^ 0xF00D);
        let tol = 3.0 * (analytic / 30_000f64).sqrt().max(0.02);
        assert!(
            (analytic - mc).abs() < tol.max(analytic * 0.02),
            "seed {seed}: analytic {analytic} vs MC {mc}"
        );
    }
}

/// The batched path must agree with the serial path and the scalar
/// reference fold **bitwise**, and with the analytic evaluator within
/// Monte-Carlo tolerance — for every batch element, at pool sizes 1, 2
/// and `default_parallelism`.
#[test]
fn batched_path_is_consistent_with_serial_and_analytic() {
    let g = random_tree(4, 3, 11);
    let n = g.node_count();
    let d = unit_data(&g);

    // A batch mixing coupon depths and seed sets.
    let seeds_root = [NodeId(0)];
    let seeds_pair = [NodeId(0), NodeId(1)];
    let no_coupons = vec![0u32; n];
    let shallow = root_heavy_coupons(n, 4);
    let deep = root_heavy_coupons(n, 30);
    let batch = [
        DeploymentRef {
            seeds: &seeds_root,
            coupons: &no_coupons,
        },
        DeploymentRef {
            seeds: &seeds_root,
            coupons: &shallow,
        },
        DeploymentRef {
            seeds: &seeds_pair,
            coupons: &deep,
        },
    ];

    let serial_pool = ThreadPool::new(1);
    let backend = McBackend::from_cache(WorldCache::sample_with_pool(
        &g,
        20_000,
        0xBA7C4,
        &serial_pool,
    ));
    let serial = backend.evaluator_on(&g, &d, &serial_pool);
    let reference = reference_simulate_batch(&g, &d, backend.cache(), &batch);
    for threads in [1usize, 2, osn_pool::default_parallelism()] {
        let pool = ThreadPool::new(threads);
        let ev = backend.evaluator_on(&g, &d, &pool);
        for (i, (stats, dep)) in ev.simulate_batch(&batch).iter().zip(&batch).enumerate() {
            let lone = serial.simulate(dep.seeds, dep.coupons);
            assert_stats_bit_identical(
                stats,
                &lone,
                &format!("batch[{i}] at {threads} workers vs serial simulate"),
            );
            assert_stats_bit_identical(
                stats,
                &reference[i],
                &format!("batch[{i}] at {threads} workers vs reference fold"),
            );
            let exact = analytic_benefit(&g, &d, dep.seeds, dep.coupons);
            let tol = (3.0 * (exact / 20_000f64).sqrt()).max(0.05);
            assert!(
                (stats.expected_benefit - exact).abs() < tol.max(exact * 0.02),
                "batch[{i}]: MC {} vs analytic {exact}",
                stats.expected_benefit
            );
        }
    }
}

#[test]
fn close_on_random_graphs() {
    // On converging-path graphs the analytic evaluator is a documented
    // independence approximation: the bounded fixpoint refinement recovers
    // the cross/back-edge mass a single ordered pass misses, at the price
    // of mild echo inflation through short cycles. On these deliberately
    // cycle-heavy ER digraphs (50% reciprocity → many 2-cycles) the gap
    // measures +11–19%; the tested contract is ±25%. Monte-Carlo remains
    // the ground truth for all reported metrics and for S3CA's final
    // snapshot selection.
    for seed in 0..3u64 {
        let mut rng = seeded_rng(seed);
        let topo = erdos_renyi::gnm(120, 240, &mut rng);
        let mut builder = topo.into_directed(0.5, &mut rng).unwrap();
        weights::assign_weights(
            &mut builder,
            weights::WeightModel::InverseInDegree,
            &mut rng,
        );
        let g = builder.build().unwrap();
        let n = g.node_count();
        let d = unit_data(&g);
        let k: Vec<u32> = (0..n)
            .map(|v| g.out_degree(NodeId(v as u32)).min(2) as u32)
            .collect();
        let seeds = [NodeId(0), NodeId(1)];
        let analytic = analytic_benefit(&g, &d, &seeds, &k);
        let mc = mc_benefit(&g, &d, &seeds, &k, 20_000, seed ^ 0xBEEF);
        let rel = (analytic - mc).abs() / mc.max(1e-9);
        assert!(
            rel < 0.25,
            "seed {seed}: relative gap {rel} (analytic {analytic}, MC {mc})"
        );
    }
}

#[test]
fn stochastic_cascade_matches_world_reachability() {
    // The fresh-coin-flip simulator and the world-based evaluator implement
    // the same semantics; their estimates must converge to each other.
    let mut b = GraphBuilder::new(6);
    b.add_edge(0, 1, 0.7).unwrap();
    b.add_edge(0, 2, 0.5).unwrap();
    b.add_edge(1, 3, 0.6).unwrap();
    b.add_edge(1, 4, 0.4).unwrap();
    b.add_edge(2, 5, 0.3).unwrap();
    let g = b.build().unwrap();
    let d = NodeData::uniform(6, 1.0, 1.0, 1.0);
    let k = vec![1, 2, 1, 0, 0, 0];

    let trials = 30_000;
    let mut rng = seeded_rng(42);
    let mut sum = 0.0;
    for _ in 0..trials {
        sum += osn_propagation::simulate_cascade(&g, &d, &[NodeId(0)], &k, &mut rng).benefit;
    }
    let fresh = sum / trials as f64;

    let worlds = mc_benefit(&g, &d, &[NodeId(0)], &k, trials, 43);
    assert!(
        (fresh - worlds).abs() < 0.03,
        "fresh-flip {fresh} vs world-cache {worlds}"
    );
}
