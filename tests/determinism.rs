//! End-to-end determinism: identical RNG seeds must produce identical
//! instances, identical S3CA deployments, and bit-identical redemption
//! rates across independent runs. This is the contract every future
//! parallelization or batching PR must preserve — a data race or
//! iteration-order change in the evaluator or the greedy loops shows up
//! here before it corrupts any experiment.

use osn_gen::DatasetProfile;
use osn_graph::{CsrGraph, GraphBuilder, NodeData};
use osn_pool::ThreadPool;
use osn_propagation::world::WorldCache;
use osn_propagation::{reference_simulate_batch, DeploymentRef, McBackend, SimulationStats};
use s3crm_core::id_phase::{investment_deployment, ExploreTracker};
use s3crm_core::{s3ca, S3caConfig};
use s3crm_tests::{assert_stats_bit_identical, investment_deployment_reference};

/// Generate-from-scratch twice, run S3CA twice, compare everything.
#[test]
fn same_seed_same_deployment_and_rate() {
    for (profile, seed) in [
        (DatasetProfile::Facebook, 42u64),
        (DatasetProfile::Epinions, 7u64),
    ] {
        let a = profile.generate(0.02, seed).expect("generation");
        let b = profile.generate(0.02, seed).expect("generation");

        assert_eq!(
            a.graph.node_count(),
            b.graph.node_count(),
            "{profile:?}: node counts diverged"
        );
        assert_eq!(
            a.graph.edge_count(),
            b.graph.edge_count(),
            "{profile:?}: edge counts diverged"
        );
        assert_eq!(a.budget, b.budget, "{profile:?}: budgets diverged");

        let ra = s3ca(&a.graph, &a.data, a.budget, &S3caConfig::default());
        let rb = s3ca(&b.graph, &b.data, b.budget, &S3caConfig::default());

        assert_eq!(
            ra.deployment.seeds, rb.deployment.seeds,
            "{profile:?}: seed sets diverged under identical seeds"
        );
        assert_eq!(
            ra.deployment.coupons, rb.deployment.coupons,
            "{profile:?}: coupon allocations diverged under identical seeds"
        );
        // Bit-identical, not approximately equal: the analytic evaluator
        // must walk the graph in the same order both times.
        assert_eq!(
            ra.objective.rate.to_bits(),
            rb.objective.rate.to_bits(),
            "{profile:?}: redemption rate not bit-identical"
        );
        assert_eq!(
            ra.objective.benefit.to_bits(),
            rb.objective.benefit.to_bits()
        );
        assert_eq!(
            ra.objective.seed_cost.to_bits(),
            rb.objective.seed_cost.to_bits()
        );
        assert_eq!(
            ra.objective.sc_cost.to_bits(),
            rb.objective.sc_cost.to_bits()
        );
    }
}

/// The threaded Monte-Carlo evaluator must also be run-to-run deterministic:
/// worlds are seed-indexed (not thread-indexed) and the per-world outcomes
/// are reduced in world order regardless of the worker count.
#[test]
fn monte_carlo_evaluation_is_deterministic_across_runs() {
    let inst = DatasetProfile::Facebook
        .generate(0.02, 3)
        .expect("generation");
    let run = || {
        // 64 worlds exercises the parallel path in both sampling and folding.
        let backend = McBackend::sample(&inst.graph, 64, 11);
        let result = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
        let mc = backend
            .evaluator(&inst.graph, &inst.data)
            .simulate(&result.deployment.seeds, &result.deployment.coupons)
            .expected_benefit;
        (result.deployment, mc)
    };
    let (dep_a, mc_a) = run();
    let (dep_b, mc_b) = run();
    assert_eq!(dep_a.seeds, dep_b.seeds);
    assert_eq!(dep_a.coupons, dep_b.coupons);
    assert_eq!(
        mc_a.to_bits(),
        mc_b.to_bits(),
        "Monte-Carlo estimate not bit-identical: {mc_a} vs {mc_b}"
    );
}

/// The batched evaluator must be bit-identical to serial per-candidate
/// evaluation at **every pool size** — 1 worker (the inline fold), 2
/// workers (the smallest pooled fold), and whatever this machine has. Pool
/// sizes are forced through `McBackend::evaluator_on` and
/// `WorldCache::sample_with_pool`, never ambient state, so the test means
/// the same thing on every runner.
#[test]
fn simulate_batch_is_bit_identical_across_pool_sizes() {
    let inst = DatasetProfile::Facebook
        .generate(0.02, 17)
        .expect("generation");
    let n = inst.graph.node_count();

    // Candidate deployments of assorted shapes, including ones S3CA itself
    // would visit (milestone snapshots from a real run).
    let result = s3ca(&inst.graph, &inst.data, inst.budget, &S3caConfig::default());
    let mut candidates: Vec<(Vec<osn_graph::NodeId>, Vec<u32>)> = vec![
        (Vec::new(), vec![0; n]),
        (vec![osn_graph::NodeId(0)], vec![0; n]),
        (
            result.deployment.seeds.clone(),
            result.deployment.coupons.clone(),
        ),
    ];
    let spread: Vec<u32> = (0..n)
        .map(|v| inst.graph.out_degree(osn_graph::NodeId(v as u32)).min(2) as u32)
        .collect();
    candidates.push((vec![osn_graph::NodeId(0), osn_graph::NodeId(1)], spread));

    // 96 worlds = 3 parts: uneven distribution over 2 workers.
    let serial_pool = ThreadPool::new(1);
    let serial_backend = McBackend::from_cache(WorldCache::sample_with_pool(
        &inst.graph,
        96,
        23,
        &serial_pool,
    ));
    let serial_ev = serial_backend.evaluator_on(&inst.graph, &inst.data, &serial_pool);
    let reference: Vec<SimulationStats> = candidates
        .iter()
        .map(|(seeds, coupons)| serial_ev.simulate(seeds, coupons))
        .collect();
    let batch: Vec<DeploymentRef<'_>> = candidates
        .iter()
        .map(|(seeds, coupons)| DeploymentRef { seeds, coupons })
        .collect();
    // The serial evaluator is the documented fold: the scalar kernel per
    // world, summed in 32-world parts (96 worlds end in a ragged lane block).
    let scalar = reference_simulate_batch(&inst.graph, &inst.data, serial_backend.cache(), &batch);
    for (i, (got, want)) in reference.iter().zip(&scalar).enumerate() {
        assert_stats_bit_identical(got, want, &format!("candidate {i}, lane vs scalar fold"));
    }

    for threads in [1usize, 2, osn_pool::default_parallelism()] {
        let pool = ThreadPool::new(threads);
        let backend =
            McBackend::from_cache(WorldCache::sample_with_pool(&inst.graph, 96, 23, &pool));
        let ev = backend.evaluator_on(&inst.graph, &inst.data, &pool);
        let stats = ev.simulate_batch(&batch);
        assert_eq!(stats.len(), candidates.len());
        for (i, (got, want)) in stats.iter().zip(&reference).enumerate() {
            assert_stats_bit_identical(
                got,
                want,
                &format!("candidate {i}, {threads}-worker batch vs serial simulate"),
            );
        }
        // Per-candidate calls through the same pool agree too (the batch
        // path and the lone path share one fold kernel by construction;
        // this guards against the kernels diverging later).
        for (i, (seeds, coupons)) in candidates.iter().enumerate() {
            assert_stats_bit_identical(
                &ev.simulate(seeds, coupons),
                &reference[i],
                &format!("candidate {i}, {threads}-worker lone simulate"),
            );
        }
    }
}

/// The baselines' parallel fan-outs (IM's round-0 CELF sweep, PM's
/// per-round candidate scoring) must also be pool-size independent —
/// forced through the `_on` variants' explicit-pool args, never ambient
/// state, like `McBackend::evaluator_on`.
#[test]
fn baseline_selections_are_pool_size_independent() {
    use s3crm_baselines::im::{best_feasible_prefix_on, greedy_seed_ranking_on};
    use s3crm_baselines::pm::pm_with_strategy_on;
    use s3crm_baselines::CouponStrategy;

    let inst = DatasetProfile::Facebook
        .generate(0.02, 29)
        .expect("generation");
    let backend = McBackend::sample(&inst.graph, 64, 31);

    let reference_pool = ThreadPool::new(1);
    let im_ref = greedy_seed_ranking_on(&inst.graph, backend.cache(), 32, 6, &reference_pool);
    let prefix_ref = best_feasible_prefix_on(
        &inst.graph,
        &inst.data,
        inst.budget,
        CouponStrategy::Limited(2),
        &im_ref,
        &backend,
        &reference_pool,
    );
    let pm_ref = pm_with_strategy_on(
        &inst.graph,
        &inst.data,
        inst.budget,
        CouponStrategy::Limited(2),
        &reference_pool,
    );
    assert!(!im_ref.is_empty(), "IM reference ranking is vacuous");

    for threads in [2usize, osn_pool::default_parallelism()] {
        let pool = ThreadPool::new(threads);
        let im = greedy_seed_ranking_on(&inst.graph, backend.cache(), 32, 6, &pool);
        assert_eq!(im, im_ref, "IM ranking diverged on a {threads}-worker pool");
        let prefix = best_feasible_prefix_on(
            &inst.graph,
            &inst.data,
            inst.budget,
            CouponStrategy::Limited(2),
            &im,
            &backend,
            &pool,
        );
        assert_eq!(
            prefix.seeds, prefix_ref.seeds,
            "seed-size sweep diverged on a {threads}-worker pool"
        );
        assert_eq!(prefix.coupons, prefix_ref.coupons);
        let pm = pm_with_strategy_on(
            &inst.graph,
            &inst.data,
            inst.budget,
            CouponStrategy::Limited(2),
            &pool,
        );
        assert_eq!(
            pm.seeds, pm_ref.seeds,
            "PM seeds diverged on a {threads}-worker pool"
        );
        assert_eq!(
            pm.coupons, pm_ref.coupons,
            "PM coupons diverged on a {threads}-worker pool"
        );
    }
}

/// A graph loaded from the binary `.oscg` format must drive a fig6-style
/// run to **byte-identical** results as the same graph loaded from a text
/// edge list — same S3CA deployment, bit-identical Monte-Carlo statistics,
/// identical formatted CSV cells — at pool sizes 1 and 2. This is the
/// contract that lets the harness cache instances on disk and substitute
/// real datasets without perturbing any experiment.
#[test]
fn binary_loaded_graph_byte_matches_text_loaded_run() {
    let inst = DatasetProfile::Facebook
        .generate(0.02, 13)
        .expect("generation");

    // Text pipeline: edge list bytes -> parse -> build.
    let mut text = Vec::new();
    osn_graph::io::write_edge_list(&inst.graph, &mut text).expect("text write");
    let text_graph = osn_graph::io::read_edge_list(text.as_slice())
        .expect("text parse")
        .into_builder(inst.graph.node_count())
        .expect("builder")
        .build()
        .expect("build");

    // Binary pipeline: .oscg file -> streaming load.
    let path = std::env::temp_dir().join(format!(
        "s3crm-determinism-binary-{}.oscg",
        std::process::id()
    ));
    {
        let file = std::fs::File::create(&path).expect("create temp file");
        osn_graph::binary::write_oscg(&inst.graph, Some((&inst.data, inst.budget)), file)
            .expect("binary write");
    }
    let loaded = osn_graph::binary::load_oscg(&path).expect("binary load");
    let bin_graph = loaded.graph;
    let workload = loaded.workload.expect("workload block");
    std::fs::remove_file(&path).ok();

    assert_eq!(text_graph, inst.graph, "text round trip changed the graph");
    assert_eq!(bin_graph, inst.graph, "binary round trip changed the graph");
    assert_eq!(workload.data, inst.data);
    assert_eq!(workload.budget.to_bits(), inst.budget.to_bits());

    // Fig6-style run on each source graph: S3CA at the instance budget,
    // then a Monte-Carlo report over a shared world seed.
    let run = |graph: &osn_graph::CsrGraph, pool: &ThreadPool| {
        let result = s3ca(graph, &inst.data, inst.budget, &S3caConfig::default());
        let backend = McBackend::from_cache(WorldCache::sample_with_pool(graph, 96, 23, pool));
        let stats = backend
            .evaluator_on(graph, &inst.data, pool)
            .simulate(&result.deployment.seeds, &result.deployment.coupons);
        (result.deployment, stats)
    };

    for threads in [1usize, 2] {
        let pool = ThreadPool::new(threads);
        let (dep_text, stats_text) = run(&text_graph, &pool);
        let (dep_bin, stats_bin) = run(&bin_graph, &pool);
        assert_eq!(
            dep_text.seeds, dep_bin.seeds,
            "{threads}-worker: seed sets diverged between text and binary"
        );
        assert_eq!(
            dep_text.coupons, dep_bin.coupons,
            "{threads}-worker: coupon allocations diverged"
        );
        assert_stats_bit_identical(
            &stats_text,
            &stats_bin,
            &format!("{threads}-worker text vs binary"),
        );
        // The rendered CSV cells — what an experiment actually writes —
        // must match byte for byte, not just numerically.
        let csv = |stats: &SimulationStats| {
            format!(
                "{},{},{},{}",
                stats.expected_benefit,
                stats.mean_redeemed_sc_cost,
                stats.mean_activated,
                stats.mean_farthest_hop
            )
        };
        assert_eq!(
            csv(&stats_text),
            csv(&stats_bin),
            "{threads}-worker: CSV rows diverged"
        );
    }
}

/// The incremental spread engine is an optimization, not a semantic
/// change: the lazy-greedy engine-backed ID phase must match the seed
/// implementation (exhaustive rescan + from-scratch `SpreadState`
/// oracle re-evaluation per move) decision-for-decision and bit-for-bit, and the
/// CSV cells a fig6-style run would write from either deployment must be
/// byte-identical at pool sizes 1 and 2.
#[test]
fn incremental_engine_matches_reference_csv_at_pinned_pool_sizes() {
    for (profile, seed, budget_mult) in [
        (DatasetProfile::Facebook, 19u64, 1.0),
        (DatasetProfile::Facebook, 19u64, 0.5),
        (DatasetProfile::Epinions, 5u64, 1.0),
    ] {
        let inst = profile.generate(0.02, seed).expect("generation");
        let n = inst.graph.node_count();
        let binv = inst.budget * budget_mult;

        let mut t_engine = ExploreTracker::new(n);
        let mut t_ref = ExploreTracker::new(n);
        let a = investment_deployment(&inst.graph, &inst.data, binv, &mut t_engine, 200_000);
        let b = investment_deployment_reference(&inst.graph, &inst.data, binv, &mut t_ref, 200_000);
        assert_eq!(
            a.deployment, b.deployment,
            "{profile:?}: engine and reference D* diverged"
        );
        assert_eq!(a.iterations, b.iterations, "{profile:?}: move counts");
        assert_eq!(
            t_engine.count(),
            t_ref.count(),
            "{profile:?}: explored sets diverged (Fig. 9 ratio would drift)"
        );
        assert_eq!(a.objective.rate.to_bits(), b.objective.rate.to_bits());
        assert_eq!(a.objective.benefit.to_bits(), b.objective.benefit.to_bits());
        assert_eq!(a.objective.sc_cost.to_bits(), b.objective.sc_cost.to_bits());
        assert_eq!(a.snapshots.len(), b.snapshots.len(), "{profile:?}");
        for (sa, sb) in a.snapshots.iter().zip(b.snapshots.iter()) {
            assert_eq!(sa.deployment, sb.deployment, "{profile:?}: snapshot");
            assert_eq!(
                sa.objective.rate.to_bits(),
                sb.objective.rate.to_bits(),
                "{profile:?}: snapshot objective"
            );
        }

        // Fig6-style CSV cells from the full engine-backed pipeline must be
        // byte-identical across pinned pool sizes, and identical whether
        // the scored deployment came from the engine or the reference path.
        let csv_cells = |dep: &s3crm_core::Deployment, pool: &ThreadPool| {
            let backend =
                McBackend::from_cache(WorldCache::sample_with_pool(&inst.graph, 96, 23, pool));
            let stats = backend
                .evaluator_on(&inst.graph, &inst.data, pool)
                .simulate(&dep.seeds, &dep.coupons);
            format!(
                "{},{},{},{}",
                stats.expected_benefit,
                stats.mean_redeemed_sc_cost,
                stats.mean_activated,
                stats.mean_farthest_hop
            )
        };
        let full = s3ca(&inst.graph, &inst.data, binv, &S3caConfig::default());
        let mut rows = Vec::new();
        for threads in [1usize, 2] {
            let pool = ThreadPool::new(threads);
            assert_eq!(
                csv_cells(&a.deployment, &pool),
                csv_cells(&b.deployment, &pool),
                "{profile:?}: engine-vs-reference CSV drift at {threads} workers"
            );
            rows.push(csv_cells(&full.deployment, &pool));
        }
        assert_eq!(
            rows[0], rows[1],
            "{profile:?}: pipeline CSV drifted between pool sizes 1 and 2"
        );
    }
}

/// The lazy-greedy engine path must match the reference (exhaustive
/// rescan + from-scratch oracle evaluation) decision-for-decision and
/// bit-for-bit on `(graph, data)` at every budget — while doing no more
/// marginal evaluations.
fn assert_engine_matches_reference(graph: &CsrGraph, data: &NodeData, budgets: &[f64]) {
    let n = graph.node_count();
    for &binv in budgets {
        let mut ta = ExploreTracker::new(n);
        let mut tb = ExploreTracker::new(n);
        let a = investment_deployment(graph, data, binv, &mut ta, 10_000);
        let b = investment_deployment_reference(graph, data, binv, &mut tb, 10_000);
        assert_eq!(a.deployment, b.deployment, "deployment at Binv {binv}");
        assert_eq!(
            a.objective.rate.to_bits(),
            b.objective.rate.to_bits(),
            "rate at Binv {binv}"
        );
        assert_eq!(a.iterations, b.iterations, "iterations at Binv {binv}");
        assert_eq!(ta.count(), tb.count(), "explored set at Binv {binv}");
        assert_eq!(a.snapshots.len(), b.snapshots.len());
        for (sa, sb) in a.snapshots.iter().zip(b.snapshots.iter()) {
            assert_eq!(sa.deployment, sb.deployment);
            assert_eq!(sa.objective.rate.to_bits(), sb.objective.rate.to_bits());
            assert_eq!(
                sa.objective.benefit.to_bits(),
                sb.objective.benefit.to_bits()
            );
        }
        assert!(
            a.lazy_rescores <= b.lazy_rescores,
            "lazy path re-scored more ({} > {}) at Binv {binv}",
            a.lazy_rescores,
            b.lazy_rescores
        );
    }
}

/// The engine-backed ID phase matches the reference on the Example 1 tree.
#[test]
fn engine_path_matches_reference_bitwise() {
    let f = osn_gen::fixtures::example1();
    assert_engine_matches_reference(&f.graph, &f.data, &[0.5, 1.0, 2.0, 5.0, 50.0]);
}

/// As above, on an instance where pivot moves actually fire mid-run (two
/// disconnected stars force a second seed package): the structural
/// `rebuild_all` must re-admit previously budget-discarded heap entries
/// exactly like the reference rescan does.
#[test]
fn engine_matches_reference_across_pivot_moves() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 0.9).unwrap();
    b.add_edge(2, 3, 0.9).unwrap();
    let g = b.build().unwrap();
    let d = NodeData::new(vec![2.0; 4], vec![0.5, 100.0, 0.5, 100.0], vec![1.0; 4]).unwrap();
    assert_engine_matches_reference(&g, &d, &[1.0, 2.0, 5.0, 10.0]);
}

/// Different seeds must actually change the generated instance — guards
/// against a generator that silently ignores its seed, which would make
/// the two tests above vacuous.
#[test]
fn different_seeds_differ() {
    let a = DatasetProfile::Facebook
        .generate(0.02, 1)
        .expect("generation");
    let b = DatasetProfile::Facebook
        .generate(0.02, 2)
        .expect("generation");
    let pa: Vec<f64> = a.graph.edge_probs_flat().to_vec();
    let pb: Vec<f64> = b.graph.edge_probs_flat().to_vec();
    assert!(
        a.graph.edge_count() != b.graph.edge_count() || pa != pb,
        "seeds 1 and 2 produced identical graphs"
    );
}
