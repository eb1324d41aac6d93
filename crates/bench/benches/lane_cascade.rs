//! Bit-parallel lane kernel vs a per-world scalar baseline.
//!
//! `simulate_batch` on the full Table II Facebook profile (4K nodes,
//! ~176K directed edges, inverse-in-degree probabilities) with 256 worlds
//! (four 64-world lane blocks) and a 16-candidate batch shaped like the
//! seed-size sweep the IM/PM baselines score. The baseline is
//! [`reference_simulate_batch`]: `world_cascade` run per world and folded
//! serially in 32-world parts. Before any timing, the evaluator is
//! asserted bitwise-equal to it at pool sizes 1, 2, and the full machine —
//! the lane kernel is a pure reorganisation of the same per-world
//! arithmetic, so any divergence is a bug, not noise.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use osn_gen::DatasetProfile;
use osn_graph::NodeId;
use osn_propagation::world::WorldCache;
use osn_propagation::{reference_simulate_batch, DeploymentRef, MonteCarloEvaluator};
use std::time::Duration;

const WORLDS: usize = 256;
const CANDIDATES: usize = 16;

fn bench(c: &mut Criterion) {
    let inst = DatasetProfile::Facebook
        .generate(1.0, 42)
        .expect("instance");
    let n = inst.graph.node_count();
    let mut by_degree: Vec<NodeId> = inst.graph.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(inst.graph.out_degree(v)));
    let candidates: Vec<(Vec<NodeId>, Vec<u32>)> = (0..CANDIDATES)
        .map(|i| {
            let s = 1 << (i % 8);
            let seeds: Vec<NodeId> = by_degree[..s].to_vec();
            let coupons = s3crm_baselines::CouponStrategy::Unlimited.coupons_for_budgeted(
                &inst.graph,
                &inst.data,
                &seeds,
                inst.budget,
            );
            (seeds, coupons)
        })
        .collect();
    let batch: Vec<DeploymentRef<'_>> = candidates
        .iter()
        .map(|(seeds, coupons)| DeploymentRef { seeds, coupons })
        .collect();

    let serial_pool = osn_pool::ThreadPool::new(1);
    let cache = WorldCache::sample_with_pool(&inst.graph, WORLDS, 7, &serial_pool);

    // Sanity: the lane kernel must match the scalar baseline to the bit at
    // every pool size before any timing happens.
    let pools = [
        osn_pool::ThreadPool::new(1),
        osn_pool::ThreadPool::new(2),
        osn_pool::ThreadPool::new(std::thread::available_parallelism().map_or(4, |p| p.get())),
    ];
    let reference = reference_simulate_batch(&inst.graph, &inst.data, &cache, &batch);
    for pool in &pools {
        let stats = MonteCarloEvaluator::with_pool(&inst.graph, &inst.data, &cache, pool)
            .simulate_batch(&batch);
        assert_eq!(
            stats, reference,
            "lane kernel diverged from the scalar baseline"
        );
    }
    eprintln!(
        "lane_cascade[facebook_full]: {} nodes, {} edges, {WORLDS} worlds, \
         {CANDIDATES} candidates — lane kernel bit-identical to the scalar baseline at pools 1/2/max",
        n,
        inst.graph.edge_count(),
    );

    let ev_lane = MonteCarloEvaluator::with_pool(&inst.graph, &inst.data, &cache, &serial_pool);

    // Batch sizes spanning the evaluator's real call shapes: single-candidate
    // incremental re-evaluations, small lazy-rescoring batches, and the full
    // 16-candidate sweep. The scalar baseline decodes every world per call,
    // so its cost is near-flat in batch size; the lane kernel's cached
    // blocks make small batches the biggest win.
    let mut group = c.benchmark_group("lane_cascade_simulate_batch");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for size in [1usize, 4, 16] {
        let sub = &batch[..size];
        group.bench_function(BenchmarkId::new("scalar_serial", size), |b| {
            b.iter(|| reference_simulate_batch(&inst.graph, &inst.data, &cache, black_box(sub)))
        });
        group.bench_function(BenchmarkId::new("lane_serial", size), |b| {
            b.iter(|| ev_lane.simulate_batch(black_box(sub)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
