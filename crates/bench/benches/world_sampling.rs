//! Dense-reference vs sparse skip-sampled world generation and evaluation
//! — the acceptance benchmark of the sparse-worlds PR.
//!
//! Three comparisons on the full Table II Facebook profile (4K nodes,
//! ~176K directed edges, inverse-in-degree probabilities), plus a
//! Google+-profile slice:
//!
//! * **sampling** — `sample_dense_reference` (one Bernoulli draw per edge
//!   per world, the pre-PR sampler) vs the geometric skip sampler into the
//!   sparse gap-encoded CSR.
//! * **resident bytes** — printed once per profile (criterion only times).
//! * **simulate_batch** — a 16-candidate batched evaluation, pre-PR
//!   baseline vs post-PR default. The baseline reimplements the seed
//!   kernel verbatim (per-rank `world.get(base + rank)` scans over
//!   one-bit-per-edge worlds, serial world-order fold); the new path is
//!   the sparse cache through `MonteCarloEvaluator` on a 1-worker pool, so
//!   the comparison isolates the kernel + storage change from pool
//!   parallelism (the pooled default is also reported).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use osn_gen::DatasetProfile;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::bits::BitVec;
use osn_propagation::world::WorldCache;
use osn_propagation::{reference_simulate_batch, DeploymentRef, MonteCarloEvaluator};
use std::time::Duration;

const WORLDS: usize = 200;
const CANDIDATES: usize = 16;

/// The pre-PR cascade kernel, verbatim: BFS rounds in activation order,
/// every out-edge rank tested against the world bitmap.
fn legacy_world_cascade(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    coupons: &[u32],
    world: &BitVec,
    mark: &mut [u32],
    stamp: &mut u32,
) -> f64 {
    *stamp += 1;
    let stamp = *stamp;
    let mut benefit = 0.0f64;
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut next: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if mark[s.index()] != stamp {
            mark[s.index()] = stamp;
            benefit += data.benefit(s);
            frontier.push(s);
        }
    }
    while !frontier.is_empty() {
        next.clear();
        for &u in &frontier {
            let mut remaining = coupons[u.index()];
            if remaining == 0 {
                continue;
            }
            let base = graph.out_edge_ids(u).start as usize;
            for (rank, &v) in graph.out_targets(u).iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                if mark[v.index()] == stamp {
                    continue;
                }
                if world.get(base + rank) {
                    mark[v.index()] = stamp;
                    benefit += data.benefit(v);
                    remaining -= 1;
                    next.push(v);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    benefit
}

fn legacy_fold(
    graph: &CsrGraph,
    data: &NodeData,
    cache: &WorldCache,
    batch: &[(Vec<NodeId>, Vec<u32>)],
    mark: &mut [u32],
    stamp: &mut u32,
) -> f64 {
    let mut total = 0.0;
    let mut world = BitVec::zeros(cache.edge_count());
    for w in 0..cache.len() {
        // The legacy kernel reads one bit per edge: materialize the world.
        world.clear();
        cache.world_fill_bits(w, &mut world);
        for (seeds, coupons) in batch {
            total += legacy_world_cascade(graph, data, seeds, coupons, &world, mark, stamp);
        }
    }
    total
}

fn report_memory(name: &str, inst: &osn_gen::profiles::GeneratedInstance) {
    let pool = osn_pool::global();
    let sparse = WorldCache::sample_with_pool(&inst.graph, WORLDS, 7, pool);
    // Dense bytes are exact without sampling: one bit per edge per world
    // (word-rounded) plus the per-world `BitVec` header.
    let m = inst.graph.edge_count();
    let dense_bytes = (WORLDS
        * (m.div_ceil(64) * 8 + std::mem::size_of::<osn_propagation::bits::BitVec>()))
        as u64;
    eprintln!(
        "world_sampling[{name}]: {} edges, {WORLDS} worlds, live density {:.4}",
        m,
        sparse.live_density(),
    );
    eprintln!(
        "world_sampling[{name}]: resident bytes dense {} vs sparse {} ({:.2}x smaller)",
        dense_bytes,
        sparse.resident_bytes(),
        dense_bytes as f64 / sparse.resident_bytes() as f64,
    );
}

fn bench(c: &mut Criterion) {
    let facebook = DatasetProfile::Facebook
        .generate(1.0, 42)
        .expect("instance");
    let gplus = DatasetProfile::GooglePlus
        .generate(0.05, 42)
        .expect("instance");
    report_memory("facebook_full", &facebook);
    report_memory("gplus_0.05", &gplus);
    // Google+ at half scale reaches its Table II density regime (< 1%
    // live), where the gap encoding pulls far ahead of one bit per edge.
    // Memory report only — the dense-reference timing at 6M+ edges would
    // dominate the bench run.
    let gplus_half = DatasetProfile::GooglePlus
        .generate(0.5, 42)
        .expect("instance");
    report_memory("gplus_0.5", &gplus_half);
    drop(gplus_half);

    let mut group = c.benchmark_group("world_sampling");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for (name, inst) in [("facebook_full", &facebook), ("gplus_0.05", &gplus)] {
        group.bench_with_input(
            BenchmarkId::new("dense_reference", name),
            inst,
            |b, inst| {
                b.iter(|| WorldCache::sample_dense_reference(&inst.graph, WORLDS, black_box(7)))
            },
        );
        group.bench_with_input(BenchmarkId::new("sparse_skip", name), inst, |b, inst| {
            b.iter(|| WorldCache::sample(&inst.graph, WORLDS, black_box(7)))
        });
    }
    group.finish();

    // Batched evaluation, candidates shaped like the seed-size sweep the
    // IM/PM baselines score: highest-degree seed prefixes of doubling size
    // with the budget-funded unlimited coupon allocation, so cascades run
    // multi-hop the way real experiment evaluations do.
    let inst = &facebook;
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
    let _ = n;
    let batch: Vec<DeploymentRef<'_>> = candidates
        .iter()
        .map(|(seeds, coupons)| DeploymentRef { seeds, coupons })
        .collect();

    let serial_pool = osn_pool::ThreadPool::new(1);
    let legacy_cache = WorldCache::sample_dense_reference(&inst.graph, WORLDS, 7);
    let sparse = WorldCache::sample_with_pool(&inst.graph, WORLDS, 7, &serial_pool);
    let ev_serial = MonteCarloEvaluator::with_pool(&inst.graph, &inst.data, &sparse, &serial_pool);
    let ev_pooled = MonteCarloEvaluator::new(&inst.graph, &inst.data, &sparse);
    // Sanity: the evaluator must match the per-world scalar fold bit for bit.
    assert_eq!(
        ev_serial.simulate_batch(&batch),
        reference_simulate_batch(&inst.graph, &inst.data, &sparse, &batch),
        "evaluator diverged from the scalar fold"
    );

    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut group = c.benchmark_group("simulate_batch_16");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    group.bench_function("legacy_dense_serial", |b| {
        b.iter(|| {
            legacy_fold(
                &inst.graph,
                &inst.data,
                black_box(&legacy_cache),
                &candidates,
                &mut mark,
                &mut stamp,
            )
        })
    });
    group.bench_function("sparse_serial", |b| {
        b.iter(|| ev_serial.simulate_batch(black_box(&batch)))
    });
    group.bench_function("sparse_pooled", |b| {
        b.iter(|| ev_pooled.simulate_batch(black_box(&batch)))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
