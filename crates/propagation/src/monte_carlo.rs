//! Monte-Carlo benefit evaluation over a world cache.
//!
//! Sec. V: `B(S, K(I))` "can be obtained approximately by sampling methods,
//! such as Monte Carlo \[2\]", with accuracy `(1 − ε)` growing in the sample
//! count. Worlds are pre-sampled once per instance
//! ([`WorldCache`]) and each evaluation runs the
//! deterministic coupon-constrained cascade per world, fanned out over
//! 64-world blocks with [`osn_pool`]'s one primitive,
//! [`ThreadPool::map_indexed`].
//!
//! ## Determinism contract
//!
//! Worlds are grouped into **fixed parts of [`PART_WORLDS`] worlds**. A part
//! is always summed serially in world order, and part totals are merged in
//! part order — so the floating-point summation grouping depends only on
//! `PART_WORLDS`, never on the pool size or on which worker ran which part.
//! Estimates are bit-identical across machines with any core count and at
//! every pool size; `tests/determinism.rs` pins this.
//! [`reference_simulate_batch`] spells the contract out as a plain serial
//! loop over the scalar [`world_cascade`]; evaluator results are checked
//! against it bit for bit.
//!
//! ## Batched, bit-parallel evaluation
//!
//! [`MonteCarloEvaluator::simulate_batch`] evaluates many candidate
//! deployments in **one pass over the world cache** on the bit-parallel
//! lane kernel ([`crate::lane`]): worlds are packed [`LANE_WORLDS`] = 64 per
//! block, one `u64` lane mask per edge, and a single frontier expansion
//! advances all 64 worlds at once. The blocks are the world cache itself,
//! sampled once per [`McBackend`], and every candidate of every batch,
//! through any evaluator of that backend, cascades against them. A
//! block spans exactly two aligned
//! [`PART_WORLDS`]-world summation parts, and each part's totals fold the
//! block's lanes in ascending lane order, so lane estimates equal the
//! serial part-grouped fold bit for bit at every pool size. Greedy loops
//! that used to issue N serial `simulate` calls submit one N-candidate
//! batch instead; per candidate the grouping is unchanged, so batched
//! results are bit-identical to per-candidate calls.

use crate::evaluator::DeploymentRef;
use crate::lane::{lane_cascade_block, LaneScratch, LANE_WORLDS};
use crate::reach::{world_cascade, CascadeScratch, WorldOutcome};
use crate::world::WorldCache;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_pool::ThreadPool;
use std::cell::RefCell;

thread_local! {
    /// Thread-local lane scratch, reused across blocks and calls — one
    /// `O(node_count)` arena per thread that ever folds a block: every pool
    /// worker, and every calling thread (callers claim blocks of their own
    /// fold too). Scratch contents never influence results (stamp-based
    /// marking), so reuse cannot affect the determinism contract.
    static SCRATCH: RefCell<LaneScratch> = RefCell::new(LaneScratch::new(0));
}

/// Worlds per summation part. Fixing the part size (rather than deriving it
/// from the worker count) is what makes estimates machine-independent.
pub const PART_WORLDS: usize = 32;

/// Aggregated Monte-Carlo statistics of a deployment. An empty world cache
/// yields all zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimulationStats {
    /// Mean total benefit across worlds — the estimate of `B(S, K(I))`.
    pub expected_benefit: f64,
    /// Mean number of activated users.
    pub mean_activated: f64,
    /// Mean redeemed coupon cost (the *realized* coupon spend, as opposed to
    /// the Table-I allocation cost used in the objective).
    pub mean_redeemed_sc_cost: f64,
    /// Mean farthest hop from the seed set (Table III's metric).
    pub mean_farthest_hop: f64,
}

/// Monte-Carlo evaluator bound to one instance, one [`McBackend`]'s world
/// cache, and one thread pool. Built only through [`McBackend::evaluator`]
/// and [`McBackend::evaluator_on`].
pub struct MonteCarloEvaluator<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
    cache: &'a WorldCache,
    pool: &'a ThreadPool,
}

impl<'a> MonteCarloEvaluator<'a> {
    pub(crate) fn new(
        graph: &'a CsrGraph,
        data: &'a NodeData,
        backend: &'a McBackend,
        pool: &'a ThreadPool,
    ) -> Self {
        assert_eq!(backend.cache.edge_count(), graph.edge_count());
        MonteCarloEvaluator {
            graph,
            data,
            cache: &backend.cache,
            pool,
        }
    }

    /// Full per-world statistics, averaged.
    pub fn simulate(&self, seeds: &[NodeId], coupons: &[u32]) -> SimulationStats {
        self.simulate_batch(&[DeploymentRef { seeds, coupons }])
            .pop()
            .expect("one candidate in, one result out")
    }

    /// Batched evaluation: one [`SimulationStats`] per candidate, each
    /// bit-identical to a standalone [`simulate`](Self::simulate) call, with
    /// one pass over the world cache serving the whole batch.
    pub fn simulate_batch(&self, batch: &[DeploymentRef<'_>]) -> Vec<SimulationStats> {
        let r = self.cache.len();
        if r == 0 || batch.is_empty() {
            return vec![SimulationStats::default(); batch.len()];
        }
        averages(self.fold_worlds(batch), r)
    }

    /// Cascade every candidate through 64-world block `b` of the
    /// bit-parallel kernel and return the block's one or two 32-world part
    /// totals as `(part index, per-candidate totals)`, in part order. Each
    /// part's totals fold the block's lanes in ascending lane order —
    /// exactly the serial world-order summation of the determinism
    /// contract.
    fn fold_block(&self, batch: &[DeploymentRef<'_>], b: usize) -> Vec<(usize, Vec<Totals>)> {
        let base = b * LANE_WORLDS;
        let count = LANE_WORLDS.min(self.cache.len() - base);
        let block = &self.cache.blocks()[b];
        let halves = count.div_ceil(PART_WORLDS);
        let first_part = base / PART_WORLDS;
        let mut out: Vec<(usize, Vec<Totals>)> = (0..halves)
            .map(|h| (first_part + h, vec![Totals::default(); batch.len()]))
            .collect();
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            scratch.ensure_nodes(self.graph.node_count());
            for (c, dep) in batch.iter().enumerate() {
                let lanes = lane_cascade_block(
                    self.graph,
                    self.data,
                    dep.seeds,
                    dep.coupons,
                    block,
                    scratch,
                );
                for (h, (_, part)) in out.iter_mut().enumerate() {
                    let acc = &mut part[c];
                    for l in h * PART_WORLDS..((h + 1) * PART_WORLDS).min(count) {
                        acc.benefit += lanes.benefit[l];
                        acc.redeemed_sc_cost += lanes.redeemed_sc_cost[l];
                        acc.activated += lanes.activated[l] as usize;
                        acc.farthest_hop_sum += lanes.farthest_hop[l] as f64;
                    }
                }
            }
        });
        out
    }

    /// The fold: one [`ThreadPool::map_indexed`] index per 64-world block.
    /// Results come back in block order, hence part order, and part totals
    /// merge in that order — so the summation grouping never depends on
    /// which thread ran which block.
    fn fold_worlds(&self, batch: &[DeploymentRef<'_>]) -> Vec<Totals> {
        let r = self.cache.len();
        let in_order: Vec<(usize, Vec<Totals>)> = self
            .pool
            .map_indexed(r.div_ceil(LANE_WORLDS), |b| self.fold_block(batch, b))
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(
            in_order.len(),
            r.div_ceil(PART_WORLDS),
            "every part must be claimed exactly once"
        );
        debug_assert!(in_order.iter().enumerate().all(|(i, &(p, _))| i == p));
        let mut acc = vec![Totals::default(); batch.len()];
        for (_, part) in &in_order {
            merge_into(&mut acc, part);
        }
        acc
    }
}

/// The determinism contract as the plainest possible loop: every
/// candidate's scalar [`world_cascade`] per world, summed serially in
/// [`PART_WORLDS`]-world parts that merge in part order — no lane kernel,
/// no pool. [`MonteCarloEvaluator::simulate_batch`] must
/// reproduce this bit for bit at every pool size and batch shape; the
/// tests and proptests check exactly that.
pub fn reference_simulate_batch(
    graph: &CsrGraph,
    data: &NodeData,
    cache: &WorldCache,
    batch: &[DeploymentRef<'_>],
) -> Vec<SimulationStats> {
    let r = cache.len();
    if r == 0 || batch.is_empty() {
        return vec![SimulationStats::default(); batch.len()];
    }
    let mut scratch = CascadeScratch::new(graph.node_count());
    let mut acc = vec![Totals::default(); batch.len()];
    for lo in (0..r).step_by(PART_WORLDS) {
        let mut part = vec![Totals::default(); batch.len()];
        for w in lo..(lo + PART_WORLDS).min(r) {
            let world = cache.world(w);
            for (t, dep) in part.iter_mut().zip(batch) {
                t.add(world_cascade(
                    graph,
                    data,
                    dep.seeds,
                    dep.coupons,
                    world,
                    &mut scratch,
                ));
            }
        }
        merge_into(&mut acc, &part);
    }
    averages(acc, r)
}

/// Per-candidate totals over `r` worlds, as averaged statistics.
fn averages(totals: Vec<Totals>, r: usize) -> Vec<SimulationStats> {
    let rf = r as f64;
    totals
        .into_iter()
        .map(|t| SimulationStats {
            expected_benefit: t.benefit / rf,
            mean_activated: t.activated as f64 / rf,
            mean_redeemed_sc_cost: t.redeemed_sc_cost / rf,
            mean_farthest_hop: t.farthest_hop_sum / rf,
        })
        .collect()
}

/// The owning Monte-Carlo backend factory: one sampled world cache that
/// every evaluator it builds (one per campaign request in the serve
/// daemon) cascades against. Sampling parameters and evaluator
/// construction live in one place, with **no** process-global
/// configuration involved.
pub struct McBackend {
    cache: WorldCache,
}

impl McBackend {
    /// Sample `worlds` worlds with streams seeded from `seed` on the shared
    /// global pool.
    pub fn sample(graph: &CsrGraph, worlds: usize, seed: u64) -> Self {
        Self::from_cache(WorldCache::sample(graph, worlds, seed))
    }

    /// Wrap an already-sampled cache.
    pub fn from_cache(cache: WorldCache) -> Self {
        McBackend { cache }
    }

    /// The backing world cache (telemetry reads sizes and densities here).
    pub fn cache(&self) -> &WorldCache {
        &self.cache
    }

    /// The backing world cache, as [`cache`](Self::cache) returns it (its
    /// lane blocks are all it holds). Kept only because the benchmark's
    /// trace replay reads resident bytes through it.
    pub fn lane_store(&self) -> &WorldCache {
        &self.cache
    }

    /// A batched evaluator over the backing cache on the global pool.
    pub fn evaluator<'a>(
        &'a self,
        graph: &'a CsrGraph,
        data: &'a NodeData,
    ) -> MonteCarloEvaluator<'a> {
        self.evaluator_on(graph, data, osn_pool::global())
    }

    /// As [`evaluator`](Self::evaluator), folding on an explicit pool. The
    /// pool size never changes results (see the module docs); the
    /// determinism tests use size-1, size-2 and `available_parallelism`
    /// pools to pin that.
    pub fn evaluator_on<'a>(
        &'a self,
        graph: &'a CsrGraph,
        data: &'a NodeData,
        pool: &'a ThreadPool,
    ) -> MonteCarloEvaluator<'a> {
        MonteCarloEvaluator::new(graph, data, self, pool)
    }
}

fn merge_into(acc: &mut [Totals], part: &[Totals]) {
    debug_assert_eq!(acc.len(), part.len());
    for (a, t) in acc.iter_mut().zip(part) {
        a.merge(*t);
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    benefit: f64,
    redeemed_sc_cost: f64,
    activated: usize,
    farthest_hop_sum: f64,
}

impl Totals {
    fn add(&mut self, o: WorldOutcome) {
        self.benefit += o.benefit;
        self.redeemed_sc_cost += o.redeemed_sc_cost;
        self.activated += o.activated;
        self.farthest_hop_sum += o.farthest_hop as f64;
    }

    fn merge(&mut self, o: Totals) {
        self.benefit += o.benefit;
        self.redeemed_sc_cost += o.redeemed_sc_cost;
        self.activated += o.activated;
        self.farthest_hop_sum += o.farthest_hop_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpreadEngine;
    use crate::estimator::BenefitEstimator;
    use osn_graph::GraphBuilder;

    /// A backend over `worlds` freshly sampled worlds of `g`.
    fn backend(g: &CsrGraph, worlds: usize, seed: u64) -> McBackend {
        McBackend::from_cache(WorldCache::sample(g, worlds, seed))
    }

    fn example1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(1, 4, 0.4).unwrap();
        b.add_edge(2, 5, 0.8).unwrap();
        b.add_edge(2, 6, 0.7).unwrap();
        (b.build().unwrap(), NodeData::uniform(7, 1.0, 1.0, 1.0))
    }

    /// Two candidates with different seeds and coupon vectors over
    /// [`example1`].
    fn two_candidates() -> (Vec<NodeId>, Vec<NodeId>, Vec<u32>, Vec<u32>) {
        (
            vec![NodeId(0)],
            vec![NodeId(0), NodeId(1)],
            vec![2, 1, 1, 0, 0, 0, 0],
            vec![1, 2, 2, 0, 0, 0, 0],
        )
    }

    /// Assert `got` equals `want` bit for bit.
    fn assert_bitwise(got: &[SimulationStats], want: &[SimulationStats], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(
                g.expected_benefit.to_bits(),
                w.expected_benefit.to_bits(),
                "{what}"
            );
            assert_eq!(g, w, "{what}");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_on_tree() {
        let (g, d) = example1();
        let mc_backend = backend(&g, 20_000, 1234);
        let ev = mc_backend.evaluator(&g, &d);
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 2;
        let mc = ev.simulate(&[NodeId(0)], &k).expected_benefit;
        let exact = SpreadEngine::new(&g, &d, &[NodeId(0)], &k).expected_benefit();
        assert!(
            (mc - exact).abs() < 0.03,
            "MC {mc} vs analytic {exact} diverged"
        );
    }

    /// The reference fold is literally the documented part grouping: a
    /// hand-written 2-part serial sum reproduces it, and so does the pooled
    /// evaluator.
    #[test]
    fn pooled_and_manual_folds_agree_exactly() {
        let (g, d) = example1();
        let mc_backend = backend(&g, 64, 5);
        let cache = mc_backend.cache();
        let pool = ThreadPool::new(2);
        let ev = mc_backend.evaluator_on(&g, &d, &pool);
        let mut k = vec![0u32; 7];
        k[0] = 2;
        let pooled = ev.simulate(&[NodeId(0)], &k);
        let mut scratch = CascadeScratch::new(7);
        let mut total = 0.0;
        for part in 0..2 {
            let mut sum = 0.0;
            for w in part * PART_WORLDS..(part + 1) * PART_WORLDS {
                let world = cache.world(w);
                sum += world_cascade(&g, &d, &[NodeId(0)], &k, world, &mut scratch).benefit;
            }
            total += sum;
        }
        assert_eq!(
            pooled.expected_benefit.to_bits(),
            (total / 64.0).to_bits(),
            "pooled fold must reproduce the part-grouped serial sum exactly"
        );
        let batch = [DeploymentRef {
            seeds: &[NodeId(0)],
            coupons: &k,
        }];
        assert_bitwise(
            &[pooled],
            &reference_simulate_batch(&g, &d, cache, &batch),
            "reference fold",
        );
    }

    /// The lane kernel against the scalar reference fold, at pool sizes 1
    /// and 2, on single-world, ragged sub-64, exact, and multi-block
    /// caches.
    #[test]
    fn lane_and_scalar_kernels_agree_bitwise() {
        let (g, d) = example1();
        let (seeds_a, seeds_b, k1, k2) = two_candidates();
        let batch = [
            DeploymentRef {
                seeds: &seeds_a,
                coupons: &k1,
            },
            DeploymentRef {
                seeds: &seeds_b,
                coupons: &k2,
            },
        ];
        for worlds in [1usize, 48, 64, 160] {
            let mc_backend = backend(&g, worlds, 5);
            let want = reference_simulate_batch(&g, &d, mc_backend.cache(), &batch);
            for threads in [1usize, 2] {
                let pool = ThreadPool::new(threads);
                assert_bitwise(
                    &mc_backend
                        .evaluator_on(&g, &d, &pool)
                        .simulate_batch(&batch),
                    &want,
                    &format!("{worlds} worlds, {threads} workers"),
                );
            }
        }
    }

    /// A v2 file assembled in memory is the same graph as the monolithic
    /// one and runs the same lane path: every shard count gives
    /// bit-identical statistics at pool sizes 1 and 2.
    #[test]
    fn shard_plans_do_not_change_any_estimate() {
        use osn_graph::shard::{sharded_to_bytes, ShardPlan};

        let n = 48u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            if v + 1 < n {
                b.add_edge(v, v + 1, 0.6).unwrap();
            }
            if v + 3 < n {
                b.add_edge(v, v + 3, 0.3).unwrap();
            }
            if v % 5 == 0 && v + 11 < n {
                b.add_edge(v, v + 11, 0.2).unwrap();
            }
        }
        let g = b.build().unwrap();
        let d = NodeData::uniform(n as usize, 1.0, 1.0, 1.0);
        let seeds_a = [NodeId(0), NodeId(17)];
        let seeds_b = [NodeId(40)];
        let k1: Vec<u32> = (0..n).map(|v| v % 3).collect();
        let k2: Vec<u32> = (0..n).map(|v| (v + 1) % 2).collect();
        let batch = [
            DeploymentRef {
                seeds: &seeds_a,
                coupons: &k1,
            },
            DeploymentRef {
                seeds: &seeds_b,
                coupons: &k2,
            },
        ];
        // 80 worlds: one full and one ragged lane block.
        let mono = backend(&g, 80, 13);
        let base = mono.evaluator(&g, &d).simulate_batch(&batch);
        assert_bitwise(
            &base,
            &reference_simulate_batch(&g, &d, mono.cache(), &batch),
            "monolithic",
        );
        for shards in [1usize, 2, 3, 7] {
            let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), shards);
            let path = std::env::temp_dir().join(format!(
                "osn-mc-shards-{shards}-{}.oscg",
                std::process::id()
            ));
            std::fs::write(&path, sharded_to_bytes(&g, None, &plan).unwrap()).unwrap();
            let loaded = osn_graph::binary::load_oscg(&path).unwrap().graph;
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, g, "{shards} shards");
            let sharded = backend(&loaded, 80, 13);
            for threads in [1usize, 2] {
                let pool = ThreadPool::new(threads);
                let got = sharded
                    .evaluator_on(&loaded, &d, &pool)
                    .simulate_batch(&batch);
                assert_bitwise(&got, &base, &format!("{shards} shards, {threads} workers"));
            }
        }
    }

    #[test]
    fn batch_matches_per_candidate_bitwise() {
        let (g, d) = example1();
        let mc_backend = backend(&g, 96, 21);
        let pool = ThreadPool::new(2);
        let ev = mc_backend.evaluator_on(&g, &d, &pool);
        let seeds_a = [NodeId(0)];
        let seeds_b = [NodeId(0), NodeId(1)];
        let k0 = vec![0u32; 7];
        let k1 = vec![2, 1, 1, 0, 0, 0, 0];
        let k2 = vec![1, 2, 2, 0, 0, 0, 0];
        let batch = [
            DeploymentRef {
                seeds: &seeds_a,
                coupons: &k0,
            },
            DeploymentRef {
                seeds: &seeds_a,
                coupons: &k1,
            },
            DeploymentRef {
                seeds: &seeds_b,
                coupons: &k2,
            },
        ];
        let batched = ev.simulate_batch(&batch);
        for (stats, dep) in batched.iter().zip(batch.iter()) {
            let lone = ev.simulate(dep.seeds, dep.coupons);
            assert_eq!(stats, &lone, "batched element diverged from lone call");
            assert_eq!(
                stats.expected_benefit.to_bits(),
                lone.expected_benefit.to_bits()
            );
        }
    }

    #[test]
    fn empty_cache_degenerates_to_zero() {
        let (g, d) = example1();
        let mc_backend = backend(&g, 0, 1);
        let ev = mc_backend.evaluator(&g, &d);
        assert_eq!(
            ev.simulate(&[NodeId(0)], &[0; 7]),
            SimulationStats::default()
        );
        // Batched on an empty cache: one default per candidate.
        let k = vec![0u32; 7];
        let seeds = [NodeId(0)];
        let batch = [DeploymentRef {
            seeds: &seeds,
            coupons: &k,
        }; 3];
        assert_eq!(
            ev.simulate_batch(&batch),
            vec![SimulationStats::default(); 3]
        );
        assert_eq!(
            reference_simulate_batch(&g, &d, mc_backend.cache(), &batch),
            vec![SimulationStats::default(); 3]
        );
    }

    #[test]
    fn empty_batch_yields_empty_result() {
        let (g, d) = example1();
        assert!(backend(&g, 8, 1)
            .evaluator(&g, &d)
            .simulate_batch(&[])
            .is_empty());
    }

    #[test]
    fn single_world_cache_is_one_part() {
        let (g, d) = example1();
        let mc_backend = backend(&g, 1, 9);
        let pool = ThreadPool::new(2);
        let k = vec![2u32, 2, 2, 0, 0, 0, 0];
        let stats = mc_backend
            .evaluator_on(&g, &d, &pool)
            .simulate(&[NodeId(0)], &k);
        let mut scratch = CascadeScratch::new(7);
        let lone = world_cascade(
            &g,
            &d,
            &[NodeId(0)],
            &k,
            mc_backend.cache().world(0),
            &mut scratch,
        );
        assert_eq!(stats.expected_benefit.to_bits(), lone.benefit.to_bits());
        assert_eq!(stats.mean_activated, lone.activated as f64);
    }

    #[test]
    fn lane_kernel_handles_edgeless_graphs() {
        let g = GraphBuilder::new(4).build().unwrap();
        let d = NodeData::uniform(4, 1.0, 1.0, 1.0);
        let mc_backend = backend(&g, 16, 3);
        let ev = mc_backend.evaluator(&g, &d);
        let k = vec![1u32; 4];
        let seeds = [NodeId(2), NodeId(0)];
        let batch = [DeploymentRef {
            seeds: &seeds,
            coupons: &k,
        }];
        assert_bitwise(
            &ev.simulate_batch(&batch),
            &reference_simulate_batch(&g, &d, mc_backend.cache(), &batch),
            "edgeless",
        );
        assert_eq!(ev.simulate(&seeds, &k).mean_activated, 2.0);
    }

    /// Many threads calling `simulate_batch` against ONE shared evaluator:
    /// every result must be bit-identical to the serial reference.
    #[test]
    fn concurrent_simulate_batch_on_shared_evaluator_is_bit_identical() {
        let (g, d) = example1();
        // 3 lane blocks, the last one ragged.
        let mc_backend = backend(&g, 160, 23);
        let (seeds_a, seeds_b, k1, k2) = two_candidates();
        let batch = [
            DeploymentRef {
                seeds: &seeds_a,
                coupons: &k1,
            },
            DeploymentRef {
                seeds: &seeds_b,
                coupons: &k2,
            },
        ];
        let want = reference_simulate_batch(&g, &d, mc_backend.cache(), &batch);
        let shared = mc_backend.evaluator(&g, &d);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (shared, batch) = (&shared, &batch);
                    s.spawn(move || shared.simulate_batch(batch))
                })
                .collect();
            for h in handles {
                assert_bitwise(&h.join().unwrap(), &want, "concurrent batch");
            }
        });
    }

    /// Evaluators of one backend share its lane blocks: sampling built
    /// them all, evaluating holds nothing more, and every evaluator
    /// matches the reference bit for bit.
    #[test]
    fn evaluators_share_the_backend_lane_store() {
        let (g, d) = example1();
        let mc_backend = backend(&g, 96, 31);
        let k = vec![1u32, 2, 0, 0, 1, 0, 0];
        let seeds = [NodeId(0)];
        let batch = [DeploymentRef {
            seeds: &seeds,
            coupons: &k,
        }];
        let want = reference_simulate_batch(&g, &d, mc_backend.cache(), &batch);
        assert_eq!(mc_backend.cache().blocks().len(), 2, "96 worlds = 2 blocks");
        let sampled = mc_backend.cache().resident_bytes();
        assert!(sampled > 0);
        for _ in 0..3 {
            let got = mc_backend.evaluator(&g, &d).simulate_batch(&batch);
            assert_bitwise(&got, &want, "shared lane blocks");
        }
        assert_eq!(mc_backend.cache().resident_bytes(), sampled);
    }

    #[test]
    fn hop_statistics_reflect_spread_depth() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let stats = backend(&g, 8, 2)
            .evaluator(&g, &d)
            .simulate(&[NodeId(0)], &[1, 1, 0]);
        assert_eq!(stats.mean_farthest_hop, 2.0);
        assert_eq!(stats.mean_activated, 3.0);
    }
}
