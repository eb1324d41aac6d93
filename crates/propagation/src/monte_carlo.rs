//! Monte-Carlo benefit evaluation over a world cache.
//!
//! Sec. V: `B(S, K(I))` "can be obtained approximately by sampling methods,
//! such as Monte Carlo [2]", with accuracy `(1 − ε)` growing in the sample
//! count. Worlds are pre-sampled once per instance
//! ([`WorldCache`](crate::world::WorldCache)) and each evaluation runs the
//! deterministic coupon-constrained cascade per world, on a shared
//! [`osn_pool`] work-stealing pool.
//!
//! ## Determinism contract
//!
//! Worlds are grouped into **fixed parts of [`PART_WORLDS`] worlds**. A part
//! is always summed serially in world order, and part totals are merged in
//! part order — so the floating-point summation grouping depends only on
//! `PART_WORLDS`, never on the pool size or on which worker ran which part.
//! Estimates are bit-identical across machines with any core count and
//! across the serial and pooled paths; `tests/determinism.rs` pins this.
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
//! advances all 64 worlds at once. Each block is decoded once per evaluator
//! (or once per [`LaneBlockStore`]) and every candidate of every later batch
//! cascades against it. A block spans exactly two aligned
//! [`PART_WORLDS`]-world summation parts, and each part's totals fold the
//! block's lanes in ascending lane order, so lane estimates equal the
//! serial part-grouped fold bit for bit at every pool size. Greedy loops
//! that used to issue N serial `simulate` calls submit one N-candidate
//! batch instead; per candidate the grouping is unchanged, so batched
//! results are bit-identical to per-candidate calls.

use crate::evaluator::{BenefitEvaluator, DeploymentRef};
use crate::lane::{lane_cascade_block, LaneBlock, LaneScratch, LANE_WORLDS};
use crate::reach::{world_cascade, world_cascade_visit, CascadeScratch, WorldOutcome};
use crate::world::WorldCache;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_pool::ThreadPool;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Worker-local lane scratch, reused across block tasks and calls — one
    /// `O(node_count)` arena per worker thread (and per caller thread on the
    /// inline path). Scratch contents never influence results (stamp-based
    /// marking), so reuse cannot affect the determinism contract.
    static SCRATCH: RefCell<LaneScratch> = RefCell::new(LaneScratch::new(0));
}

/// Worlds per summation part. Fixing the part size (rather than deriving it
/// from the worker count) is what makes estimates machine-independent.
pub const PART_WORLDS: usize = 32;

/// Per-world cascade averages that only a world-simulating evaluator can
/// produce. Analytic backends have no notion of a realized cascade, so
/// [`SimulationStats`] carries these as an explicit `Option` instead of
/// silently zeroed fields — a consumer that needs hop or redeemed-cost
/// columns must confront the `None` case.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CascadeAverages {
    /// Mean redeemed coupon cost (the *realized* coupon spend, as opposed to
    /// the Table-I allocation cost used in the objective).
    pub mean_redeemed_sc_cost: f64,
    /// Mean farthest hop from the seed set (Table III's metric).
    pub mean_farthest_hop: f64,
}

/// Aggregated Monte-Carlo statistics of a deployment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimulationStats {
    /// Mean total benefit across worlds — the estimate of `B(S, K(I))`.
    pub expected_benefit: f64,
    /// Mean number of activated users.
    pub mean_activated: f64,
    /// Per-world cascade statistics; `None` when the evaluator runs no
    /// cascades (the [`BenefitEvaluator`] default and the analytic
    /// implementation).
    pub cascade: Option<CascadeAverages>,
}

/// Monte-Carlo evaluator bound to one instance, one world cache, and one
/// thread pool.
pub struct MonteCarloEvaluator<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
    cache: &'a WorldCache,
    pool: &'a ThreadPool,
    /// Lazily decoded [`LaneBlock`]s, one per 64-world block. A block is a
    /// pure function of the cache and the graph, so whichever worker first
    /// cascades it builds it and every later batch reuses it. Resident size
    /// is ~12 bytes per union-live edge per block. Long-lived owners (the
    /// serve daemon's resident backends) swap in a shared
    /// [`LaneBlockStore`] so the decode survives the evaluator itself.
    lane_blocks: LaneBlocks<'a>,
    /// World×candidate cascades run so far (telemetry: fig9's
    /// `lane_kernel_worlds` column reads this).
    lane_worlds: AtomicU64,
}

impl<'a> MonteCarloEvaluator<'a> {
    /// Evaluator over `cache`'s pre-sampled worlds, folding on the shared
    /// [`osn_pool::global`] pool.
    pub fn new(graph: &'a CsrGraph, data: &'a NodeData, cache: &'a WorldCache) -> Self {
        Self::with_pool(graph, data, cache, osn_pool::global())
    }

    /// Evaluator folding on an explicit pool. The pool size never changes
    /// results (see the module docs); tests use size-1 and size-2 pools to
    /// pin that.
    pub fn with_pool(
        graph: &'a CsrGraph,
        data: &'a NodeData,
        cache: &'a WorldCache,
        pool: &'a ThreadPool,
    ) -> Self {
        assert_eq!(cache.edge_count(), graph.edge_count());
        let mut slots = Vec::new();
        slots.resize_with(lane_block_count(cache), OnceLock::new);
        MonteCarloEvaluator {
            graph,
            data,
            cache,
            pool,
            lane_blocks: LaneBlocks::Owned(slots),
            lane_worlds: AtomicU64::new(0),
        }
    }

    /// Share lane-block decodes through `store` instead of this evaluator's
    /// own slots. `store` must have been built ([`LaneBlockStore::for_cache`])
    /// for the exact cache this evaluator reads: blocks are cached by block
    /// index, so a store from a different cache would serve wrong worlds.
    pub fn with_lane_store(mut self, store: &'a LaneBlockStore) -> Self {
        assert_eq!(
            store.blocks.len(),
            lane_block_count(self.cache),
            "lane store sized for a different world cache"
        );
        self.lane_blocks = LaneBlocks::Shared(store);
        self
    }

    /// World×candidate cascades [`simulate_batch`](Self::simulate_batch)
    /// has run so far.
    pub fn lane_world_count(&self) -> u64 {
        self.lane_worlds.load(Ordering::Relaxed)
    }

    /// Number of worlds backing each estimate.
    pub fn sample_count(&self) -> usize {
        self.cache.len()
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

    /// Cascade every candidate through one ≤ [`LANE_WORLDS`]-world block of
    /// the bit-parallel kernel, and append the block's one or two 32-world
    /// part totals to `out` as `(part index, per-candidate totals)`. Each
    /// part's totals fold the block's lanes in ascending lane order —
    /// exactly the serial world-order summation of the determinism
    /// contract.
    fn fold_block(
        &self,
        batch: &[DeploymentRef<'_>],
        base: usize,
        hi: usize,
        out: &mut Vec<(usize, Vec<Totals>)>,
    ) {
        debug_assert_eq!(base % LANE_WORLDS, 0, "blocks start at lane boundaries");
        let count = hi - base;
        self.lane_worlds
            .fetch_add((count * batch.len()) as u64, Ordering::Relaxed);
        // First cascade over this block decodes it; every later batch and
        // candidate reuses the compacted adjacency.
        let block = self.lane_blocks.slot(base / LANE_WORLDS).get_or_init(|| {
            let valid = if count == LANE_WORLDS {
                !0u64
            } else {
                (1u64 << count) - 1
            };
            let mut lanes = vec![0u64; self.graph.edge_count()];
            self.cache.world_fill_lanes(base, count, &mut lanes);
            LaneBlock::from_edge_masks(self.graph, &lanes, valid)
        });
        SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            scratch.ensure_nodes(self.graph.node_count());
            let halves = count.div_ceil(PART_WORLDS);
            let first_part = base / PART_WORLDS;
            let start = out.len();
            for h in 0..halves {
                out.push((first_part + h, vec![Totals::default(); batch.len()]));
            }
            for (c, dep) in batch.iter().enumerate() {
                let lanes = lane_cascade_block(
                    self.graph,
                    self.data,
                    dep.seeds,
                    dep.coupons,
                    block,
                    scratch,
                );
                for h in 0..halves {
                    let acc = &mut out[start + h].1[c];
                    for l in h * PART_WORLDS..((h + 1) * PART_WORLDS).min(count) {
                        acc.benefit += lanes.benefit[l];
                        acc.redeemed_sc_cost += lanes.redeemed_sc_cost[l];
                        acc.activated += lanes.activated[l] as usize;
                        acc.farthest_hop_sum += lanes.farthest_hop[l] as f64;
                    }
                }
            }
        });
    }

    /// The fold scheduler: workers claim 64-world blocks (each yielding two
    /// aligned 32-world parts) from a shared counter — one boxed job per
    /// worker rather than per block — and part totals merge in ascending
    /// part order, so the summation grouping stays independent of which job
    /// claimed what.
    fn fold_worlds(&self, batch: &[DeploymentRef<'_>]) -> Vec<Totals> {
        let r = self.cache.len();
        let parts = r.div_ceil(PART_WORLDS);
        let blocks = r.div_ceil(LANE_WORLDS);
        let block_bounds = |b: usize| (b * LANE_WORLDS, (b * LANE_WORLDS + LANE_WORLDS).min(r));
        let workers = self.pool.num_threads().min(blocks);
        let mut in_order: Vec<(usize, Vec<Totals>)> = Vec::with_capacity(parts);
        if workers <= 1 {
            // Inline path: blocks in order emit parts in order.
            for b in 0..blocks {
                let (lo, hi) = block_bounds(b);
                self.fold_block(batch, lo, hi, &mut in_order);
            }
        } else {
            let next = AtomicUsize::new(0);
            let mut per_job: Vec<Vec<(usize, Vec<Totals>)>> = Vec::with_capacity(workers);
            per_job.resize_with(workers, Vec::new);
            self.pool.scope(|s| {
                for slot in per_job.iter_mut() {
                    let next = &next;
                    s.spawn(move || loop {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= blocks {
                            break;
                        }
                        let (lo, hi) = block_bounds(b);
                        self.fold_block(batch, lo, hi, slot);
                    });
                }
            });
            in_order.extend(per_job.into_iter().flatten());
            in_order.sort_unstable_by_key(|&(p, _)| p);
        }
        assert_eq!(
            in_order.len(),
            parts,
            "every part must be claimed exactly once"
        );
        let mut acc = vec![Totals::default(); batch.len()];
        for (_, part) in &in_order {
            merge_into(&mut acc, part);
        }
        acc
    }
}

/// The determinism contract as the plainest possible loop: every
/// candidate's scalar [`world_cascade`] per world, summed serially in
/// [`PART_WORLDS`]-world parts that merge in part order — no lanes, no
/// pool, no block cache. [`MonteCarloEvaluator::simulate_batch`] must
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
    let mut buf = Vec::new();
    let mut acc = vec![Totals::default(); batch.len()];
    for lo in (0..r).step_by(PART_WORLDS) {
        let mut part = vec![Totals::default(); batch.len()];
        for w in lo..(lo + PART_WORLDS).min(r) {
            let world = cache.world_into(w, &mut buf);
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
            cascade: Some(CascadeAverages {
                mean_redeemed_sc_cost: t.redeemed_sc_cost / rf,
                mean_farthest_hop: t.farthest_hop_sum / rf,
            }),
        })
        .collect()
}

/// Lane-block slots per cache: one 64-world block per [`LANE_WORLDS`] worlds.
fn lane_block_count(cache: &WorldCache) -> usize {
    cache.len().div_ceil(LANE_WORLDS)
}

/// Where an evaluator keeps its lazily decoded lane blocks: its own slots
/// (the default — blocks die with the evaluator) or a caller-owned
/// [`LaneBlockStore`] shared across evaluators over the same cache.
enum LaneBlocks<'a> {
    Owned(Vec<OnceLock<LaneBlock>>),
    Shared(&'a LaneBlockStore),
}

impl LaneBlocks<'_> {
    fn slot(&self, i: usize) -> &OnceLock<LaneBlock> {
        match self {
            LaneBlocks::Owned(slots) => &slots[i],
            LaneBlocks::Shared(store) => &store.blocks[i],
        }
    }
}

/// A cache-lifetime home for lane-block decodes: one [`OnceLock`] slot per
/// 64-world block of one [`WorldCache`]. Evaluators attached via
/// [`MonteCarloEvaluator::with_lane_store`] fill slots on first use and
/// every later evaluator over the same store reuses them — so a resident
/// server pays each block decode once per cache lifetime, not once per
/// request. Blocks are pure functions of `(graph, cache)`; concurrent
/// first-builders race benignly inside `OnceLock`.
pub struct LaneBlockStore {
    blocks: Vec<OnceLock<LaneBlock>>,
}

impl LaneBlockStore {
    /// An empty store sized for `cache` (blocks decode lazily on first use).
    pub fn for_cache(cache: &WorldCache) -> Self {
        let mut blocks = Vec::new();
        blocks.resize_with(lane_block_count(cache), OnceLock::new);
        LaneBlockStore { blocks }
    }

    /// Bytes held by the blocks decoded so far.
    pub fn resident_bytes(&self) -> usize {
        self.blocks
            .iter()
            .filter_map(|b| b.get())
            .map(|b| b.resident_bytes())
            .sum()
    }

    /// How many of the store's blocks have been decoded.
    pub fn decoded_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.get().is_some()).count()
    }
}

/// The owning Monte-Carlo backend factory: one sampled world cache and a
/// shared [`LaneBlockStore`] so repeated evaluator construction (one per
/// campaign request in the serve daemon) reuses block decodes. Sampling
/// parameters and evaluator construction live in one place, with **no**
/// process-global configuration involved.
pub struct McBackend {
    cache: WorldCache,
    lane_store: LaneBlockStore,
}

impl McBackend {
    /// Sample `worlds` worlds with streams seeded from `seed` on the shared
    /// global pool.
    pub fn sample(graph: &CsrGraph, worlds: usize, seed: u64) -> Self {
        Self::from_cache(WorldCache::sample(graph, worlds, seed))
    }

    /// Wrap an already-sampled cache.
    pub fn from_cache(cache: WorldCache) -> Self {
        let lane_store = LaneBlockStore::for_cache(&cache);
        McBackend { cache, lane_store }
    }

    /// The backing world cache (telemetry reads sizes and densities here).
    pub fn cache(&self) -> &WorldCache {
        &self.cache
    }

    /// The shared lane-block store (telemetry reads resident bytes here).
    pub fn lane_store(&self) -> &LaneBlockStore {
        &self.lane_store
    }

    /// A batched evaluator over the backing cache on the global pool,
    /// sharing this backend's lane-block store.
    pub fn evaluator<'a>(
        &'a self,
        graph: &'a CsrGraph,
        data: &'a NodeData,
    ) -> MonteCarloEvaluator<'a> {
        MonteCarloEvaluator::new(graph, data, &self.cache).with_lane_store(&self.lane_store)
    }

    /// As [`evaluator`](Self::evaluator), folding on an explicit pool.
    pub fn evaluator_on<'a>(
        &'a self,
        graph: &'a CsrGraph,
        data: &'a NodeData,
        pool: &'a ThreadPool,
    ) -> MonteCarloEvaluator<'a> {
        MonteCarloEvaluator::with_pool(graph, data, &self.cache, pool)
            .with_lane_store(&self.lane_store)
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

impl BenefitEvaluator for MonteCarloEvaluator<'_> {
    fn expected_benefit(&self, seeds: &[NodeId], coupons: &[u32]) -> f64 {
        self.simulate(seeds, coupons).expected_benefit
    }

    fn activation_probabilities(&self, seeds: &[NodeId], coupons: &[u32]) -> Vec<f64> {
        // Frequency of activation per node across worlds (serial: only used
        // for reports and tests, not in algorithm hot paths). Runs the
        // scalar cascade kernel with a counting visitor.
        let n = self.graph.node_count();
        let mut counts = vec![0u32; n];
        let mut scratch = CascadeScratch::new(n);
        let mut decode = Vec::new();
        for w in 0..self.cache.len() {
            let world = self.cache.world_into(w, &mut decode);
            world_cascade_visit(
                self.graph,
                self.data,
                seeds,
                coupons,
                world,
                &mut scratch,
                |v| {
                    counts[v.index()] += 1;
                },
            );
        }
        let r = self.cache.len().max(1) as f64;
        counts.iter().map(|&c| c as f64 / r).collect()
    }

    fn simulate(&self, seeds: &[NodeId], coupons: &[u32]) -> SimulationStats {
        MonteCarloEvaluator::simulate(self, seeds, coupons)
    }

    fn simulate_batch(&self, batch: &[DeploymentRef<'_>]) -> Vec<SimulationStats> {
        MonteCarloEvaluator::simulate_batch(self, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::SpreadState;
    use osn_graph::GraphBuilder;

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
        let cache = WorldCache::sample(&g, 20_000, 1234);
        let ev = MonteCarloEvaluator::new(&g, &d, &cache);
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 2;
        let mc = ev.expected_benefit(&[NodeId(0)], &k);
        let exact = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k).expected_benefit;
        assert!(
            (mc - exact).abs() < 0.03,
            "MC {mc} vs analytic {exact} diverged"
        );
    }

    #[test]
    fn activation_probabilities_match_analytic_on_tree() {
        let (g, d) = example1();
        let cache = WorldCache::sample(&g, 20_000, 77);
        let ev = MonteCarloEvaluator::new(&g, &d, &cache);
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mc = ev.activation_probabilities(&[NodeId(0)], &k);
        let exact = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k).active_prob;
        for (i, (a, b)) in mc.iter().zip(exact.iter()).enumerate() {
            assert!((a - b).abs() < 0.02, "node {i}: MC {a} vs exact {b}");
        }
    }

    /// The reference fold is literally the documented part grouping: a
    /// hand-written 2-part serial sum reproduces it, and so does the pooled
    /// evaluator.
    #[test]
    fn pooled_and_manual_folds_agree_exactly() {
        let (g, d) = example1();
        let cache = WorldCache::sample(&g, 64, 5);
        let pool = ThreadPool::new(2);
        let ev = MonteCarloEvaluator::with_pool(&g, &d, &cache, &pool);
        let mut k = vec![0u32; 7];
        k[0] = 2;
        let pooled = ev.simulate(&[NodeId(0)], &k);
        let mut scratch = CascadeScratch::new(7);
        let mut buf = Vec::new();
        let mut total = 0.0;
        for part in 0..2 {
            let mut sum = 0.0;
            for w in part * PART_WORLDS..(part + 1) * PART_WORLDS {
                let world = cache.world_into(w, &mut buf);
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
            &reference_simulate_batch(&g, &d, &cache, &batch),
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
            let cache = WorldCache::sample(&g, worlds, 5);
            let want = reference_simulate_batch(&g, &d, &cache, &batch);
            for threads in [1usize, 2] {
                let pool = ThreadPool::new(threads);
                let ev = MonteCarloEvaluator::with_pool(&g, &d, &cache, &pool);
                assert_bitwise(
                    &ev.simulate_batch(&batch),
                    &want,
                    &format!("{worlds} worlds, {threads} workers"),
                );
                assert_eq!(ev.lane_world_count(), (worlds * batch.len()) as u64);
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
        let cache = WorldCache::sample(&g, 80, 13);
        let base = MonteCarloEvaluator::new(&g, &d, &cache).simulate_batch(&batch);
        assert_bitwise(
            &base,
            &reference_simulate_batch(&g, &d, &cache, &batch),
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
            let cache = WorldCache::sample(&loaded, 80, 13);
            for threads in [1usize, 2] {
                let pool = ThreadPool::new(threads);
                let got = MonteCarloEvaluator::with_pool(&loaded, &d, &cache, &pool)
                    .simulate_batch(&batch);
                assert_bitwise(&got, &base, &format!("{shards} shards, {threads} workers"));
            }
        }
    }

    #[test]
    fn batch_matches_per_candidate_bitwise() {
        let (g, d) = example1();
        let cache = WorldCache::sample(&g, 96, 21);
        let pool = ThreadPool::new(2);
        let ev = MonteCarloEvaluator::with_pool(&g, &d, &cache, &pool);
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
        let cache = WorldCache::sample(&g, 0, 1);
        let ev = MonteCarloEvaluator::new(&g, &d, &cache);
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
            reference_simulate_batch(&g, &d, &cache, &batch),
            vec![SimulationStats::default(); 3]
        );
    }

    #[test]
    fn empty_batch_yields_empty_result() {
        let (g, d) = example1();
        let cache = WorldCache::sample(&g, 8, 1);
        let ev = MonteCarloEvaluator::new(&g, &d, &cache);
        assert!(ev.simulate_batch(&[]).is_empty());
    }

    #[test]
    fn single_world_cache_is_one_part() {
        let (g, d) = example1();
        let cache = WorldCache::sample(&g, 1, 9);
        let pool = ThreadPool::new(2);
        let ev = MonteCarloEvaluator::with_pool(&g, &d, &cache, &pool);
        let k = vec![2u32, 2, 2, 0, 0, 0, 0];
        let stats = ev.simulate(&[NodeId(0)], &k);
        let mut scratch = CascadeScratch::new(7);
        let mut buf = Vec::new();
        let lone = world_cascade(
            &g,
            &d,
            &[NodeId(0)],
            &k,
            cache.world_into(0, &mut buf),
            &mut scratch,
        );
        assert_eq!(stats.expected_benefit.to_bits(), lone.benefit.to_bits());
        assert_eq!(stats.mean_activated, lone.activated as f64);
    }

    #[test]
    fn lane_kernel_handles_edgeless_graphs() {
        let g = GraphBuilder::new(4).build().unwrap();
        let d = NodeData::uniform(4, 1.0, 1.0, 1.0);
        let cache = WorldCache::sample(&g, 16, 3);
        let ev = MonteCarloEvaluator::new(&g, &d, &cache);
        let k = vec![1u32; 4];
        let seeds = [NodeId(2), NodeId(0)];
        let batch = [DeploymentRef {
            seeds: &seeds,
            coupons: &k,
        }];
        assert_bitwise(
            &ev.simulate_batch(&batch),
            &reference_simulate_batch(&g, &d, &cache, &batch),
            "edgeless",
        );
        assert_eq!(ev.simulate(&seeds, &k).mean_activated, 2.0);
    }

    /// Many threads calling `simulate_batch` against ONE shared evaluator:
    /// the first callers race the `OnceLock<LaneBlock>` decode, and every
    /// result must still be bit-identical to the serial reference.
    #[test]
    fn concurrent_simulate_batch_on_shared_evaluator_is_bit_identical() {
        let (g, d) = example1();
        // 3 ragged lane blocks so several OnceLock slots race.
        let cache = WorldCache::sample(&g, 160, 23);
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
        let want = reference_simulate_batch(&g, &d, &cache, &batch);
        let shared = MonteCarloEvaluator::new(&g, &d, &cache);
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

    /// Evaluators sharing one [`LaneBlockStore`] agree bitwise with an
    /// evaluator owning its blocks, and the store retains the decodes.
    #[test]
    fn shared_lane_store_matches_owned_blocks() {
        let (g, d) = example1();
        let cache = WorldCache::sample(&g, 96, 31);
        let k = vec![1u32, 2, 0, 0, 1, 0, 0];
        let seeds = [NodeId(0)];
        let owned = MonteCarloEvaluator::new(&g, &d, &cache).simulate(&seeds, &k);
        let store = LaneBlockStore::for_cache(&cache);
        assert_eq!(store.decoded_blocks(), 0);
        for _ in 0..3 {
            let ev = MonteCarloEvaluator::new(&g, &d, &cache).with_lane_store(&store);
            let got = ev.simulate(&seeds, &k);
            assert_eq!(
                got.expected_benefit.to_bits(),
                owned.expected_benefit.to_bits()
            );
        }
        assert_eq!(store.decoded_blocks(), 2, "96 worlds = 2 lane blocks");
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn hop_statistics_reflect_spread_depth() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let cache = WorldCache::sample(&g, 8, 2);
        let ev = MonteCarloEvaluator::new(&g, &d, &cache);
        let stats = ev.simulate(&[NodeId(0)], &[1, 1, 0]);
        let cascade = stats.cascade.expect("MC stats carry cascade data");
        assert_eq!(cascade.mean_farthest_hop, 2.0);
        assert_eq!(stats.mean_activated, 3.0);
    }
}
