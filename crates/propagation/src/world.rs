//! Pre-sampled live-edge worlds.
//!
//! Sec. V: "it first tosses a coin for each edge with the given influence
//! probability to generate a graph" — a *world*. Estimating `B(S, K(I))`
//! then reduces to deterministic coupon-constrained reachability per world
//! (see [`reach`](crate::reach)). Caching the worlds makes repeated
//! evaluations over the same graph (the greedy loops of S3CA, IM, and PM)
//! cheap and, crucially, **correlated**: marginal gains are measured against
//! the same randomness, which removes most of the sampling noise from
//! greedy comparisons.
//!
//! ## Geometric skip sampling
//!
//! Tossing one coin per edge per world costs `O(R·m)` RNG draws even though
//! typical influence probabilities leave worlds 1–10% dense. The default
//! sampler instead walks the graph's [`ProbBucketIndex`]: within a bucket of
//! edges whose probabilities share a binary exponent it jumps
//! `Geometric(p_max)` gaps between candidate live edges and thins each
//! candidate with probability `p/p_max` (a no-op draw when the bucket is
//! uniform), so generation work is proportional to the number of **live**
//! edges, not all edges.
//!
//! ## Storage
//!
//! The cache holds its worlds once, as [`LaneBlock`]s: world `i` is lane
//! `i % 64` of block `i / 64`, and each block is the union live adjacency
//! of its 64 worlds (~12 bytes per edge live in at least one of them). One
//! [`ThreadPool::map_indexed`] task samples each block (or each part of a
//! block, when the cache has fewer blocks than pool threads): it runs every
//! world's skip walk into an `m`-bit scratch bitmap, drains the bitmap in
//! ascending edge order into the block's `m` lane masks, and compacts those
//! with [`LaneBlock::from_edge_masks`]. The lane kernel ([`crate::lane`])
//! cascades a whole block at once; the scalar kernel and IM read one world
//! through a [`WorldRef`] (block, lane) view. [`sample_world`] runs the
//! same walk for one world into a caller's bitmap, which is how the sketch
//! builder samples its worlds without a cache.
//!
//! ## RNG-stream contract
//!
//! World `i` is always RNG stream `i` (the world index is mixed into the
//! seed), so caches are reproducible and never depend on the pool size.
//! The skip sampler consumes its stream in a different order than the
//! per-edge reference sampler, so the **worlds themselves changed once**
//! when skip sampling became the default — seed-pinned expectations were
//! re-blessed at that point and are pinned again across pool sizes 1/2/N.
//! [`WorldCache::sample_dense_reference`] keeps the original per-edge
//! Bernoulli stream; statistical-equivalence proptests assert the two
//! samplers agree on every edge's live frequency.

use crate::bits::BitVec;
use crate::lane::{LaneBlock, LANE_WORLDS};
use osn_graph::prob_index::ProbBucketIndex;
use osn_graph::{CsrGraph, NodeId};
use osn_pool::ThreadPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// A borrowed view of one cached world: lane `lane` of a [`LaneBlock`].
#[derive(Clone, Copy, Debug)]
pub struct WorldRef<'a> {
    block: &'a LaneBlock,
    bit: u64,
}

impl<'a> WorldRef<'a> {
    /// World `lane` of `block`.
    pub(crate) fn new(block: &'a LaneBlock, lane: usize) -> Self {
        let bit = 1u64 << lane;
        debug_assert!(block.valid & bit != 0, "lane {lane} is not populated");
        WorldRef { block, bit }
    }

    /// Visit `u`'s live out-neighbours in rank order, stopping early when
    /// `f` returns `false`. The walk touches only edges live in at least
    /// one world of the block, testing this world's bit on each.
    #[inline]
    pub fn for_live_out(&self, u: NodeId, mut f: impl FnMut(NodeId) -> bool) {
        let (masks, targets) = self.block.out(u);
        for (&mask, &t) in masks.iter().zip(targets) {
            if mask & self.bit != 0 && !f(NodeId(t)) {
                return;
            }
        }
    }
}

/// A cache of `R` live-edge worlds for one graph, held as
/// `⌈R / 64⌉` lane blocks.
#[derive(Clone, Debug)]
pub struct WorldCache {
    blocks: Vec<LaneBlock>,
    worlds: usize,
    edges: usize,
    live_edges: u64,
    sampling_micros: u64,
}

impl WorldCache {
    /// Sample `count` worlds with streams seeded from `seed` (each world
    /// has an independent deterministic stream, so caches are reproducible
    /// and workers can sample disjoint blocks), on the shared
    /// [`osn_pool::global`] pool.
    pub fn sample(graph: &CsrGraph, count: usize, seed: u64) -> Self {
        Self::sample_with_pool(graph, count, seed, osn_pool::global())
    }

    /// Sample on an explicit pool. World `i` is always RNG stream `i`, so
    /// the cache contents never depend on the pool size.
    pub fn sample_with_pool(graph: &CsrGraph, count: usize, seed: u64, pool: &ThreadPool) -> Self {
        let index = &graph.prob_bucket_index();
        Self::build(graph, count, pool, &|world, live| {
            sample_world(graph, index, seed, world, live)
        })
    }

    /// The original per-edge Bernoulli sampler, kept as the reference the
    /// skip sampler is statistically checked against. Its RNG stream
    /// predates skip sampling and differs from [`sample`](Self::sample);
    /// the worlds are equal in distribution, not bitwise. They are stored
    /// like every other cache.
    pub fn sample_dense_reference(graph: &CsrGraph, count: usize, seed: u64) -> Self {
        let probs = graph.edge_probs_flat();
        Self::build(graph, count, osn_pool::global(), &|world, live| {
            let mut rng = world_rng(seed, world);
            for (e, &p) in probs.iter().enumerate() {
                if p > 0.0 && rng.gen_bool(p) {
                    live.set(e, true);
                }
            }
        })
    }

    /// Shared generation driver. Each pool task runs `sample` for some
    /// lanes of one 64-world block into a scratch bitmap and drains it into
    /// an `m`-word lane-mask buffer (bit `j` = world `base + j`). A cache
    /// with fewer blocks than pool threads splits each block's lanes into
    /// parts, so a small cache samples on every thread too; the parts OR
    /// into one buffer per block, and the part that finishes last compacts
    /// it. World `i` is always stream `i` and OR is order-free, so neither
    /// the split nor the finishing order changes the bytes.
    fn build(
        graph: &CsrGraph,
        count: usize,
        pool: &ThreadPool,
        sample: &(dyn Fn(u64, &mut BitVec) + Sync),
    ) -> Self {
        let t0 = Instant::now();
        let m = graph.edge_count();
        let blocks = count.div_ceil(LANE_WORLDS);
        let parts = pool.num_threads().div_ceil(blocks.max(1)).min(count.max(1));
        let merges: Vec<Mutex<BlockMerge>> = (0..blocks).map(|_| Mutex::default()).collect();
        let sampled = pool.map_indexed(blocks * parts, |t| {
            let (b, part) = (t / parts, t % parts);
            let base = b * LANE_WORLDS;
            let lanes = LANE_WORLDS.min(count - base);
            let mut live = BitVec::zeros(m);
            let mut masks = vec![0u64; m];
            let mut live_edges = 0u64;
            for j in part * lanes / parts..(part + 1) * lanes / parts {
                sample((base + j) as u64, &mut live);
                live.drain_ascending_into(|e| {
                    masks[e] |= 1u64 << j;
                    live_edges += 1;
                });
            }
            let mut merge = merges[b].lock().unwrap_or_else(PoisonError::into_inner);
            match &mut merge.masks {
                Some(acc) => acc.iter_mut().zip(&masks).for_each(|(a, &x)| *a |= x),
                None => merge.masks = Some(masks),
            }
            merge.live_edges += live_edges;
            merge.parts += 1;
            if merge.parts < parts {
                return None;
            }
            let masks = merge.masks.take().expect("a finished block has masks");
            let live_edges = merge.live_edges;
            drop(merge);
            let valid = !0u64 >> (LANE_WORLDS - lanes);
            Some((LaneBlock::from_edge_masks(graph, &masks, valid), live_edges))
        });
        // Exactly one part per block compacts it, and a block's parts are
        // consecutive indices, so the blocks come out in order.
        let (blocks, live_counts): (Vec<LaneBlock>, Vec<u64>) =
            sampled.into_iter().flatten().unzip();
        WorldCache {
            blocks,
            worlds: count,
            edges: m,
            live_edges: live_counts.iter().sum(),
            sampling_micros: t0.elapsed().as_micros() as u64,
        }
    }

    /// Number of cached worlds.
    pub fn len(&self) -> usize {
        self.worlds
    }

    /// True when no worlds are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges each world covers (the graph's edge count even when
    /// zero worlds are cached).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The lane blocks: block `b` holds worlds `64·b ..`.
    pub(crate) fn blocks(&self) -> &[LaneBlock] {
        &self.blocks
    }

    /// World `i`, as a view into its block.
    #[inline]
    pub fn world(&self, i: usize) -> WorldRef<'_> {
        assert!(i < self.worlds, "world {i} of {}", self.worlds);
        WorldRef::new(&self.blocks[i / LANE_WORLDS], i % LANE_WORLDS)
    }

    /// World `i`'s live edge ids, ascending (for tests and diagnostics).
    /// Blocks keep targets, not ids: edges are `(u, v)`-unique and a
    /// block keeps rank order, so the next out-edge of `u` to the live
    /// target names the edge.
    pub fn live_edge_ids(&self, graph: &CsrGraph, i: usize) -> Vec<u32> {
        assert_eq!(graph.edge_count(), self.edges, "a different graph");
        let world = self.world(i);
        let targets = graph.edge_targets_flat();
        let mut ids = Vec::new();
        for u in graph.nodes() {
            let mut e = graph.out_edge_ids(u).start;
            world.for_live_out(u, |v| {
                while targets[e as usize] != v {
                    e += 1;
                }
                ids.push(e);
                e += 1;
                true
            });
        }
        ids
    }

    /// Mean live-edge density (`live / (R·m)`), 0 for degenerate caches.
    pub fn live_density(&self) -> f64 {
        let cells = (self.edges as u64).saturating_mul(self.len() as u64);
        if cells == 0 {
            0.0
        } else {
            self.live_edges as f64 / cells as f64
        }
    }

    /// Resident bytes of the lane blocks — everything the cache holds (what
    /// the fig9-style telemetry columns report).
    pub fn resident_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.resident_bytes() as u64).sum()
    }

    /// Wall time the sampling pass took, in microseconds.
    pub fn sampling_micros(&self) -> u64 {
        self.sampling_micros
    }
}

/// One block's parts as they finish: their OR-ed lane masks, live-edge
/// total and count.
#[derive(Default)]
struct BlockMerge {
    masks: Option<Vec<u64>>,
    live_edges: u64,
    parts: usize,
}

/// Sample world `world` of the cache seeded `seed` into `live`: set the
/// bit of each of its live edges, which are exactly the edges world
/// `world` of [`WorldCache::sample`]`(graph, _, seed)` holds. `live` must
/// span the graph's edges; other bits are left as they were. `index` is
/// `graph`'s [`ProbBucketIndex`], built once by the caller and reused
/// across worlds.
pub fn sample_world(
    graph: &CsrGraph,
    index: &ProbBucketIndex,
    seed: u64,
    world: u64,
    live: &mut BitVec,
) {
    debug_assert!(live.len() >= graph.edge_count());
    let mut rng = world_rng(seed, world);
    walk_live_edges(index, graph.edge_probs_flat(), &mut rng, |e| {
        live.set(e as usize, true)
    });
}

/// Distinct stream per world: mix the world index into the seed (this is
/// the world-identity half of the determinism contract).
fn world_rng(seed: u64, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Walk one world's live edges bucket by bucket: `Geometric(p_max)` gaps
/// (via ziggurat `Exp(1)` draws scaled by the bucket's precomputed
/// `inv_lambda`) between candidates, thinned to the exact per-edge
/// probability in non-uniform buckets. Emits live edge ids ascending
/// *within* each bucket, bucket by bucket.
fn walk_live_edges(
    index: &ProbBucketIndex,
    probs: &[f64],
    rng: &mut SmallRng,
    mut emit: impl FnMut(u32),
) {
    for bucket in index.buckets() {
        let edges = &bucket.edges;
        if bucket.p_max >= 1.0 {
            for &e in edges {
                emit(e);
            }
            continue;
        }
        let inv_lambda = bucket.inv_lambda;
        let len = edges.len();
        let mut i = 0usize;
        loop {
            // Geometric(p_max) gap: ⌊Exp(1) / −ln(1−p_max)⌋.
            let gap = exp::exp1(rng) * inv_lambda;
            if gap >= (len - i) as f64 {
                break;
            }
            i += gap as usize;
            let e = edges[i];
            if bucket.uniform {
                emit(e);
            } else {
                // Thin the candidate down from p_max to its true
                // probability (acceptance ≥ ½ by bucket construction); the
                // bucket maximum itself needs no draw.
                let p = probs[e as usize];
                if p >= bucket.p_max || rng.gen::<f64>() * bucket.p_max < p {
                    emit(e);
                }
            }
            i += 1;
            if i >= len {
                break;
            }
        }
    }
}

mod exp {
    //! Exact `Exponential(1)` sampling via the Marsaglia–Tsang ziggurat
    //! (the layer layout `rand_distr` uses): ~99% of draws cost one `u64`
    //! and two comparisons — no `ln` — which is what makes a geometric gap
    //! draw cheaper than the dozens of Bernoulli flips it replaces.

    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore};
    use std::sync::OnceLock;

    const LAYERS: usize = 256;
    /// Right edge of the base layer (standard 256-layer exponential value).
    const R: f64 = 7.697_117_470_131_487;
    /// Common layer area.
    const V: f64 = 3.949_659_822_581_572e-3;

    struct Tables {
        /// Layer right edges, descending: `x[0] = V·e^R > x[1] = R > … >
        /// x[256] = 0`.
        x: [f64; LAYERS + 1],
        /// `f[i] = e^(−x[i])` (ascending).
        f: [f64; LAYERS + 1],
    }

    fn tables() -> &'static Tables {
        static T: OnceLock<Tables> = OnceLock::new();
        T.get_or_init(|| {
            let mut x = [0.0f64; LAYERS + 1];
            x[0] = V * R.exp();
            x[1] = R;
            for i in 2..LAYERS {
                let prev = x[i - 1];
                x[i] = -(V / prev + (-prev).exp()).ln();
            }
            x[LAYERS] = 0.0;
            let mut f = [0.0f64; LAYERS + 1];
            for i in 0..=LAYERS {
                f[i] = (-x[i]).exp();
            }
            Tables { x, f }
        })
    }

    /// One `Exponential(1)` draw from `rng`'s deterministic stream.
    #[inline]
    pub(super) fn exp1(rng: &mut SmallRng) -> f64 {
        let t = tables();
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xFF) as usize;
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Tail beyond R; memorylessness gives R + Exp(1). The
                // `1 − u` keeps the argument in (0, 1] so ln stays finite.
                return R - (1.0 - rng.gen::<f64>()).ln();
            }
            // Wedge between the inner rectangle and the pdf.
            if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>() < (-x).exp() {
                return x;
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::SeedableRng;

        #[test]
        fn tables_are_monotone_and_anchored() {
            let t = tables();
            assert_eq!(t.x[1], R);
            assert_eq!(t.x[LAYERS], 0.0);
            for i in 1..=LAYERS {
                assert!(t.x[i] < t.x[i - 1], "x not descending at {i}");
                assert!(t.f[i] > t.f[i - 1], "f not ascending at {i}");
            }
            // The recurrence should walk all the way down: the canonical
            // 256-layer exponential table ends near x[255] ≈ 0.0637.
            assert!(
                (t.x[LAYERS - 1] - 0.0637).abs() < 0.005,
                "x[255] = {}",
                t.x[LAYERS - 1]
            );
        }

        #[test]
        fn exponential_moments_match() {
            let mut rng = SmallRng::seed_from_u64(42);
            let n = 200_000usize;
            let (mut sum, mut sum_sq, mut tail) = (0.0f64, 0.0f64, 0usize);
            for _ in 0..n {
                let x = exp1(&mut rng);
                assert!(x >= 0.0 && x.is_finite());
                sum += x;
                sum_sq += x * x;
                if x > 3.0 {
                    tail += 1;
                }
            }
            let mean = sum / n as f64;
            let var = sum_sq / n as f64 - mean * mean;
            assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
            assert!((var - 1.0).abs() < 0.03, "variance {var}");
            // P(X > 3) = e^-3 ≈ 0.0498.
            let tail_freq = tail as f64 / n as f64;
            assert!((tail_freq - 0.0498).abs() < 0.003, "tail {tail_freq}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn graph() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 0, 0.0).unwrap();
        b.build().unwrap()
    }

    /// A 40-node ring with chords at mixed probabilities.
    fn ring() -> CsrGraph {
        let mut b = GraphBuilder::new(40);
        for i in 0u32..40 {
            b.add_edge(i, (i + 1) % 40, 0.6).unwrap();
            b.add_edge(i, (i + 7) % 40, 0.25).unwrap();
            b.add_edge(i, (i + 13) % 40, 0.05).unwrap();
        }
        b.build().unwrap()
    }

    /// Every world of `cache` as live edge ids.
    fn live_of(g: &CsrGraph, cache: &WorldCache) -> Vec<Vec<u32>> {
        (0..cache.len())
            .map(|w| cache.live_edge_ids(g, w))
            .collect()
    }

    /// World `w` of the cache seeded `seed`, sampled alone into a bitmap.
    fn lone_world(g: &CsrGraph, seed: u64, w: usize) -> BitVec {
        let mut bits = BitVec::zeros(g.edge_count());
        sample_world(g, &g.prob_bucket_index(), seed, w as u64, &mut bits);
        bits
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a = WorldCache::sample(&g, 16, 7);
        let b = WorldCache::sample(&g, 16, 7);
        assert_eq!(live_of(&g, &a), live_of(&g, &b));
        let c = WorldCache::sample(&g, 16, 8);
        assert_ne!(
            live_of(&g, &a),
            live_of(&g, &c),
            "different seeds should give different worlds"
        );
    }

    #[test]
    fn certain_and_impossible_edges() {
        let g = graph();
        // Edge ids: node1 -> node2 is edge id 1 (p = 1.0); 2 -> 0 is id 2.
        let e1 = g.out_edge_ids(NodeId(1)).start;
        let e2 = g.out_edge_ids(NodeId(2)).start;
        for cache in [
            WorldCache::sample(&g, 64, 3),
            WorldCache::sample_dense_reference(&g, 64, 3),
        ] {
            for live in live_of(&g, &cache) {
                assert!(live.contains(&e1), "p=1 edge must always be live");
                assert!(!live.contains(&e2), "p=0 edge must never be live");
            }
        }
    }

    #[test]
    fn live_frequency_tracks_probability() {
        let g = graph();
        let cache = WorldCache::sample(&g, 4000, 5);
        let e0 = g.out_edge_ids(NodeId(0)).start;
        let live = live_of(&g, &cache)
            .iter()
            .filter(|ids| ids.contains(&e0))
            .count();
        let freq = live as f64 / cache.len() as f64;
        assert!((freq - 0.5).abs() < 0.03, "p=0.5 edge live at {freq}");
        // One certain edge plus the p = 0.5 edge out of three.
        let d = cache.live_density();
        assert!((d - 0.5).abs() < 0.01, "density {d}");
    }

    #[test]
    fn parallel_generation_matches_serial_layout() {
        // 130 worlds are three blocks on three tasks; world i must still
        // be stream i.
        let g = graph();
        let many = WorldCache::sample(&g, 130, 11);
        let few = WorldCache::sample(&g, 4, 11);
        assert_eq!(live_of(&g, &many)[..4], live_of(&g, &few)[..]);
    }

    /// Each block's lanes are exactly the worlds sampled one at a time,
    /// on a full 64-world block and a ragged 6-world tail.
    #[test]
    fn lane_masks_match_per_world_ids() {
        let g = ring();
        let cache = WorldCache::sample_with_pool(&g, 70, 3, &ThreadPool::new(1));
        assert_eq!(cache.blocks().len(), 2);
        assert_eq!(cache.blocks()[0].valid, !0u64);
        assert_eq!(cache.blocks()[1].valid, (1u64 << 6) - 1);
        for w in 0..cache.len() {
            let bits = lone_world(&g, 3, w);
            let want: Vec<u32> = (0..g.edge_count() as u32)
                .filter(|&e| bits.get(e as usize))
                .collect();
            assert_eq!(cache.live_edge_ids(&g, w), want, "world {w}");
        }
    }

    #[test]
    fn mapped_graph_samples_identical_worlds() {
        // World construction reads the graph only through its flat edge
        // arrays; a CSR loaded from a `.oscg` file (`osn_graph::binary`)
        // must therefore produce bit-identical worlds to the in-memory
        // build it round-tripped from.
        let g = graph();
        let path =
            std::env::temp_dir().join(format!("osn-world-mapped-{}.oscg", std::process::id()));
        {
            let file = std::fs::File::create(&path).unwrap();
            osn_graph::binary::write_oscg(&g, None, file).unwrap();
        }
        let loaded = osn_graph::binary::load_oscg(&path).unwrap().graph;
        let owned = WorldCache::sample(&g, 64, 11);
        let mapped = WorldCache::sample(&loaded, 64, 11);
        assert_eq!(owned.edge_count(), mapped.edge_count());
        assert_eq!(live_of(&g, &owned), live_of(&loaded, &mapped));
        std::fs::remove_file(&path).ok();
    }

    /// Four blocks on two or three workers sample one task per block;
    /// two blocks on five workers, and one world on four, split blocks
    /// into parts. Every split gives the serial cache.
    #[test]
    fn pool_size_never_changes_the_cache() {
        let g = ring();
        for (worlds, threads) in [(200, 2), (200, 3), (70, 5), (1, 4)] {
            let serial = WorldCache::sample_with_pool(&g, worlds, 11, &ThreadPool::new(1));
            let pooled = WorldCache::sample_with_pool(&g, worlds, 11, &ThreadPool::new(threads));
            let what = format!("{worlds} worlds, {threads} workers");
            assert_eq!(live_of(&g, &serial), live_of(&g, &pooled), "{what}");
            assert_eq!(serial.resident_bytes(), pooled.resident_bytes(), "{what}");
            assert_eq!(serial.live_density(), pooled.live_density(), "{what}");
        }
    }

    #[test]
    fn zero_worlds_keep_the_graph_edge_count() {
        let g = graph();
        let cache = WorldCache::sample_with_pool(&g, 0, 1, &ThreadPool::new(2));
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.edge_count(), g.edge_count(), "evaluators assert this");
        assert_eq!(cache.live_density(), 0.0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn empty_and_edgeless_graphs_sample_empty_worlds() {
        for n in [0usize, 5] {
            let g = GraphBuilder::new(n).build().unwrap();
            let cache = WorldCache::sample(&g, 16, 9);
            assert_eq!(cache.len(), 16);
            assert_eq!(cache.edge_count(), 0);
            for w in 0..16 {
                assert!(cache.live_edge_ids(&g, w).is_empty());
            }
        }
    }

    #[test]
    fn all_extreme_probabilities() {
        // Every edge either certain or impossible: no RNG draw decides
        // anything, both samplers must agree exactly.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(0, 2, 0.0).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 0.0).unwrap();
        let g = b.build().unwrap();
        let sparse = WorldCache::sample(&g, 8, 1);
        let reference = WorldCache::sample_dense_reference(&g, 8, 1);
        assert_eq!(live_of(&g, &sparse), live_of(&g, &reference));
        for ids in live_of(&g, &sparse) {
            assert_eq!(ids.len(), 2);
            for e in ids {
                assert_eq!(g.edge_probs_flat()[e as usize], 1.0);
            }
        }
    }

    #[test]
    fn skip_sampler_matches_reference_frequencies() {
        // Mixed probability classes, including values that share a bucket
        // with a larger cap (exercising the thinning path). 4000 worlds
        // puts ~6σ bounds near 0.05.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.55).unwrap();
        b.add_edge(1, 3, 0.3).unwrap();
        b.add_edge(2, 4, 0.07).unwrap();
        b.add_edge(3, 5, 0.013).unwrap();
        let g = b.build().unwrap();
        let r = 4000usize;
        let freq = |cache: &WorldCache| -> Vec<f64> {
            let mut counts = vec![0usize; g.edge_count()];
            for ids in live_of(&g, cache) {
                for e in ids {
                    counts[e as usize] += 1;
                }
            }
            counts.iter().map(|&c| c as f64 / r as f64).collect()
        };
        let skip = freq(&WorldCache::sample(&g, r, 99));
        let reference = freq(&WorldCache::sample_dense_reference(&g, r, 1234));
        for (e, &p) in g.edge_probs_flat().iter().enumerate() {
            assert!(
                (skip[e] - p).abs() < 0.05,
                "edge {e}: skip freq {} vs p {p}",
                skip[e]
            );
            assert!(
                (skip[e] - reference[e]).abs() < 0.07,
                "edge {e}: skip {} vs reference {}",
                skip[e],
                reference[e]
            );
        }
    }

    #[test]
    fn live_out_cursor_matches_per_node_filter() {
        // Every world view must report exactly a node's live out-edges'
        // targets, in rank order, as the lone-sampled world has them.
        let g = ring();
        let cache = WorldCache::sample(&g, 8, 3);
        for w in 0..cache.len() {
            let bits = lone_world(&g, 3, w);
            let world = cache.world(w);
            for u in g.nodes() {
                let r = g.out_edge_ids(u);
                let want: Vec<NodeId> = r
                    .filter(|&e| bits.get(e as usize))
                    .map(|e| g.edge_targets_flat()[e as usize])
                    .collect();
                let mut got = Vec::new();
                world.for_live_out(u, |v| {
                    got.push(v);
                    true
                });
                assert_eq!(got, want, "world {w}, node {u:?}");
                // Stopping early stops the walk.
                let mut first = Vec::new();
                world.for_live_out(u, |v| {
                    first.push(v);
                    false
                });
                assert_eq!(first, want.iter().copied().take(1).collect::<Vec<_>>());
            }
        }
    }
}
