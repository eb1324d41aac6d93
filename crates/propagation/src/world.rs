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
//! Worlds are held as a world-major CSR of ascending live edge ids,
//! gap-encoded as `u8` deltas (255 escapes) in plain arrays. At the Table
//! II profiles' densities this is several times smaller than one bit per
//! edge. The scalar kernel decodes one world at a time into a reusable
//! `u32` buffer ([`WorldCache::world_into`]); the lane kernel ORs a
//! 64-world block straight into per-edge lane masks
//! ([`WorldCache::world_fill_lanes`]).
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
use osn_graph::prob_index::ProbBucketIndex;
use osn_graph::CsrGraph;
use osn_pool::ThreadPool;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Sparse worlds: a world-major CSR over a gap-encoded live-edge stream.
#[derive(Clone, Debug)]
struct SparseWorlds {
    /// Byte offsets into `gaps`, length `R + 1`.
    offsets: Vec<u64>,
    /// Live-edge count per world (exact decode preallocation), length `R`.
    counts: Vec<u32>,
    /// Ascending live edge ids as `u8` deltas; a 255 byte adds 255 to the
    /// pending delta and continues, any other byte terminates it.
    gaps: Vec<u8>,
}

impl SparseWorlds {
    /// World `i`'s gap bytes.
    fn bytes(&self, i: usize) -> &[u8] {
        &self.gaps[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A borrowed view of one world's live-edge set: its live edge ids,
/// ascending.
#[derive(Clone, Copy, Debug)]
pub struct WorldRef<'a>(pub &'a [u32]);

impl WorldRef<'_> {
    /// Is edge `e` live? (Answers by binary search — use
    /// [`for_live_out`](Self::for_live_out) on hot paths.)
    pub fn get(&self, e: usize) -> bool {
        self.0.binary_search(&(e as u32)).is_ok()
    }

    /// Visit the live edge ids in `[lo, hi)` (one node's out-edge range)
    /// in ascending order (= rank order within the node's out-edges),
    /// stopping early when `f` returns `false`. This is the scalar
    /// kernel's live-adjacency cursor: one binary search positions it, and
    /// it then touches only live out-edges.
    #[inline]
    pub fn for_live_out(&self, lo: u32, hi: u32, mut f: impl FnMut(u32) -> bool) {
        let start = self.0.partition_point(|&e| e < lo);
        for &e in &self.0[start..] {
            if e >= hi || !f(e) {
                return;
            }
        }
    }
}

/// A cache of `R` live-edge worlds for one graph.
#[derive(Clone, Debug)]
pub struct WorldCache {
    worlds: SparseWorlds,
    edges: usize,
    live_edges: u64,
    sampling_micros: u64,
}

impl WorldCache {
    /// Sample `count` worlds with streams seeded from `seed` (each world
    /// has an independent deterministic stream, so caches are reproducible
    /// and workers can generate disjoint world ranges), generating on the
    /// shared [`osn_pool::global`] pool.
    pub fn sample(graph: &CsrGraph, count: usize, seed: u64) -> Self {
        Self::sample_with_pool(graph, count, seed, osn_pool::global())
    }

    /// Sample on an explicit pool. World `i` is always RNG stream `i`, so
    /// the cache contents never depend on the pool size.
    pub fn sample_with_pool(graph: &CsrGraph, count: usize, seed: u64, pool: &ThreadPool) -> Self {
        let index = &graph.prob_bucket_index();
        let t0 = Instant::now();
        let probs = graph.edge_probs_flat();
        let m = graph.edge_count();
        // Finalize mode: the skip walk emits live ids bucket-major, so
        // worlds need one re-ordering pass. Dense-ish worlds extract from a
        // scratch bitmap (linear in m/64 words); very sparse worlds on
        // large graphs sort instead. The choice never affects the ids.
        let use_bitmap = index.expected_live() * 16.0 >= (m as f64) / 64.0;
        let sampler = move |world: u64, scratch: &mut SampleScratch| {
            let mut rng = world_rng(seed, world);
            scratch.ids.clear();
            if use_bitmap {
                if scratch.bits.len() < m {
                    scratch.bits = BitVec::zeros(m);
                }
                let bits = &mut scratch.bits;
                walk_live_edges(index, probs, &mut rng, |e| bits.set(e as usize, true));
                scratch.bits.drain_set_into(&mut scratch.ids);
            } else {
                let ids = &mut scratch.ids;
                walk_live_edges(index, probs, &mut rng, |e| ids.push(e));
                scratch.ids.sort_unstable();
            }
        };
        let mut cache = Self::build(m, count, pool, &sampler);
        cache.sampling_micros = t0.elapsed().as_micros() as u64;
        cache
    }

    /// The original per-edge Bernoulli sampler, kept as the reference the
    /// skip sampler is statistically checked against. Its RNG stream
    /// predates skip sampling and differs from [`sample`](Self::sample);
    /// the worlds are equal in distribution, not bitwise. They are stored
    /// like every other cache.
    pub fn sample_dense_reference(graph: &CsrGraph, count: usize, seed: u64) -> Self {
        Self::sample_dense_reference_with_pool(graph, count, seed, osn_pool::global())
    }

    /// [`sample_dense_reference`](Self::sample_dense_reference) on an
    /// explicit pool.
    pub fn sample_dense_reference_with_pool(
        graph: &CsrGraph,
        count: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> Self {
        let t0 = Instant::now();
        let probs = graph.edge_probs_flat();
        let sampler = move |world: u64, scratch: &mut SampleScratch| {
            sample_world_live_reference(probs, seed, world, &mut scratch.ids);
        };
        let mut cache = Self::build(graph.edge_count(), count, pool, &sampler);
        cache.sampling_micros = t0.elapsed().as_micros() as u64;
        cache
    }

    /// Shared generation driver: run `sampler` for every world index
    /// (one chunk per pool worker, a single chunk below 8 worlds; world
    /// `i` is always stream `i`, so chunk boundaries never change the
    /// bytes) and pack the sorted live lists into the gap-encoded CSR.
    fn build(
        edges: usize,
        count: usize,
        pool: &ThreadPool,
        sampler: &(dyn Fn(u64, &mut SampleScratch) + Sync),
    ) -> Self {
        let chunk = if count < 8 {
            count.max(1)
        } else {
            count.div_ceil(pool.num_threads())
        };
        let chunks = pool.map_indexed(count.div_ceil(chunk), |t| {
            fill_chunk(t * chunk, count.min((t + 1) * chunk), sampler)
        });
        let live_edges: u64 = chunks
            .iter()
            .flat_map(|c| &c.counts)
            .map(|&c| c as u64)
            .sum();
        let total_bytes: usize = chunks.iter().map(|c| c.gaps.len()).sum();
        let mut offsets = Vec::with_capacity(count + 1);
        let mut counts = Vec::with_capacity(count);
        let mut gaps = Vec::with_capacity(total_bytes);
        offsets.push(0u64);
        let mut at = 0u64;
        for c in &chunks {
            gaps.extend_from_slice(&c.gaps);
            for (&cnt, &len) in c.counts.iter().zip(&c.byte_lens) {
                counts.push(cnt);
                at += len as u64;
                offsets.push(at);
            }
        }
        WorldCache {
            worlds: SparseWorlds {
                offsets,
                counts,
                gaps,
            },
            edges,
            live_edges,
            sampling_micros: 0,
        }
    }

    /// Number of cached worlds.
    pub fn len(&self) -> usize {
        self.worlds.counts.len()
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

    /// Borrow world `i`, decoded into `buf`. Callers that walk many worlds
    /// reuse one buffer across the loop.
    #[inline]
    pub fn world_into<'a>(&'a self, i: usize, buf: &'a mut Vec<u32>) -> WorldRef<'a> {
        decode_gaps(self.worlds.bytes(i), self.worlds.counts[i] as usize, buf);
        WorldRef(buf)
    }

    /// Materialize world `i` into a caller bitmap (must already span
    /// [`edge_count`](Self::edge_count) bits): the gap stream decodes
    /// straight into bit sets with no intermediate id list. Bits of edges
    /// dead in world `i` are left as they were.
    pub fn world_fill_bits(&self, i: usize, bits: &mut BitVec) {
        debug_assert!(bits.len() >= self.edges);
        for_each_gap_id(self.worlds.bytes(i), |e| bits.set(e as usize, true));
    }

    /// Materialize worlds `base..base + count` (`count` ≤ 64) as lane
    /// masks: bit `j` of `lanes[e]` is set iff edge `e` is live in world
    /// `base + j`. `lanes` must span [`edge_count`](Self::edge_count) and
    /// be zero on entry. Each world's gap stream ORs straight into the
    /// masks with no intermediate id list. This is how the bit-parallel
    /// cascade kernel ([`crate::lane`]) packs a block of worlds.
    pub fn world_fill_lanes(&self, base: usize, count: usize, lanes: &mut [u64]) {
        assert!(count <= 64, "at most 64 worlds per lane block");
        debug_assert!(lanes.len() >= self.edges);
        for j in 0..count {
            let bit = 1u64 << j;
            for_each_gap_id(self.worlds.bytes(base + j), |e| lanes[e as usize] |= bit);
        }
    }

    /// World `i`'s live edge ids, ascending (a convenience for tests and
    /// diagnostics; hot paths use [`world_into`](Self::world_into)).
    pub fn live_edge_ids(&self, i: usize) -> Vec<u32> {
        let mut buf = Vec::new();
        self.world_into(i, &mut buf);
        buf
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

    /// Resident bytes of the world payload (what the fig9-style telemetry
    /// columns report).
    pub fn resident_bytes(&self) -> u64 {
        let w = &self.worlds;
        (w.offsets.len() * std::mem::size_of::<u64>()
            + w.counts.len() * std::mem::size_of::<u32>()
            + w.gaps.len()) as u64
    }

    /// Wall time the sampling pass took, in microseconds.
    pub fn sampling_micros(&self) -> u64 {
        self.sampling_micros
    }
}

/// Per-chunk generation output.
#[derive(Default)]
struct Chunk {
    gaps: Vec<u8>,
    counts: Vec<u32>,
    byte_lens: Vec<usize>,
}

/// Per-chunk sampler workspace: the world's live ids plus an optional
/// scratch bitmap (sized lazily, reused across the chunk's worlds).
struct SampleScratch {
    ids: Vec<u32>,
    bits: BitVec,
}

fn fill_chunk(lo: usize, hi: usize, sampler: &(dyn Fn(u64, &mut SampleScratch) + Sync)) -> Chunk {
    let mut chunk = Chunk::default();
    let mut scratch = SampleScratch {
        ids: Vec::new(),
        bits: BitVec::zeros(0),
    };
    for w in lo..hi {
        sampler(w as u64, &mut scratch);
        let live = &scratch.ids;
        debug_assert!(live.windows(2).all(|p| p[0] < p[1]), "live ids not sorted");
        let before = chunk.gaps.len();
        encode_gaps(live, &mut chunk.gaps);
        chunk.counts.push(live.len() as u32);
        chunk.byte_lens.push(chunk.gaps.len() - before);
    }
    chunk
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
/// *within* each bucket; callers re-order across buckets.
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

/// The pre-skip-sampling reference: one Bernoulli draw per edge in edge-id
/// order (the original `WorldCache` stream, byte for byte).
fn sample_world_live_reference(probs: &[f64], seed: u64, world: u64, out: &mut Vec<u32>) {
    let mut rng = world_rng(seed, world);
    out.clear();
    for (e, &p) in probs.iter().enumerate() {
        if p > 0.0 && rng.gen_bool(p) {
            out.push(e as u32);
        }
    }
}

/// Append `live` (ascending edge ids) to `out` as u8 deltas: the first
/// value is the id itself, later values the gap to the previous id; deltas
/// ≥ 255 spill into 255-escape bytes.
fn encode_gaps(live: &[u32], out: &mut Vec<u8>) {
    let mut prev = 0u32;
    let mut first = true;
    for &e in live {
        let mut d = if first { e } else { e - prev };
        first = false;
        prev = e;
        while d >= 255 {
            out.push(255);
            d -= 255;
        }
        out.push(d as u8);
    }
}

/// Call `f` with every id of a gap stream, ascending (the inverse of
/// [`encode_gaps`]).
#[inline]
fn for_each_gap_id(bytes: &[u8], mut f: impl FnMut(u32)) {
    let mut cur = 0u32;
    let mut delta = 0u32;
    let mut first = true;
    for &b in bytes {
        delta += b as u32;
        if b < 255 {
            cur = if first { delta } else { cur + delta };
            first = false;
            f(cur);
            delta = 0;
        }
    }
}

/// Decode a gap stream back into ascending edge ids (the inverse of
/// [`encode_gaps`]).
fn decode_gaps(bytes: &[u8], count: usize, out: &mut Vec<u32>) {
    out.clear();
    out.reserve(count);
    for_each_gap_id(bytes, |e| out.push(e));
    debug_assert_eq!(out.len(), count, "gap stream count mismatch");
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

    #[test]
    fn gap_codec_round_trips() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![254],
            vec![255],
            vec![0, 1, 2, 3],
            vec![300, 1000, 1254, 1255, 70000, u32::MAX],
            (0..500).map(|i| i * 511).collect(),
        ];
        for live in cases {
            let mut bytes = Vec::new();
            encode_gaps(&live, &mut bytes);
            let mut back = Vec::new();
            decode_gaps(&bytes, live.len(), &mut back);
            assert_eq!(back, live);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        let a = WorldCache::sample(&g, 16, 7);
        let b = WorldCache::sample(&g, 16, 7);
        for w in 0..16 {
            assert_eq!(a.live_edge_ids(w), b.live_edge_ids(w));
        }
        let c = WorldCache::sample(&g, 16, 8);
        let diff = (0..16).any(|w| a.live_edge_ids(w) != c.live_edge_ids(w));
        assert!(diff, "different seeds should give different worlds");
    }

    #[test]
    fn certain_and_impossible_edges() {
        let g = graph();
        // Edge ids: node1 -> node2 is edge id 1 (p = 1.0); 2 -> 0 is id 2.
        let e1 = g.out_edge_ids(osn_graph::NodeId(1)).start as usize;
        let e2 = g.out_edge_ids(osn_graph::NodeId(2)).start as usize;
        for cache in [
            WorldCache::sample(&g, 64, 3),
            WorldCache::sample_dense_reference(&g, 64, 3),
        ] {
            let mut buf = Vec::new();
            for w in 0..cache.len() {
                let world = cache.world_into(w, &mut buf);
                assert!(world.get(e1), "p=1 edge must always be live");
                assert!(!world.get(e2), "p=0 edge must never be live");
            }
        }
    }

    #[test]
    fn live_frequency_tracks_probability() {
        let g = graph();
        let cache = WorldCache::sample(&g, 4000, 5);
        let e0 = g.out_edge_ids(osn_graph::NodeId(0)).start as usize;
        let mut buf = Vec::new();
        let live = (0..cache.len())
            .filter(|&w| cache.world_into(w, &mut buf).get(e0))
            .count();
        let freq = live as f64 / cache.len() as f64;
        assert!((freq - 0.5).abs() < 0.03, "p=0.5 edge live at {freq}");
    }

    #[test]
    fn parallel_generation_matches_serial_layout() {
        // 64 worlds uses the threaded path; world i must still be stream i.
        let g = graph();
        let many = WorldCache::sample(&g, 64, 11);
        let few = WorldCache::sample(&g, 4, 11); // one chunk
        for w in 0..4 {
            assert_eq!(many.live_edge_ids(w), few.live_edge_ids(w));
        }
    }

    #[test]
    fn lane_masks_match_per_world_ids() {
        let mut b = GraphBuilder::new(40);
        for i in 0u32..40 {
            b.add_edge(i, (i + 1) % 40, 0.6).unwrap();
            b.add_edge(i, (i + 7) % 40, 0.25).unwrap();
        }
        let g = b.build().unwrap();
        let cache = WorldCache::sample_with_pool(&g, 70, 3, &ThreadPool::new(1));
        // A full 64-world block and a ragged 6-world tail.
        for (base, count) in [(0usize, 64usize), (64, 6)] {
            let mut lanes = vec![0u64; cache.edge_count()];
            cache.world_fill_lanes(base, count, &mut lanes);
            for j in 0..count {
                let want = cache.live_edge_ids(base + j);
                let got: Vec<u32> = (0..cache.edge_count())
                    .filter(|&e| lanes[e] >> j & 1 == 1)
                    .map(|e| e as u32)
                    .collect();
                assert_eq!(got, want, "world {}", base + j);
                let mut bits = BitVec::zeros(cache.edge_count());
                cache.world_fill_bits(base + j, &mut bits);
                let from_bits: Vec<u32> = (0..cache.edge_count())
                    .filter(|&e| bits.get(e))
                    .map(|e| e as u32)
                    .collect();
                assert_eq!(from_bits, want, "bitmap of world {}", base + j);
            }
            if count < 64 {
                for (e, &mask) in lanes.iter().enumerate() {
                    assert_eq!(mask >> count, 0, "bits beyond the block at {e}");
                }
            }
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
        for w in 0..64 {
            assert_eq!(
                owned.live_edge_ids(w),
                mapped.live_edge_ids(w),
                "world {w} diverged"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pool_size_never_changes_the_cache() {
        let g = graph();
        let serial = WorldCache::sample_with_pool(&g, 64, 11, &ThreadPool::new(1));
        for threads in [2, 3] {
            let pool = ThreadPool::new(threads);
            let pooled = WorldCache::sample_with_pool(&g, 64, 11, &pool);
            for w in 0..64 {
                assert_eq!(
                    serial.live_edge_ids(w),
                    pooled.live_edge_ids(w),
                    "world {w}, {threads} workers"
                );
            }
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
    }

    #[test]
    fn empty_and_edgeless_graphs_sample_empty_worlds() {
        for n in [0usize, 5] {
            let g = GraphBuilder::new(n).build().unwrap();
            let cache = WorldCache::sample(&g, 16, 9);
            assert_eq!(cache.len(), 16);
            assert_eq!(cache.edge_count(), 0);
            for w in 0..16 {
                assert!(cache.live_edge_ids(w).is_empty());
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
        let live_of = |cache: &WorldCache| -> Vec<Vec<u32>> {
            (0..cache.len()).map(|w| cache.live_edge_ids(w)).collect()
        };
        let sparse = WorldCache::sample(&g, 8, 1);
        let reference = WorldCache::sample_dense_reference(&g, 8, 1);
        assert_eq!(live_of(&sparse), live_of(&reference));
        for w in 0..8 {
            let ids = sparse.live_edge_ids(w);
            assert_eq!(ids.len(), 2);
            for e in ids {
                assert_eq!(g.edge_probs_flat()[e as usize], 1.0);
            }
        }
    }

    #[test]
    fn sparse_storage_is_smaller_at_low_density() {
        // A 4000-edge path at p = 0.02: one bit per edge per world would
        // cost 500 bytes a world, the gap stream ≈ 1 byte per live edge
        // (~80 per world).
        let n = 4001u32;
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 0.02).unwrap();
        }
        let g = b.build().unwrap();
        let cache = WorldCache::sample_with_pool(&g, 64, 3, &ThreadPool::new(1));
        let bitmap_bytes = 64 * g.edge_count().div_ceil(64) as u64 * 8;
        assert!(
            cache.resident_bytes() * 3 < bitmap_bytes,
            "sparse {} vs one-bit-per-edge {} bytes",
            cache.resident_bytes(),
            bitmap_bytes
        );
        let d = cache.live_density();
        assert!((d - 0.02).abs() < 0.005, "density {d} far from p");
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
            for w in 0..cache.len() {
                for e in cache.live_edge_ids(w) {
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
        // A 40-node ring with chords at mixed probabilities: every world
        // view must report exactly a node's live out-edges, in rank order.
        let mut b = GraphBuilder::new(40);
        for i in 0u32..40 {
            b.add_edge(i, (i + 1) % 40, 0.6).unwrap();
            b.add_edge(i, (i + 7) % 40, 0.25).unwrap();
            b.add_edge(i, (i + 13) % 40, 0.05).unwrap();
        }
        let g = b.build().unwrap();
        let cache = WorldCache::sample(&g, 8, 3);
        for w in 0..cache.len() {
            let ids = cache.live_edge_ids(w);
            let mut buf = Vec::new();
            let world = cache.world_into(w, &mut buf);
            for u in g.nodes() {
                let r = g.out_edge_ids(u);
                let want: Vec<u32> = ids.iter().copied().filter(|&e| r.contains(&e)).collect();
                let mut got = Vec::new();
                world.for_live_out(r.start, r.end, |e| {
                    got.push(e);
                    true
                });
                assert_eq!(got, want, "world {w}, node {u:?}");
            }
        }
    }
}
