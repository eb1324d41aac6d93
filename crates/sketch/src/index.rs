//! Reverse-reachability sketch generation.
//!
//! One **sketch** is the benefit-weighted SSR analogue of an RR set: a root
//! `r` is drawn with probability `b_r / B_total`, a live-edge world `W` is
//! sampled with the same geometric skip sampler as the forward Monte-Carlo
//! cache, and the sketch records every node that can reach `r` through live
//! edges of `W`, together with every live edge among those members
//! annotated with its **coupon demand** (the number of live earlier-ranked
//! out-edges of its source). A deployment *covers* the sketch when its
//! seeds activate `r` through edges whose sources hold more coupons than
//! the edge's demand — see [`crate::estimator`] for the exact query-time
//! semantics and the documented conservatism of the static demand gate.
//!
//! ## Sample-count schedule
//!
//! `T = roots_per_world` sketches share each world, so sketches within a
//! world are correlated; the independence unit is the **world**. With `G`
//! worlds, the per-world covered fraction is an i.i.d. `[0, 1]` variable
//! whose mean scales to the estimate, so Hoeffding gives
//! `|B̂ − E[B̂]| ≤ ε·B_total` with probability `1 − δ` once
//! `G ≥ ln(2/δ) / (2ε²)` — the floor the equivalence tests pin. On top of
//! the floor, an OPIM-style multiplicative continue rule keeps doubling the
//! world count until the accumulated **spread mass** `Σ(|members| − 1)`
//! reaches `Λ = 3·ln(2/δ)/ε²` (sketches a deployment could cover by
//! spreading, rather than only by seeding the root) or the
//! [`SketchParams::max_sketches`] cap is hit; hitting the cap is recorded
//! in [`BuildStats`], never silent.

use crate::SketchParams;
use osn_graph::prob_index::ProbBucketIndex;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_pool::ThreadPool;
use osn_propagation::bits::BitVec;
use osn_propagation::world::sample_world;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Counters reported by [`SketchIndex::build`]; every bound the builder
/// applies shows up here instead of silently truncating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Worlds sampled (the Hoeffding independence unit `G`).
    pub worlds: usize,
    /// Sketches generated (`G × roots_per_world`).
    pub sketches: usize,
    /// Whether the doubling loop stopped at [`SketchParams::max_sketches`]
    /// before the spread-mass continue rule was satisfied.
    pub capped: bool,
}

/// One extracted sketch, before flattening into the index.
struct RawSketch {
    /// Member node ids, ascending.
    members: Vec<u32>,
    root_local: u32,
    /// `(src_local, dst_local, demand)`, sorted by `(src_local, dst_local)`.
    edges: Vec<(u32, u32, u32)>,
}

/// The immutable sketch store: flat arrays in member-slot order, plus the
/// inverted node → (sketch, local-slot) postings the estimator's
/// incremental updates walk. Estimators read it in place.
pub struct SketchIndex {
    n: usize,
    /// The parameters the index was built with.
    params: SketchParams,
    /// `B_total` at build time.
    b_total: f64,
    /// `B_total / sketch_count` — the benefit mass one covered sketch adds
    /// to the estimate.
    unit: f64,
    stats: BuildStats,

    /// Root's slot in the sketch's ascending member list.
    root_locals: Vec<u32>,
    /// Flat member-slot offsets, length `R + 1`: sketch `i`'s slots are
    /// `member_offsets[i]..member_offsets[i + 1]` in every per-slot array.
    member_offsets: Vec<u64>,
    /// Member node id of every flat slot; each sketch's run is ascending.
    members: Vec<u32>,

    /// Edge-range offsets, length `R + 1`.
    edge_offsets: Vec<u64>,
    edge_src_local: Vec<u32>,
    edge_dst_local: Vec<u32>,
    edge_demand: Vec<u32>,
    /// Per-sketch forward CSR over `edges` grouped by `src_local`: sketch
    /// `i`'s starts are its `|members| + 1` entries from
    /// `member_offsets[i] + i` on (see [`starts_range`](Self::starts_range));
    /// values are edge indices relative to the sketch's edge range.
    fwd_starts: Vec<u32>,
    /// Same shape, grouped by `dst_local`; values index the sketch's edge
    /// range. The estimator's backward reach propagation walks this.
    rev_starts: Vec<u32>,
    rev_edges: Vec<u32>,

    /// Inverted postings: node `v`'s memberships are
    /// `post_offsets[v]..post_offsets[v + 1]` into `post_sketch` /
    /// `post_local`.
    post_offsets: Vec<u64>,
    post_sketch: Vec<u32>,
    post_local: Vec<u32>,
}

/// Deterministic per-sketch RNG stream (root draws), salted away from the
/// world streams so sharing a base seed with a forward cache never
/// correlates roots with edge coins.
fn root_rng(seed: u64, sketch: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed ^ 0x524F_4F54_5353_5221 ^ sketch.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Per-round world seed: each doubling round samples fresh worlds from an
/// independent deterministic stream family.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5754_4C44_5348_4554
}

impl SketchIndex {
    /// Build an index over `graph`/`data` on the shared global pool.
    pub fn build(graph: &CsrGraph, data: &NodeData, params: &SketchParams) -> Self {
        Self::build_with_pool(graph, data, params, osn_pool::global())
    }

    /// Build on an explicit pool. Worlds and roots are fixed deterministic
    /// streams, and per-world extraction results are assembled in world
    /// order, so the index contents never depend on the pool size.
    pub fn build_with_pool(
        graph: &CsrGraph,
        data: &NodeData,
        params: &SketchParams,
        pool: &ThreadPool,
    ) -> Self {
        params.validate();
        let n = graph.node_count();
        let b_total = data.total_benefit();
        let mut stats = BuildStats::default();
        if n == 0 || b_total <= 0.0 || params.max_sketches == 0 {
            return Self::assemble(n, *params, b_total, Vec::new(), stats);
        }

        // Benefit CDF for root draws (strictly increasing over nodes with
        // positive benefit; zero-benefit nodes are never sampled).
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for &b in data.benefits() {
            acc += b.max(0.0);
            cdf.push(acc);
        }

        let t = params.roots_per_world;
        let g_min = params.world_floor();
        let lambda = 3.0 * (2.0 / params.delta).ln() / (params.epsilon * params.epsilon);

        let index = graph.prob_bucket_index();
        let mut sketches: Vec<RawSketch> = Vec::new();
        let mut spread_mass = 0u64;
        let mut worlds_done = 0usize;
        let mut round = 0u64;
        loop {
            let world_cap = params.max_sketches / t;
            if worlds_done >= world_cap {
                stats.capped = true;
                break;
            }
            // Round sizes: the Hoeffding floor first, then doubling.
            let want = if worlds_done == 0 { g_min } else { worlds_done };
            let this_round = Round {
                seed: round_seed(params.seed, round),
                worlds: want.min(world_cap - worlds_done),
                base_sketch: worlds_done * t,
            };
            let mut batch_sketches =
                extract_worlds(graph, &index, &this_round, &cdf, b_total, params, pool);
            for s in &batch_sketches {
                spread_mass += (s.members.len() - 1) as u64;
            }
            sketches.append(&mut batch_sketches);
            worlds_done += this_round.worlds;
            round += 1;

            if worlds_done >= g_min && spread_mass as f64 >= lambda {
                break;
            }
            if worlds_done >= world_cap {
                stats.capped = worlds_done >= world_cap && (spread_mass as f64) < lambda;
                break;
            }
        }

        stats.worlds = worlds_done;
        Self::assemble(n, *params, b_total, sketches, stats)
    }

    fn assemble(
        n: usize,
        params: SketchParams,
        b_total: f64,
        sketches: Vec<RawSketch>,
        mut stats: BuildStats,
    ) -> Self {
        let r = sketches.len();
        stats.sketches = r;
        let mut root_locals = Vec::with_capacity(r);
        let mut member_offsets = Vec::with_capacity(r + 1);
        let mut members: Vec<u32> = Vec::new();
        let mut edge_offsets = Vec::with_capacity(r + 1);
        let mut edge_src_local: Vec<u32> = Vec::new();
        let mut edge_dst_local: Vec<u32> = Vec::new();
        let mut edge_demand: Vec<u32> = Vec::new();
        let mut fwd_starts: Vec<u32> = Vec::new();
        let mut rev_starts: Vec<u32> = Vec::new();
        let mut rev_edges: Vec<u32> = Vec::new();
        member_offsets.push(0u64);
        edge_offsets.push(0u64);

        let mut post_counts = vec![0u64; n + 1];
        for s in &sketches {
            root_locals.push(s.root_local);
            members.extend_from_slice(&s.members);
            member_offsets.push(members.len() as u64);
            for &m in &s.members {
                post_counts[m as usize + 1] += 1;
            }

            let mcount = s.members.len();
            // Forward CSR by src_local (edges are sorted by src already).
            let mut starts = vec![0u32; mcount + 1];
            for &(src, _, _) in &s.edges {
                starts[src as usize + 1] += 1;
            }
            for i in 0..mcount {
                starts[i + 1] += starts[i];
            }
            fwd_starts.extend_from_slice(&starts);

            // Reverse CSR by dst_local, values = sketch-relative edge index.
            let mut rstarts = vec![0u32; mcount + 1];
            for &(_, dst, _) in &s.edges {
                rstarts[dst as usize + 1] += 1;
            }
            for i in 0..mcount {
                rstarts[i + 1] += rstarts[i];
            }
            let mut cursor = rstarts.clone();
            let mut redges = vec![0u32; s.edges.len()];
            for (ei, &(_, dst, _)) in s.edges.iter().enumerate() {
                redges[cursor[dst as usize] as usize] = ei as u32;
                cursor[dst as usize] += 1;
            }
            rev_starts.extend_from_slice(&rstarts);
            rev_edges.extend_from_slice(&redges);

            for &(src, dst, demand) in &s.edges {
                edge_src_local.push(src);
                edge_dst_local.push(dst);
                edge_demand.push(demand);
            }
            edge_offsets.push(edge_src_local.len() as u64);
        }

        // Inverted postings by counting sort over member lists.
        for v in 0..n {
            post_counts[v + 1] += post_counts[v];
        }
        let mut cursor = post_counts.clone();
        let total_posts = post_counts[n] as usize;
        let mut post_sketch = vec![0u32; total_posts];
        let mut post_local = vec![0u32; total_posts];
        for (si, s) in sketches.iter().enumerate() {
            for (local, &m) in s.members.iter().enumerate() {
                let slot = cursor[m as usize] as usize;
                post_sketch[slot] = si as u32;
                post_local[slot] = local as u32;
                cursor[m as usize] += 1;
            }
        }

        let unit = if r > 0 { b_total / r as f64 } else { 0.0 };
        SketchIndex {
            n,
            params,
            b_total,
            unit,
            stats,
            root_locals,
            member_offsets,
            members,
            edge_offsets,
            edge_src_local,
            edge_dst_local,
            edge_demand,
            fwd_starts,
            rev_starts,
            rev_edges,
            post_offsets: post_counts,
            post_sketch,
            post_local,
        }
    }

    /// Nodes the index spans.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The parameters the index was built with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// Number of sketches `R`.
    pub fn sketch_count(&self) -> usize {
        self.root_locals.len()
    }

    /// `B_total` at build time.
    pub fn total_benefit(&self) -> f64 {
        self.b_total
    }

    /// Benefit mass per covered sketch: `B_total / R`.
    pub fn unit(&self) -> f64 {
        self.unit
    }

    /// Build-time counters.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Root node of sketch `i`.
    pub fn root(&self, i: usize) -> u32 {
        self.members(i)[self.root_local(i) as usize]
    }

    /// Root's member-slot index in sketch `i`.
    pub fn root_local(&self, i: usize) -> u32 {
        self.root_locals[i]
    }

    /// Member count of sketch `i`.
    pub fn member_count(&self, i: usize) -> usize {
        self.member_range(i).len()
    }

    /// Flat member-slot range of sketch `i` (indexes the estimator's
    /// per-slot runtime arrays).
    pub fn member_range(&self, i: usize) -> std::ops::Range<usize> {
        self.member_offsets[i] as usize..self.member_offsets[i + 1] as usize
    }

    /// Total member slots across all sketches.
    pub fn total_member_slots(&self) -> usize {
        *self.member_offsets.last().unwrap_or(&0) as usize
    }

    /// Sketch `i`'s member node ids, ascending.
    pub fn members(&self, i: usize) -> &[u32] {
        &self.members[self.member_range(i)]
    }

    /// Member node id of every flat slot (sketch `i`'s run is
    /// [`member_range`](Self::member_range)).
    pub fn members_flat(&self) -> &[u32] {
        &self.members
    }

    /// Sketch `i`'s edge range into the flat edge arrays.
    pub fn edge_range(&self, i: usize) -> std::ops::Range<usize> {
        self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize
    }

    /// Flat `src_local` of every edge.
    pub fn edge_src_local(&self) -> &[u32] {
        &self.edge_src_local
    }

    /// Flat `dst_local` of every edge.
    pub fn edge_dst_local(&self) -> &[u32] {
        &self.edge_dst_local
    }

    /// Flat coupon demand of every edge: the number of live earlier-ranked
    /// out-edges of the edge's source in the sketch's world. The edge is
    /// usable iff its source holds **more** coupons than this demand.
    pub fn edge_demand(&self) -> &[u32] {
        &self.edge_demand
    }

    /// Range of sketch `i`'s `|members| + 1` per-member starts in the flat
    /// start arrays: each earlier sketch holds one more start than it has
    /// members, so the range begins at `member_offsets[i] + i`.
    fn starts_range(&self, i: usize) -> std::ops::Range<usize> {
        self.member_offsets[i] as usize + i..self.member_offsets[i + 1] as usize + i + 1
    }

    /// Sketch `i`'s forward per-member edge starts (length `|members|+1`,
    /// values relative to [`edge_range`](Self::edge_range)).
    pub fn fwd_starts(&self, i: usize) -> &[u32] {
        &self.fwd_starts[self.starts_range(i)]
    }

    /// Sketch `i`'s reverse per-member starts into
    /// [`rev_edges_of`](Self::rev_edges_of).
    pub fn rev_starts(&self, i: usize) -> &[u32] {
        &self.rev_starts[self.starts_range(i)]
    }

    /// Sketch `i`'s reverse edge-index list, grouped by `dst_local`
    /// (values relative to [`edge_range`](Self::edge_range)).
    pub fn rev_edges_of(&self, i: usize) -> &[u32] {
        &self.rev_edges[self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize]
    }

    /// Node `v`'s posting range into [`post_sketch`](Self::post_sketch) /
    /// [`post_local`](Self::post_local).
    pub fn postings(&self, v: NodeId) -> std::ops::Range<usize> {
        self.post_offsets[v.index()] as usize..self.post_offsets[v.index() + 1] as usize
    }

    /// Sketch id of each posting slot.
    pub fn post_sketch(&self) -> &[u32] {
        &self.post_sketch
    }

    /// Member-local index of each posting slot.
    pub fn post_local(&self) -> &[u32] {
        &self.post_local
    }

    /// Resident bytes across all sections (diagnostics).
    pub fn resident_bytes(&self) -> usize {
        self.root_locals.len() * 4
            + self.member_offsets.len() * 8
            + self.members.len() * 4
            + self.edge_offsets.len() * 8
            + self.edge_src_local.len() * 4
            + self.edge_dst_local.len() * 4
            + self.edge_demand.len() * 4
            + self.fwd_starts.len() * 4
            + self.rev_starts.len() * 4
            + self.rev_edges.len() * 4
            + self.post_offsets.len() * 8
            + self.post_sketch.len() * 4
            + self.post_local.len() * 4
    }
}

/// One doubling round: `worlds` worlds of the stream family `seed`, whose
/// sketches are numbered from `base_sketch`.
struct Round {
    seed: u64,
    worlds: usize,
    base_sketch: usize,
}

/// Extract `roots_per_world` sketches from every world of `round`, in
/// world order, parallel across worlds. Each world is sampled straight
/// into its extraction bitmap — world `w` is world `w` of the forward
/// cache seeded `round.seed` — and sketch `base_sketch + w*T + t` has a
/// fixed RNG stream, so the result is pool-size independent.
fn extract_worlds(
    graph: &CsrGraph,
    index: &ProbBucketIndex,
    round: &Round,
    cdf: &[f64],
    b_total: f64,
    params: &SketchParams,
    pool: &ThreadPool,
) -> Vec<RawSketch> {
    let t = params.roots_per_world;
    let per_world: Vec<Vec<RawSketch>> = pool.map_indexed(round.worlds, |w| {
        let mut bits = BitVec::zeros(graph.edge_count());
        sample_world(graph, index, round.seed, w as u64, &mut bits);
        let mut scratch = ExtractScratch::new(graph.node_count());
        (0..t)
            .map(|ti| {
                let sketch_id = (round.base_sketch + w * t + ti) as u64;
                let mut rng = root_rng(params.seed, sketch_id);
                let root = sample_root(cdf, b_total, &mut rng);
                extract_sketch(graph, &bits, root, &mut scratch)
            })
            .collect()
    });
    per_world.into_iter().flatten().collect()
}

/// Draw a root with probability proportional to its benefit.
fn sample_root(cdf: &[f64], b_total: f64, rng: &mut SmallRng) -> u32 {
    let x = rng.gen_range(0.0..b_total);
    cdf.partition_point(|&c| c <= x) as u32
}

/// Reusable per-worker extraction state: a generation-stamped visited map
/// avoids an `O(n)` clear per sketch.
struct ExtractScratch {
    stamp: Vec<u32>,
    generation: u32,
    queue: Vec<u32>,
}

impl ExtractScratch {
    fn new(n: usize) -> Self {
        ExtractScratch {
            stamp: vec![0; n],
            generation: 0,
            queue: Vec::new(),
        }
    }
}

/// Reverse BFS from `root` over live edges: members are every node with a
/// live path to the root, edges every live edge between members (reverse
/// traversal from members enumerates exactly those), each annotated with
/// its coupon demand via a masked popcount over the world bitmap.
fn extract_sketch(
    graph: &CsrGraph,
    bits: &BitVec,
    root: u32,
    scratch: &mut ExtractScratch,
) -> RawSketch {
    scratch.generation = scratch.generation.wrapping_add(1);
    if scratch.generation == 0 {
        scratch.stamp.fill(0);
        scratch.generation = 1;
    }
    let generation = scratch.generation;
    let stamp = &mut scratch.stamp;
    let queue = &mut scratch.queue;
    queue.clear();

    let mut members = vec![root];
    let mut edges_global: Vec<(u32, u32, u32)> = Vec::new();
    stamp[root as usize] = generation;
    queue.push(root);
    let mut head = 0usize;
    let in_offsets = graph.in_offsets();
    let in_edge_ids = graph.in_edge_ids();
    while head < queue.len() {
        let b = queue[head];
        head += 1;
        let lo = in_offsets[b as usize] as usize;
        let hi = in_offsets[b as usize + 1] as usize;
        let sources = graph.in_sources(NodeId(b));
        for (slot, &a) in (lo..hi).zip(sources.iter()) {
            let eid = in_edge_ids[slot];
            if !bits.get(eid as usize) {
                continue;
            }
            let out_start = graph.out_edge_ids(a).start;
            let demand = bits.count_ones_in(out_start as usize, eid as usize) as u32;
            edges_global.push((a.0, b, demand));
            if stamp[a.index()] != generation {
                stamp[a.index()] = generation;
                members.push(a.0);
                queue.push(a.0);
            }
        }
    }
    members.sort_unstable();

    // Map global endpoints to member-local slots: both ends of every
    // recorded edge are members.
    let local_of = |v: u32| members.binary_search(&v).expect("edge ends are members") as u32;
    let mut edges: Vec<(u32, u32, u32)> = edges_global
        .into_iter()
        .map(|(a, b, d)| (local_of(a), local_of(b), d))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let root_local = members
        .binary_search(&root)
        .expect("root is always a member") as u32;

    RawSketch {
        members,
        root_local,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    fn params() -> SketchParams {
        SketchParams {
            epsilon: 0.2,
            delta: 0.2,
            roots_per_world: 2,
            max_sketches: 4096,
            seed: 11,
        }
    }

    #[test]
    fn empty_graph_builds_empty_index() {
        let g = GraphBuilder::new(0).build().unwrap();
        let d = NodeData::new(vec![], vec![], vec![]).unwrap();
        let idx = SketchIndex::build(&g, &d, &params());
        assert_eq!(idx.sketch_count(), 0);
        assert_eq!(idx.unit(), 0.0);
    }

    #[test]
    fn zero_benefit_builds_empty_index() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(2, 0.0, 1.0, 1.0);
        let idx = SketchIndex::build(&g, &d, &params());
        assert_eq!(idx.sketch_count(), 0);
    }

    #[test]
    fn p1_edges_make_full_chains() {
        // 0 -> 1 -> 2, both p = 1: every sketch rooted at 2 contains all
        // three nodes with demand-0 edges.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let idx = SketchIndex::build(&g, &d, &params());
        assert!(idx.sketch_count() > 0);
        let mut saw_root2 = false;
        for i in 0..idx.sketch_count() {
            if idx.root(i) == 2 {
                saw_root2 = true;
                assert_eq!(idx.members(i), &[0, 1, 2]);
                let er = idx.edge_range(i);
                assert_eq!(er.len(), 2);
                for e in er {
                    assert_eq!(idx.edge_demand()[e], 0);
                }
            }
        }
        assert!(saw_root2, "benefit-uniform roots must hit node 2");
    }

    #[test]
    fn p0_edges_make_singleton_sketches() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.0).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(2, 1.0, 1.0, 1.0);
        let idx = SketchIndex::build(&g, &d, &params());
        for i in 0..idx.sketch_count() {
            assert_eq!(idx.member_count(i), 1);
            assert!(idx.edge_range(i).is_empty());
        }
    }

    #[test]
    fn build_is_pool_size_independent() {
        let mut b = GraphBuilder::new(6);
        for (u, v, p) in [
            (0, 1, 0.8),
            (1, 2, 0.5),
            (0, 3, 0.3),
            (3, 4, 0.9),
            (4, 5, 0.4),
        ] {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let d = NodeData::uniform(6, 1.0, 1.0, 1.0);
        let p1 = ThreadPool::new(1);
        let p3 = ThreadPool::new(3);
        let a = SketchIndex::build_with_pool(&g, &d, &params(), &p1);
        let c = SketchIndex::build_with_pool(&g, &d, &params(), &p3);
        assert_eq!(a.sketch_count(), c.sketch_count());
        for i in 0..a.sketch_count() {
            assert_eq!(a.root(i), c.root(i));
            assert_eq!(a.members(i), c.members(i));
            assert_eq!(a.edge_range(i), c.edge_range(i));
        }
        assert_eq!(a.edge_demand(), c.edge_demand());
    }

    #[test]
    fn demand_counts_live_higher_ranked_siblings() {
        // Node 0 has ranked out-edges 0->1 (0.9, rank 0), 0->2 (0.8, rank
        // 1). In a world where both are live, the edge 0->2 must carry
        // demand 1 in any sketch that contains it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let idx = SketchIndex::build(&g, &d, &params());
        let mut checked = false;
        for i in 0..idx.sketch_count() {
            if idx.root(i) != 2 || idx.member_count(i) < 2 {
                continue;
            }
            let buf = idx.members(i);
            let er = idx.edge_range(i);
            for e in er {
                let src = buf[idx.edge_src_local()[e] as usize];
                let dst = buf[idx.edge_dst_local()[e] as usize];
                if src == 0 && dst == 2 {
                    // Demand is 1 exactly when 0->1 is live in that world;
                    // both cases occur across enough worlds, so just check
                    // the bound here.
                    assert!(idx.edge_demand()[e] <= 1);
                    checked = true;
                }
            }
        }
        assert!(checked, "no sketch contained the 0->2 edge");
    }
}
