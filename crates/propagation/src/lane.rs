//! Bit-parallel world-per-lane cascade kernel.
//!
//! The scalar kernel ([`crate::reach::world_cascade`]) walks one
//! world at a time: `R` worlds cost `R` frontier expansions over the same
//! graph. This module transposes the loop: a **block of up to
//! [`LANE_WORLDS`] worlds** is packed as one `u64` lane mask per edge (bit
//! `j` = world `base + j`'s coin for that edge), and a single frontier
//! expansion advances all lanes simultaneously with word-wide AND/OR —
//! the per-edge liveness test, the already-active skip, and the coupon
//! budget all become 64-lane bit operations.
//!
//! The kernel does not scan raw per-edge masks: a [`LaneBlock`] compacts
//! the block into a **union live adjacency** — per node, only the
//! out-edges live in *at least one* lane, as `(mask, target)` pairs in
//! edge-rank order. Edges dead in all 64 lanes (the vast majority under
//! Table II-scale probabilities) cost nothing per cascade. Lane blocks are
//! the world cache's only storage ([`WorldCache`](crate::world::WorldCache)
//! samples straight into them), so every batch and candidate cascades
//! against blocks built once at sampling time.
//!
//! ## Bit-identity with the scalar kernel
//!
//! The lane kernel is an *execution transpose*, not a semantic change, and
//! its per-lane results are **bitwise equal** to the scalar kernel's
//! per-world [`WorldOutcome`](crate::reach::WorldOutcome)s:
//!
//! * The BFS round structure is per-lane identical (a lane only attempts a
//!   node's out-edges in the round after that lane activated the node), so
//!   every lane sees exactly the scalar kernel's activation events.
//! * The union frontier drains in ascending node id and edges are taken in
//!   rank order — the scalar kernel's canonical order — so each lane's
//!   floating-point accumulators (`benefit`, `redeemed_sc_cost`) receive
//!   the same additions in the same sequence.
//! * Coupon budgets run as per-lane binary counters held in bit planes: a
//!   newly-activated target decrements the counter of every redeeming lane
//!   via a ripple-borrow subtract, and lanes whose counter reaches zero
//!   drop out of the attempt mask exactly where the scalar kernel's
//!   `remaining > 0` cursor stops.
//!
//! ## Lane layout and the determinism-part alignment
//!
//! [`LANE_WORLDS`] is 64 = 2 × [`PART_WORLDS`](crate::monte_carlo::PART_WORLDS),
//! and blocks always start at 64-world boundaries, so one block covers
//! exactly two aligned summation parts: lanes `0..32` are part `2b`, lanes
//! `32..64` part `2b + 1`. Summing each half's lanes in ascending lane
//! order reproduces the serial world-order summation bit for bit, which is
//! how [`crate::monte_carlo`] keeps the determinism contract (fixed part
//! grouping, part-order merge).

use crate::bits::WordSet;
use osn_graph::{CsrGraph, NodeData, NodeId};

/// Worlds per lane block: one bit lane per world in a `u64` mask. Two
/// aligned [`PART_WORLDS`](crate::monte_carlo::PART_WORLDS)-world
/// determinism parts.
pub const LANE_WORLDS: usize = 64;

/// One ≤ [`LANE_WORLDS`]-world block: the union live adjacency in CSR
/// form. For node `u`, entries `node_off[u]..node_off[u + 1]` hold the
/// out-edges live in at least one lane, in edge-rank order, as a lane mask
/// (bit `j` = live in world `base + j`) and the edge's target.
///
/// The block depends only on the graph and the sampled worlds — never on
/// seeds, coupons, or batch shape — so a [`WorldCache`](crate::world::WorldCache)
/// holds one per 64-world block for its lifetime and every cascade reads
/// it. Resident size is ~12 bytes per union-live edge.
#[derive(Clone, Debug, Default)]
pub struct LaneBlock {
    /// Populated-lane mask: all-ones for a full block, the low `count`
    /// bits for a ragged tail.
    pub valid: u64,
    /// Per-node entry ranges (`node_count + 1` offsets).
    node_off: Vec<u32>,
    /// Lane masks of the union-live edges, edge-rank order per node.
    masks: Vec<u64>,
    /// Targets of the union-live edges, aligned with `masks`.
    targets: Vec<u32>,
}

impl LaneBlock {
    /// Compact per-edge lane masks (`lane_live[e]` bit `j` = world
    /// `base + j`'s coin for edge `e`) into the union live adjacency. The
    /// edge arrays are allocated at
    /// their exact size: blocks stay resident for a cache's lifetime, so
    /// growth slack would be paid per block for as long as the cache lives.
    pub fn from_edge_masks(graph: &CsrGraph, lane_live: &[u64], valid: u64) -> Self {
        debug_assert_eq!(lane_live.len(), graph.edge_count());
        let live = lane_live.iter().filter(|&&mask| mask != 0).count();
        let flat = graph.edge_targets_flat();
        let mut node_off = Vec::with_capacity(graph.node_count() + 1);
        let mut masks = Vec::with_capacity(live);
        let mut targets = Vec::with_capacity(live);
        node_off.push(0u32);
        for u in graph.nodes() {
            let ids = graph.out_edge_ids(u);
            for e in ids.start as usize..ids.end as usize {
                let mask = lane_live[e];
                if mask != 0 {
                    masks.push(mask);
                    targets.push(flat[e].0);
                }
            }
            node_off.push(masks.len() as u32);
        }
        LaneBlock {
            valid,
            node_off,
            masks,
            targets,
        }
    }

    /// Node `u`'s union-live out-edges: their lane masks and targets, in
    /// edge-rank order.
    #[inline]
    pub(crate) fn out(&self, u: NodeId) -> (&[u64], &[u32]) {
        let (lo, hi) = (
            self.node_off[u.index()] as usize,
            self.node_off[u.index() + 1] as usize,
        );
        (&self.masks[lo..hi], &self.targets[lo..hi])
    }

    /// Bytes resident in the compacted adjacency.
    pub fn resident_bytes(&self) -> usize {
        self.node_off.len() * 4 + self.masks.len() * 8 + self.targets.len() * 4
    }
}

/// Pack per-world live-edge id lists into one block (lane `j` = world
/// `worlds[j]`): how unit tests state a world by hand.
#[cfg(test)]
pub(crate) fn pack_lanes(graph: &CsrGraph, worlds: &[Vec<u32>]) -> LaneBlock {
    assert!(!worlds.is_empty() && worlds.len() <= LANE_WORLDS);
    let mut lanes = vec![0u64; graph.edge_count()];
    for (j, live) in worlds.iter().enumerate() {
        for &e in live {
            lanes[e as usize] |= 1u64 << j;
        }
    }
    LaneBlock::from_edge_masks(graph, &lanes, !0u64 >> (LANE_WORLDS - worlds.len()))
}

/// Per-lane cascade outcome of one block: index `j` holds world
/// `base + j`'s result, bitwise equal to the scalar kernel's
/// [`WorldOutcome`](crate::reach::WorldOutcome) for that world. Lanes
/// beyond the block's valid mask stay zero.
#[derive(Clone, Copy, Debug)]
pub struct LaneOutcome {
    /// Total benefit of activated users, per lane.
    pub benefit: [f64; LANE_WORLDS],
    /// Coupon cost of coupon-activated users, per lane.
    pub redeemed_sc_cost: [f64; LANE_WORLDS],
    /// Activated user count (seeds included), per lane.
    pub activated: [u32; LANE_WORLDS],
    /// Farthest hop from the seed set, per lane.
    pub farthest_hop: [u32; LANE_WORLDS],
}

impl Default for LaneOutcome {
    fn default() -> Self {
        LaneOutcome {
            benefit: [0.0; LANE_WORLDS],
            redeemed_sc_cost: [0.0; LANE_WORLDS],
            activated: [0; LANE_WORLDS],
            farthest_hop: [0; LANE_WORLDS],
        }
    }
}

/// Reusable buffers for lane-block cascades (one per worker thread).
#[derive(Clone, Debug, Default)]
pub struct LaneScratch {
    stamp: u32,
    /// Per-node validity stamp for `active` / `next_src` (stamp-based
    /// clearing: a cascade touches only the nodes it reaches).
    node_stamp: Vec<u32>,
    /// Lanes in which the node is active.
    active: Vec<u64>,
    /// Lanes in which the node was newly activated this round (= the
    /// lanes that will expand it next round).
    next_src: Vec<u64>,
    /// Union-over-lanes frontier membership for the next round.
    front: WordSet,
    /// Drained frontier of the current round: `(node, source lanes)`,
    /// ascending node id.
    frontier: Vec<(u32, u64)>,
}

impl LaneScratch {
    /// Scratch for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut s = LaneScratch::default();
        s.ensure_nodes(n);
        s
    }

    /// Grow to cover graphs of at least `n` nodes, keeping the allocation
    /// when it already fits (and shrinking long-lived scratches that last
    /// served a much larger graph, mirroring
    /// [`CascadeScratch::ensure_nodes`](crate::reach::CascadeScratch::ensure_nodes)).
    pub fn ensure_nodes(&mut self, n: usize) {
        const SHRINK_FLOOR: usize = 1 << 20;
        if self.node_stamp.len() > SHRINK_FLOOR && self.node_stamp.len() / 4 > n {
            self.node_stamp = vec![0; n];
            self.active = vec![0; n];
            self.next_src = vec![0; n];
            self.front.reset();
            self.frontier = Vec::new();
        } else if self.node_stamp.len() < n {
            self.node_stamp.resize(n, 0);
            self.active.resize(n, 0);
            self.next_src.resize(n, 0);
        }
        self.front.ensure(n);
    }

    #[inline]
    fn begin(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.node_stamp.fill(0);
            self.stamp = 1;
        }
        self.frontier.clear();
        // A finished cascade leaves the set drained; clear defensively in
        // case a previous run panicked mid-round on this worker.
        self.front.clear();
    }

    /// Make node `v`'s lane masks valid for this cascade (zeroing stale
    /// contents on first touch).
    #[inline]
    fn touch(&mut self, v: usize) {
        if self.node_stamp[v] != self.stamp {
            self.node_stamp[v] = self.stamp;
            self.active[v] = 0;
            self.next_src[v] = 0;
        }
    }

    /// Mark `v` newly active in `newly` (a touched node) and queue it for
    /// the next round.
    #[inline]
    fn activate(&mut self, v: usize, newly: u64) {
        self.active[v] |= newly;
        self.next_src[v] |= newly;
        self.front.insert(v);
    }

    /// Snapshot the queued activations into `frontier` as
    /// `(node, source lanes)` in ascending node id, clearing the queue.
    /// The source masks are captured *now*: a node activated in different
    /// rounds by different lanes re-enters the queue with only its new
    /// lanes.
    fn drain_frontier(&mut self) {
        let (front, next_src, frontier) = (&mut self.front, &mut self.next_src, &mut self.frontier);
        front.drain_ascending_into(|v| {
            frontier.push((v as u32, std::mem::take(&mut next_src[v])));
        });
    }
}

/// Credit an activation of `v` to every lane in `newly`, in ascending lane
/// order. `sc` is `None` for seed activations (no redeemed coupon).
#[inline]
fn credit(out: &mut LaneOutcome, benefit: f64, sc: Option<f64>, newly: u64) {
    let mut m = newly;
    while m != 0 {
        let l = m.trailing_zeros() as usize;
        out.benefit[l] += benefit;
        out.activated[l] += 1;
        if let Some(sc) = sc {
            out.redeemed_sc_cost[l] += sc;
        }
        m &= m - 1;
    }
}

/// Expand one frontier node `u` (source lanes `src`) through `block`'s
/// union live adjacency. Returns the lanes newly activated by this
/// expansion, for the caller to fold into its round mask.
#[inline]
fn expand_node(
    data: &NodeData,
    coupons: &[u32],
    block: &LaneBlock,
    u: NodeId,
    src: u64,
    scratch: &mut LaneScratch,
    out: &mut LaneOutcome,
) -> u64 {
    let k = coupons[u.index()];
    if k == 0 {
        return 0;
    }
    let mut round_newly = 0u64;
    let (live, tgts) = block.out(u);
    if k as usize >= live.len() {
        // The budget can never bind (per-lane redemptions cannot
        // exceed the union live out-degree): no counter needed,
        // every source lane attempts every live out-edge.
        for (&mask, &t) in live.iter().zip(tgts) {
            let attempt = mask & src;
            if attempt == 0 {
                continue;
            }
            let v = NodeId(t);
            let vi = v.index();
            scratch.touch(vi);
            let newly = attempt & !scratch.active[vi];
            if newly != 0 {
                scratch.activate(vi, newly);
                round_newly |= newly;
                credit(out, data.benefit(v), Some(data.sc_cost(v)), newly);
            }
        }
    } else {
        // Per-lane coupon counters as bit planes: plane `p` holds
        // bit `p` of each source lane's remaining budget. A lane
        // leaves `has` exactly when its counter hits zero — the
        // scalar kernel's `remaining > 0` stop, 64 lanes at a time.
        let mut has = src;
        let planes_n = (32 - k.leading_zeros()) as usize;
        let mut planes = [0u64; 32];
        for (p, plane) in planes.iter_mut().enumerate().take(planes_n) {
            if (k >> p) & 1 == 1 {
                *plane = src;
            }
        }
        for (&mask, &t) in live.iter().zip(tgts) {
            let attempt = mask & has;
            if attempt == 0 {
                continue;
            }
            let v = NodeId(t);
            let vi = v.index();
            scratch.touch(vi);
            let newly = attempt & !scratch.active[vi];
            if newly != 0 {
                scratch.activate(vi, newly);
                round_newly |= newly;
                credit(out, data.benefit(v), Some(data.sc_cost(v)), newly);
                // Ripple-borrow decrement of the redeeming lanes.
                let mut borrow = newly;
                let mut alive = 0u64;
                for plane in planes.iter_mut().take(planes_n) {
                    let t = *plane;
                    *plane = t ^ borrow;
                    borrow &= !t;
                    alive |= *plane;
                }
                has &= alive;
                if has == 0 {
                    break;
                }
            }
        }
    }
    round_newly
}

/// Run the deterministic cascade of one lane block over its compacted
/// union live adjacency. Skipping edges dead in every lane cannot change
/// any outcome (their attempt mask is always zero), so per-lane results
/// are bitwise equal to the scalar
/// [`world_cascade`](crate::reach::world_cascade) of each world.
pub fn lane_cascade_block(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    coupons: &[u32],
    block: &LaneBlock,
    scratch: &mut LaneScratch,
) -> LaneOutcome {
    debug_assert_eq!(coupons.len(), graph.node_count());
    debug_assert_eq!(block.node_off.len(), graph.node_count() + 1);
    let valid = block.valid;
    let mut out = LaneOutcome::default();
    if valid == 0 {
        return out;
    }
    scratch.begin();

    // Seeds, in seed-list order (duplicates skipped): identical in every
    // valid lane, exactly like the scalar per-world seed pass.
    for &s in seeds {
        let si = s.index();
        scratch.touch(si);
        let newly = valid & !scratch.active[si];
        if newly != 0 {
            scratch.activate(si, newly);
            credit(&mut out, data.benefit(s), None, newly);
        }
    }
    scratch.drain_frontier();

    let mut round = 0u32;
    while !scratch.frontier.is_empty() {
        round += 1;
        // Lanes with at least one new activation this round: their realized
        // spread reaches hop `round`.
        let mut round_newly = 0u64;
        let frontier = std::mem::take(&mut scratch.frontier);
        for &(u, src) in &frontier {
            round_newly |= expand_node(data, coupons, block, NodeId(u), src, scratch, &mut out);
        }
        let mut m = round_newly;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            out.farthest_hop[l] = round;
            m &= m - 1;
        }
        // Hand the spent allocation back, then refill from the queue.
        let mut spent = frontier;
        spent.clear();
        scratch.frontier = spent;
        scratch.drain_frontier();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::{world_cascade, CascadeScratch};
    use crate::world::WorldRef;
    use osn_graph::GraphBuilder;

    fn assert_matches_scalar(
        graph: &CsrGraph,
        data: &NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
        worlds: &[Vec<u32>],
    ) {
        let block = pack_lanes(graph, worlds);
        let mut lane_scratch = LaneScratch::new(graph.node_count());
        let out = lane_cascade_block(graph, data, seeds, coupons, &block, &mut lane_scratch);
        let mut scalar_scratch = CascadeScratch::new(graph.node_count());
        for j in 0..worlds.len() {
            let want = world_cascade(
                graph,
                data,
                seeds,
                coupons,
                WorldRef::new(&block, j),
                &mut scalar_scratch,
            );
            assert_eq!(
                out.benefit[j].to_bits(),
                want.benefit.to_bits(),
                "lane {j} benefit"
            );
            assert_eq!(
                out.redeemed_sc_cost[j].to_bits(),
                want.redeemed_sc_cost.to_bits(),
                "lane {j} redeemed cost"
            );
            assert_eq!(out.activated[j] as usize, want.activated, "lane {j} count");
            assert_eq!(out.farthest_hop[j], want.farthest_hop, "lane {j} hop");
        }
        for j in worlds.len()..LANE_WORLDS {
            assert_eq!(out.benefit[j], 0.0, "invalid lane {j} must stay zero");
            assert_eq!(out.activated[j], 0);
        }
    }

    fn star() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(0, 3, 0.7).unwrap();
        b.add_edge(0, 4, 0.6).unwrap();
        (b.build().unwrap(), NodeData::uniform(5, 1.0, 1.0, 1.0))
    }

    #[test]
    fn lanes_match_scalar_per_world_on_divergent_budget_outcomes() {
        let (g, d) = star();
        // Worlds chosen so the 2-coupon budget binds differently per lane:
        // which children win depends on which high-rank edges are live.
        let worlds = vec![
            vec![0, 1, 2, 3],
            vec![2, 3],
            vec![],
            vec![1],
            vec![0, 3],
            vec![0, 1],
        ];
        assert_matches_scalar(&g, &d, &[NodeId(0)], &[2, 0, 0, 0, 0], &worlds);
        assert_matches_scalar(&g, &d, &[NodeId(0)], &[4, 0, 0, 0, 0], &worlds);
        assert_matches_scalar(&g, &d, &[NodeId(0)], &[0; 5], &worlds);
    }

    #[test]
    fn multi_hop_lanes_track_per_world_depths() {
        // Chain 0 -> 1 -> 2 -> 3: per-world depth differs by which chain
        // prefix is live.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(4, 1.0, 1.0, 1.0);
        let worlds = vec![vec![0, 1, 2], vec![0], vec![], vec![0, 1], vec![1, 2]];
        assert_matches_scalar(&g, &d, &[NodeId(0)], &[1, 1, 1, 0], &worlds);
    }

    #[test]
    fn full_64_world_block_and_duplicate_seeds() {
        let (g, d) = star();
        let worlds: Vec<Vec<u32>> = (0..64)
            .map(|j| (0..4u32).filter(|e| (j >> e) & 1 == 1).collect())
            .collect();
        assert_matches_scalar(
            &g,
            &d,
            &[NodeId(0), NodeId(0), NodeId(4)],
            &[2, 0, 0, 0, 0],
            &worlds,
        );
    }

    #[test]
    fn edgeless_graph_activates_seeds_only() {
        let g = GraphBuilder::new(3).build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let worlds = vec![vec![], vec![]];
        assert_matches_scalar(&g, &d, &[NodeId(1), NodeId(2)], &[1, 1, 1], &worlds);
    }

    #[test]
    fn lanes_reactivated_in_later_rounds_keep_round_source_masks() {
        // Node 2 is reached at hop 1 via 0->2 in one world and at hop 2 via
        // 0->1->2 in another; the frontier snapshot must not leak the hop-2
        // activation into the hop-1 round's expansion.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(1, 2, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(4, 1.0, 1.0, 1.0);
        let worlds = vec![vec![1, 3], vec![0, 2, 3], vec![0, 1, 2, 3]];
        assert_matches_scalar(&g, &d, &[NodeId(0)], &[2, 1, 1, 0], &worlds);
    }

    #[test]
    fn scratch_reuse_is_clean_across_blocks() {
        let (g, d) = star();
        let block_a = pack_lanes(&g, &[vec![0, 1, 2, 3]]);
        let block_b = pack_lanes(&g, &[vec![2]]);
        let mut scratch = LaneScratch::new(g.node_count());
        let k = [4, 0, 0, 0, 0];
        let first = lane_cascade_block(&g, &d, &[NodeId(0)], &k, &block_a, &mut scratch);
        let _ = lane_cascade_block(&g, &d, &[NodeId(0)], &k, &block_b, &mut scratch);
        let again = lane_cascade_block(&g, &d, &[NodeId(0)], &k, &block_a, &mut scratch);
        assert_eq!(first.benefit, again.benefit);
        assert_eq!(first.activated, again.activated);
    }

    #[test]
    fn block_edge_arrays_are_allocated_at_exact_size() {
        let (g, _) = star();
        let block = pack_lanes(&g, &[vec![0, 2], vec![2, 3]]);
        assert_eq!(block.masks.len(), 3, "edges 0, 2, 3 are union-live");
        assert_eq!(block.masks.capacity(), block.masks.len());
        assert_eq!(block.targets.capacity(), block.targets.len());
        assert_eq!(block.resident_bytes(), 6 * 4 + 3 * 8 + 3 * 4);
    }
}
