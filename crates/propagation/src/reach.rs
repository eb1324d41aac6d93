//! Deterministic coupon-constrained reachability inside one world.
//!
//! Sec. V: "The users reachable from the seed set by the paths with the
//! allocated coupons will be activated. Note that if a user v_i is allocated
//! with [k_i coupons and more than k_i] living edges after tossing coins, it
//! will only receive the former k_i coupons from the incident edges with the
//! largest influence probability." The cascade below walks BFS rounds; each
//! active node takes its live out-edges in rank order, skipping already
//! active targets (no coupon consumed) and stopping after `k` redemptions.
//!
//! [`world_cascade`] is the scalar reference kernel: it returns the
//! aggregate [`WorldOutcome`] of one world, and the lane kernel
//! ([`crate::lane`]) is pinned against it bit for bit. The kernel runs on
//! a [`WorldRef`] — one lane of a world cache's lane block — over an
//! in-memory [`CsrGraph`]: live out-neighbours come from
//! [`WorldRef::for_live_out`], which walks only the block's union-live
//! edges. Graphs read from sharded `.oscg` files are assembled into one
//! [`CsrGraph`] first, so every graph takes this one path.
//!
//! Frontier rounds are built through a **word-level bitset**
//! ([`WordSet`]): activations set a bit, and each round drains the touched
//! words in ascending order, so every round processes nodes in ascending
//! node id. That order is deterministic and independent of seed order,
//! partitioning, and pool size (ties for a shared target between two
//! same-round activators resolve to the smaller activator id).

use crate::bits::WordSet;
use crate::world::WorldRef;
use osn_graph::{CsrGraph, NodeData, NodeId};

/// Reusable buffers for world cascades (one per worker thread).
#[derive(Clone, Debug)]
pub struct CascadeScratch {
    stamp: u32,
    mark: Vec<u32>,
    frontier: Vec<NodeId>,
    /// Word-level bitset collecting the next BFS round.
    next: WordSet,
}

impl CascadeScratch {
    /// Scratch for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut next = WordSet::new();
        next.ensure(n);
        CascadeScratch {
            stamp: 0,
            mark: vec![0; n],
            frontier: Vec::new(),
            next,
        }
    }

    /// Grow to cover graphs of at least `n` nodes, keeping the allocation
    /// when it already fits. Grown entries are zero, which no live stamp
    /// equals (stamps start at 1), so existing marks stay valid. Long-lived
    /// scratches (worker thread-locals) that last served a much larger
    /// graph shrink back down, so one huge instance does not pin its
    /// footprint for the process lifetime; modest oversizing is kept to
    /// avoid grow/shrink thrash across mixed workloads.
    pub fn ensure_nodes(&mut self, n: usize) {
        const SHRINK_FLOOR: usize = 1 << 20;
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        } else if self.mark.len() > SHRINK_FLOOR && self.mark.len() / 4 > n {
            self.mark = vec![0; n];
            self.frontier = Vec::new();
            self.next.reset();
        }
        self.next.ensure(n);
    }

    #[inline]
    fn begin(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: reset marks so stale entries cannot collide.
            self.mark.fill(0);
            self.stamp = 1;
        }
        self.frontier.clear();
        // A finished cascade always leaves the bitset drained; clear
        // defensively in case a previous run panicked mid-round.
        self.next.clear();
    }

    #[inline]
    fn is_active(&self, v: NodeId) -> bool {
        self.mark[v.index()] == self.stamp
    }

    /// Mark `v` active and queue it (via the word bitset) for the next
    /// round's frontier.
    #[inline]
    fn activate(&mut self, v: NodeId) {
        self.mark[v.index()] = self.stamp;
        self.next.insert(v.index());
    }

    /// Move the queued activations into `frontier` in ascending node-id
    /// order, clearing the bitset words as they drain.
    fn drain_next_into_frontier(&mut self) {
        let frontier = &mut self.frontier;
        self.next
            .drain_ascending_into(|v| frontier.push(NodeId(v as u32)));
    }
}

/// Aggregate result of one world cascade.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorldOutcome {
    /// Total benefit of activated users.
    pub benefit: f64,
    /// Coupon cost of coupon-activated users.
    pub redeemed_sc_cost: f64,
    /// Activated user count (seeds included).
    pub activated: usize,
    /// Farthest hop from the seed set along the realized spread.
    pub farthest_hop: u32,
}

/// Run the deterministic cascade of `world` from `seeds` under `coupons`.
pub fn world_cascade(
    graph: &CsrGraph,
    data: &NodeData,
    seeds: &[NodeId],
    coupons: &[u32],
    world: WorldRef<'_>,
    scratch: &mut CascadeScratch,
) -> WorldOutcome {
    debug_assert_eq!(coupons.len(), graph.node_count());
    scratch.begin();
    let mut out = WorldOutcome::default();

    for &s in seeds {
        if !scratch.is_active(s) {
            scratch.activate(s);
            out.benefit += data.benefit(s);
            out.activated += 1;
        }
    }
    scratch.drain_next_into_frontier();

    let mut hop = 0u32;
    while !scratch.frontier.is_empty() {
        // Swap out the frontier so we can mutate scratch inside the loop.
        let frontier = std::mem::take(&mut scratch.frontier);
        for &u in &frontier {
            let mut remaining = coupons[u.index()];
            if remaining == 0 {
                continue;
            }
            world.for_live_out(u, |v| {
                if !scratch.is_active(v) {
                    scratch.activate(v);
                    out.benefit += data.benefit(v);
                    out.redeemed_sc_cost += data.sc_cost(v);
                    out.activated += 1;
                    remaining -= 1;
                }
                remaining > 0
            });
        }
        // Hand the spent allocation back, then refill from the bitset.
        let mut spent = frontier;
        spent.clear();
        scratch.frontier = spent;
        scratch.drain_next_into_frontier();
        if !scratch.frontier.is_empty() {
            hop += 1;
            out.farthest_hop = hop;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::{pack_lanes, LaneBlock};
    use osn_graph::GraphBuilder;

    /// A one-world block holding exactly the live edge ids `live`.
    fn world_of(g: &CsrGraph, live: &[u32]) -> LaneBlock {
        pack_lanes(g, &[live.to_vec()])
    }

    /// Center 0 with children 1..=4 at descending probs, so edge id = rank.
    fn star() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        b.add_edge(0, 3, 0.7).unwrap();
        b.add_edge(0, 4, 0.6).unwrap();
        (b.build().unwrap(), NodeData::uniform(5, 1.0, 1.0, 1.0))
    }

    #[test]
    fn rank_order_decides_coupon_recipients() {
        // All four edges live but only 2 coupons: ranks 0 and 1 win.
        let (g, d) = star();
        let mut scratch = CascadeScratch::new(5);
        let out = world_cascade(
            &g,
            &d,
            &[NodeId(0)],
            &[2, 0, 0, 0, 0],
            WorldRef::new(&world_of(&g, &[0, 1, 2, 3]), 0),
            &mut scratch,
        );
        assert_eq!(out.activated, 3);
        assert_eq!(out.redeemed_sc_cost, 2.0);
    }

    #[test]
    fn dead_high_rank_edges_let_low_ranks_redeem() {
        // Ranks 0 and 1 dead, 2 and 3 live, one coupon: rank 2 wins.
        let (g, d) = star();
        let mut scratch = CascadeScratch::new(5);
        let out = world_cascade(
            &g,
            &d,
            &[NodeId(0)],
            &[1, 0, 0, 0, 0],
            WorldRef::new(&world_of(&g, &[2, 3]), 0),
            &mut scratch,
        );
        assert_eq!(out.activated, 2);
    }

    #[test]
    fn scratch_reuse_is_clean_across_runs() {
        let (g, d) = star();
        let block = world_of(&g, &[0]);
        let w = WorldRef::new(&block, 0);
        let mut scratch = CascadeScratch::new(5);
        let a = world_cascade(&g, &d, &[NodeId(0)], &[4, 0, 0, 0, 0], w, &mut scratch);
        let b = world_cascade(&g, &d, &[NodeId(0)], &[4, 0, 0, 0, 0], w, &mut scratch);
        assert_eq!(a, b);
        let empty = world_cascade(&g, &d, &[], &[0; 5], w, &mut scratch);
        assert_eq!(empty.activated, 0);
        assert_eq!(empty.benefit, 0.0);
    }

    #[test]
    fn multi_hop_world_hops_counted() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let mut scratch = CascadeScratch::new(3);
        let out = world_cascade(
            &g,
            &d,
            &[NodeId(0)],
            &[1, 1, 0],
            WorldRef::new(&world_of(&g, &[0, 1]), 0),
            &mut scratch,
        );
        assert_eq!(out.farthest_hop, 2);
        assert_eq!(out.activated, 3);
    }

    #[test]
    fn active_target_skipped_without_coupon_loss() {
        // 0 -> 1 live (rank 0), 0 -> 2 live (rank 1); 1 is also a seed.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(0, 2, 0.8).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 1.0, 1.0, 1.0);
        let mut scratch = CascadeScratch::new(3);
        let out = world_cascade(
            &g,
            &d,
            &[NodeId(0), NodeId(1)],
            &[1, 0, 0],
            WorldRef::new(&world_of(&g, &[0, 1]), 0),
            &mut scratch,
        );
        assert_eq!(out.activated, 3, "coupon must reach node 2");
        assert_eq!(out.redeemed_sc_cost, 1.0);
    }

    #[test]
    fn seed_order_does_not_change_the_outcome() {
        // Two seeds compete for node 2 (both edges live, one coupon each):
        // the frontier bitset canonicalizes round order to ascending ids,
        // so the caller's seed ordering is irrelevant.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 2, 0.9).unwrap();
        b.add_edge(1, 2, 0.9).unwrap();
        b.add_edge(1, 3, 0.8).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(4, 1.0, 1.0, 1.0);
        let block = world_of(&g, &[0, 1, 2]);
        let w = WorldRef::new(&block, 0);
        let mut scratch = CascadeScratch::new(4);
        let k = [1, 1, 0, 0];
        let ab = world_cascade(&g, &d, &[NodeId(0), NodeId(1)], &k, w, &mut scratch);
        let ba = world_cascade(&g, &d, &[NodeId(1), NodeId(0)], &k, w, &mut scratch);
        assert_eq!(ab, ba);
        // Node 0 (smaller id) wins the contested target; node 1 still has
        // its coupon for node 3.
        assert_eq!(ab.activated, 4);
        assert_eq!(ab.redeemed_sc_cost, 2.0);
    }

    /// A 48-node multi-hop graph with enough structure to cross any shard
    /// boundary: chain + skip edges + a few long back/forward links.
    fn woven_graph(n: u32) -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            if v + 1 < n {
                b.add_edge(v, v + 1, 0.9).unwrap();
            }
            if v + 3 < n {
                b.add_edge(v, v + 3, 0.6).unwrap();
            }
            if v % 5 == 0 && v + 11 < n {
                b.add_edge(v, v + 11, 0.4).unwrap();
            }
            if v % 7 == 3 && v >= 9 {
                b.add_edge(v, v - 9, 0.3).unwrap();
            }
        }
        let g = b.build().unwrap();
        let d = NodeData::uniform(n as usize, 1.0, 1.0, 1.0);
        (g, d)
    }

    /// A graph written at any shard count is assembled back from the file
    /// as the graph it was written from, so it cascades exactly like it.
    #[test]
    fn sharded_schedule_is_bit_identical_to_monolithic() {
        use osn_graph::shard::{sharded_to_bytes, ShardPlan};
        use osn_graph::ShardedOscg;

        let n = 48u32;
        let (g, d) = woven_graph(n);
        // A deterministic, patterned world: ~2/3 of the edges live.
        let ids: Vec<u32> = (0..g.edge_count() as u32).filter(|e| e % 3 != 1).collect();
        let coupons: Vec<u32> = (0..n).map(|v| v % 3).collect();
        let seeds = [NodeId(0), NodeId(17), NodeId(40)];

        let mut scratch = CascadeScratch::new(n as usize);
        let base = world_cascade(
            &g,
            &d,
            &seeds,
            &coupons,
            WorldRef::new(&world_of(&g, &ids), 0),
            &mut scratch,
        );
        assert!(base.farthest_hop > 2, "the world must cross shards");

        for shards in [1usize, 2, 3, 7] {
            let plan = ShardPlan::balanced(g.out_offsets(), g.in_offsets(), shards);
            let assembled =
                ShardedOscg::from_owned_bytes(sharded_to_bytes(&g, None, &plan).unwrap())
                    .unwrap()
                    .to_oscg_file()
                    .unwrap()
                    .graph;
            assert_eq!(assembled, g, "{shards} shards");
            let got = world_cascade(
                &assembled,
                &d,
                &seeds,
                &coupons,
                WorldRef::new(&world_of(&assembled, &ids), 0),
                &mut scratch,
            );
            assert_eq!(got, base, "{shards} shards");
        }
    }
}
