//! The sketch-backed [`BenefitEstimator`]: a coverage oracle over a
//! [`SketchIndex`].
//!
//! ## Query-time semantics
//!
//! Within one sketch, a member slot is **activated** iff its node is a
//! seed or some usable edge reaches it from an activated slot, where an
//! edge is *usable* iff its source currently holds more coupons than the
//! edge's demand (`coupons[src] > demand` — the static rank-demand gate,
//! see the crate docs for its exactness discussion). A sketch is
//! **covered** when its root slot is activated, and the benefit estimate
//! is `unit × covered_count` with `unit = B_total / R`.
//!
//! A second per-slot bit, **reach**, marks slots with a usable-edge path
//! to the root (the root always has it). Activation and reach together
//! make the add-probe exact *with respect to the sketch semantics*: one
//! extra coupon on `u` newly covers sketch `σ` iff `σ` is uncovered, `u`'s
//! slot is activated, and some edge from it with demand exactly `k_u`
//! leads to a slot with reach — that edge becomes usable, activation
//! crosses it, and the usable path certified by reach carries activation
//! to the root.
//!
//! ## State maintenance
//!
//! Committed moves are monotone except coupon retrieval: adding coupons or
//! seeds only turns bits on, so the update walks `u`'s inverted postings
//! and runs forward-activation / backward-reach BFS from the newly usable
//! edges — `O(touched sketches)`, not `O(index)`. Coupon retrieval is
//! non-monotone and pays a full rebuild (counted in
//! [`EngineCounters::full_rebuilds`]).
//!
//! Costs never go through the sketches. The deployment lives in a
//! [`Ledger`], the same type the analytic engine keeps, so `seed_cost`,
//! `sc_cost`, and every probe's `ΔCsc` are its exact Table I values, bit
//! for bit the engine's.

use crate::index::SketchIndex;
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::engine::{EngineCounters, RefreshDelta};
use osn_propagation::estimator::BenefitEstimator;
use osn_propagation::ledger::{DeltaScratch, Ledger};

/// Coverage-oracle [`BenefitEstimator`] over a pre-built [`SketchIndex`].
///
/// `active_prob` is the sketch-membership activation frequency
/// `hits / R` (seeds pinned to 1.0): the fraction of sketches in which the
/// node's slot is activated. It is a *candidacy* signal — positive exactly
/// for nodes whose activation contributes estimated benefit mass — not the
/// forward activation probability; nodes that appear in no sketch have
/// zero estimated marginal by construction, which is precisely the RIS
/// argument for ignoring them.
pub struct SketchEstimator<'a> {
    graph: &'a CsrGraph,
    index: &'a SketchIndex,
    /// The index's member node ids in flat slot order (layout shared with
    /// the per-slot runtime arrays below), read in place.
    members: &'a [u32],
    /// The deployment and its exact costs.
    ledger: Ledger<'a>,

    /// Per flat slot: activated under the current deployment.
    activated: Vec<bool>,
    /// Per flat slot: usable-edge path to the sketch root exists.
    reach: Vec<bool>,
    /// Per sketch: root slot activated.
    covered: Vec<bool>,
    covered_count: usize,
    /// Per node: number of sketches whose slot for this node is activated.
    hits: Vec<u32>,

    order: Vec<NodeId>,
    active_prob: Vec<f64>,
    benefit: f64,
    /// Every counter but `holder_rebuilds`, which the ledger keeps.
    counters: EngineCounters,
    /// BFS queue of the committed moves (flat slot ids).
    queue: Vec<u32>,
}

impl<'a> SketchEstimator<'a> {
    /// Estimator of `(seeds, coupons)` backed by `index`.
    pub fn new(
        graph: &'a CsrGraph,
        data: &'a NodeData,
        index: &'a SketchIndex,
        seeds: &[NodeId],
        coupons: &[u32],
    ) -> SketchEstimator<'a> {
        debug_assert_eq!(index.node_count(), graph.node_count());
        let n = graph.node_count();
        let members = index.members_flat();
        let slots = members.len();
        let mut est = SketchEstimator {
            graph,
            index,
            members,
            ledger: Ledger::new(graph, data, seeds, coupons),
            activated: vec![false; slots],
            reach: vec![false; slots],
            covered: vec![false; index.sketch_count()],
            covered_count: 0,
            hits: vec![0; n],
            order: Vec::new(),
            active_prob: vec![0.0; n],
            benefit: 0.0,
            counters: EngineCounters::default(),
            queue: Vec::new(),
        };
        est.rebuild();
        est
    }

    /// Full recompute of every per-sketch bit and the derived surface.
    fn rebuild(&mut self) {
        self.activated.fill(false);
        self.reach.fill(false);
        self.covered.fill(false);
        self.covered_count = 0;
        self.hits.fill(0);
        let queue = &mut self.queue;
        for sigma in 0..self.index.sketch_count() {
            // Forward activation from the sketch's seed members.
            queue.clear();
            let range = self.index.member_range(sigma);
            for flat in range.clone() {
                if self.ledger.seed_mask()[self.members[flat] as usize] {
                    self.activated[flat] = true;
                    self.hits[self.members[flat] as usize] += 1;
                    queue.push(flat as u32);
                }
            }
            forward_bfs(
                self.index,
                self.ledger.coupons(),
                sigma,
                &mut self.activated,
                &mut self.hits,
                queue,
            );
            if self.activated[range.start + self.index.root_local(sigma) as usize] {
                self.covered[sigma] = true;
                self.covered_count += 1;
            }
            // Backward reach from the root.
            queue.clear();
            let root_flat = range.start + self.index.root_local(sigma) as usize;
            self.reach[root_flat] = true;
            queue.push(root_flat as u32);
            backward_reach_bfs(
                self.index,
                self.ledger.coupons(),
                sigma,
                &mut self.reach,
                queue,
            );
        }
        self.counters.full_rebuilds += 1;
        self.refresh_surface();
    }

    /// Recompute the derived deployment view (`benefit`, `active_prob`,
    /// `order`) from the per-sketch bits.
    fn refresh_surface(&mut self) {
        self.benefit = self.index.unit() * self.covered_count as f64;
        let r = self.index.sketch_count();
        self.order.clear();
        let seed_mask = self.ledger.seed_mask();
        for (i, (p, &seed)) in self.active_prob.iter_mut().zip(seed_mask).enumerate() {
            *p = if seed {
                1.0
            } else if r > 0 {
                f64::from(self.hits[i]) / r as f64
            } else {
                0.0
            };
            if *p > 0.0 {
                self.order.push(NodeId::from_index(i));
            }
        }
    }

    /// Apply the coupon change `old_k → coupons[u]` to every sketch
    /// containing `u`: forward-activate across newly usable edges and
    /// extend reach backward across them. Returns the touched-sketch
    /// member set (global node ids, deduplicated, ascending per sketch
    /// walk) for the change report.
    fn propagate_coupon_increase(&mut self, u: NodeId, old_k: u32) -> Vec<NodeId> {
        let new_k = self.ledger.coupons()[u.index()];
        let queue = &mut self.queue;
        let mut touched: Vec<NodeId> = Vec::new();
        let post_sketch = self.index.post_sketch();
        let post_local = self.index.post_local();
        for pi in self.index.postings(u) {
            let sigma = post_sketch[pi] as usize;
            let range = self.index.member_range(sigma);
            let base = range.start;
            let l = post_local[pi] as usize;
            let er = self.index.edge_range(sigma);
            let fwd = self.index.fwd_starts(sigma);
            let dst_local = self.index.edge_dst_local();
            let demand = self.index.edge_demand();

            // Newly usable out-edges of u's slot: demand in [old_k, new_k).
            let mut grew = false;
            queue.clear();
            for ei in fwd[l]..fwd[l + 1] {
                let e = er.start + ei as usize;
                if demand[e] < old_k || demand[e] >= new_k {
                    continue;
                }
                grew = true;
                let dst = base + dst_local[e] as usize;
                if self.activated[base + l] && !self.activated[dst] {
                    self.activated[dst] = true;
                    self.hits[self.members[dst] as usize] += 1;
                    queue.push(dst as u32);
                }
            }
            if !queue.is_empty() {
                forward_bfs(
                    self.index,
                    self.ledger.coupons(),
                    sigma,
                    &mut self.activated,
                    &mut self.hits,
                    queue,
                );
                let root_flat = base + self.index.root_local(sigma) as usize;
                if self.activated[root_flat] && !self.covered[sigma] {
                    self.covered[sigma] = true;
                    self.covered_count += 1;
                }
            }
            if grew {
                // Reach extension: a newly usable edge into a reaching slot
                // grants reach to u's slot, then backward through usable
                // edges.
                queue.clear();
                if !self.reach[base + l] {
                    for ei in fwd[l]..fwd[l + 1] {
                        let e = er.start + ei as usize;
                        if demand[e] >= new_k {
                            continue;
                        }
                        if self.reach[base + dst_local[e] as usize] {
                            self.reach[base + l] = true;
                            queue.push((base + l) as u32);
                            break;
                        }
                    }
                }
                backward_reach_bfs(
                    self.index,
                    self.ledger.coupons(),
                    sigma,
                    &mut self.reach,
                    queue,
                );
                for flat in range {
                    touched.push(NodeId(self.members[flat]));
                }
            }
        }
        touched.push(u);
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    /// Would sketch `sigma` still be covered with `u` holding `what_if_k`
    /// coupons? A forward recompute over the sketch in local buffers,
    /// touching no persistent state (SC Maneuver, the one phase that probes
    /// removals, runs on the analytic engine).
    fn covered_with(&self, sigma: usize, u: NodeId, what_if_k: u32) -> bool {
        let range = self.index.member_range(sigma);
        let base = range.start;
        let mc = range.len();
        let mut seen = vec![false; mc];
        let mut queue: Vec<u32> = Vec::new();
        let er = self.index.edge_range(sigma);
        let fwd = self.index.fwd_starts(sigma);
        let dst_local = self.index.edge_dst_local();
        let demand = self.index.edge_demand();
        let root_local = self.index.root_local(sigma) as usize;
        let coupons = self.ledger.coupons();
        let k_of = |node: u32| {
            if node == u.0 {
                what_if_k
            } else {
                coupons[node as usize]
            }
        };

        let seed_mask = self.ledger.seed_mask();
        for (l, &node) in self.members[range].iter().enumerate() {
            if seed_mask[node as usize] {
                if l == root_local {
                    return true;
                }
                seen[l] = true;
                queue.push(l as u32);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let l = queue[head] as usize;
            head += 1;
            let src_node = self.members[base + l];
            let k = k_of(src_node);
            for ei in fwd[l]..fwd[l + 1] {
                let e = er.start + ei as usize;
                if demand[e] >= k {
                    continue;
                }
                let d = dst_local[e] as usize;
                if seen[d] {
                    continue;
                }
                if d == root_local {
                    return true;
                }
                seen[d] = true;
                queue.push(d as u32);
            }
        }
        false
    }
}

/// Forward activation BFS inside sketch `sigma`: drain `queue` (flat slot
/// ids, already marked activated), crossing every usable edge.
fn forward_bfs(
    index: &SketchIndex,
    coupons: &[u32],
    sigma: usize,
    activated: &mut [bool],
    hits: &mut [u32],
    queue: &mut Vec<u32>,
) {
    let members = index.members_flat();
    let base = index.member_range(sigma).start;
    let er = index.edge_range(sigma);
    let fwd = index.fwd_starts(sigma);
    let dst_local = index.edge_dst_local();
    let demand = index.edge_demand();
    let mut head = 0usize;
    while head < queue.len() {
        let flat = queue[head] as usize;
        head += 1;
        let l = flat - base;
        let k = coupons[members[flat] as usize];
        for ei in fwd[l]..fwd[l + 1] {
            let e = er.start + ei as usize;
            if demand[e] >= k {
                continue;
            }
            let dst = base + dst_local[e] as usize;
            if !activated[dst] {
                activated[dst] = true;
                hits[members[dst] as usize] += 1;
                queue.push(dst as u32);
            }
        }
    }
}

/// Backward reach BFS inside sketch `sigma`: drain `queue` (flat slot ids,
/// already marked reaching), crossing every usable edge backwards.
fn backward_reach_bfs(
    index: &SketchIndex,
    coupons: &[u32],
    sigma: usize,
    reach: &mut [bool],
    queue: &mut Vec<u32>,
) {
    let members = index.members_flat();
    let base = index.member_range(sigma).start;
    let er = index.edge_range(sigma);
    let rev = index.rev_starts(sigma);
    let rev_edges = index.rev_edges_of(sigma);
    let src_local = index.edge_src_local();
    let demand = index.edge_demand();
    let mut head = 0usize;
    while head < queue.len() {
        let flat = queue[head] as usize;
        head += 1;
        let l = flat - base;
        for ri in rev[l]..rev[l + 1] {
            let e = er.start + rev_edges[ri as usize] as usize;
            let src = base + src_local[e] as usize;
            if reach[src] {
                continue;
            }
            if coupons[members[src] as usize] > demand[e] {
                reach[src] = true;
                queue.push(src as u32);
            }
        }
    }
}

impl BenefitEstimator for SketchEstimator<'_> {
    fn order(&self) -> &[NodeId] {
        &self.order
    }

    fn active_prob(&self) -> &[f64] {
        &self.active_prob
    }

    fn ledger(&self) -> &Ledger<'_> {
        &self.ledger
    }

    fn expected_benefit(&self) -> f64 {
        self.benefit
    }

    fn counters(&self) -> EngineCounters {
        EngineCounters {
            holder_rebuilds: self.ledger.holder_rebuilds(),
            ..self.counters
        }
    }

    fn coupon_add_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        let k = self.ledger.coupons()[u.index()];
        let dc = self.ledger.add_cost_delta(u, scratch);
        let post_sketch = self.index.post_sketch();
        let post_local = self.index.post_local();
        let dst_local = self.index.edge_dst_local();
        let demand = self.index.edge_demand();
        let mut newly_covered = 0usize;
        for pi in self.index.postings(u) {
            let sigma = post_sketch[pi] as usize;
            if self.covered[sigma] {
                continue;
            }
            let base = self.index.member_range(sigma).start;
            let l = post_local[pi] as usize;
            if !self.activated[base + l] {
                continue;
            }
            let er = self.index.edge_range(sigma);
            let fwd = self.index.fwd_starts(sigma);
            for ei in fwd[l]..fwd[l + 1] {
                let e = er.start + ei as usize;
                if demand[e] == k && self.reach[base + dst_local[e] as usize] {
                    newly_covered += 1;
                    break;
                }
            }
        }
        (self.index.unit() * newly_covered as f64, dc)
    }

    fn coupon_removal_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        let k = self.ledger.coupons()[u.index()];
        if k == 0 {
            return (0.0, 0.0);
        }
        let dc = self.ledger.removal_cost_delta(u, scratch);
        let post_sketch = self.index.post_sketch();
        let mut lost = 0usize;
        for pi in self.index.postings(u) {
            let sigma = post_sketch[pi] as usize;
            // Removal can only uncover: recompute covered sketches at k−1.
            if self.covered[sigma] && !self.covered_with(sigma, u, k - 1) {
                lost += 1;
            }
        }
        (-(self.index.unit() * lost as f64), dc)
    }

    fn add_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        let cur = self.ledger.coupons()[u.index()];
        let add = self.ledger.add_coupons(u, count);
        if add == 0 {
            return (0, RefreshDelta::default());
        }
        self.counters.incremental_updates += u64::from(add);
        let touched = self.propagate_coupon_increase(u, cur);
        self.refresh_surface();
        (
            add,
            RefreshDelta {
                structural: true,
                probs_changed: touched,
                ..RefreshDelta::default()
            },
        )
    }

    fn add_seed_package(&mut self, v: NodeId, coupons: u32) -> RefreshDelta {
        let mut touched: Vec<NodeId> = Vec::new();
        let cur = self.ledger.coupons()[v.index()];
        if !self.ledger.is_seed(v) {
            // Seed-activate v's slot in every sketch containing it.
            let queue = &mut self.queue;
            let post_sketch = self.index.post_sketch();
            let post_local = self.index.post_local();
            for pi in self.index.postings(v) {
                let sigma = post_sketch[pi] as usize;
                let range = self.index.member_range(sigma);
                let flat = range.start + post_local[pi] as usize;
                if !self.activated[flat] {
                    self.activated[flat] = true;
                    self.hits[v.index()] += 1;
                    queue.clear();
                    queue.push(flat as u32);
                    forward_bfs(
                        self.index,
                        self.ledger.coupons(),
                        sigma,
                        &mut self.activated,
                        &mut self.hits,
                        queue,
                    );
                    let root_flat = range.start + self.index.root_local(sigma) as usize;
                    if self.activated[root_flat] && !self.covered[sigma] {
                        self.covered[sigma] = true;
                        self.covered_count += 1;
                    }
                }
                for f in range {
                    touched.push(NodeId(self.members[f]));
                }
            }
        }
        // The package's coupons gate v's edges only after its slots are
        // seed-activated under the old count, exactly as two moves would.
        self.ledger.add_seed(v, coupons);
        if self.ledger.coupons()[v.index()] > cur {
            touched.extend(self.propagate_coupon_increase(v, cur));
        }
        touched.push(v);
        touched.sort_unstable();
        touched.dedup();
        self.counters.structural_refreshes += 1;
        self.refresh_surface();
        RefreshDelta {
            structural: true,
            probs_changed: touched,
            // A new seed changes the eligible child sets — and thus the
            // exact cost probes — of its in-neighbors.
            eligibility_changed: self.graph.in_sources(v).to_vec(),
            ..RefreshDelta::default()
        }
    }

    fn remove_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        let take = self.ledger.remove_coupons(u, count);
        if take == 0 {
            return (0, RefreshDelta::default());
        }
        // Non-monotone: usable edges disappear, so per-sketch bits can only
        // be recomputed from scratch.
        self.rebuild();
        (
            take,
            RefreshDelta {
                structural: true,
                probs_changed: self.order.clone(),
                ..RefreshDelta::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SketchParams;
    use osn_graph::GraphBuilder;
    use osn_propagation::{expected_sc_cost, SpreadEngine};

    /// The paper's Example 1 tree (exact analytic ground truth exists).
    fn example1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(1, 4, 0.4).unwrap();
        b.add_edge(2, 5, 0.8).unwrap();
        b.add_edge(2, 6, 0.7).unwrap();
        let mut seed_costs = vec![100.0; 7];
        seed_costs[0] = 0.0;
        (
            b.build().unwrap(),
            NodeData::new(vec![1.0; 7], seed_costs, vec![1.0; 7]).unwrap(),
        )
    }

    fn tight_params() -> SketchParams {
        SketchParams {
            epsilon: 0.05,
            delta: 0.05,
            roots_per_world: 2,
            seed: 77,
            ..SketchParams::default()
        }
    }

    /// On the tree fixture the demand gate is exact, so the estimate must
    /// land within ε·B_total of the engine's analytic value.
    #[test]
    fn tracks_engine_within_epsilon_on_tree() {
        let (g, d) = example1();
        let params = tight_params();
        let idx = SketchIndex::build(&g, &d, &params);
        let tol = params.epsilon * d.total_benefit();
        for k0 in [1u32, 2] {
            let mut k = vec![0u32; 7];
            k[0] = k0;
            let sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
            let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
            let exact = SpreadEngine::expected_benefit(&engine);
            let est = sk.expected_benefit();
            assert!(
                (est - exact).abs() <= tol,
                "k0={k0}: sketch {est} vs exact {exact}, tol {tol}"
            );
        }
    }

    /// Costs are the exact analytic values, bitwise equal to the engine's.
    #[test]
    fn costs_are_exact() {
        let (g, d) = example1();
        let idx = SketchIndex::build(&g, &d, &tight_params());
        let mut k = vec![0u32; 7];
        k[0] = 2;
        k[2] = 1;
        let sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
        let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        assert_eq!(sk.seed_cost().to_bits(), engine.seed_cost().to_bits());
        assert_eq!(
            sk.sc_cost().to_bits(),
            expected_sc_cost(&g, &d, &[NodeId(0)], &k).to_bits()
        );
        let mut scratch = DeltaScratch::default();
        let (_, dc_sk) = BenefitEstimator::coupon_add_delta(&sk, NodeId(0), &mut scratch);
        let (_, dc_ex) = SpreadEngine::coupon_add_delta(&engine, NodeId(0), &mut scratch);
        assert_eq!(dc_sk.to_bits(), dc_ex.to_bits(), "ΔCsc must be exact");
    }

    /// The add probe is exact w.r.t. the sketch semantics: committing the
    /// move changes the estimate by exactly the probed ΔB.
    #[test]
    fn add_probe_matches_committed_move() {
        let (g, d) = example1();
        let idx = SketchIndex::build(&g, &d, &tight_params());
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut scratch = DeltaScratch::default();
        for u in [0u32, 1, 2] {
            let mut sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
            let before = sk.expected_benefit();
            let (db, _) = BenefitEstimator::coupon_add_delta(&sk, NodeId(u), &mut scratch);
            let (added, delta) = BenefitEstimator::add_coupons(&mut sk, NodeId(u), 1);
            if added == 0 {
                assert_eq!(db, 0.0);
                continue;
            }
            assert!(delta.structural);
            let got = sk.expected_benefit() - before;
            assert!(
                (got - db).abs() < 1e-12,
                "u={u}: probe {db} vs committed {got}"
            );
        }
    }

    /// The removal probe matches the committed retrieval (which rebuilds).
    #[test]
    fn removal_probe_matches_committed_move() {
        let (g, d) = example1();
        let idx = SketchIndex::build(&g, &d, &tight_params());
        let mut k = vec![0u32; 7];
        k[0] = 2;
        k[1] = 1;
        let mut scratch = DeltaScratch::default();
        for u in [0u32, 1] {
            let mut sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
            let before = sk.expected_benefit();
            let (db, _) = BenefitEstimator::coupon_removal_delta(&sk, NodeId(u), &mut scratch);
            assert!(db <= 0.0, "removal cannot add benefit");
            let (taken, _) = BenefitEstimator::remove_coupons(&mut sk, NodeId(u), 1);
            assert_eq!(taken, 1);
            let got = sk.expected_benefit() - before;
            assert!(
                (got - db).abs() < 1e-12,
                "u={u}: probe {db} vs committed {got}"
            );
        }
    }

    /// Incremental move updates agree with a from-scratch estimator of the
    /// final deployment (same index, so equality is exact).
    #[test]
    fn incremental_updates_match_fresh_estimator() {
        let (g, d) = example1();
        let idx = SketchIndex::build(&g, &d, &tight_params());
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
        BenefitEstimator::add_coupons(&mut sk, NodeId(0), 1);
        BenefitEstimator::add_seed_package(&mut sk, NodeId(2), 2);
        BenefitEstimator::add_coupons(&mut sk, NodeId(1), 1);

        let fresh = SketchEstimator::new(&g, &d, &idx, sk.ledger().seeds(), sk.ledger().coupons());
        assert_eq!(
            sk.expected_benefit().to_bits(),
            fresh.expected_benefit().to_bits()
        );
        assert_eq!(sk.order(), fresh.order());
        assert_eq!(sk.active_prob(), fresh.active_prob());
        assert_eq!(sk.sc_cost().to_bits(), fresh.sc_cost().to_bits());
    }

    /// Zero-coupon deployments spread nothing: only seed benefit mass.
    #[test]
    fn zero_coupons_cover_only_seed_roots() {
        let (g, d) = example1();
        let idx = SketchIndex::build(&g, &d, &tight_params());
        let k = vec![0u32; 7];
        let sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
        // Exactly the sketches rooted at the seed are covered.
        let rooted_at_seed = (0..idx.sketch_count())
            .filter(|&i| idx.root(i) == 0)
            .count();
        let got = sk.expected_benefit() / idx.unit();
        assert!((got - rooted_at_seed as f64).abs() < 1e-9);
        let mut scratch = DeltaScratch::default();
        let (db, _) = BenefitEstimator::coupon_removal_delta(&sk, NodeId(0), &mut scratch);
        assert_eq!(db, 0.0);
    }

    /// An empty index degrades gracefully: zero benefit, exact costs.
    #[test]
    fn empty_index_is_benign() {
        let (g, d) = example1();
        let zero = NodeData::uniform(7, 0.0, 1.0, 1.0);
        let idx = SketchIndex::build(&g, &zero, &tight_params());
        assert_eq!(idx.sketch_count(), 0);
        let mut k = vec![0u32; 7];
        k[0] = 2;
        let mut sk = SketchEstimator::new(&g, &d, &idx, &[NodeId(0)], &k);
        assert_eq!(sk.expected_benefit(), 0.0);
        assert_eq!(
            sk.sc_cost().to_bits(),
            expected_sc_cost(&g, &d, &[NodeId(0)], &k).to_bits()
        );
        assert_eq!(sk.order(), &[NodeId(0)]);
        let (added, _) = BenefitEstimator::add_coupons(&mut sk, NodeId(0), 1);
        assert_eq!(added, 0, "out-degree cap still applies");
    }
}
