//! Phase 1 — Investment Deployment (Alg. 1, lines 1–24).
//!
//! Greedy deployment of the budget across three strategies:
//!
//! 1. **broaden** — one more coupon to a current internal node (also turns
//!    its most valuable dependent edge independent);
//! 2. **deepen** — a first coupon to an influenced non-internal node at the
//!    spread frontier;
//! 3. **new source** — activate the next pivot-source package from the
//!    [`PivotQueue`].
//!
//! Each iteration compares the best marginal redemption (MR) of strategies
//! 1–2 against the standalone redemption rate of the current pivot source
//! (strategy 3) and applies the winner, if it fits the remaining budget.
//! Every intermediate deployment is a candidate; the phase returns the one
//! with the highest redemption rate (Alg. 1 line 24), which we track as a
//! running argmax instead of materializing the full candidate list `D`.
//!
//! ## Lazy-greedy candidate ranking
//!
//! [`investment_deployment`] runs on the incremental [`SpreadEngine`] with
//! a CELF-style max-heap of candidate marginals: a candidate is re-scored
//! **only when a committed move actually changed one of its inputs** (its
//! activation probability, its coupon count, an eligible child's subtree
//! gain, or the seed mask), detected with exact-bit granularity from the
//! engine's refresh deltas. Unlike classical CELF — which tolerates stale
//! upper bounds and so can pick differently when marginals *increase* —
//! cached entries here are always exact, and ties break deterministically
//! on the spread-order position, so the heap's argmax is provably the same
//! candidate an exhaustive rescan selects. That rescan — the original
//! implementation, re-evaluating the deployment from scratch with the
//! analytic oracle after every move — is `investment_deployment_reference`
//! in the workspace's shared test helpers (`tests/common.rs`), the
//! equivalence oracle `tests/determinism.rs` pins this loop against.

use crate::deployment::Deployment;
use crate::objective::{self, ObjectiveValue};
use crate::pivot::{PivotQueue, SeedPackage};
use osn_graph::{CsrGraph, NodeData, NodeId};
use osn_propagation::{BenefitEstimator, DeltaScratch, EngineCounters, RefreshDelta, SpreadEngine};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Marks nodes whose neighborhoods the algorithm actually expanded — the
/// numerator of Fig. 9's *explored ratio*.
#[derive(Clone, Debug)]
pub struct ExploreTracker {
    mask: Vec<bool>,
    count: usize,
}

impl ExploreTracker {
    /// Tracker over `n` nodes.
    pub fn new(n: usize) -> Self {
        ExploreTracker {
            mask: vec![false; n],
            count: 0,
        }
    }

    /// Record that `v`'s adjacency was scanned.
    #[inline]
    pub fn mark(&mut self, v: NodeId) {
        if !self.mask[v.index()] {
            self.mask[v.index()] = true;
            self.count += 1;
        }
    }

    /// Number of explored nodes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Explored fraction of an `n`-node network.
    pub fn ratio(&self) -> f64 {
        if self.mask.is_empty() {
            0.0
        } else {
            self.count as f64 / self.mask.len() as f64
        }
    }
}

/// One budget-milestone snapshot of the greedy trajectory, carrying the
/// analytic objective computed when it was live — so the S3CA snapshot
/// re-ranking never re-evaluates a deployment the engine already scored.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The intermediate deployment.
    pub deployment: Deployment,
    /// Its analytic objective at snapshot time (bit-identical to
    /// `objective::evaluate` of the deployment).
    pub objective: ObjectiveValue,
}

/// Result of the ID phase.
#[derive(Clone, Debug)]
pub struct IdOutcome {
    /// `D*`: the intermediate deployment with the best *analytic*
    /// redemption rate.
    pub deployment: Deployment,
    /// Analytic objective of `D*`.
    pub objective: ObjectiveValue,
    /// Greedy moves applied (coupons bought + seeds activated).
    pub iterations: usize,
    /// Budget-milestone snapshots of the greedy trajectory (one roughly per
    /// twelfth of the budget, plus the final deployment). The paper's line
    /// 24 picks `D*` from the candidate list `D` by Monte-Carlo-estimated
    /// rate; [`s3ca`](crate::s3ca::s3ca) re-ranks these snapshots the same
    /// way, which matters on cyclic graphs where the fast analytic
    /// evaluator systematically underestimates deep spreads.
    pub snapshots: Vec<Snapshot>,
    /// Spread-engine effort counters (zero for the test-only reference path).
    pub eval_counters: EngineCounters,
    /// Lazy-heap candidate re-scores (the test-only reference path counts its
    /// exhaustive rescans here instead).
    pub lazy_rescores: u64,
}

impl IdOutcome {
    fn empty(n: usize) -> IdOutcome {
        IdOutcome {
            deployment: Deployment::empty(n),
            objective: ObjectiveValue::default(),
            iterations: 0,
            snapshots: Vec::new(),
            eval_counters: EngineCounters::default(),
            lazy_rescores: 0,
        }
    }
}

/// Tolerance for budget comparisons (floating-point accumulation).
const BUDGET_EPS: f64 = 1e-9;

/// A lazy-greedy heap entry: exact marginal-redemption key plus the
/// spread-order position for deterministic tie-breaking (earliest wins,
/// matching the reference scan's first-strictly-greater rule).
#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    mr: f64,
    pos: u32,
    node: NodeId,
    version: u32,
    db: f64,
    dc: f64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on MR; on exact ties the earlier spread position wins.
        self.mr
            .partial_cmp(&other.mr)
            .expect("marginal rates are finite")
            .then(other.pos.cmp(&self.pos))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The candidate index of the lazy-greedy loop: exact cached marginals per
/// node, staleness versions that invalidate heap entries, and dirty-driven
/// re-scoring.
struct CandidateHeap {
    /// Current staleness counter per node; heap entries with an older
    /// version are skipped on pop.
    version: Vec<u32>,
    /// Cached exact `(ΔB, ΔCsc)` per node.
    db: Vec<f64>,
    dc: Vec<f64>,
    /// Whether the cached marginal reflects the current engine state.
    scored: Vec<bool>,
    /// Position in the current spread order (tie-break key).
    pos: Vec<u32>,
    heap: BinaryHeap<HeapEntry>,
    /// Dedup stamp for dirty collection.
    stamp: Vec<u32>,
    stamp_gen: u32,
    dirty: Vec<NodeId>,
    rescores: u64,
}

impl CandidateHeap {
    fn new(n: usize) -> CandidateHeap {
        CandidateHeap {
            version: vec![0; n],
            db: vec![0.0; n],
            dc: vec![0.0; n],
            scored: vec![false; n],
            pos: vec![0; n],
            heap: BinaryHeap::new(),
            stamp: vec![0; n],
            stamp_gen: 0,
            dirty: Vec::new(),
            rescores: 0,
        }
    }

    fn rescore<E: BenefitEstimator + ?Sized>(
        &mut self,
        est: &E,
        u: NodeId,
        scratch: &mut DeltaScratch,
    ) {
        let (db, dc) = est.coupon_add_delta(u, scratch);
        self.db[u.index()] = db;
        self.dc[u.index()] = dc;
        self.scored[u.index()] = true;
        self.rescores += 1;
    }

    fn push_if_positive(&mut self, u: NodeId) {
        let db = self.db[u.index()];
        if db <= 0.0 {
            return;
        }
        let dc = self.dc[u.index()];
        let mr = if dc > 0.0 { db / dc } else { f64::MAX };
        self.heap.push(HeapEntry {
            mr,
            pos: self.pos[u.index()],
            node: u,
            version: self.version[u.index()],
            db,
            dc,
        });
    }

    /// In the spread support and holding coupons below the out-degree.
    #[inline]
    fn is_candidate<E: BenefitEstimator + ?Sized>(
        est: &E,
        coupons: &[u32],
        graph: &CsrGraph,
        u: NodeId,
    ) -> bool {
        est.is_active(u) && coupons[u.index()] < graph.out_degree(u) as u32
    }

    /// Full re-index after a structural change: positions shift, membership
    /// may change, but exact cached marginals of untouched candidates are
    /// reused as-is. Versions stay: the heap is emptied first, so no stale
    /// entry survives to be told apart.
    fn rebuild_all<E: BenefitEstimator + ?Sized>(
        &mut self,
        est: &E,
        graph: &CsrGraph,
        scratch: &mut DeltaScratch,
    ) {
        self.heap.clear();
        let coupons = est.ledger().coupons();
        for (p, &u) in est.order().iter().enumerate() {
            self.pos[u.index()] = p as u32;
            if !Self::is_candidate(est, coupons, graph, u) {
                continue;
            }
            if !self.scored[u.index()] {
                self.rescore(est, u, scratch);
            }
            self.push_if_positive(u);
        }
    }

    /// Fold a committed move's refresh delta into the index: only nodes
    /// whose marginal inputs changed (bitwise) are invalidated and
    /// re-scored.
    fn apply<E: BenefitEstimator + ?Sized>(
        &mut self,
        est: &E,
        graph: &CsrGraph,
        delta: &RefreshDelta,
        moved: NodeId,
        scratch: &mut DeltaScratch,
    ) {
        // Dirty = the moved node (its k changed), every node whose
        // activation probability changed, and every in-neighbor of a node
        // whose subtree gain changed (their ΔB terms read that gain).
        self.stamp_gen += 1;
        self.dirty.clear();
        let mark = |lists: &mut Self, u: NodeId| {
            if lists.stamp[u.index()] != lists.stamp_gen {
                lists.stamp[u.index()] = lists.stamp_gen;
                lists.dirty.push(u);
            }
        };
        mark(self, moved);
        for &u in &delta.probs_changed {
            mark(self, u);
        }
        for &u in &delta.eligibility_changed {
            mark(self, u);
        }
        for &g in &delta.gains_changed {
            for &src in graph.in_sources(g) {
                mark(self, src);
            }
        }
        let dirty = std::mem::take(&mut self.dirty);
        for &u in &dirty {
            self.scored[u.index()] = false;
        }
        if delta.structural {
            self.dirty = dirty;
            self.rebuild_all(est, graph, scratch);
            self.dirty.clear();
            return;
        }
        let coupons = est.ledger().coupons();
        for &u in &dirty {
            self.version[u.index()] = self.version[u.index()].wrapping_add(1);
            if Self::is_candidate(est, coupons, graph, u) {
                self.rescore(est, u, scratch);
                self.push_if_positive(u);
            }
        }
        self.dirty = dirty;
    }

    /// The exact argmax the reference rescan would select: best feasible
    /// marginal under the current spent budget. Entries that no longer fit
    /// are discarded outright, which is safe because of a two-part
    /// invariant: (a) across *non-structural* stretches (broaden moves
    /// only) the total cost is non-decreasing — a broaden's ΔCsc is
    /// `Σ dq·c_sc ≥ 0` since q is monotone in k and `NodeData` rejects
    /// negative costs — while a clean candidate's ΔCsc is fixed, so
    /// infeasible stays infeasible; and (b) every move that *can* lower
    /// the total cost (a seed package may remove a coupon-priced child
    /// from its in-neighbors' Table-I terms) is structural, and
    /// [`rebuild_all`](Self::rebuild_all) re-pushes every candidate from
    /// its exact cache — discarded entries included — before the next
    /// selection.
    fn pop_best(&mut self, cost_now: f64, binv: f64) -> Option<(NodeId, f64, f64, f64)> {
        while let Some(e) = self.heap.peek() {
            if e.version != self.version[e.node.index()] {
                self.heap.pop();
                continue;
            }
            if cost_now + e.dc > binv + BUDGET_EPS {
                self.heap.pop();
                continue;
            }
            return Some((e.node, e.db, e.dc, e.mr));
        }
        None
    }
}

/// Mark every node of `nodes` the exhaustive scan would expand this
/// iteration (candidate-set parity with the reference implementation keeps
/// Fig. 9's explored ratio byte-identical). The loop passes the whole order
/// only at the start and after structural moves; see
/// [`investment_deployment_with`].
fn mark_explored<E: BenefitEstimator + ?Sized>(
    est: &E,
    graph: &CsrGraph,
    nodes: &[NodeId],
    explored: &mut ExploreTracker,
) {
    let coupons = est.ledger().coupons();
    for &u in nodes {
        if CandidateHeap::is_candidate(est, coupons, graph, u) {
            explored.mark(u);
        }
    }
}

/// Run Investment Deployment under budget `binv` on the incremental spread
/// engine with lazy-greedy candidate ranking. Decision-for-decision (and
/// bit-for-bit in every reported value) identical to the exhaustive-rescan
/// reference; `tests/determinism.rs` pins the equivalence.
pub fn investment_deployment(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    explored: &mut ExploreTracker,
    max_iterations: usize,
) -> IdOutcome {
    // The closure monomorphizes `investment_deployment_with` to the exact
    // engine, whose trait impl holds the method bodies themselves: this
    // compiles to the same floating-point sequence as the pre-seam
    // hard-wired loop.
    investment_deployment_with(
        graph,
        data,
        binv,
        explored,
        max_iterations,
        |seeds, coupons| SpreadEngine::new(graph, data, seeds, coupons),
    )
}

/// The generic ID phase: identical greedy loop, driven through any
/// [`BenefitEstimator`] built by `make_estimator` from the initial pivot
/// deployment. [`investment_deployment`] instantiates it with the exact
/// [`SpreadEngine`]; the `--estimator sketch` path instantiates it with the
/// `osn-sketch` coverage oracle. The objective values reported in the
/// outcome carry the *backend's* benefit estimates (costs are exact by the
/// estimator contract); callers that need the analytic objective of a
/// non-exact backend's deployment re-evaluate it with
/// [`objective::evaluate`].
pub fn investment_deployment_with<E, F>(
    graph: &CsrGraph,
    data: &NodeData,
    binv: f64,
    explored: &mut ExploreTracker,
    max_iterations: usize,
    make_estimator: F,
) -> IdOutcome
where
    E: BenefitEstimator,
    F: FnOnce(&[NodeId], &[u32]) -> E,
{
    let n = graph.node_count();
    let mut queue = PivotQueue::build(graph, data, binv);

    // Initial influence source: the best feasible package.
    let Some(first) = queue.pop() else {
        return IdOutcome::empty(n);
    };
    let mut initial = Deployment::empty(n);
    initial.add_seed(first.node);
    initial.add_coupons(graph, first.node, first.coupons);
    explored.mark(first.node);

    // From here on the estimator's ledger is the live deployment; a
    // `Deployment` is built only for snapshots and the result.
    let mut engine = make_estimator(&initial.seeds, &initial.coupons);
    let mut pivot = next_usable_pivot_for(&mut queue, &engine);
    let mut value = objective::value_from_estimator(&engine);
    let mut scratch = DeltaScratch::default();
    let mut cache = CandidateHeap::new(n);
    cache.rebuild_all(&engine, graph, &mut scratch);

    let mut best_value = value;
    let mut iterations = 1usize;
    let mut snapshots: Vec<Snapshot> = vec![Snapshot {
        deployment: initial.clone(),
        objective: value,
    }];
    let mut best_dep = initial;
    let milestone = (binv / 12.0).max(f64::MIN_POSITIVE);
    let mut next_milestone = value.total_cost() + milestone;
    // Explored marking is incremental. Marks are never cleared, and a node
    // turns into a candidate (positive probability, coupons below its
    // out-degree) only when the order changes (a structural move: rescan it
    // whole, `None`) or when its own probability changes (a broaden keeps
    // the order and only raises the moved node's coupons: scan its
    // `probs_changed`). A pivot advance changes nothing: scan nothing.
    let mut explore_next: Option<Vec<NodeId>> = None;

    while iterations < max_iterations {
        // Best coupon move (strategies 1–2) over the current spread.
        match explore_next.replace(Vec::new()) {
            None => mark_explored(&engine, graph, engine.order(), explored),
            Some(nodes) => mark_explored(&engine, graph, &nodes, explored),
        }
        let best_node = cache.pop_best(value.total_cost(), binv);

        // Strategy 3: the pivot source's standalone rate.
        let pivot_feasible = pivot
            .as_ref()
            .is_some_and(|p| value.total_cost() + p.cost <= binv + BUDGET_EPS);
        let pivot_rate = pivot.as_ref().map_or(0.0, |p| p.rate);

        let take_coupon = match (best_node.is_some(), pivot_feasible) {
            (false, false) => {
                // Neither fits. If a pivot exists but is too expensive, a
                // cheaper one may hide behind it; advance the queue.
                if pivot.is_some() {
                    pivot = next_usable_pivot_for(&mut queue, &engine);
                    if pivot.is_some() {
                        continue;
                    }
                }
                break;
            }
            (true, false) => true,
            (false, true) => false,
            // Alg. 1 line 11: the coupon must strictly beat the pivot.
            (true, true) => best_node.expect("guarded").3 > pivot_rate,
        };

        if take_coupon {
            let (u, ..) = best_node.expect("guarded by take_coupon");
            let (_, delta) = engine.add_coupons(u, 1);
            cache.apply(&engine, graph, &delta, u, &mut scratch);
            explore_next = (!delta.structural).then_some(delta.probs_changed);
        } else {
            let pkg = pivot.take().expect("guarded by pivot_feasible");
            explored.mark(pkg.node);
            let delta = engine.add_seed_package(pkg.node, pkg.coupons);
            pivot = next_usable_pivot_for(&mut queue, &engine);
            cache.apply(&engine, graph, &delta, pkg.node, &mut scratch);
            explore_next = None;
        }
        iterations += 1;

        value = objective::value_from_estimator(&engine);
        // Ties favor the later (larger) deployment, so equal-rate pivot
        // additions keep extending the spread instead of freezing D* at the
        // first snapshot.
        if value.within_budget(binv) && value.rate >= best_value.rate * (1.0 - 1e-9) {
            best_value = value;
            best_dep = Deployment::from(engine.ledger());
        }
        if value.within_budget(binv) && value.total_cost() >= next_milestone {
            snapshots.push(Snapshot {
                deployment: Deployment::from(engine.ledger()),
                objective: value,
            });
            next_milestone = value.total_cost() + milestone;
        }
    }
    // The final deployment and the analytic argmax are always candidates.
    let last = Deployment::from(engine.ledger());
    if snapshots.last().map(|s| &s.deployment) != Some(&last) && value.within_budget(binv) {
        snapshots.push(Snapshot {
            deployment: last,
            objective: value,
        });
    }
    if snapshots.last().map(|s| &s.deployment) != Some(&best_dep) {
        snapshots.push(Snapshot {
            deployment: best_dep.clone(),
            objective: best_value,
        });
    }

    IdOutcome {
        deployment: best_dep,
        objective: best_value,
        iterations,
        snapshots,
        eval_counters: engine.counters(),
        lazy_rescores: cache.rescores,
    }
}

/// Pop pivots until one names a node not yet invested in (a node already in
/// the seed set or holding coupons would double-count its package value).
fn next_usable_pivot_for<E: BenefitEstimator + ?Sized>(
    queue: &mut PivotQueue,
    est: &E,
) -> Option<SeedPackage> {
    let ledger = est.ledger();
    std::iter::from_fn(|| queue.pop())
        .find(|p| !ledger.is_seed(p.node) && ledger.coupons()[p.node.index()] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    /// Example 1 instance (Sec. IV-A).
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

    #[test]
    fn example1_returns_the_best_rate_snapshot() {
        // The initial deployment (seed v1 with one SC) has rate
        // 1.76/0.76 ≈ 2.32; every further investment in this toy instance
        // dilutes the rate (the next best move, the second coupon on v1,
        // has MR = 1 < 2.32), so D* is the first snapshot (Alg. 1 line 24).
        let (g, d) = example1();
        let mut tracker = ExploreTracker::new(7);
        let out = investment_deployment(&g, &d, 2.0, &mut tracker, 10_000);
        assert_eq!(out.deployment.seeds, vec![NodeId(0)]);
        assert_eq!(out.deployment.coupons[0], 1);
        assert!((out.objective.rate - 1.76 / 0.76).abs() < 1e-9);
        // The loop itself kept investing until the budget ran out.
        assert!(out.iterations > 1, "iterations = {}", out.iterations);
    }

    #[test]
    fn respects_budget() {
        let (g, d) = example1();
        let mut tracker = ExploreTracker::new(7);
        for binv in [0.5, 1.0, 2.0, 5.0] {
            let out = investment_deployment(&g, &d, binv, &mut tracker, 10_000);
            assert!(
                out.objective.within_budget(binv),
                "cost {} exceeds budget {binv}",
                out.objective.total_cost()
            );
        }
    }

    #[test]
    fn empty_when_nothing_affordable() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::uniform(2, 1.0, 50.0, 1.0);
        let mut tracker = ExploreTracker::new(2);
        let out = investment_deployment(&g, &d, 1.0, &mut tracker, 100);
        assert!(out.deployment.seeds.is_empty());
        assert_eq!(out.objective.rate, 0.0);
    }

    #[test]
    fn picks_high_rate_snapshot_not_last() {
        // A chain where the first coupon is great and the second is poor:
        // the returned D* must be the early snapshot.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(1, 2, 0.1).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::new(vec![1.0, 5.0, 0.1], vec![0.5, 100.0, 100.0], vec![1.0; 3]).unwrap();
        let mut tracker = ExploreTracker::new(3);
        let out = investment_deployment(&g, &d, 10.0, &mut tracker, 10_000);
        // Deployment keeps v1's coupon; v1→v2's coupon (benefit 0.1·0.1)
        // would dilute the rate and must not be in the returned snapshot.
        assert_eq!(out.deployment.coupons[1], 0);
        assert!(out.objective.rate > 3.0);
    }

    #[test]
    fn multiple_seeds_activated_when_pivot_wins() {
        // Two disconnected cheap stars: after saturating the first, the
        // pivot's rate beats any remaining coupon MR.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.9).unwrap();
        b.add_edge(2, 3, 0.9).unwrap();
        let g = b.build().unwrap();
        let d = NodeData::new(vec![2.0; 4], vec![0.5, 100.0, 0.5, 100.0], vec![1.0; 4]).unwrap();
        let mut tracker = ExploreTracker::new(4);
        let out = investment_deployment(&g, &d, 10.0, &mut tracker, 10_000);
        assert_eq!(out.deployment.seeds.len(), 2, "both stars should seed");
    }

    #[test]
    fn explored_count_is_budget_bounded() {
        // A long chain with a tiny budget: exploration must not touch the
        // whole graph.
        let n = 200;
        let mut b = GraphBuilder::new(n);
        for i in 0..(n as u32 - 1) {
            b.add_edge(i, i + 1, 0.9).unwrap();
        }
        let g = b.build().unwrap();
        let mut seed_costs = vec![100.0; n];
        seed_costs[0] = 0.5;
        let d = NodeData::new(vec![1.0; n], seed_costs, vec![1.0; n]).unwrap();
        let mut tracker = ExploreTracker::new(n);
        let _ = investment_deployment(&g, &d, 3.0, &mut tracker, 10_000);
        assert!(
            tracker.count() < n / 2,
            "explored {} of {n} despite budget 3",
            tracker.count()
        );
    }
}
