//! The incremental spread engine: the one production analytic evaluator.
//!
//! Every analytic benefit in production comes from a [`SpreadEngine`]: the
//! greedy loops mutate one move by move, and a one-shot evaluation of a
//! fixed deployment (`s3crm_core::objective::evaluate`) is a freshly built
//! engine. Its from-scratch test oracle,
//! [`SpreadState::evaluate`](crate::spread::SpreadState::evaluate),
//! rebuilds everything — BFS levels, eligible-child collection, the
//! O(deg·k) rank DP per holder, forward/backward passes — for every
//! deployment. The engine instead keeps the spread structure as a
//! maintained index over the per-holder distributions
//! `(holder, eligible children, rank-DP cache, q)` its [`Ledger`] owns:
//!
//! * **Broaden** (one more coupon to a current holder) extends that
//!   holder's [`RankDp`](crate::rank::RankDp) in O(deg) — the saturating
//!   coupon-consumption distribution is rolled forward one row instead of
//!   recomputed — and re-runs only the flat propagation passes.
//! * **Deepen / new seed / coupon retrieval** re-derive the spread
//!   structure (BFS order), but every untouched holder's DP is reused;
//!   only holders whose eligibility actually changed (in-neighbors of a
//!   new seed, the retrieval donor) rebuild theirs.
//! * Marginal probes ([`coupon_add_delta`](BenefitEstimator::coupon_add_delta))
//!   answer "what if `u` got one more coupon" in O(deg) from the ledger's
//!   cached availability sums, replacing two O(deg·k) DP sweeps per
//!   candidate.
//!
//! What the ID loop drives (`order`, `is_active`, the two monotone moves,
//! the add probe) is the engine's [`BenefitEstimator`] impl; coupon
//! retrieval and its removal probe, which only SC Maneuver uses, are
//! inherent methods.
//!
//! ## Per-move cost: O(spread + targets), not O(|V|)
//!
//! No pass a move pays touches every node. Outside the spread a node's
//! probability is 0 and its gain is its own benefit, so a refresh works on
//! the spread alone: `propagate_activation` zeroes, resets and
//! Jacobi-updates only the members (precondition: `active_prob` is 0
//! outside them — a structural refresh first zeroes the nodes that left),
//! gains reset only on the previous and current distribution holders, and
//! the exact-bit change report diffs only previous ∪ current members
//! (probabilities) and holders (gains), in ascending node order. A
//! non-structural refresh keeps both sets and diffs the current ones
//! without any copy. [`Ledger::sc_cost`] sums the ledger's holder list,
//! kept in ascending node order. Structural moves also re-run the spread
//! BFS, which allocates an n-sized level array.
//!
//! Construction is the one O(|V|) step, and the cost of every one-shot
//! evaluation: it allocates the n-sized arrays, builds every holder with
//! one allocation per DP (see [`RankDp`](crate::rank::RankDp)), runs the
//! passes once without a change report (there is nothing to diff
//! against; the report's baselines are copied at the first move), and
//! gets both ascending lists by filtering ascending scans (levels, the
//! ledger's holder list) rather than by sorting.
//!
//! ## The bit-identity contract
//!
//! The engine is an optimization, not a semantic change: after **any**
//! sequence of moves, every field (activation probabilities, subtree
//! gains, expected benefit, SC cost) is **bit-identical** to the oracle's
//! from-scratch [`SpreadState::evaluate`](crate::spread::SpreadState::evaluate)
//! of the same deployment — the incremental DP extension reproduces the
//! exact floating-point sequence of the full DP (see
//! [`RankDp`](crate::rank::RankDp)), and the propagation passes are the
//! very same `pub(crate)` functions the oracle runs.
//! [`rebuild`](SpreadEngine::rebuild) is the escape hatch that recomputes
//! everything from scratch; proptests in
//! `crates/propagation/tests/proptests.rs` pin that it never changes a bit,
//! which is what keeps every pinned paper CSV byte-identical.

use crate::estimator::BenefitEstimator;
use crate::ledger::{DeltaScratch, Ledger};
use crate::spread::{accumulate_gains, benefit_sum, propagate_activation, spread_levels, DistRef};
use osn_graph::{CsrGraph, NodeData, NodeId};

/// Evaluation-effort counters (surfaced through S3CA's `Telemetry` and the
/// Fig. 9 experiment CSV).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Complete from-scratch builds (initial construction and
    /// [`SpreadEngine::rebuild`] calls).
    pub full_rebuilds: u64,
    /// O(deg) holder-DP extensions (the broaden fast path).
    pub incremental_updates: u64,
    /// Spread-structure re-derivations (BFS + passes) that reused every
    /// cached holder DP.
    pub structural_refreshes: u64,
    /// Per-holder from-scratch DP rebuilds (new holders, eligibility
    /// changes from seed additions, coupon retrievals), counted by the
    /// estimator's [`Ledger`].
    pub holder_rebuilds: u64,
}

impl EngineCounters {
    /// Counter-wise difference (`self - earlier`), for phase attribution.
    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            full_rebuilds: self.full_rebuilds - earlier.full_rebuilds,
            incremental_updates: self.incremental_updates - earlier.incremental_updates,
            structural_refreshes: self.structural_refreshes - earlier.structural_refreshes,
            holder_rebuilds: self.holder_rebuilds - earlier.holder_rebuilds,
        }
    }

    /// Counter-wise sum, for cross-phase totals.
    pub fn merged(&self, other: &EngineCounters) -> EngineCounters {
        EngineCounters {
            full_rebuilds: self.full_rebuilds + other.full_rebuilds,
            incremental_updates: self.incremental_updates + other.incremental_updates,
            structural_refreshes: self.structural_refreshes + other.structural_refreshes,
            holder_rebuilds: self.holder_rebuilds + other.holder_rebuilds,
        }
    }
}

/// What a committed move changed, reported with exact-bit granularity so
/// callers (the ID phase's lazy-greedy heap) re-score only stale
/// candidates.
#[derive(Clone, Debug, Default)]
pub struct RefreshDelta {
    /// The spread structure (BFS order / membership) was re-derived;
    /// positional caches over the order must be rebuilt.
    pub structural: bool,
    /// Nodes whose activation probability changed (bitwise).
    pub probs_changed: Vec<NodeId>,
    /// Nodes whose subtree gain changed (bitwise).
    pub gains_changed: Vec<NodeId>,
    /// Nodes whose *eligible child set* changed (in-neighbors of a newly
    /// activated seed): their marginals are stale even if their own
    /// probability and every gain they read are untouched.
    pub eligibility_changed: Vec<NodeId>,
}

/// Stateful analytic evaluator of one evolving deployment. See the module
/// docs for the maintenance strategy and the bit-identity contract.
#[derive(Clone, Debug)]
pub struct SpreadEngine<'a> {
    graph: &'a CsrGraph,
    data: &'a NodeData,
    /// The deployment, its holders' DPs and its exact costs.
    ledger: Ledger<'a>,
    levels: Vec<Option<u32>>,
    order: Vec<NodeId>,
    active_prob: Vec<f64>,
    subtree_gain: Vec<f64>,
    expected_benefit: f64,
    /// Holders that participate in propagation: spread members with at
    /// least one eligible child, in spread order (mirrors
    /// `SpreadState::evaluate`'s `distributions`).
    spread_dists: Vec<NodeId>,
    /// `order` in ascending node order: the candidates of the probability
    /// diff.
    sorted_members: Vec<NodeId>,
    /// `spread_dists` in ascending node order: the only nodes whose subtree
    /// gain can differ from their own benefit.
    sorted_dists: Vec<NodeId>,
    /// Fixpoint scratch.
    complement: Vec<f64>,
    /// Previous pass results, for exact-bit change detection: empty until
    /// the first move (a one-shot evaluation makes none), then equal to
    /// `active_prob`/`subtree_gain` everywhere between moves.
    prev_active: Vec<f64>,
    prev_gain: Vec<f64>,
    /// Every counter but `holder_rebuilds`, which the ledger keeps.
    counters: EngineCounters,
}

impl<'a> SpreadEngine<'a> {
    /// Build the engine for an initial deployment (counted as one full
    /// rebuild).
    pub fn new(
        graph: &'a CsrGraph,
        data: &'a NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
    ) -> SpreadEngine<'a> {
        let n = graph.node_count();
        // Outside the spread every probability is 0 and every gain is the
        // node's own benefit; the refreshes maintain exactly that.
        let mut engine = SpreadEngine {
            graph,
            data,
            ledger: Ledger::new(graph, data, seeds, coupons),
            levels: Vec::new(),
            order: Vec::new(),
            active_prob: vec![0.0; n],
            subtree_gain: data.benefits().to_vec(),
            expected_benefit: 0.0,
            spread_dists: Vec::new(),
            sorted_members: Vec::new(),
            sorted_dists: Vec::new(),
            complement: vec![1.0; n],
            prev_active: Vec::new(),
            prev_gain: Vec::new(),
            counters: EngineCounters {
                full_rebuilds: 1,
                ..EngineCounters::default()
            },
        };
        // A first build has no earlier state to report changes against
        // (one-shot evaluations build an engine per deployment), so it
        // runs the passes without the change report.
        engine.derive_structure();
        let (levels, ledger) = (&engine.levels, &engine.ledger);
        let mut members = Vec::with_capacity(engine.order.len());
        members.extend(
            (0..n)
                .filter(|&i| levels[i].is_some())
                .map(NodeId::from_index),
        );
        let mut dists = Vec::with_capacity(engine.spread_dists.len());
        dists.extend(ledger.holder_nodes().iter().copied().filter(|&v| {
            levels[v.index()].is_some() && ledger.holder(v).is_some_and(|h| !h.targets.is_empty())
        }));
        engine.sorted_members = members;
        engine.sorted_dists = dists;
        engine.run_passes();
        engine
    }

    /// The escape hatch: recompute **everything** from scratch — holder
    /// DPs, spread structure, propagation passes. Bit-identical to the
    /// incrementally maintained state by contract (pinned by proptest);
    /// exists so long-lived engines can bound drift concerns and as the
    /// reference the tests compare against.
    pub fn rebuild(&mut self) -> RefreshDelta {
        self.ledger.rebuild();
        self.counters.full_rebuilds += 1;
        self.derive_structure();
        self.refresh(true)
    }

    /// Per-node activation probability.
    pub fn active_prob(&self) -> &[f64] {
        &self.active_prob
    }

    /// Per-node downstream gain (identical to `SpreadState::subtree_gain`).
    pub fn subtree_gain(&self) -> &[f64] {
        &self.subtree_gain
    }

    /// Retrieve up to `count` coupons from `u` (the SC-Maneuver donor
    /// move). Returns the number removed and what changed. Only the
    /// donor's DP rebuilds; every other holder's cache is reused.
    pub fn remove_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        let take = self.ledger.remove_coupons(u, count);
        if take == 0 {
            return (0, RefreshDelta::default());
        }
        if self.ledger.coupons()[u.index()] == 0 {
            // The node no longer relays: descendants may leave the spread.
            self.derive_structure();
            (take, self.refresh(true))
        } else {
            // Still a relay: membership is unchanged, only q shrank.
            (take, self.refresh(false))
        }
    }

    /// First-order `(ΔB, ΔCsc)` of retrieving one coupon from `u` —
    /// bit-identical to `SpreadState::coupon_removal_delta`.
    pub fn coupon_removal_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        let (pu, mut db, mut dc) = (self.active_prob[u.index()], 0.0, 0.0);
        self.ledger.removal_probe(u, scratch, |v, dq| {
            db += pu * dq * self.subtree_gain[v.index()];
            dc += dq * self.data.sc_cost(v);
        });
        (db, dc)
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Re-derive the spread structure (BFS levels/order and the ordered
    /// distribution list) from the current seeds and coupons.
    fn derive_structure(&mut self) {
        let (levels, order) = spread_levels(self.graph, self.ledger.seeds(), self.ledger.coupons());
        self.levels = levels;
        self.order = order;
        self.spread_dists.clear();
        for &u in &self.order {
            if self.ledger.holder(u).is_some_and(|h| !h.targets.is_empty()) {
                self.spread_dists.push(u);
            }
        }
        self.counters.structural_refreshes += 1;
    }

    /// After a structural change: re-sort the member and distribution-node
    /// lists, zero the nodes that left the spread, and return what the
    /// refresh must scan — the previous ∪ current members and the previous
    /// ∪ current distribution nodes, each ascending.
    fn restructure_scans(&mut self) -> (Vec<NodeId>, Vec<NodeId>) {
        let old_members = std::mem::replace(&mut self.sorted_members, sorted(&self.order));
        let old_dists = std::mem::replace(&mut self.sorted_dists, sorted(&self.spread_dists));
        for &v in &old_members {
            if self.levels[v.index()].is_none() {
                self.active_prob[v.index()] = 0.0;
            }
        }
        (
            sorted_union(&old_members, &self.sorted_members),
            sorted_union(&old_dists, &self.sorted_dists),
        )
    }

    /// Re-run the propagation passes and report, with exact-bit
    /// granularity, which nodes changed — in O(spread + targets), as the
    /// module docs describe.
    fn refresh(&mut self, structural: bool) -> RefreshDelta {
        if self.prev_active.is_empty() {
            // The first move: its baselines are the state it starts from.
            self.prev_active = self.active_prob.clone();
            self.prev_gain = self.subtree_gain.clone();
        }
        let restructured = structural.then(|| self.restructure_scans());
        let dist_scan = restructured.as_ref().map_or(&self.sorted_dists, |(_, d)| d);
        for &v in dist_scan {
            self.subtree_gain[v.index()] = self.data.benefit(v);
        }
        self.run_passes();
        let (member_scan, dist_scan) = match &restructured {
            Some((members, dists)) => (members, dists),
            None => (&self.sorted_members, &self.sorted_dists),
        };
        RefreshDelta {
            structural,
            probs_changed: diff_bits(member_scan, &self.active_prob, &mut self.prev_active),
            gains_changed: diff_bits(dist_scan, &self.subtree_gain, &mut self.prev_gain),
            ..RefreshDelta::default()
        }
    }

    /// The propagation passes (the same `pub(crate)` functions
    /// `SpreadState::evaluate` uses) over the cached distributions.
    /// Precondition: every distribution holder's gain is its own benefit.
    fn run_passes(&mut self) {
        let dists: Vec<DistRef<'_>> = self
            .spread_dists
            .iter()
            .map(|&node| {
                let h = self.ledger.holder(node).expect("spread dists hold coupons");
                DistRef {
                    node,
                    targets: &h.targets,
                    q: h.dp.q(),
                }
            })
            .collect();
        propagate_activation(
            &dists,
            &self.order,
            self.ledger.seeds(),
            self.ledger.seed_mask(),
            &mut self.active_prob,
            &mut self.complement,
        );
        accumulate_gains(&dists, self.data, &mut self.subtree_gain);
        self.expected_benefit = benefit_sum(&self.order, &self.active_prob, self.data);
    }
}

impl BenefitEstimator for SpreadEngine<'_> {
    /// Spread members in BFS order (identical to `SpreadState::order`).
    fn order(&self) -> &[NodeId] {
        &self.order
    }

    #[inline]
    fn is_active(&self, u: NodeId) -> bool {
        self.active_prob[u.index()] > 0.0
    }

    fn ledger(&self) -> &Ledger<'_> {
        &self.ledger
    }

    fn expected_benefit(&self) -> f64 {
        self.expected_benefit
    }

    fn counters(&self) -> EngineCounters {
        EngineCounters {
            holder_rebuilds: self.ledger.holder_rebuilds(),
            ..self.counters
        }
    }

    /// Bit-identical to `SpreadState::coupon_delta(graph, data, u, 1)` but
    /// O(deg), from the ledger's [`add_probe`](Ledger::add_probe).
    fn coupon_add_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        let (pu, mut db, mut dc) = (self.active_prob[u.index()], 0.0, 0.0);
        self.ledger.add_probe(u, scratch, |v, dq| {
            db += pu * dq * self.subtree_gain[v.index()];
            dc += dq * self.data.sc_cost(v);
        });
        (db, dc)
    }

    /// A holder that already relays takes the O(deg)-per-coupon
    /// DP-extension fast path; a first coupon builds the holder and
    /// re-derives the spread structure.
    fn add_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        let relays = self.ledger.coupons()[u.index()] > 0;
        let add = self.ledger.add_coupons(u, count);
        if add == 0 {
            return (0, RefreshDelta::default());
        }
        if relays {
            // An internal node already relayed to its children: the spread
            // structure cannot change, only probabilities and gains do.
            self.counters.incremental_updates += u64::from(add);
            (add, self.refresh(false))
        } else {
            self.derive_structure();
            (add, self.refresh(true))
        }
    }

    /// The ID phase's pivot package / Alg. 1 "new source" move. Holders
    /// that previously counted `v` as an eligible child rebuild their DPs
    /// (a seed never receives coupons).
    fn add_seed_package(&mut self, v: NodeId, coupons: u32) -> RefreshDelta {
        let fresh = self.ledger.add_seed(v, coupons);
        self.derive_structure();
        let mut delta = self.refresh(true);
        if fresh {
            // Report every in-neighbor (holder or not — a fresh candidate's
            // k = 0 → 1 probe reads the same child set) so marginal caches
            // invalidate theirs.
            delta.eligibility_changed = self.graph.in_sources(v).to_vec();
        }
        delta
    }
}

/// `nodes` in ascending node order.
fn sorted(nodes: &[NodeId]) -> Vec<NodeId> {
    let mut out = nodes.to_vec();
    out.sort_unstable();
    out
}

/// The ascending union of two ascending node lists.
fn sorted_union(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

/// The nodes of the ascending `scan` whose value bits differ between `cur`
/// and `prev`, in ascending order; brings `prev` up to date on the way.
fn diff_bits(scan: &[NodeId], cur: &[f64], prev: &mut [f64]) -> Vec<NodeId> {
    let mut changed = Vec::new();
    for &v in scan {
        let i = v.index();
        if cur[i].to_bits() != prev[i].to_bits() {
            prev[i] = cur[i];
            changed.push(v);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::expected_sc_cost;
    use crate::spread::SpreadState;
    use osn_graph::GraphBuilder;

    /// Example 1 tree.
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

    fn assert_engine_matches_evaluate(
        engine: &SpreadEngine<'_>,
        graph: &CsrGraph,
        data: &NodeData,
    ) {
        let fresh = SpreadState::evaluate(
            graph,
            data,
            engine.ledger().seeds(),
            engine.ledger().coupons(),
        );
        assert_eq!(engine.order(), &fresh.order[..], "order diverged");
        for i in 0..graph.node_count() {
            assert_eq!(
                engine.active_prob()[i].to_bits(),
                fresh.active_prob[i].to_bits(),
                "active_prob[{i}]"
            );
            assert_eq!(
                engine.subtree_gain()[i].to_bits(),
                fresh.subtree_gain[i].to_bits(),
                "subtree_gain[{i}]"
            );
        }
        assert_eq!(
            engine.expected_benefit().to_bits(),
            fresh.expected_benefit.to_bits(),
            "expected_benefit"
        );
        let sc = expected_sc_cost(
            graph,
            data,
            engine.ledger().seeds(),
            engine.ledger().coupons(),
        );
        assert_eq!(engine.ledger().sc_cost().to_bits(), sc.to_bits(), "sc_cost");
    }

    #[test]
    fn broaden_fast_path_matches_from_scratch() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        assert_engine_matches_evaluate(&engine, &g, &d);
        let (added, delta) = engine.add_coupons(NodeId(0), 1);
        assert_eq!(added, 1);
        assert!(!delta.structural);
        assert_engine_matches_evaluate(&engine, &g, &d);
        assert_eq!(engine.counters().incremental_updates, 1);
    }

    #[test]
    fn deepen_and_seed_moves_match_from_scratch() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let (added, delta) = engine.add_coupons(NodeId(1), 1);
        assert_eq!(added, 1);
        assert!(delta.structural, "a first coupon grows the spread");
        assert_engine_matches_evaluate(&engine, &g, &d);
        engine.add_seed_package(NodeId(2), 1);
        assert_engine_matches_evaluate(&engine, &g, &d);
        let (removed, _) = engine.remove_coupons(NodeId(1), 1);
        assert_eq!(removed, 1);
        assert_engine_matches_evaluate(&engine, &g, &d);
    }

    #[test]
    fn probes_match_spread_state_deltas() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 1;
        let engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let state = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        let mut scratch = DeltaScratch::default();
        for v in 0..7u32 {
            let (db_e, dc_e) = engine.coupon_add_delta(NodeId(v), &mut scratch);
            let (db_s, dc_s) = state.coupon_delta(&g, &d, NodeId(v), 1);
            assert_eq!(db_e.to_bits(), db_s.to_bits(), "ΔB at v{v}");
            assert_eq!(dc_e.to_bits(), dc_s.to_bits(), "ΔC at v{v}");
            let (rb_e, rc_e) = engine.coupon_removal_delta(NodeId(v), &mut scratch);
            let (rb_s, rc_s) = state.coupon_removal_delta(&g, &d, NodeId(v));
            assert_eq!(rb_e.to_bits(), rb_s.to_bits(), "removal ΔB at v{v}");
            assert_eq!(rc_e.to_bits(), rc_s.to_bits(), "removal ΔC at v{v}");
        }
    }

    #[test]
    fn rebuild_is_a_bitwise_no_op() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        engine.add_coupons(NodeId(0), 1);
        engine.add_coupons(NodeId(1), 1);
        let before = engine.clone();
        engine.rebuild();
        assert_eq!(before.order(), engine.order());
        for i in 0..7 {
            assert_eq!(
                before.active_prob()[i].to_bits(),
                engine.active_prob()[i].to_bits()
            );
            assert_eq!(
                before.subtree_gain()[i].to_bits(),
                engine.subtree_gain()[i].to_bits()
            );
        }
        assert_eq!(
            before.expected_benefit().to_bits(),
            engine.expected_benefit().to_bits()
        );
        assert_eq!(engine.counters().full_rebuilds, 2);
    }

    #[test]
    fn caps_and_no_ops_report_empty_deltas() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 2;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let (added, delta) = engine.add_coupons(NodeId(0), 5);
        assert_eq!(added, 0, "v0 is degree-capped");
        assert!(delta.probs_changed.is_empty() && delta.gains_changed.is_empty());
        let (removed, delta) = engine.remove_coupons(NodeId(3), 1);
        assert_eq!(removed, 0);
        assert!(!delta.structural);
        // Leaf nodes can hold no coupons at all.
        let (added, _) = engine.add_coupons(NodeId(3), 2);
        assert_eq!(added, 0);
        assert_engine_matches_evaluate(&engine, &g, &d);
    }
}
