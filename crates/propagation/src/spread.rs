//! Analytic spread evaluation: the model's shared passes and its test
//! oracle.
//!
//! Computes the expected benefit of a deployment `(S, K)` in closed form:
//! activation probabilities flow through the *coupon spread* — the set of
//! nodes reachable from the seeds through coupon-holding users — using the
//! rank DP of [`rank`](crate::rank) for coupon availability and the
//! independent-parent combination `P(v) = 1 − Π_u (1 − P(u)·q_{u→v})`.
//!
//! **Exactness.** On forests this reproduces the paper's arithmetic to
//! machine precision (Fig. 1, Example 1 — asserted in tests). On graphs with
//! converging influence paths the independent-parent combination is the
//! standard first-order approximation; the Monte-Carlo evaluator is the
//! ground truth there.
//!
//! **Eligibility.** A node `u` never distributes a coupon to a friend that
//! is already deterministically active: the eligible ranked children of
//! `u` are its out-neighbors that are not seeds. This is the
//! interpretation forced by Fig. 1(c) case 2, where the seed `v1` is
//! excluded from `v2`'s rank competition (`tests/paper_fig1.rs` pins it).
//!
//! **Production vs oracle.** The BFS, eligibility rule, propagation passes
//! and [`standalone_package`] here are what production runs, through the
//! incremental [`SpreadEngine`](crate::engine::SpreadEngine). [`SpreadState`]
//! — the from-scratch [`evaluate`](SpreadState::evaluate) and its
//! `coupon_*delta` probes — is the **test oracle** the engine is pinned
//! against, bit for bit; no production path calls it.

use crate::ledger::{Holder, Ledger};
use crate::rank::redemption_probs;
use osn_graph::{CsrGraph, NodeData, NodeId};

/// Fully evaluated analytic state of one deployment, built from scratch:
/// the test oracle of [`SpreadEngine`](crate::engine::SpreadEngine).
#[derive(Clone, Debug)]
pub struct SpreadState {
    /// Hop level within the coupon spread; `None` for nodes outside it.
    pub levels: Vec<Option<u32>>,
    /// Activation probability per node (1.0 for seeds).
    pub active_prob: Vec<f64>,
    /// Expected benefit of a node's downstream subtree per unit of its own
    /// activation probability (`b(v)` plus coupon-weighted child gains).
    pub subtree_gain: Vec<f64>,
    /// Spread members in ascending level order (a topological order of the
    /// eligible edges).
    pub order: Vec<NodeId>,
    /// `Σ_v P(v)·b(v)` — the deployment's expected benefit `B(S, K)`.
    pub expected_benefit: f64,
    pub(crate) seed_mask: Vec<bool>,
    pub(crate) coupons: Vec<u32>,
}

/// BFS over the coupon spread: seeds at level 0; a node relays (expands to
/// its ranked children) only while it holds at least one coupon.
pub fn spread_levels(
    graph: &CsrGraph,
    seeds: &[NodeId],
    coupons: &[u32],
) -> (Vec<Option<u32>>, Vec<NodeId>) {
    let n = graph.node_count();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut order = Vec::new();
    for &s in seeds {
        if levels[s.index()].is_none() {
            levels[s.index()] = Some(0);
            order.push(s);
        }
    }
    // `order` is the BFS queue: `order[head..]` are the queued nodes.
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        if coupons[u.index()] == 0 {
            continue;
        }
        let lu = levels[u.index()].expect("queued nodes have levels");
        for &v in graph.out_targets(u) {
            if levels[v.index()].is_none() {
                levels[v.index()] = Some(lu + 1);
                order.push(v);
            }
        }
    }
    (levels, order)
}

/// Gather `u`'s eligible ranked children and their influence
/// probabilities into the scratch vectors — the one child collection every
/// evaluator, cost sum and backend shares. A coupon is never spent on a
/// **seed** (deterministically active already — the interpretation forced
/// by Fig. 1(c) case 2), and on nothing else: the literal reading of the
/// Table-I cost sum `Σ_{v_i∈I} Σ_{v_j∈N(v_i)}`; cross- and back-edges
/// participate via the fixpoint refinement below.
pub fn eligible_children(
    graph: &CsrGraph,
    seed_mask: &[bool],
    u: NodeId,
    targets: &mut Vec<NodeId>,
    probs: &mut Vec<f64>,
) {
    targets.clear();
    probs.clear();
    for (v, p) in graph.ranked_out(u) {
        if !seed_mask[v.index()] {
            targets.push(v);
            probs.push(p);
        }
    }
}

/// A borrowed coupon distribution: one spread holder's eligible ranked
/// children and their redemption probabilities. The shared currency of the
/// propagation passes below — both [`SpreadState::evaluate`] and the
/// incremental [`SpreadEngine`](crate::engine::SpreadEngine) build slices
/// of these, so the two paths run the *same* floating-point sequence (the
/// bit-identity contract between them is pinned by proptest).
#[derive(Clone, Copy, Debug)]
pub(crate) struct DistRef<'a> {
    pub node: NodeId,
    pub targets: &'a [NodeId],
    pub q: &'a [f64],
}

/// Jacobi refinement rounds after the ordered pass (at most).
const JACOBI_ROUNDS: usize = 3;

/// A round whose every non-seed member moved by less than this is the last.
const CONVERGED: f64 = 1e-12;

/// Forward pass: activation probabilities in ascending level order (one
/// exact pass on forests), then Jacobi fixpoint refinement so cross- and
/// back-edges of cyclic graphs contribute too. Returns the number of
/// Jacobi rounds run.
///
/// Every pass runs over the spread `members` only, so its cost is
/// O(members + distribution targets), not O(n). `active_prob` and
/// `complement` are `n`-sized scratch; the members' entries of both are
/// overwritten. **Precondition:** `active_prob` is 0 outside `members`
/// (every distribution holder and target is a member, so the non-member
/// entries are never written and stay 0). Restricting the Jacobi update
/// to members changes no bit: a non-member's complement would stay 1.0,
/// giving `new_p = 0 = old`. A round is the last when no non-seed member
/// moved by `CONVERGED` or more — the same test as "the largest |Δ| is
/// below it", and independent of iteration order.
///
/// The fixpoint round count is deliberately small: iterating to the true
/// fixpoint over-amplifies through short cycles (the independence
/// assumption echoes A→B→A), while 3 rounds keeps the estimate within
/// ±15% of Monte-Carlo on adversarially dense reciprocal graphs (see
/// `tests/evaluator_consistency.rs`). Forests converge immediately (no
/// member moves in the first round), so the pinned paper numbers are
/// untouched.
///
/// **Each node's value is its own fold.** The passes scatter, but what
/// they compute per node is a fold over the node's in-distributions in
/// distribution-position order:
///
/// * the ordered pass gives `P0(v)`, folding `1 − (1 − p)(1 − E(d)·q)`
///   from 0 over `v`'s in-distributions `d`, skipping `E(d) ≤ 0`, where the
///   *emit* `E(d)` is the holder's partial `P0` over its in-distributions
///   positioned before it (1 for a seed);
/// * round `r` gives `P_r(v) = 1 − Π (1 − P_{r−1}(w)·q)`, the product
///   folded from 1 in the same order, skipping `P_{r−1}(w) ≤ 0`.
///
/// A `recorder` keeps every stage's values, the emits and a
/// position-ordered reverse index, so [`PassRecord::refresh_probs`] can
/// gather exactly these folds for the few nodes whose inputs changed. Same
/// operands, same operations, same order: the gathered values are the
/// scattered ones, bit for bit, and a node none of whose inputs changed
/// keeps its bits. Recording adds O(members + distribution targets) and
/// no pass over all `n` nodes.
pub(crate) fn propagate_activation(
    dists: &[DistRef<'_>],
    members: &[NodeId],
    seeds: &[NodeId],
    seed_mask: &[bool],
    active_prob: &mut [f64],
    complement: &mut [f64],
    mut recorder: Option<&mut PassRecord>,
) -> usize {
    if let Some(rec) = recorder.as_deref_mut() {
        rec.index(dists, members);
    }
    for &v in members {
        active_prob[v.index()] = 0.0;
    }
    for &s in seeds {
        active_prob[s.index()] = 1.0;
    }
    // Initial ordered pass (exact on forests).
    for (p, d) in dists.iter().enumerate() {
        let pu = active_prob[d.node.index()];
        if let Some(rec) = recorder.as_deref_mut() {
            rec.emit[p] = pu;
        }
        if pu <= 0.0 {
            continue;
        }
        for (&v, &qj) in d.targets.iter().zip(d.q.iter()) {
            let c = pu * qj;
            let pv = &mut active_prob[v.index()];
            *pv = 1.0 - (1.0 - *pv) * (1.0 - c);
        }
    }
    if let Some(rec) = recorder.as_deref_mut() {
        rec.keep_stage(0, members, active_prob);
    }
    // Bounded fixpoint refinement: recompute every non-seed member's
    // probability from all incoming distributions.
    for round in 1..=JACOBI_ROUNDS {
        for &v in members {
            complement[v.index()] = 1.0;
        }
        for d in dists {
            let pu = active_prob[d.node.index()];
            if pu <= 0.0 {
                continue;
            }
            for (&v, &qj) in d.targets.iter().zip(d.q.iter()) {
                complement[v.index()] *= 1.0 - pu * qj;
            }
        }
        let mut moved = 0usize;
        for &v in members {
            let i = v.index();
            if seed_mask[i] {
                continue;
            }
            let new_p = 1.0 - complement[i];
            let step = (new_p - active_prob[i]).abs() >= CONVERGED;
            moved += usize::from(step);
            if let Some(rec) = recorder.as_deref_mut() {
                rec.set_moved(v, round, step);
            }
            active_prob[i] = new_p;
        }
        if let Some(rec) = recorder.as_deref_mut() {
            rec.keep_stage(round, members, active_prob);
            rec.moved[round - 1] = moved;
            rec.rounds = round;
        }
        if moved == 0 {
            return round;
        }
    }
    JACOBI_ROUNDS
}

/// No distribution position: the node distributes to no spread member.
const NO_POS: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Lifts the cone budget in this thread, so tests drive every
    /// non-structural refresh that keeps its round count through the cone,
    /// dense ones included.
    pub(crate) static UNBOUNDED_CONES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(not(test))]
fn unbounded_cones() -> bool {
    false
}

#[cfg(test)]
fn unbounded_cones() -> bool {
    UNBOUNDED_CONES.with(std::cell::Cell::get)
}

/// One in-distribution of a member: the distribution's position, its
/// holder's node index and the member's `q` in it.
#[derive(Clone, Copy, Debug, Default)]
struct InRef {
    pos: u32,
    holder: u32,
    q: f64,
}

/// The record of one [`propagate_activation`] pass that lets the engine
/// refresh a non-structural move — one holder's `q` changed, same spread
/// order, same distribution list — by recomputing only its dirty cone
/// ([`refresh_probs`](Self::refresh_probs),
/// [`refresh_gains`](Self::refresh_gains)), bit-identical to re-running
/// the full passes. Every field is kept equal to what a full recording
/// pass over the current deployment would write; node-indexed arrays are
/// meaningful on spread members only.
#[derive(Clone, Debug)]
pub(crate) struct PassRecord {
    /// `stage[0]` is `P0` after the ordered pass, `stage[r]` is `P_r` after
    /// Jacobi round `r` (seeds read 1 at every stage), for `r ≤ rounds`.
    stage: [Vec<f64>; JACOBI_ROUNDS + 1],
    /// Jacobi rounds the pass ran.
    rounds: usize,
    /// `moved[r − 1]`: non-seed members with `|P_r − P_{r−1}| ≥ CONVERGED`;
    /// round `r` is the last exactly when it is 0 (or `r` is the cap).
    moved: [usize; JACOBI_ROUNDS],
    /// Bit `r − 1` of a node's byte: it counts in `moved[r − 1]`.
    moved_bits: Vec<u8>,
    /// Each distribution holder's position (`NO_POS` for other nodes).
    pos: Vec<u32>,
    /// `E(d)` per distribution position: its holder's probability when the
    /// ordered pass reached it.
    emit: Vec<f64>,
    /// Whether the index below matches the spread the next pass runs on.
    indexed: bool,
    /// Reverse index: member `v`'s in-distributions, ascending by
    /// position, at `in_refs[in_start[member[v]]..in_start[member[v] + 1]]`.
    member: Vec<u32>,
    in_start: Vec<u32>,
    in_refs: Vec<InRef>,
    /// Where each distribution's targets sit in `in_refs`: rank slot `j` of
    /// position `p` at `out_refs[out_start[p] + j]`.
    out_start: Vec<u32>,
    out_refs: Vec<u32>,
    /// Cone scratch: a dedup stamp per node, the nodes to re-fold, and per
    /// distribution position whether a scan must still visit it (all false
    /// between scans).
    stamp: Vec<u32>,
    stamp_gen: u32,
    dirty: Vec<NodeId>,
    pending: Vec<bool>,
    /// The cone's cost, in member and distribution-edge visits: `spent` so
    /// far in this refresh, `dirty_cost` to fold the dirty set once, and
    /// the stages (the current one included) whose folds are still to run.
    /// `over_budget` once finishing would cost more than one full stage
    /// (see [`mark_targets`](Self::mark_targets)).
    spent: usize,
    dirty_cost: usize,
    stages_left: usize,
    over_budget: bool,
    /// Member probabilities and holder gains recomputed by cone refreshes
    /// since the engine last took the count.
    pub(crate) work: u64,
}

impl PassRecord {
    /// An empty record for an `n`-node graph; the first recording pass
    /// fills it.
    pub(crate) fn new(n: usize) -> PassRecord {
        PassRecord {
            stage: std::array::from_fn(|_| vec![0.0; n]),
            rounds: 0,
            moved: [0; JACOBI_ROUNDS],
            moved_bits: vec![0; n],
            pos: vec![NO_POS; n],
            emit: Vec::new(),
            indexed: false,
            member: vec![0; n],
            in_start: Vec::new(),
            in_refs: Vec::new(),
            out_start: Vec::new(),
            out_refs: Vec::new(),
            stamp: vec![0; n],
            stamp_gen: 0,
            dirty: Vec::new(),
            pending: Vec::new(),
            spent: 0,
            dirty_cost: 0,
            stages_left: 0,
            over_budget: false,
            work: 0,
        }
    }

    /// Jacobi rounds the recorded pass ran.
    #[cfg(test)]
    pub(crate) fn rounds(&self) -> usize {
        self.rounds
    }

    /// The spread changed: the next recording pass re-indexes it. `old`
    /// is the distribution list the record was indexed on, whose positions
    /// are cleared here. A pass after a non-structural move keeps the index
    /// (whose copy of the moved holder's `q`
    /// [`refresh_probs`](Self::refresh_probs) has patched).
    pub(crate) fn restructure(&mut self, old: &[NodeId]) {
        for &w in old {
            self.pos[w.index()] = NO_POS;
        }
        self.indexed = false;
    }

    /// Index a recording pass's distributions: positions, member slots and
    /// the reverse index (a counting sort by target, so each target's
    /// entries stay in position order).
    fn index(&mut self, dists: &[DistRef<'_>], members: &[NodeId]) {
        if std::mem::replace(&mut self.indexed, true) {
            return;
        }
        for (p, d) in dists.iter().enumerate() {
            self.pos[d.node.index()] = p as u32;
        }
        for (m, &v) in members.iter().enumerate() {
            self.member[v.index()] = m as u32;
        }
        self.in_start.clear();
        self.in_start.resize(members.len() + 1, 0);
        for d in dists {
            for &t in d.targets {
                self.in_start[self.member[t.index()] as usize + 1] += 1;
            }
        }
        for m in 0..members.len() {
            self.in_start[m + 1] += self.in_start[m];
        }
        let edges = self.in_start[members.len()] as usize;
        self.in_refs.clear();
        self.in_refs.resize(edges, InRef::default());
        self.out_start.clear();
        self.out_refs.clear();
        self.out_refs.reserve(edges);
        // `in_start[m]` runs ahead as member m's fill cursor, ending at
        // member m + 1's start; shifting it back restores the offsets.
        for (p, d) in dists.iter().enumerate() {
            self.out_start.push(self.out_refs.len() as u32);
            for (&t, &q) in d.targets.iter().zip(d.q) {
                let cursor = &mut self.in_start[self.member[t.index()] as usize];
                self.in_refs[*cursor as usize] = InRef {
                    pos: p as u32,
                    holder: d.node.0,
                    q,
                };
                self.out_refs.push(*cursor);
                *cursor += 1;
            }
        }
        self.out_start.push(self.out_refs.len() as u32);
        self.in_start.copy_within(..members.len(), 1);
        self.in_start[0] = 0;
        self.emit.clear();
        self.emit.resize(dists.len(), 0.0);
        self.pending.clear();
        self.pending.resize(dists.len(), false);
        self.moved = [0; JACOBI_ROUNDS];
    }

    fn keep_stage(&mut self, r: usize, members: &[NodeId], active_prob: &[f64]) {
        for &v in members {
            self.stage[r][v.index()] = active_prob[v.index()];
        }
    }

    fn set_moved(&mut self, v: NodeId, round: usize, moved: bool) {
        let bit = 1u8 << (round - 1);
        let byte = &mut self.moved_bits[v.index()];
        *byte = if moved { *byte | bit } else { *byte & !bit };
    }

    /// Re-derive `v`'s round-`round` flag after `P_round` or
    /// `P_{round−1}` of `v` changed, keeping `moved` in step.
    fn reflag(&mut self, v: NodeId, round: usize) {
        let i = v.index();
        let now = (self.stage[round][i] - self.stage[round - 1][i]).abs() >= CONVERGED;
        let was = self.moved_bits[i] >> (round - 1) & 1 == 1;
        if now != was {
            self.set_moved(v, round, now);
            if now {
                self.moved[round - 1] += 1;
            } else {
                self.moved[round - 1] -= 1;
            }
        }
    }

    fn in_refs(&self, v: NodeId) -> &[InRef] {
        let m = self.member[v.index()] as usize;
        &self.in_refs[self.in_start[m] as usize..self.in_start[m + 1] as usize]
    }

    /// The ordered pass's fold for the receiver `v` over its
    /// in-distributions positioned before `before`: `v`'s emit when
    /// `before` is its own position, `P0(v)` when it is [`NO_POS`].
    fn fold_ordered(&self, v: NodeId, before: u32) -> f64 {
        let mut pv = 0.0f64;
        for r in self.in_refs(v) {
            if r.pos >= before {
                break;
            }
            let pu = self.emit[r.pos as usize];
            if pu <= 0.0 {
                continue;
            }
            let c = pu * r.q;
            pv = 1.0 - (1.0 - pv) * (1.0 - c);
        }
        pv
    }

    /// Round `round`'s fold for the receiver `v`: `P_round(v)`.
    fn fold_round(&self, v: NodeId, round: usize) -> f64 {
        let prev = &self.stage[round - 1];
        let mut complement = 1.0f64;
        for r in self.in_refs(v) {
            let pu = prev[r.holder as usize];
            if pu <= 0.0 {
                continue;
            }
            complement *= 1.0 - pu * r.q;
        }
        1.0 - complement
    }

    /// Start a new, empty dirty set for a stage with `stages_left` stages
    /// (itself included) still to fold.
    fn clear_dirty(&mut self, stages_left: usize) {
        self.stamp_gen = self.stamp_gen.wrapping_add(1);
        if self.stamp_gen == 0 {
            self.stamp.fill(0);
            self.stamp_gen = 1;
        }
        self.dirty.clear();
        self.dirty_cost = 0;
        self.stages_left = stages_left;
    }

    /// Add the targets of `h`, the holder at distribution position `p`, to
    /// the dirty set; with `ahead`, also flag the later-positioned holders
    /// among them (their emits read `p`). Once the cone is over budget it
    /// takes no more.
    ///
    /// The budget is one stage of the full passes, which visits each
    /// member and each distribution edge once. The cone has spent `spent`
    /// visits, and finishing costs at least the dirty set's folds (each
    /// member's in-distributions) in every stage left, since a stage's
    /// dirty set is what changed upstream of it. One stage, not all
    /// `1 + rounds` of them: a gathered visit costs more than a scattered
    /// one (a position lookup, a stamp, a random read), so the cone pays only
    /// while it stays small, and a cone given up wastes at most about one
    /// stage. Measured on the dense 120-node sweep instances of
    /// `repro extensions` (2-core host), a budget of all the stages let
    /// cones finish at 40–70% of the full passes' visits, and ID ran
    /// 25–35% slower than with the full passes alone.
    fn mark_targets(&mut self, h: &Holder, p: u32, ahead: bool) {
        if self.over_budget {
            return;
        }
        for &t in &h.targets {
            let i = t.index();
            if ahead && self.pos[i] != NO_POS && self.pos[i] > p {
                self.pending[self.pos[i] as usize] = true;
            }
            if self.stamp[i] != self.stamp_gen {
                self.stamp[i] = self.stamp_gen;
                self.dirty.push(t);
                self.dirty_cost += 1 + self.in_refs(t).len();
            }
        }
        self.spent += h.targets.len();
        let stage = self.in_start.len() - 1 + self.in_refs.len();
        self.over_budget =
            self.spent + self.stages_left * self.dirty_cost > stage && !unbounded_cones();
    }

    /// Recompute the dirty receivers' `stage[round]` folds; returns the
    /// receivers whose bits changed.
    fn restage(&mut self, round: usize) -> Vec<NodeId> {
        let dirty = std::mem::take(&mut self.dirty);
        let mut changed = Vec::new();
        for &v in &dirty {
            let new = if round == 0 {
                self.fold_ordered(v, NO_POS)
            } else {
                self.fold_round(v, round)
            };
            let old = &mut self.stage[round][v.index()];
            if new.to_bits() != old.to_bits() {
                *old = new;
                changed.push(v);
            }
        }
        self.work += dirty.len() as u64;
        self.spent += self.dirty_cost;
        self.dirty = dirty;
        changed
    }

    /// After holder `u`'s `q` changed (non-structurally: same spread
    /// order, same distribution list `dists`, in position order), bring
    /// every stage up to date by recomputing only the nodes whose inputs
    /// changed, and write the final probabilities that changed into
    /// `active_prob`. Returns those nodes (unordered), or `None` — record
    /// half-updated, to be rewritten by a full recording pass — when the
    /// cone goes over budget (see [`mark_targets`](Self::mark_targets)) or
    /// the pass would now run a different number of rounds.
    ///
    /// * **Ordered pass.** `u`'s targets' `P0` folds read its `q` (the
    ///   index's copy is patched first); a holder among them positioned
    ///   after `u` re-folds its emit, and when the emit's bits change its
    ///   own targets follow. One ascending scan over the positions after
    ///   `u` settles the emits, so each reads only final emits.
    /// * **Round r.** The folds to redo are `u`'s targets and the targets
    ///   of every holder whose `P_{r−1}` bits changed; each moved-count
    ///   follows the nodes whose `P_r` or `P_{r−1}` changed.
    pub(crate) fn refresh_probs(
        &mut self,
        ledger: &Ledger<'_>,
        dists: &[NodeId],
        u: NodeId,
        active_prob: &mut [f64],
    ) -> Option<Vec<NodeId>> {
        let pu = self.pos[u.index()];
        if pu == NO_POS {
            // No spread member receives `u`'s coupons: nothing reads its q.
            return Some(Vec::new());
        }
        let holder = |p: u32| dist_holder(ledger, dists, p);
        let outs = self.out_start[pu as usize] as usize..self.out_start[pu as usize + 1] as usize;
        for (&at, &qj) in self.out_refs[outs].iter().zip(holder(pu).dp.q()) {
            self.in_refs[at as usize].q = qj;
        }
        self.spent = 0;
        self.over_budget = false;
        self.clear_dirty(1 + self.rounds);
        self.mark_targets(holder(pu), pu, true);
        for p in pu + 1..dists.len() as u32 {
            if !std::mem::take(&mut self.pending[p as usize]) || self.over_budget {
                continue;
            }
            let w = dists[p as usize];
            let emit = self.fold_ordered(w, p);
            self.work += 1;
            self.spent += 1 + self.in_refs(w).len();
            if emit.to_bits() != self.emit[p as usize].to_bits() {
                self.emit[p as usize] = emit;
                self.mark_targets(holder(p), p, true);
            }
        }
        if self.over_budget {
            return None;
        }
        let mut changed = self.restage(0);
        for round in 1..=self.rounds {
            self.clear_dirty(1 + self.rounds - round);
            self.mark_targets(holder(pu), pu, false);
            for &w in &changed {
                let pw = self.pos[w.index()];
                if pw != NO_POS {
                    self.mark_targets(holder(pw), pw, false);
                }
            }
            if self.over_budget {
                return None;
            }
            let now = self.restage(round);
            for &v in changed.iter().chain(&now) {
                self.reflag(v, round);
            }
            changed = now;
            let stops = round == JACOBI_ROUNDS || self.moved[round - 1] == 0;
            if stops != (round == self.rounds) {
                return None;
            }
        }
        for &v in &changed {
            active_prob[v.index()] = self.stage[self.rounds][v.index()];
        }
        Some(changed)
    }

    /// After holder `u`'s `q` changed, recompute the subtree gains that
    /// read it and write them into `gains`; returns the holders whose gain
    /// bits changed (unordered). The backward pass gives each holder `w`
    /// `G(w) = b(w) + Σ_j q_j·g_j`, where `g_j` is the final gain of a
    /// holder target positioned after `w` and the target's own benefit
    /// otherwise (the pass resets gains before its walk). So only `u` and,
    /// upstream of a changed gain, the holders positioned before it that
    /// distribute to it re-fold, in one descending scan from `u`.
    pub(crate) fn refresh_gains(
        &mut self,
        ledger: &Ledger<'_>,
        dists: &[NodeId],
        u: NodeId,
        gains: &mut [f64],
    ) -> Vec<NodeId> {
        let mut changed = Vec::new();
        let pu = self.pos[u.index()];
        if pu == NO_POS {
            return changed;
        }
        let data = ledger.data;
        self.pending[pu as usize] = true;
        for p in (0..=pu).rev() {
            if !std::mem::take(&mut self.pending[p as usize]) {
                continue;
            }
            let h = dist_holder(ledger, dists, p);
            let mut gain = data.benefit(h.node);
            for (&t, &qj) in h.targets.iter().zip(h.dp.q()) {
                let pt = self.pos[t.index()];
                let gt = if pt != NO_POS && pt <= p {
                    data.benefit(t)
                } else {
                    gains[t.index()]
                };
                gain += qj * gt;
            }
            self.work += 1;
            let w = h.node;
            if gain.to_bits() == gains[w.index()].to_bits() {
                continue;
            }
            gains[w.index()] = gain;
            changed.push(w);
            let m = self.member[w.index()] as usize;
            let refs = &self.in_refs[self.in_start[m] as usize..self.in_start[m + 1] as usize];
            for r in refs.iter().take_while(|r| r.pos < p) {
                self.pending[r.pos as usize] = true;
            }
        }
        changed
    }
}

/// The holder at position `p` of the distribution list `dists`.
fn dist_holder<'l>(ledger: &'l Ledger<'_>, dists: &[NodeId], p: u32) -> &'l Holder {
    ledger
        .holder(dists[p as usize])
        .expect("distribution holders hold coupons")
}

/// Backward pass: subtree gains in descending level order, reusing the
/// forward pass's distributions (holders with no eligible children are
/// no-ops — their gain stays their own benefit). `subtree_gain` must
/// arrive initialized to every node's own benefit.
pub(crate) fn accumulate_gains(dists: &[DistRef<'_>], data: &NodeData, subtree_gain: &mut [f64]) {
    for d in dists.iter().rev() {
        let mut gain = data.benefit(d.node);
        for (&v, &qj) in d.targets.iter().zip(d.q.iter()) {
            gain += qj * subtree_gain[v.index()];
        }
        subtree_gain[d.node.index()] = gain;
    }
}

/// `Σ_v P(v)·b(v)` over the spread members, in spread order.
pub(crate) fn benefit_sum(order: &[NodeId], active_prob: &[f64], data: &NodeData) -> f64 {
    order
        .iter()
        .map(|&v| active_prob[v.index()] * data.benefit(v))
        .sum()
}

impl SpreadState {
    /// Evaluate the deployment `(seeds, coupons)` analytically.
    pub fn evaluate(
        graph: &CsrGraph,
        data: &NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
    ) -> SpreadState {
        debug_assert_eq!(coupons.len(), graph.node_count());
        let n = graph.node_count();
        let mut seed_mask = vec![false; n];
        for &s in seeds {
            seed_mask[s.index()] = true;
        }
        let (levels, order) = spread_levels(graph, seeds, coupons);

        // (holder, eligible children, q per child) for every coupon holder
        // in the spread. Per-edge redemption probabilities q are static per
        // deployment (they depend only on each holder's ranked eligible
        // children and coupon count), so they are computed once and shared
        // by the forward and backward passes.
        let mut distributions: Vec<(NodeId, Vec<NodeId>, Vec<f64>)> = Vec::new();
        let mut elig_targets: Vec<NodeId> = Vec::new();
        let mut elig_probs: Vec<f64> = Vec::new();
        for &u in &order {
            let k = coupons[u.index()];
            if k == 0 {
                continue;
            }
            eligible_children(graph, &seed_mask, u, &mut elig_targets, &mut elig_probs);
            if elig_targets.is_empty() {
                continue;
            }
            let q = redemption_probs(&elig_probs, k);
            distributions.push((u, elig_targets.clone(), q));
        }
        let dists: Vec<DistRef<'_>> = distributions
            .iter()
            .map(|(u, targets, q)| DistRef {
                node: *u,
                targets,
                q,
            })
            .collect();

        let mut active_prob = vec![0.0f64; n];
        let mut complement = vec![1.0f64; n];
        propagate_activation(
            &dists,
            &order,
            seeds,
            &seed_mask,
            &mut active_prob,
            &mut complement,
            None,
        );

        // Outside the spread every node's gain is just its own benefit (no
        // coupons reach it during the current deployment).
        let mut subtree_gain: Vec<f64> = (0..n)
            .map(|i| data.benefit(NodeId::from_index(i)))
            .collect();
        accumulate_gains(&dists, data, &mut subtree_gain);

        let expected_benefit = benefit_sum(&order, &active_prob, data);

        SpreadState {
            levels,
            active_prob,
            subtree_gain,
            order,
            expected_benefit,
            seed_mask,
            coupons: coupons.to_vec(),
        }
    }

    /// First-order marginal effect of giving `u` `extra` additional coupons:
    /// `(ΔB, ΔCsc)` — the benefit delta weighted by `u`'s activation
    /// probability and downstream gains, and the local expected-SC-cost
    /// delta (paper Table I formula; independent of `u`'s activation).
    pub fn coupon_delta(
        &self,
        graph: &CsrGraph,
        data: &NodeData,
        u: NodeId,
        extra: u32,
    ) -> (f64, f64) {
        let k_old = self.coupons[u.index()];
        self.coupon_count_delta(graph, data, u, k_old + extra)
    }

    /// First-order effect of removing one coupon from `u` (the quantity the
    /// SCM deterioration index is built from). Both components are ≤ 0.
    pub fn coupon_removal_delta(&self, graph: &CsrGraph, data: &NodeData, u: NodeId) -> (f64, f64) {
        let k_old = self.coupons[u.index()];
        if k_old == 0 {
            return (0.0, 0.0);
        }
        self.coupon_count_delta(graph, data, u, k_old - 1)
    }

    /// `(ΔB, ΔCsc)` of changing `u`'s allocation from its current value to
    /// `new_k`, everything else held fixed.
    pub fn coupon_count_delta(
        &self,
        graph: &CsrGraph,
        data: &NodeData,
        u: NodeId,
        new_k: u32,
    ) -> (f64, f64) {
        let k_old = self.coupons[u.index()];
        let mut targets = Vec::new();
        let mut probs = Vec::new();
        eligible_children(graph, &self.seed_mask, u, &mut targets, &mut probs);
        if targets.is_empty() {
            return (0.0, 0.0);
        }
        let q_old = redemption_probs(&probs, k_old);
        let q_new = redemption_probs(&probs, new_k);
        let pu = self.active_prob[u.index()];
        let mut db = 0.0;
        let mut dc = 0.0;
        for ((&v, &qo), &qn) in targets.iter().zip(q_old.iter()).zip(q_new.iter()) {
            let dq = qn - qo;
            db += pu * dq * self.subtree_gain[v.index()];
            dc += dq * data.sc_cost(v);
        }
        (db, dc)
    }
}

/// Benefit and total cost of a standalone "seed package": `v` activated as a
/// seed with `k` coupons, evaluated in isolation (the quantity the ID phase
/// ranks its pivot-source queue by).
pub fn standalone_package(graph: &CsrGraph, data: &NodeData, v: NodeId, k: u32) -> (f64, f64) {
    let probs = graph.out_probs(v);
    let q = redemption_probs(probs, k);
    let mut benefit = data.benefit(v);
    let mut cost = data.seed_cost(v);
    for ((t, _), &qj) in graph.ranked_out(v).zip(q.iter()) {
        benefit += qj * data.benefit(t);
        cost += qj * data.sc_cost(t);
    }
    (benefit, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    const EPS: f64 = 1e-9;

    /// The Example 1 tree (see `osn_gen::fixtures::example1`; rebuilt here
    /// to keep this crate free of a dev-dependency cycle).
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
    fn example1_initial_deployment_benefit() {
        // Seed v1 with one SC: B = 1 + 0.6 + (1−0.6)·0.4 = 1.76.
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        assert!((s.expected_benefit - 1.76).abs() < EPS);
        assert!((s.active_prob[1] - 0.6).abs() < EPS);
        assert!((s.active_prob[2] - 0.16).abs() < EPS);
    }

    #[test]
    fn example1_iteration1_marginal_deltas() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);

        // SC to v1 (K1 = 2): ΔB = 0.24, ΔC = 0.24 → MR 1.
        let (db, dc) = s.coupon_delta(&g, &d, NodeId(0), 1);
        assert!((db - 0.24).abs() < EPS, "ΔB(v1) = {db}");
        assert!((dc - 0.24).abs() < EPS, "ΔC(v1) = {dc}");

        // SC to v2: ΔB = 0.42, ΔC = 0.7 → MR 0.6.
        let (db, dc) = s.coupon_delta(&g, &d, NodeId(1), 1);
        assert!((db - 0.42).abs() < EPS, "ΔB(v2) = {db}");
        assert!((dc - 0.7).abs() < EPS, "ΔC(v2) = {dc}");

        // SC to v3: ΔB = 0.1504, ΔC = 0.94 → MR 0.16.
        let (db, dc) = s.coupon_delta(&g, &d, NodeId(2), 1);
        assert!((db - 0.1504).abs() < EPS, "ΔB(v3) = {db}");
        assert!((dc - 0.94).abs() < EPS, "ΔC(v3) = {dc}");
        assert!((db / dc - 0.16).abs() < 1e-3);
    }

    #[test]
    fn deltas_match_full_reevaluation_on_trees() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        for cand in [0u32, 1, 2] {
            let (db, _) = s.coupon_delta(&g, &d, NodeId(cand), 1);
            let mut k2 = k.clone();
            k2[cand as usize] += 1;
            let s2 = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k2);
            assert!(
                (s2.expected_benefit - s.expected_benefit - db).abs() < EPS,
                "delta mismatch at v{cand}"
            );
        }
    }

    #[test]
    fn seed_is_excluded_from_rank_competition() {
        // Fig. 1(c) case 2 geometry: v2's top-ranked friend is the seed v1;
        // v2's single coupon must reach v3 unconditionally.
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 0, 0.36).unwrap(); // v2 -> v1 (seed)
        b.add_edge(1, 2, 0.2).unwrap(); //  v2 -> v3
        b.add_edge(0, 1, 0.5).unwrap(); //  v1 -> v2
        let g = b.build().unwrap();
        let d = NodeData::uniform(3, 3.0, 1.0, 1.0);
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &[1, 1, 0]);
        // P(v2) = 0.5; P(v3) = 0.5 · 0.2 (no (1 − 0.36) factor).
        assert!((s.active_prob[1] - 0.5).abs() < EPS);
        assert!((s.active_prob[2] - 0.1).abs() < EPS);
    }

    #[test]
    fn standalone_package_matches_hand_computation() {
        let (g, d) = example1();
        // v1 with 1 coupon: the paper's initial deployment —
        // B = 1 + 0.6 + (1−0.6)·0.4 = 1.76, C = 0 + 0.6 + 0.16 = 0.76.
        let (b, c) = standalone_package(&g, &d, NodeId(0), 1);
        assert!((b - 1.76).abs() < EPS);
        assert!((c - 0.76).abs() < EPS);
        // Leaf: no children, package is just the node itself.
        let (b, c) = standalone_package(&g, &d, NodeId(3), 5);
        assert!((b - 1.0).abs() < EPS);
        assert!((c - 100.0).abs() < EPS);
    }

    #[test]
    fn empty_deployment_is_zero() {
        let (g, d) = example1();
        let s = SpreadState::evaluate(&g, &d, &[], &[0; 7]);
        assert_eq!(s.expected_benefit, 0.0);
        assert!(s.order.is_empty());
    }

    #[test]
    fn spread_stops_at_couponless_nodes() {
        let (g, _) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let (levels, order) = spread_levels(&g, &[NodeId(0)], &k);
        // v2, v3 enter the spread; the leaves do not (v2/v3 hold no coupons).
        assert_eq!(order.len(), 3);
        assert_eq!(levels[3], None);
        k[1] = 1;
        let (levels, order) = spread_levels(&g, &[NodeId(0)], &k);
        assert_eq!(order.len(), 5);
        assert_eq!(levels[3], Some(2));
    }

    #[test]
    fn subtree_gains_accumulate_downstream() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        k[1] = 1; // v2 relays
        let s = SpreadState::evaluate(&g, &d, &[NodeId(0)], &k);
        // gain(v2) = 1 + 0.5 + 0.2 = 1.7 (k=1 over [0.5, 0.4]).
        assert!((s.subtree_gain[1] - 1.7).abs() < EPS);
        // gain(v1) = 1 + 0.6·1.7 + 0.16·1 = 2.18.
        assert!((s.subtree_gain[0] - 2.18).abs() < EPS);
    }
}
