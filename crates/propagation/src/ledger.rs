//! The deployment ledger: one evolving deployment `(S, K(I))` and its exact
//! Table I costs, the one copy every stateful estimator keeps.
//!
//! It holds the seeds (insertion order), the seed mask, the coupons, the
//! running `Cseed(S)`, and one [`Holder`] per coupon holder — eligible
//! ranked children, cached [`RankDp`] and cost term — listed in ascending
//! node order, the summation order of `Csc`. A first coupon builds a
//! holder and further coupons extend its DP in O(deg); a new seed rebuilds
//! its in-neighbours' holders (a seed never receives coupons); a retrieval
//! rebuilds or drops the donor's.
//!
//! The ledger is the one production path for Table-I costs: the ID loop,
//! SC Maneuver, the objective and [`RedemptionReport`](crate::RedemptionReport)
//! all read theirs here, and the Fig. 1 package costs are pinned against it
//! below. Every cost and probe is bit-identical to the from-scratch test
//! oracles, [`expected_sc_cost`](crate::cost::expected_sc_cost) and the
//! [`SpreadState`](crate::spread::SpreadState) deltas (pinned by the
//! engine's proptests and `osn-sketch`'s `tests/ledger.rs`).

use crate::cost::{holder_cost, seed_cost};
use crate::rank::{redemption_probs_into, RankDp};
use crate::spread::eligible_children;
use osn_graph::{CsrGraph, NodeData, NodeId};

const NO_SLOT: u32 = u32::MAX;

/// One coupon holder's maintained distribution. The ledger hands holders
/// out by shared reference only, so their fields are read-only outside it.
#[derive(Clone, Debug)]
pub struct Holder {
    pub node: NodeId,
    /// Eligible ranked children (non-seed out-neighbors, rank order).
    pub targets: Vec<NodeId>,
    /// Influence probabilities parallel to `targets`.
    pub probs: Vec<f64>,
    /// Rank DP at the holder's coupon count; `dp.q()` parallels `targets`.
    pub dp: RankDp,
    /// `Σ_j q_j · c_sc(target_j)` — this holder's Table-I cost term.
    pub local_cost: f64,
}

/// Reusable probe buffers (one per greedy loop; avoids an allocation per
/// candidate).
#[derive(Clone, Debug, Default)]
pub struct DeltaScratch {
    targets: Vec<NodeId>,
    probs: Vec<f64>,
    q_new: Vec<f64>,
}

/// One evolving deployment and its exact costs. See the module docs.
#[derive(Clone, Debug)]
pub struct Ledger<'a> {
    pub(crate) graph: &'a CsrGraph,
    pub(crate) data: &'a NodeData,
    seeds: Vec<NodeId>,
    seed_mask: Vec<bool>,
    coupons: Vec<u32>,
    seed_cost: f64,
    /// Node → index into `holders` (`NO_SLOT` when it holds no coupons).
    slot: Vec<u32>,
    holders: Vec<Holder>,
    /// Every holder's node, ascending.
    holder_nodes: Vec<NodeId>,
    holder_rebuilds: u64,
}

impl<'a> Ledger<'a> {
    /// The ledger of `(seeds, coupons)`, every holder built from scratch.
    pub fn new(
        graph: &'a CsrGraph,
        data: &'a NodeData,
        seeds: &[NodeId],
        coupons: &[u32],
    ) -> Ledger<'a> {
        debug_assert_eq!(coupons.len(), graph.node_count());
        let n = graph.node_count();
        let mut ledger = Ledger {
            graph,
            data,
            seeds: seeds.to_vec(),
            seed_mask: vec![false; n],
            coupons: coupons.to_vec(),
            seed_cost: 0.0,
            slot: vec![NO_SLOT; n],
            holders: Vec::new(),
            holder_nodes: Vec::new(),
            holder_rebuilds: 0,
        };
        ledger.rebuild();
        ledger
    }

    /// Recompute the mask, the seed cost and every holder from the seeds
    /// and coupons alone.
    pub fn rebuild(&mut self) {
        self.slot.fill(NO_SLOT);
        self.holders.clear();
        self.holder_nodes.clear();
        self.seed_mask.fill(false);
        for &s in &self.seeds {
            self.seed_mask[s.index()] = true;
        }
        self.seed_cost = seed_cost(self.data, &self.seeds);
        let count = self.coupons.iter().filter(|&&k| k > 0).count();
        self.holders.reserve(count);
        self.holder_nodes.reserve(count);
        for i in 0..self.coupons.len() {
            if self.coupons[i] > 0 {
                let holder = self.build_holder(NodeId::from_index(i), self.coupons[i]);
                self.insert_holder(holder);
            }
        }
    }

    /// The seeds, in insertion order.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    pub fn seed_mask(&self) -> &[bool] {
        &self.seed_mask
    }

    pub fn is_seed(&self, v: NodeId) -> bool {
        self.seed_mask[v.index()]
    }

    pub fn coupons(&self) -> &[u32] {
        &self.coupons
    }

    /// `Cseed(S)`, bit-identical to [`seed_cost`].
    pub fn seed_cost(&self) -> f64 {
        self.seed_cost
    }

    /// `Csc(K(I))`: the holders' cost terms summed in ascending node order.
    pub fn sc_cost(&self) -> f64 {
        let mut total = 0.0;
        for &v in &self.holder_nodes {
            total += self.holders[self.slot[v.index()] as usize].local_cost;
        }
        total
    }

    /// `v`'s holder, if it holds coupons.
    pub fn holder(&self, v: NodeId) -> Option<&Holder> {
        let s = self.slot[v.index()];
        (s != NO_SLOT).then(|| &self.holders[s as usize])
    }

    /// Every coupon holder, ascending.
    pub fn holder_nodes(&self) -> &[NodeId] {
        &self.holder_nodes
    }

    /// Holder DPs built from scratch so far.
    pub fn holder_rebuilds(&self) -> u64 {
        self.holder_rebuilds
    }

    /// Give `u` up to `count` extra coupons, capped at its out-degree (a
    /// user never refers more friends than they have); returns the number
    /// added. A holder extends its DP; a first coupon builds the holder.
    pub fn add_coupons(&mut self, u: NodeId, count: u32) -> u32 {
        let cur = self.coupons[u.index()];
        let add = self.grant(u, count);
        if add > 0 && cur > 0 {
            let holder = &mut self.holders[self.slot[u.index()] as usize];
            for _ in 0..add {
                holder.dp.extend_one(&holder.probs);
            }
            holder.local_cost = holder_cost(self.data, &holder.targets, holder.dp.q());
        } else if add > 0 {
            let holder = self.build_holder(u, add);
            self.insert_holder(holder);
        }
        add
    }

    /// Make `v` a seed bundled with up to `coupons` coupons (the ID phase's
    /// seed package; idempotent on the seed). A new seed leaves its
    /// in-neighbours' child sets, so their holders rebuild; the package
    /// builds `v`'s holder, or rebuilds it if `v` held coupons already.
    /// Returns whether `v` is a new seed.
    pub fn add_seed(&mut self, v: NodeId, coupons: u32) -> bool {
        let fresh = !self.seed_mask[v.index()];
        if fresh {
            self.seeds.push(v);
            self.seed_mask[v.index()] = true;
            self.seed_cost += self.data.seed_cost(v);
            for &src in self.graph.in_sources(v) {
                let s = self.slot[src.index()];
                if s != NO_SLOT {
                    self.holders[s as usize] = self.build_holder(src, self.coupons[src.index()]);
                }
            }
        }
        let cur = self.coupons[v.index()];
        let add = self.grant(v, coupons);
        if add > 0 {
            let holder = self.build_holder(v, cur + add);
            match self.slot[v.index()] {
                NO_SLOT => self.insert_holder(holder),
                s => self.holders[s as usize] = holder,
            }
        }
        fresh
    }

    /// Retrieve up to `count` coupons from `u` (the SC-Maneuver donor
    /// move); returns the number removed. The donor's DP rebuilds (a
    /// saturating distribution cannot shrink in place), or its holder goes
    /// with its last coupon.
    pub fn remove_coupons(&mut self, u: NodeId, count: u32) -> u32 {
        let cur = self.coupons[u.index()];
        let take = count.min(cur);
        if take == 0 {
            return 0;
        }
        self.coupons[u.index()] = cur - take;
        let s = self.slot[u.index()] as usize;
        if take < cur {
            self.holders[s] = self.build_holder(u, cur - take);
            return take;
        }
        self.holders.swap_remove(s);
        self.slot[u.index()] = NO_SLOT;
        if let Some(moved) = self.holders.get(s) {
            self.slot[moved.node.index()] = s as u32;
        }
        let at = self.holder_nodes.binary_search(&u);
        self.holder_nodes
            .remove(at.expect("every holder is listed"));
        take
    }

    /// Visit `(child, Δq)` of one more coupon at `u`, in rank order, in
    /// O(deg): a holder reads its cached availability sums, a fresh
    /// candidate runs the k = 0 → 1 closed form. Each Δq has the bits of the
    /// `q_new − q_old` that `SpreadState::coupon_delta` computes.
    pub fn add_probe(
        &self,
        u: NodeId,
        scratch: &mut DeltaScratch,
        mut visit: impl FnMut(NodeId, f64),
    ) {
        if let Some(h) = self.holder(u) {
            scratch.q_new.resize(h.targets.len(), 0.0);
            h.dp.extended_q_into(&h.probs, &mut scratch.q_new);
            for ((&v, &qo), &qn) in h.targets.iter().zip(h.dp.q()).zip(&scratch.q_new) {
                visit(v, qn - qo);
            }
            return;
        }
        let s = scratch;
        eligible_children(self.graph, &self.seed_mask, u, &mut s.targets, &mut s.probs);
        // q_old is +0.0, so Δq is the k = 1 row itself: availability E_0,
        // the running product of failure probabilities.
        let mut e0 = 1.0f64;
        for (&v, &p) in s.targets.iter().zip(&s.probs) {
            visit(v, p * e0);
            e0 *= 1.0 - p;
        }
    }

    /// Visit `(child, Δq)` of one coupon fewer at `u` (nothing without
    /// coupons). The k − 1 row is rebuilt in O(deg·k), as only SCM donors
    /// probe it.
    pub fn removal_probe(
        &self,
        u: NodeId,
        scratch: &mut DeltaScratch,
        mut visit: impl FnMut(NodeId, f64),
    ) {
        let Some(h) = self.holder(u) else {
            return;
        };
        scratch.q_new.resize(h.targets.len(), 0.0);
        redemption_probs_into(&h.probs, self.coupons[u.index()] - 1, &mut scratch.q_new);
        for ((&v, &qo), &qn) in h.targets.iter().zip(h.dp.q()).zip(&scratch.q_new) {
            visit(v, qn - qo);
        }
    }

    /// Exact `ΔCsc` of one more coupon at `u`.
    pub fn add_cost_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> f64 {
        let mut dc = 0.0;
        self.add_probe(u, scratch, |v, dq| dc += dq * self.data.sc_cost(v));
        dc
    }

    /// Raise `u`'s count by up to `count`, capped at its out-degree.
    fn grant(&mut self, u: NodeId, count: u32) -> u32 {
        let cur = self.coupons[u.index()];
        let add = count.min((self.graph.out_degree(u) as u32).saturating_sub(cur));
        self.coupons[u.index()] = cur + add;
        add
    }

    /// One holder from scratch: children at the current seed mask, DP at
    /// `k`, cost term.
    fn build_holder(&mut self, node: NodeId, k: u32) -> Holder {
        let deg = self.graph.out_degree(node);
        let mut targets = Vec::with_capacity(deg);
        let mut probs = Vec::with_capacity(deg);
        eligible_children(self.graph, &self.seed_mask, node, &mut targets, &mut probs);
        let dp = RankDp::build(&probs, k);
        let local_cost = holder_cost(self.data, &targets, dp.q());
        self.holder_rebuilds += 1;
        Holder {
            node,
            targets,
            probs,
            dp,
            local_cost,
        }
    }

    fn insert_holder(&mut self, holder: Holder) {
        let at = self.holder_nodes.binary_search(&holder.node);
        let at = at.expect_err("a node holds at most one distribution");
        self.holder_nodes.insert(at, holder.node);
        self.slot[holder.node.index()] = self.holders.len() as u32;
        self.holders.push(holder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::GraphBuilder;

    const EPS: f64 = 1e-9;

    /// Fig. 1 reconstruction (see `osn_gen::fixtures::fig1`).
    fn fig1() -> (CsrGraph, NodeData) {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 3, 0.55).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 0, 0.36).unwrap();
        b.add_edge(1, 2, 0.2).unwrap();
        b.add_edge(2, 3, 0.7).unwrap();
        b.add_edge(2, 1, 0.5).unwrap();
        b.add_edge(3, 4, 0.9).unwrap();
        let d = NodeData::new(
            vec![3.0, 3.0, 3.0, 3.0, 6.0],
            vec![1.0, 1.54, 1.5, 100.0, 100.0],
            vec![1.0; 5],
        )
        .unwrap();
        (b.build().unwrap(), d)
    }

    /// `Cseed + Csc` of one seed and sparse `(node, k)` coupons.
    fn package_cost(seed: u32, coupons: &[(usize, u32)]) -> f64 {
        let (g, d) = fig1();
        let mut k = vec![0u32; 5];
        for &(v, c) in coupons {
            k[v] = c;
        }
        let ledger = Ledger::new(&g, &d, &[NodeId(seed)], &k);
        ledger.seed_cost() + ledger.sc_cost()
    }

    #[test]
    fn fig1_im_package_cost() {
        // Seed v3 with 2 SCs: 1.5 + (0.7 + 0.5) = 2.7.
        let c = package_cost(2, &[(2, 2)]);
        assert!((c - 2.7).abs() < EPS, "IM cost = {c}");
    }

    #[test]
    fn fig1_pm_package_cost() {
        // Seed v1 with 2 SCs: 1 + (0.55 + 0.5) = 2.05.
        let c = package_cost(0, &[(0, 2)]);
        assert!((c - 2.05).abs() < EPS, "PM cost = {c}");
    }

    #[test]
    fn fig1_case2_cost_excludes_seed_from_competition() {
        // Seed v1, SCs on v1 and v2: 1 + (0.55 + 0.5·0.45) + 0.2 = 1.975.
        let c = package_cost(0, &[(0, 1), (1, 1)]);
        assert!((c - 1.975).abs() < EPS, "case-2 cost = {c}");
    }

    #[test]
    fn fig1_case3_cost() {
        // Seed v1, SCs on v1 and v4: 1 + (0.55 + 0.225) + 0.9 = 2.675.
        let c = package_cost(0, &[(0, 1), (3, 1)]);
        assert!((c - 2.675).abs() < EPS, "case-3 cost = {c}");
    }
}
