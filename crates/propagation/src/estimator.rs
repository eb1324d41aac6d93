//! The pluggable estimation seam of the greedy phases.
//!
//! [`BenefitEstimator`] abstracts the *stateful* estimation surface the
//! greedy loops drive: the maintained deployment view (`order`,
//! `active_prob`, the benefit estimate, and the [`Ledger`] that holds the
//! deployment and its exact costs), the committed moves
//! (`add_coupons`, `add_seed_package`, `remove_coupons`) with their
//! [`RefreshDelta`] change reports, and the read-only marginal probes
//! (`coupon_add_delta`, `coupon_removal_delta`). One-shot evaluation of a
//! fixed deployment needs no seam: it is
//! [`SpreadState::evaluate`](crate::spread::SpreadState::evaluate)
//! (analytic) or [`McBackend::evaluator`](crate::monte_carlo::McBackend::evaluator)
//! (Monte Carlo).
//!
//! Two implementations exist:
//!
//! * [`SpreadEngine`](crate::engine::SpreadEngine) — the exact analytic
//!   reference. Its impl is pure delegation to the inherent methods, so the
//!   generic greedy loops monomorphize to the very same floating-point
//!   sequences as before the seam existed; the PR 4 bit-identity pins hold
//!   unchanged.
//! * `SketchEstimator` (crate `osn-sketch`) — reverse-reachability coverage
//!   oracle with exact analytic costs.
//!
//! Both own one [`Ledger`]: callers read the deployment there, and the cost
//! accessors are provided methods reading it.
//!
//! ## Contract
//!
//! * `order` must contain every node with positive `active_prob` (seeds
//!   included), deterministically ordered; the ID phase iterates it to
//!   enumerate candidates and uses positions for tie-breaks.
//! * `seed_cost`/`sc_cost` must be **exact** (Table I analytic values):
//!   budget feasibility is not allowed to drift with the benefit estimator.
//!   `coupon_add_delta`'s cost component must be exact for the same reason;
//!   its benefit component carries the backend's estimation error.
//! * A [`RefreshDelta`] must name every node whose *probe inputs* changed
//!   (via `probs_changed`/`gains_changed`/`eligibility_changed`), and set
//!   `structural` whenever `order` membership or positions changed — the
//!   lazy-greedy heap re-scores exactly the union of those reports, so an
//!   under-report silently serves stale marginals.

use crate::engine::{EngineCounters, RefreshDelta};
use crate::ledger::{DeltaScratch, Ledger};
use osn_graph::NodeId;

/// Stateful benefit/cost estimator of one evolving deployment — the seam
/// between the greedy phases and the estimation backend. See the module
/// docs for the contract.
pub trait BenefitEstimator {
    /// Deterministic enumeration of the current spread support (every node
    /// with positive activation probability, seeds included).
    fn order(&self) -> &[NodeId];

    /// Per-node activation probability estimates.
    fn active_prob(&self) -> &[f64];

    /// The current deployment (seeds, coupons) and its exact costs.
    fn ledger(&self) -> &Ledger<'_>;

    /// Estimated expected benefit `B(S, K(I))` of the current deployment.
    fn expected_benefit(&self) -> f64;

    /// Exact `Cseed(S)`.
    fn seed_cost(&self) -> f64 {
        self.ledger().seed_cost()
    }

    /// Exact `Csc(K(I))` (Table I allocation cost).
    fn sc_cost(&self) -> f64 {
        self.ledger().sc_cost()
    }

    /// Evaluation-effort counters accumulated so far.
    fn counters(&self) -> EngineCounters;

    /// `(ΔB, ΔCsc)` of giving `u` one more coupon. ΔCsc must be exact; ΔB
    /// carries the backend's estimation error.
    fn coupon_add_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64);

    /// `(ΔB, ΔCsc)` of retrieving one coupon from `u` (both ≤ 0 in the
    /// usual case). ΔCsc must be exact.
    fn coupon_removal_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64);

    /// Give `u` up to `count` extra coupons (capped at its out-degree).
    /// Returns the number actually added and the change report.
    fn add_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta);

    /// Activate `v` as a seed bundled with `coupons` coupons (idempotent on
    /// the seed itself).
    fn add_seed_package(&mut self, v: NodeId, coupons: u32) -> RefreshDelta;

    /// Retrieve up to `count` coupons from `u`. Returns the number removed
    /// and the change report.
    fn remove_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta);
}

impl BenefitEstimator for crate::engine::SpreadEngine<'_> {
    fn order(&self) -> &[NodeId] {
        crate::engine::SpreadEngine::order(self)
    }

    fn active_prob(&self) -> &[f64] {
        crate::engine::SpreadEngine::active_prob(self)
    }

    fn ledger(&self) -> &Ledger<'_> {
        crate::engine::SpreadEngine::ledger(self)
    }

    fn expected_benefit(&self) -> f64 {
        crate::engine::SpreadEngine::expected_benefit(self)
    }

    fn counters(&self) -> EngineCounters {
        crate::engine::SpreadEngine::counters(self)
    }

    fn coupon_add_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        crate::engine::SpreadEngine::coupon_add_delta(self, u, scratch)
    }

    fn coupon_removal_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64) {
        crate::engine::SpreadEngine::coupon_removal_delta(self, u, scratch)
    }

    fn add_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        crate::engine::SpreadEngine::add_coupons(self, u, count)
    }

    fn add_seed_package(&mut self, v: NodeId, coupons: u32) -> RefreshDelta {
        crate::engine::SpreadEngine::add_seed_package(self, v, coupons)
    }

    fn remove_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta) {
        crate::engine::SpreadEngine::remove_coupons(self, u, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpreadEngine;
    use osn_graph::{CsrGraph, GraphBuilder, NodeData};

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

    /// The trait impl for the engine is pure delegation: every surface value
    /// is bit-identical to the inherent accessor.
    #[test]
    fn engine_trait_is_pure_delegation() {
        let (g, d) = example1();
        let mut k = vec![0u32; 7];
        k[0] = 1;
        let mut engine = SpreadEngine::new(&g, &d, &[NodeId(0)], &k);
        let (added, _) = BenefitEstimator::add_coupons(&mut engine, NodeId(0), 1);
        assert_eq!(added, 1);
        let est: &dyn BenefitEstimator = &engine;
        assert_eq!(
            est.expected_benefit().to_bits(),
            SpreadEngine::expected_benefit(&engine).to_bits()
        );
        assert_eq!(
            est.sc_cost().to_bits(),
            SpreadEngine::sc_cost(&engine).to_bits()
        );
        assert_eq!(est.order(), SpreadEngine::order(&engine));
    }
}
