//! The pluggable estimation seam of the Investment Deployment loop.
//!
//! [`BenefitEstimator`] is exactly the surface the ID phase's greedy loop
//! (Alg. 1 lines 1–24, `s3crm_core::id_phase::investment_deployment_with`)
//! drives: the maintained deployment view (`order`, the per-node candidacy
//! test `is_active`, the benefit estimate, and the [`Ledger`] that holds
//! the deployment and its exact costs), the two monotone committed moves
//! (`add_coupons`, `add_seed_package`) with their [`RefreshDelta`] change
//! reports, and the read-only add probe (`coupon_add_delta`). SC Maneuver
//! (lines 25–39) always runs on the exact
//! [`SpreadEngine`](crate::engine::SpreadEngine), names it as a concrete
//! type, and uses its inherent retrieval surface (`remove_coupons`,
//! `coupon_removal_delta`, `active_prob`). One-shot evaluation of a fixed
//! deployment needs no seam: it is a freshly built
//! [`SpreadEngine`](crate::engine::SpreadEngine) (analytic) or
//! [`McBackend::evaluator`](crate::monte_carlo::McBackend::evaluator)
//! (Monte Carlo).
//!
//! Two implementations exist, each defining every method once:
//!
//! * [`SpreadEngine`](crate::engine::SpreadEngine) — the exact analytic
//!   reference. The loop is generic, so it monomorphizes to the engine's
//!   own code: the floating-point sequence is the reference ID loop's, bit
//!   for bit.
//! * `SketchEstimator` (crate `osn-sketch`) — reverse-reachability coverage
//!   oracle with exact analytic costs.
//!
//! Both own one [`Ledger`]: callers read the deployment and its costs
//! there.
//!
//! ## Contract
//!
//! * `order` must contain exactly the nodes for which `is_active` holds
//!   (seeds included), deterministically ordered; the ID phase iterates it
//!   to enumerate candidates and uses positions for tie-breaks.
//! * The ledger's `seed_cost`/`sc_cost` are **exact** (Table I analytic
//!   values): budget feasibility is not allowed to drift with the benefit
//!   estimator. `coupon_add_delta`'s cost component must be exact for the
//!   same reason; its benefit component carries the backend's estimation
//!   error.
//! * A [`RefreshDelta`] must name every node whose *probe inputs* changed
//!   (via `probs_changed`/`gains_changed`/`eligibility_changed`), and set
//!   `structural` whenever `order` membership or positions changed — the
//!   lazy-greedy heap re-scores exactly the union of those reports, so an
//!   under-report silently serves stale marginals.

use crate::engine::{EngineCounters, RefreshDelta};
use crate::ledger::{DeltaScratch, Ledger};
use osn_graph::NodeId;

/// Stateful benefit/cost estimator of one evolving deployment — the seam
/// between the ID loop and the estimation backend. See the module docs for
/// the contract.
pub trait BenefitEstimator {
    /// Deterministic enumeration of the current spread support (every node
    /// for which [`is_active`](Self::is_active) holds).
    fn order(&self) -> &[NodeId];

    /// Whether `u` is in the spread support: a seed, or a node with
    /// positive estimated activation. Only such nodes are coupon
    /// candidates.
    fn is_active(&self, u: NodeId) -> bool;

    /// The current deployment (seeds, coupons) and its exact costs.
    fn ledger(&self) -> &Ledger<'_>;

    /// Estimated expected benefit `B(S, K(I))` of the current deployment.
    fn expected_benefit(&self) -> f64;

    /// Evaluation-effort counters accumulated so far.
    fn counters(&self) -> EngineCounters;

    /// `(ΔB, ΔCsc)` of giving `u` one more coupon. ΔCsc must be exact; ΔB
    /// carries the backend's estimation error.
    fn coupon_add_delta(&self, u: NodeId, scratch: &mut DeltaScratch) -> (f64, f64);

    /// Give `u` up to `count` extra coupons (capped at its out-degree).
    /// Returns the number actually added and the change report.
    fn add_coupons(&mut self, u: NodeId, count: u32) -> (u32, RefreshDelta);

    /// Activate `v` as a seed bundled with `coupons` coupons (idempotent on
    /// the seed itself).
    fn add_seed_package(&mut self, v: NodeId, coupons: u32) -> RefreshDelta;
}
