//! The unit of batched evaluation.
//!
//! Greedy loops submit whole candidate lists to
//! [`MonteCarloEvaluator::simulate_batch`](crate::monte_carlo::MonteCarloEvaluator::simulate_batch)
//! instead of serial per-candidate calls, so one pass over the world cache
//! serves every candidate. The contract is exact: element `i` of the batch
//! result is bit-identical to evaluating `batch[i]` alone.

use osn_graph::NodeId;

/// A borrowed candidate deployment — the unit of batched evaluation. The
/// greedy loops own many trial `(seeds, coupons)` pairs; this view lets them
/// submit a batch without cloning either vector.
#[derive(Clone, Copy, Debug)]
pub struct DeploymentRef<'a> {
    /// Seed set `S`.
    pub seeds: &'a [NodeId],
    /// Per-node coupon counts `k_i`, indexed by node id.
    pub coupons: &'a [u32],
}
