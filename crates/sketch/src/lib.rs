//! # osn-sketch
//!
//! Reverse-reachability (RR/SSR) sketch estimation backend for the S3CRM
//! reproduction — the "estimate influence by reverse sampling" alternative
//! to forward Monte-Carlo, adapted to the paper's coupon-constrained
//! cascade and plugged into the greedy phases through the
//! [`osn_propagation::BenefitEstimator`] seam.
//!
//! ## Why reverse sketches
//!
//! A forward Monte-Carlo backend pays per *query*: every marginal probe of
//! the ID phase re-cascades the deployment over the world cache
//! (`O(worlds × cascade)`). Reverse sketches pay per *build*: sample
//! live-edge worlds once, extract benefit-weighted reverse-reachable sets,
//! and every subsequent probe is a postings-list walk over the sketches
//! containing the probed node. Greedy selection over thousands of probes
//! amortizes the build many times over.
//!
//! ## Adaptation to the coupon-constrained cascade
//!
//! Classic RR sets answer "would seeding `u` activate the root?" by set
//! membership alone. Under the paper's SC constraint an edge `(u, v)` only
//! fires while `u` still holds a coupon, and whether it does depends on
//! how many *earlier-ranked* attempts succeeded. Sketches therefore store
//! live **edges** annotated with a coupon *demand* — the number of live
//! higher-ranked out-edges of the source in that world — and query-time
//! coverage activates an edge iff its source holds **more** coupons than
//! the demand (`coupons[u] > demand`). This *static rank-demand gate* is
//! exact on trees and forests (a unique parent means no attempt is ever
//! skipped for free, so the live higher-ranked siblings are exactly the
//! coupon-consuming predecessors of the edge), and conservative on general
//! graphs: a sibling attempt on an already-active neighbor is skipped
//! without consuming a coupon in the true cascade, but still counts toward
//! the demand here, so sketch coverage can under-activate — never
//! over-activate. The equivalence tests pin the (ε, δ) agreement on forest
//! fixtures where both error sources vanish, and the CI-level CSV diff
//! bounds the end-to-end objective gap on general graphs.
//!
//! ## Crate layout
//!
//! * [`index`] — [`SketchIndex::build`]: world sampling (the same
//!   geometric skip sampler as the forward world cache),
//!   benefit-proportional root draws, reverse BFS extraction over the
//!   graph's reverse slots (each names its forward edge, so liveness and
//!   rank come straight from the world bitmap) with per-edge demands,
//!   Hoeffding sample-count floor with an OPIM-style adaptive doubling
//!   rule. Sketches are stored as flat arrays in member-slot order.
//! * [`estimator`] — [`SketchEstimator`]: the coverage oracle implementing
//!   [`BenefitEstimator`](osn_propagation::BenefitEstimator); it borrows
//!   the index's member and edge arrays in place and keeps only per-slot
//!   activation/reach bits of its own. Benefit reads are
//!   `unit × covered`, and committed moves update those bits incrementally
//!   through inverted postings. The deployment and all costs live in an
//!   [`osn_propagation::Ledger`], the same type the analytic engine keeps,
//!   so `Cseed`, `Csc` and every probe's ΔCsc are its exact Table I values,
//!   bit for bit (pinned by `tests/ledger.rs`).

#![forbid(unsafe_code)]

pub mod estimator;
pub mod index;

pub use estimator::SketchEstimator;
pub use index::{BuildStats, SketchIndex};

/// Build-time parameters of a [`SketchIndex`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SketchParams {
    /// Additive benefit-error target: the estimate is within
    /// `epsilon × B_total` of its mean with probability `1 − delta`.
    pub epsilon: f64,
    /// Failure probability of the Hoeffding guarantee.
    pub delta: f64,
    /// Sketches extracted per sampled world. Sketches sharing a world are
    /// correlated, so the Hoeffding floor counts *worlds*; more roots per
    /// world buy probe resolution without extra sampling passes.
    pub roots_per_world: usize,
    /// Hard cap on the total sketch count; reaching it before the adaptive
    /// continue rule is satisfied sets [`BuildStats::capped`].
    pub max_sketches: usize,
    /// Base RNG seed. World streams and root streams are salted apart, so
    /// sharing a seed with a forward [`osn_propagation::WorldCache`] never
    /// correlates the two.
    pub seed: u64,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            epsilon: 0.1,
            delta: 0.1,
            roots_per_world: 4,
            max_sketches: 1 << 18,
            seed: 0x5153,
        }
    }
}

impl SketchParams {
    /// Panic on parameter combinations the bounds are meaningless for.
    pub fn validate(&self) {
        assert!(
            self.epsilon > 0.0 && self.epsilon < 1.0,
            "epsilon must be in (0, 1), got {}",
            self.epsilon
        );
        assert!(
            self.delta > 0.0 && self.delta < 1.0,
            "delta must be in (0, 1), got {}",
            self.delta
        );
        assert!(self.roots_per_world >= 1, "roots_per_world must be >= 1");
    }

    /// The Hoeffding world floor `⌈ln(2/δ) / (2ε²)⌉` this parameterization
    /// implies — exposed so tests can pin the guarantee.
    pub fn world_floor(&self) -> usize {
        let g = (2.0 / self.delta).ln() / (2.0 * self.epsilon * self.epsilon);
        (g.ceil() as usize).max(1)
    }
}
