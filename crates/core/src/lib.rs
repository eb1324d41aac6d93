//! # s3crm-core
//!
//! The paper's primary contribution: **S3CA**, the Seed Selection and Social
//! Coupon allocation Algorithm for the S3CRM problem (Chang et al., ICDE
//! 2019).
//!
//! ## The problem (Sec. III)
//!
//! Given an OSN with per-user benefit `b(v)`, seed cost `c_seed(v)` and
//! coupon cost `c_sc(v)`, pick a seed set `S`, internal nodes `I` and a
//! coupon allocation `K(I)` maximizing the **redemption rate**
//!
//! ```text
//!        B(S, K(I))
//!   ─────────────────────        subject to  Cseed + Csc ≤ Binv .
//!   Cseed(S) + Csc(K(I))
//! ```
//!
//! S3CRM is NP-hard and inapproximable beyond `1 − 1/e + ε` (Theorem 1).
//!
//! ## The algorithm (Sec. IV)
//!
//! S3CA runs three phases, one module each:
//!
//! 1. [`id_phase`] — **Investment Deployment**: greedy by *marginal
//!    redemption* over three strategies (broaden the spread, deepen it, or
//!    start a new seed — the latter gated by the *pivot source* queue of
//!    [`pivot`]); keeps the intermediate deployment with the best rate.
//! 2. [`gpi`] — **Guaranteed Path Identification**: a rank-ordered DFS per
//!    seed discovering budget-feasible "guaranteed paths" to valuable
//!    inactive users (every edge independent, no coupon competition).
//! 3. [`scm`] — **SC Maneuver**: reallocates coupons from low
//!    deterioration-index donors to guaranteed-path receivers whenever the
//!    amelioration index says the move pays, committing only maneuvers that
//!    improve the global redemption rate.
//!
//! [`s3ca`](s3ca::s3ca) orchestrates the phases and records telemetry
//! (explored ratio, per-phase wall time) used by the Fig. 9 scalability
//! experiments. [`bounds`] computes the Theorem 2 approximation ratio
//! `1 − e^{−1/(b0·c0)} − ε` backing the Fig. 10 worst-case curves.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod deployment;
pub mod gpi;
pub mod id_phase;
pub mod objective;
pub mod pivot;
pub mod s3ca;
pub mod scm;

pub use deployment::Deployment;
pub use objective::ObjectiveValue;
pub use osn_sketch::SketchIndex;
pub use s3ca::{
    s3ca, s3ca_with_resident, s3ca_with_snapshot_backend, EstimatorBackend, S3caConfig, S3caResult,
    Telemetry,
};
