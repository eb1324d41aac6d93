//! # s3crm-baselines
//!
//! The comparison algorithms of Sec. VI, plus an exact small-instance
//! solver:
//!
//! * [`strategy`] — the two real-world coupon strategies the baselines are
//!   paired with: **Unlimited** (Uber/Lyft/Hotels.com: `K_i = |N(v_i)|`)
//!   and **Limited(k)** (Dropbox/Airbnb/Booking.com: `K_i = k`, default
//!   32), funded under the budget by [`CouponStrategy::deploy`].
//! * [`im`] — influence maximization (Kempe et al. greedy with CELF lazy
//!   evaluation over a Monte-Carlo world cache), with the paper's seed-size
//!   sweep `|V|/2^n, n = 0..10` under the budget constraint → **IM-U**,
//!   **IM-L**.
//! * [`pm`] — profit maximization (greedy on `B(S) − Cseed(S)` \[17\])
//!   → **PM-U**, **PM-L**.
//! * [`im_s`](mod@im_s) — the paper's two-stage heuristic: IM seeds, then uniform SC
//!   distribution along `1 − P` shortest paths connecting the seeds.
//! * [`random_seeds`] — random feasible deployment (sanity floor).
//! * [`opt`] — branch-and-bound exhaustive search for the Fig. 10 optimum
//!   on small instances, with the Theorem 2 worst-case bound check.

#![forbid(unsafe_code)]

pub mod common;
pub mod im;
pub mod im_s;
pub mod opt;
pub mod pm;
pub mod random_seeds;
pub mod ris;
pub mod strategy;

pub use im::{im_with_strategy, ImConfig};
pub use im_s::im_s;
pub use opt::{exhaustive_opt, OptConfig};
pub use pm::pm_with_strategy;
pub use strategy::CouponStrategy;
