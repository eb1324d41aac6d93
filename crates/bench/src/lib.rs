//! # s3crm-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (Sec. VI). Each experiment module corresponds to one
//! figure/table and prints the same rows/series the paper reports:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::fig6`] | Fig. 6 — investment efficiency (rate/benefit vs `Binv`, rate vs λ, running time) |
//! | [`experiments::fig7`] | Fig. 7 — seed–SC rate vs `Binv`, λ, κ |
//! | [`experiments::fig8`] | Fig. 8 — Airbnb / Booking.com case study vs gross margin |
//! | [`experiments::fig9`] | Fig. 9 — scalability (running time, explored ratio) |
//! | [`experiments::fig10`] | Fig. 10 — S3CA vs OPT vs the Theorem 2 worst-case bound |
//! | [`experiments::table3`] | Table III — average farthest hop from seeds |
//! | [`experiments::table4`] | Table IV — S3CA running time vs `Binv` |
//! | [`experiments::ablation`] | (extension) phase & evaluator ablations |
//! | [`experiments::dataset`] | (extension) Fig. 6-style sweep over a user dataset (`repro --data`) |
//!
//! Run everything with `cargo run -p s3crm-bench --release --bin repro`.
//! The [`dataset`] module is the instance choke point: it generates the
//! Table II profiles and loads real SNAP / `.oscg` datasets (`--data`,
//! `convert`).
//!
//! Absolute numbers differ from the paper (synthetic dataset substitutes,
//! different hardware); the harness is about reproducing the *shape*: who
//! wins, by roughly what factor, and how curves move with each swept
//! parameter.

#![forbid(unsafe_code)]

pub mod cli;
pub mod dataset;
pub mod effort;
pub mod experiments;
pub mod runner;
pub mod scenario;
pub mod table;

pub use effort::Effort;
pub use runner::EVAL_SALT;
pub use scenario::Algorithm;
pub use table::Table;
