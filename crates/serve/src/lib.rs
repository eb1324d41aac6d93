//! `osn-serve` — a long-lived campaign-allocation daemon.
//!
//! The `repro` binary answers one experiment per process: it loads the
//! graph, samples every world cache, runs the campaign, and exits — so
//! back-to-back campaigns on the same network pay the full setup cost each
//! time. This crate keeps everything resident instead: the loaded dataset,
//! every sampled [`osn_propagation::McBackend`] (world cache + decoded
//! lane blocks), and the re-weighted graph variants live for the lifetime
//! of the process, shared zero-copy across concurrent campaigns.
//!
//! # Protocol
//!
//! Line-delimited text over TCP (`std::net` only — the build environment
//! has no async runtime, and none is needed for a thread-per-connection
//! daemon). Requests are single lines; multi-line replies are bracketed by
//! `OK …` and `END`:
//!
//! | request | reply |
//! |---|---|
//! | `PING` | `PONG` |
//! | `INFO` | `OK` + `key=value` lines + `END` |
//! | `CAMPAIGN k=v …` | `OK rows=N` + `SUMMARY`/`DEPLOY` CSV lines + `TELEMETRY …` + `END` |
//! | `PROBE k=v …` | `STATS benefit=… activated=… …` |
//! | `SHUTDOWN` | `BYE`, then the daemon stops accepting |
//!
//! Any malformed request gets a one-line `ERR <message>`.
//!
//! # Determinism
//!
//! Campaign replies contain no wall-clock data outside the `TELEMETRY`
//! line, and every algorithm in the workspace is bit-deterministic for a
//! given spec (world `i` is RNG stream `i`; see `osn-propagation`), so the
//! `SUMMARY` and `DEPLOY` lines of a campaign are byte-identical whether it
//! ran alone, concurrently with others, or in-process via
//! [`state::ServeState::run_campaign`] (the `loadgen --serial` reference
//! path). CI diffs the two at tolerance zero.
//!
//! # Concurrency model
//!
//! One OS thread per connection; campaigns share the process-wide
//! `osn-pool` for their inner parallelism. Each `map_indexed` fan-out is
//! claimed by idle pool workers and by the connection thread that issued
//! it; that thread then waits only for its own call and never runs another
//! connection's work, so a `PROBE` never ends up folding a campaign's
//! queued blocks. A thread the OS refuses to start drops only its
//! connection: the accept loop keeps going. The [`admission::Admission`]
//! gate bounds in-flight campaigns, and the [`batcher::ProbeBatcher`]
//! coalesces concurrent evaluation probes against the same resident
//! backend into single `simulate_batch` passes by group commit: a probe on
//! an idle backend runs at once, and probes that arrive while a batch runs
//! park and share the next one (batching is result-neutral because
//! batched simulation is bit-identical to lone simulation).
//!
//! # Failure semantics
//!
//! The daemon is long-lived, so every failure mode has a defined,
//! connection-local outcome — nothing takes the process down, wedges a
//! peer, or changes a result:
//!
//! * **Panics are isolated.** `CAMPAIGN`/`PROBE` execution runs under
//!   `catch_unwind`; a panicking request becomes a one-line
//!   `ERR internal: …` reply. Every resource it held returns via RAII —
//!   the admission [`admission::Permit`] releases on unwind, and a dying
//!   batch leader's [`batcher`] reign guard bumps the group generation,
//!   gives the followers its batch had taken a typed error instead of a
//!   hang, and hands leadership to the probes parked behind it.
//! * **Overload sheds, it does not queue.** A campaign that cannot get an
//!   admission slot within the configured wait is refused with
//!   `ERR BUSY retry-after-ms=N`; the [`client::RetryingClient`] honors
//!   the hint with jittered exponential backoff.
//! * **Slow or hostile peers are bounded.** Per-connection read/write
//!   socket deadlines ([`server::ServeOptions`]) cap how long a dead peer
//!   holds a thread, and request lines are read under a byte cap — an
//!   oversized line is drained in constant memory and answered with
//!   `ERR line too long` (the connection survives).
//!   World counts (`worlds=`, `eval_worlds=`, `im_worlds=`) above
//!   [`spec::MAX_WORLDS`] are refused at parse time with an `ERR` naming
//!   the key, so one request cannot make the daemon sample and keep a
//!   huge world cache.
//! * **Shutdown drains.** `SHUTDOWN` stops the accept loop, refuses new
//!   requests with `ERR draining`, lets in-flight campaigns finish under a
//!   deadline, then force-closes stragglers; [`server::Server::wait`]
//!   returns a [`server::DrainReport`] instead of panicking.
//! * **Retry cannot corrupt.** Campaigns are bit-deterministic per spec,
//!   so a retried submission returns the byte-identical reply the original
//!   would have — `loadgen --chaos` asserts exactly this while an
//!   `osn-fault` plan fires injected I/O errors, delays, and panics.
//!
//! The injection points themselves (`serve.campaign.run`,
//! `serve.batcher.*`, `serve.conn.*`, `graph.shard.open`)
//! compile to no-ops unless the `fault-injection` feature is on.

#![forbid(unsafe_code)]

pub mod admission;
pub mod batcher;
pub mod client;
pub mod server;
pub mod spec;
pub mod state;

pub use client::{CampaignError, Client, RetryPolicy, RetryingClient};
pub use server::{DrainReport, ServeOptions};
pub use spec::{CampaignSpec, WeightChoice};
pub use state::{CampaignReply, ServeState};
