//! The daemon's evaluation path: every `PROBE`, and every campaign's final
//! evaluation, runs one Monte-Carlo [`simulate`] on its resident backend —
//! one `osn-pool` `map_indexed` fold per request. Concurrent requests on
//! one backend fold side by side on the shared pool, each on its own
//! thread-local lane scratch; the backend's world cache is read-only, so
//! they take no lock.
//!
//! A panicking evaluation unwinds only its own request, which the
//! connection layer's `catch_unwind` turns into an `ERR internal` reply.
//!
//! # Why a type named `ProbeBatcher`
//!
//! Nothing is batched: merging concurrent evaluations on one backend into
//! one `simulate_batch` pass saved little, since on probe-stream about 99%
//! of such batches held one probe, and a lone `simulate` is bit-identical
//! to its element of a batch. The type keeps its name and its `submit`
//! signature because the benchmark's trace replay
//! (`perfbench/src/trace.rs`) calls `ProbeBatcher::{default, submit}`, so
//! the daemon and the replay run this one path. `submit` cannot fail (its
//! error type is [`Infallible`]), and its key is unused. `INFO` prints `probes=` and `probe_batches=` from the
//! one counter, because the benchmark's `serve.probes_per_batch` divides
//! the first by the second, and a missing key would read as 0.
//!
//! [`simulate`]: osn_propagation::MonteCarloEvaluator::simulate

use osn_graph::NodeId;
use osn_propagation::{McBackend, SimulationStats};
use s3crm_bench::dataset::LoadedDataset;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};

/// One per daemon: counts the evaluations it runs.
#[derive(Default)]
pub struct ProbeBatcher {
    probes: AtomicU64,
}

impl ProbeBatcher {
    /// Evaluate `(seeds, coupons)` on `backend` over `ds`.
    pub fn submit(
        &self,
        _key: &str,
        backend: &McBackend,
        ds: &LoadedDataset,
        seeds: Vec<NodeId>,
        coupons: Vec<u32>,
    ) -> Result<SimulationStats, Infallible> {
        // Chaos hook: a delay or a panic just before the simulation.
        osn_fault::point("serve.eval");
        let stats = backend
            .evaluator(&ds.graph, &ds.data)
            .simulate(&seeds, &coupons);
        self.probes.fetch_add(1, Ordering::Relaxed);
        Ok(stats)
    }

    /// Evaluations run so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}
