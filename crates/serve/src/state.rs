//! Resident daemon state: the loaded dataset, its re-weighted variants,
//! and every sampled Monte-Carlo backend, shared across concurrent
//! campaigns for the lifetime of the process.
//!
//! Immutability is the sharing model: graphs, node data, world caches, and
//! decoded lane blocks are all read-only after construction, so campaigns
//! borrow them zero-copy through `Arc`s — there is no per-campaign copy of
//! anything sized by the graph. The only mutable state is the two cache
//! maps and counters. Each map holds one `OnceLock` slot per key, so its
//! mutex only guards slot lookup: building a variant or sampling a backend
//! happens off the lock, and concurrent requesters of one key share the
//! single build.

use crate::admission::Admission;
use crate::batcher::ProbeBatcher;
use crate::spec::{algorithm_token, CampaignSpec, ProbeSpec, WeightChoice};
use osn_gen::seeded_rng;
use osn_gen::weights::assign_weights;
use osn_graph::GraphBuilder;
use osn_propagation::{McBackend, RedemptionReport, SimulationStats};
use s3crm_bench::dataset::{load_dataset, LoadedDataset};
use s3crm_bench::scenario::run_algorithm;
use s3crm_bench::Algorithm;
use s3crm_core::{s3ca_with_snapshot_backend, Telemetry};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Cache locks recover from poisoning: a campaign that panics while
/// holding one must not brick the cache for every later request (the panic
/// itself is reported via the dispatcher's isolation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cache of lazily built values, one `OnceLock` slot per key. The map
/// lock is held only to find or insert a slot; the build runs outside it,
/// so building one key never stalls lookups of another, and concurrent
/// requesters of the same key block on its slot and share one build. A
/// build that panics leaves its slot empty for the next requester.
type SlotMap<T> = Mutex<HashMap<String, Arc<OnceLock<Arc<T>>>>>;

fn get_or_build<T>(map: &SlotMap<T>, key: &str, build: impl FnOnce() -> T) -> Arc<T> {
    let slot = lock(map).entry(key.to_string()).or_default().clone();
    slot.get_or_init(|| Arc::new(build())).clone()
}

/// The values of `map` built so far.
fn built<T>(map: &SlotMap<T>) -> Vec<Arc<T>> {
    lock(map)
        .values()
        .filter_map(|slot| slot.get().cloned())
        .collect()
}

/// Salt separating evaluation worlds from the worlds the IM baselines
/// optimize on — identical to the `repro` runner's, so a campaign's final
/// evaluation uses the exact worlds a CLI run of the same spec would.
const EVAL_SALT: u64 = 0x0E7A_15A1;

/// Seed of the RNG that re-weights graph variants (only Trivalency draws
/// from it; the label alone must determine the variant).
const REWEIGHT_SEED: u64 = 0x0E1_6B7;

/// The daemon's shared state. One instance per process; every connection
/// thread works through the same `Arc<ServeState>`.
pub struct ServeState {
    dataset: Arc<LoadedDataset>,
    /// Re-weighted graph variants, keyed by [`WeightChoice::label`]. Each
    /// copies the whole graph, so it is built off the map lock.
    variants: SlotMap<LoadedDataset>,
    /// Resident backends keyed by `(variant, worlds, seed)`: concurrent
    /// campaigns needing *different* backends sample in parallel, while
    /// campaigns needing the *same* one share the single sampled cache.
    backends: SlotMap<McBackend>,
    admission: Admission,
    /// How long a campaign may wait for an admission slot before being shed
    /// with `BUSY retry-after-ms=…`.
    admission_wait: Duration,
    batcher: ProbeBatcher,
    campaigns: AtomicU64,
    shed: AtomicU64,
}

/// One campaign's reply, split into deterministic payload and telemetry.
#[derive(Clone, Debug)]
pub struct CampaignReply {
    /// CSV header of the one-row summary.
    pub summary_header: String,
    /// The summary row (deterministic — no wall-clock columns).
    pub summary_row: String,
    /// `node,seed,coupons` rows for every node that is a seed or holds
    /// coupons, ascending by node id.
    pub deploy_rows: Vec<String>,
    /// `key=value` timing/counters line — the only nondeterministic part.
    pub telemetry: String,
}

impl CampaignReply {
    /// The byte-comparable payload: `SUMMARY`- and `DEPLOY`-prefixed lines.
    /// Identical across serial, concurrent, and in-process runs of the same
    /// spec; CI diffs these at tolerance zero.
    pub fn deterministic_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("SUMMARY {}", self.summary_header),
            format!("SUMMARY {}", self.summary_row),
        ];
        lines.push("DEPLOY node,seed,coupons".to_string());
        lines.extend(self.deploy_rows.iter().map(|r| format!("DEPLOY {r}")));
        lines
    }

    /// Full wire reply, `OK … END` bracketed.
    pub fn wire_lines(&self) -> Vec<String> {
        let mut lines = vec![format!("OK rows={}", self.deploy_rows.len())];
        lines.extend(self.deterministic_lines());
        lines.push(format!("TELEMETRY {}", self.telemetry));
        lines.push("END".to_string());
        lines
    }

    /// Filter a wire reply (e.g. one read back by a client) down to the
    /// deterministic payload.
    pub fn deterministic_subset(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .filter(|l| l.starts_with("SUMMARY ") || l.starts_with("DEPLOY"))
            .cloned()
            .collect()
    }
}

impl ServeState {
    /// Load `path` (SNAP text or `.oscg` binary, monolithic or sharded) and
    /// stand up the resident state with the given admission bound. The
    /// dataset goes through [`load_dataset`], as `repro --data` loads it, so
    /// a sharded file is assembled into one in-memory graph.
    pub fn open(path: &Path, max_inflight: usize) -> Result<Self, String> {
        let dataset = load_dataset(path, &s3crm_bench::Effort::quick())
            .map_err(|e| format!("cannot load dataset {}: {e}", path.display()))?;
        Ok(ServeState {
            dataset: Arc::new(dataset),
            variants: SlotMap::default(),
            backends: SlotMap::default(),
            admission: Admission::new(max_inflight),
            // Generous default: campaigns on small fixtures finish in
            // milliseconds, so shedding only kicks in under real overload.
            admission_wait: Duration::from_secs(30),
            batcher: ProbeBatcher::default(),
            campaigns: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        })
    }

    /// Override how long a campaign waits for admission before being shed
    /// (`BUSY retry-after-ms=…`). Builder-style, used at daemon startup.
    pub fn with_admission_wait(mut self, wait: Duration) -> Self {
        self.admission_wait = wait;
        self
    }

    /// Campaigns shed with `BUSY` because the admission wait expired.
    pub fn shed_campaigns(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// The resident instance for a weight choice, building (and caching)
    /// the re-weighted variant on first use.
    pub fn variant(&self, weights: &WeightChoice) -> Arc<LoadedDataset> {
        let model = match weights {
            WeightChoice::Dataset => return self.dataset.clone(),
            WeightChoice::Model(m) => *m,
        };
        let label = weights.label();
        get_or_build(&self.variants, &label, || {
            let base = &self.dataset;
            let mut builder = GraphBuilder::new(base.graph.node_count());
            for u in base.graph.nodes() {
                for (v, p) in base.graph.ranked_out(u) {
                    builder
                        .add_edge(u.0, v.0, p)
                        .expect("copying a valid graph cannot fail");
                }
            }
            assign_weights(&mut builder, model, &mut seeded_rng(REWEIGHT_SEED));
            LoadedDataset {
                name: format!("{}+{label}", base.name),
                graph: builder.build().expect("re-weighted build"),
                // Node attributes are weight-independent; keep them so
                // variants stay comparable to the base instance.
                data: base.data.clone(),
                budget: base.budget,
            }
        })
    }

    /// The resident backend for `(variant, worlds, seed)`, sampling it on
    /// first use. Returns the key alongside so callers can address the
    /// probe batcher consistently.
    fn backend(
        &self,
        variant_label: &str,
        ds: &LoadedDataset,
        worlds: usize,
        seed: u64,
    ) -> (String, Arc<McBackend>) {
        let key = format!("{variant_label}|w{worlds}|s{seed}");
        let backend = get_or_build(&self.backends, &key, || {
            McBackend::sample(&ds.graph, worlds, seed)
        });
        (key, backend)
    }

    /// Run one campaign end to end. Waits a bounded time on the admission
    /// gate while the daemon is at capacity, then sheds with a typed
    /// `BUSY retry-after-ms=…` error a client can parse and retry on. The
    /// reply's deterministic lines depend only on the spec and the dataset —
    /// never on what else is in flight.
    pub fn run_campaign(&self, spec: &CampaignSpec) -> Result<CampaignReply, String> {
        let Some(_permit) = self.admission.acquire_within(self.admission_wait) else {
            self.shed.fetch_add(1, Ordering::Relaxed);
            // Hint scaled to the configured wait: by then a slot has either
            // freed up or the daemon is persistently saturated.
            let retry_ms = self.admission_wait.as_millis().clamp(10, 2_000);
            return Err(format!("BUSY retry-after-ms={retry_ms}"));
        };
        // Chaos site: fires *after* admission so injected panics exercise
        // the permit-returns-on-unwind guarantee.
        osn_fault::point("serve.campaign.run");
        let variant_label = spec.weights.label();
        let ds = self.variant(&spec.weights);
        let binv = ds.budget * spec.budget_mult;
        let effort = spec.effort();

        let t0 = Instant::now();
        let (deployment, telemetry): (_, Option<Telemetry>) = match spec.algorithm {
            // The S3CA variants go through the snapshot-backend seam so the
            // line-24 re-ranking runs on a resident world cache instead of
            // sampling one per request (bit-identical either way).
            Algorithm::S3ca | Algorithm::S3caIdOnly => {
                let mut cfg = if spec.algorithm == Algorithm::S3ca {
                    effort.s3ca_config()
                } else {
                    effort.s3ca_id_only()
                };
                cfg.sketch_epsilon = spec.epsilon;
                cfg.sketch_delta = spec.delta;
                let (_, backend) =
                    self.backend(&variant_label, &ds, cfg.snapshot_worlds, cfg.rng_seed);
                let r = s3ca_with_snapshot_backend(&ds.graph, &ds.data, binv, &cfg, Some(&backend));
                (r.deployment, Some(r.telemetry))
            }
            other => {
                let run =
                    run_algorithm(&ds.graph, &ds.data, binv, other, spec.limited_cap, &effort);
                (run.deployment, run.telemetry)
            }
        };

        // Final evaluation on the resident eval backend, through the probe
        // batcher so concurrent campaigns' evaluations share cache passes.
        let (eval_key, eval_backend) =
            self.backend(&variant_label, &ds, spec.eval_worlds, spec.seed ^ EVAL_SALT);
        let stats = self
            .batcher
            .submit(
                &eval_key,
                &eval_backend,
                &ds,
                deployment.seeds.clone(),
                deployment.coupons.clone(),
            )
            .map_err(|e| format!("internal: {e}"))?;
        let report = RedemptionReport::from_stats(
            &ds.graph,
            &ds.data,
            &deployment.seeds,
            &deployment.coupons,
            stats,
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.campaigns.fetch_add(1, Ordering::Relaxed);

        let summary_header = "algorithm,binv,redemption_rate,expected_benefit,total_cost,\
                              seed_cost,sc_cost,seeds,coupons,avg_farthest_hop,avg_activated"
            .replace([' '], "");
        let summary_row = format!(
            "{},{binv},{},{},{},{},{},{},{},{},{}",
            algorithm_token(spec.algorithm),
            report.redemption_rate,
            report.expected_benefit,
            report.total_cost,
            report.seed_cost,
            report.sc_cost,
            deployment.seeds.len(),
            deployment.total_coupons(),
            report.avg_farthest_hop,
            report.avg_activated,
        );
        let mut is_seed = vec![false; ds.graph.node_count()];
        for s in &deployment.seeds {
            is_seed[s.index()] = true;
        }
        let deploy_rows: Vec<String> = (0..ds.graph.node_count())
            .filter(|&v| is_seed[v] || deployment.coupons[v] > 0)
            .map(|v| format!("{v},{},{}", u8::from(is_seed[v]), deployment.coupons[v]))
            .collect();
        // fig9-style per-phase telemetry rides along for S3CA campaigns.
        let telemetry = match telemetry {
            Some(t) => format!(
                "wall_ms={wall_ms} id_micros={} gpi_micros={} scm_micros={} explored_ratio={} \
                 world_cache_bytes={} lane_worlds={}",
                t.id_micros,
                t.gpi_micros,
                t.scm_micros,
                t.explored_ratio,
                t.world_cache_bytes,
                t.lane_kernel_worlds,
            ),
            None => format!("wall_ms={wall_ms}"),
        };
        Ok(CampaignReply {
            summary_header,
            summary_row,
            deploy_rows,
            telemetry,
        })
    }

    /// Answer a `PROBE` request: one `STATS …` line.
    pub fn probe(&self, spec: &ProbeSpec) -> Result<String, String> {
        let variant_label = spec.weights.label();
        let ds = self.variant(&spec.weights);
        let n = ds.graph.node_count();
        let mut coupons = vec![0u32; n];
        for &(node, k) in &spec.coupons {
            if node.index() >= n {
                return Err(format!("coupon node {} outside graph of {n} nodes", node.0));
            }
            coupons[node.index()] = k;
        }
        if let Some(bad) = spec.seeds.iter().find(|s| s.index() >= n) {
            return Err(format!("seed {} outside graph of {n} nodes", bad.0));
        }
        let (key, backend) = self.backend(&variant_label, &ds, spec.worlds, spec.seed ^ EVAL_SALT);
        let stats: SimulationStats = self
            .batcher
            .submit(&key, &backend, &ds, spec.seeds.clone(), coupons)
            .map_err(|e| format!("internal: {e}"))?;
        Ok(format!(
            "STATS benefit={} activated={} redeemed_sc_cost={} farthest_hop={}",
            stats.expected_benefit,
            stats.mean_activated,
            stats.mean_redeemed_sc_cost,
            stats.mean_farthest_hop,
        ))
    }

    /// `key=value` lines answering an `INFO` request.
    pub fn info_lines(&self) -> Vec<String> {
        let mut resident_bytes = 0usize;
        let mut decoded_blocks = 0usize;
        let mut sampled = 0usize;
        for b in built(&self.backends) {
            sampled += 1;
            resident_bytes += b.cache().resident_bytes() as usize + b.lane_store().resident_bytes();
            decoded_blocks += b.lane_store().decoded_blocks();
        }
        let (probes, batches) = self.batcher.counters();
        vec![
            format!("dataset={}", self.dataset.name),
            format!("nodes={}", self.dataset.graph.node_count()),
            format!("edges={}", self.dataset.graph.edge_count()),
            format!("base_budget={}", self.dataset.budget),
            format!("variants={}", built(&self.variants).len()),
            format!("backends={sampled}"),
            format!("resident_bytes={resident_bytes}"),
            format!("decoded_lane_blocks={decoded_blocks}"),
            format!("inflight={}", self.admission.in_flight()),
            format!("inflight_cap={}", self.admission.capacity()),
            format!(
                "campaigns_served={}",
                self.campaigns.load(Ordering::Relaxed)
            ),
            format!("campaigns_shed={}", self.shed.load(Ordering::Relaxed)),
            format!("probes={probes}"),
            format!("probe_batches={batches}"),
            format!("probe_batches_failed={}", self.batcher.failed_probes()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/fixtures/smoke_snap.txt")
    }

    #[test]
    fn identical_specs_reuse_one_resident_backend() {
        let state = ServeState::open(&fixture(), 4).expect("open");
        let spec = CampaignSpec::default();
        let a = state.run_campaign(&spec).expect("first campaign");
        let b = state.run_campaign(&spec).expect("second campaign");
        assert_eq!(a.deterministic_lines(), b.deterministic_lines());
        let backends: Vec<String> = state.info_lines();
        // One snapshot backend + one eval backend, not four.
        assert!(
            backends.contains(&"backends=2".to_string()),
            "expected 2 resident backends, info: {backends:?}"
        );
        assert!(backends.contains(&"campaigns_served=2".to_string()));
    }

    #[test]
    fn reweighted_variants_are_cached_and_differ_from_the_dataset() {
        let state = ServeState::open(&fixture(), 2).expect("open");
        let uniform = WeightChoice::Model(osn_gen::weights::WeightModel::Uniform(0.05));
        let v1 = state.variant(&uniform);
        let v2 = state.variant(&uniform);
        assert!(Arc::ptr_eq(&v1, &v2), "variant rebuilt instead of cached");
        assert_eq!(v1.graph.node_count(), state.dataset.graph.node_count());
        assert_eq!(v1.graph.edge_count(), state.dataset.graph.edge_count());
        let base = state.variant(&WeightChoice::Dataset);
        assert!(Arc::ptr_eq(&base, &state.dataset));
    }

    /// Variants build off the map lock: concurrent requests for one label
    /// share a single build, and distinct labels are each cached.
    #[test]
    fn concurrent_variant_requests_share_one_build_per_label() {
        use osn_gen::weights::WeightModel;
        let state = ServeState::open(&fixture(), 2).expect("open");
        let labels = [
            WeightChoice::Model(WeightModel::Uniform(0.1)),
            WeightChoice::Model(WeightModel::InverseInDegree),
        ];
        let built: Vec<(usize, Arc<LoadedDataset>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (state, labels) = (&state, &labels);
                    s.spawn(move || (i % 2, state.variant(&labels[i % 2])))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (label, ds) in &built {
            let again = state.variant(&labels[*label]);
            assert!(Arc::ptr_eq(ds, &again), "label {label} was built twice");
        }
        assert!(!Arc::ptr_eq(&built[0].1, &built[1].1));
        assert!(
            state.info_lines().contains(&"variants=2".to_string()),
            "both labels stay cached: {:?}",
            state.info_lines()
        );
    }

    #[test]
    fn sharded_dataset_matches_monolithic() {
        use s3crm_bench::dataset::convert_sharded;
        let dir = s3crm_tests::TempDir::new("serve-sharded");
        let sharded_path = dir.file("smoke.oscg");
        let shards = convert_sharded(&fixture(), &sharded_path, 2).expect("convert");
        assert_eq!(shards, 2);

        // Partitioning is a storage choice only: the same campaign spec on
        // the monolithic fixture must reply byte-identically.
        let sharded = ServeState::open(&sharded_path, 2).expect("open sharded");
        let monolithic = ServeState::open(&fixture(), 2).expect("open monolithic");
        let spec = CampaignSpec::default();
        let a = sharded.run_campaign(&spec).expect("sharded campaign");
        let b = monolithic.run_campaign(&spec).expect("monolithic campaign");
        assert_eq!(a.deterministic_lines(), b.deterministic_lines());
    }

    #[test]
    fn probe_matches_campaign_evaluation_backend() {
        let state = ServeState::open(&fixture(), 2).expect("open");
        let line = state
            .probe(&ProbeSpec::parse("worlds=32 seed=5 seeds=0;1 coupons=2:1").unwrap())
            .expect("probe");
        assert!(line.starts_with("STATS benefit="), "{line}");
        assert!(
            state
                .probe(&ProbeSpec::parse("seeds=4096").unwrap())
                .is_err(),
            "out-of-range seed must be rejected"
        );
    }
}
