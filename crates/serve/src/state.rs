//! Resident daemon state: the loaded dataset, its re-weighted variants,
//! the sampled Monte-Carlo backends, the sketch indexes and the pivot
//! lists, shared across concurrent campaigns and kept under one byte
//! budget.
//!
//! Immutability is the sharing model: graphs, node data, world caches
//! (their lane blocks), sketch indexes and pivot lists are all read-only
//! after construction, so campaigns borrow them zero-copy through `Arc`s —
//! there is no per-campaign copy of anything sized by the graph. The only
//! mutable state is one cache map and the counters. The map holds one
//! `OnceLock` slot per `(kind, key)`, whatever the value's kind, so its
//! mutex only guards slot lookup: building a variant, sampling a backend
//! or building an index happens off the lock, and concurrent requesters of
//! one key share the single build.
//!
//! Every cached value is a deterministic function of its key, so the map
//! may drop an entry and rebuild it later without changing any reply. It
//! does so under [`RESIDENT_BUDGET_BYTES`]: after a miss, one pass under
//! the map lock evicts the least-recently-used entries that no request
//! holds, of any kind, until the map fits.

use crate::admission::Admission;
use crate::batcher::ProbeBatcher;
use crate::spec::{algorithm_token, CampaignSpec, ProbeSpec, WeightChoice};
use osn_gen::seeded_rng;
use osn_gen::weights::assign_weights;
use osn_graph::{GraphBuilder, NodeId};
use osn_propagation::{McBackend, RedemptionReport, SimulationStats};
use s3crm_bench::dataset::{load_dataset, LoadedDataset};
use s3crm_bench::scenario::run_algorithm;
use s3crm_bench::{Algorithm, EVAL_SALT};
use s3crm_core::pivot::PivotList;
use s3crm_core::{s3ca_with_resident, EstimatorBackend, S3caConfig, SketchIndex, Telemetry};
use std::any::Any;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Cache locks recover from poisoning: a campaign that panics while
/// holding one must not brick the cache for every later request (the panic
/// itself is reported via the dispatcher's isolation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Byte budget over every evictable resident entry: re-weighted variants,
/// Monte-Carlo backends, sketch indexes and pivot lists. The base dataset
/// is not counted. The benchmark's largest resident set (one 1024-world
/// backend on 1.6M edges, held as lane blocks) is about 300 MB, so no
/// shipped workload evicts.
pub const RESIDENT_BUDGET_BYTES: usize = 2 << 30;

/// A cached value: read-only once built, and charged its bytes against
/// [`RESIDENT_BUDGET_BYTES`].
trait Resident: Any + Send + Sync {
    fn resident_bytes(&self) -> usize;
}

impl Resident for LoadedDataset {
    /// A variant's own graph; its node data is the base dataset's.
    fn resident_bytes(&self) -> usize {
        self.graph.resident_bytes()
    }
}

impl Resident for McBackend {
    fn resident_bytes(&self) -> usize {
        self.cache().resident_bytes() as usize
    }
}

impl Resident for SketchIndex {
    fn resident_bytes(&self) -> usize {
        SketchIndex::resident_bytes(self)
    }
}

impl Resident for PivotList {
    fn resident_bytes(&self) -> usize {
        PivotList::resident_bytes(self)
    }
}

/// What a cache entry holds: a re-weighted graph variant
/// ([`LoadedDataset`]), a Monte-Carlo backend, a sketch index or a pivot
/// list. `INFO` counts the built entries per kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Variant,
    Backend,
    Index,
    Pivots,
}

/// One cached value: its build slot, and the tick of its last lookup. A
/// build that panics leaves its slot empty for the next requester.
struct Entry {
    slot: Arc<OnceLock<Arc<dyn Resident>>>,
    used: u64,
}

/// Seed of the RNG that re-weights graph variants (only Trivalency draws
/// from it; the label alone must determine the variant).
const REWEIGHT_SEED: u64 = 0x0E1_6B7;

/// The daemon's shared state. One instance per process; every connection
/// thread works through the same `Arc<ServeState>`.
pub struct ServeState {
    dataset: Arc<LoadedDataset>,
    /// Every cached value, keyed by its kind and its key:
    /// - variants by [`WeightChoice::label`] (each copies the whole graph);
    /// - backends by `(variant, worlds, seed)`, so concurrent campaigns
    ///   needing *different* backends sample in parallel, while campaigns
    ///   needing the *same* one share the single sampled cache;
    /// - sketch indexes by `(variant, ε, δ, seed)` — everything an index
    ///   depends on — so every budget of one sketch campaign family runs
    ///   on one build;
    /// - pivot lists by variant: a list depends on the graph and node data
    ///   only, so every S3CA campaign on a variant, at any budget and
    ///   under either estimator, runs on one build.
    resident: Mutex<HashMap<(Kind, String), Entry>>,
    /// Byte budget over the map ([`RESIDENT_BUDGET_BYTES`]).
    resident_budget: usize,
    /// Source of the entries' last-use stamps (one LRU order).
    tick: AtomicU64,
    /// A request that ends should run an eviction pass: set by a pass that
    /// found held entries over the budget. Entries never grow after their
    /// build, so a pass that fit the budget owes no second one.
    settle_due: AtomicBool,
    evictions: AtomicU64,
    admission: Admission,
    /// How long a campaign may wait for an admission slot before being shed
    /// with `BUSY retry-after-ms=…`.
    admission_wait: Duration,
    /// Runs and counts every evaluation (`PROBE` and final).
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
            resident: Mutex::default(),
            resident_budget: RESIDENT_BUDGET_BYTES,
            tick: AtomicU64::new(0),
            settle_due: AtomicBool::new(false),
            evictions: AtomicU64::new(0),
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

    /// Override the resident byte budget (tests exercise eviction with
    /// small ones).
    #[cfg(test)]
    pub(crate) fn with_resident_budget(mut self, bytes: usize) -> Self {
        self.resident_budget = bytes;
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
        self.get_or_build(Kind::Variant, &label, || {
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
    /// first use. Returns its cache key alongside.
    fn backend(
        &self,
        variant_label: &str,
        ds: &LoadedDataset,
        worlds: usize,
        seed: u64,
    ) -> (String, Arc<McBackend>) {
        let key = format!("{variant_label}|w{worlds}|s{seed}");
        let backend = self.get_or_build(Kind::Backend, &key, || {
            McBackend::sample(&ds.graph, worlds, seed)
        });
        (key, backend)
    }

    /// The resident sketch index for S3CA under `cfg` on a variant,
    /// building it on first use.
    fn sketch_index(
        &self,
        variant_label: &str,
        ds: &LoadedDataset,
        cfg: &S3caConfig,
    ) -> Arc<SketchIndex> {
        let params = cfg.sketch_params();
        let key = format!(
            "{variant_label}|e{:?}|d{:?}|s{}",
            params.epsilon, params.delta, params.seed
        );
        self.get_or_build(Kind::Index, &key, || {
            SketchIndex::build(&ds.graph, &ds.data, &params)
        })
    }

    /// The resident pivot list of a variant, building it on first use.
    fn pivot_list(&self, variant_label: &str, ds: &LoadedDataset) -> Arc<PivotList> {
        self.get_or_build(Kind::Pivots, variant_label, || {
            PivotList::build(&ds.graph, &ds.data)
        })
    }

    /// Look `(kind, key)` up, stamping its last use, and build it on a
    /// miss. Hits do nothing more; a miss then runs an eviction pass.
    fn get_or_build<T: Resident>(
        &self,
        kind: Kind,
        key: &str,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let slot = {
            let mut map = lock(&self.resident);
            let entry = map.entry((kind, key.to_string())).or_insert_with(|| Entry {
                slot: Arc::default(),
                used: 0,
            });
            entry.used = self.tick.fetch_add(1, Ordering::Relaxed);
            entry.slot.clone()
        };
        let mut missed = false;
        let value = slot
            .get_or_init(|| {
                missed = true;
                Arc::new(build())
            })
            .clone();
        drop(slot);
        if missed {
            self.settle();
        }
        let value: Arc<dyn Any + Send + Sync> = value;
        value
            .downcast()
            .expect("a cache key names one kind of value")
    }

    /// Evict least-recently-used entries no request holds, of any kind,
    /// until the map fits the budget. An entry larger than the budget stays
    /// while it is held and goes on the first pass after that.
    fn settle(&self) {
        let mut map = lock(&self.resident);
        let mut resident = 0;
        // `(last use, key, bytes)` of every entry no request holds: the map
        // has the only reference to both its slot and its value. Slots are
        // cloned only under the map lock, so with the slot unique nobody
        // can take a new reference to the value while this pass holds it.
        let mut lru: Vec<(u64, (Kind, String), usize)> = Vec::new();
        for (key, e) in map.iter_mut() {
            let bytes = e.slot.get().map_or(0, |v| v.resident_bytes());
            resident += bytes;
            if Arc::get_mut(&mut e.slot)
                .is_some_and(|slot| slot.get_mut().is_none_or(|v| Arc::get_mut(v).is_some()))
            {
                lru.push((e.used, key.clone(), bytes));
            }
        }
        lru.sort_unstable_by_key(|&(used, ..)| used);
        // Values are dropped after the lock is released.
        let mut gone = Vec::new();
        for (_, key, bytes) in lru {
            if resident <= self.resident_budget {
                break;
            }
            gone.extend(map.remove(&key));
            resident -= bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.settle_due
            .store(resident > self.resident_budget, Ordering::SeqCst);
        drop(map);
        drop(gone);
    }

    /// Run the eviction pass a finished request owes, if any. Called once a
    /// request has released everything it looked up.
    fn settle_if_due(&self) {
        if self.settle_due.load(Ordering::SeqCst) {
            self.settle();
        }
    }

    /// Run one campaign end to end. Waits a bounded time on the admission
    /// gate while the daemon is at capacity, then sheds with a typed
    /// `BUSY retry-after-ms=…` error a client can parse and retry on. The
    /// reply's deterministic lines depend only on the spec and the dataset —
    /// never on what else is in flight.
    pub fn run_campaign(&self, spec: &CampaignSpec) -> Result<CampaignReply, String> {
        let reply = self.campaign(spec);
        self.settle_if_due();
        reply
    }

    fn campaign(&self, spec: &CampaignSpec) -> Result<CampaignReply, String> {
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
            // The S3CA variants run on resident structures: the line-24
            // re-ranking on a resident world cache, the ID phase on a
            // resident pivot list and, under the sketch estimator, on a
            // resident index, instead of building any per request
            // (bit-identical either way).
            Algorithm::S3ca | Algorithm::S3caIdOnly => {
                let cfg = spec.s3ca_config();
                let (_, backend) =
                    self.backend(&variant_label, &ds, cfg.snapshot_worlds, cfg.rng_seed);
                let index = (cfg.estimator == EstimatorBackend::Sketch)
                    .then(|| self.sketch_index(&variant_label, &ds, &cfg));
                let pivots = self.pivot_list(&variant_label, &ds);
                let r = s3ca_with_resident(
                    &ds.graph,
                    &ds.data,
                    binv,
                    &cfg,
                    Some(&backend),
                    index.as_deref(),
                    Some(&pivots),
                );
                (r.deployment, Some(r.telemetry))
            }
            other => {
                let run =
                    run_algorithm(&ds.graph, &ds.data, binv, other, spec.limited_cap, &effort);
                (run.deployment, run.telemetry)
            }
        };

        let stats = self.evaluate(
            &variant_label,
            &ds,
            spec.eval_worlds,
            spec.seed,
            deployment.seeds.clone(),
            deployment.coupons.clone(),
        );
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

    /// Evaluate `(seeds, coupons)` on the resident eval backend of
    /// `(variant, worlds, seed)`: the one evaluation step of every `PROBE`
    /// and of every campaign's final evaluation. It folds beside any other
    /// request's evaluation on that backend.
    fn evaluate(
        &self,
        variant_label: &str,
        ds: &LoadedDataset,
        worlds: usize,
        seed: u64,
        seeds: Vec<NodeId>,
        coupons: Vec<u32>,
    ) -> SimulationStats {
        let (key, backend) = self.backend(variant_label, ds, worlds, seed ^ EVAL_SALT);
        let Ok(stats) = self.batcher.submit(&key, &backend, ds, seeds, coupons);
        stats
    }

    /// Answer a `PROBE` request: one `STATS …` line.
    pub fn probe(&self, spec: &ProbeSpec) -> Result<String, String> {
        let reply = self.probe_reply(spec);
        self.settle_if_due();
        reply
    }

    fn probe_reply(&self, spec: &ProbeSpec) -> Result<String, String> {
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
        let stats = self.evaluate(
            &variant_label,
            &ds,
            spec.worlds,
            spec.seed,
            spec.seeds.clone(),
            coupons,
        );
        Ok(format!(
            "STATS benefit={} activated={} redeemed_sc_cost={} farthest_hop={}",
            stats.expected_benefit,
            stats.mean_activated,
            stats.mean_redeemed_sc_cost,
            stats.mean_farthest_hop,
        ))
    }

    /// `key=value` lines answering an `INFO` request. The per-kind counts
    /// and `resident_bytes=` come from one look at the cache map.
    pub fn info_lines(&self) -> Vec<String> {
        let built: Vec<(Kind, usize)> = lock(&self.resident)
            .iter()
            .filter_map(|((kind, _), e)| Some((*kind, e.slot.get()?.resident_bytes())))
            .collect();
        let count = |kind| built.iter().filter(|&&(k, _)| k == kind).count();
        let resident_bytes: usize = built.iter().map(|&(_, bytes)| bytes).sum();
        let probes = self.batcher.probes();
        vec![
            format!("dataset={}", self.dataset.name),
            format!("nodes={}", self.dataset.graph.node_count()),
            format!("edges={}", self.dataset.graph.edge_count()),
            format!("base_budget={}", self.dataset.budget),
            format!("variants={}", count(Kind::Variant)),
            format!("backends={}", count(Kind::Backend)),
            format!("sketch_indexes={}", count(Kind::Index)),
            format!("pivot_lists={}", count(Kind::Pivots)),
            format!("resident_bytes={resident_bytes}"),
            format!("resident_budget_bytes={}", self.resident_budget),
            format!("evictions={}", self.evictions.load(Ordering::Relaxed)),
            format!("inflight={}", self.admission.in_flight()),
            format!("inflight_cap={}", self.admission.capacity()),
            format!(
                "campaigns_served={}",
                self.campaigns.load(Ordering::Relaxed)
            ),
            format!("campaigns_shed={}", self.shed.load(Ordering::Relaxed)),
            format!("probes={probes}"),
            // Each evaluation is a batch of one; the key stays for the
            // benchmark's probes-per-batch ratio.
            format!("probe_batches={probes}"),
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

    /// The value of `key=` in `INFO`.
    fn info(state: &ServeState, key: &str) -> usize {
        let prefix = format!("{key}=");
        state
            .info_lines()
            .iter()
            .find_map(|l| l.strip_prefix(&prefix)?.parse().ok())
            .unwrap_or_else(|| panic!("INFO has no numeric {key}="))
    }

    fn sketch_spec(body: &str) -> CampaignSpec {
        CampaignSpec::parse(&format!("estimator=sketch {body}")).expect("valid spec")
    }

    /// A hit and a miss reply with the same bytes. At a zero budget every
    /// entry is evicted after use, so every request rebuilds; at a budget
    /// of half the working set some entries survive; at the default none is
    /// evicted. Each spec runs twice per state.
    #[test]
    fn sketch_campaigns_reply_the_same_bytes_at_every_budget() {
        let specs: Vec<CampaignSpec> = [("0.1", "0.1"), ("0.05", "0.2")]
            .iter()
            .flat_map(|(e, d)| {
                ["data", "invdeg"]
                    .map(|w| sketch_spec(&format!("epsilon={e} delta={d} weights={w}")))
            })
            .collect();
        let reference = ServeState::open(&fixture(), 2).expect("open");
        let expected: Vec<Vec<String>> = specs
            .iter()
            .map(|s| {
                reference
                    .run_campaign(s)
                    .expect("campaign")
                    .deterministic_lines()
            })
            .collect();
        assert_eq!(info(&reference, "sketch_indexes"), 4);
        let working_set = info(&reference, "resident_bytes");
        for budget in [0, working_set / 2, RESIDENT_BUDGET_BYTES] {
            let state = ServeState::open(&fixture(), 2)
                .expect("open")
                .with_resident_budget(budget);
            for _ in 0..2 {
                for (spec, want) in specs.iter().zip(&expected) {
                    let got = state.run_campaign(spec).expect("campaign");
                    assert_eq!(&got.deterministic_lines(), want, "budget {budget}");
                    if budget == 0 {
                        assert_eq!(info(&state, "resident_bytes"), 0);
                        assert_eq!(info(&state, "sketch_indexes"), 0);
                        assert_eq!(info(&state, "pivot_lists"), 0);
                    }
                }
            }
            let evictions = info(&state, "evictions");
            if budget == RESIDENT_BUDGET_BYTES {
                assert_eq!(evictions, 0);
            } else {
                assert!(evictions > 0, "budget {budget} never evicted");
            }
        }
    }

    /// The index depends on the variant, ε, δ and seed, never on the
    /// budget: a 9-rung budget ladder at one key builds it once. The pivot
    /// list depends on the variant alone: the ladder builds it once, and a
    /// second ladder under the Monte-Carlo estimator reuses it.
    #[test]
    fn a_budget_ladder_builds_one_sketch_index() {
        let state = ServeState::open(&fixture(), 2).expect("open");
        let ladder = [0.5, 0.6, 0.7, 0.85, 1.0, 1.2, 1.4, 1.7, 2.0];
        for m in ladder {
            state
                .run_campaign(&sketch_spec(&format!("budget={m}")))
                .expect("campaign");
        }
        assert_eq!(info(&state, "sketch_indexes"), 1);
        assert_eq!(info(&state, "pivot_lists"), 1);
        for m in ladder {
            let spec = CampaignSpec::parse(&format!("estimator=mc budget={m}")).unwrap();
            state.run_campaign(&spec).expect("campaign");
        }
        assert_eq!(info(&state, "sketch_indexes"), 1);
        assert_eq!(info(&state, "pivot_lists"), 1);
        assert_eq!(info(&state, "evictions"), 0);
    }

    /// Every distinct `seed=` samples a new backend. Under a budget of one
    /// sketch campaign's working set, a flood of them keeps the resident
    /// bytes within the budget.
    #[test]
    fn a_distinct_seed_flood_stays_within_the_budget() {
        let measure = ServeState::open(&fixture(), 2).expect("open");
        measure
            .run_campaign(&sketch_spec("seed=0"))
            .expect("campaign");
        let budget = info(&measure, "resident_bytes");
        let state = ServeState::open(&fixture(), 2)
            .expect("open")
            .with_resident_budget(budget);
        for i in 1..=16u64 {
            if i % 2 == 0 {
                state
                    .run_campaign(&sketch_spec(&format!("seed={i}")))
                    .expect("campaign");
            } else {
                let probe = format!("worlds=64 seed={i} seeds=0;1 coupons=2:1");
                state
                    .probe(&ProbeSpec::parse(&probe).unwrap())
                    .expect("probe");
            }
            let resident = info(&state, "resident_bytes");
            assert!(resident <= budget, "request {i}: {resident} > {budget}");
            if i >= 2 {
                assert!(info(&state, "evictions") > 0, "request {i}");
            }
        }
    }

    /// No request loses an entry it holds: concurrent campaigns under a
    /// one-byte budget reply as a serial default state does, and a variant
    /// the test holds survives every eviction pass until it is released.
    #[test]
    fn held_entries_survive_eviction_and_replies_match_serial() {
        use osn_gen::weights::WeightModel;
        let invdeg = WeightChoice::Model(WeightModel::InverseInDegree);
        let specs: Vec<CampaignSpec> = (0..8)
            .map(|i| {
                let epsilon = if i % 2 == 0 { "0.1" } else { "0.05" };
                let weights = if i % 4 < 2 { "invdeg" } else { "data" };
                sketch_spec(&format!(
                    "epsilon={epsilon} weights={weights} seed={}",
                    i / 2
                ))
            })
            .collect();
        let serial = ServeState::open(&fixture(), 2).expect("open");
        let expected: Vec<Vec<String>> = specs
            .iter()
            .map(|s| {
                serial
                    .run_campaign(s)
                    .expect("campaign")
                    .deterministic_lines()
            })
            .collect();

        let state = ServeState::open(&fixture(), 4)
            .expect("open")
            .with_resident_budget(1);
        let held = state.variant(&invdeg);
        let got: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let state = &state;
                    s.spawn(move || state.run_campaign(spec).expect("campaign"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().deterministic_lines())
                .collect()
        });
        assert_eq!(got, expected);
        assert!(info(&state, "evictions") > 0);
        assert!(
            Arc::ptr_eq(&held, &state.variant(&invdeg)),
            "a held variant was evicted"
        );
        drop(held);
        state
            .run_campaign(&sketch_spec("seed=99"))
            .expect("campaign");
        assert_eq!(info(&state, "variants"), 0, "released variant stayed");
        assert_eq!(info(&state, "resident_bytes"), 0);
    }

    /// One LRU order spans the kinds. Under a budget that fits all but one
    /// byte of a variant, a backend, a sketch index and a pivot list,
    /// building the last of them evicts exactly the least recently used of
    /// the other three, whichever kinds they are.
    #[test]
    fn eviction_follows_one_lru_order_across_kinds() {
        use osn_gen::weights::WeightModel;
        let kinds = [
            (Kind::Variant, "variants"),
            (Kind::Backend, "backends"),
            (Kind::Index, "sketch_indexes"),
            (Kind::Pivots, "pivot_lists"),
        ];
        // Build or look up the one entry of `kind`; nothing stays held.
        let touch = |state: &ServeState, kind: Kind| {
            let ds = &state.dataset;
            match kind {
                Kind::Variant => {
                    drop(state.variant(&WeightChoice::Model(WeightModel::InverseInDegree)))
                }
                Kind::Backend => drop(state.backend("data", ds, 64, 7)),
                Kind::Index => drop(state.sketch_index("data", ds, &S3caConfig::default())),
                Kind::Pivots => drop(state.pivot_list("data", ds)),
            }
        };
        let reference = ServeState::open(&fixture(), 2).expect("open");
        for (kind, _) in kinds {
            touch(&reference, kind);
        }
        let budget = info(&reference, "resident_bytes") - 1;
        for (last, _) in kinds {
            let others: Vec<Kind> = kinds
                .iter()
                .map(|&(k, _)| k)
                .filter(|&k| k != last)
                .collect();
            for &oldest in &others {
                let state = ServeState::open(&fixture(), 2)
                    .expect("open")
                    .with_resident_budget(budget);
                // Build the other three, then touch all but `oldest` again.
                for &kind in &others {
                    touch(&state, kind);
                }
                for &kind in others.iter().rev().filter(|&&k| k != oldest) {
                    touch(&state, kind);
                }
                touch(&state, last);
                let case = format!("{oldest:?} least recently used, then {last:?} built");
                assert_eq!(info(&state, "evictions"), 1, "{case}");
                for (kind, key) in kinds {
                    assert_eq!(
                        info(&state, key),
                        usize::from(kind != oldest),
                        "{key}: {case}"
                    );
                }
            }
        }
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
