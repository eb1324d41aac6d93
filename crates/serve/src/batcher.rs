//! Coalescing of concurrent evaluation probes into batched simulation by
//! group commit, with panic failover for parked followers.
//!
//! Every campaign ends with one Monte-Carlo evaluation of its final
//! deployment, and `PROBE` requests issue ad-hoc evaluations; under load,
//! many of these target the *same* resident backend at the same time.
//! Scoring `k` deployments with [`MonteCarloEvaluator::simulate_batch`] is
//! one pass over the world cache instead of `k`, so the batcher groups
//! probes per backend by **group commit**: an arrival on an idle group
//! becomes leader and at once runs everything queued as one batch. Probes
//! that arrive while a batch runs park; once that batch's results are
//! delivered, leadership passes to the first parked probe, whose thread
//! runs the whole queue as the next batch. An idle backend never waits,
//! and batches grow only as far as the load makes probes overlap.
//!
//! Coalescing is **result-neutral**: batched simulation is bit-identical
//! to lone simulation (element `i` of `simulate_batch` equals a lone
//! `simulate` of deployment `i` — pinned by `osn-propagation`'s tests), so
//! whether a probe rode a batch or ran alone is unobservable in the reply.
//!
//! # Failure semantics
//!
//! The leader runs follower jobs on *its* thread, so a panic there (a bug,
//! or an injected fault) would otherwise strand every parked follower on a
//! condvar nobody will ever signal. [`LeaderReign`] is the RAII failover:
//! from taking leadership to the end of its batch the leader holds a guard
//! whose drop — normal or during unwind — hands leadership to the first
//! parked probe (or idles the group). If the batch never delivered, the
//! drop first bumps the group's generation and fails the jobs that batch
//! had taken (everything parked, if it died before the take). Those
//! followers observe a typed [`BatchFailed`] instead of a hang; probes
//! that parked during the dying batch were never in it and run on the
//! next one, and the panic itself propagates to the leader's own caller
//! (where the connection layer turns it into an `ERR internal` reply).
//!
//! [`MonteCarloEvaluator::simulate_batch`]: osn_propagation::MonteCarloEvaluator::simulate_batch

use osn_graph::NodeId;
use osn_propagation::{DeploymentRef, McBackend, SimulationStats};
use s3crm_bench::dataset::LoadedDataset;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A batch died before producing this probe's result: its leader panicked
/// (the generation records which reign failed). The *submission* failed,
/// not the deployment — retrying on a fresh batch is sound.
#[derive(Clone, Debug)]
pub struct BatchFailed {
    pub generation: u64,
}

impl std::fmt::Display for BatchFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "internal evaluation batch failed (leader died, generation {})",
            self.generation
        )
    }
}

/// What a parked probe wakes up to: its result, or leadership of the next
/// batch, handed over by the leader whose batch just ended.
enum Outcome {
    Done(Result<SimulationStats, BatchFailed>),
    Lead,
}

#[derive(Default)]
struct Slot {
    outcome: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl Slot {
    fn fill(&self, value: Outcome) {
        *lock(&self.outcome) = Some(value);
        self.cv.notify_all();
    }

    /// Block until the slot is filled, and empty it.
    fn wait(&self) -> Outcome {
        let mut outcome = lock(&self.outcome);
        loop {
            if let Some(value) = outcome.take() {
                return value;
            }
            outcome = self
                .cv
                .wait(outcome)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Job {
    seeds: Vec<NodeId>,
    coupons: Vec<u32>,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct GroupState {
    jobs: Vec<Job>,
    /// Some thread leads this group: set at election, kept across
    /// hand-offs, cleared when a batch ends with nothing parked.
    leader_active: bool,
    /// Bumped every time a leader reign ends without serving its jobs;
    /// failed followers carry the generation in their error.
    generation: u64,
}

#[derive(Default)]
struct Group {
    state: Mutex<GroupState>,
}

/// RAII leadership over one group for one batch: covers the window from
/// election (or hand-off) to result delivery. Its drop passes leadership
/// on; a drop without [`complete`](Self::complete) — any panic escape
/// path — first fails the batch's followers instead of stranding them.
struct LeaderReign<'a> {
    group: &'a Group,
    /// Jobs taken out of the group (None until the take step; a panic
    /// before the take fails whatever is parked in the group instead).
    taken: Option<Vec<Job>>,
    served: bool,
}

impl<'a> LeaderReign<'a> {
    fn new(group: &'a Group) -> Self {
        LeaderReign {
            group,
            taken: None,
            served: false,
        }
    }

    /// Claim every parked job — the leader's own among them — for this
    /// batch. Arrivals from here on park for the next one.
    fn take_jobs(&mut self) -> &[Job] {
        let jobs = std::mem::take(&mut lock(&self.group.state).jobs);
        self.taken.insert(jobs).as_slice()
    }

    /// Deliver one result per taken job, in order.
    fn complete(mut self, stats: Vec<SimulationStats>) {
        let jobs = self.taken.take().unwrap_or_default();
        for (job, s) in jobs.iter().zip(stats) {
            job.slot.fill(Outcome::Done(Ok(s)));
        }
        self.served = true;
    }
}

impl Drop for LeaderReign<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.group.state);
        let mut failed = Vec::new();
        if !self.served {
            // The batch is ending abnormally (panic unwind, or a bug
            // skipped `complete`). Fail what it was responsible for: the
            // jobs it took — or, if it died before the take, everything
            // parked, which it was about to take.
            st.generation += 1;
            failed = self
                .taken
                .take()
                .unwrap_or_else(|| std::mem::take(&mut st.jobs));
        }
        let generation = st.generation;
        // Pick the next leader under the lock: the first probe parked
        // meanwhile leads the next batch, or the group goes idle. With
        // `leader_active` still set, no arrival can elect itself before
        // that probe wakes up and takes the queue.
        let next = st.jobs.first().map(|job| Arc::clone(&job.slot));
        st.leader_active = next.is_some();
        drop(st);
        for job in failed {
            job.slot
                .fill(Outcome::Done(Err(BatchFailed { generation })));
        }
        if let Some(slot) = next {
            slot.fill(Outcome::Lead);
        }
    }
}

/// One batcher per daemon; groups form per backend key.
#[derive(Default)]
pub struct ProbeBatcher {
    groups: Mutex<HashMap<String, Arc<Group>>>,
    probes: AtomicU64,
    batches: AtomicU64,
    failed_batches: AtomicU64,
}

impl ProbeBatcher {
    /// Evaluate `(seeds, coupons)` on `backend`, riding a shared batch when
    /// other probes for the same `key` are in flight. `key` must uniquely
    /// identify the backend (the caller derives it from the backend's cache
    /// parameters and graph variant) so grouped jobs really share worlds.
    ///
    /// `Err(BatchFailed)` means this probe's batch leader died before
    /// delivering results; the deployment was never scored and the caller
    /// may retry on a fresh batch.
    pub fn submit(
        &self,
        key: &str,
        backend: &McBackend,
        ds: &LoadedDataset,
        seeds: Vec<NodeId>,
        coupons: Vec<u32>,
    ) -> Result<SimulationStats, BatchFailed> {
        self.submit_with(key, seeds, coupons, |batch| {
            backend.evaluator(&ds.graph, &ds.data).simulate_batch(batch)
        })
    }

    /// [`submit`](Self::submit) with the batch simulation passed in. If
    /// this probe's thread ends up leading, `simulate` scores its batch;
    /// every caller on one `key` must pass the same simulation.
    fn submit_with(
        &self,
        key: &str,
        seeds: Vec<NodeId>,
        coupons: Vec<u32>,
        simulate: impl FnOnce(&[DeploymentRef<'_>]) -> Vec<SimulationStats>,
    ) -> Result<SimulationStats, BatchFailed> {
        let group = {
            let mut groups = lock(&self.groups);
            groups.entry(key.to_string()).or_default().clone()
        };
        let slot = Arc::new(Slot::default());
        let elected = {
            let mut st = lock(&group.state);
            st.jobs.push(Job {
                seeds,
                coupons,
                slot: slot.clone(),
            });
            !std::mem::replace(&mut st.leader_active, true)
        };
        let mut outcome = if elected { Outcome::Lead } else { slot.wait() };
        if let Outcome::Lead = outcome {
            self.lead(&group, simulate);
            // This probe's job was queued when the batch took the queue,
            // so the batch just delivered its result.
            outcome = slot.wait();
        }
        let Outcome::Done(result) = outcome else {
            unreachable!("a leader's own job rides its batch");
        };
        if result.is_err() {
            self.failed_batches.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Run one batch as the group's leader: take every parked job,
    /// simulate them together, deliver, and hand leadership on.
    fn lead(
        &self,
        group: &Group,
        simulate: impl FnOnce(&[DeploymentRef<'_>]) -> Vec<SimulationStats>,
    ) {
        // From here to the reign's drop, parked followers are failed over
        // or handed leadership even if this thread dies.
        let mut reign = LeaderReign::new(group);
        // Chaos hook: delay the take (so tests can deterministically pile
        // followers onto one batch) or kill the leader before it — either
        // way the reign guard keeps followers unblocked.
        osn_fault::point("serve.batcher.take");
        let jobs = reign.take_jobs();
        let batch: Vec<DeploymentRef<'_>> = jobs
            .iter()
            .map(|j| DeploymentRef {
                seeds: &j.seeds,
                coupons: &j.coupons,
            })
            .collect();
        // Chaos hook: a panic here is the "leader dies mid-batch" case.
        osn_fault::point("serve.batcher.batch");
        let stats = simulate(&batch);
        self.probes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        reign.complete(stats);
    }

    /// `(probes evaluated, batches run)` — `probes > batches` means
    /// coalescing actually merged traffic.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.probes.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
        )
    }

    /// Probes that came back [`BatchFailed`] because their leader died.
    pub fn failed_probes(&self) -> u64 {
        self.failed_batches.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3crm_bench::Effort;
    use std::sync::mpsc;

    fn tiny_dataset() -> LoadedDataset {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let fixture = dir.join("../bench/fixtures/smoke_snap.txt");
        s3crm_bench::dataset::load_dataset(&fixture, &Effort::micro()).expect("fixture loads")
    }

    /// A small deployment that differs per `i`.
    fn deployment(ds: &LoadedDataset, i: usize) -> (Vec<NodeId>, Vec<u32>) {
        let n = ds.graph.node_count();
        let mut coupons = vec![0u32; n];
        coupons[(i * 5) % n] = 1 + i as u32 % 3;
        (vec![NodeId((i % n) as u32)], coupons)
    }

    fn assert_matches_lone(
        backend: &McBackend,
        ds: &LoadedDataset,
        (seeds, coupons): &(Vec<NodeId>, Vec<u32>),
        got: &SimulationStats,
    ) {
        let lone = backend
            .evaluator(&ds.graph, &ds.data)
            .simulate(seeds, coupons);
        for (g, l) in [
            (got.expected_benefit, lone.expected_benefit),
            (got.mean_activated, lone.mean_activated),
            (got.mean_redeemed_sc_cost, lone.mean_redeemed_sc_cost),
            (got.mean_farthest_hop, lone.mean_farthest_hop),
        ] {
            assert_eq!(
                g.to_bits(),
                l.to_bits(),
                "batched probe diverged from lone simulation"
            );
        }
    }

    /// Block until exactly `n` probes are parked on `key`: the tests below
    /// step on observed group state, never on elapsed time.
    fn await_parked(batcher: &ProbeBatcher, key: &str, n: usize) {
        let parked = || {
            lock(&batcher.groups)
                .get(key)
                .map_or(0, |g| lock(&g.state).jobs.len())
        };
        while parked() != n {
            std::thread::yield_now();
        }
    }

    type BoxedSim<'a> = Box<dyn FnOnce(&[DeploymentRef<'_>]) -> Vec<SimulationStats> + Send + 'a>;

    /// The test's side of a held batch: `entered` hears when the batch
    /// starts, and it finishes only once `release` sends.
    struct Hold {
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    /// Wrap a batch simulation in a [`Hold`].
    fn held<'a>(
        then: impl FnOnce(&[DeploymentRef<'_>]) -> Vec<SimulationStats> + Send + 'a,
    ) -> (BoxedSim<'a>, Hold) {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let simulate = move |batch: &[DeploymentRef<'_>]| {
            entered_tx.send(()).expect("test awaits the batch");
            release_rx.recv().expect("test releases the batch");
            then(batch)
        };
        (Box::new(simulate), Hold { entered, release })
    }

    #[test]
    fn coalesced_probes_are_bit_identical_to_lone_simulation() {
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 64, 7);
        let batcher = ProbeBatcher::default();
        let deployments: Vec<_> = (0..8).map(|i| deployment(&ds, i)).collect();
        let batched: Vec<SimulationStats> = std::thread::scope(|s| {
            let handles: Vec<_> = deployments
                .iter()
                .map(|(seeds, coupons)| {
                    let (batcher, backend, ds) = (&batcher, &backend, &ds);
                    s.spawn(move || {
                        batcher
                            .submit("eval|w64|s7", backend, ds, seeds.clone(), coupons.clone())
                            .expect("healthy batch")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (dep, got) in deployments.iter().zip(&batched) {
            assert_matches_lone(&backend, &ds, dep, got);
        }
        let (probes, batches) = batcher.counters();
        assert_eq!(probes, 8);
        assert!(batches <= probes, "batch count cannot exceed probe count");
        assert_eq!(batcher.failed_probes(), 0);
    }

    /// A leader that panics mid-batch (here: `simulate_batch` blows up on a
    /// malformed deployment) must fail over its followers — typed error,
    /// not a hang — and the next round on the same group must succeed.
    /// This pins the [`LeaderReign`] guard without any fault injection.
    #[test]
    fn leader_panic_fails_over_followers_and_next_round_succeeds() {
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 32, 3);
        let batcher = ProbeBatcher::default();
        let n = ds.graph.node_count();

        // A coupons vector of the wrong length makes the evaluator panic
        // on an out-of-bounds index — a stand-in for any internal bug.
        let bogus_coupons = vec![1u32; 1];
        let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batcher.submit("k", &backend, &ds, vec![NodeId(0)], bogus_coupons.clone())
        }));
        assert!(
            leader.is_err(),
            "malformed deployment must panic the leader"
        );

        // The group is not wedged: leadership was released by the reign
        // guard, so a fresh submission elects a new leader and succeeds,
        // byte-identical to a lone simulation.
        let seeds = vec![NodeId(1)];
        let mut coupons = vec![0u32; n];
        coupons[2] = 1;
        let ok = batcher
            .submit("k", &backend, &ds, seeds.clone(), coupons.clone())
            .expect("fresh batch after leader death");
        let lone = backend
            .evaluator(&ds.graph, &ds.data)
            .simulate(&seeds, &coupons);
        assert_eq!(
            ok.expected_benefit.to_bits(),
            lone.expected_benefit.to_bits()
        );
    }

    /// Concurrent followers parked behind a panicking leader receive
    /// `BatchFailed` promptly (no deadlock), and the error carries the
    /// bumped generation.
    #[test]
    fn followers_parked_behind_a_dead_leader_get_typed_failures() {
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 32, 3);
        let batcher = Arc::new(ProbeBatcher::default());
        let n = ds.graph.node_count();

        // The leader's own deployment is malformed; followers' are fine.
        // Followers that race into the same batch must all be failed over;
        // any that arrive after the leader took its jobs simply run on a
        // fresh batch and succeed — both outcomes are sound, hanging is
        // not.
        std::thread::scope(|s| {
            let leader = {
                let (batcher, backend, ds) = (Arc::clone(&batcher), &backend, &ds);
                s.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        batcher.submit("k", backend, ds, vec![NodeId(0)], vec![1u32; 1])
                    }))
                })
            };
            // Followers start only once the malformed submitter holds (or
            // has already lost) the leadership, so it is the thread whose
            // batch panics rather than a follower that raced ahead of it.
            let elected = || {
                lock(&batcher.groups).get("k").is_some_and(|g| {
                    let st = lock(&g.state);
                    st.leader_active || st.generation > 0
                })
            };
            while !elected() {
                std::thread::yield_now();
            }
            let followers: Vec<_> = (0..4)
                .map(|i| {
                    let (batcher, backend, ds) = (Arc::clone(&batcher), &backend, &ds);
                    s.spawn(move || {
                        let mut coupons = vec![0u32; n];
                        coupons[i % n] = 1;
                        batcher.submit("k", backend, ds, vec![NodeId(i as u32)], coupons)
                    })
                })
                .collect();
            assert!(leader.join().unwrap().is_err(), "leader must panic");
            for f in followers {
                // Either failed over (rode the dead leader's batch) or
                // succeeded (fresh batch) — but never hangs, which the
                // scoped join itself enforces.
                let _ = f.join().unwrap();
            }
        });
    }

    /// An arrival on an idle group runs at once as a batch of one, and the
    /// group is idle again by the time the probe returns.
    #[test]
    fn a_lone_probe_on_an_idle_group_runs_as_a_batch_of_one() {
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 32, 3);
        let batcher = ProbeBatcher::default();
        let dep = deployment(&ds, 1);
        let got = batcher
            .submit("k", &backend, &ds, dep.0.clone(), dep.1.clone())
            .expect("healthy batch");
        assert_matches_lone(&backend, &ds, &dep, &got);
        assert_eq!(batcher.counters(), (1, 1));
        let group = lock(&batcher.groups)["k"].clone();
        let st = lock(&group.state);
        assert!(!st.leader_active && st.jobs.is_empty(), "group left busy");
    }

    /// Probes that park behind a running batch are served together by the
    /// next batch, led by the first of them, with results bit-identical to
    /// lone simulation.
    #[test]
    fn probes_parked_behind_a_running_batch_share_the_next_batch() {
        const N: usize = 5;
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 64, 7);
        let batcher = &ProbeBatcher::default();
        let deps: Vec<_> = (0..=N).map(|i| deployment(&ds, i)).collect();
        let sim = |batch: &[DeploymentRef<'_>]| {
            backend.evaluator(&ds.graph, &ds.data).simulate_batch(batch)
        };
        let (first_sim, hold) = held(sim);
        let results: Vec<SimulationStats> = std::thread::scope(|s| {
            let (seeds, coupons) = deps[0].clone();
            let first = s.spawn(move || batcher.submit_with("k", seeds, coupons, first_sim));
            hold.entered.recv().expect("first batch starts");
            let parked: Vec<_> = deps[1..]
                .iter()
                .cloned()
                .map(|(seeds, coupons)| {
                    s.spawn(move || batcher.submit_with("k", seeds, coupons, sim))
                })
                .collect();
            await_parked(batcher, "k", N);
            hold.release.send(()).expect("first batch is waiting");
            std::iter::once(first)
                .chain(parked)
                .map(|h| h.join().unwrap().expect("healthy batch"))
                .collect()
        });
        for (dep, got) in deps.iter().zip(&results) {
            assert_matches_lone(&backend, &ds, dep, got);
        }
        assert_eq!(batcher.counters(), (N as u64 + 1, 2));
        assert_eq!(batcher.failed_probes(), 0);
    }

    /// A leader that dies after its take fails only the jobs it took;
    /// probes that parked during its batch were never in it and succeed on
    /// the next batch, led by the first of them.
    #[test]
    fn a_leader_dying_after_its_take_fails_only_its_batch() {
        const TAKEN: usize = 4;
        const LATE: usize = 3;
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 32, 3);
        let batcher = &ProbeBatcher::default();
        let deps: Vec<_> = (0..1 + TAKEN + LATE).map(|i| deployment(&ds, i)).collect();
        let sim = |batch: &[DeploymentRef<'_>]| {
            backend.evaluator(&ds.graph, &ds.data).simulate_batch(batch)
        };
        let (first_sim, first) = held(sim);
        let (dying_sim, dying) = held(|_: &[DeploymentRef<'_>]| -> Vec<SimulationStats> {
            panic!("batch dies after its take")
        });
        std::thread::scope(|s| {
            let submit = |i: usize, simulate| {
                let (seeds, coupons) = deps[i].clone();
                s.spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        batcher.submit_with("k", seeds, coupons, simulate)
                    }))
                })
            };
            // Batch 1 holds while the doomed batch's jobs park behind it;
            // the first of them will lead batch 2 with a dying simulation.
            let first_probe = submit(0, first_sim);
            first.entered.recv().expect("batch 1 starts");
            let dying_probe = submit(1, dying_sim);
            await_parked(batcher, "k", 1);
            let taken: Vec<_> = (2..=TAKEN).map(|i| submit(i, Box::new(sim))).collect();
            await_parked(batcher, "k", TAKEN);
            first.release.send(()).expect("batch 1 is waiting");
            // Batch 2 has taken its jobs; late probes park behind it.
            dying.entered.recv().expect("batch 2 starts");
            let late: Vec<_> = (1 + TAKEN..deps.len())
                .map(|i| submit(i, Box::new(sim)))
                .collect();
            await_parked(batcher, "k", LATE);
            dying.release.send(()).expect("batch 2 is waiting");

            let joined = first_probe.join().unwrap().expect("no panic");
            assert_matches_lone(&backend, &ds, &deps[0], &joined.expect("healthy batch"));
            assert!(
                dying_probe.join().unwrap().is_err(),
                "batch 2's leader panics"
            );
            for h in taken {
                let joined = h.join().unwrap().expect("no panic");
                assert_eq!(joined.expect_err("rode the dead batch").generation, 1);
            }
            for (h, dep) in late.into_iter().zip(&deps[1 + TAKEN..]) {
                let joined = h.join().unwrap().expect("no panic");
                assert_matches_lone(&backend, &ds, dep, &joined.expect("healthy batch"));
            }
        });
        assert_eq!(batcher.counters(), (1 + LATE as u64, 2));
        assert_eq!(batcher.failed_probes(), TAKEN as u64 - 1);
    }
}
