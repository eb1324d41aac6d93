//! Coalescing of concurrent evaluation probes into batched simulation,
//! with panic failover for parked followers.
//!
//! Every campaign ends with one Monte-Carlo evaluation of its final
//! deployment, and `PROBE` requests issue ad-hoc evaluations; under load,
//! many of these target the *same* resident backend at the same time.
//! Scoring `k` deployments with [`MonteCarloEvaluator::simulate_batch`] is
//! one pass over the world cache instead of `k`, so the batcher elects the
//! first arrival per backend as leader, lingers briefly to let concurrent
//! probes pile on, and runs the whole group as a single batch.
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
//! from election to completion the leader holds a guard whose drop —
//! normal or during unwind — clears the leadership flag, bumps the group's
//! generation counter, and fails over any jobs that never got results.
//! Followers then observe a typed [`BatchFailed`] instead of a hang, the
//! next submission elects a fresh leader, and the panic itself propagates
//! to the leader's own caller (where the connection layer turns it into an
//! `ERR internal` reply).
//!
//! [`MonteCarloEvaluator::simulate_batch`]: osn_propagation::MonteCarloEvaluator::simulate_batch

use osn_graph::NodeId;
use osn_propagation::{DeploymentRef, McBackend, SimulationStats};
use s3crm_bench::dataset::LoadedDataset;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long a leader waits for followers before running the batch. Long
/// enough for genuinely concurrent probes to enqueue, far below any
/// campaign's evaluation time.
const LINGER: Duration = Duration::from_millis(1);

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

#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<SimulationStats, BatchFailed>>>,
    cv: Condvar,
}

impl Slot {
    fn fill(&self, value: Result<SimulationStats, BatchFailed>) {
        *lock(&self.result) = Some(value);
        self.cv.notify_all();
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
    leader_active: bool,
    /// Bumped every time a leader reign ends without serving its jobs;
    /// failed followers carry the generation in their error.
    generation: u64,
}

#[derive(Default)]
struct Group {
    state: Mutex<GroupState>,
}

/// RAII leadership over one group: covers the window from election to
/// result delivery. Drop without [`complete`](Self::complete) — any panic
/// escape path — fails over parked followers instead of stranding them.
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

    /// End the linger: clear the leadership flag and claim every parked
    /// job. New arrivals elect a fresh leader from here on.
    fn take_jobs(&mut self) -> &[Job] {
        let mut st = lock(&self.group.state);
        st.leader_active = false;
        let jobs = std::mem::take(&mut st.jobs);
        drop(st);
        self.taken.insert(jobs).as_slice()
    }

    /// Deliver one result per taken job, in order.
    fn complete(mut self, stats: Vec<SimulationStats>) {
        let jobs = self.taken.take().unwrap_or_default();
        for (job, s) in jobs.iter().zip(stats) {
            job.slot.fill(Ok(s));
        }
        self.served = true;
    }
}

impl Drop for LeaderReign<'_> {
    fn drop(&mut self) {
        if self.served {
            return;
        }
        // The reign is ending abnormally (panic unwind, or a bug skipped
        // `complete`). Fail over everything this leader was responsible
        // for: jobs it already took, plus — if it died before the take —
        // whatever is still parked in the group.
        let mut st = lock(&self.group.state);
        st.leader_active = false;
        st.generation += 1;
        let generation = st.generation;
        let mut orphans = std::mem::take(&mut st.jobs);
        drop(st);
        if let Some(taken) = self.taken.take() {
            orphans.extend(taken);
        }
        for job in orphans {
            job.slot.fill(Err(BatchFailed { generation }));
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
        let group = {
            let mut groups = lock(&self.groups);
            groups.entry(key.to_string()).or_default().clone()
        };
        let slot = Arc::new(Slot::default());
        let is_leader = {
            let mut st = lock(&group.state);
            st.jobs.push(Job {
                seeds,
                coupons,
                slot: slot.clone(),
            });
            if st.leader_active {
                false
            } else {
                st.leader_active = true;
                true
            }
        };
        if is_leader {
            // From here to `complete`, the reign guard guarantees parked
            // followers are failed over if this thread dies.
            let mut reign = LeaderReign::new(&group);
            std::thread::sleep(LINGER);
            // Chaos hook: stretch the linger (so tests can deterministically
            // pile followers onto one batch) or kill the leader before the
            // take — either way the reign guard keeps followers unblocked.
            osn_fault::point("serve.batcher.linger");
            let jobs = reign.take_jobs();
            let batch: Vec<DeploymentRef<'_>> = jobs
                .iter()
                .map(|j| DeploymentRef {
                    seeds: &j.seeds,
                    coupons: &j.coupons,
                })
                .collect();
            let n_jobs = jobs.len();
            // Chaos hook: a panic here is the "leader dies mid-batch" case.
            osn_fault::point("serve.batcher.batch");
            let stats = backend
                .evaluator(&ds.graph, &ds.data)
                .simulate_batch(&batch);
            self.probes.fetch_add(n_jobs as u64, Ordering::Relaxed);
            self.batches.fetch_add(1, Ordering::Relaxed);
            reign.complete(stats);
        }
        let mut r = lock(&slot.result);
        while r.is_none() {
            r = slot.cv.wait(r).unwrap_or_else(PoisonError::into_inner);
        }
        let outcome = r.take().expect("batcher result present");
        if outcome.is_err() {
            self.failed_batches.fetch_add(1, Ordering::Relaxed);
        }
        outcome
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

    fn tiny_dataset() -> LoadedDataset {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let fixture = dir.join("../bench/fixtures/smoke_snap.txt");
        s3crm_bench::dataset::load_dataset(&fixture, &Effort::micro()).expect("fixture loads")
    }

    #[test]
    fn coalesced_probes_are_bit_identical_to_lone_simulation() {
        let ds = tiny_dataset();
        let backend = McBackend::sample(&ds.graph, 64, 7);
        let batcher = ProbeBatcher::default();
        let deployments: Vec<(Vec<NodeId>, Vec<u32>)> = (0..8)
            .map(|i| {
                let mut coupons = vec![0u32; ds.graph.node_count()];
                coupons[(i * 5) % ds.graph.node_count()] = 1 + i as u32 % 3;
                (vec![NodeId(i as u32)], coupons)
            })
            .collect();
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
        for ((seeds, coupons), got) in deployments.iter().zip(&batched) {
            let lone = backend
                .evaluator(&ds.graph, &ds.data)
                .simulate(seeds, coupons);
            assert_eq!(
                got.expected_benefit.to_bits(),
                lone.expected_benefit.to_bits(),
                "coalesced probe diverged from lone simulation"
            );
            assert_eq!(got.mean_activated.to_bits(), lone.mean_activated.to_bits());
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
}
