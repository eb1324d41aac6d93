//! # osn-pool
//!
//! A minimal thread pool for the S3CRM workspace (crates.io is unreachable
//! in the build environment, so rayon cannot be used). It has one fan-out
//! primitive, [`ThreadPool::map_indexed`]: evaluate `f(i)` for every
//! `i in 0..len` and return the results in index order. Every evaluator
//! fan-out in the workspace (Monte-Carlo folds, world sampling, sketch
//! builds, the IM/PM baselines) is that flat loop.
//!
//! ## How a call runs
//!
//! * A call publishes one **task**: `len`, an atomic next-index counter, a
//!   finished count and the first panic payload.
//! * Idle workers and the calling thread claim indices from that counter.
//!   Once it runs out, the caller waits only for the indices other threads
//!   already claimed from **its own** task; it never runs another caller's
//!   work. A nested call (from inside `f`) is a new task whose caller can
//!   finish it alone, so nesting cannot deadlock.
//! * With `len <= 1` or a one-worker pool the caller runs every index
//!   inline.
//! * A panic in `f` does not poison the pool: the first payload is
//!   re-raised from `map_indexed` after every claimed index has finished.
//!
//! ## Determinism
//!
//! The pool makes **no ordering guarantees** between indices, but results
//! land in index-order slots, so callers that reduce in index order get
//! bit-identical values at any pool size. Nothing in this crate inspects
//! the worker count to decide *what* to compute — only *where*.
//!
//! ## Sharing
//!
//! [`global()`] returns a process-wide pool built on first use with one
//! worker per available core; [`init_global`] installs a specific size
//! *before* first use (the `--pool-size N` flags). Evaluators default to
//! the global pool so S3CA's greedy loop, the baselines, and the bench
//! harness all share one set of workers.
//!
//! ## The one `unsafe` invariant
//!
//! A task holds the caller's closure with its lifetime erased, so workers
//! can run a closure that borrows the caller's stack. This is sound under
//! one invariant: **the closure is called only for a claimed index
//! `< len`, and the caller does not return (not even by unwinding) until
//! every claimed index has finished.** Each `unsafe` site below names it.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Largest worker count a pool accepts. `--pool-size` parsers reject a
/// larger value as a usage error; [`ThreadPool::new`] clamps to it.
pub const MAX_THREADS: usize = 256;

/// Lock without propagating poison. No code in this crate panics while
/// holding a lock, and the wait in [`ThreadPool::map_indexed`] must never
/// unwind early, so a poisoned lock is simply used as is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The caller's per-index closure with its lifetime erased to `'static`.
/// A raw pointer, so a task that outlives its call (a worker may still
/// hold its `Arc` after finding the counter exhausted) holds no dangling
/// reference.
struct ErasedFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync`, so calling it from any thread is allowed.
// It is dereferenced only under the invariant in the crate docs: for a
// claimed index `< len`, while the caller is still blocked in
// `map_indexed`, so the borrow it erases is alive whenever it is used.
unsafe impl Send for ErasedFn {}
// SAFETY: as for `Send` above — shared access only ever calls the `Sync`
// closure, and only for a claimed index `< len` before the caller returns.
unsafe impl Sync for ErasedFn {}

/// One `map_indexed` call, shared between its caller and the workers.
struct Task {
    len: usize,
    /// Next unclaimed index; claims at or past `len` fail. `Relaxed` is
    /// enough: the read-modify-write alone makes each claim unique, and
    /// results and completion are published through the slot and
    /// `finished` mutexes.
    next: AtomicUsize,
    /// Indices that have finished running (panicked ones included).
    finished: Mutex<usize>,
    all_finished: Condvar,
    /// First panic payload, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    run: ErasedFn,
}

impl Task {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.len
    }

    /// Claim and run indices until the counter runs out.
    fn run_claimed(&self) {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            // SAFETY: `i` is a claimed index `< len`, and the caller stays
            // in `map_indexed` until `finished` (incremented below, after
            // this call returns or unwinds) reaches `len` — so the erased
            // closure and everything it borrows are still alive.
            let call = || unsafe { (*self.run.0)(i) };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(call)) {
                lock(&self.panic).get_or_insert(payload);
            }
            ran += 1;
        }
        if ran > 0 {
            let mut finished = lock(&self.finished);
            *finished += ran;
            if *finished == self.len {
                self.all_finished.notify_all();
            }
        }
    }
}

/// Published tasks plus the shutdown flag, under one lock.
struct Queue {
    tasks: VecDeque<Arc<Task>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
}

fn worker_loop(shared: &Shared) {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(task) = queue.tasks.iter().find(|t| !t.exhausted()).cloned() {
            drop(queue);
            task.run_claimed();
            queue = lock(&shared.queue);
        } else if queue.shutdown {
            return;
        } else {
            queue = shared
                .work
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A fixed-size thread pool. Dropping the pool joins every worker (no call
/// can be outstanding then: `map_indexed` borrows the pool).
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `threads` workers, clamped to `1..=MAX_THREADS`. A
    /// one-worker pool starts no thread: every call runs inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let spawned = if threads > 1 { threads } else { 0 };
        let handles = (0..spawned)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("osn-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            threads,
            handles,
        }
    }

    /// Number of workers.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `f(0..len)` on the pool and collect the results **in index
    /// order**: output position never depends on scheduling, so callers
    /// get identical vectors at any pool size. The calling thread claims
    /// indices too, then waits only for its own task; the first panic in
    /// `f` is re-raised once every claimed index has finished.
    pub fn map_indexed<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if len <= 1 || self.threads <= 1 {
            return (0..len).map(f).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
        let job = |i: usize| {
            let value = f(i);
            *lock(&slots[i]) = Some(value);
        };
        let job: &(dyn Fn(usize) + Sync + '_) = &job;
        // SAFETY: only the lifetime changes. The erased closure is called
        // only for a claimed index `< len`, and this function does not
        // return or unwind past `job`/`slots` until every claimed index
        // has finished (the wait below cannot panic).
        let run = ErasedFn(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job)
        });
        let task = Arc::new(Task {
            len,
            next: AtomicUsize::new(0),
            finished: Mutex::new(0),
            all_finished: Condvar::new(),
            panic: Mutex::new(None),
            run,
        });
        {
            let mut queue = lock(&self.shared.queue);
            queue.tasks.push_back(Arc::clone(&task));
        }
        for _ in 1..len.min(self.threads + 1) {
            self.shared.work.notify_one();
        }
        task.run_claimed();
        lock(&self.shared.queue)
            .tasks
            .retain(|t| !Arc::ptr_eq(t, &task));
        let mut finished = lock(&task.finished);
        while *finished < len {
            finished = task
                .all_finished
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(finished);
        if let Some(payload) = lock(&task.panic).take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every index produced a value")
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Worker count matching the machine: `available_parallelism`, or 1 when
/// that cannot be determined.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide shared pool, built with [`default_parallelism`] workers
/// on first use (unless [`init_global`] installed a size earlier).
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_parallelism()))
}

/// Error returned by [`init_global`] when the global pool already exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPoolAlreadyInitialized;

impl std::fmt::Display for GlobalPoolAlreadyInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the global osn-pool was already initialized")
    }
}

impl std::error::Error for GlobalPoolAlreadyInitialized {}

/// Install the global pool with an explicit worker count. Must run before
/// the first [`global`] call; later calls fail (the already-running pool is
/// kept, the replacement is dropped).
pub fn init_global(threads: usize) -> Result<(), GlobalPoolAlreadyInitialized> {
    GLOBAL
        .set(ThreadPool::new(threads))
        .map_err(|_| GlobalPoolAlreadyInitialized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn map_indexed_preserves_index_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_distributes_across_sizes() {
        // Part counts that do not divide the worker count evenly, with
        // wildly uneven per-part cost: every size must produce the same
        // result and complete (the shared counter rebalances the tail).
        let expected: Vec<u64> = (0..23)
            .map(|i| (0..(i % 7) * 1000 + 1).sum::<u64>())
            .collect();
        for threads in [1, 2, 3, 5] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_indexed(23, |i| (0..(i as u64 % 7) * 1000 + 1).sum::<u64>());
            assert_eq!(out, expected, "pool size {threads}");
        }
    }

    #[test]
    fn two_workers_run_concurrently() {
        // Every index blocks on one barrier of 3: passing requires both
        // workers and the caller to be inside indices at the same time.
        let pool = ThreadPool::new(2);
        let barrier = Barrier::new(3);
        let out = pool.map_indexed(3, |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn zero_and_single_index_calls() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.map_indexed(0, |_| 0u8), Vec::<u8>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn a_caller_runs_only_its_own_indices() {
        // Caller A's 4 indices hold both workers and A itself at a gate,
        // leaving A's 4th index unclaimed. Caller B must finish its own
        // 2-index call without picking up A's leftover (which would block
        // B on the gate until the timeout below).
        let pool = ThreadPool::new(2);
        let inside = AtomicUsize::new(0);
        let open = AtomicBool::new(false);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                pool.map_indexed(4, |i| {
                    inside.fetch_add(1, Ordering::SeqCst);
                    while !open.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    i
                })
            });
            while inside.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            let (tx, rx) = mpsc::channel();
            let pool = &pool;
            let b = s.spawn(move || tx.send(pool.map_indexed(2, |i| i)));
            let got = rx.recv_timeout(Duration::from_secs(5));
            open.store(true, Ordering::SeqCst);
            assert_eq!(got.ok(), Some(vec![0, 1]), "B waited on A's work");
            b.join().unwrap().unwrap();
            assert_eq!(a.join().unwrap(), vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn nested_and_concurrent_calls_complete() {
        // Four OS threads fan out at once, and every index fans out again
        // on the same pool: each caller can finish its own task alone, so
        // nothing deadlocks, and every level keeps index order.
        let pool = ThreadPool::new(3);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|c| {
                    let pool = &pool;
                    s.spawn(move || {
                        pool.map_indexed(8, |i| pool.map_indexed(3, |j| c * 100 + i * 10 + j))
                    })
                })
                .collect();
            for (c, caller) in callers.into_iter().enumerate() {
                let expected: Vec<Vec<usize>> = (0..8)
                    .map(|i| (0..3).map(|j| c * 100 + i * 10 + j).collect())
                    .collect();
                assert_eq!(caller.join().unwrap(), expected, "caller {c}");
            }
        });
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(6, |i| {
                if i == 3 {
                    panic!("index exploded");
                }
                i
            })
        }));
        assert!(result.is_err(), "map_indexed must re-throw the index panic");
        // The pool survives and keeps processing work afterwards.
        assert_eq!(pool.map_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn scope_on_single_worker_pool_makes_progress() {
        // A one-worker pool runs every index inline on the caller.
        let pool = ThreadPool::new(1);
        let out = pool.map_indexed(64, |i| i as u64 + 1);
        assert_eq!(out.iter().sum::<u64>(), (1..=64).sum::<u64>());
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let out = pool.map_indexed(8, |i| i);
        drop(pool);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn global_pool_is_shared_and_late_init_fails() {
        let first = global();
        assert!(first.num_threads() >= 1);
        assert!(
            std::ptr::eq(first, global()),
            "global pool must be a singleton"
        );
        assert_eq!(init_global(2), Err(GlobalPoolAlreadyInitialized));
    }
}
