//! Bounded admission of in-flight campaigns.
//!
//! The daemon accepts any number of connections, but only `max` campaigns
//! run at once — the rest wait in [`Admission::acquire_within`] for a
//! bounded time and are then *shed* with a typed `BUSY` error instead of
//! queueing unboundedly. This keeps a burst of requests from
//! oversubscribing the shared `osn-pool` (each campaign already fans out
//! across its workers, and its connection thread claims indices of its own
//! `map_indexed` calls too), bounds resident scratch memory (every thread
//! that folds a lane block keeps one O(n) lane scratch), and bounds how
//! long any client can be parked behind a stuck peer.
//!
//! Permits are RAII: [`Permit`] releases its slot on drop, **including
//! when the holding thread panics** — a campaign that dies mid-run can
//! never leak capacity. The release path recovers from mutex poisoning for
//! the same reason (a panicking peer must not poison the gate for everyone
//! else); the counter itself stays consistent because every mutation is a
//! balanced increment/decrement pair.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A counting semaphore over `Mutex` + `Condvar` (no external deps).
pub struct Admission {
    max: usize,
    inflight: Mutex<usize>,
    cv: Condvar,
}

impl Admission {
    /// Gate admitting at most `max` concurrent holders.
    pub fn new(max: usize) -> Self {
        assert!(max > 0, "admission capacity must be positive");
        Admission {
            max,
            inflight: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Wait at most `timeout` for a slot, then occupy it for the permit's
    /// lifetime; `None` means the caller should shed the request (reply
    /// `BUSY`) instead of queueing further.
    pub fn acquire_within(&self, timeout: Duration) -> Option<Permit<'_>> {
        let deadline = Instant::now() + timeout;
        let mut n = lock(&self.inflight);
        while *n >= self.max {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _timed_out) = self
                .cv
                .wait_timeout(n, left)
                .unwrap_or_else(PoisonError::into_inner);
            n = guard;
        }
        *n += 1;
        Some(Permit(self))
    }

    /// Currently admitted campaigns.
    pub fn in_flight(&self) -> usize {
        *lock(&self.inflight)
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.max
    }
}

/// RAII permit; dropping it — normally or during a panic unwind — releases
/// the slot and wakes one waiter.
pub struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut n = lock(&self.0.inflight);
        *n -= 1;
        self.0.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A permit taken with a wait bound no test reaches.
    fn admit(gate: &Admission) -> Permit<'_> {
        gate.acquire_within(Duration::from_secs(60))
            .expect("a slot frees up within the bound")
    }

    #[test]
    fn never_admits_more_than_capacity() {
        let gate = Admission::new(3);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    let _permit = admit(&gate);
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "admission gate leaked");
        assert_eq!(gate.in_flight(), 0, "permits not all released");
    }

    /// The regression the fault harness exists to catch: a campaign that
    /// panics while admitted must return its permit (RAII drop during
    /// unwind), and the gate must keep working afterwards — no leaked
    /// capacity, no poisoned lock.
    #[test]
    fn panic_while_holding_a_permit_returns_it() {
        let gate = Admission::new(1);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _permit = admit(&gate);
                panic!("campaign died mid-run");
            })
            .join()
        });
        assert!(panicked.is_err(), "the campaign thread must have panicked");
        assert_eq!(gate.in_flight(), 0, "panic leaked the permit");
        // The gate still admits: a bounded acquire succeeds immediately.
        let permit = gate
            .acquire_within(Duration::from_millis(100))
            .expect("slot is free after the panic");
        assert_eq!(gate.in_flight(), 1);
        drop(permit);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn bounded_acquire_sheds_when_saturated_and_admits_when_freed() {
        let gate = Admission::new(1);
        let held = admit(&gate);
        // Saturated: a bounded wait returns None in bounded time.
        let t0 = Instant::now();
        assert!(gate.acquire_within(Duration::from_millis(30)).is_none());
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "returned before the wait bound"
        );
        // A waiter parked inside the bound is admitted once the permit
        // frees up.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.acquire_within(Duration::from_secs(5)).is_some());
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            assert!(waiter.join().unwrap(), "freed slot did not admit waiter");
        });
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn zero_timeout_is_try_acquire() {
        let gate = Admission::new(1);
        let held = admit(&gate);
        assert!(gate.acquire_within(Duration::ZERO).is_none());
        drop(held);
        assert!(gate.acquire_within(Duration::ZERO).is_some());
    }
}
