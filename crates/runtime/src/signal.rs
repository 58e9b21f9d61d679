//! Progress signalling between node workers and cluster-level waiters.
//!
//! Cluster calls like `read_eventually` and `quiesce` used to poll on a
//! fixed sleep. Under load that burns a core (and wakes every node with
//! summary requests) for nothing. Instead,
//! every worker bumps a shared [`ClusterSignal`] whenever it makes
//! observable progress (processed a message, fired a timer, flushed a
//! group-commit batch, exited); waiters block on the condvar and re-check
//! their predicate only when something actually happened — with a capped
//! wait so a lost wakeup degrades to slow polling, never to a hang.
//!
//! Every lane bumps on every loop pass that made progress, so a bump is
//! one atomic add and one atomic load while nobody waits: the mutex and
//! the `notify_all` futex call are paid only when a waiter registered.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Cap on a single condvar wait: bounds staleness if a state change
/// escapes instrumentation (e.g. a worker killed without a final bump).
const MAX_WAIT_SLICE: Duration = Duration::from_millis(50);

/// A monotonically-bumped generation counter with a condvar.
///
/// No lost wakeup: a waiter registers (under `lock`) before it reads the
/// generation, a bumper advances the generation before it reads the
/// waiter count, both `SeqCst`. So either the bumper sees the waiter and
/// notifies under `lock` — which it can only take once the waiter sleeps
/// on the condvar — or the waiter sees the new generation and does not
/// sleep.
#[derive(Debug, Default)]
pub struct ClusterSignal {
    gen: AtomicU64,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl ClusterSignal {
    /// A fresh signal at generation zero.
    pub fn new() -> Self {
        ClusterSignal::default()
    }

    /// Records that cluster-observable state may have changed and wakes
    /// every waiter.
    pub fn bump(&self) {
        self.gen.fetch_add(1, SeqCst);
        if self.waiters.load(SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
        }
    }

    /// The current generation (pair with [`ClusterSignal::wait_past`]).
    pub fn generation(&self) -> u64 {
        self.gen.load(SeqCst)
    }

    /// Blocks until the generation exceeds `seen` or `deadline` passes;
    /// returns the generation observed on wakeup.
    pub fn wait_past(&self, seen: u64, deadline: Instant) -> u64 {
        self.wait_past_sliced(seen, deadline, MAX_WAIT_SLICE, || {})
    }

    /// [`ClusterSignal::wait_past`] with the condvar wait capped at
    /// `max_slice`; `checked` runs after each generation check, right
    /// before the waiter sleeps (a seam for the lost-wakeup test).
    fn wait_past_sliced(
        &self,
        seen: u64,
        deadline: Instant,
        max_slice: Duration,
        mut checked: impl FnMut(),
    ) -> u64 {
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_add(1, SeqCst);
        while self.gen.load(SeqCst) <= seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            checked();
            let slice = (deadline - now).min(max_slice);
            guard = self
                .cv
                .wait_timeout(guard, slice)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            if Instant::now() >= deadline {
                break;
            }
        }
        self.waiters.fetch_sub(1, SeqCst);
        drop(guard);
        self.gen.load(SeqCst)
    }

    /// Runs `predicate` each time the cluster makes progress (and at
    /// least every 50 ms) until it returns `Some`, or
    /// `timeout` elapses. This is the shared backbone of
    /// `read_eventually` / `quiesce` / `await_death`.
    pub fn wait_for<R>(
        &self,
        timeout: Duration,
        mut predicate: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        let deadline = Instant::now() + timeout;
        loop {
            let seen = self.generation();
            if let Some(r) = predicate() {
                return Some(r);
            }
            if Instant::now() >= deadline {
                return None;
            }
            // One slice per pass: a state change that comes without a bump
            // (a worker thread finishing *after* its final bump) is seen
            // at the next slice, not at `deadline`.
            self.wait_past(seen, deadline.min(Instant::now() + MAX_WAIT_SLICE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_for_wakes_on_bump() {
        let sig = Arc::new(ClusterSignal::new());
        let s2 = Arc::clone(&sig);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s2.bump();
        });
        let start = Instant::now();
        let mut calls = 0;
        let got = sig.wait_for(Duration::from_secs(5), || {
            calls += 1;
            (calls > 1).then_some(())
        });
        assert!(got.is_some());
        assert!(start.elapsed() < Duration::from_secs(2));
        h.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let sig = ClusterSignal::new();
        let start = Instant::now();
        let got: Option<()> = sig.wait_for(Duration::from_millis(30), || None);
        assert!(got.is_none());
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn wait_for_rechecks_without_a_bump() {
        // The state changes silently: only the capped wait can see it.
        let sig = ClusterSignal::new();
        let start = Instant::now();
        let got = sig.wait_for(Duration::from_secs(5), || {
            (start.elapsed() >= Duration::from_millis(20)).then_some(())
        });
        assert!(got.is_some());
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn bump_between_check_and_wait_is_not_lost() {
        // The bump lands after the waiter read the generation and before
        // it sleeps. With a 10 s slice only the notify can wake it early.
        let sig = Arc::new(ClusterSignal::new());
        let start = Instant::now();
        let mut bumper = None;
        let g = sig.wait_past_sliced(
            0,
            start + Duration::from_secs(10),
            Duration::from_secs(10),
            || {
                if bumper.is_none() {
                    let s2 = Arc::clone(&sig);
                    bumper = Some(std::thread::spawn(move || s2.bump()));
                    // The bump has advanced the generation and is now
                    // blocked on the lock this waiter holds.
                    while sig.generation() == 0 {
                        std::thread::yield_now();
                    }
                }
            },
        );
        assert_eq!(g, 1);
        assert!(start.elapsed() < Duration::from_secs(5), "wakeup was lost");
        bumper.expect("hook ran").join().unwrap();
    }

    #[test]
    fn bump_without_waiters_takes_no_lock() {
        let sig = ClusterSignal::new();
        let held = sig.lock.lock().unwrap();
        sig.bump(); // would deadlock if it took the lock
        drop(held);
        assert_eq!(sig.generation(), 1);
    }

    #[test]
    fn wait_past_returns_immediately_when_already_past() {
        let sig = ClusterSignal::new();
        sig.bump();
        let g = sig.wait_past(0, Instant::now() + Duration::from_secs(5));
        assert!(g >= 1);
    }
}
