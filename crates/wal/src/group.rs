//! Group commit: batching forced-write requests (§4, *Group Commits*).
//!
//! "The log manager delays performing a force-write request until one of
//! two things occur: either a defined number of force-write requests
//! arrive, or a timer expires."
//!
//! Those are the paper's two triggers ([`GroupCommitter::request`] filling
//! the batch, [`GroupCommitter::expire`] at the deadline). A host that can
//! *observe* that nothing more will join the batch before it next blocks
//! has a third: [`GroupCommitter::idle`] releases the open batch at once,
//! so the batch grows only while the host has work and the flush itself
//! clocks the batching — whatever arrives during one device flush is the
//! next batch. The live runtime calls it whenever a lane is about to sleep;
//! the simulator never does (virtual time has no "about to sleep"), so
//! there the policy is exactly the paper's.
//!
//! [`GroupCommitter`] is a pure, clock-driven state machine so the same
//! policy code runs under the deterministic simulator (virtual clock) and
//! the live runtime (wall clock). Callers hand in an opaque *ticket* per
//! force request (the simulator uses it to resume the suspended commit
//! step) and get tickets back when their batch flushes.

use tpc_common::config::GroupCommitConfig;
use tpc_common::{SimDuration, SimTime};

/// What the caller must do after submitting a force request.
#[derive(Debug, PartialEq, Eq)]
pub enum FlushDecision<T> {
    /// The batch is full: perform one physical flush now; all returned
    /// tickets' force requests are satisfied by it.
    FlushNow(Vec<T>),
    /// The request joined a pending batch. If no flush happens first, call
    /// [`GroupCommitter::expire`] at `deadline`.
    WaitUntil(SimTime),
}

/// Statistics for the group-commit layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Logical force requests submitted.
    pub requests: u64,
    /// Physical flushes performed, whatever the trigger: the sum of the
    /// three `flushes_by_*` counters.
    pub flushes: u64,
    /// Flushes triggered by the batch filling.
    pub flushes_by_size: u64,
    /// Flushes triggered by timer expiry (or a shutdown drain).
    pub flushes_by_timer: u64,
    /// Flushes triggered by the host going idle with the batch open.
    pub flushes_by_idle: u64,
}

impl GroupStats {
    /// Forced writes saved versus one flush per request.
    pub fn flushes_saved(&self) -> u64 {
        self.requests.saturating_sub(self.flushes)
    }

    /// Folds another committer's counters into this one (per-lane
    /// committers on a shared log roll up to node totals).
    pub fn merge(&mut self, other: &GroupStats) {
        self.requests += other.requests;
        self.flushes += other.flushes;
        self.flushes_by_size += other.flushes_by_size;
        self.flushes_by_timer += other.flushes_by_timer;
        self.flushes_by_idle += other.flushes_by_idle;
    }
}

/// The batching state machine.
#[derive(Debug)]
pub struct GroupCommitter<T> {
    cfg: GroupCommitConfig,
    pending: Vec<T>,
    /// Deadline set when the first request of the current batch arrived.
    deadline: Option<SimTime>,
    stats: GroupStats,
}

impl<T> GroupCommitter<T> {
    /// Creates a committer with the given policy.
    pub fn new(cfg: GroupCommitConfig) -> Self {
        GroupCommitter {
            cfg,
            pending: Vec::new(),
            deadline: None,
            stats: GroupStats::default(),
        }
    }

    /// The configured policy.
    pub fn config(&self) -> &GroupCommitConfig {
        &self.cfg
    }

    /// Number of force requests waiting for a flush.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Closes the open batch for one physical flush.
    fn release(&mut self) -> Vec<T> {
        self.stats.flushes += 1;
        self.deadline = None;
        std::mem::take(&mut self.pending)
    }

    /// Submits a force request at virtual time `now`.
    pub fn request(&mut self, now: SimTime, ticket: T) -> FlushDecision<T> {
        self.stats.requests += 1;
        self.pending.push(ticket);
        if self.pending.len() >= self.cfg.batch_size {
            self.stats.flushes_by_size += 1;
            return FlushDecision::FlushNow(self.release());
        }
        let deadline = *self
            .deadline
            .get_or_insert(now + SimDuration::from_micros(self.cfg.max_wait.as_micros()));
        FlushDecision::WaitUntil(deadline)
    }

    /// Called when a previously returned deadline arrives. Returns the
    /// tickets to release if the batch is still pending and its deadline
    /// has indeed passed; `None` if another trigger already took it (a
    /// stale timer).
    pub fn expire(&mut self, now: SimTime) -> Option<Vec<T>> {
        match self.deadline {
            Some(d) if now >= d && !self.pending.is_empty() => {
                self.stats.flushes_by_timer += 1;
                Some(self.release())
            }
            _ => None,
        }
    }

    /// The host is about to block with nothing left to do: no further
    /// request can join the open batch before it wakes, so waiting for
    /// the size or timer trigger would only idle the device. Releases the
    /// pending batch, if any, and clears its deadline (a later
    /// [`expire`](Self::expire) at that deadline is a stale timer). Takes
    /// no clock: the trigger is the host's observation, not a function of
    /// time.
    pub fn idle(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            return None;
        }
        self.stats.flushes_by_idle += 1;
        Some(self.release())
    }

    /// Flushes whatever is pending immediately (e.g. on shutdown).
    /// Returns the released tickets, if any.
    pub fn drain(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            return None;
        }
        self.stats.flushes_by_timer += 1;
        Some(self.release())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(batch: usize, wait_us: u64) -> GroupCommitConfig {
        GroupCommitConfig {
            batch_size: batch,
            max_wait: SimDuration::from_micros(wait_us),
            adaptive: false,
        }
    }

    #[test]
    fn batch_fills_and_flushes() {
        let mut gc = GroupCommitter::new(cfg(3, 100));
        let t0 = SimTime(0);
        assert_eq!(gc.request(t0, 'a'), FlushDecision::WaitUntil(SimTime(100)));
        assert_eq!(gc.request(t0, 'b'), FlushDecision::WaitUntil(SimTime(100)));
        match gc.request(t0, 'c') {
            FlushDecision::FlushNow(tickets) => assert_eq!(tickets, vec!['a', 'b', 'c']),
            other => panic!("expected flush, got {other:?}"),
        }
        assert_eq!(gc.stats().requests, 3);
        assert_eq!(gc.stats().flushes, 1);
        assert_eq!(gc.stats().flushes_by_size, 1);
        assert_eq!(gc.stats().flushes_saved(), 2);
    }

    #[test]
    fn timer_flushes_partial_batch() {
        let mut gc = GroupCommitter::new(cfg(10, 50));
        let d = match gc.request(SimTime(5), 1u32) {
            FlushDecision::WaitUntil(d) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(d, SimTime(55));
        gc.request(SimTime(20), 2u32);
        // Timer fires.
        let released = gc.expire(d).expect("deadline flush");
        assert_eq!(released, vec![1, 2]);
        assert_eq!(gc.stats().flushes_by_timer, 1);
    }

    #[test]
    fn deadline_anchors_to_first_request_of_batch() {
        let mut gc = GroupCommitter::new(cfg(10, 50));
        gc.request(SimTime(0), 'x');
        // A later request does not extend the batch deadline.
        match gc.request(SimTime(40), 'y') {
            FlushDecision::WaitUntil(d) => assert_eq!(d, SimTime(50)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn second_batch_after_timer_flush_anchors_its_own_deadline() {
        let mut gc = GroupCommitter::new(cfg(10, 50));
        gc.request(SimTime(0), 'a');
        assert_eq!(gc.expire(SimTime(50)), Some(vec!['a']));
        // The next request opens a fresh batch: deadline = its own now +
        // max_wait, not a remnant of the flushed batch.
        match gc.request(SimTime(200), 'b') {
            FlushDecision::WaitUntil(d) => assert_eq!(d, SimTime(250)),
            other => panic!("{other:?}"),
        }
        assert_eq!(gc.stats().flushes_by_timer, 1);
    }

    #[test]
    fn expire_with_empty_batch_is_a_noop() {
        let mut gc = GroupCommitter::<u32>::new(cfg(10, 50));
        assert_eq!(gc.expire(SimTime(1_000)), None);
        assert_eq!(gc.stats().flushes, 0);
    }

    #[test]
    fn deadline_flush_bounds_wait_regardless_of_batch_size() {
        // The §4 latency guarantee: no force waits longer than max_wait,
        // even when the batch never fills. Sparse arrivals, batch of 64:
        // every release happens within max_wait of the batch opening.
        let mut gc = GroupCommitter::new(cfg(64, 100));
        let mut open_at: Option<SimTime> = None;
        let mut released = 0usize;
        for i in 0..20u64 {
            let now = SimTime(i * 70); // slower than the batch can fill
            if let Some(opened) = open_at {
                let deadline = SimTime(opened.0 + 100);
                if now >= deadline {
                    let t = gc.expire(deadline).expect("deadline flush");
                    released += t.len();
                    open_at = None;
                }
            }
            match gc.request(now, i) {
                FlushDecision::WaitUntil(d) => {
                    let opened = *open_at.get_or_insert(now);
                    assert!(
                        d.0 - opened.0 <= 100,
                        "wait {} exceeds max_wait",
                        d.0 - opened.0
                    );
                }
                FlushDecision::FlushNow(_) => panic!("batch of 64 must never fill here"),
            }
        }
        if let Some(t) = gc.drain() {
            released += t.len();
        }
        assert_eq!(released, 20, "every force released");
        assert_eq!(gc.stats().flushes_by_size, 0);
        assert!(gc.stats().flushes_by_timer >= 9, "{:?}", gc.stats());
    }

    #[test]
    fn stale_timer_after_size_flush_is_ignored() {
        let mut gc = GroupCommitter::new(cfg(2, 100));
        gc.request(SimTime(0), 'a');
        let FlushDecision::FlushNow(_) = gc.request(SimTime(1), 'b') else {
            panic!("expected size flush");
        };
        assert_eq!(gc.expire(SimTime(100)), None);
        assert_eq!(gc.stats().flushes, 1);
    }

    #[test]
    fn early_expire_call_is_a_noop() {
        let mut gc = GroupCommitter::new(cfg(5, 100));
        gc.request(SimTime(0), 'a');
        assert_eq!(gc.expire(SimTime(50)), None);
        assert_eq!(gc.pending_len(), 1);
    }

    #[test]
    fn drain_releases_everything() {
        let mut gc = GroupCommitter::new(cfg(5, 100));
        gc.request(SimTime(0), 'a');
        gc.request(SimTime(1), 'b');
        assert_eq!(gc.drain(), Some(vec!['a', 'b']));
        assert_eq!(gc.drain(), None);
    }

    #[test]
    fn new_batch_starts_after_flush() {
        let mut gc = GroupCommitter::new(cfg(2, 100));
        gc.request(SimTime(0), 1);
        gc.request(SimTime(0), 2); // flush
        match gc.request(SimTime(200), 3) {
            FlushDecision::WaitUntil(d) => assert_eq!(d, SimTime(300)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_with_empty_batch_is_a_noop() {
        let mut gc = GroupCommitter::<u32>::new(cfg(10, 50));
        assert_eq!(gc.idle(), None);
        assert_eq!(gc.stats(), GroupStats::default());
    }

    #[test]
    fn idle_releases_the_batch_and_clears_its_deadline() {
        let mut gc = GroupCommitter::new(cfg(10, 50));
        gc.request(SimTime(0), 'a');
        gc.request(SimTime(3), 'b');
        assert_eq!(gc.idle(), Some(vec!['a', 'b']));
        assert_eq!(gc.pending_len(), 0);
        // The batch's own deadline is now a stale timer.
        assert_eq!(gc.expire(SimTime(50)), None);
        let stats = gc.stats();
        assert_eq!((stats.flushes, stats.flushes_by_idle), (1, 1));
        assert_eq!((stats.flushes_by_size, stats.flushes_by_timer), (0, 0));
    }

    #[test]
    fn request_after_idle_flush_anchors_a_fresh_deadline() {
        let mut gc = GroupCommitter::new(cfg(10, 50));
        gc.request(SimTime(0), 'a');
        assert_eq!(gc.idle(), Some(vec!['a']));
        assert_eq!(
            gc.request(SimTime(30), 'b'),
            FlushDecision::WaitUntil(SimTime(80))
        );
        // ... which the timer still honours on a host that stays busy.
        assert_eq!(gc.expire(SimTime(80)), Some(vec!['b']));
        let stats = gc.stats();
        assert_eq!(
            stats.flushes,
            stats.flushes_by_size + stats.flushes_by_timer + stats.flushes_by_idle
        );
    }

    #[test]
    fn paper_claim_n_requests_batch_m_saves_most_flushes() {
        // §4: "For n transactions and a group commit of size m" the saving
        // approaches n - n/m flushes. Simulate 120 back-to-back requests,
        // batch of 4: expect 30 flushes, 90 saved.
        let mut gc = GroupCommitter::new(cfg(4, 1_000));
        let mut released = 0;
        for i in 0..120u64 {
            if let FlushDecision::FlushNow(t) = gc.request(SimTime(i), i) {
                released += t.len();
            }
        }
        assert_eq!(released, 120);
        assert_eq!(gc.stats().flushes, 30);
        assert_eq!(gc.stats().flushes_saved(), 90);
    }
}
