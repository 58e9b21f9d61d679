//! The live host's timer queue: wall-clock deadlines with eager
//! cancellation.
//!
//! The queue holds exactly the timers the driver considers armed. A
//! lazily-cancelled heap (cancel = no-op, skip stale generations when
//! they come due) looks cheaper, but every committed transaction leaves
//! its cancelled `vote_collection` entry behind for the full timeout;
//! once a node is older than that, a stale entry comes due every few
//! microseconds, the lane's `recv_timeout` is always armed with a
//! deadline that has just passed, and every idle wait degrades into a
//! poll (measured: ≈ 45 % of throughput on every workload).

use std::collections::BTreeMap;
use std::time::Instant;

use tpc_common::{IdMap, TxnId};
use tpc_core::TimerKind;

/// Armed timers ordered by deadline, indexed by `(txn, kind)` so a
/// cancel or re-arm removes the old entry at once.
#[derive(Default)]
pub(crate) struct TimerQueue {
    /// `(deadline, generation)` → timer. The driver's generation is
    /// unique per arming, so it breaks deadline ties.
    due: BTreeMap<(Instant, u64), (TxnId, TimerKind)>,
    armed: IdMap<(TxnId, TimerKind), (Instant, u64)>,
}

impl TimerQueue {
    /// Arms `(txn, kind)` for `deadline`, replacing any earlier arming.
    pub(crate) fn set(&mut self, txn: TxnId, kind: TimerKind, deadline: Instant, gen: u64) {
        if let Some(old) = self.armed.insert((txn, kind), (deadline, gen)) {
            self.due.remove(&old);
        }
        self.due.insert((deadline, gen), (txn, kind));
    }

    /// Disarms `(txn, kind)`; a no-op if it is not armed.
    pub(crate) fn cancel(&mut self, txn: TxnId, kind: TimerKind) {
        if let Some(key) = self.armed.remove(&(txn, kind)) {
            self.due.remove(&key);
        }
    }

    /// The earliest armed deadline.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.due.keys().next().map(|(deadline, _)| *deadline)
    }

    /// Removes and returns the earliest timer if it is due at `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<(TxnId, TimerKind, u64)> {
        let entry = self.due.first_entry()?;
        let (deadline, gen) = *entry.key();
        if deadline > now {
            return None;
        }
        let (txn, kind) = entry.remove();
        self.armed.remove(&(txn, kind));
        Some((txn, kind, gen))
    }

    /// How many timers are armed.
    pub(crate) fn len(&self) -> usize {
        self.due.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::time::Duration;

    use tpc_common::NodeId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(0), seq)
    }

    #[test]
    fn pops_in_deadline_order_and_only_when_due() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let mut q = TimerQueue::default();
        q.set(txn(1), TimerKind::VoteCollection, at(30), 1);
        q.set(txn(2), TimerKind::VoteCollection, at(10), 2);
        q.set(txn(3), TimerKind::AckCollection, at(20), 3);
        assert_eq!(q.next_deadline(), Some(at(10)));
        assert_eq!(q.pop_due(at(5)), None);
        assert_eq!(
            q.pop_due(at(25)),
            Some((txn(2), TimerKind::VoteCollection, 2))
        );
        assert_eq!(
            q.pop_due(at(25)),
            Some((txn(3), TimerKind::AckCollection, 3))
        );
        assert_eq!(q.pop_due(at(25)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cancel_and_rearm_leave_no_stale_entry() {
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let mut q = TimerQueue::default();
        q.set(txn(1), TimerKind::VoteCollection, at(10), 1);
        q.set(txn(1), TimerKind::AckCollection, at(10), 2);
        // Re-arming replaces the old deadline instead of adding a second.
        q.set(txn(1), TimerKind::VoteCollection, at(40), 3);
        assert_eq!(q.len(), 2);
        q.cancel(txn(1), TimerKind::AckCollection);
        q.cancel(txn(9), TimerKind::AckCollection); // never armed
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_deadline(), Some(at(40)));
        assert_eq!(
            q.pop_due(at(40)),
            Some((txn(1), TimerKind::VoteCollection, 3))
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_deadline(), None);
    }
}
