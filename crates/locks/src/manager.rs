//! The lock table, wait queues and deadlock detector.

use std::collections::{HashMap, HashSet, VecDeque};

use tpc_common::{IdMap, IdSet, SimDuration, SimTime, TxnId};

use crate::mode::LockMode;

type Key = Vec<u8>;

/// Result of a lock request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Acquired {
    /// The lock is held; proceed.
    Granted,
    /// The request is queued behind incompatible holders; the caller will
    /// be resumed by a [`ReleaseGrant`] from a later `release_all`.
    Wait,
    /// Granting would create a waits-for cycle; the requester was chosen
    /// as the victim and must abort. The request was not queued.
    Deadlock,
}

/// A waiter granted as a consequence of a release.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReleaseGrant {
    /// Transaction whose blocked request is now granted.
    pub txn: TxnId,
    /// Key the grant is for.
    pub key: Key,
    /// Mode granted.
    pub mode: LockMode,
    /// How long the request waited.
    pub waited: SimDuration,
}

/// Lock-manager counters, including the hold-time figures the paper's
/// "early release of locks" claims are evaluated with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Requests received (including re-entrant ones).
    pub requests: u64,
    /// Requests granted without waiting.
    pub immediate_grants: u64,
    /// Requests that had to queue.
    pub waits: u64,
    /// Requests refused as deadlock victims.
    pub deadlocks: u64,
    /// Waiters evicted by [`LockManager::expire_waiters`] — the timeout
    /// backstop that resolves cycles spanning detector instances (e.g.
    /// stripes), which no per-instance waits-for graph can see.
    pub timeouts: u64,
    /// Individual lock releases.
    pub releases: u64,
    /// Sum of (release time − acquisition time) over released locks, µs.
    pub total_hold_micros: u64,
    /// Longest single hold, µs.
    pub max_hold_micros: u64,
    /// Sum of waiter queue time over granted waiters, µs.
    pub total_wait_micros: u64,
}

impl LockStats {
    /// Mean lock hold time across released locks.
    pub fn mean_hold(&self) -> SimDuration {
        SimDuration::from_micros(
            self.total_hold_micros
                .checked_div(self.releases)
                .unwrap_or(0),
        )
    }

    /// Folds another instance's counters into this one (stripe rollup).
    pub fn merge(&mut self, other: &LockStats) {
        self.requests += other.requests;
        self.immediate_grants += other.immediate_grants;
        self.waits += other.waits;
        self.deadlocks += other.deadlocks;
        self.timeouts += other.timeouts;
        self.releases += other.releases;
        self.total_hold_micros += other.total_hold_micros;
        self.max_hold_micros = self.max_hold_micros.max(other.max_hold_micros);
        self.total_wait_micros += other.total_wait_micros;
    }
}

#[derive(Clone, Debug)]
struct Holder {
    txn: TxnId,
    mode: LockMode,
    since: SimTime,
}

#[derive(Clone, Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    since: SimTime,
    /// True when the waiter already holds the lock in a weaker mode and is
    /// upgrading; upgraders are granted ahead of fresh waiters.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct Entry {
    holders: Vec<Holder>,
    waiters: VecDeque<Waiter>,
}

/// A strict-2PL lock manager for one resource manager.
#[derive(Debug, Default)]
pub struct LockManager {
    table: HashMap<Key, Entry>,
    /// Keys each transaction holds (for `release_all`).
    held: IdMap<TxnId, HashSet<Key>>,
    /// Keys each transaction is waiting on (at most one in 2PL, but kept
    /// as a set for robustness).
    waiting: IdMap<TxnId, HashSet<Key>>,
    stats: LockStats,
}

impl LockManager {
    /// An empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> LockStats {
        self.stats
    }

    /// Number of keys with at least one holder or waiter.
    pub fn active_keys(&self) -> usize {
        self.table.len()
    }

    /// The mode `txn` currently holds on `key`, if any.
    pub fn held_mode(&self, txn: TxnId, key: &[u8]) -> Option<LockMode> {
        self.table
            .get(key)?
            .holders
            .iter()
            .find(|h| h.txn == txn)
            .map(|h| h.mode)
    }

    /// True if `txn` holds any lock.
    pub fn holds_any(&self, txn: TxnId) -> bool {
        self.held.get(&txn).is_some_and(|s| !s.is_empty())
    }

    /// Requests `key` in `mode` for `txn` at virtual time `now`.
    pub fn acquire(&mut self, txn: TxnId, key: &[u8], mode: LockMode, now: SimTime) -> Acquired {
        self.stats.requests += 1;
        let entry = self.table.entry(key.to_vec()).or_default();

        // Re-entrant: already held in a covering mode.
        if let Some(h) = entry.holders.iter().find(|h| h.txn == txn) {
            if h.mode.covers(mode) {
                self.stats.immediate_grants += 1;
                return Acquired::Granted;
            }
            // Upgrade path: sole holder upgrades in place.
            if entry.holders.len() == 1 {
                entry.holders[0].mode = entry.holders[0].mode.max(mode);
                self.stats.immediate_grants += 1;
                return Acquired::Granted;
            }
            // Upgrade must wait for the other holders to go away.
            entry.waiters.push_front(Waiter {
                txn,
                mode,
                since: now,
                upgrade: true,
            });
            return self.queue_or_deadlock(txn, key);
        }

        let compatible_with_holders = entry.holders.iter().all(|h| h.mode.compatible(mode));
        // FIFO fairness: a fresh request must also not overtake queued
        // waiters (otherwise writers starve behind a stream of readers).
        if compatible_with_holders && entry.waiters.is_empty() {
            entry.holders.push(Holder {
                txn,
                mode,
                since: now,
            });
            self.held.entry(txn).or_default().insert(key.to_vec());
            self.stats.immediate_grants += 1;
            return Acquired::Granted;
        }

        entry.waiters.push_back(Waiter {
            txn,
            mode,
            since: now,
            upgrade: false,
        });
        self.queue_or_deadlock(txn, key)
    }

    /// After enqueuing `txn` on `key`, either confirm the wait or detect a
    /// deadlock, removing the waiter and reporting the requester as victim.
    fn queue_or_deadlock(&mut self, txn: TxnId, key: &[u8]) -> Acquired {
        self.waiting.entry(txn).or_default().insert(key.to_vec());
        if self.creates_cycle(txn) {
            // Victim: the requester. Remove its fresh waiter entry.
            if let Some(entry) = self.table.get_mut(key) {
                entry.waiters.retain(|w| w.txn != txn);
            }
            if let Some(w) = self.waiting.get_mut(&txn) {
                w.remove(key);
            }
            self.stats.deadlocks += 1;
            Acquired::Deadlock
        } else {
            self.stats.waits += 1;
            Acquired::Wait
        }
    }

    /// Waits-for-graph cycle test starting from `from`.
    ///
    /// Edges: a waiter waits for every holder of the key it is queued on
    /// whose mode is incompatible with its request (for upgrades, the
    /// holder entry of the waiter itself is skipped).
    fn creates_cycle(&self, from: TxnId) -> bool {
        let mut visited: IdSet<TxnId> = IdSet::default();
        let mut stack = vec![from];
        let mut first = true;
        while let Some(t) = stack.pop() {
            if !first && t == from {
                return true;
            }
            first = false;
            if !visited.insert(t) {
                continue;
            }
            if let Some(keys) = self.waiting.get(&t) {
                for key in keys {
                    if let Some(entry) = self.table.get(key) {
                        let my_mode = entry
                            .waiters
                            .iter()
                            .find(|w| w.txn == t)
                            .map(|w| w.mode)
                            .unwrap_or(LockMode::Exclusive);
                        for h in &entry.holders {
                            if h.txn != t && !h.mode.compatible(my_mode) {
                                if h.txn == from {
                                    return true;
                                }
                                stack.push(h.txn);
                            }
                        }
                    }
                }
            }
        }
        false
    }

    /// Releases every lock `txn` holds (strict 2PL: at commit/abort), and
    /// removes it from any wait queue. Returns the waiters granted as a
    /// result, so the caller can resume them.
    pub fn release_all(&mut self, txn: TxnId, now: SimTime) -> Vec<ReleaseGrant> {
        let keys = self.held.remove(&txn).unwrap_or_default();
        // Also clear any queued requests by this transaction (aborting
        // while blocked).
        if let Some(waits) = self.waiting.remove(&txn) {
            for key in waits {
                if let Some(entry) = self.table.get_mut(&key) {
                    entry.waiters.retain(|w| w.txn != txn);
                }
            }
        }

        let mut grants = Vec::new();
        for key in keys {
            let Some(entry) = self.table.get_mut(&key) else {
                continue;
            };
            if let Some(pos) = entry.holders.iter().position(|h| h.txn == txn) {
                let holder = entry.holders.remove(pos);
                let held_for = now.since(holder.since);
                self.stats.releases += 1;
                self.stats.total_hold_micros += held_for.as_micros();
                self.stats.max_hold_micros = self.stats.max_hold_micros.max(held_for.as_micros());
            }
            grants.extend(self.promote_waiters(&key, now));
            if let Some(e) = self.table.get(&key) {
                if e.holders.is_empty() && e.waiters.is_empty() {
                    self.table.remove(&key);
                }
            }
        }
        grants
    }

    /// Transactions currently queued on some key, in no particular order.
    pub fn waiting_txns(&self) -> Vec<TxnId> {
        self.waiting
            .iter()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(txn, _)| *txn)
            .collect()
    }

    /// Evicts every waiter queued longer than `max_wait` and promotes
    /// whoever their departure unblocks. Returns the evicted transactions
    /// (the caller must abort them — they may hold locks elsewhere, which
    /// the abort's `release_all` then frees) plus any follow-on grants.
    ///
    /// This is the timeout backstop for deadlocks the per-instance cycle
    /// detector cannot see: cycles threading through multiple stripes or
    /// multiple nodes.
    pub fn expire_waiters(
        &mut self,
        now: SimTime,
        max_wait: SimDuration,
    ) -> (Vec<TxnId>, Vec<ReleaseGrant>) {
        let mut victims: Vec<TxnId> = Vec::new();
        let mut touched: Vec<Key> = Vec::new();
        for (key, entry) in self.table.iter_mut() {
            let before = entry.waiters.len();
            entry.waiters.retain(|w| {
                if now.since(w.since) > max_wait {
                    victims.push(w.txn);
                    false
                } else {
                    true
                }
            });
            if entry.waiters.len() != before {
                touched.push(key.clone());
            }
        }
        // Dedup: a txn waiting on several keys is one victim.
        victims.sort_unstable();
        victims.dedup();
        for txn in &victims {
            self.stats.timeouts += 1;
            if let Some(keys) = self.waiting.remove(txn) {
                for key in keys {
                    if let Some(entry) = self.table.get_mut(&key) {
                        entry.waiters.retain(|w| w.txn != *txn);
                    }
                }
            }
        }
        let mut grants = Vec::new();
        for key in touched {
            grants.extend(self.promote_waiters(&key, now));
            if let Some(e) = self.table.get(&key) {
                if e.holders.is_empty() && e.waiters.is_empty() {
                    self.table.remove(&key);
                }
            }
        }
        (victims, grants)
    }

    /// Grants queued waiters on `key` in FIFO order while compatible.
    fn promote_waiters(&mut self, key: &[u8], now: SimTime) -> Vec<ReleaseGrant> {
        let mut grants = Vec::new();
        let Some(entry) = self.table.get_mut(key) else {
            return grants;
        };
        while let Some(w) = entry.waiters.front() {
            let ok = if w.upgrade {
                // Upgrade proceeds when the waiter is the sole remaining
                // holder.
                entry.holders.iter().all(|h| h.txn == w.txn)
            } else {
                entry.holders.iter().all(|h| h.mode.compatible(w.mode))
            };
            if !ok {
                break;
            }
            let w = entry.waiters.pop_front().expect("front checked");
            let waited = now.since(w.since);
            self.stats.total_wait_micros += waited.as_micros();
            if w.upgrade {
                if let Some(h) = entry.holders.iter_mut().find(|h| h.txn == w.txn) {
                    h.mode = h.mode.max(w.mode);
                } else {
                    entry.holders.push(Holder {
                        txn: w.txn,
                        mode: w.mode,
                        since: now,
                    });
                }
            } else {
                entry.holders.push(Holder {
                    txn: w.txn,
                    mode: w.mode,
                    since: now,
                });
            }
            self.held.entry(w.txn).or_default().insert(key.to_vec());
            if let Some(ws) = self.waiting.get_mut(&w.txn) {
                ws.remove(key);
            }
            grants.push(ReleaseGrant {
                txn: w.txn,
                key: key.to_vec(),
                mode: w.mode,
                waited,
            });
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::NodeId;

    fn t(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    const K: &[u8] = b"k";

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Shared, SimTime(0)),
            Acquired::Granted
        );
        assert_eq!(
            lm.acquire(t(2), K, LockMode::Shared, SimTime(0)),
            Acquired::Granted
        );
        assert_eq!(lm.stats().immediate_grants, 2);
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Exclusive, SimTime(0)),
            Acquired::Granted
        );
        assert_eq!(
            lm.acquire(t(2), K, LockMode::Shared, SimTime(1)),
            Acquired::Wait
        );
        assert_eq!(
            lm.acquire(t(3), K, LockMode::Exclusive, SimTime(2)),
            Acquired::Wait
        );
    }

    #[test]
    fn release_grants_fifo_and_reports_wait_time() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), K, LockMode::Exclusive, SimTime(10));
        lm.acquire(t(3), K, LockMode::Shared, SimTime(20));
        let grants = lm.release_all(t(1), SimTime(100));
        // Only t2 is granted (X); t3 stays queued behind it.
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, t(2));
        assert_eq!(grants[0].waited, SimDuration(90));
        let grants = lm.release_all(t(2), SimTime(150));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, t(3));
    }

    #[test]
    fn batch_of_shared_waiters_granted_together() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), K, LockMode::Shared, SimTime(1));
        lm.acquire(t(3), K, LockMode::Shared, SimTime(2));
        let grants = lm.release_all(t(1), SimTime(10));
        assert_eq!(grants.len(), 2);
    }

    #[test]
    fn fresh_reader_does_not_overtake_queued_writer() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Shared, SimTime(0));
        assert_eq!(
            lm.acquire(t(2), K, LockMode::Exclusive, SimTime(1)),
            Acquired::Wait
        );
        // t3's shared request is compatible with the holder but must queue
        // behind the writer.
        assert_eq!(
            lm.acquire(t(3), K, LockMode::Shared, SimTime(2)),
            Acquired::Wait
        );
    }

    #[test]
    fn reentrant_and_covering_grants() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Exclusive, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Shared, SimTime(1)),
            Acquired::Granted
        );
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Exclusive, SimTime(2)),
            Acquired::Granted
        );
        assert_eq!(lm.held_mode(t(1), K), Some(LockMode::Exclusive));
    }

    #[test]
    fn sole_holder_upgrades_in_place() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Shared, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Exclusive, SimTime(1)),
            Acquired::Granted
        );
        assert_eq!(lm.held_mode(t(1), K), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_proceeds() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Shared, SimTime(0));
        lm.acquire(t(2), K, LockMode::Shared, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Exclusive, SimTime(1)),
            Acquired::Wait
        );
        let grants = lm.release_all(t(2), SimTime(10));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, t(1));
        assert_eq!(lm.held_mode(t(1), K), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_upgrade_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Shared, SimTime(0));
        lm.acquire(t(2), K, LockMode::Shared, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), K, LockMode::Exclusive, SimTime(1)),
            Acquired::Wait
        );
        // t2 upgrading too closes the cycle: t2 waits for t1's S hold,
        // t1 waits for t2's S hold.
        assert_eq!(
            lm.acquire(t(2), K, LockMode::Exclusive, SimTime(2)),
            Acquired::Deadlock
        );
        assert_eq!(lm.stats().deadlocks, 1);
    }

    #[test]
    fn two_key_cycle_detected() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), b"a", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), b"b", LockMode::Exclusive, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), b"b", LockMode::Exclusive, SimTime(1)),
            Acquired::Wait
        );
        assert_eq!(
            lm.acquire(t(2), b"a", LockMode::Exclusive, SimTime(2)),
            Acquired::Deadlock
        );
    }

    #[test]
    fn three_txn_cycle_detected() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), b"a", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), b"b", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(3), b"c", LockMode::Exclusive, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), b"b", LockMode::Exclusive, SimTime(1)),
            Acquired::Wait
        );
        assert_eq!(
            lm.acquire(t(2), b"c", LockMode::Exclusive, SimTime(2)),
            Acquired::Wait
        );
        assert_eq!(
            lm.acquire(t(3), b"a", LockMode::Exclusive, SimTime(3)),
            Acquired::Deadlock
        );
    }

    #[test]
    fn victim_request_is_not_left_queued() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), b"a", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), b"b", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(1), b"b", LockMode::Exclusive, SimTime(1));
        assert_eq!(
            lm.acquire(t(2), b"a", LockMode::Exclusive, SimTime(2)),
            Acquired::Deadlock
        );
        // t2 aborts, releasing b; t1 should be granted b.
        let grants = lm.release_all(t(2), SimTime(3));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, t(1));
        assert_eq!(grants[0].key, b"b".to_vec());
    }

    #[test]
    fn release_while_waiting_dequeues() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), K, LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), K, LockMode::Exclusive, SimTime(1));
        // t2 aborts while queued.
        let grants = lm.release_all(t(2), SimTime(2));
        assert!(grants.is_empty());
        // t1 releasing now grants nobody and empties the table.
        let grants = lm.release_all(t(1), SimTime(3));
        assert!(grants.is_empty());
        assert_eq!(lm.active_keys(), 0);
    }

    #[test]
    fn hold_time_statistics() {
        let mut lm = LockManager::new();
        lm.acquire(t(1), b"a", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(1), b"b", LockMode::Shared, SimTime(0));
        lm.release_all(t(1), SimTime(250));
        let s = lm.stats();
        assert_eq!(s.releases, 2);
        assert_eq!(s.total_hold_micros, 500);
        assert_eq!(s.max_hold_micros, 250);
        assert_eq!(s.mean_hold(), SimDuration(250));
    }

    #[test]
    fn holds_any_tracks_lifecycle() {
        let mut lm = LockManager::new();
        assert!(!lm.holds_any(t(1)));
        lm.acquire(t(1), K, LockMode::Shared, SimTime(0));
        assert!(lm.holds_any(t(1)));
        lm.release_all(t(1), SimTime(1));
        assert!(!lm.holds_any(t(1)));
    }

    #[test]
    fn mean_hold_on_empty_stats_is_zero() {
        assert_eq!(LockStats::default().mean_hold(), SimDuration::ZERO);
    }
}
