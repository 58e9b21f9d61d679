//! A key-hash-striped lock manager for concurrent hosts.
//!
//! [`LockManager`] is single-threaded by design: the sim owns one per
//! node and calls it inline. A live node running many coordinator lanes
//! needs concurrent lock traffic, and a single `Mutex<LockManager>`
//! would serialize every lane on one global table. [`StripedLockManager`]
//! splits the key space into N independent stripes selected by key hash,
//! each a full `LockManager` behind its own lock — two lanes touching
//! different stripes never contend.
//!
//! Deadlock handling is two-tier: the per-stripe waits-for-graph detector
//! still catches every cycle whose keys hash to one stripe, and
//! [`StripedLockManager::expire_waiters`] provides the timeout backstop
//! for cycles threading across stripes (which no single stripe's graph
//! can see). With `stripes = 1` the behavior is exactly the single-table
//! manager's.

use std::sync::Mutex;

use tpc_common::{shard_of, IdMap, IdSet, SimDuration, SimTime, TxnId};

use crate::manager::{Acquired, LockManager, LockStats, ReleaseGrant};
use crate::mode::LockMode;

/// Shards of the txn → touched-stripes index. Fixed; contention there is
/// brief (point insert/remove under the shard mutex).
const TOUCH_SHARDS: usize = 16;

/// FNV-1a over the key bytes. Stable across runs and cheap; the same
/// function must be used by every layer that co-partitions with the lock
/// table (the RM's striped stores).
#[inline]
pub fn stripe_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sharded [`LockManager`]: N stripes by key hash, safe to call from
/// many threads (`&self` API).
#[derive(Debug)]
pub struct StripedLockManager {
    stripes: Vec<Mutex<LockManager>>,
    /// Which stripes each txn has touched, sharded by txn hash so
    /// `release_all` visits only relevant stripes without a global map.
    touched: Vec<Mutex<IdMap<TxnId, IdSet<usize>>>>,
}

impl StripedLockManager {
    /// A manager with `stripes` independent lock tables (min 1).
    pub fn new(stripes: usize) -> Self {
        let n = stripes.max(1);
        StripedLockManager {
            stripes: (0..n).map(|_| Mutex::new(LockManager::new())).collect(),
            touched: (0..TOUCH_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The stripe index `key` maps to.
    #[inline]
    pub fn stripe_of(&self, key: &[u8]) -> usize {
        (stripe_hash(key) % self.stripes.len() as u64) as usize
    }

    fn touch_shard(&self, txn: TxnId) -> &Mutex<IdMap<TxnId, IdSet<usize>>> {
        &self.touched[shard_of(txn, TOUCH_SHARDS)]
    }

    /// Requests `key` in `mode` for `txn`. Same contract as
    /// [`LockManager::acquire`]; per-stripe deadlock detection applies.
    pub fn acquire(&self, txn: TxnId, key: &[u8], mode: LockMode, now: SimTime) -> Acquired {
        let idx = self.stripe_of(key);
        let got = {
            let mut stripe = self.stripes[idx].lock().expect("stripe poisoned");
            stripe.acquire(txn, key, mode, now)
        };
        if got != Acquired::Deadlock {
            // Both grants and queued waits pin the stripe: release_all
            // must also clear queued requests of an aborting waiter.
            self.touch_shard(txn)
                .lock()
                .expect("touch shard poisoned")
                .entry(txn)
                .or_default()
                .insert(idx);
        }
        got
    }

    /// Releases everything `txn` holds or waits for, visiting only the
    /// stripes it touched. Returns the follow-on grants (which may belong
    /// to other lanes — the caller routes them).
    pub fn release_all(&self, txn: TxnId, now: SimTime) -> Vec<ReleaseGrant> {
        let stripes = self
            .touch_shard(txn)
            .lock()
            .expect("touch shard poisoned")
            .remove(&txn)
            .unwrap_or_default();
        let mut grants = Vec::new();
        for idx in stripes {
            let mut stripe = self.stripes[idx].lock().expect("stripe poisoned");
            grants.extend(stripe.release_all(txn, now));
        }
        grants
    }

    /// Evicts waiters queued longer than `max_wait` on every stripe — the
    /// cross-stripe deadlock backstop. Returns victims to abort plus the
    /// grants their departure unblocked.
    pub fn expire_waiters(
        &self,
        now: SimTime,
        max_wait: SimDuration,
    ) -> (Vec<TxnId>, Vec<ReleaseGrant>) {
        let mut victims = Vec::new();
        let mut grants = Vec::new();
        for stripe in &self.stripes {
            let (v, g) = stripe
                .lock()
                .expect("stripe poisoned")
                .expire_waiters(now, max_wait);
            victims.extend(v);
            grants.extend(g);
        }
        victims.sort_unstable();
        victims.dedup();
        (victims, grants)
    }

    /// The mode `txn` holds on `key`, if any.
    pub fn held_mode(&self, txn: TxnId, key: &[u8]) -> Option<LockMode> {
        self.stripes[self.stripe_of(key)]
            .lock()
            .expect("stripe poisoned")
            .held_mode(txn, key)
    }

    /// True if `txn` holds any lock on any stripe.
    pub fn holds_any(&self, txn: TxnId) -> bool {
        self.touch_shard(txn)
            .lock()
            .expect("touch shard poisoned")
            .get(&txn)
            .is_some_and(|stripes| {
                stripes.iter().any(|&idx| {
                    self.stripes[idx]
                        .lock()
                        .expect("stripe poisoned")
                        .holds_any(txn)
                })
            })
    }

    /// Transactions queued on some stripe right now.
    pub fn waiting_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .stripes
            .iter()
            .flat_map(|s| s.lock().expect("stripe poisoned").waiting_txns())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Keys with at least one holder or waiter, summed over stripes.
    pub fn active_keys(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").active_keys())
            .sum()
    }

    /// Drops every holder, waiter and counter on every stripe — the empty
    /// table a crash leaves behind.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            *stripe.lock().expect("stripe poisoned") = LockManager::new();
        }
        for shard in &self.touched {
            shard.lock().expect("touch shard poisoned").clear();
        }
    }

    /// Counters summed over all stripes.
    pub fn stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for stripe in &self.stripes {
            total.merge(&stripe.lock().expect("stripe poisoned").stats());
        }
        total
    }

    /// Per-stripe counters, in stripe-index order. Contention telemetry:
    /// an uneven `waits` / `total_wait_micros` distribution across stripes
    /// is a hot-key (or bad-hash) signature the merged view hides.
    pub fn per_stripe_stats(&self) -> Vec<LockStats> {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").stats())
            .collect()
    }

    /// Transactions queued behind a lock right now, per stripe — the
    /// waits-for depth each stripe is carrying at this instant.
    pub fn per_stripe_waiters(&self) -> Vec<usize> {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("stripe poisoned").waiting_txns().len())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::NodeId;

    fn t(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn stripes_do_not_phantom_conflict() {
        // X locks on distinct keys never conflict, whatever stripe they
        // hash to.
        let lm = StripedLockManager::new(4);
        for i in 0..64u64 {
            let key = format!("k{i}");
            assert_eq!(
                lm.acquire(t(i), key.as_bytes(), LockMode::Exclusive, SimTime(0)),
                Acquired::Granted
            );
        }
        assert_eq!(lm.stats().immediate_grants, 64);
        assert_eq!(lm.stats().waits, 0);
    }

    #[test]
    fn conflict_and_release_grant_across_threads() {
        let lm = std::sync::Arc::new(StripedLockManager::new(8));
        assert_eq!(
            lm.acquire(t(1), b"hot", LockMode::Exclusive, SimTime(0)),
            Acquired::Granted
        );
        let lm2 = lm.clone();
        let waiter =
            std::thread::spawn(move || lm2.acquire(t(2), b"hot", LockMode::Exclusive, SimTime(1)));
        assert_eq!(waiter.join().unwrap(), Acquired::Wait);
        let grants = lm.release_all(t(1), SimTime(10));
        assert_eq!(grants.len(), 1);
        assert_eq!(grants[0].txn, t(2));
        assert!(lm.holds_any(t(2)));
    }

    #[test]
    fn single_stripe_matches_single_table_deadlock() {
        // One stripe = the plain manager: the two-key cycle is caught by
        // the graph detector, not the timeout.
        let lm = StripedLockManager::new(1);
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
    fn cross_stripe_cycle_resolved_by_timeout() {
        // Force keys into different stripes, build an a↔b cycle the
        // per-stripe detectors cannot see, then expire.
        let lm = StripedLockManager::new(8);
        let (a, b) = two_keys_on_distinct_stripes(&lm);
        lm.acquire(t(1), &a, LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), &b, LockMode::Exclusive, SimTime(0));
        assert_eq!(
            lm.acquire(t(1), &b, LockMode::Exclusive, SimTime(1)),
            Acquired::Wait,
            "cross-stripe edge is invisible to the stripe detector"
        );
        assert_eq!(
            lm.acquire(t(2), &a, LockMode::Exclusive, SimTime(2)),
            Acquired::Wait
        );
        let (victims, _grants) = lm.expire_waiters(SimTime(10_000), SimDuration(1_000));
        assert!(!victims.is_empty(), "timeout must break the cycle");
        assert!(lm.stats().timeouts >= 1);
        // Aborting the victims unjams the survivors.
        let mut grants = Vec::new();
        for v in &victims {
            grants.extend(lm.release_all(*v, SimTime(10_001)));
        }
        let survivors: Vec<TxnId> = [t(1), t(2)]
            .into_iter()
            .filter(|x| !victims.contains(x))
            .collect();
        for s in survivors {
            assert!(grants.iter().any(|g| g.txn == s) || lm.holds_any(s));
        }
    }

    fn two_keys_on_distinct_stripes(lm: &StripedLockManager) -> (Vec<u8>, Vec<u8>) {
        let a = b"seed".to_vec();
        let sa = lm.stripe_of(&a);
        for i in 0..1024 {
            let b = format!("probe{i}").into_bytes();
            if lm.stripe_of(&b) != sa {
                return (a, b);
            }
        }
        panic!("no second stripe found");
    }

    #[test]
    fn clear_drops_holders_waiters_and_counters() {
        let lm = StripedLockManager::new(4);
        lm.acquire(t(1), b"x", LockMode::Exclusive, SimTime(0));
        lm.acquire(t(2), b"x", LockMode::Exclusive, SimTime(1));
        lm.clear();
        assert_eq!(lm.active_keys(), 0);
        assert!(!lm.holds_any(t(1)));
        assert_eq!(lm.stats(), LockStats::default());
        assert_eq!(
            lm.acquire(t(2), b"x", LockMode::Exclusive, SimTime(2)),
            Acquired::Granted
        );
    }

    #[test]
    fn release_of_queued_waiter_dequeues_everywhere() {
        let lm = StripedLockManager::new(4);
        lm.acquire(t(1), b"x", LockMode::Exclusive, SimTime(0));
        assert_eq!(
            lm.acquire(t(2), b"x", LockMode::Exclusive, SimTime(1)),
            Acquired::Wait
        );
        assert_eq!(lm.waiting_txns(), vec![t(2)]);
        // t2 aborts while queued: nothing granted, queue cleaned.
        assert!(lm.release_all(t(2), SimTime(2)).is_empty());
        assert!(lm.waiting_txns().is_empty());
        assert!(lm.release_all(t(1), SimTime(3)).is_empty());
        assert_eq!(lm.active_keys(), 0);
    }
}
