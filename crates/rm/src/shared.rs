//! The resource manager: transactional access, 2PC participation and
//! crash recovery, callable from many coordinator lanes at once.
//!
//! A live node running M coordinator lanes in parallel needs a `&self`
//! RM whose hot paths — lock acquisition, data access, workspace
//! bookkeeping — never serialize on one global structure. [`SharedRm`]
//! stripes the committed store by key hash (co-partitioned with the
//! [`StripedLockManager`]'s stripes) and shards the per-transaction
//! contexts by txn hash, so lanes working disjoint keys and transactions
//! proceed without contention. The deterministic simulator runs the same
//! RM with one stripe, where the lock table is exactly the single-table
//! [`tpc_locks::LockManager`]: same deadlock detector, same grant order.
//!
//! Logging goes through the `&mut dyn LogManager` the caller passes in
//! (each lane holds its own handle to the node's shared log).
//!
//! Lock discipline: at most one internal mutex is ever held at a time;
//! data is copied out between acquisitions. No path can deadlock on
//! SharedRm's own locks.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use tpc_common::{Error, Lsn, Result, RmId, SimDuration, SimTime, TxnId};
use tpc_locks::{stripe_hash, Acquired, LockMode, LockStats, ReleaseGrant, StripedLockManager};
use tpc_wal::{Durability, LogManager, LogRecord, StreamId};

use crate::store::KvStore;

/// Static properties of one resource manager.
#[derive(Clone, Debug)]
pub struct RmConfig {
    /// Identity within its node; names the RM's log stream.
    pub id: RmId,
}

impl RmConfig {
    /// The configuration of RM `id`.
    pub fn new(id: RmId) -> Self {
        RmConfig { id }
    }
}

/// Result of a data access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// Read result (or write acknowledgment carrying the old value).
    Value(Option<Vec<u8>>),
    /// Blocked on a lock; the owner will be resumed by a release grant.
    Wait,
    /// Chosen as a deadlock victim; the transaction must abort.
    Deadlock,
}

/// Where a transaction stands inside this RM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmPhase {
    /// Executing; may still read and write.
    Active,
    /// Voted YES; holding locks, awaiting the decision (in doubt).
    Prepared,
    /// Final: updates applied.
    Committed,
    /// Final: updates discarded.
    Aborted,
}

/// Shards for the txn-keyed maps (contexts, finished phases). Fixed and
/// independent of the key-stripe count.
const TXN_SHARDS: usize = 16;

#[derive(Debug, Default)]
struct TxnCtx {
    /// Pending writes, last-write-wins per key (`None` = delete). Empty
    /// exactly when the transaction has updated nothing here.
    workspace: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    prepared: bool,
}

/// A key-striped, transaction-sharded resource manager safe to drive
/// from many coordinator lanes at once.
#[derive(Debug)]
pub struct SharedRm {
    cfg: RmConfig,
    /// Committed state, striped by the same key hash as the lock table.
    stores: Vec<Mutex<KvStore>>,
    locks: StripedLockManager,
    txns: Vec<Mutex<HashMap<TxnId, TxnCtx>>>,
    finished: Vec<Mutex<HashMap<TxnId, RmPhase>>>,
}

impl SharedRm {
    /// An empty RM with `stripes` store/lock stripes (min 1).
    pub fn new(cfg: RmConfig, stripes: usize) -> Self {
        let n = stripes.max(1);
        SharedRm {
            cfg,
            stores: (0..n).map(|_| Mutex::new(KvStore::new())).collect(),
            locks: StripedLockManager::new(n),
            txns: (0..TXN_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            finished: (0..TXN_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &RmConfig {
        &self.cfg
    }

    /// Number of key stripes.
    pub fn stripes(&self) -> usize {
        self.stores.len()
    }

    #[inline]
    fn store_of(&self, key: &[u8]) -> &Mutex<KvStore> {
        &self.stores[(stripe_hash(key) % self.stores.len() as u64) as usize]
    }

    #[inline]
    fn txn_shard_idx(txn: TxnId) -> usize {
        let h = txn.origin.0 as u64 ^ txn.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h % TXN_SHARDS as u64) as usize
    }

    fn ctx_shard(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, TxnCtx>> {
        &self.txns[Self::txn_shard_idx(txn)]
    }

    fn finished_shard(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, RmPhase>> {
        &self.finished[Self::txn_shard_idx(txn)]
    }

    /// Committed value for `key` (the live runtime's `Read` app command).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.store_of(key)
            .lock()
            .expect("store stripe poisoned")
            .get(key)
            .map(|v| v.to_vec())
    }

    /// Number of committed keys across all stripes.
    pub fn store_len(&self) -> usize {
        self.stores
            .iter()
            .map(|s| s.lock().expect("store stripe poisoned").len())
            .sum()
    }

    /// A snapshot of the committed state merged into one `KvStore` (for
    /// checks and consistency sweeps — not a hot path).
    pub fn store_snapshot(&self) -> KvStore {
        let mut out = KvStore::new();
        for stripe in &self.stores {
            for (k, v) in stripe.lock().expect("store stripe poisoned").iter() {
                out.apply(k, Some(v.to_vec()));
            }
        }
        out
    }

    /// Lock statistics summed over stripes.
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Lock statistics per stripe (contention telemetry; stripe-index
    /// order).
    pub fn per_stripe_lock_stats(&self) -> Vec<LockStats> {
        self.locks.per_stripe_stats()
    }

    /// Transactions parked in lock wait queues right now, summed over
    /// stripes — the node's waits-for depth gauge.
    pub fn lock_waiter_depth(&self) -> usize {
        self.locks.per_stripe_waiters().iter().sum()
    }

    /// Keys with lock activity — zero when everything has released.
    pub fn locked_keys(&self) -> usize {
        self.locks.active_keys()
    }

    /// The phase of `txn`, if this RM has seen it.
    pub fn phase(&self, txn: TxnId) -> Option<RmPhase> {
        if let Some(ctx) = self
            .ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .get(&txn)
        {
            return Some(if ctx.prepared {
                RmPhase::Prepared
            } else {
                RmPhase::Active
            });
        }
        self.finished_shard(txn)
            .lock()
            .expect("finished shard poisoned")
            .get(&txn)
            .copied()
    }

    /// Transactions currently prepared-and-undecided (in doubt).
    pub fn in_doubt(&self) -> Vec<TxnId> {
        let mut v: Vec<TxnId> = self
            .txns
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .expect("txn shard poisoned")
                    .iter()
                    .filter(|(_, c)| c.prepared)
                    .map(|(t, _)| *t)
                    .collect::<Vec<_>>()
            })
            .collect();
        v.sort();
        v
    }

    /// True if `txn` performed no updates here.
    pub fn is_read_only(&self, txn: TxnId) -> bool {
        self.ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .get(&txn)
            .map(|c| c.workspace.is_empty())
            .unwrap_or(true)
    }

    fn check_active(&self, txn: TxnId) -> Result<()> {
        if self
            .ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .get(&txn)
            .map(|c| c.prepared)
            .unwrap_or(false)
        {
            return Err(Error::InvalidState(format!(
                "{txn} is prepared; no further access allowed"
            )));
        }
        if self
            .finished_shard(txn)
            .lock()
            .expect("finished shard poisoned")
            .contains_key(&txn)
        {
            return Err(Error::InvalidState(format!("{txn} already finished")));
        }
        Ok(())
    }

    /// Pending-workspace-aware read of `key` for `txn`.
    fn visible(&self, txn: TxnId, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(ctx) = self
            .ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .get(&txn)
        {
            if let Some(pending) = ctx.workspace.get(key) {
                return pending.clone();
            }
        }
        self.get(key)
    }

    /// Reads `key` under a shared lock.
    pub fn read(&self, txn: TxnId, key: &[u8], now: SimTime) -> Result<Access> {
        self.check_active(txn)?;
        match self.locks.acquire(txn, key, LockMode::Shared, now) {
            Acquired::Granted => {
                self.ctx_shard(txn)
                    .lock()
                    .expect("txn shard poisoned")
                    .entry(txn)
                    .or_default();
                Ok(Access::Value(self.visible(txn, key)))
            }
            Acquired::Wait => Ok(Access::Wait),
            Acquired::Deadlock => Ok(Access::Deadlock),
        }
    }

    /// Writes `key` (`None` deletes) under an exclusive lock, logging the
    /// undo/redo record non-forced (durable with the prepare force).
    pub fn write(
        &self,
        txn: TxnId,
        key: &[u8],
        value: Option<Vec<u8>>,
        log: &mut dyn LogManager,
        now: SimTime,
    ) -> Result<Access> {
        self.check_active(txn)?;
        match self.locks.acquire(txn, key, LockMode::Exclusive, now) {
            Acquired::Wait => return Ok(Access::Wait),
            Acquired::Deadlock => return Ok(Access::Deadlock),
            Acquired::Granted => {}
        }
        let before = self.visible(txn, key);
        log.append(
            StreamId::Rm(self.cfg.id.0),
            LogRecord::RmUpdate {
                rm: self.cfg.id,
                txn,
                key: key.to_vec(),
                before: before.clone(),
                after: value.clone(),
            },
            Durability::NonForced,
        )?;
        self.ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .entry(txn)
            .or_default()
            .workspace
            .insert(key.to_vec(), value);
        Ok(Access::Value(before))
    }

    /// Prepares `txn`: makes its updates stable and guarantees it can go
    /// either way. `durability` is dictated by the engine: `Forced`
    /// normally, `NonForced` under the shared-log optimization (the TM's
    /// commit force carries it).
    ///
    /// Read-only eligibility is the *caller's* decision — when the engine
    /// runs with the read-only optimization it calls
    /// [`SharedRm::forget_read_only`] instead of preparing.
    pub fn prepare(
        &self,
        txn: TxnId,
        log: &mut dyn LogManager,
        durability: Durability,
    ) -> Result<Lsn> {
        {
            let mut shard = self.ctx_shard(txn).lock().expect("txn shard poisoned");
            let ctx = shard.get_mut(&txn).ok_or(Error::UnknownTxn(txn))?;
            if ctx.prepared {
                return Err(Error::InvalidState(format!("{txn} already prepared")));
            }
            ctx.prepared = true;
        }
        log.append(
            StreamId::Rm(self.cfg.id.0),
            LogRecord::RmPrepared {
                rm: self.cfg.id,
                txn,
            },
            durability,
        )
    }

    /// Releases a read-only transaction without logging anything: commit
    /// and abort are identical for it (§4 *Read Only*). Returns the lock
    /// grants produced by the early release.
    pub fn forget_read_only(&self, txn: TxnId, now: SimTime) -> Result<Vec<ReleaseGrant>> {
        {
            let mut shard = self.ctx_shard(txn).lock().expect("txn shard poisoned");
            let ctx = shard.remove(&txn).ok_or(Error::UnknownTxn(txn))?;
            if !ctx.workspace.is_empty() {
                shard.insert(txn, ctx);
                return Err(Error::InvalidState(format!(
                    "{txn} performed updates; cannot vote read-only"
                )));
            }
        }
        self.finished_shard(txn)
            .lock()
            .expect("finished shard poisoned")
            .insert(txn, RmPhase::Committed);
        Ok(self.locks.release_all(txn, now))
    }

    /// Commits `txn`, applying its updates and releasing its locks.
    pub fn commit(
        &self,
        txn: TxnId,
        log: &mut dyn LogManager,
        durability: Durability,
        now: SimTime,
    ) -> Result<Vec<ReleaseGrant>> {
        let ctx = self
            .ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .remove(&txn)
            .ok_or(Error::UnknownTxn(txn))?;
        log.append(
            StreamId::Rm(self.cfg.id.0),
            LogRecord::RmCommitted {
                rm: self.cfg.id,
                txn,
            },
            durability,
        )?;
        for (key, value) in ctx.workspace {
            self.store_of(&key)
                .lock()
                .expect("store stripe poisoned")
                .apply(&key, value);
        }
        self.finished_shard(txn)
            .lock()
            .expect("finished shard poisoned")
            .insert(txn, RmPhase::Committed);
        Ok(self.locks.release_all(txn, now))
    }

    /// Aborts `txn`, discarding its updates and releasing its locks.
    /// Abort of an unknown transaction is legal (presumed abort).
    pub fn abort(
        &self,
        txn: TxnId,
        log: &mut dyn LogManager,
        durability: Durability,
        now: SimTime,
    ) -> Result<Vec<ReleaseGrant>> {
        self.ctx_shard(txn)
            .lock()
            .expect("txn shard poisoned")
            .remove(&txn);
        log.append(
            StreamId::Rm(self.cfg.id.0),
            LogRecord::RmAborted {
                rm: self.cfg.id,
                txn,
            },
            durability,
        )?;
        self.finished_shard(txn)
            .lock()
            .expect("finished shard poisoned")
            .insert(txn, RmPhase::Aborted);
        Ok(self.locks.release_all(txn, now))
    }

    /// Evicts lock waiters older than `max_wait` — the cross-stripe (and
    /// cross-node) deadlock backstop. The caller aborts the victims.
    pub fn expire_lock_waits(
        &self,
        now: SimTime,
        max_wait: SimDuration,
    ) -> (Vec<TxnId>, Vec<ReleaseGrant>) {
        self.locks.expire_waiters(now, max_wait)
    }

    /// Simulated crash: volatile state (store, lock table and its
    /// counters, transaction contexts) is lost. Call
    /// [`SharedRm::recover`] with the durable log afterwards.
    pub fn crash(&self) {
        for s in &self.stores {
            s.lock().expect("store stripe poisoned").clear();
        }
        for shard in &self.txns {
            shard.lock().expect("txn shard poisoned").clear();
        }
        for shard in &self.finished {
            shard.lock().expect("finished shard poisoned").clear();
        }
        self.locks.clear();
    }

    /// Rebuilds state from the durable log: redoes committed transactions
    /// in log order, discards aborted/unfinished ones, and restores
    /// prepared-but-undecided transactions as in-doubt (workspace
    /// reconstructed, exclusive locks re-acquired so the data stays
    /// protected while in doubt). Returns the in-doubt transactions.
    pub fn recover(
        &self,
        durable: &[(Lsn, StreamId, LogRecord)],
        now: SimTime,
    ) -> Result<Vec<TxnId>> {
        self.crash();
        let mine = StreamId::Rm(self.cfg.id.0);
        let mut pending: HashMap<TxnId, TxnCtx> = HashMap::new();
        for (_, stream, record) in durable {
            if *stream != mine {
                continue;
            }
            match record {
                LogRecord::RmUpdate {
                    txn, key, after, ..
                } => {
                    pending
                        .entry(*txn)
                        .or_default()
                        .workspace
                        .insert(key.clone(), after.clone());
                }
                LogRecord::RmPrepared { txn, .. } => {
                    pending.entry(*txn).or_default().prepared = true;
                }
                LogRecord::RmCommitted { txn, .. } => {
                    if let Some(ctx) = pending.remove(txn) {
                        for (key, value) in ctx.workspace {
                            self.store_of(&key)
                                .lock()
                                .expect("store stripe poisoned")
                                .apply(&key, value);
                        }
                    }
                    self.finished_shard(*txn)
                        .lock()
                        .expect("finished shard poisoned")
                        .insert(*txn, RmPhase::Committed);
                }
                LogRecord::RmAborted { txn, .. } => {
                    pending.remove(txn);
                    self.finished_shard(*txn)
                        .lock()
                        .expect("finished shard poisoned")
                        .insert(*txn, RmPhase::Aborted);
                }
                _ => {}
            }
        }
        let mut in_doubt = Vec::new();
        for (txn, ctx) in pending {
            if ctx.prepared {
                for key in ctx.workspace.keys() {
                    match self.locks.acquire(txn, key, LockMode::Exclusive, now) {
                        Acquired::Granted => {}
                        other => {
                            return Err(Error::InvalidState(format!(
                                "recovery lock re-acquisition for {txn} failed: {other:?}"
                            )))
                        }
                    }
                }
                self.ctx_shard(txn)
                    .lock()
                    .expect("txn shard poisoned")
                    .insert(txn, ctx);
                in_doubt.push(txn);
            }
            // Unprepared work simply evaporates: its updates were never
            // applied to the store and its locks died with the crash.
        }
        in_doubt.sort();
        Ok(in_doubt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::NodeId;
    use tpc_wal::MemLog;

    fn t(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn rm(stripes: usize) -> SharedRm {
        SharedRm::new(RmConfig::new(RmId(1)), stripes)
    }

    fn write_ok(rm: &SharedRm, txn: TxnId, key: &[u8], val: &[u8], log: &mut MemLog) {
        match rm
            .write(txn, key, Some(val.to_vec()), log, SimTime(0))
            .unwrap()
        {
            Access::Value(_) => {}
            other => panic!("write blocked: {other:?}"),
        }
    }

    #[test]
    fn commit_applies_across_stripes() {
        let r = rm(8);
        let mut log = MemLog::new();
        for i in 0..32 {
            let key = format!("k{i}");
            write_ok(&r, t(1), key.as_bytes(), b"v", &mut log);
        }
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        r.commit(t(1), &mut log, Durability::Forced, SimTime(1))
            .unwrap();
        assert_eq!(r.store_len(), 32);
        assert_eq!(r.get(b"k7"), Some(b"v".to_vec()));
        assert_eq!(r.phase(t(1)), Some(RmPhase::Committed));
        assert_eq!(r.locked_keys(), 0);
    }

    #[test]
    fn one_stripe_matches_four_stripes() {
        // The same script at 1 and 4 stripes must produce the same store,
        // phases and log records.
        let script = |r: &SharedRm, log: &mut MemLog| {
            for (txn, key, val) in [(1u64, "a", "1"), (2, "b", "2"), (1, "c", "3")] {
                write_ok(r, t(txn), key.as_bytes(), val.as_bytes(), log);
            }
            for txn in [1u64, 2] {
                r.prepare(t(txn), log, Durability::Forced).unwrap();
            }
            r.commit(t(1), log, Durability::Forced, SimTime(1)).unwrap();
            r.abort(t(2), log, Durability::NonForced, SimTime(2))
                .unwrap();
        };
        let (single, striped) = (rm(1), rm(4));
        let (mut log_a, mut log_b) = (MemLog::new(), MemLog::new());
        script(&single, &mut log_a);
        script(&striped, &mut log_b);

        assert_eq!(single.store_snapshot(), striped.store_snapshot());
        assert_eq!(log_a.stats(), log_b.stats());
        assert_eq!(single.phase(t(1)), striped.phase(t(1)));
        assert_eq!(single.phase(t(2)), striped.phase(t(2)));
    }

    #[test]
    fn read_your_own_writes() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        assert_eq!(
            r.read(t(1), b"k", SimTime(0)).unwrap(),
            Access::Value(Some(b"v".to_vec()))
        );
        // Not visible in the committed store yet.
        assert_eq!(r.get(b"k"), None);
    }

    #[test]
    fn abort_of_unknown_txn_is_legal() {
        let r = rm(1);
        let mut log = MemLog::new();
        assert!(r
            .abort(t(9), &mut log, Durability::NonForced, SimTime(0))
            .is_ok());
        assert_eq!(r.phase(t(9)), Some(RmPhase::Aborted));
    }

    #[test]
    fn prepared_txn_rejects_further_access() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        assert!(r.read(t(1), b"k", SimTime(0)).is_err());
        assert!(r
            .write(t(1), b"k", Some(b"w".to_vec()), &mut log, SimTime(0))
            .is_err());
        assert_eq!(r.in_doubt(), vec![t(1)]);
    }

    #[test]
    fn read_only_detection_and_forget() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        r.commit(t(1), &mut log, Durability::Forced, SimTime(0))
            .unwrap();
        let before = log.stats();

        assert_eq!(
            r.read(t(2), b"k", SimTime(1)).unwrap(),
            Access::Value(Some(b"v".to_vec()))
        );
        assert!(r.is_read_only(t(2)));
        r.forget_read_only(t(2), SimTime(2)).unwrap();
        // No log writes at all for the read-only participant.
        assert_eq!(log.stats(), before);
        assert!(!r.locks.holds_any(t(2)));
    }

    #[test]
    fn forget_read_only_rejected_after_update() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        assert!(!r.is_read_only(t(1)));
        assert!(r.forget_read_only(t(1), SimTime(0)).is_err());
        // The rejected transaction keeps its context and its lock.
        assert_eq!(r.phase(t(1)), Some(RmPhase::Active));
        assert!(r.locks.holds_any(t(1)));
    }

    #[test]
    fn crash_before_prepare_releases_every_lock() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        log.crash();
        log.restart();
        let in_doubt = r.recover(&log.durable_records(), SimTime(0)).unwrap();
        assert!(in_doubt.is_empty());
        assert_eq!(r.get(b"k"), None);
        assert_eq!(r.locked_keys(), 0);
        assert_eq!(
            r.write(t(2), b"k", Some(b"w".to_vec()), &mut log, SimTime(1))
                .unwrap(),
            Access::Value(None)
        );
    }

    #[test]
    fn unforced_commit_record_lost_on_crash_leaves_in_doubt() {
        // Shared-log scenario: RmCommitted was non-forced and the TM force
        // never happened before the crash — the RM must come back in
        // doubt, not committed.
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        r.commit(t(1), &mut log, Durability::NonForced, SimTime(1))
            .unwrap();
        log.crash();
        log.restart();
        let in_doubt = r.recover(&log.durable_records(), SimTime(2)).unwrap();
        assert_eq!(in_doubt, vec![t(1)]);
        assert_eq!(r.get(b"k"), None);
    }

    #[test]
    fn crash_after_commit_redoes_idempotently() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        r.commit(t(1), &mut log, Durability::Forced, SimTime(1))
            .unwrap();
        log.crash();
        log.restart();
        let in_doubt = r.recover(&log.durable_records(), SimTime(2)).unwrap();
        assert!(in_doubt.is_empty());
        assert_eq!(r.get(b"k"), Some(b"v".to_vec()));
        assert_eq!(r.phase(t(1)), Some(RmPhase::Committed));
        let first = r.store_snapshot();
        r.recover(&log.durable_records(), SimTime(3)).unwrap();
        assert_eq!(r.store_snapshot(), first);
    }

    #[test]
    fn delete_roundtrip() {
        let r = rm(1);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        r.commit(t(1), &mut log, Durability::Forced, SimTime(1))
            .unwrap();
        assert_eq!(
            r.write(t(2), b"k", None, &mut log, SimTime(2)).unwrap(),
            Access::Value(Some(b"v".to_vec()))
        );
        r.prepare(t(2), &mut log, Durability::Forced).unwrap();
        r.commit(t(2), &mut log, Durability::Forced, SimTime(3))
            .unwrap();
        assert_eq!(r.get(b"k"), None);
        assert_eq!(r.store_len(), 0);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let r = std::sync::Arc::new(rm(8));
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut log = MemLog::new();
                let txn = t(w + 1);
                for i in 0..16 {
                    let key = format!("w{w}-k{i}");
                    match r
                        .write(
                            txn,
                            key.as_bytes(),
                            Some(b"v".to_vec()),
                            &mut log,
                            SimTime(0),
                        )
                        .unwrap()
                    {
                        Access::Value(_) => {}
                        other => panic!("disjoint write blocked: {other:?}"),
                    }
                }
                r.prepare(txn, &mut log, Durability::Forced).unwrap();
                r.commit(txn, &mut log, Durability::Forced, SimTime(1))
                    .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.store_len(), 64);
        assert_eq!(r.locked_keys(), 0);
        assert_eq!(r.in_doubt(), Vec::<TxnId>::new());
    }

    #[test]
    fn recover_restores_in_doubt_with_locks() {
        let r = rm(4);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"k", b"v", &mut log);
        r.prepare(t(1), &mut log, Durability::Forced).unwrap();
        log.crash();
        log.restart();
        let in_doubt = r.recover(&log.durable_records(), SimTime(0)).unwrap();
        assert_eq!(in_doubt, vec![t(1)]);
        assert_eq!(
            r.write(t(2), b"k", Some(b"w".to_vec()), &mut log, SimTime(1))
                .unwrap(),
            Access::Wait
        );
        r.commit(t(1), &mut log, Durability::Forced, SimTime(2))
            .unwrap();
        assert_eq!(r.get(b"k"), Some(b"v".to_vec()));
    }

    #[test]
    fn expire_lock_waits_breaks_cross_stripe_jam() {
        let r = rm(8);
        let mut log = MemLog::new();
        write_ok(&r, t(1), b"hot", b"a", &mut log);
        assert_eq!(
            r.write(t(2), b"hot", Some(b"b".to_vec()), &mut log, SimTime(1))
                .unwrap(),
            Access::Wait
        );
        let (victims, _) = r.expire_lock_waits(SimTime(1_000_000), SimDuration(1_000));
        assert_eq!(victims, vec![t(2)]);
        // The victim aborts; the holder is unaffected.
        r.abort(t(2), &mut log, Durability::NonForced, SimTime(1_000_001))
            .unwrap();
        assert_eq!(r.phase(t(1)), Some(RmPhase::Active));
    }
}
