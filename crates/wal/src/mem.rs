//! In-memory log with a crash-losable volatile tail.
//!
//! This is the log the simulator gives every node. Records appended with
//! [`Durability::NonForced`] sit in a volatile tail; a forced append (or an
//! explicit [`MemLog::flush`]) moves the whole tail to the durable prefix.
//! [`MemLog::crash`] discards the volatile tail — the simulator's model of
//! losing the log buffer in a system failure.

use tpc_common::wire::Encode;
use tpc_common::{Error, Lsn, Result};

use crate::log::{Durability, LogManager, LogStats, StreamId};
use crate::record::LogRecord;

#[derive(Clone, Debug)]
struct Entry {
    lsn: Lsn,
    stream: StreamId,
    record: LogRecord,
    durability: Durability,
}

/// Volatile-tail in-memory log.
#[derive(Debug, Default)]
pub struct MemLog {
    durable: Vec<Entry>,
    volatile: Vec<Entry>,
    next_lsn: u64,
    stats: LogStats,
    crashed: bool,
    /// Reused buffer a record is encoded into to count its bytes.
    scratch: Vec<u8>,
}

impl MemLog {
    /// A fresh, empty log.
    pub fn new() -> Self {
        MemLog::default()
    }

    /// Simulates a system failure: the volatile tail is lost, and the log
    /// refuses further appends until [`MemLog::restart`].
    pub fn crash(&mut self) {
        self.volatile.clear();
        self.crashed = true;
    }

    /// Completes recovery restart: the log accepts appends again. The
    /// durable prefix is unchanged; LSNs continue from the durable end.
    pub fn restart(&mut self) {
        self.crashed = false;
        self.next_lsn = self.durable.last().map(|e| e.lsn.0 + 1).unwrap_or(0);
    }

    /// True while crashed (between [`MemLog::crash`] and
    /// [`MemLog::restart`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Number of records in the volatile (unforced) tail.
    pub fn volatile_len(&self) -> usize {
        self.volatile.len()
    }

    /// Records a physical flush performed externally (group commit): the
    /// batching layer may force once on behalf of several logical force
    /// requests. See [`crate::group::GroupCommitter`].
    pub fn note_physical_flush(&mut self) {
        self.stats.physical_flushes += 1;
        self.promote_tail();
    }

    fn promote_tail(&mut self) {
        self.durable.append(&mut self.volatile);
    }

    /// Appends without flushing even when forced — used by the group-commit
    /// wrapper, which takes over flush scheduling. The logical force is
    /// still counted in `forced_writes`.
    pub fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        if self.crashed {
            return Err(Error::Log("append on crashed log".into()));
        }
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        self.scratch.clear();
        record.encode_append(&mut self.scratch);
        self.stats.writes += 1;
        self.stats.bytes += self.scratch.len() as u64;
        if durability.is_forced() {
            self.stats.forced_writes += 1;
        }
        self.volatile.push(Entry {
            lsn,
            stream,
            record,
            durability,
        });
        Ok(lsn)
    }

    /// Per-stream write/force counts over the whole log (durable +
    /// volatile). The table generators use this to report TM-stream and
    /// RM-stream costs separately, matching the paper's per-participant
    /// accounting.
    pub fn stream_counts(&self, stream: StreamId) -> (u64, u64) {
        let mut writes = 0;
        let mut forced = 0;
        for e in self.durable.iter().chain(self.volatile.iter()) {
            if e.stream == stream {
                writes += 1;
                if e.durability.is_forced() {
                    forced += 1;
                }
            }
        }
        (writes, forced)
    }
}

impl LogManager for MemLog {
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        let forced = durability.is_forced();
        let lsn = self.append_deferred(stream, record, durability)?;
        if forced {
            self.stats.physical_flushes += 1;
            self.promote_tail();
        }
        Ok(lsn)
    }

    fn flush(&mut self) -> Result<()> {
        if self.crashed {
            return Err(Error::Log("flush on crashed log".into()));
        }
        if !self.volatile.is_empty() {
            self.stats.physical_flushes += 1;
            self.promote_tail();
        }
        Ok(())
    }

    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        MemLog::append_deferred(self, stream, record, durability)
    }

    fn flush_batch(&mut self) -> Result<()> {
        if self.crashed {
            return Err(Error::Log("flush on crashed log".into()));
        }
        self.note_physical_flush();
        Ok(())
    }

    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)> {
        self.durable
            .iter()
            .map(|e| (e.lsn, e.stream, e.record.clone()))
            .collect()
    }

    fn stats(&self) -> LogStats {
        self.stats
    }

    fn pending_forces(&self) -> u64 {
        self.volatile
            .iter()
            .filter(|e| e.durability.is_forced())
            .count() as u64
    }

    fn crash_discard(&mut self) {
        self.volatile.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::{NodeId, TxnId};

    fn txn(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn end(n: u64) -> LogRecord {
        LogRecord::End { txn: txn(n) }
    }

    #[test]
    fn forced_append_is_durable_immediately() {
        let mut log = MemLog::new();
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        assert_eq!(log.durable_records().len(), 1);
        assert_eq!(log.stats().forced_writes, 1);
        assert_eq!(log.stats().physical_flushes, 1);
    }

    #[test]
    fn nonforced_append_lives_in_volatile_tail() {
        let mut log = MemLog::new();
        log.append(StreamId::Tm, end(1), Durability::NonForced)
            .unwrap();
        assert_eq!(log.durable_records().len(), 0);
        assert_eq!(log.volatile_len(), 1);
    }

    #[test]
    fn force_carries_earlier_nonforced_records() {
        // The WAL contract the shared-log optimization relies on: the TM's
        // forced commit record makes the LRM's earlier non-forced prepared
        // record durable too.
        let mut log = MemLog::new();
        log.append(StreamId::Rm(0), end(1), Durability::NonForced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::Forced)
            .unwrap();
        let durable = log.durable_records();
        assert_eq!(durable.len(), 2);
        assert_eq!(durable[0].1, StreamId::Rm(0));
        assert_eq!(log.stats().physical_flushes, 1);
    }

    #[test]
    fn crash_loses_volatile_tail_only() {
        let mut log = MemLog::new();
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::NonForced)
            .unwrap();
        log.crash();
        let survivors = log.durable_records();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].2.txn(), txn(1));
        assert!(log.is_crashed());
    }

    #[test]
    fn crashed_log_rejects_appends_until_restart() {
        let mut log = MemLog::new();
        log.crash();
        assert!(log
            .append(StreamId::Tm, end(1), Durability::Forced)
            .is_err());
        assert!(log.flush().is_err());
        log.restart();
        assert!(log.append(StreamId::Tm, end(1), Durability::Forced).is_ok());
    }

    #[test]
    fn lsns_are_monotonic_across_restart() {
        let mut log = MemLog::new();
        let a = log
            .append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::NonForced)
            .unwrap();
        log.crash();
        log.restart();
        let c = log
            .append(StreamId::Tm, end(3), Durability::Forced)
            .unwrap();
        assert!(c > a);
        // LSN of the lost record may be reused; durable order stays correct.
        let durable = log.durable_records();
        assert_eq!(durable.len(), 2);
        assert!(durable[0].0 < durable[1].0);
    }

    #[test]
    fn explicit_flush_promotes_and_counts_once() {
        let mut log = MemLog::new();
        log.append(StreamId::Tm, end(1), Durability::NonForced)
            .unwrap();
        log.append(StreamId::Tm, end(2), Durability::NonForced)
            .unwrap();
        log.flush().unwrap();
        assert_eq!(log.durable_records().len(), 2);
        assert_eq!(log.stats().physical_flushes, 1);
        // Flushing an empty tail is free.
        log.flush().unwrap();
        assert_eq!(log.stats().physical_flushes, 1);
    }

    #[test]
    fn deferred_append_counts_logical_force_without_flush() {
        let mut log = MemLog::new();
        log.append_deferred(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        assert_eq!(log.stats().forced_writes, 1);
        assert_eq!(log.stats().physical_flushes, 0);
        assert_eq!(log.durable_records().len(), 0);
        log.note_physical_flush();
        assert_eq!(log.stats().physical_flushes, 1);
        assert_eq!(log.durable_records().len(), 1);
    }

    #[test]
    fn stats_track_bytes() {
        let mut log = MemLog::new();
        log.append(StreamId::Tm, end(1), Durability::Forced)
            .unwrap();
        assert!(log.stats().bytes > 0);
    }
}
