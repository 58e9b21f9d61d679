//! The log-manager interface and its statistics.

use tpc_common::{Lsn, Result};

use crate::record::LogRecord;

/// Whether an append must reach stable storage before the caller proceeds.
///
/// During forced writes "the 2PC operation is suspended; the TM does
/// nothing until the record is guaranteed to be in stable storage" (§2).
/// Non-forced writes ride along with the next force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Durability {
    /// Suspend until the record (and all earlier records) are stable.
    Forced,
    /// Buffered; becomes stable with the next force or log-manager event.
    NonForced,
}

impl Durability {
    /// True for [`Durability::Forced`].
    #[inline]
    pub fn is_forced(self) -> bool {
        matches!(self, Durability::Forced)
    }
}

/// Identifies which component wrote a record into a (possibly shared) log.
///
/// Under the *Sharing the Log* optimization (§4) a node's TM and its LRMs
/// append into one physical log; the stream id keeps their histories
/// separable for recovery and for per-component statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// The node's transaction manager.
    Tm,
    /// A local resource manager, by id.
    Rm(u16),
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamId::Tm => f.write_str("TM"),
            StreamId::Rm(i) => write!(f, "RM{i}"),
        }
    }
}

/// Counters matching the paper's cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Total records appended (forced + non-forced).
    pub writes: u64,
    /// Appends that requested `Durability::Forced`.
    pub forced_writes: u64,
    /// Physical device flushes actually performed. Equal to
    /// `forced_writes` without group commit; smaller with it.
    pub physical_flushes: u64,
    /// Total encoded bytes appended.
    pub bytes: u64,
}

impl LogStats {
    /// Non-forced write count.
    pub fn unforced_writes(&self) -> u64 {
        self.writes - self.forced_writes
    }

    /// Difference between another (later) snapshot and this one.
    pub fn delta(&self, later: &LogStats) -> LogStats {
        LogStats {
            writes: later.writes - self.writes,
            forced_writes: later.forced_writes - self.forced_writes,
            physical_flushes: later.physical_flushes - self.physical_flushes,
            bytes: later.bytes - self.bytes,
        }
    }
}

/// A write-ahead log.
///
/// Implementations must preserve append order per log and guarantee that a
/// forced append makes *all* earlier appends stable too (the standard WAL
/// contract the *Sharing the Log* optimization exploits).
pub trait LogManager {
    /// Appends a record; returns its LSN.
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn>;

    /// Forces everything appended so far to stable storage.
    fn flush(&mut self) -> Result<()>;

    /// Appends a record *without* performing the physical flush even when
    /// `durability` is [`Durability::Forced`] — the group-commit layer
    /// takes over flush scheduling and will call
    /// [`LogManager::flush_batch`] once on behalf of the whole batch.
    /// Forced appends still count toward `forced_writes` (the logical
    /// cost the paper tabulates) but not `physical_flushes`.
    ///
    /// The default forwards to [`LogManager::append`], i.e. one physical
    /// flush per force — correct for hosts that never batch.
    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        self.append(stream, record, durability)
    }

    /// Performs one physical flush covering every deferred force
    /// submitted since the last flush (the group-commit amortized
    /// `sync_data`). Counts exactly one physical flush.
    ///
    /// The default forwards to [`LogManager::flush`].
    fn flush_batch(&mut self) -> Result<()> {
        self.flush()
    }

    /// The records that would survive a crash right now, in order.
    /// This is the input to recovery.
    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)>;

    /// Cumulative statistics.
    fn stats(&self) -> LogStats;

    /// Force-queue depth: logically forced appends not yet covered by a
    /// physical flush (the records group commit is holding hostage).
    /// Saturation telemetry — a gauge, not a counter. The default returns
    /// zero for backends that flush every force inline.
    fn pending_forces(&self) -> u64 {
        0
    }

    /// Models a crash at this instant: buffered (non-durable) appends are
    /// discarded instead of reaching stable storage. Implementations whose
    /// teardown would otherwise flush the buffer (e.g. a buffered file
    /// writer flushing on drop) must override this so that a killed node
    /// loses exactly what a real power failure would lose. The default is
    /// a no-op for logs with no such teardown flush.
    fn crash_discard(&mut self) {}
}

impl<L: LogManager + ?Sized> LogManager for Box<L> {
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        (**self).append(stream, record, durability)
    }

    fn flush(&mut self) -> Result<()> {
        (**self).flush()
    }

    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        (**self).append_deferred(stream, record, durability)
    }

    fn flush_batch(&mut self) -> Result<()> {
        (**self).flush_batch()
    }

    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)> {
        (**self).durable_records()
    }

    fn stats(&self) -> LogStats {
        (**self).stats()
    }

    fn pending_forces(&self) -> u64 {
        (**self).pending_forces()
    }

    fn crash_discard(&mut self) {
        (**self).crash_discard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_predicate() {
        assert!(Durability::Forced.is_forced());
        assert!(!Durability::NonForced.is_forced());
    }

    #[test]
    fn stats_delta_and_unforced() {
        let early = LogStats {
            writes: 10,
            forced_writes: 4,
            physical_flushes: 3,
            bytes: 100,
        };
        let later = LogStats {
            writes: 15,
            forced_writes: 6,
            physical_flushes: 4,
            bytes: 180,
        };
        let d = early.delta(&later);
        assert_eq!(d.writes, 5);
        assert_eq!(d.forced_writes, 2);
        assert_eq!(d.physical_flushes, 1);
        assert_eq!(d.bytes, 80);
        assert_eq!(d.unforced_writes(), 3);
    }

    #[test]
    fn stream_display() {
        assert_eq!(StreamId::Tm.to_string(), "TM");
        assert_eq!(StreamId::Rm(3).to_string(), "RM3");
    }
}
