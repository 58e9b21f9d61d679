//! A cloneable handle letting several coordinator lanes append to one
//! physical log.
//!
//! The paper's §4 *Sharing the Log* is about TM and RM sharing a log;
//! this module is about *lanes* sharing one: a multi-lane node runs M
//! `Driver` hosts, but the node still owns exactly one durable TM log
//! (and one RM log). [`SharedLog`] wraps any [`LogManager`] in
//! `Arc<Mutex<…>>` and implements [`LogManager`] itself, so each lane
//! holds what looks like its own log while every append and flush lands
//! in the single shared stream — preserving the node-level force/flush
//! accounting the benchmarks compare against the simulator.
//!
//! The mutex is held only for the duration of one log call; lanes never
//! block each other across an fsync *decision* (group commit), only
//! across the physical operation itself, which is the point of a shared
//! device.

use std::sync::{Arc, Mutex};

use tpc_common::{Lsn, Result};

use crate::log::{Durability, LogManager, LogStats, StreamId};
use crate::record::LogRecord;

/// A cloneable, thread-safe [`LogManager`] wrapper: all clones append to
/// the same underlying log.
#[derive(Clone)]
pub struct SharedLog {
    inner: Arc<Mutex<Box<dyn LogManager + Send>>>,
}

impl std::fmt::Debug for SharedLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SharedLog")
    }
}

impl SharedLog {
    /// Wraps `log` for sharing across lanes.
    pub fn new(log: Box<dyn LogManager + Send>) -> Self {
        SharedLog {
            inner: Arc::new(Mutex::new(log)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn LogManager + Send>> {
        self.inner.lock().expect("shared log poisoned")
    }
}

impl LogManager for SharedLog {
    fn append(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        self.lock().append(stream, record, durability)
    }

    fn append_deferred(
        &mut self,
        stream: StreamId,
        record: LogRecord,
        durability: Durability,
    ) -> Result<Lsn> {
        self.lock().append_deferred(stream, record, durability)
    }

    fn flush(&mut self) -> Result<()> {
        self.lock().flush()
    }

    fn flush_batch(&mut self) -> Result<()> {
        self.lock().flush_batch()
    }

    fn durable_records(&self) -> Vec<(Lsn, StreamId, LogRecord)> {
        self.lock().durable_records()
    }

    fn stats(&self) -> LogStats {
        self.lock().stats()
    }

    fn pending_forces(&self) -> u64 {
        self.lock().pending_forces()
    }

    fn crash_discard(&mut self) {
        self.lock().crash_discard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemLog;
    use tpc_common::{NodeId, TxnId};

    #[test]
    fn clones_append_to_one_stream() {
        let mut log = SharedLog::new(Box::new(MemLog::new()));
        let mut a = log.clone();
        let mut b = log.clone();
        let t = TxnId::new(NodeId(0), 1);
        a.append(
            StreamId::Tm,
            LogRecord::Committed {
                txn: t,
                subordinates: vec![],
            },
            Durability::Forced,
        )
        .unwrap();
        b.append(
            StreamId::Tm,
            LogRecord::End { txn: t },
            Durability::NonForced,
        )
        .unwrap();
        let stats = a.stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.forced_writes, 1);
        // Every clone sees the same stats (one shared device).
        assert_eq!(b.stats(), stats);
        // The unforced End waits in the shared tail until any clone forces.
        assert_eq!(log.durable_records().len(), 1);
        log.flush().unwrap();
        assert_eq!(log.durable_records().len(), 2);
    }

    #[test]
    fn concurrent_appends_all_land() {
        let log = SharedLog::new(Box::new(MemLog::new()));
        let mut handles = Vec::new();
        for lane in 0..4u64 {
            let mut l = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let t = TxnId::new(NodeId(0), lane * 100 + i);
                    l.append(
                        StreamId::Tm,
                        LogRecord::Committed {
                            txn: t,
                            subordinates: vec![],
                        },
                        Durability::Forced,
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.stats().writes, 100);
        assert_eq!(log.durable_records().len(), 100);
    }
}
