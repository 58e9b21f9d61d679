//! Restart recovery: folding a durable log into per-transaction summaries.
//!
//! After a crash, the engine replays its TM log stream and rebuilds one
//! [`TxnLogSummary`] per transaction. The summary determines the restart
//! action per the protocol's presumption rules (see
//! [`crate::TmEngine::recover`]):
//!
//! | durable state                         | restart action                    |
//! |---------------------------------------|-----------------------------------|
//! | `CommitPending` only                  | abort; drive subordinates         |
//! | `Prepared`, no outcome                | in doubt; query / await coordinator |
//! | `Committed`/`Aborted`, no `End`       | re-propagate outcome, re-collect acks |
//! | outcome + `End`                       | finished; keep for queries        |
//! | nothing                               | transaction never reached Phase 2 |

use std::collections::BTreeMap;

use tpc_common::{HeuristicOutcome, Lsn, NodeId, Outcome, SimTime, TxnId};
use tpc_wal::{LogRecord, StreamId};

/// Everything the durable TM stream says about one transaction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnLogSummary {
    /// PN's pre-Phase-1 record: subordinates enrolled at commit initiation.
    pub commit_pending: Option<Vec<NodeId>>,
    /// Prepared record: (coordinator to ask, own subordinates).
    pub prepared: Option<(NodeId, Vec<NodeId>)>,
    /// Harness clock stamped into the Prepared record — when the in-doubt
    /// window opened (observability: recovery re-opens it here).
    pub prepared_at: Option<SimTime>,
    /// Commit decision/outcome with the subordinates owed it.
    pub committed: Option<Vec<NodeId>>,
    /// Abort decision/outcome with the subordinates owed it.
    pub aborted: Option<Vec<NodeId>>,
    /// A heuristic decision taken while in doubt.
    pub heuristic: Option<HeuristicOutcome>,
    /// Commit processing completed before the crash.
    pub end: bool,
}

impl TxnLogSummary {
    /// The durable outcome, if one was reached.
    pub fn outcome(&self) -> Option<Outcome> {
        if self.committed.is_some() {
            Some(Outcome::Commit)
        } else if self.aborted.is_some() {
            Some(Outcome::Abort)
        } else {
            None
        }
    }

    /// Prepared with no outcome: the in-doubt window.
    pub fn in_doubt(&self) -> bool {
        self.prepared.is_some() && self.outcome().is_none()
    }

    /// A coordinator's pre-Phase-1 record with no outcome: the commit
    /// operation was cut down mid-voting.
    pub fn interrupted_voting(&self) -> bool {
        self.commit_pending.is_some() && self.outcome().is_none() && self.prepared.is_none()
    }
}

/// Folds the TM-stream records of a durable log into per-transaction
/// summaries, in transaction order.
pub fn summarize(records: &[(Lsn, StreamId, LogRecord)]) -> BTreeMap<TxnId, TxnLogSummary> {
    let mut out: BTreeMap<TxnId, TxnLogSummary> = BTreeMap::new();
    for (_, stream, record) in records {
        if *stream != StreamId::Tm {
            continue;
        }
        let entry = out.entry(record.txn()).or_default();
        match record {
            LogRecord::CommitPending { subordinates, .. } => {
                entry.commit_pending = Some(subordinates.clone());
            }
            LogRecord::Prepared {
                coordinator,
                subordinates,
                prepared_at,
                ..
            } => {
                entry.prepared = Some((*coordinator, subordinates.clone()));
                entry.prepared_at = Some(*prepared_at);
            }
            LogRecord::Committed { subordinates, .. } => {
                entry.committed = Some(subordinates.clone());
            }
            LogRecord::Aborted { subordinates, .. } => {
                entry.aborted = Some(subordinates.clone());
            }
            LogRecord::Heuristic { decision, .. } => {
                entry.heuristic = Some(*decision);
            }
            LogRecord::End { .. } => {
                entry.end = true;
            }
            // RM records are replayed by the resource managers themselves.
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::NodeId;
    use tpc_wal::{Durability, LogManager, MemLog};

    fn t(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn summarizes_full_commit_history() {
        let mut log = MemLog::new();
        log.append(
            StreamId::Tm,
            LogRecord::CommitPending {
                txn: t(1),
                subordinates: vec![NodeId(2)],
            },
            Durability::Forced,
        )
        .unwrap();
        log.append(
            StreamId::Tm,
            LogRecord::Committed {
                txn: t(1),
                subordinates: vec![NodeId(2)],
            },
            Durability::Forced,
        )
        .unwrap();
        log.append(
            StreamId::Tm,
            LogRecord::End { txn: t(1) },
            Durability::NonForced,
        )
        .unwrap();
        log.flush().unwrap();
        let s = summarize(&log.durable_records());
        let sum = &s[&t(1)];
        assert_eq!(sum.commit_pending, Some(vec![NodeId(2)]));
        assert_eq!(sum.outcome(), Some(Outcome::Commit));
        assert!(sum.end);
        assert!(!sum.in_doubt());
        assert!(!sum.interrupted_voting());
    }

    #[test]
    fn in_doubt_detection() {
        let mut log = MemLog::new();
        log.append(
            StreamId::Tm,
            LogRecord::Prepared {
                txn: t(2),
                coordinator: NodeId(1),
                subordinates: vec![],
                prepared_at: SimTime(750),
            },
            Durability::Forced,
        )
        .unwrap();
        let s = summarize(&log.durable_records());
        assert!(s[&t(2)].in_doubt());
        assert_eq!(s[&t(2)].prepared, Some((NodeId(1), vec![])));
        assert_eq!(s[&t(2)].prepared_at, Some(SimTime(750)));
    }

    #[test]
    fn interrupted_voting_detection() {
        let mut log = MemLog::new();
        log.append(
            StreamId::Tm,
            LogRecord::CommitPending {
                txn: t(3),
                subordinates: vec![NodeId(4), NodeId(5)],
            },
            Durability::Forced,
        )
        .unwrap();
        let s = summarize(&log.durable_records());
        assert!(s[&t(3)].interrupted_voting());
        assert_eq!(s[&t(3)].outcome(), None);
    }

    #[test]
    fn rm_records_and_other_streams_are_ignored() {
        let mut log = MemLog::new();
        log.append(
            StreamId::Rm(1),
            LogRecord::RmPrepared {
                rm: tpc_common::RmId(1),
                txn: t(4),
            },
            Durability::Forced,
        )
        .unwrap();
        // A TM record written (incorrectly) on an RM stream is skipped too.
        log.append(
            StreamId::Rm(1),
            LogRecord::End { txn: t(4) },
            Durability::Forced,
        )
        .unwrap();
        assert!(summarize(&log.durable_records()).is_empty());
    }

    #[test]
    fn heuristic_tracked() {
        let mut log = MemLog::new();
        log.append(
            StreamId::Tm,
            LogRecord::Prepared {
                txn: t(5),
                coordinator: NodeId(9),
                subordinates: vec![],
                prepared_at: SimTime::ZERO,
            },
            Durability::Forced,
        )
        .unwrap();
        log.append(
            StreamId::Tm,
            LogRecord::Heuristic {
                txn: t(5),
                decision: HeuristicOutcome::Commit,
            },
            Durability::Forced,
        )
        .unwrap();
        let s = summarize(&log.durable_records());
        assert_eq!(s[&t(5)].heuristic, Some(HeuristicOutcome::Commit));
        assert!(s[&t(5)].in_doubt());
    }

    #[test]
    fn multiple_transactions_kept_separate() {
        let mut log = MemLog::new();
        for n in 1..=3 {
            log.append(
                StreamId::Tm,
                LogRecord::Committed {
                    txn: t(n),
                    subordinates: vec![],
                },
                Durability::Forced,
            )
            .unwrap();
        }
        log.append(
            StreamId::Tm,
            LogRecord::End { txn: t(2) },
            Durability::Forced,
        )
        .unwrap();
        let s = summarize(&log.durable_records());
        assert_eq!(s.len(), 3);
        assert!(!s[&t(1)].end);
        assert!(s[&t(2)].end);
        assert!(!s[&t(3)].end);
    }
}
