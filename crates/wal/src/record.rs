//! Log record types for transaction managers and resource managers.
//!
//! The record vocabulary follows Figures 1–3 and 6–8 of the paper:
//!
//! * a **TM** writes `CommitPending` (PN, before Phase 1), `Prepared` (a
//!   subordinate TM, or a last-agent initiator), `Committed`, `Aborted`,
//!   heuristic records, and the non-forced `End`;
//! * an **LRM** writes `RmUpdate` (undo/redo for one key), `RmPrepared`,
//!   `RmCommitted`, `RmAborted`.
//!
//! Which of these are *forced* depends on the protocol variant and the
//! active optimizations — that policy lives in `tpc-core`; this module only
//! defines the records and their wire format.

use tpc_common::wire::{Decode, Decoder, Encode, Encoder};
use tpc_common::{Error, HeuristicOutcome, NodeId, Result, RmId, SimTime, TxnId};

/// One write-ahead-log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// PN only: the coordinator (or cascaded coordinator) remembers, before
    /// any Prepare is sent, that these subordinates exist and may need
    /// recovery driving or heuristic-damage collection (§3, Figure 3).
    CommitPending {
        /// Transaction this record belongs to.
        txn: TxnId,
        /// Direct subordinates enrolled at the time of commit initiation.
        subordinates: Vec<NodeId>,
    },
    /// A participant is prepared: it can go either way and must wait for
    /// the decision from `coordinator`. Also written by a last-agent
    /// initiator before delegating the decision (Figure 6).
    Prepared {
        /// Transaction this record belongs to.
        txn: TxnId,
        /// Whom to ask after a crash while in doubt.
        coordinator: NodeId,
        /// Direct subordinates, so a cascaded coordinator can re-propagate.
        subordinates: Vec<NodeId>,
        /// Harness clock when the participant prepared. Observability
        /// only: recovery re-opens the in-doubt window at this instant so
        /// a crash cannot shrink the measured blocking exposure.
        prepared_at: SimTime,
    },
    /// The commit decision (at the coordinator) or the learned commit
    /// outcome (at a subordinate).
    Committed {
        /// Transaction this record belongs to.
        txn: TxnId,
        /// Subordinates still owed the decision / acks at this node.
        subordinates: Vec<NodeId>,
    },
    /// The abort decision or learned abort outcome.
    Aborted {
        /// Transaction this record belongs to.
        txn: TxnId,
        /// Subordinates still owed the decision / acks at this node.
        subordinates: Vec<NodeId>,
    },
    /// An in-doubt participant decided unilaterally (§1, §3). Forced: the
    /// decision must survive so damage can be detected and reported.
    Heuristic {
        /// Transaction this record belongs to.
        txn: TxnId,
        /// Which way the participant jumped.
        decision: HeuristicOutcome,
    },
    /// Commit processing is complete at this node; the transaction may be
    /// forgotten. Never forced — losing it only causes redundant recovery
    /// work (§2, "Logging").
    End {
        /// Transaction this record belongs to.
        txn: TxnId,
    },
    /// An LRM's undo/redo record for one key of one transaction.
    RmUpdate {
        /// Resource manager that performed the update.
        rm: RmId,
        /// Transaction on whose behalf the update ran.
        txn: TxnId,
        /// Updated key.
        key: Vec<u8>,
        /// Value before the update (`None` = key absent), for undo.
        before: Option<Vec<u8>>,
        /// Value after the update (`None` = deletion), for redo.
        after: Option<Vec<u8>>,
    },
    /// An LRM's prepared record: its updates are stable, it can go either
    /// way.
    RmPrepared {
        /// Resource manager that prepared.
        rm: RmId,
        /// Transaction that prepared.
        txn: TxnId,
    },
    /// An LRM's commit record.
    RmCommitted {
        /// Resource manager that committed.
        rm: RmId,
        /// Transaction that committed.
        txn: TxnId,
    },
    /// An LRM's abort record.
    RmAborted {
        /// Resource manager that aborted.
        rm: RmId,
        /// Transaction that aborted.
        txn: TxnId,
    },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::CommitPending { txn, .. }
            | LogRecord::Prepared { txn, .. }
            | LogRecord::Committed { txn, .. }
            | LogRecord::Aborted { txn, .. }
            | LogRecord::Heuristic { txn, .. }
            | LogRecord::End { txn }
            | LogRecord::RmUpdate { txn, .. }
            | LogRecord::RmPrepared { txn, .. }
            | LogRecord::RmCommitted { txn, .. }
            | LogRecord::RmAborted { txn, .. } => *txn,
        }
    }

    /// True for records written by a resource manager (as opposed to the
    /// transaction manager). Used by shared-log accounting.
    pub fn is_rm_record(&self) -> bool {
        matches!(
            self,
            LogRecord::RmUpdate { .. }
                | LogRecord::RmPrepared { .. }
                | LogRecord::RmCommitted { .. }
                | LogRecord::RmAborted { .. }
        )
    }

    /// Short tag used in golden traces (`*log Prepared` lines of the
    /// paper's figures).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LogRecord::CommitPending { .. } => "CommitPending",
            LogRecord::Prepared { .. } => "Prepared",
            LogRecord::Committed { .. } => "Committed",
            LogRecord::Aborted { .. } => "Aborted",
            LogRecord::Heuristic { .. } => "Heuristic",
            LogRecord::End { .. } => "End",
            LogRecord::RmUpdate { .. } => "RmUpdate",
            LogRecord::RmPrepared { .. } => "RmPrepared",
            LogRecord::RmCommitted { .. } => "RmCommitted",
            LogRecord::RmAborted { .. } => "RmAborted",
        }
    }
}

// Tag 2 is retired and never reused, so an old frame reads as damage,
// never as another record.
const TAG_COMMIT_PENDING: u8 = 1;
const TAG_PREPARED: u8 = 3;
const TAG_COMMITTED: u8 = 4;
const TAG_ABORTED: u8 = 5;
const TAG_HEURISTIC: u8 = 6;
const TAG_END: u8 = 7;
const TAG_RM_UPDATE: u8 = 8;
const TAG_RM_PREPARED: u8 = 9;
const TAG_RM_COMMITTED: u8 = 10;
const TAG_RM_ABORTED: u8 = 11;

impl Encode for LogRecord {
    fn encode(&self, e: &mut Encoder) {
        match self {
            LogRecord::CommitPending { txn, subordinates } => {
                e.put_u8(TAG_COMMIT_PENDING);
                txn.encode(e);
                e.put_seq(subordinates);
            }
            LogRecord::Prepared {
                txn,
                coordinator,
                subordinates,
                prepared_at,
            } => {
                e.put_u8(TAG_PREPARED);
                txn.encode(e);
                coordinator.encode(e);
                e.put_seq(subordinates);
                e.put_u64(prepared_at.0);
            }
            LogRecord::Committed { txn, subordinates } => {
                e.put_u8(TAG_COMMITTED);
                txn.encode(e);
                e.put_seq(subordinates);
            }
            LogRecord::Aborted { txn, subordinates } => {
                e.put_u8(TAG_ABORTED);
                txn.encode(e);
                e.put_seq(subordinates);
            }
            LogRecord::Heuristic { txn, decision } => {
                e.put_u8(TAG_HEURISTIC);
                txn.encode(e);
                decision.encode(e);
            }
            LogRecord::End { txn } => {
                e.put_u8(TAG_END);
                txn.encode(e);
            }
            LogRecord::RmUpdate {
                rm,
                txn,
                key,
                before,
                after,
            } => {
                e.put_u8(TAG_RM_UPDATE);
                rm.encode(e);
                txn.encode(e);
                e.put_bytes(key);
                match before {
                    Some(v) => {
                        e.put_bool(true);
                        e.put_bytes(v);
                    }
                    None => e.put_bool(false),
                }
                match after {
                    Some(v) => {
                        e.put_bool(true);
                        e.put_bytes(v);
                    }
                    None => e.put_bool(false),
                }
            }
            LogRecord::RmPrepared { rm, txn } => {
                e.put_u8(TAG_RM_PREPARED);
                rm.encode(e);
                txn.encode(e);
            }
            LogRecord::RmCommitted { rm, txn } => {
                e.put_u8(TAG_RM_COMMITTED);
                rm.encode(e);
                txn.encode(e);
            }
            LogRecord::RmAborted { rm, txn } => {
                e.put_u8(TAG_RM_ABORTED);
                rm.encode(e);
                txn.encode(e);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let tag = d.get_u8()?;
        Ok(match tag {
            TAG_COMMIT_PENDING => LogRecord::CommitPending {
                txn: TxnId::decode(d)?,
                subordinates: d.get_seq()?,
            },
            TAG_PREPARED => LogRecord::Prepared {
                txn: TxnId::decode(d)?,
                coordinator: NodeId::decode(d)?,
                subordinates: d.get_seq()?,
                prepared_at: SimTime(d.get_u64()?),
            },
            TAG_COMMITTED => LogRecord::Committed {
                txn: TxnId::decode(d)?,
                subordinates: d.get_seq()?,
            },
            TAG_ABORTED => LogRecord::Aborted {
                txn: TxnId::decode(d)?,
                subordinates: d.get_seq()?,
            },
            TAG_HEURISTIC => LogRecord::Heuristic {
                txn: TxnId::decode(d)?,
                decision: HeuristicOutcome::decode(d)?,
            },
            TAG_END => LogRecord::End {
                txn: TxnId::decode(d)?,
            },
            TAG_RM_UPDATE => {
                let rm = RmId::decode(d)?;
                let txn = TxnId::decode(d)?;
                let key = d.get_bytes()?;
                let before = if d.get_bool()? {
                    Some(d.get_bytes()?)
                } else {
                    None
                };
                let after = if d.get_bool()? {
                    Some(d.get_bytes()?)
                } else {
                    None
                };
                LogRecord::RmUpdate {
                    rm,
                    txn,
                    key,
                    before,
                    after,
                }
            }
            TAG_RM_PREPARED => LogRecord::RmPrepared {
                rm: RmId::decode(d)?,
                txn: TxnId::decode(d)?,
            },
            TAG_RM_COMMITTED => LogRecord::RmCommitted {
                rm: RmId::decode(d)?,
                txn: TxnId::decode(d)?,
            },
            TAG_RM_ABORTED => LogRecord::RmAborted {
                rm: RmId::decode(d)?,
                txn: TxnId::decode(d)?,
            },
            t => return Err(Error::Codec(format!("invalid log record tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_txn() -> TxnId {
        TxnId::new(NodeId(2), 17)
    }

    fn all_samples() -> Vec<LogRecord> {
        let txn = sample_txn();
        vec![
            LogRecord::CommitPending {
                txn,
                subordinates: vec![NodeId(3), NodeId(4)],
            },
            LogRecord::Prepared {
                txn,
                coordinator: NodeId(1),
                subordinates: vec![],
                prepared_at: SimTime(42),
            },
            LogRecord::Committed {
                txn,
                subordinates: vec![NodeId(3)],
            },
            LogRecord::Aborted {
                txn,
                subordinates: vec![],
            },
            LogRecord::Heuristic {
                txn,
                decision: HeuristicOutcome::Mixed,
            },
            LogRecord::End { txn },
            LogRecord::RmUpdate {
                rm: RmId(1),
                txn,
                key: b"acct/123".to_vec(),
                before: Some(b"100".to_vec()),
                after: None,
            },
            LogRecord::RmUpdate {
                rm: RmId(1),
                txn,
                key: b"new".to_vec(),
                before: None,
                after: Some(b"v".to_vec()),
            },
            LogRecord::RmPrepared { rm: RmId(2), txn },
            LogRecord::RmCommitted { rm: RmId(2), txn },
            LogRecord::RmAborted { rm: RmId(2), txn },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for rec in all_samples() {
            let bytes = rec.encode_to_bytes();
            assert_eq!(LogRecord::decode_all(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    #[test]
    fn txn_accessor_consistent() {
        for rec in all_samples() {
            assert_eq!(rec.txn(), sample_txn());
        }
    }

    #[test]
    fn rm_record_classification() {
        for rec in all_samples() {
            let expect = rec.kind_name().starts_with("Rm");
            assert_eq!(rec.is_rm_record(), expect, "{rec:?}");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(LogRecord::decode_all(&[0xEE]).is_err());
        // A retired record (tag 2, pinned as `log.collecting` in the wire
        // golden before its removal) is damage, not another record.
        let retired = [
            0x02, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
            0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        ];
        assert!(LogRecord::decode_all(&retired).is_err());
    }

    #[test]
    fn truncated_record_rejected() {
        let bytes = all_samples()[0].encode_to_bytes();
        assert!(LogRecord::decode_all(&bytes[..bytes.len() - 2]).is_err());
    }
}
