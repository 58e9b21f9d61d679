//! Protocol messages and their wire encoding.
//!
//! Messages travel in **bundles**: one network frame may carry several
//! protocol messages to the same destination. Bundling is what makes the
//! long-locks and implied-acknowledgment optimizations free on the wire —
//! a buffered `Ack` rides along with the first message of the next
//! transaction instead of paying for its own frame (§4 *Long Locks*,
//! *Last Agent*). The simulator and the live transport both count one
//! *flow* per frame, which is exactly the paper's message-count metric.

use tpc_common::wire::{Decode, Decoder, Encode, Encoder};
use tpc_common::{DamageReport, Error, Outcome, Result, TraceCtx, TxnId, Vote};

/// One protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// Application data for `txn`. Sending work enrolls the receiver as a
    /// subordinate of the sender in the transaction's commit tree;
    /// receiving it records the sender as the upstream coordinator. The
    /// payload is opaque to the engine (the simulator encodes key-value
    /// operations in it). A `Work` frame also serves as the *implied
    /// acknowledgment* of a previous last-agent commit (§4).
    Work {
        /// Transaction the work belongs to.
        txn: TxnId,
        /// Opaque application payload.
        payload: Vec<u8>,
    },
    /// Phase 1 request: prepare to commit. `long_locks` asks the
    /// subordinate to buffer its eventual commit Ack and piggyback it on
    /// the next transaction (§4 *Long Locks*; Figure 7's "you be in send
    /// state / long locks" indication).
    Prepare {
        /// Transaction being prepared.
        txn: TxnId,
        /// Coordinator requests the long-locks ack deferral.
        long_locks: bool,
        /// The coordinator conversed with this subordinate (sent it
        /// `Work`) during the transaction. A receiver with no trace of
        /// the transaction must then vote NO: its state was lost in a
        /// crash, or the work never arrived — either way a YES would
        /// commit a transaction whose effects at this node are gone. A
        /// standing partner enrolled without work sees `false` and may
        /// vote READ-ONLY as usual.
        expect_work: bool,
    },
    /// A vote (Phase 1 response, or volunteered). The `Vote` carries the
    /// optimization qualifiers: `ok_to_leave_out`, `reliable`,
    /// `unsolicited`, and `last_agent_delegation` (which turns a YES vote
    /// into a delegation of the commit decision — §4 *Last Agent*).
    VoteMsg {
        /// Transaction being voted on.
        txn: TxnId,
        /// The vote itself.
        vote: Vote,
    },
    /// Phase 2: the outcome, propagated down the tree (and, for a last
    /// agent, up to the delegating initiator).
    Decision {
        /// Transaction being decided.
        txn: TxnId,
        /// The global outcome.
        outcome: Outcome,
    },
    /// Acknowledgment that the outcome has been processed. `report`
    /// carries heuristic-damage information upstream (reliably to the root
    /// under PN's late acks; one hop only under PA). `pending` is the
    /// wait-for-outcome indication: "recovery is in progress" — some part
    /// of the subtree has not confirmed yet (§4 *Wait For Outcome*).
    Ack {
        /// Transaction being acknowledged.
        txn: TxnId,
        /// Heuristic-damage report for the acknowledged subtree.
        report: DamageReport,
        /// True if some subtree member's outcome is still unknown.
        pending: bool,
    },
    /// Recovery: an in-doubt participant asks its coordinator for the
    /// outcome (subordinate-driven recovery, the PA/basic style).
    Query {
        /// Transaction in doubt.
        txn: TxnId,
    },
    /// Recovery: the coordinator genuinely does not know (only possible
    /// under the baseline protocol after information loss; PA and PN
    /// answer Abort by presumption). The subordinate stays
    /// blocked — heuristic pressure territory.
    OutcomeUnknown {
        /// Transaction queried.
        txn: TxnId,
    },
}

impl ProtocolMsg {
    /// The transaction this message concerns.
    pub fn txn(&self) -> TxnId {
        match self {
            ProtocolMsg::Work { txn, .. }
            | ProtocolMsg::Prepare { txn, .. }
            | ProtocolMsg::VoteMsg { txn, .. }
            | ProtocolMsg::Decision { txn, .. }
            | ProtocolMsg::Ack { txn, .. }
            | ProtocolMsg::Query { txn }
            | ProtocolMsg::OutcomeUnknown { txn } => *txn,
        }
    }

    /// Short tag for traces (the arrows of the paper's figures).
    pub fn kind_name(&self) -> &'static str {
        match self {
            ProtocolMsg::Work { .. } => "Work",
            ProtocolMsg::Prepare { .. } => "Prepare",
            ProtocolMsg::VoteMsg { vote, .. } => match vote {
                Vote::Yes(f) if f.last_agent_delegation => "VoteYes(last-agent)",
                Vote::Yes(f) if f.unsolicited => "VoteYes(unsolicited)",
                Vote::Yes(_) => "VoteYes",
                Vote::No => "VoteNo",
                Vote::ReadOnly => "VoteReadOnly",
            },
            ProtocolMsg::Decision {
                outcome: Outcome::Commit,
                ..
            } => "Commit",
            ProtocolMsg::Decision {
                outcome: Outcome::Abort,
                ..
            } => "Abort",
            ProtocolMsg::Ack { pending: false, .. } => "Ack",
            ProtocolMsg::Ack { pending: true, .. } => "Ack(pending)",
            ProtocolMsg::Query { .. } => "Query",
            ProtocolMsg::OutcomeUnknown { .. } => "OutcomeUnknown",
        }
    }
}

const TAG_WORK: u8 = 1;
const TAG_PREPARE: u8 = 2;
const TAG_VOTE: u8 = 3;
const TAG_DECISION: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_QUERY: u8 = 6;
const TAG_UNKNOWN: u8 = 7;

impl Encode for ProtocolMsg {
    fn encode(&self, e: &mut Encoder) {
        match self {
            ProtocolMsg::Work { txn, payload } => {
                e.put_u8(TAG_WORK);
                txn.encode(e);
                e.put_bytes(payload);
            }
            ProtocolMsg::Prepare {
                txn,
                long_locks,
                expect_work,
            } => {
                e.put_u8(TAG_PREPARE);
                txn.encode(e);
                e.put_bool(*long_locks);
                e.put_bool(*expect_work);
            }
            ProtocolMsg::VoteMsg { txn, vote } => {
                e.put_u8(TAG_VOTE);
                txn.encode(e);
                vote.encode(e);
            }
            ProtocolMsg::Decision { txn, outcome } => {
                e.put_u8(TAG_DECISION);
                txn.encode(e);
                outcome.encode(e);
            }
            ProtocolMsg::Ack {
                txn,
                report,
                pending,
            } => {
                e.put_u8(TAG_ACK);
                txn.encode(e);
                report.encode(e);
                e.put_bool(*pending);
            }
            ProtocolMsg::Query { txn } => {
                e.put_u8(TAG_QUERY);
                txn.encode(e);
            }
            ProtocolMsg::OutcomeUnknown { txn } => {
                e.put_u8(TAG_UNKNOWN);
                txn.encode(e);
            }
        }
    }
}

impl Decode for ProtocolMsg {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(match d.get_u8()? {
            TAG_WORK => ProtocolMsg::Work {
                txn: TxnId::decode(d)?,
                payload: d.get_bytes()?,
            },
            TAG_PREPARE => ProtocolMsg::Prepare {
                txn: TxnId::decode(d)?,
                long_locks: d.get_bool()?,
                expect_work: d.get_bool()?,
            },
            TAG_VOTE => ProtocolMsg::VoteMsg {
                txn: TxnId::decode(d)?,
                vote: Vote::decode(d)?,
            },
            TAG_DECISION => ProtocolMsg::Decision {
                txn: TxnId::decode(d)?,
                outcome: Outcome::decode(d)?,
            },
            TAG_ACK => ProtocolMsg::Ack {
                txn: TxnId::decode(d)?,
                report: DamageReport::decode(d)?,
                pending: d.get_bool()?,
            },
            TAG_QUERY => ProtocolMsg::Query {
                txn: TxnId::decode(d)?,
            },
            TAG_UNKNOWN => ProtocolMsg::OutcomeUnknown {
                txn: TxnId::decode(d)?,
            },
            t => return Err(Error::Codec(format!("invalid message tag {t}"))),
        })
    }
}

/// A network frame: one or more messages to the same destination. Counts
/// as **one flow** in the paper's metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bundle(pub Vec<ProtocolMsg>);

impl Encode for Bundle {
    fn encode(&self, e: &mut Encoder) {
        e.put_u32(self.0.len() as u32);
        for m in &self.0 {
            m.encode(e);
        }
    }
}

impl Decode for Bundle {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let n = d.get_u32()? as usize;
        if n > d.remaining() {
            return Err(Error::Codec(format!("bundle claims {n} messages")));
        }
        let mut msgs = Vec::with_capacity(n);
        for _ in 0..n {
            msgs.push(ProtocolMsg::decode(d)?);
        }
        Ok(Bundle(msgs))
    }
}

/// What actually travels in one transport frame: an optional trace
/// context (one flag byte when absent — tracing off costs almost
/// nothing on the wire) followed by the message bundle. The context is
/// consumed by the receiving *driver*, never the engine, so protocol
/// behaviour is identical with and without it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Trace context stamped by the sending driver when tracing is on.
    pub ctx: Option<TraceCtx>,
    /// The protocol messages (one flow in the paper's metric).
    pub bundle: Bundle,
}

impl Encode for Frame {
    fn encode(&self, e: &mut Encoder) {
        e.put_option(&self.ctx);
        self.bundle.encode(e);
    }
}

impl Decode for Frame {
    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(Frame {
            ctx: d.get_option()?,
            bundle: Bundle::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::{NodeId, VoteFlags};

    fn t() -> TxnId {
        TxnId::new(NodeId(1), 7)
    }

    fn samples() -> Vec<ProtocolMsg> {
        vec![
            ProtocolMsg::Work {
                txn: t(),
                payload: b"put a 1".to_vec(),
            },
            ProtocolMsg::Prepare {
                txn: t(),
                long_locks: true,
                expect_work: true,
            },
            ProtocolMsg::VoteMsg {
                txn: t(),
                vote: Vote::Yes(VoteFlags {
                    ok_to_leave_out: true,
                    reliable: true,
                    unsolicited: false,
                    last_agent_delegation: true,
                    expect_work: true,
                }),
            },
            ProtocolMsg::VoteMsg {
                txn: t(),
                vote: Vote::ReadOnly,
            },
            ProtocolMsg::Decision {
                txn: t(),
                outcome: Outcome::Commit,
            },
            ProtocolMsg::Ack {
                txn: t(),
                report: DamageReport {
                    heuristic_no_damage: vec![NodeId(5)],
                    damaged: vec![NodeId(6)],
                    outcome_pending: vec![],
                },
                pending: true,
            },
            ProtocolMsg::Query { txn: t() },
            ProtocolMsg::OutcomeUnknown { txn: t() },
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for m in samples() {
            let b = m.encode_to_bytes();
            assert_eq!(ProtocolMsg::decode_all(&b).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn bundle_roundtrips() {
        let bundle = Bundle(samples());
        let b = bundle.encode_to_bytes();
        assert_eq!(Bundle::decode_all(&b).unwrap(), bundle);
    }

    #[test]
    fn txn_accessor() {
        for m in samples() {
            assert_eq!(m.txn(), t());
        }
    }

    #[test]
    fn kind_names_distinguish_vote_flavours() {
        let la = ProtocolMsg::VoteMsg {
            txn: t(),
            vote: Vote::Yes(VoteFlags {
                last_agent_delegation: true,
                ..VoteFlags::NONE
            }),
        };
        assert_eq!(la.kind_name(), "VoteYes(last-agent)");
        let un = ProtocolMsg::VoteMsg {
            txn: t(),
            vote: Vote::Yes(VoteFlags {
                unsolicited: true,
                ..VoteFlags::NONE
            }),
        };
        assert_eq!(un.kind_name(), "VoteYes(unsolicited)");
        let ro = ProtocolMsg::VoteMsg {
            txn: t(),
            vote: Vote::ReadOnly,
        };
        assert_eq!(ro.kind_name(), "VoteReadOnly");
    }

    #[test]
    fn frame_roundtrips_with_and_without_ctx() {
        use tpc_common::SimTime;
        let plain = Frame {
            ctx: None,
            bundle: Bundle(samples()),
        };
        let b = plain.encode_to_bytes();
        assert_eq!(Frame::decode_all(&b).unwrap(), plain);
        // Exactly one flag byte of overhead versus the bare bundle.
        assert_eq!(b.len(), plain.bundle.encode_to_bytes().len() + 1);

        let traced = Frame {
            ctx: Some(TraceCtx {
                txn: t(),
                parent_seat: 77,
                sent_at: SimTime(1234),
            }),
            bundle: Bundle(samples()),
        };
        let b = traced.encode_to_bytes();
        assert_eq!(Frame::decode_all(&b).unwrap(), traced);
    }

    #[test]
    fn corrupt_bundle_rejected() {
        let mut e = Encoder::new();
        e.put_u32(1000);
        assert!(Bundle::decode_all(&e.finish()).is_err());
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(ProtocolMsg::decode_all(&[0xAA]).is_err());
    }
}
