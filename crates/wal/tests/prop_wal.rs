//! Property tests for the WAL: durability semantics under arbitrary
//! append/force/crash sequences, and group-commit conservation.

use proptest::prelude::*;
use tpc_common::config::GroupCommitConfig;
use tpc_common::{NodeId, SimDuration, SimTime, TxnId};
use tpc_wal::{Durability, FlushDecision, GroupCommitter, LogManager, LogRecord, MemLog, StreamId};

#[derive(Clone, Debug)]
enum WalOp {
    Append { forced: bool },
    Flush,
    CrashRestart,
}

fn arb_op() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        4 => any::<bool>().prop_map(|forced| WalOp::Append { forced }),
        1 => Just(WalOp::Flush),
        1 => Just(WalOp::CrashRestart),
    ]
}

proptest! {
    /// The fundamental WAL contract: after any crash, the durable prefix
    /// is exactly the appends up to (and including) the last force/flush,
    /// in order.
    #[test]
    fn durable_prefix_matches_force_history(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut log = MemLog::new();
        let mut appended: Vec<u64> = Vec::new();       // all sequence numbers
        let mut durable_watermark = 0usize;            // appended[..durable_watermark] is stable
        let mut seq = 0u64;
        for op in ops {
            match op {
                WalOp::Append { forced } => {
                    seq += 1;
                    log.append(
                        StreamId::Tm,
                        LogRecord::End { txn: TxnId::new(NodeId(0), seq) },
                        if forced { Durability::Forced } else { Durability::NonForced },
                    ).unwrap();
                    appended.push(seq);
                    if forced {
                        durable_watermark = appended.len();
                    }
                }
                WalOp::Flush => {
                    log.flush().unwrap();
                    durable_watermark = appended.len();
                }
                WalOp::CrashRestart => {
                    log.crash();
                    let survivors: Vec<u64> = log
                        .durable_records()
                        .iter()
                        .map(|(_, _, r)| r.txn().seq)
                        .collect();
                    prop_assert_eq!(&survivors, &appended[..durable_watermark]);
                    log.restart();
                    // Unforced tail is gone for good.
                    appended.truncate(durable_watermark);
                }
            }
        }
        // Final check without a crash: durable prefix still correct.
        let survivors: Vec<u64> = log
            .durable_records()
            .iter()
            .map(|(_, _, r)| r.txn().seq)
            .collect();
        prop_assert_eq!(&survivors, &appended[..durable_watermark]);
    }

    /// Group commit under arbitrary request / idle / expire schedules:
    /// every ticket is released exactly once, in submission order; with
    /// the harness firing `expire` at each returned deadline no ticket
    /// waits longer than `max_wait`; and the three trigger counters add
    /// up to the flushes.
    #[test]
    fn group_commit_conserves_tickets(
        batch in 1usize..8,
        wait_us in 1u64..5_000,
        // (gap since the previous request, host goes idle right after it)
        schedule in prop::collection::vec((0u64..2_000, any::<bool>()), 1..80),
    ) {
        let mut gc = GroupCommitter::new(GroupCommitConfig {
            batch_size: batch,
            max_wait: SimDuration::from_micros(wait_us),
            adaptive: false,
        });
        let mut submitted_at: Vec<SimTime> = Vec::new();
        // (ticket, released at)
        let mut released: Vec<(u64, SimTime)> = Vec::new();
        let mut pending_deadline: Option<SimTime> = None;
        let mut now = SimTime(0);
        for (gap, idle_after) in &schedule {
            now = SimTime(now.0 + gap);
            // Fire an expired deadline first, at its own instant, as a
            // timer-driven harness would.
            if let Some(d) = pending_deadline.filter(|d| now >= *d) {
                released.extend(gc.expire(d).into_iter().flatten().map(|t| (t, d)));
            }
            let ticket = submitted_at.len() as u64;
            submitted_at.push(now);
            match gc.request(now, ticket) {
                FlushDecision::FlushNow(t) => {
                    released.extend(t.into_iter().map(|t| (t, now)));
                    pending_deadline = None;
                }
                FlushDecision::WaitUntil(d) => pending_deadline = Some(d),
            }
            if *idle_after {
                // The stale deadline is deliberately left armed: `expire`
                // must ignore it (or find a younger batch not yet due).
                released.extend(gc.idle().into_iter().flatten().map(|t| (t, now)));
            }
        }
        if let Some(d) = pending_deadline {
            released.extend(gc.expire(d).into_iter().flatten().map(|t| (t, d)));
        }
        prop_assert_eq!(gc.pending_len(), 0, "the last deadline releases the last batch");
        let order: Vec<u64> = released.iter().map(|(t, _)| *t).collect();
        let expected: Vec<u64> = (0..schedule.len() as u64).collect();
        prop_assert_eq!(order, expected, "exactly once, in submission order");
        for (ticket, at) in &released {
            let waited = at.0 - submitted_at[*ticket as usize].0;
            prop_assert!(waited <= wait_us, "ticket {} waited {} us", ticket, waited);
        }
        let stats = gc.stats();
        prop_assert_eq!(stats.requests, schedule.len() as u64);
        prop_assert!(stats.flushes <= stats.requests);
        prop_assert_eq!(
            stats.flushes_by_size + stats.flushes_by_timer + stats.flushes_by_idle,
            stats.flushes
        );
    }

    /// Log record encode/decode survives arbitrary key/value payloads.
    #[test]
    fn rm_update_records_roundtrip(
        key in prop::collection::vec(any::<u8>(), 0..64),
        before in prop::option::of(prop::collection::vec(any::<u8>(), 0..64)),
        after in prop::option::of(prop::collection::vec(any::<u8>(), 0..64)),
        seq in any::<u64>(),
    ) {
        use tpc_common::wire::{Decode, Encode};
        let rec = LogRecord::RmUpdate {
            rm: tpc_common::RmId(1),
            txn: TxnId::new(NodeId(7), seq),
            key,
            before,
            after,
        };
        let bytes = rec.encode_to_bytes();
        prop_assert_eq!(LogRecord::decode_all(&bytes).unwrap(), rec);
    }
}
