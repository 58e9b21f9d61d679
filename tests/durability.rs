//! Committed data survives segment reclamation.
//!
//! Under the paper's log sharing, a resource manager's redo
//! (`RmUpdate`/`RmCommitted`) rides the TM's segment chain, and
//! `SharedRm::recover` rebuilds the store only by replaying it. A TM
//! `End` lets the TM forget a transaction, not the RM, so a chain that
//! carries redo must not delete it. These tests restart and read the
//! store back: agreeing logs are not enough.

use std::collections::BTreeMap;

use twopc::common::{NodeId, RmId, SimTime, TempDir, TxnId};
use twopc::rm::{RmConfig, SharedRm};
use twopc::wal::{Durability, LogManager, LogRecord, SegmentedLog, StreamId};

/// Small enough that a couple of hundred commits rotate the chain many
/// times.
const SEGMENT_BYTES: u64 = 256;

/// One subordinate-side commit on a shared chain: the RM's write and
/// forced prepare, the TM's forced `Committed`, the RM's commit, and the
/// TM's `End` that makes the transaction forgettable to the TM.
fn commit(rm: &SharedRm, log: &mut SegmentedLog, seq: u64, key: &str, value: Option<&str>) {
    let txn = TxnId::new(NodeId(0), seq);
    let now = SimTime(seq);
    let value = value.map(|v| v.as_bytes().to_vec());
    rm.write(txn, key.as_bytes(), value, log, now)
        .expect("write");
    rm.prepare(txn, log, Durability::Forced).expect("prepare");
    log.append(
        StreamId::Tm,
        LogRecord::Committed {
            txn,
            subordinates: vec![NodeId(1)],
        },
        Durability::Forced,
    )
    .expect("TM Committed");
    rm.commit(txn, log, Durability::NonForced, now)
        .expect("commit");
    log.append(StreamId::Tm, LogRecord::End { txn }, Durability::Forced)
        .expect("TM End");
}

#[test]
fn committed_writes_survive_reclaim_and_restart() {
    let dir = TempDir::new("durability-shared");
    let rm = SharedRm::new(RmConfig::new(RmId(1)), 1);
    let mut log = SegmentedLog::create_with(&dir, SEGMENT_BYTES).expect("create");
    // A is written once; B is written, then deleted; then many other
    // transactions age the chain past the segments that hold both.
    let mut ops = vec![
        ("B".to_owned(), Some("b0".to_owned())),
        ("A".to_owned(), Some("kept".to_owned())),
        ("B".to_owned(), None),
    ];
    ops.extend((0..196).map(|i| (format!("k{}", i % 8), Some(format!("v{i}")))));
    let mut model: BTreeMap<String, String> = BTreeMap::new();
    for (seq, (key, value)) in (1..).zip(&ops) {
        commit(&rm, &mut log, seq, key, value.as_deref());
        match value {
            Some(v) => model.insert(key.clone(), v.clone()),
            None => model.remove(key),
        };
    }
    let stats = log.segment_stats();
    assert!(stats.rotations >= 2, "the chain must age: {stats:?}");
    drop(log);

    // Restart: the store is rebuilt from the chain alone.
    let log = SegmentedLog::open_with(&dir, SEGMENT_BYTES).expect("reopen");
    rm.recover(&log.durable_records(), SimTime(0))
        .expect("recover");
    assert_eq!(
        rm.get(b"A"),
        Some(b"kept".to_vec()),
        "A was committed before the reclaim window and must read back \
         (segment stats before the restart: {stats:?})"
    );
    assert_eq!(rm.get(b"B"), None, "a committed delete stays deleted");
    for (key, value) in &model {
        assert_eq!(
            rm.get(key.as_bytes()),
            Some(value.as_bytes().to_vec()),
            "{key}"
        );
    }
    assert_eq!(rm.store_len(), model.len(), "no key resurrected");
}

#[test]
fn a_tm_only_chain_still_reclaims_and_reopens() {
    // The RM pin is targeted: a chain that never carried redo keeps
    // deleting fully ended segments, and what is left reopens cleanly.
    let dir = TempDir::new("durability-tm");
    let mut log = SegmentedLog::create_with(&dir, SEGMENT_BYTES).expect("create");
    for seq in 1..=200 {
        let txn = TxnId::new(NodeId(0), seq);
        log.append(
            StreamId::Tm,
            LogRecord::Committed {
                txn,
                subordinates: vec![NodeId(1)],
            },
            Durability::Forced,
        )
        .expect("Committed");
        log.append(StreamId::Tm, LogRecord::End { txn }, Durability::Forced)
            .expect("End");
    }
    let stats = log.segment_stats();
    assert!(stats.segments_reclaimed >= 2, "{stats:?}");
    assert!(
        log.segment_count() <= 2,
        "only the tail is left: {}",
        log.segment_count()
    );
    let last = log.durable_records().last().cloned();
    drop(log);
    let log = SegmentedLog::open_with(&dir, SEGMENT_BYTES).expect("reopen");
    assert_eq!(log.durable_records().last().cloned(), last);
}
