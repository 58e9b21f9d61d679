//! Property tests for the resource manager: the committed store always
//! equals the effects of committed transactions in order, across
//! arbitrary commit/abort/crash interleavings, at one stripe (the
//! simulator's RM) and at four (a live node's).

use std::collections::BTreeMap;

use proptest::prelude::*;
use tpc_common::{NodeId, RmId, SimTime, TxnId};
use tpc_rm::{Access, RmConfig, SharedRm};
use tpc_wal::{Durability, LogManager, MemLog};

#[derive(Clone, Debug)]
enum TxnFate {
    Commit,
    Abort,
    CrashBeforePrepare,
    CrashAfterPrepareThenCommit,
    CrashAfterPrepareThenAbort,
    CrashAfterCommit,
}

fn arb_fate() -> impl Strategy<Value = TxnFate> {
    prop_oneof![
        3 => Just(TxnFate::Commit),
        2 => Just(TxnFate::Abort),
        1 => Just(TxnFate::CrashBeforePrepare),
        1 => Just(TxnFate::CrashAfterPrepareThenCommit),
        1 => Just(TxnFate::CrashAfterPrepareThenAbort),
        1 => Just(TxnFate::CrashAfterCommit),
    ]
}

/// One transaction's writes: (one-byte key, value or delete).
type Writes = Vec<(u8, Option<u8>)>;

fn arb_writes() -> impl Strategy<Value = Writes> {
    prop::collection::vec((0u8..6, prop::option::of(any::<u8>())), 1..5)
}

fn committed(rm: &SharedRm) -> BTreeMap<Vec<u8>, Vec<u8>> {
    rm.store_snapshot()
        .iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

/// Runs the history against an RM with `stripes` stripes. Every write
/// must be granted at once: transactions run one after another, so a
/// `Wait` means a lock outlived its transaction — a crash before prepare
/// included.
fn check_history(stripes: usize, txns: &[(Writes, TxnFate)]) -> Result<(), TestCaseError> {
    let rm = SharedRm::new(RmConfig::new(RmId(0)), stripes);
    let mut log = MemLog::new();
    let mut shadow: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut clock = 0u64;

    for (i, (writes, fate)) in txns.iter().enumerate() {
        clock += 10;
        let txn = TxnId::new(NodeId(0), i as u64 + 1);
        let now = SimTime(clock);
        for (key, value) in writes {
            let k = vec![*key];
            let v = value.map(|b| vec![b]);
            match rm.write(txn, &k, v, &mut log, now).unwrap() {
                Access::Value(_) => {}
                other => prop_assert!(false, "single-txn write blocked: {other:?}"),
            }
        }
        let apply_shadow = |shadow: &mut BTreeMap<Vec<u8>, Vec<u8>>| {
            for (key, value) in writes {
                match value {
                    Some(b) => {
                        shadow.insert(vec![*key], vec![*b]);
                    }
                    None => {
                        shadow.remove(&vec![*key]);
                    }
                }
            }
        };
        match fate {
            TxnFate::Commit => {
                rm.prepare(txn, &mut log, Durability::Forced).unwrap();
                rm.commit(txn, &mut log, Durability::Forced, now).unwrap();
                apply_shadow(&mut shadow);
            }
            TxnFate::Abort => {
                // Forced here so a later simulated crash cannot
                // resurrect the transaction as in-doubt (an unforced
                // abort record legitimately may be lost — PA's whole
                // point — which would make the shadow model
                // nondeterministic).
                rm.abort(txn, &mut log, Durability::Forced, now).unwrap();
            }
            TxnFate::CrashBeforePrepare => {
                log.crash();
                log.restart();
                let in_doubt = rm.recover(&log.durable_records(), now).unwrap();
                prop_assert!(!in_doubt.contains(&txn));
                prop_assert_eq!(rm.locked_keys(), 0, "locks must die with the crash");
            }
            TxnFate::CrashAfterPrepareThenCommit => {
                rm.prepare(txn, &mut log, Durability::Forced).unwrap();
                log.crash();
                log.restart();
                let in_doubt = rm.recover(&log.durable_records(), now).unwrap();
                prop_assert!(in_doubt.contains(&txn), "prepared txn must be in doubt");
                rm.commit(txn, &mut log, Durability::Forced, now).unwrap();
                apply_shadow(&mut shadow);
            }
            TxnFate::CrashAfterPrepareThenAbort => {
                rm.prepare(txn, &mut log, Durability::Forced).unwrap();
                log.crash();
                log.restart();
                let in_doubt = rm.recover(&log.durable_records(), now).unwrap();
                prop_assert!(in_doubt.contains(&txn));
                rm.abort(txn, &mut log, Durability::Forced, now).unwrap();
            }
            TxnFate::CrashAfterCommit => {
                rm.prepare(txn, &mut log, Durability::Forced).unwrap();
                rm.commit(txn, &mut log, Durability::Forced, now).unwrap();
                apply_shadow(&mut shadow);
                log.crash();
                log.restart();
                let in_doubt = rm.recover(&log.durable_records(), now).unwrap();
                prop_assert!(in_doubt.is_empty());
            }
        }
        // Invariant after every transaction: store == shadow.
        prop_assert_eq!(
            &committed(&rm),
            &shadow,
            "{} stripes, after txn {} ({:?})",
            stripes,
            i,
            fate
        );
    }

    // Final recovery from scratch must reproduce the same store.
    let fresh = SharedRm::new(RmConfig::new(RmId(0)), stripes);
    log.flush().unwrap();
    fresh
        .recover(&log.durable_records(), SimTime(clock + 1))
        .unwrap();
    prop_assert_eq!(committed(&fresh), shadow);
    Ok(())
}

proptest! {
    /// Run a sequence of transactions with assorted fates (including
    /// crashes at every interesting point) and verify the final store
    /// equals a shadow model that applies only the committed ones.
    #[test]
    fn store_equals_committed_history(
        txns in prop::collection::vec((arb_writes(), arb_fate()), 1..12)
    ) {
        for stripes in [1, 4] {
            check_history(stripes, &txns)?;
        }
    }
}
