//! The live runtime over the segmented, preallocated WAL backend: the
//! same durability contract as the plain file log — commits survive on
//! disk, kills recover the durable prefix, storage faults degrade
//! gracefully — plus the segmented-only surfaces (chain scan for
//! verification, torn tails classified across preallocated zero fill).

use std::time::Duration;

use tpc_common::{NodeId, Op, Outcome, ProtocolKind, SimDuration, TempDir};
use tpc_core::Timeouts;
use tpc_runtime::{verify, LiveCluster, LiveNodeConfig, StorageFaultPlan};
use tpc_wal::segment::scan_chain;
use tpc_wal::StreamId;

fn chaos_timeouts() -> Timeouts {
    Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    }
}

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("seg-{tag}"))
}

fn healthy(dir: &std::path::Path) -> LiveNodeConfig {
    LiveNodeConfig::new(ProtocolKind::PresumedAbort)
        .with_segmented_log(dir)
        .with_timeouts(chaos_timeouts())
}

#[test]
fn segmented_cluster_commits_and_logs_durably() {
    let dir = temp_dir("durable");
    let cluster = LiveCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_segmented_log(dir.path()),
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_segmented_log(dir.path()),
    ]);
    for i in 0..3 {
        let t = cluster.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put("durable", &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }
    assert!(cluster.quiesce(Duration::from_secs(2)));
    cluster.shutdown();

    // The coordinator's segment chain holds the PN history for all three
    // transactions, readable by the offline chain scanner.
    let records = scan_chain(dir.join("node-0-wal")).expect("scan coordinator chain");
    let kinds: Vec<&str> = records
        .iter()
        .filter(|(_, s, _)| *s == StreamId::Tm)
        .map(|(_, _, r)| r.kind_name())
        .collect();
    assert_eq!(kinds.iter().filter(|k| **k == "CommitPending").count(), 3);
    assert_eq!(kinds.iter().filter(|k| **k == "Committed").count(), 3);

    // The subordinate's prepare record lands in its own TM chain (its
    // engine runs the subordinate role of the same protocol stream).
    let sub = scan_chain(dir.join("node-1-wal")).expect("scan subordinate chain");
    assert!(sub.iter().any(|(_, _, r)| r.kind_name() == "Prepared"));
}

#[test]
fn segmented_backend_survives_in_doubt_kill_and_restart() {
    // The core crash-recovery contract on the segmented backend, single-
    // lane and sharded: a subordinate killed in doubt restarts from its
    // segment chain, resolves through recovery, and the durable decisions
    // agree across the cluster.
    for lanes in [1usize, 4] {
        let dir = temp_dir(&format!("restart-{lanes}"));
        let cfg = |kill: bool| {
            let c = healthy(&dir).with_lanes(lanes);
            if kill {
                c.kill_after_frames(2)
            } else {
                c
            }
        };
        let mut c = LiveCluster::start(vec![cfg(false), cfg(true)])
            .with_reply_timeout(Duration::from_secs(20));

        let t = c.begin(NodeId(0));
        let txn = t.id();
        t.work(NodeId(1), vec![Op::put("seg", "v")]);
        let wait = t.commit_async();
        c.await_death(NodeId(1), Duration::from_secs(10))
            .expect("victim dies in doubt");
        c.restart(NodeId(1))
            .expect("restart from the segment chain");
        let r = wait.wait(Duration::from_secs(20)).expect("root answers");
        assert_eq!(
            r.outcome,
            Outcome::Commit,
            "lanes={lanes}: prefix replay wins"
        );
        assert!(c.quiesce(Duration::from_secs(20)), "lanes={lanes}");
        assert_eq!(
            c.read_eventually(NodeId(1), "seg", Duration::from_secs(10)),
            Some(b"v".to_vec()),
            "lanes={lanes}: recovered write visible"
        );
        let rec = c
            .summary(NodeId(1))
            .expect("victim alive")
            .recovery
            .expect("restart recorded recovery stats");
        assert!(rec.wal_records_scanned >= 1, "lanes={lanes}: {rec:?}");

        let outcomes = vec![verify::outcome_record(txn, NodeId(0), &r)];
        let summaries = c.shutdown();
        let (violations, unresolved) = verify::check(&summaries, &outcomes);
        assert!(violations.is_empty(), "lanes={lanes}: {violations:?}");
        assert!(unresolved.is_empty(), "lanes={lanes}: {unresolved:?}");
        let wal = verify::check_wal_agreement(&dir, 2).expect("scan chains");
        assert!(wal.is_empty(), "lanes={lanes}: {wal:?}");
    }
}

#[test]
fn segmented_backend_absorbs_transient_fsync_failures() {
    // The storage-fault suite's flaky-disk cell on the segmented backend:
    // seeded fsync failures are absorbed by host retries, everything
    // commits, and the node ends neither degraded nor fail-stopped.
    let dir = temp_dir("transient");
    let plan = StorageFaultPlan::clean(0xF1AC)
        .with_fsync_failures(0.2)
        .with_fsync_delay_us(100);
    let c = LiveCluster::start(vec![healthy(&dir), healthy(&dir).with_storage_faults(plan)])
        .with_reply_timeout(Duration::from_secs(20));

    let mut outcomes = Vec::new();
    for i in 0..8 {
        let t = c.begin(NodeId(0));
        let txn = t.id();
        t.work(NodeId(1), vec![Op::put(&format!("t{i}"), "v")]);
        let r = t.commit().expect("root alive");
        assert_eq!(
            r.outcome,
            Outcome::Commit,
            "txn {i} commits despite retries"
        );
        outcomes.push(verify::outcome_record(txn, NodeId(0), &r));
    }
    assert!(c.quiesce(Duration::from_secs(20)));

    let s = c.summary(NodeId(1)).expect("victim alive");
    assert!(
        s.wal.fsync_retries > 0,
        "seeded failures must have forced retries: {:?}",
        s.wal
    );
    assert!(!s.wal.degraded, "retries sufficed: {:?}", s.wal);
    assert!(!s.wal.fail_stopped, "retries sufficed: {:?}", s.wal);
    // The pooled wire path is live under this workload and its counters
    // reach the exposition.
    assert!(
        s.pool.checkouts > 0,
        "pooled sends must be counted: {:?}",
        s.pool
    );
    let prom = c.prometheus_dump();
    assert!(prom.contains("tpc_pool_checkouts_total"), "{prom}");
    assert!(prom.contains("tpc_pool_hits_total"), "{prom}");

    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan chains");
    assert!(wal.is_empty(), "{wal:?}");
}

#[test]
fn segmented_torn_tail_is_classified_at_restart() {
    // Garbage past the durable prefix of the victim's active segment —
    // the segmented image of an append interrupted mid-write. Recovery
    // must classify it as a clean torn tail, re-zero the fill, and
    // replay the durable prefix.
    let dir = temp_dir("torn");
    let cfg = |kill: bool| {
        let c = healthy(&dir);
        if kill {
            c.kill_after_frames(2)
        } else {
            c
        }
    };
    let mut c =
        LiveCluster::start(vec![cfg(false), cfg(true)]).with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(NodeId(0));
    t.work(NodeId(1), vec![Op::put("tail", "v")]);
    let wait = t.commit_async();
    c.await_death(NodeId(1), Duration::from_secs(10))
        .expect("victim dies in doubt");

    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("node-1-wal").join("wal-0000.seg"))
            .expect("open victim segment");
        // Half a frame header: a length field and nothing else.
        f.write_all(&[0xFF, 0x00, 0x00, 0x00, 0xAB]).expect("tear");
    }

    c.restart(NodeId(1)).expect("restart over the torn image");
    let r = wait.wait(Duration::from_secs(20)).expect("root answers");
    assert_eq!(r.outcome, Outcome::Commit, "prefix replay wins");
    assert!(c.quiesce(Duration::from_secs(20)));
    let rec = c
        .summary(NodeId(1))
        .expect("victim alive")
        .recovery
        .expect("restart recorded recovery stats");
    assert_eq!(rec.torn_tails, 1, "{rec:?}");
    assert_eq!(rec.corruption_before_tail, 0, "{rec:?}");
    c.shutdown();
}

/// Commits that age a subordinate's chain past two 1 MiB rotations: each
/// overwrites one of 8 hot keys with a 4 KiB value, so its redo record
/// carries about 8 KiB (before and after images).
const AGE_COMMITS: usize = 320;

#[test]
fn committed_writes_survive_reclaimed_segments_and_a_restart() {
    // The shared chain carries the RM's redo next to the TM's records.
    // A key written once, before the chain rotates past the segment
    // holding it, must read back after the node restarts from that
    // chain: `End` lets the TM forget a transaction, not the store.
    let filler = "x".repeat(4096);
    for protocol in [ProtocolKind::PresumedAbort, ProtocolKind::PresumedNothing] {
        for lanes in [1usize, 4] {
            let case = format!("{protocol:?} lanes={lanes}");
            let dir = temp_dir(&format!("aged-{protocol:?}-{lanes}"));
            let cfg = || {
                LiveNodeConfig::new(protocol)
                    .with_segmented_log(dir.path())
                    .with_lanes(lanes)
                    .with_timeouts(chaos_timeouts())
            };
            let mut c =
                LiveCluster::start(vec![cfg(), cfg()]).with_reply_timeout(Duration::from_secs(20));
            let commit = |key: &str, value: &str| {
                let t = c.begin(NodeId(0));
                t.work(NodeId(1), vec![Op::put(key, value)]);
                let r = t.commit().expect("root alive");
                assert_eq!(r.outcome, Outcome::Commit, "{case}: {key}");
            };

            commit("early", "kept");
            let mut last = String::new();
            for i in 0..AGE_COMMITS {
                last = format!("{i:04}{filler}");
                commit(&format!("hot{}", i % 8), &last);
            }
            assert!(c.quiesce(Duration::from_secs(20)), "{case}");

            c.kill(NodeId(1)).expect("kill the subordinate");
            c.restart(NodeId(1)).expect("restart from the chain");
            assert_eq!(
                c.read_eventually(NodeId(1), "early", Duration::from_secs(10)),
                Some(b"kept".to_vec()),
                "{case}: a committed write was lost with a reclaimed segment"
            );
            assert_eq!(
                c.read_eventually(
                    NodeId(1),
                    &format!("hot{}", (AGE_COMMITS - 1) % 8),
                    Duration::from_secs(10)
                ),
                Some(last.into_bytes()),
                "{case}"
            );
            c.shutdown();
            let segments = std::fs::read_dir(dir.join("node-1-wal"))
                .expect("subordinate chain")
                .count();
            assert!(segments >= 3, "{case}: the chain must rotate twice");
        }
    }
}
