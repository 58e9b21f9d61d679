//! Storage-fault chaos: seeded disk faults injected under the live WAL
//! (fsync failures, ENOSPC, torn writes, bit rot) and the node-level
//! reactions they must produce. The contract under test is the §2
//! durability rule turned inside out: when the disk breaks, an I/O
//! error may cost progress — a vote, a transaction, the whole node —
//! but it must never become a silent wrong answer. Every cell ends in
//! one of three explicit states: the fault was absorbed by bounded
//! retries, the node degraded to read-only with counted rejections, or
//! the node fail-stopped and was rebuilt from its durable WAL prefix.

use std::time::Duration;

use tpc_common::{NodeId, Op, Outcome, ProtocolKind, SimDuration, TempDir};
use tpc_core::Timeouts;
use tpc_runtime::{verify, IoErrorPolicy, LiveCluster, LiveNodeConfig, StorageFaultPlan};
use tpc_wal::segment::scan_chain;

fn chaos_timeouts() -> Timeouts {
    Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    }
}

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("storage-{tag}"))
}

fn healthy(dir: &std::path::Path) -> LiveNodeConfig {
    LiveNodeConfig::new(ProtocolKind::PresumedAbort)
        .with_file_log(dir)
        .with_timeouts(chaos_timeouts())
}

#[test]
fn transient_fsync_failures_are_absorbed_by_retries() {
    // A flaky-but-recovering disk: fsync fails intermittently (seeded)
    // and every failure is followed by a host retry that lands the
    // buffered forced record. All transactions must still commit, the
    // retries must be visible in WalHealth, and the node must end the
    // run neither degraded nor fail-stopped.
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

    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{wal:?}");
}

#[test]
fn permanent_fsync_failure_degrades_to_read_only_with_counted_rejections() {
    // The disk stops accepting fsync entirely. Under ReadOnly policy
    // the subordinate gives up durability, refuses to vote yes (its
    // Prepared record cannot be forced), and rejects later transactions
    // outright — every refusal counted, never a commit whose decision
    // record was not durably forced.
    let dir = temp_dir("readonly");
    let plan = StorageFaultPlan::clean(0xDEAD).with_permanent_fsync_failure_after(0);
    let c = LiveCluster::start(vec![
        healthy(&dir),
        healthy(&dir)
            .with_storage_faults(plan)
            .with_io_policy(IoErrorPolicy::ReadOnly),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    for i in 0..3 {
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put(&format!("r{i}"), "v")]);
        let r = t.commit().expect("root alive: a typed outcome, not a hang");
        assert_eq!(
            r.outcome,
            Outcome::Abort,
            "txn {i}: an unforceable prepare must abort, never commit"
        );
    }
    assert!(c.quiesce(Duration::from_secs(20)));
    assert!(c.is_alive(NodeId(1)), "ReadOnly keeps the node up");

    let s = c.summary(NodeId(1)).expect("victim alive");
    assert!(s.wal.degraded, "{:?}", s.wal);
    assert!(!s.wal.fail_stopped, "{:?}", s.wal);
    assert!(s.wal.io_errors >= 1, "{:?}", s.wal);
    assert!(
        s.wal.rejected_txns >= 1,
        "post-degrade txns are explicit rejections: {:?}",
        s.wal
    );
    for i in 0..3 {
        assert_eq!(c.read(NodeId(1), &format!("r{i}")), None, "nothing leaked");
    }

    // Satellite surface: the WAL-health families reach /metrics.
    let prom = c.prometheus_dump();
    assert!(prom.contains("# TYPE tpc_wal_degraded gauge"), "{prom}");
    assert!(prom.contains("tpc_wal_degraded{node=\"1\"} 1"), "{prom}");
    assert!(prom.contains("tpc_wal_degraded{node=\"0\"} 0"), "{prom}");
    assert!(
        prom.contains("tpc_wal_io_errors_total{node=\"1\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("tpc_wal_fsync_retries_total{node=\"1\"}"),
        "{prom}"
    );
    assert!(
        prom.contains("tpc_wal_rejected_txns_total{node=\"1\"}"),
        "{prom}"
    );

    // And a liveness probe sees the sick disk: /healthz flips to 503
    // naming the degraded node while healthy paths keep answering 200.
    let server = c.serve_metrics("127.0.0.1:0").expect("bind healthz");
    let health = http_get(server.addr(), "/healthz");
    assert!(
        health.starts_with("HTTP/1.1 503 Service Unavailable"),
        "{health}"
    );
    assert!(health.contains("N1 degraded (read-only)"), "{health}");
    assert!(
        !health.contains("N0"),
        "healthy nodes stay unlisted: {health}"
    );
    let metrics = http_get(server.addr(), "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
    drop(server);

    c.shutdown();
}

#[test]
fn permanent_fsync_failure_fail_stops_and_a_replacement_disk_recovers() {
    // Same dead disk, FailStop policy (the default): the node kills
    // itself rather than serve without durability. A restart models the
    // operator swapping the disk — storage faults do not survive it —
    // and the rebuilt node commits normally.
    let dir = temp_dir("failstop");
    let plan = StorageFaultPlan::clean(0xFA11).with_permanent_fsync_failure_after(0);
    let mut c = LiveCluster::start(vec![
        healthy(&dir),
        healthy(&dir)
            .with_storage_faults(plan)
            .with_io_policy(IoErrorPolicy::FailStop),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(NodeId(0));
    t.work(NodeId(1), vec![Op::put("fs", "v")]);
    let r = t.commit().expect("root alive");
    assert_eq!(r.outcome, Outcome::Abort, "no durable vote, no commit");

    let s = c
        .await_death(NodeId(1), Duration::from_secs(10))
        .expect("the node must fail-stop");
    assert!(s.wal.fail_stopped, "{:?}", s.wal);
    assert!(s.wal.io_errors >= 1, "{:?}", s.wal);

    c.restart(NodeId(1)).expect("restart on a clean disk");
    let t = c.begin(NodeId(0));
    let txn = t.id();
    t.work(NodeId(1), vec![Op::put("fs2", "v2")]);
    let r = t.commit().expect("root alive");
    assert_eq!(r.outcome, Outcome::Commit, "replacement disk commits");
    assert!(c.quiesce(Duration::from_secs(20)));
    assert_eq!(
        c.read_eventually(NodeId(1), "fs2", Duration::from_secs(10)),
        Some(b"v2".to_vec())
    );

    let outcomes = vec![verify::outcome_record(txn, NodeId(0), &r)];
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
}

#[test]
fn enospc_degrades_after_the_space_budget_and_keeps_the_durable_prefix() {
    // The log device runs out of space mid-run. Transactions committed
    // while space remained stay durable; once the budget is exhausted
    // the node degrades read-only and everything after is an explicit
    // abort or rejection.
    let dir = temp_dir("enospc");
    let plan = StorageFaultPlan::clean(0x0E05).with_enospc_after(512);
    let c = LiveCluster::start(vec![
        healthy(&dir),
        healthy(&dir)
            .with_storage_faults(plan)
            .with_io_policy(IoErrorPolicy::ReadOnly),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let mut committed = Vec::new();
    for i in 0..12 {
        let key = format!("e{i}");
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put(&key, "v")]);
        let r = t
            .commit()
            .expect("root alive: typed outcome even when full");
        if r.outcome == Outcome::Commit {
            committed.push(key);
        }
    }
    assert!(c.quiesce(Duration::from_secs(20)));

    let s = c.summary(NodeId(1)).expect("victim alive");
    assert!(
        !committed.is_empty(),
        "some txns fit inside the budget: {:?}",
        s.wal
    );
    assert!(committed.len() < 12, "the device must fill up: {:?}", s.wal);
    assert!(s.wal.degraded, "{:?}", s.wal);
    assert!(s.wal.io_errors >= 1, "{:?}", s.wal);
    for key in &committed {
        assert_eq!(
            c.read(NodeId(1), key),
            Some(b"v".to_vec()),
            "{key}: committed before ENOSPC, must stay durable"
        );
    }
    c.shutdown();
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{wal:?}");
}

/// Byte offset in segment file `seg` just past its last valid frame:
/// where the recovery scan stops, and where the next append would land.
/// The segment is preallocated, so this is not its end of file.
fn scan_stop(seg: &std::path::Path) -> usize {
    let chain = scan_chain(seg.parent().expect("segment in a chain dir")).expect("scan chain");
    let raw = std::fs::read(seg).expect("read segment");
    chain.last().map_or(0, |(lsn, _, _)| {
        // Frame: u32 payload len, u32 crc, u8 stream, payload.
        let off = (lsn.0 & u64::from(u32::MAX)) as usize;
        let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
        off + 9 + len
    })
}

/// Kill the subordinate in-doubt (k = 2), damage its TM chain's first
/// segment on disk while it is down, restart it, and return (commit
/// result, recovery stats rollup) plus the cluster so callers can keep
/// asserting.
fn crash_damage_restart(
    tag: &str,
    lanes: usize,
    damage: impl FnOnce(&std::path::Path),
) -> (tpc_core::RecoveryStats, Outcome) {
    let dir = temp_dir(tag);
    let cfg = |kill: bool| {
        let c = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(dir.path())
            .with_lanes(lanes)
            .with_timeouts(chaos_timeouts());
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

    damage(&dir.join("node-1-wal").join("wal-0000.seg"));

    c.restart(NodeId(1))
        .expect("restart over the damaged image");
    let result = wait.wait(Duration::from_secs(20)).expect("root answers");
    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    let rec = c
        .summary(NodeId(1))
        .expect("victim alive")
        .recovery
        .expect("restart recorded recovery stats");
    c.shutdown();
    (rec, result.outcome)
}

#[test]
fn a_torn_tail_is_classified_and_reported_at_restart() {
    // An append interrupted by the crash leaves a partial frame after
    // the last durable one. Recovery must classify it as a clean torn
    // tail (expected damage), zero it, and replay the durable prefix —
    // on a single-lane node and on a sharded one.
    for lanes in [1usize, 4] {
        let (rec, outcome) = crash_damage_restart(&format!("torn-{lanes}"), lanes, |seg| {
            let mut raw = std::fs::read(seg).expect("read victim segment");
            let stop = scan_stop(seg);
            // Half a frame header: a length field and nothing else.
            raw[stop..stop + 5].copy_from_slice(&[0xFF, 0x00, 0x00, 0x00, 0xAB]);
            std::fs::write(seg, &raw).expect("tear");
        });
        assert_eq!(
            outcome,
            Outcome::Commit,
            "lanes={lanes}: prefix replay wins"
        );
        assert_eq!(rec.torn_tails, 1, "lanes={lanes}: {rec:?}");
        assert_eq!(rec.corruption_before_tail, 0, "lanes={lanes}: {rec:?}");
        assert!(rec.wal_records_scanned >= 1, "lanes={lanes}: {rec:?}");
    }
}

#[test]
fn corruption_before_the_tail_is_distinguished_from_a_torn_tail() {
    // Bit rot inside an early frame, with intact frames after it, is a
    // different failure class than an interrupted append: recovery must
    // say so. Write a second valid WAL frame by hand after flipping a
    // bit in the first one; the scanner stops at the damage but finds
    // the chained survivor, so the restart reports corruption-before-
    // tail instead of a clean torn tail.
    let (rec, outcome) = crash_damage_restart("bitrot", 1, |seg| {
        use tpc_wal::{Durability, LogManager, LogRecord, SegmentedLog, StreamId};
        let intact = scan_stop(seg);
        assert!(intact > 0, "victim forced a Prepared record");
        // Append two well-formed frames with the WAL's own writer, at the
        // scan stop, then rot a CRC byte in the first of them: the real
        // Prepared record stays replayable, the rotted frame stops the
        // scan, and the last frame is the provable survivor.
        {
            let chain = seg.parent().expect("segment in a chain dir");
            let mut log = SegmentedLog::open(chain).expect("reopen victim WAL");
            for seq in [900u64, 901] {
                log.append(
                    StreamId::Tm,
                    LogRecord::End {
                        txn: tpc_common::TxnId::new(NodeId(1), seq),
                    },
                    Durability::Forced,
                )
                .expect("append survivor frame");
            }
        }
        let mut raw = std::fs::read(seg).expect("read victim segment");
        raw[intact + 4] ^= 0x01; // CRC byte of the first appended frame
        std::fs::write(seg, &raw).expect("write damage");
    });
    assert_eq!(
        outcome,
        Outcome::Commit,
        "the intact Prepared record replays"
    );
    assert_eq!(rec.corruption_before_tail, 1, "{rec:?}");
    assert_eq!(rec.torn_tails, 0, "{rec:?}");
}

#[test]
fn invariant_violation_dumps_the_flight_recorder() {
    // The flight recorder is the black box: when the invariant checker
    // fires, the dump must already hold the decision trail that led
    // there. Run a healthy commit under observability, then inject a
    // violation by falsifying the application's outcome record (the
    // engines durably committed; the forged record claims abort). The
    // checker must flag it, and the recorder dump must carry the real
    // commit decision for the forged transaction.
    let dir = temp_dir("flight");
    let c = LiveCluster::start(vec![
        healthy(&dir).with_observability(),
        healthy(&dir).with_observability(),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(NodeId(0));
    let txn = t.id();
    t.work(NodeId(1), vec![Op::put("fr", "v")]);
    let r = t.commit().expect("root alive");
    assert_eq!(r.outcome, Outcome::Commit);
    assert!(c.quiesce(Duration::from_secs(20)));

    let summaries = c.shutdown();
    let mut forged = verify::outcome_record(txn, NodeId(0), &r);
    forged.outcome = Outcome::Abort; // the injected lie

    let (violations, _) = verify::check(&summaries, &[forged]);
    assert!(
        !violations.is_empty(),
        "the forged outcome must trip the checker"
    );
    let dump = verify::flight_dump(&summaries)
        .expect("observability was on: the black box must not be empty");
    assert!(dump.contains("decision"), "{dump}");
    assert!(dump.contains(&format!("{txn:?}")), "{dump}");
    assert!(dump.contains("commit"), "{dump}");
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect probe");
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    resp
}
