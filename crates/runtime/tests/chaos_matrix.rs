//! Chaos matrix: kill a live node at every step of the commit protocol,
//! restart it from its durable WAL, and assert the cluster converges
//! with atomicity intact — for each of the paper's three protocols.
//!
//! The victim subordinate receives exactly three frames per transaction
//! (`Work`, `Prepare`, `Decision`), so `kill_after_frames(k)` for
//! k = 1..=3 crashes it at each distinct protocol stage:
//!
//! * k = 1 — dies holding unprepared work; it never votes, so the root
//!   aborts (missing votes count NO, and the partner-failure signal
//!   aborts the seat immediately).
//! * k = 2 — dies just after forcing its Prepared record and voting YES;
//!   it restarts in-doubt and must learn the commit via the root's
//!   ack-collection re-drive (PN/Basic retention) or its own in-doubt
//!   query (PA presumption).
//! * k = 3 — dies just after applying the commit decision; the forced
//!   Committed record must survive the crash (the §2 contract) so
//!   restart cannot un-commit it.
//!
//! Every case ends with the shared invariant checker
//! ([`tpc_runtime::verify::check`], the same module the simulator's
//! verifier uses) plus an on-disk WAL cross-scan.

use std::path::PathBuf;
use std::time::Duration;

use tpc_common::{AckMode, NodeId, Op, OptimizationConfig, Outcome, ProtocolKind, SimDuration};
use tpc_core::Timeouts;
use tpc_runtime::tcp::TcpCluster;
use tpc_runtime::{verify, Cluster, LiveCluster, LiveNodeConfig, Net, StorageFaultPlan};

/// Short protocol timers so retries and in-doubt queries fire quickly.
fn chaos_timeouts() -> Timeouts {
    Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpc-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Basic,
    ProtocolKind::PresumedAbort,
    ProtocolKind::PresumedNothing,
];

#[test]
fn kill_and_restart_the_subordinate_at_every_protocol_step() {
    for protocol in PROTOCOLS {
        for k in 1..=3u32 {
            subordinate_case(protocol, k, 1, None);
        }
    }
}

#[test]
fn kill_and_restart_the_subordinate_on_four_lanes_at_every_protocol_step() {
    // The same crash matrix against a sharded victim: the four lanes die
    // as one process and recovery replays the one shared WAL, routing
    // each recovered transaction back to its owning lane.
    for protocol in PROTOCOLS {
        for k in 1..=3u32 {
            subordinate_case(protocol, k, 4, None);
        }
    }
}

#[test]
fn kill_and_restart_with_flaky_fsync_at_every_protocol_step() {
    // Third matrix axis: the victim's log device intermittently fails
    // fsync (seeded, with latency). The host's bounded retries must
    // re-establish durability, so every cell still converges with the
    // same outcomes and WAL agreement as a healthy disk — on one lane
    // and on four.
    let flaky = StorageFaultPlan::clean(0xD15C)
        .with_fsync_failures(0.2)
        .with_fsync_delay_us(200);
    for protocol in PROTOCOLS {
        for lanes in [1usize, 4] {
            for k in 1..=3u32 {
                subordinate_case(protocol, k, lanes, Some(flaky.clone()));
            }
        }
    }
}

fn subordinate_case(
    protocol: ProtocolKind,
    k: u32,
    lanes: usize,
    faults: Option<StorageFaultPlan>,
) {
    let ctx = format!(
        "{protocol:?} k={k} lanes={lanes} faults={}",
        faults.is_some()
    );
    let dir = temp_dir(&format!(
        "sub-{protocol:?}-{k}-{lanes}-{}",
        faults.is_some()
    ));
    let root = NodeId(0);
    let victim = NodeId(1);
    let mut victim_cfg = LiveNodeConfig::new(protocol)
        .with_file_log(&dir)
        .with_lanes(lanes)
        .with_timeouts(chaos_timeouts())
        .kill_after_frames(k);
    if let Some(plan) = faults {
        victim_cfg = victim_cfg.with_storage_faults(plan);
    }
    let mut c = LiveCluster::start(vec![
        LiveNodeConfig::new(protocol)
            .with_file_log(&dir)
            .with_lanes(lanes)
            .with_timeouts(chaos_timeouts()),
        victim_cfg,
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(root);
    let txn = t.id();
    t.work(victim, vec![Op::put("chaos", "v")]);
    let wait = t.commit_async();

    let s = c
        .await_death(victim, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{ctx}: victim should die on schedule: {e}"));
    assert!(s.protocol_state.crashed, "{ctx}");
    c.restart(victim)
        .unwrap_or_else(|e| panic!("{ctx}: restart from WAL: {e}"));

    let result = wait
        .wait(Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("{ctx}: root must answer: {e}"));
    let expected = if k == 1 {
        Outcome::Abort
    } else {
        Outcome::Commit
    };
    assert_eq!(result.outcome, expected, "{ctx}");

    assert!(
        c.quiesce(Duration::from_secs(20)),
        "{ctx}: cluster must quiesce after recovery"
    );

    if expected == Outcome::Commit {
        assert_eq!(
            c.read_eventually(victim, "chaos", Duration::from_secs(10)),
            Some(b"v".to_vec()),
            "{ctx}: committed write must survive the crash and restart"
        );
    } else {
        assert_eq!(
            c.read(victim, "chaos"),
            None,
            "{ctx}: aborted write must not reappear after restart"
        );
    }

    let outcomes = vec![verify::outcome_record(txn, root, &result)];
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{ctx}: {violations:?}");
    assert!(unresolved.is_empty(), "{ctx}: {unresolved:?}");

    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{ctx}: {wal:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The §4 optimizations that change *who recovers what*: a delegated
/// last agent owns the decision, early-ack changes when the upstream
/// ack leaves, wait-for-outcome changes when the application hears.
/// Each must survive the same kill-at-every-step matrix as the
/// baseline — on one lane and on four — with the in-doubt telemetry
/// accounting for exactly the windows the crash opened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OptCell {
    LastAgent,
    EarlyAck,
    WaitForOutcome,
}

impl OptCell {
    fn opts(self) -> OptimizationConfig {
        match self {
            OptCell::LastAgent => OptimizationConfig::none().with_last_agent(true),
            OptCell::EarlyAck => OptimizationConfig::none().with_ack_mode(AckMode::Early),
            OptCell::WaitForOutcome => OptimizationConfig::none().with_wait_for_outcome(true),
        }
    }
}

#[test]
fn optimization_cells_survive_the_crash_matrix() {
    // 3 optimizations × 3 crash steps × {1, 4} lanes = 18 live cells,
    // all Presumed Abort (the optimizations' home family in the paper).
    for opt in [
        OptCell::LastAgent,
        OptCell::EarlyAck,
        OptCell::WaitForOutcome,
    ] {
        for lanes in [1usize, 4] {
            for k in 1..=3u32 {
                optimization_case(opt, k, lanes);
            }
        }
    }
}

fn optimization_case(opt: OptCell, k: u32, lanes: usize) {
    let ctx = format!("{opt:?} k={k} lanes={lanes}");
    let dir = temp_dir(&format!("opt-{opt:?}-{k}-{lanes}"));
    let root = NodeId(0);
    let victim = NodeId(1);
    let mut c = LiveCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(&dir)
            .with_lanes(lanes)
            .with_opts(opt.opts())
            .with_timeouts(chaos_timeouts()),
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_observability()
            .with_file_log(&dir)
            .with_lanes(lanes)
            .with_opts(opt.opts())
            .with_timeouts(chaos_timeouts())
            .kill_after_frames(k),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(root);
    let txn = t.id();
    t.work(victim, vec![Op::put("opt-chaos", "v")]);
    let wait = t.commit_async();

    let s = c
        .await_death(victim, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{ctx}: victim should die on schedule: {e}"));
    assert!(s.protocol_state.crashed, "{ctx}");
    c.restart(victim)
        .unwrap_or_else(|e| panic!("{ctx}: restart from WAL: {e}"));

    // k = 1 kills the victim holding unprepared work (before it voted —
    // or, under last-agent, before the delegation reached it), so the
    // transaction aborts; any later step commits.
    let result = wait
        .wait(Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("{ctx}: root must answer: {e}"));
    let expected = if k == 1 {
        Outcome::Abort
    } else {
        Outcome::Commit
    };
    assert_eq!(result.outcome, expected, "{ctx}");

    assert!(
        c.quiesce(Duration::from_secs(20)),
        "{ctx}: cluster must quiesce after recovery"
    );
    if expected == Outcome::Commit {
        assert_eq!(
            c.read_eventually(victim, "opt-chaos", Duration::from_secs(10)),
            Some(b"v".to_vec()),
            "{ctx}: committed write must survive"
        );
    } else {
        assert_eq!(c.read(victim, "opt-chaos"), None, "{ctx}");
    }

    // In-doubt telemetry: every window the crash opened must be closed
    // by recovery. Only a *prepared subordinate* crash (k = 2 without
    // delegation) leaves a window open across the restart — a last
    // agent is the decider and is never in doubt at its own node.
    let vs = c
        .summary(victim)
        .unwrap_or_else(|| panic!("{ctx}: victim summary"));
    let obs = vs.obs.expect("observability was on");
    assert_eq!(
        obs.in_doubt_current, 0,
        "{ctx}: no in-doubt window may survive recovery"
    );
    if k == 2 && opt != OptCell::LastAgent {
        assert!(
            obs.in_doubt.count >= 1,
            "{ctx}: the prepared-crash cell must record its in-doubt window"
        );
        let rec = vs.recovery.expect("restart recorded recovery stats");
        assert!(
            rec.in_doubt_recovered >= 1,
            "{ctx}: recovery must report the re-armed in-doubt transaction"
        );
    }

    let outcomes = vec![verify::outcome_record(txn, root, &result)];
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{ctx}: {violations:?}");
    assert!(unresolved.is_empty(), "{ctx}: {unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{ctx}: {wal:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_doubt_window_covers_the_outage() {
    // A subordinate killed between Prepare and Decision is in doubt for
    // at least the whole outage: the window opens at its forced Prepared
    // record (before the crash), survives the restart via the stamped
    // entry time in the WAL, and only closes when the outcome arrives
    // after recovery. The recorded duration must therefore dominate the
    // enforced dead time, and the restart must surface recovery
    // telemetry for the in-doubt transaction. Every protocol, on a
    // one-lane node over TCP and on a four-lane node over channels.
    for protocol in PROTOCOLS {
        in_doubt_case(protocol, 1, |configs| {
            TcpCluster::start(configs).expect("bind loopback")
        });
        in_doubt_case(protocol, 4, LiveCluster::start);
    }
}

fn in_doubt_case<N: Net>(
    protocol: ProtocolKind,
    lanes: usize,
    start: impl FnOnce(Vec<LiveNodeConfig>) -> Cluster<N>,
) {
    let outage = Duration::from_millis(80);
    // The lane count names the cell: TCP runs one, channels four.
    let ctx = format!("{protocol:?} lanes={lanes}");
    let dir = temp_dir(&format!("indoubt-{protocol:?}-{lanes}"));
    let root = NodeId(0);
    let victim = NodeId(1);
    let cfg = || {
        LiveNodeConfig::new(protocol)
            .with_observability()
            .with_file_log(&dir)
            .with_lanes(lanes)
            .with_timeouts(chaos_timeouts())
    };
    let reply_timeout = Duration::from_secs(20);
    let mut c =
        start(vec![cfg(), cfg().kill_after_frames(2), cfg()]).with_reply_timeout(reply_timeout);
    let t = c.begin(root);
    for (node, key) in [(victim, "window/a"), (NodeId(2), "window/b")] {
        t.work(node, vec![Op::put(key, "v")]);
    }
    let wait = t.commit_async();
    c.await_death(victim, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{ctx}: victim dies after voting: {e}"));
    std::thread::sleep(outage);
    c.restart(victim).expect("restart from the WAL");
    let outcome = wait.wait(reply_timeout).expect("root answers").outcome;
    assert!(c.quiesce(reply_timeout), "{ctx}: must quiesce");
    let s = c.summary(victim).expect("victim summary");
    c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(outcome, Outcome::Commit, "{ctx}");
    let obs = s.obs.expect("observability was on");
    assert_eq!(obs.in_doubt.count, 1, "{ctx}: exactly one in-doubt window");
    assert_eq!(obs.in_doubt_current, 0, "{ctx}: window open after recovery");
    assert!(
        obs.in_doubt.max >= outage.as_micros() as u64,
        "{ctx}: in-doubt window ({} µs) must cover the outage ({} µs)",
        obs.in_doubt.max,
        outage.as_micros()
    );
    let rec = s.recovery.expect("restart recorded recovery stats");
    assert_eq!(rec.in_doubt_recovered, 1, "{ctx}: {rec:?}");
    assert!(rec.wal_records_scanned >= 1, "{ctx}: {rec:?}");
    if protocol != ProtocolKind::PresumedNothing {
        // The restarted subordinate asks for the outcome, once. Under PN
        // the root's ack-collection re-drive usually answers it first.
        assert_eq!(rec.queries_sent, 1, "{ctx}: {rec:?}");
    }
}

#[test]
fn root_crash_after_deciding_recovers_and_completes_phase_two() {
    // The root receives exactly one frame in a two-node commit: the
    // subordinate's vote. Killing it there crashes it immediately after
    // it forces the decision and emits the Decision frame — phase two
    // (ack collection, End record) must be finished by recovery.
    for protocol in PROTOCOLS {
        let ctx = format!("{protocol:?} root-crash");
        let dir = temp_dir(&format!("root-{protocol:?}"));
        let root = NodeId(0);
        let sub = NodeId(1);
        let mut c = LiveCluster::start(vec![
            LiveNodeConfig::new(protocol)
                .with_file_log(&dir)
                .with_timeouts(chaos_timeouts())
                .kill_after_frames(1),
            LiveNodeConfig::new(protocol)
                .with_file_log(&dir)
                .with_timeouts(chaos_timeouts()),
        ])
        .with_reply_timeout(Duration::from_secs(20));

        let t = c.begin(root);
        let txn = t.id();
        t.work(sub, vec![Op::put("root-chaos", "v")]);
        let wait = t.commit_async();

        c.await_death(root, Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{ctx}: root should die on its vote frame: {e}"));
        c.restart(root)
            .unwrap_or_else(|e| panic!("{ctx}: restart from WAL: {e}"));

        // The decision was forced and announced before the crash, so the
        // application either got the commit outcome before the root died
        // or its reply channel died with the process — never a wrong
        // outcome.
        let result = match wait.wait(Duration::from_secs(20)) {
            Ok(r) => {
                assert_eq!(r.outcome, Outcome::Commit, "{ctx}");
                Some(r)
            }
            Err(tpc_common::Error::NodeDown(_)) | Err(tpc_common::Error::Timeout(_)) => None,
            Err(e) => panic!("{ctx}: unexpected error {e}"),
        };

        assert!(c.quiesce(Duration::from_secs(20)), "{ctx}: must quiesce");
        assert_eq!(
            c.read_eventually(sub, "root-chaos", Duration::from_secs(10)),
            Some(b"v".to_vec()),
            "{ctx}: decided commit must reach the subordinate"
        );

        let outcomes: Vec<_> = result
            .iter()
            .map(|r| verify::outcome_record(txn, root, r))
            .collect();
        let summaries = c.shutdown();
        let (violations, unresolved) = verify::check(&summaries, &outcomes);
        assert!(violations.is_empty(), "{ctx}: {violations:?}");
        assert!(unresolved.is_empty(), "{ctx}: {unresolved:?}");
        let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
        assert!(wal.is_empty(), "{ctx}: {wal:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_and_restart_works_over_tcp_too() {
    // The same crash/recovery choreography with frames on real loopback
    // sockets: the victim dies in-doubt (k = 2) and must re-learn the
    // outcome over TCP after restart. Its YES vote was written by its
    // own lane before it died, and the root reads a dead peer's frames
    // before its failure notice, so the outcome is Commit every time.
    tcp_kill_case(2, Outcome::Commit);
}

#[test]
fn tcp_victim_killed_before_its_vote_aborts_on_both_nodes() {
    // The mirror case: the victim dies holding Work (k = 1) before any
    // Prepare reaches it; the root's Prepare dies in its sockets.
    tcp_kill_case(1, Outcome::Abort);
}

fn tcp_kill_case(k: u32, expected: Outcome) {
    let ctx = format!("tcp k={k}");
    let dir = temp_dir(&format!("tcp-{k}"));
    let root = NodeId(0);
    let victim = NodeId(1);
    let mut c = TcpCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(&dir)
            .with_timeouts(chaos_timeouts()),
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(&dir)
            .with_timeouts(chaos_timeouts())
            .kill_after_frames(k),
    ])
    .expect("bind loopback")
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(root);
    let txn = t.id();
    t.work(victim, vec![Op::put("tcp-chaos", "v")]);
    let wait = t.commit_async();

    let s = c
        .await_death(victim, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{ctx}: victim dies on schedule: {e}"));
    assert!(s.protocol_state.crashed, "{ctx}");
    c.restart(victim).expect("restart over TCP");

    let result = wait.wait(Duration::from_secs(20)).expect("root answers");
    assert_eq!(result.outcome, expected, "{ctx}");
    assert!(c.quiesce(Duration::from_secs(20)), "{ctx}: must quiesce");
    let (stored, want) = match expected {
        Outcome::Commit => (
            c.read_eventually(victim, "tcp-chaos", Duration::from_secs(10)),
            Some(b"v".to_vec()),
        ),
        _ => (c.read(victim, "tcp-chaos"), None),
    };
    assert_eq!(
        stored, want,
        "{ctx}: the victim's store must agree with the root's outcome"
    );

    let outcomes = vec![verify::outcome_record(txn, root, &result)];
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{ctx}: {violations:?}");
    assert!(unresolved.is_empty(), "{ctx}: {unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{ctx}: {wal:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn faulty_wire_chaos_run_stays_atomic() {
    // Seeded message chaos (drops + duplicates + delays on the root's
    // outbound wire) across a batch of transactions: every outcome must
    // be typed, and the shared checker must find the final state atomic.
    let configs = vec![
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_timeouts(chaos_timeouts()),
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_timeouts(chaos_timeouts()),
        LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_timeouts(chaos_timeouts()),
    ];
    let faults = vec![
        Some(
            tpc_runtime::FaultPlan::clean(0xDECAF)
                .with_drops(0.2)
                .with_duplicates(0.1)
                .with_delays(0.1, 2),
        ),
        None,
        None,
    ];
    let c = LiveCluster::start_with_faults(configs, &[], faults)
        .with_reply_timeout(Duration::from_secs(20));

    let mut outcomes = Vec::new();
    for i in 0..8 {
        let t = c.begin(NodeId(0));
        let txn = t.id();
        t.work(NodeId(1), vec![Op::put(&format!("a{i}"), "1")]);
        t.work(NodeId(2), vec![Op::put(&format!("b{i}"), "2")]);
        let r = t.commit().unwrap_or_else(|e| {
            let root = c.summary(NodeId(0));
            let s1 = c.summary(NodeId(1));
            let s2 = c.summary(NodeId(2));
            panic!(
                "txn {i} ({txn}): typed outcome, never a hang: {e}\n\
                 root: {root:#?}\nsub1: {s1:#?}\nsub2: {s2:#?}"
            )
        });
        outcomes.push(verify::outcome_record(txn, NodeId(0), &r));
    }
    assert!(
        c.quiesce(Duration::from_secs(20)),
        "chaos batch must quiesce"
    );
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
}
