//! Group commit under real concurrency: many in-flight `commit_async`
//! transactions against a file-backed cluster, with the server's TM log
//! batching forces (§4 *Group Commits*).
//!
//! Two promises are asserted:
//!
//! 1. **Throughput**: with batching on, physical flushes fall strictly
//!    below logical force requests; with batching off they are equal —
//!    the paper's ~n − n/m saving, measured on a real fsyncing log.
//! 2. **Safety**: a force suspended in a filling batch is NOT durable.
//!    Killing the node mid-batch must lose it — recovery may only
//!    observe records a group flush actually made durable, and the
//!    transaction behind the lost force aborts cluster-wide.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tpc_common::config::GroupCommitConfig;
use tpc_common::{NodeId, Op, Outcome, ProtocolKind, SimDuration};
use tpc_core::Timeouts;
use tpc_obs::Phase;
use tpc_runtime::{verify, LiveCluster, LiveNodeConfig, StorageFaultPlan};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpc-gc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two waves of 32 concurrent transactions (all 32 of a wave are
/// in-flight via `commit_async` before any is awaited), root at node 0,
/// updates at node 1. Returns the shutdown summaries after the shared
/// invariant checker has passed.
fn stress(gc: Option<GroupCommitConfig>, tag: &str) -> Vec<tpc_runtime::NodeSummary> {
    const WAVES: usize = 2;
    const IN_FLIGHT: usize = 32;
    let dir = temp_dir(tag);
    let root = NodeId(0);
    let server = NodeId(1);
    let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
        .with_file_log(&dir)
        .with_group_commit(gc);
    let c = LiveCluster::start(vec![cfg.clone(), cfg]);

    let mut outcomes = Vec::new();
    for wave in 0..WAVES {
        let mut waits = Vec::new();
        for i in 0..IN_FLIGHT {
            let t = c.begin(root);
            let txn = t.id();
            t.work(server, vec![Op::put(&format!("gc-{wave}-{i}"), "v")]);
            waits.push((txn, t.commit_async()));
        }
        for (txn, wait) in waits {
            let r = wait
                .wait(Duration::from_secs(30))
                .expect("commit completes under load");
            assert_eq!(r.outcome, Outcome::Commit, "{tag}: wave {wave}");
            outcomes.push(verify::outcome_record(txn, root, &r));
        }
    }
    assert!(c.quiesce(Duration::from_secs(20)), "{tag}: must quiesce");
    for wave in 0..WAVES {
        for i in 0..IN_FLIGHT {
            assert_eq!(
                c.read(server, &format!("gc-{wave}-{i}")),
                Some(b"v".to_vec()),
                "{tag}: committed write visible"
            );
        }
    }

    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{tag}: {violations:?}");
    assert!(unresolved.is_empty(), "{tag}: {unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{tag}: {wal:?}");
    let _ = std::fs::remove_dir_all(&dir);
    summaries
}

#[test]
fn concurrent_stress_batches_flushes_with_group_commit_on() {
    let gc = GroupCommitConfig {
        batch_size: 8,
        max_wait: SimDuration::from_millis(5),
        adaptive: false,
    };
    let summaries = stress(Some(gc), "on");
    // The server sees 32 concurrent prepare/commit forces per wave;
    // batching must coalesce them. Strictly fewer flushes than forces,
    // on the group counters and on the log's own physical counter.
    let server = &summaries[1];
    assert!(
        server.group.requests >= 64,
        "server forces a prepared record per txn: {:?}",
        server.group
    );
    assert!(
        server.group.flushes < server.group.requests,
        "batching must save flushes: {:?}",
        server.group
    );
    assert!(
        server.log.physical_flushes < server.log.forced_writes,
        "TM log must observe the saving: {:?}",
        server.log
    );
    // The committer's accounting and the log's must agree.
    assert_eq!(
        server.group.flushes, server.log.physical_flushes,
        "group committer and log disagree on flush count"
    );
}

#[test]
fn concurrent_stress_flushes_every_force_with_group_commit_off() {
    let summaries = stress(None, "off");
    for s in &summaries {
        assert_eq!(s.group.requests, 0, "no batching machinery engaged");
        assert_eq!(
            s.log.physical_flushes, s.log.forced_writes,
            "without batching every force is its own flush: {:?}",
            s.log
        );
    }
}

#[test]
fn idle_lane_flushes_partial_batches_without_waiting_for_the_timer() {
    // A batch of 64 that a serial workload can never fill, and a 200 ms
    // deadline it must never wait for: after each force the lane's inbox
    // is empty, so the lane flushes the open batch instead of sleeping
    // on it. Every flush is the idle trigger's, none the timer's, and
    // commit latency is the device's, not `max_wait`'s.
    const TXNS: usize = 12;
    let max_wait = SimDuration::from_millis(200);
    let dir = temp_dir("idle");
    let root = NodeId(0);
    let server = NodeId(1);
    let gc = GroupCommitConfig {
        batch_size: 64,
        max_wait,
        adaptive: false,
    };
    let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
        .with_file_log(&dir)
        .with_group_commit(Some(gc))
        .with_observability();
    let c = LiveCluster::start(vec![cfg.clone(), cfg]);

    for i in 0..TXNS {
        let t = c.begin(root);
        t.work(server, vec![Op::put(&format!("idle-{i}"), "v")]);
        let r = t.commit().expect("commit completes");
        assert_eq!(r.outcome, Outcome::Commit, "txn {i}");
    }
    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    let prom = c.prometheus_dump();
    let summaries = c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // The exposition splits the flush counter by trigger.
    let series = |trigger: &str| -> u64 {
        let prefix = format!("tpc_group_flushes_total{{node=\"1\",trigger=\"{trigger}\"}} ");
        let line = prom.lines().find(|l| l.starts_with(&prefix));
        let value = line.unwrap_or_else(|| panic!("no {trigger} series in:\n{prom}"));
        value[prefix.len()..].parse().expect("counter value")
    };
    assert_eq!((series("size"), series("timer")), (0, 0));
    assert_eq!(series("idle"), summaries[1].group.flushes);

    for s in &summaries {
        assert_eq!(
            (s.group.flushes_by_size, s.group.flushes_by_timer),
            (0, 0),
            "a serial workload neither fills a batch of 64 nor keeps a \
             lane busy for 200 ms: {:?}",
            s.group
        );
        assert_eq!(s.group.flushes, s.group.flushes_by_idle, "{:?}", s.group);
        assert_eq!(
            s.group.flushes, s.log.physical_flushes,
            "group committer and log disagree on flush count"
        );
    }
    assert!(
        summaries[1].group.flushes_by_idle >= TXNS as u64,
        "every server force (prepared + committed per txn) released by \
         the idle lane: {:?}",
        summaries[1].group
    );

    // The root's decision phase is its forced commit record; with the
    // idle trigger it costs one device flush. A quarter of max_wait
    // leaves room for a slow CI disk and still cannot be met by a batch
    // that rides out the timer.
    let obs = summaries[0].obs.as_ref().expect("observability enabled");
    let decision = obs.phase(Phase::Decision).expect("decision samples");
    assert_eq!(decision.count, TXNS as u64);
    assert!(
        decision.p99() <= max_wait.as_micros() / 4,
        "an idle lane must not wait for the timer: p99={}us, max_wait={}us",
        decision.p99(),
        max_wait.as_micros()
    );
    let gf = obs.phase(Phase::GroupFlush).expect("group flush samples");
    assert!(
        gf.count >= TXNS as u64 && gf.p99() <= max_wait.as_micros() / 4,
        "batch windows must track the flush, not the deadline: {gf:?}"
    );
}

#[test]
fn timer_still_bounds_a_batch_on_a_lane_that_stays_busy() {
    // The §4 timer on the live path: it matters exactly when the idle
    // trigger cannot fire — a lane with a batch open and always more
    // work queued. The server's device is slow (3 ms per sync, injected)
    // and its RM forces its own log synchronously, so with 16 commits in
    // flight every Prepare it handles holds the lane for 3 ms while the
    // next ones wait in the inbox: the TM batch opened by the first
    // outlives its 1 ms deadline before the lane could ever go idle.
    const IN_FLIGHT: usize = 16;
    let root = NodeId(0);
    let server = NodeId(1);
    let gc = GroupCommitConfig {
        batch_size: 64,
        max_wait: SimDuration::from_millis(1),
        adaptive: false,
    };
    let c = LiveCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedAbort),
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_group_commit(Some(gc))
            .with_storage_faults(StorageFaultPlan::clean(7).with_fsync_delay_us(3_000)),
    ]);

    let txns: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            let t = c.begin(root);
            t.work(server, vec![Op::put(&format!("busy-{i}"), "v")]);
            t
        })
        .collect();
    let waits: Vec<_> = txns.into_iter().map(|t| t.commit_async()).collect();
    for wait in waits {
        let r = wait
            .wait(Duration::from_secs(30))
            .expect("commit completes");
        assert_eq!(r.outcome, Outcome::Commit);
    }
    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    let summaries = c.shutdown();

    let group = summaries[1].group;
    assert_eq!(group.flushes_by_size, 0, "{group:?}");
    assert!(
        group.flushes_by_timer >= 1,
        "a busy lane's batch must be released by its deadline: {group:?}"
    );
    assert_eq!(
        group.flushes,
        group.flushes_by_timer + group.flushes_by_idle,
        "{group:?}"
    );
    assert!(
        summaries[1].log.physical_flushes < summaries[1].log.forced_writes,
        "the batches still amortise: {:?}",
        summaries[1].log
    );
}

#[test]
fn kill_mid_batch_loses_the_suspended_force_and_stays_atomic() {
    // Batch of 64 with a 10 s deadline: the victim's prepared-record
    // force suspends in a batch that will never fill or expire before
    // the kill. `kill_after_frames(2)` crashes the victim right after it
    // processes Prepare — force requested, batch unflushed, vote unsent.
    // The root times out collecting votes and aborts; recovery from the
    // victim's WAL must find no trace of the suspended force.
    let dir = temp_dir("midbatch");
    let root = NodeId(0);
    let victim = NodeId(1);
    let timeouts = Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    };
    let gc = GroupCommitConfig {
        batch_size: 64,
        max_wait: SimDuration::from_secs(10),
        adaptive: false,
    };
    let mut c = LiveCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(&dir)
            .with_timeouts(timeouts),
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(&dir)
            .with_timeouts(timeouts)
            .with_group_commit(Some(gc))
            .kill_after_frames(2),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(root);
    let txn = t.id();
    t.work(victim, vec![Op::put("midbatch", "v")]);
    let wait = t.commit_async();

    let s = c
        .await_death(victim, Duration::from_secs(10))
        .expect("victim dies on its Prepare frame");
    assert!(s.protocol_state.crashed);
    // The force joined a batch that never flushed: that is the window
    // this test is about.
    assert_eq!(s.group.requests, 1, "prepared force joined the batch");
    assert_eq!(s.group.flushes, 0, "batch must still be open at the kill");
    assert_eq!(
        s.log.physical_flushes, 0,
        "no TM flush may have happened before the crash"
    );

    c.restart(victim).expect("restart from WAL");
    let result = wait.wait(Duration::from_secs(20)).expect("root answers");
    assert_eq!(
        result.outcome,
        Outcome::Abort,
        "the vote died suspended behind the batch — the root must abort"
    );
    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    assert_eq!(
        c.read(victim, "midbatch"),
        None,
        "recovery must not resurrect work behind an unflushed force"
    );

    let outcomes = vec![verify::outcome_record(txn, root, &result)];
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{wal:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_lane_flushes_the_batch_recovery_opened() {
    // Recovery runs before the lane's first `recv_timeout`: a Presumed
    // Nothing root that crashed mid-voting re-drives ABORT at restart and
    // forces the abort record — into a batch of 64 with a 10 s deadline.
    // The lane must flush that batch before it first blocks, like any
    // other lane going idle, not hold it until the next message or tick.
    let dir = temp_dir("restart");
    let root = NodeId(0);
    let subs = [NodeId(1), NodeId(2)];
    let gc = GroupCommitConfig {
        batch_size: 64,
        max_wait: SimDuration::from_secs(10),
        adaptive: false,
    };
    let timeouts = Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    };
    let cfg = LiveNodeConfig::new(ProtocolKind::PresumedNothing)
        .with_file_log(&dir)
        .with_timeouts(timeouts);
    let mut c = LiveCluster::start(vec![
        cfg.clone().with_group_commit(Some(gc)).kill_after_frames(2),
        cfg.clone(),
        cfg,
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(root);
    for s in subs {
        t.work(s, vec![Op::put("restart", "v")]);
    }
    let _wait = t.commit_async();
    let dead = c
        .await_death(root, Duration::from_secs(10))
        .expect("root dies mid-voting");
    assert!(dead.protocol_state.crashed);

    c.restart(root).expect("restart from WAL");
    // Watch the subordinates only: a request to the root would itself
    // wake its lane and release the batch. Their in-doubt query (200 ms)
    // would too, so the abort must reach them well before that.
    let restarted = Instant::now();
    let in_doubt = |s: &NodeId| c.summary(*s).is_none_or(|s| s.active_txns > 0);
    while subs.iter().any(in_doubt) {
        assert!(
            restarted.elapsed() < Duration::from_secs(10),
            "re-driven ABORT must reach both subordinates"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        restarted.elapsed() < Duration::from_millis(150),
        "the abort record waited for a wake-up: {:?}",
        restarted.elapsed()
    );
    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    for s in subs {
        assert_eq!(c.read(s, "restart"), None, "{s:?} rolled back");
    }

    let summaries = c.shutdown();
    let group = summaries[0].group;
    assert!(
        group.requests >= 1,
        "recovery forced the abort record: {group:?}"
    );
    assert_eq!(
        (group.flushes, group.flushes_by_size, group.flushes_by_timer),
        (group.flushes_by_idle, 0, 0),
        "every batch of the restarted lane closes on the idle trigger: {group:?}"
    );
    let (violations, unresolved) = verify::check(&summaries, &[]);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 3).expect("scan WALs");
    assert!(wal.is_empty(), "{wal:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
