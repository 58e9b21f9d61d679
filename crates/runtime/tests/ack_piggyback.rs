//! Live tests of the long-locks ack deferral (§4 *Long Locks*): the
//! cross-transaction piggyback slot on a sharded node, and the WAL
//! replay re-arming owed acks across a kill/restart — no deferred ack
//! is ever lost, duplicated, or sent eagerly when later traffic could
//! have carried it.

use std::time::Duration;

use tpc_common::{NodeId, Op, OptimizationConfig, Outcome, ProtocolKind, SimDuration, TempDir};
use tpc_core::Timeouts;
use tpc_runtime::{verify, LiveCluster, LiveNodeConfig};

fn long_locks() -> OptimizationConfig {
    OptimizationConfig::none().with_long_locks(true)
}

fn fast_timeouts() -> Timeouts {
    Timeouts {
        vote_collection: SimDuration::from_millis(300),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    }
}

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new(&format!("ackpig-{tag}"))
}

/// A subordinate killed right after applying the commit decision dies
/// holding a deferred (long-locks) ack: the Committed record was
/// forced, the End record was not, so WAL replay must re-arm the owed
/// ack. The next transaction's vote frame then carries it for free —
/// the coordinator finishes ack collection without the restarted node
/// ever paying an eager ack frame, and nothing is lost or duplicated.
#[test]
fn wal_replay_rearms_the_deferred_ack() {
    let dir = temp_dir("rearm");
    let root = NodeId(0);
    let victim = NodeId(1);
    let mut c = LiveCluster::start(vec![
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(dir.path())
            .with_opts(long_locks())
            .with_timeouts(fast_timeouts()),
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(dir.path())
            .with_opts(long_locks())
            // A long linger: the re-armed ack must wait for a ride, not
            // bail out as its own frame the moment the lane goes idle.
            .with_ack_linger(Duration::from_secs(1))
            .with_timeouts(fast_timeouts())
            // Work, Prepare, Decision: dies just after deferring the ack.
            .kill_after_frames(3),
    ])
    .with_reply_timeout(Duration::from_secs(20));

    let t = c.begin(root);
    let txn1 = t.id();
    t.work(victim, vec![Op::put("first", "1")]);
    let wait = t.commit_async();

    c.await_death(victim, Duration::from_secs(10))
        .expect("victim dies after applying the decision");
    let r1 = wait.wait(Duration::from_secs(20)).expect("root answers");
    assert_eq!(r1.outcome, Outcome::Commit);
    c.restart(victim).expect("restart from WAL");

    // The second transaction gives the re-armed ack its ride.
    let t = c.begin(root);
    let txn2 = t.id();
    t.work(victim, vec![Op::put("second", "2")]);
    let r2 = t.commit().expect("second txn commits");
    assert_eq!(r2.outcome, Outcome::Commit);

    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    assert_eq!(
        c.read_eventually(victim, "first", Duration::from_secs(10)),
        Some(b"1".to_vec()),
        "the deferred-acked commit survives the crash"
    );

    let vs = c.summary(victim).expect("victim summary");
    assert!(
        vs.recovery.is_some(),
        "the restart went through WAL recovery"
    );
    assert!(
        vs.metrics.piggybacked_messages >= 1,
        "the re-armed ack must ride a later frame, not pay its own \
         (piggybacked {})",
        vs.metrics.piggybacked_messages
    );

    let outcomes = vec![
        verify::outcome_record(txn1, root, &r1),
        verify::outcome_record(txn2, root, &r2),
    ];
    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    // Unresolved would mean the coordinator never got the re-armed ack.
    assert!(unresolved.is_empty(), "{unresolved:?}");
    let wal = verify::check_wal_agreement(&dir, 2).expect("scan WALs");
    assert!(wal.is_empty(), "{wal:?}");
}

/// On a multi-lane node the engine's per-lane owed queues can't help
/// each other, so deferred acks park in the node-level slot and ride
/// outbound frames of *other* transactions (other lanes' traffic
/// included). A batch of concurrent transactions across 4 lanes must
/// show real cross-transaction rides — and the slot books must balance:
/// every parked ack either piggybacked or was flushed, none lost.
#[test]
fn sharded_node_piggybacks_acks_across_concurrent_transactions() {
    let root = NodeId(0);
    let sub = NodeId(1);
    let mk = |linger: u64| {
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_lanes(4)
            .with_opts(long_locks())
            .with_ack_linger(Duration::from_millis(linger))
            .with_timeouts(fast_timeouts())
    };
    let c = LiveCluster::start(vec![mk(500), mk(500)]).with_reply_timeout(Duration::from_secs(20));

    // Four rounds of four concurrent transactions: every lane sees
    // several transactions, so each deferred ack has same-lane traffic
    // behind it to ride on.
    let mut outcomes = Vec::new();
    for round in 0..4 {
        let mut waits = Vec::new();
        for i in 0..4 {
            let t = c.begin(root);
            let txn = t.id();
            t.work(sub, vec![Op::put(&format!("k{round}-{i}"), "v")]);
            waits.push((txn, t.commit_async()));
        }
        for (txn, w) in waits {
            let r = w.wait(Duration::from_secs(20)).expect("commit");
            assert_eq!(r.outcome, Outcome::Commit);
            outcomes.push(verify::outcome_record(txn, root, &r));
        }
    }

    assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
    let ss = c.summary(sub).expect("subordinate summary");
    assert!(
        ss.acks.parked >= 1,
        "the sharded subordinate parks its deferred acks in the slot"
    );
    assert!(
        ss.acks.piggybacked >= 1,
        "at least one ack must ride another transaction's frame \
         (parked {}, piggybacked {}, flushed {})",
        ss.acks.parked,
        ss.acks.piggybacked,
        ss.acks.flushed
    );
    assert_eq!(
        ss.acks.piggybacked + ss.acks.flushed,
        ss.acks.parked,
        "slot books balance: no ack lost, none duplicated"
    );

    let summaries = c.shutdown();
    let (violations, unresolved) = verify::check(&summaries, &outcomes);
    assert!(violations.is_empty(), "{violations:?}");
    assert!(unresolved.is_empty(), "{unresolved:?}");
}
