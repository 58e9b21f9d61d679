//! Multi-lane cluster behavior: lane routing, shared-RM correctness
//! under cross-lane conflicts, node-level summary rollup, and waves of
//! concurrent commits against a real cluster.

use std::time::Duration;

use tpc_common::{NodeId, Op, Outcome, ProtocolKind, TempDir};
use tpc_runtime::{lane_of, LiveCluster, LiveNodeConfig};

fn lanes_cluster(n: usize, lanes: usize, protocol: ProtocolKind) -> LiveCluster {
    LiveCluster::start(vec![LiveNodeConfig::new(protocol).with_lanes(lanes); n])
}

#[test]
fn lane_routing_is_a_pure_function_of_seq() {
    let t = |seq| tpc_common::TxnId::new(NodeId(3), seq);
    assert_eq!(lane_of(t(1), 1), 0);
    assert_eq!(lane_of(t(5), 4), 1);
    assert_eq!(lane_of(t(8), 4), 0);
    // Consecutive seqs cover all lanes round-robin.
    let hit: std::collections::HashSet<usize> = (1..=4).map(|s| lane_of(t(s), 4)).collect();
    assert_eq!(hit.len(), 4);
}

#[test]
fn commits_land_on_every_lane() {
    let c = lanes_cluster(3, 4, ProtocolKind::PresumedAbort);
    // Seqs start at 1; eight sequential txns exercise each lane twice.
    for i in 0..8 {
        let t = c.begin(NodeId(i % 2));
        let key = format!("k{i}");
        t.work(NodeId(2), vec![Op::put(&key, &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }
    // PA answers the root at the commit point, so the decision may still
    // be on its way to node 2's lane when the read arrives.
    for i in 0..8 {
        assert_eq!(
            c.read_eventually(NodeId(2), &format!("k{i}"), Duration::from_secs(10)),
            Some(i.to_string().into_bytes())
        );
    }
    // Each root's summary is the rollup over all four of its lanes;
    // eight txns split across two roots (committed is a root-side
    // counter, so the server reports zero).
    let rollup: u64 = (0..2)
        .map(|n| c.summary(NodeId(n)).expect("root alive").metrics.committed)
        .sum();
    assert_eq!(rollup, 8, "rollup sees all lanes' commits");
    for s in c.shutdown() {
        assert_eq!(s.active_txns, 0, "{:?}", s.node);
    }
}

#[test]
fn cross_lane_conflicts_serialize_on_the_shared_rm() {
    let c = std::sync::Arc::new(lanes_cluster(3, 4, ProtocolKind::PresumedAbort));
    let mut joins = Vec::new();
    for root in 0..2u32 {
        let c2 = std::sync::Arc::clone(&c);
        joins.push(std::thread::spawn(move || {
            let mut committed = 0;
            for i in 0..10 {
                let t = c2.begin(NodeId(root));
                t.work(NodeId(2), vec![Op::put("hot", &format!("{root}-{i}"))]);
                // Under contention a txn may abort (deadlock victim);
                // atomicity, not success, is the invariant.
                if t.commit().expect("root alive").outcome == Outcome::Commit {
                    committed += 1;
                }
            }
            committed
        }));
    }
    let total: u32 = joins.into_iter().map(|j| j.join().expect("writer")).sum();
    assert!(total > 0, "some conflicting writers must get through");
    assert!(c
        .read_eventually(NodeId(2), "hot", Duration::from_secs(10))
        .is_some());
    assert!(c.quiesce(Duration::from_secs(10)));
    std::sync::Arc::try_unwrap(c).ok().map(|c| c.shutdown());
}

#[test]
fn kill_and_restart_replays_the_shared_wal_across_lanes() {
    // A multi-lane node crashes as one process (all lanes share the
    // volatile state) and restarts from its one shared WAL: the replay
    // repartitions recovered transactions back to their owning lanes,
    // so committed writes survive and every lane keeps working.
    let dir = TempDir::new("ml-restart");
    let cfg = || {
        LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_file_log(dir.path())
            .with_lanes(4)
    };
    let mut c = LiveCluster::start(vec![cfg(), cfg()]);
    // Eight sequential txns exercise each of the server's four lanes twice.
    for i in 0..8 {
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put(&format!("k{i}"), &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }

    c.kill(NodeId(1)).expect("multi-lane kill");
    assert!(!c.is_alive(NodeId(1)));
    c.restart(NodeId(1))
        .expect("multi-lane restart from the shared WAL");

    // Every committed write must have survived the crash.
    for i in 0..8 {
        assert_eq!(
            c.read_eventually(NodeId(1), &format!("k{i}"), Duration::from_secs(10)),
            Some(i.to_string().into_bytes()),
            "k{i} must survive the multi-lane restart"
        );
    }
    // The node is fully operational again on every lane.
    for i in 8..16 {
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put(&format!("k{i}"), &i.to_string())]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
    }
    let s = c.summary(NodeId(1)).expect("server alive");
    let rec = s.recovery.expect("node rollup carries recovery stats");
    assert!(
        rec.wal_records_scanned >= 8,
        "replay must have seen the pre-crash records: {rec:?}"
    );
    for s in c.shutdown() {
        assert_eq!(s.active_txns, 0, "{:?}", s.node);
    }
}

#[test]
fn concurrent_waves_on_two_lanes_complete_cleanly() {
    // 300 transactions in waves of 64 `commit_async` calls, rooted at
    // nodes 0 and 1 in turn and writing at node 2. Every other
    // transaction picks one of four hot keys, so the server's lanes
    // contend on the shared RM while the rest write keys of their own.
    const TXNS: usize = 300;
    const IN_FLIGHT: usize = 64;
    let c = lanes_cluster(3, 2, ProtocolKind::PresumedAbort);
    let server = NodeId(2);
    let (mut committed, mut aborted) = (0, 0);
    for start in (0..TXNS).step_by(IN_FLIGHT) {
        let waits: Vec<_> = (start..TXNS.min(start + IN_FLIGHT))
            .map(|i| {
                let t = c.begin(NodeId((i % 2) as u32));
                let key = match i % 2 {
                    0 => format!("hot-{}", i / 2 % 4),
                    _ => format!("cold-{i}"),
                };
                t.work(server, vec![Op::put(&key, &i.to_string())]);
                t.commit_async()
            })
            .collect();
        for wait in waits {
            let r = wait.wait(Duration::from_secs(10)).expect("typed outcome");
            if r.outcome == Outcome::Commit {
                committed += 1;
            } else {
                aborted += 1;
            }
        }
    }
    assert_eq!(committed + aborted, TXNS);
    assert!(committed > 0, "{aborted} of {TXNS} aborted");
    // The root answers a PA commit before the subordinates' acks land,
    // so the roots still hold transactions until the cluster quiesces.
    assert!(c.quiesce(Duration::from_secs(10)), "must quiesce");
    for s in c.shutdown() {
        assert_eq!(s.active_txns, 0, "{:?}", s.node);
    }
}
