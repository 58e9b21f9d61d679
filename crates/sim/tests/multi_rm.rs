//! Several local resource managers per node: the §4 *Sharing the Log*
//! claim scales per LRM — "the more LRM's that share the log with the
//! TM, the more savings per transaction."

use tpc_common::{Op, OptimizationConfig, Outcome, ProtocolKind};
use tpc_sim::{NodeConfig, Sim, SimConfig, TxnSpec, WorkEdge};

/// Keys whose first bytes route to RM 0, 1 and 2 of a 3-RM node.
/// (Routing is `key[0] % rm_count`.)
const KEYS: [&str; 3] = ["0-alpha", "1-beta", "2-gamma"]; // '0'=48→0, '1'=49→1, '2'=50→2

fn run_three_lrm_node(shared: bool) -> (u64, u64, u64) {
    let mut sim = Sim::new(SimConfig::default().real());
    let opts = OptimizationConfig::none().with_shared_log(shared);
    let root = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort));
    let server = sim.add_node(
        NodeConfig::new(ProtocolKind::PresumedAbort)
            .with_opts(opts)
            .with_rms(3),
    );
    sim.declare_partner(root, server);
    let ops: Vec<Op> = KEYS.iter().map(|k| Op::put(k, "v")).collect();
    sim.push_txn(TxnSpec {
        root,
        root_ops: vec![],
        edges: vec![WorkEdge {
            from: root,
            to: server,
            ops,
        }],
        late_edges: vec![],
        commit: true,
    });
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    let s = report.per_node.iter().find(|n| n.node == server).unwrap();
    (s.rm_writes, s.rm_forced, s.physical_flushes)
}

#[test]
fn keys_route_to_distinct_resource_managers() {
    let mut sim = Sim::new(SimConfig::default().real());
    let root = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort));
    let server = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort).with_rms(3));
    sim.declare_partner(root, server);
    let ops: Vec<Op> = KEYS.iter().map(|k| Op::put(k, "v")).collect();
    sim.push_txn(TxnSpec {
        root,
        root_ops: vec![],
        edges: vec![WorkEdge {
            from: root,
            to: server,
            ops,
        }],
        late_edges: vec![],
        commit: true,
    });
    let report = sim.run();
    report.assert_clean();
    // Each RM holds exactly its own key.
    let rms: Vec<_> = sim.rms(server).collect();
    assert_eq!(rms.len(), 3);
    for (i, rm) in rms.iter().enumerate() {
        assert_eq!(rm.store_len(), 1, "RM {i} holds one key");
        assert_eq!(rm.get(KEYS[i].as_bytes()), Some(b"v".to_vec()));
    }
}

#[test]
fn shared_log_savings_scale_per_lrm() {
    let (sep_writes, sep_forced, sep_flushes) = run_three_lrm_node(false);
    let (shr_writes, shr_forced, shr_flushes) = run_three_lrm_node(true);
    // Same logical records either way.
    assert_eq!(sep_writes, shr_writes);
    // Separate logs: each of the three updating LRMs forces prepared and
    // committed — 2 forces per LRM, exactly the paper's claim.
    assert_eq!(sep_forced, 6, "2 forced writes per LRM");
    assert_eq!(shr_forced, 0, "all ride the TM's forces");
    assert!(
        shr_flushes + 6 <= sep_flushes,
        "physical flushes must drop by ~2 per sharing LRM: {shr_flushes} vs {sep_flushes}"
    );
}

#[test]
fn multi_rm_recovery_rebuilds_every_store() {
    use tpc_common::{SimDuration, SimTime};
    let mut sim = Sim::new(
        SimConfig::default()
            .real()
            .with_horizon(SimDuration::from_secs(20)),
    );
    let root = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort));
    let server = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort).with_rms(3));
    sim.declare_partner(root, server);
    let ops: Vec<Op> = KEYS.iter().map(|k| Op::put(k, "v")).collect();
    sim.push_txn(TxnSpec {
        root,
        root_ops: vec![],
        edges: vec![WorkEdge {
            from: root,
            to: server,
            ops,
        }],
        late_edges: vec![],
        commit: true,
    });
    // Crash the server after everything committed; restart and verify
    // redo across all three RM logs.
    sim.crash_at(server, SimTime(1_000_000));
    sim.restart_at(server, SimTime(2_000_000));
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    for (i, rm) in sim.rms(server).enumerate() {
        assert_eq!(
            rm.get(KEYS[i].as_bytes()),
            Some(b"v".to_vec()),
            "RM {i} must redo its committed key"
        );
    }
}

#[test]
fn partial_read_only_across_lrms_still_votes_yes() {
    // One LRM updates, the others only read: the node's vote must be YES
    // (its *local* disposition aggregates across LRMs), and the readers'
    // locks release at commit like everyone else's.
    let mut sim = Sim::new(SimConfig::default().real());
    let opts = OptimizationConfig::none().with_read_only(true);
    let root = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts.clone()));
    let server = sim.add_node(
        NodeConfig::new(ProtocolKind::PresumedAbort)
            .with_opts(opts)
            .with_rms(2),
    );
    sim.declare_partner(root, server);
    // Seed a key at RM 1, then run a txn that updates RM 0 and reads RM 1.
    sim.push_txn(TxnSpec {
        root,
        root_ops: vec![],
        edges: vec![WorkEdge {
            from: root,
            to: server,
            ops: vec![Op::put("1-seed", "s")],
        }],
        late_edges: vec![],
        commit: true,
    });
    sim.push_txn(TxnSpec {
        root,
        root_ops: vec![],
        edges: vec![WorkEdge {
            from: root,
            to: server,
            ops: vec![Op::put("0-data", "d"), Op::get("1-seed")],
        }],
        late_edges: vec![],
        commit: true,
    });
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 2);
    let txn2 = report.outcomes[1].txn;
    let seat = sim.engine(server).completed_seat(txn2).expect("done");
    assert!(
        matches!(seat.sent_vote, Some(tpc_common::Vote::Yes(_))),
        "a node with any updating LRM votes YES: {:?}",
        seat.sent_vote
    );
}
