//! Cross-crate integration: the same transaction run through the
//! deterministic simulator and the live threaded runtime must produce the
//! same outcomes and the same per-participant log costs — the engine is
//! the single source of protocol truth.

use twopc::prelude::*;

/// One updating transaction, coordinator + two subordinates.
fn sim_costs(protocol: ProtocolKind) -> (Outcome, Vec<(u64, u64)>) {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(protocol);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let n2 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n0, n2);
    sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], "x"));
    let report = sim.run();
    report.assert_clean();
    (
        report.single().outcome,
        report
            .per_node
            .iter()
            .map(|n| (n.tm_writes, n.tm_forced))
            .collect(),
    )
}

fn live_costs(protocol: ProtocolKind) -> (Outcome, Vec<(u64, u64)>) {
    let cluster = LiveCluster::start(vec![LiveNodeConfig::new(protocol); 3]);
    let txn = cluster.begin(NodeId(0));
    txn.work(NodeId(0), vec![Op::put("x/n0", "x")]);
    txn.work(NodeId(1), vec![Op::put("x/n1", "x")]);
    txn.work(NodeId(2), vec![Op::put("x/n2", "x")]);
    let result = txn.commit().expect("root alive");
    // PA returns control at the commit point; give the background ack
    // collection a moment so END records land before we read the logs.
    assert!(cluster.quiesce(std::time::Duration::from_secs(2)));
    let summaries = cluster.shutdown();
    (
        result.outcome,
        summaries
            .iter()
            .map(|s| (s.log.writes, s.log.forced_writes))
            .collect(),
    )
}

#[test]
fn simulator_and_live_runtime_agree_on_protocol_costs() {
    for protocol in ProtocolKind::ALL {
        let (sim_outcome, sim_logs) = sim_costs(protocol);
        let (live_outcome, live_logs) = live_costs(protocol);
        assert_eq!(sim_outcome, live_outcome, "{protocol}");
        assert_eq!(
            sim_logs, live_logs,
            "{protocol}: TM log costs must match between harnesses"
        );
    }
}

/// `txns` sequential star updates through the simulator, returning
/// per-node (tm_writes, tm_forced, protocol flows).
fn sim_costs_n(protocol: ProtocolKind, txns: usize) -> Vec<(u64, u64, u64)> {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(protocol);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let n2 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n0, n2);
    for i in 0..txns {
        sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], &format!("eq{i}")));
    }
    let report = sim.run();
    report.assert_clean();
    assert!(report.outcomes.iter().all(|o| o.outcome == Outcome::Commit));
    report
        .per_node
        .iter()
        .map(|n| {
            (
                n.tm_writes,
                n.tm_forced,
                n.engine.frames_sent - n.engine.work_frames,
            )
        })
        .collect()
}

/// The same workload against a live cluster whose nodes each run `lanes`
/// coordinator lanes over one shared WAL and RM.
fn live_costs_lanes(protocol: ProtocolKind, txns: usize, lanes: usize) -> Vec<(u64, u64, u64)> {
    let cluster = LiveCluster::start(vec![LiveNodeConfig::new(protocol).with_lanes(lanes); 3]);
    for i in 0..txns {
        let txn = cluster.begin(NodeId(0));
        txn.work(NodeId(0), vec![Op::put(&format!("eq{i}/n0"), "x")]);
        txn.work(NodeId(1), vec![Op::put(&format!("eq{i}/n1"), "x")]);
        txn.work(NodeId(2), vec![Op::put(&format!("eq{i}/n2"), "x")]);
        let result = txn.commit().expect("root alive");
        assert_eq!(result.outcome, Outcome::Commit, "{protocol} txn {i}");
    }
    assert!(cluster.quiesce(std::time::Duration::from_secs(5)));
    let summaries = cluster.shutdown();
    summaries
        .iter()
        .map(|s| {
            (
                s.log.writes,
                s.log.forced_writes,
                s.metrics.frames_sent - s.metrics.work_frames,
            )
        })
        .collect()
}

#[test]
fn multi_lane_cluster_matches_sim_protocol_costs() {
    // Sharding the txn space across four lanes is a concurrency
    // structure, not a protocol change: per-node log-write, forced-write
    // and message-flow totals must be exactly the single-engine sim's.
    // Eight sequential txns cover every lane (seq % 4) twice.
    for protocol in [
        ProtocolKind::Basic,
        ProtocolKind::PresumedAbort,
        ProtocolKind::PresumedNothing,
    ] {
        let sim = sim_costs_n(protocol, 8);
        let live = live_costs_lanes(protocol, 8, 4);
        assert_eq!(
            sim, live,
            "{protocol}: 4-lane live costs must match the sim (tm_writes, tm_forced, flows)"
        );
    }
}

/// `txns` sequential star updates through the simulator with an
/// optimization set switched on, returning per-node
/// `(tm_writes, tm_forced, protocol flows)`.
fn sim_costs_opt(
    protocol: ProtocolKind,
    opts: OptimizationConfig,
    reliable: bool,
    unsolicited: bool,
    txns: usize,
) -> Vec<(u64, u64, u64)> {
    let mut sim = Sim::new(SimConfig::default());
    let mut cfg = NodeConfig::new(protocol).with_opts(opts.clone());
    if reliable {
        cfg = cfg.reliable();
    }
    let sub_cfg = if unsolicited {
        cfg.clone().unsolicited()
    } else {
        cfg.clone()
    };
    let n0 = sim.add_node(cfg);
    let n1 = sim.add_node(sub_cfg.clone());
    let n2 = sim.add_node(sub_cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n0, n2);
    for i in 0..txns {
        sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], &format!("opt{i}")));
    }
    let report = sim.run();
    report.assert_clean();
    assert!(report.outcomes.iter().all(|o| o.outcome == Outcome::Commit));
    report
        .per_node
        .iter()
        .map(|n| {
            (
                n.tm_writes,
                n.tm_forced,
                n.engine.frames_sent - n.engine.work_frames,
            )
        })
        .collect()
}

/// The same star workload against a single-lane live cluster whose node
/// configs are produced by `make` (single-lane so every deferred ack
/// stays engine-accounted, exactly like the sim's). `settle` inserts a
/// pause between issuing the work and requesting commit — the
/// unsolicited-vote cells need the subordinates' self-prepared votes to
/// reach the root before Phase 1 begins, which the sim's virtual clock
/// guarantees and the live harness must wait for.
fn live_costs_opt(
    make: impl Fn() -> LiveNodeConfig,
    txns: usize,
    settle: Option<std::time::Duration>,
) -> Vec<(u64, u64, u64)> {
    let cluster = LiveCluster::start(vec![make(), make(), make()]);
    for i in 0..txns {
        let txn = cluster.begin(NodeId(0));
        txn.work(NodeId(0), vec![Op::put(&format!("opt{i}/n0"), "x")]);
        txn.work(NodeId(1), vec![Op::put(&format!("opt{i}/n1"), "x")]);
        txn.work(NodeId(2), vec![Op::put(&format!("opt{i}/n2"), "x")]);
        if let Some(pause) = settle {
            std::thread::sleep(pause);
        }
        let result = txn.commit().expect("root alive");
        assert_eq!(result.outcome, Outcome::Commit, "txn {i}");
    }
    assert!(cluster.quiesce(std::time::Duration::from_secs(10)));
    let summaries = cluster.shutdown();
    summaries
        .iter()
        .map(|s| {
            (
                s.log.writes,
                s.log.forced_writes,
                s.metrics.frames_sent - s.metrics.work_frames,
            )
        })
        .collect()
}

/// Every optimization the live path gained must cost exactly what the
/// simulator says it costs: same per-node log writes, forced writes and
/// protocol flows, transaction for transaction. The ack linger on the
/// deferring cells is set past the workload length so implied/deferred
/// acks ride later transactions' frames — the same piggyback the sim's
/// scheduler produces — instead of being flushed eagerly at idle.
#[test]
fn optimizations_cost_the_same_live_as_simulated() {
    let linger = std::time::Duration::from_secs(1);
    let settle = std::time::Duration::from_millis(150);
    for protocol in [ProtocolKind::PresumedAbort, ProtocolKind::PresumedNothing] {
        // Last-agent delegation: the initiator's implied ack to the
        // delegate is deferred and piggybacked (§4 Last Agent, Figure 6).
        let opts = OptimizationConfig::none().with_last_agent(true);
        assert_eq!(
            sim_costs_opt(protocol, opts.clone(), false, false, 4),
            live_costs_opt(
                || LiveNodeConfig::new(protocol)
                    .with_opts(opts.clone())
                    .with_ack_linger(linger),
                4,
                None
            ),
            "{protocol}/last_agent"
        );

        // Unsolicited votes: subordinates self-prepare; the Prepare
        // flows vanish in both harnesses.
        let opts = OptimizationConfig::none().with_unsolicited_vote(true);
        assert_eq!(
            sim_costs_opt(protocol, opts.clone(), false, true, 4),
            live_costs_opt(
                || LiveNodeConfig::new(protocol)
                    .with_opts(opts.clone())
                    .unsolicited(),
                4,
                Some(settle)
            ),
            "{protocol}/unsolicited"
        );

        // Early commit acknowledgment: moves when the root's app hears
        // the outcome, never what anything costs.
        let opts = OptimizationConfig::none().with_ack_mode(AckMode::Early);
        assert_eq!(
            sim_costs_opt(protocol, opts.clone(), false, false, 4),
            live_costs_opt(
                || LiveNodeConfig::new(protocol).with_opts(opts.clone()),
                4,
                None
            ),
            "{protocol}/early_ack"
        );

        // Vote-reliable: the early ack gated on the reliable qualifier
        // every vote below must carry.
        let opts = OptimizationConfig::none().with_vote_reliable(true);
        assert_eq!(
            sim_costs_opt(protocol, opts.clone(), true, false, 4),
            live_costs_opt(
                || LiveNodeConfig::new(protocol)
                    .with_opts(opts.clone())
                    .reliable(),
                4,
                None
            ),
            "{protocol}/vote_reliable"
        );

        // Wait-for-outcome: the conservative notification rule; costs
        // identical, completion later.
        let opts = OptimizationConfig::none().with_wait_for_outcome(true);
        assert_eq!(
            sim_costs_opt(protocol, opts.clone(), false, false, 4),
            live_costs_opt(
                || LiveNodeConfig::new(protocol).with_opts(opts.clone()),
                4,
                None
            ),
            "{protocol}/wait_for_outcome"
        );

        // Long locks: commit acks deferred to piggyback on later
        // traffic (§4 / Figure 7); the final transaction's stragglers
        // flush at end-of-run (sim) / shutdown (live).
        let opts = OptimizationConfig::none().with_long_locks(true);
        assert_eq!(
            sim_costs_opt(protocol, opts.clone(), false, false, 4),
            live_costs_opt(
                || LiveNodeConfig::new(protocol)
                    .with_opts(opts.clone())
                    .with_ack_linger(linger),
                4,
                None
            ),
            "{protocol}/long_locks"
        );
    }
}

/// Alternating commits and rollbacks of a star update through the
/// simulator: per-node `(tm_writes, tm_forced)` and, per transaction,
/// whether each node's key is present afterwards.
fn sim_rollback_costs(protocol: ProtocolKind, txns: usize) -> (Vec<(u64, u64)>, Vec<Vec<bool>>) {
    let mut sim = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(protocol);
    let nodes = [
        sim.add_node(cfg.clone()),
        sim.add_node(cfg.clone()),
        sim.add_node(cfg),
    ];
    sim.declare_partner(nodes[0], nodes[1]);
    sim.declare_partner(nodes[0], nodes[2]);
    for i in 0..txns {
        let spec = TxnSpec::star_update(nodes[0], &nodes[1..], &format!("rb{i}"));
        sim.push_txn(if i % 2 == 1 { spec.aborting() } else { spec });
    }
    let report = sim.run();
    report.assert_clean();
    let present = (0..txns)
        .map(|i| {
            nodes
                .iter()
                .map(|&n| {
                    let key = format!("rb{i}/n{}", n.0);
                    sim.rm(n).unwrap().get(key.as_bytes()).is_some()
                })
                .collect()
        })
        .collect();
    let costs = report
        .per_node
        .iter()
        .map(|n| (n.tm_writes, n.tm_forced))
        .collect();
    (costs, present)
}

/// The same alternating workload against a live cluster, rolling back
/// with `TxnHandle::abort`.
fn live_rollback_costs(protocol: ProtocolKind, txns: usize) -> (Vec<(u64, u64)>, Vec<Vec<bool>>) {
    let cluster = LiveCluster::start(vec![LiveNodeConfig::new(protocol); 3]);
    let nodes = [NodeId(0), NodeId(1), NodeId(2)];
    for i in 0..txns {
        let txn = cluster.begin(nodes[0]);
        for &n in &nodes {
            txn.work(n, vec![Op::put(&format!("rb{i}/n{}", n.0), "x")]);
        }
        let (result, want) = if i % 2 == 1 {
            (txn.abort(), Outcome::Abort)
        } else {
            (txn.commit(), Outcome::Commit)
        };
        assert_eq!(
            result.expect("root alive").outcome,
            want,
            "{protocol} txn {i}"
        );
    }
    assert!(cluster.quiesce(std::time::Duration::from_secs(5)));
    let present = (0..txns)
        .map(|i| {
            nodes
                .iter()
                .map(|&n| cluster.read(n, &format!("rb{i}/n{}", n.0)).is_some())
                .collect()
        })
        .collect();
    let summaries = cluster.shutdown();
    let costs = summaries
        .iter()
        .map(|s| (s.log.writes, s.log.forced_writes))
        .collect();
    (costs, present)
}

/// A rollback costs the same TM log writes and forces live as simulated,
/// and leaves nothing behind: the rolled-back keys read back absent at
/// every node while the committed ones between them are present.
#[test]
fn rollbacks_cost_the_same_live_as_simulated() {
    let txns = 4;
    let expected: Vec<Vec<bool>> = (0..txns).map(|i| vec![i % 2 == 0; 3]).collect();
    for protocol in [
        ProtocolKind::Basic,
        ProtocolKind::PresumedAbort,
        ProtocolKind::PresumedNothing,
    ] {
        let (sim_costs, sim_present) = sim_rollback_costs(protocol, txns);
        let (live_costs, live_present) = live_rollback_costs(protocol, txns);
        assert_eq!(
            sim_costs, live_costs,
            "{protocol}: per-node (tm_writes, tm_forced) with rollbacks"
        );
        assert_eq!(sim_present, expected, "{protocol}: sim store");
        assert_eq!(live_present, expected, "{protocol}: live store");
    }
}

#[test]
fn facade_reexports_compose() {
    // Exercise the prelude end to end: engine types, sim, runtime.
    let cfg = EngineConfig::new(NodeId(9), ProtocolKind::PresumedAbort);
    let engine = TmEngine::new(cfg).expect("valid");
    assert_eq!(engine.node(), NodeId(9));

    let mut sim = Sim::new(SimConfig::default().real());
    let a = sim.add_node(NodeConfig::new(ProtocolKind::PresumedNothing));
    let b = sim.add_node(NodeConfig::new(ProtocolKind::PresumedNothing));
    sim.declare_partner(a, b);
    sim.push_txn(TxnSpec::local_update(a, "k", "1").with_edge(WorkEdge::update(a, b, "r", "2")));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    assert_eq!(sim.rm(b).unwrap().get(b"r"), Some(b"2".to_vec()));
}

#[test]
fn mixed_protocol_cluster_interoperates() {
    // The wire protocol is shared; nodes running different presumption
    // regimes can still commit together (each follows its own logging and
    // ack discipline). PA subordinates under a PN coordinator is the
    // realistic commercial mix the paper's vendor list implies.
    let mut sim = Sim::new(SimConfig::default());
    let coord = sim.add_node(NodeConfig::new(ProtocolKind::PresumedNothing));
    let sub_pa = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort));
    let sub_basic = sim.add_node(NodeConfig::new(ProtocolKind::Basic));
    sim.declare_partner(coord, sub_pa);
    sim.declare_partner(coord, sub_basic);
    sim.push_txn(TxnSpec::star_update(coord, &[sub_pa, sub_basic], "mix"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    // PN coordinator: CommitPending* + Committed* + End.
    assert_eq!(report.per_node[0].tm_forced, 2);
    // Both subordinates: Prepared* + Committed* + End.
    assert_eq!(report.per_node[1].tm_forced, 2);
    assert_eq!(report.per_node[2].tm_forced, 2);
}

#[test]
fn all_optimizations_stack_together() {
    // The paper's teaser: "better performance can be achieved by
    // combining the different optimizations". Run the kitchen sink.
    let opts = OptimizationConfig::all();
    let mut sim = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing)
        .with_opts(opts.clone())
        .reliable()
        .suspendable();
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let n2 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n0, n2);
    for i in 0..5 {
        sim.push_txn(TxnSpec::star_mixed(n0, &[n1], &[n2], &format!("combo{i}")));
    }
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 5);
    assert!(report.outcomes.iter().all(|o| o.outcome == Outcome::Commit));
    // The stack beats the bare protocol.
    let mut bare = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing);
    let m0 = bare.add_node(cfg.clone());
    let m1 = bare.add_node(cfg.clone());
    let m2 = bare.add_node(cfg);
    bare.declare_partner(m0, m1);
    bare.declare_partner(m0, m2);
    for i in 0..5 {
        bare.push_txn(TxnSpec::star_mixed(m0, &[m1], &[m2], &format!("combo{i}")));
    }
    let bare_report = bare.run();
    bare_report.assert_clean();
    assert!(report.protocol_flows() < bare_report.protocol_flows());
    assert!(report.total_forced() < bare_report.total_forced());
}
