//! The observability layer in the simulator: per-phase latency
//! histograms and per-transaction spans captured through the same driver
//! seam the live runtime uses, against the virtual clock.

use tpc_common::config::GroupCommitConfig;
use tpc_common::{NodeId, OptimizationConfig, Outcome, ProtocolKind, SimDuration, SimTime};
use tpc_obs::Phase;
use tpc_sim::{NodeConfig, Sim, SimConfig, TxnSpec};

/// One committed star transaction with tracing on: every protocol phase
/// shows up in the histograms, and the span set forms a coherent
/// root → subordinate tree on the shared virtual clock.
#[test]
fn traced_commit_produces_phase_tree() {
    let mut sim = Sim::new(SimConfig::default().traced());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    let txn = report.single().txn;

    let coord = sim.obs_snapshot(n0).expect("observability enabled");
    let sub = sim.obs_snapshot(n1).expect("observability enabled");

    // The coordinator saw every protocol phase; forced writes ran at the
    // configured flush cost (two forces: decision + RM prepare rides the
    // TM cursor only for the log, so at least one fsync sample).
    for phase in [Phase::Work, Phase::Prepare, Phase::Decision, Phase::Ack] {
        let h = coord.phase(phase).unwrap_or_else(|| {
            panic!("coordinator should have recorded phase {phase}");
        });
        assert_eq!(h.count, 1, "one transaction → one {phase} sample");
    }
    let fsync = coord.phase(Phase::Fsync).expect("forced writes happened");
    assert!(fsync.count >= 1);
    assert_eq!(fsync.max, 200, "virtual flush cost is force_latency");

    // The subordinate's prepare phase spans the Prepare→decision window;
    // it has no Decision phase of its own (it learns, not decides...
    // decision time = when its Committed record hits its log).
    assert!(sub.phase(Phase::Prepare).is_some());

    // Span tree: merged spans for the txn are non-empty, sorted, nested
    // inside the root's Work..Ack envelope, and cover both nodes.
    let merged = tpc_obs::ObsSnapshot::merged([&coord, &sub]);
    let spans = merged.txn_spans(txn);
    assert!(spans.len() >= 5, "expected >=5 spans, got {}", spans.len());
    let nodes: std::collections::HashSet<NodeId> = spans.iter().map(|s| s.node).collect();
    assert!(nodes.contains(&n0) && nodes.contains(&n1));
    let root_start = spans
        .iter()
        .filter(|s| s.node == n0 && s.phase == Phase::Work)
        .map(|s| s.start)
        .min()
        .expect("root work span");
    let root_end = spans
        .iter()
        .filter(|s| s.node == n0)
        .map(|s| s.end)
        .max()
        .expect("root spans");
    for s in &spans {
        assert!(s.start <= s.end, "span {s:?} runs backwards");
        assert!(
            s.start >= root_start && s.end <= root_end,
            "span {s:?} escapes the root envelope [{root_start:?}, {root_end:?}]"
        );
    }
    // The subordinate's prepare began strictly after the root's.
    let sub_prep = spans
        .iter()
        .find(|s| s.node == n1 && s.phase == Phase::Prepare)
        .expect("subordinate prepare span");
    assert!(sub_prep.start > root_start);
}

/// Histograms without tracing: spans stay empty, counts still accrue.
#[test]
fn observed_without_tracing_has_no_spans() {
    let mut sim = Sim::new(SimConfig::default().observed());
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    sim.run().assert_clean();
    let snap = sim.obs_snapshot(n0).unwrap();
    assert!(snap.spans.is_empty());
    assert!(snap.phase(Phase::Prepare).is_some());
}

/// Unobserved runs return no snapshot at all (the zero-cost default).
#[test]
fn unobserved_run_has_no_snapshot() {
    let mut sim = Sim::new(SimConfig::default());
    let n0 = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort));
    sim.push_txn(TxnSpec::star_update(n0, &[], "t"));
    sim.run().assert_clean();
    assert!(sim.obs_snapshot(n0).is_none());
}

/// Group commit under observation: a deadline-expired batch records a
/// `group_flush` window equal to the wait plus the flush itself, and the
/// recorder survives a crash/restart cycle.
#[test]
fn group_commit_deadline_records_flush_window() {
    let gc = GroupCommitConfig {
        batch_size: 64, // never fills by size
        max_wait: SimDuration::from_millis(3),
        adaptive: false,
    };
    let mut sim = Sim::new(SimConfig::default().observed());
    let opts = OptimizationConfig::none().with_group_commit(Some(gc));
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);

    let coord = sim.obs_snapshot(n0).expect("observability enabled");
    let gf = coord
        .phase(Phase::GroupFlush)
        .expect("deadline flush should close the batch window");
    assert!(gf.count >= 1);
    // The lone decision record waited out the full deadline, then paid
    // one flush: window = max_wait + force_latency = 3000 + 200 µs.
    assert_eq!(gf.max, 3200, "deadline-bounded batch window");
}

/// The recorder is carried across crash/restart: post-recovery traffic
/// keeps accruing into the same histograms.
#[test]
fn recorder_survives_restart() {
    let mut sim = Sim::new(SimConfig::default().observed());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "a"));
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "b"));
    // Crash and revive the subordinate between the two transactions.
    sim.crash_at(n1, SimTime::ZERO + SimDuration::from_millis(30));
    sim.restart_at(n1, SimTime::ZERO + SimDuration::from_millis(35));
    let report = sim.run();
    assert!(report.outcomes.len() >= 2);
    let sub = sim.obs_snapshot(n1).expect("recorder survives restart");
    let prep = sub.phase(Phase::Prepare).expect("prepares before + after");
    assert!(
        prep.count >= 2,
        "expected samples across the restart, got {}",
        prep.count
    );
}

/// The timeline rides the virtual clock: two identical runs must render
/// byte-identical timeline JSON on every node, and — since a sim run
/// fits inside the ring — summing the per-window histogram deltas must
/// reproduce the cumulative phase histograms exactly.
#[test]
fn virtual_clock_timelines_are_deterministic() {
    let run = || {
        let mut sim = Sim::new(SimConfig::default().observed());
        let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg.clone());
        let n2 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.declare_partner(n0, n2);
        for i in 0..10 {
            sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], &format!("k{i}")));
        }
        sim.run().assert_clean();
        sim
    };

    let a = run();
    let b = run();
    for node in [NodeId(0), NodeId(1), NodeId(2)] {
        let ta = a.timeline_snapshot(node).expect("timeline attached");
        let tb = b.timeline_snapshot(node).expect("timeline attached");
        let ja = tpc_obs::render_timeline_json(&ta);
        let jb = tpc_obs::render_timeline_json(&tb);
        assert_eq!(ja, jb, "node {node}: timelines diverged across reruns");
        assert!(!ta.windows.is_empty(), "node {node} recorded activity");
        assert_eq!(ta.late_drops, 0, "nothing left the ring mid-run");

        // Window deltas resum to the cumulative view.
        let cumulative = a.obs_snapshot(node).expect("observed run");
        for phase in [Phase::Work, Phase::Prepare, Phase::Fsync] {
            let windowed = ta.hist_total(phase);
            match cumulative.phase(phase) {
                Some(h) => assert_eq!(
                    &windowed, h,
                    "node {node} phase {phase}: windowed sum != cumulative"
                ),
                None => assert_eq!(windowed.count, 0, "node {node} phase {phase}"),
            }
        }
    }
}
