//! Harness API behaviour: determinism, concurrent scheduling, reports.

use tpc_common::{Outcome, ProtocolKind, SimDuration, SimTime};
use tpc_sim::{NodeConfig, RunReport, Sim, SimConfig, TxnSpec};

fn run_fixture(seed: u64) -> RunReport {
    let mut sim = Sim::new(SimConfig {
        seed,
        latency: tpc_simnet::LatencyModel::Uniform(
            SimDuration::from_micros(200),
            SimDuration::from_micros(1_500),
        ),
        ..SimConfig::default()
    });
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let n2 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n0, n2);
    for i in 0..4 {
        sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], &format!("t{i}")));
    }
    let report = sim.run();
    report.assert_clean();
    report
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let a = run_fixture(1234);
    let b = run_fixture(1234);
    assert_eq!(a.protocol_flows(), b.protocol_flows());
    assert_eq!(a.tm_writes(), b.tm_writes());
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(a.trace.len(), b.trace.len());
    for (x, y) in a.trace.iter().zip(b.trace.iter()) {
        assert_eq!(x.at, y.at);
        assert_eq!(x.compact(), y.compact());
    }
    let times_a: Vec<_> = a.outcomes.iter().map(|o| o.notified_at).collect();
    let times_b: Vec<_> = b.outcomes.iter().map(|o| o.notified_at).collect();
    assert_eq!(times_a, times_b);
}

#[test]
fn different_seeds_vary_timing_but_not_counts() {
    let a = run_fixture(1);
    let b = run_fixture(2);
    // Counts are protocol-determined; timing is latency-determined.
    assert_eq!(a.protocol_flows(), b.protocol_flows());
    assert_eq!(a.tm_forced(), b.tm_forced());
    assert_ne!(
        a.mean_elapsed(),
        b.mean_elapsed(),
        "uniform latencies should differ across seeds"
    );
}

#[test]
fn concurrent_pushes_interleave_and_all_complete() {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let a = sim.add_node(cfg.clone());
    let b = sim.add_node(cfg.clone());
    let c = sim.add_node(cfg);
    sim.declare_partner(a, c);
    sim.declare_partner(b, c);
    // Two roots, overlapping windows, disjoint keys.
    sim.push_txn_at(TxnSpec::star_update(a, &[c], "from-a"), SimTime(0));
    sim.push_txn_at(TxnSpec::star_update(b, &[c], "from-b"), SimTime(3_000));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.outcomes.iter().all(|o| o.outcome == Outcome::Commit));
    // Both roots decided one transaction each.
    let m = report.cluster_metrics();
    assert_eq!(m.decided, 2);
    assert_eq!(m.committed, 2);
}

#[test]
fn report_totals_are_sums_of_per_node_parts() {
    let report = run_fixture(7);
    let flows: u64 = report
        .per_node
        .iter()
        .map(|n| n.engine.frames_sent - n.engine.work_frames)
        .sum();
    assert_eq!(flows, report.protocol_flows());
    let writes: u64 = report.per_node.iter().map(|n| n.tm_writes).sum();
    assert_eq!(writes, report.tm_writes());
    assert_eq!(report.total_writes(), writes); // abstract mode: no RM writes
    assert!(report.total_frames() >= report.protocol_flows());
}

#[test]
fn empty_script_quiesces_immediately() {
    let mut sim = Sim::new(SimConfig::default());
    sim.add_node(NodeConfig::new(ProtocolKind::Basic));
    let report = sim.run();
    report.assert_clean();
    assert!(report.outcomes.is_empty());
    assert_eq!(report.total_frames(), 0);
    assert_eq!(report.finished_at, SimTime::ZERO);
}

#[test]
fn local_only_transaction_needs_no_network() {
    let mut sim = Sim::new(SimConfig::default().real());
    let solo = sim.add_node(NodeConfig::new(ProtocolKind::PresumedAbort));
    sim.push_txn(TxnSpec::local_update(solo, "k", "v"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    assert_eq!(report.total_frames(), 0, "no partners, no frames");
    assert_eq!(sim.rm(solo).unwrap().get(b"k"), Some(b"v".to_vec()));
    // One-participant commit still logs its decision durably.
    assert!(report.per_node[0].tm_forced >= 1);
}
