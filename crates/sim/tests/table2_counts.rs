//! Table 2 of the paper: logging and network traffic for a 2-participant
//! transaction (one coordinator, one subordinate), per protocol variant.
//!
//! Counts are asserted in abstract mode, where the harness reproduces the
//! paper's per-participant accounting exactly (TM-stream records only).

use tpc_common::{OptimizationConfig, Outcome, ProtocolKind};
use tpc_sim::{NodeConfig, Sim, SimConfig, TxnSpec};

/// One coordinator (N0) and one subordinate (N1); N1 receives updating
/// work, the root also updates locally.
fn pair(protocol: ProtocolKind, opts: OptimizationConfig) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(protocol).with_opts(opts);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    sim
}

struct Costs {
    flows: u64,
    coord_writes: u64,
    coord_forced: u64,
    sub_writes: u64,
    sub_forced: u64,
}

fn run_pair(protocol: ProtocolKind, opts: OptimizationConfig) -> Costs {
    let mut sim = pair(protocol, opts);
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    let coord = &report.per_node[0];
    let sub = &report.per_node[1];
    Costs {
        flows: report.protocol_flows(),
        coord_writes: coord.tm_writes,
        coord_forced: coord.tm_forced,
        sub_writes: sub.tm_writes,
        sub_forced: sub.tm_forced,
    }
}

#[test]
fn basic_2pc_commit_costs() {
    // Table 2 row "Basic 2PC": coordinator 2 flows (Prepare, Commit) and
    // 2 writes / 1 forced (Committed*, End); subordinate 2 flows (Vote,
    // Ack) and 3 writes / 2 forced (Prepared*, Committed*, End).
    let c = run_pair(ProtocolKind::Basic, OptimizationConfig::none());
    assert_eq!(c.flows, 4);
    assert_eq!((c.coord_writes, c.coord_forced), (2, 1));
    assert_eq!((c.sub_writes, c.sub_forced), (3, 2));
}

#[test]
fn presumed_nothing_commit_costs() {
    // Table 2 row "PN": the coordinator adds the forced commit-pending
    // record before Phase 1 → 3 writes / 2 forced.
    let c = run_pair(ProtocolKind::PresumedNothing, OptimizationConfig::none());
    assert_eq!(c.flows, 4);
    assert_eq!((c.coord_writes, c.coord_forced), (3, 2));
    // A leaf subordinate logs Prepared*, Committed*, End.
    assert_eq!((c.sub_writes, c.sub_forced), (3, 2));
}

#[test]
fn presumed_abort_commit_costs() {
    // Table 2 row "PA, Commit case": identical to basic on the commit
    // path.
    let c = run_pair(ProtocolKind::PresumedAbort, OptimizationConfig::none());
    assert_eq!(c.flows, 4);
    assert_eq!((c.coord_writes, c.coord_forced), (2, 1));
    assert_eq!((c.sub_writes, c.sub_forced), (3, 2));
}

#[test]
fn presumed_abort_abort_costs() {
    // Table 2 row "PA, Abort case": coordinator 2 flows (Prepare, Abort),
    // 0 log writes; subordinate 1 flow (VoteNo), 0 log writes.
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.vote_no_on(1));
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Abort);
    assert_eq!(report.protocol_flows(), 3); // Prepare, VoteNo, Abort
    assert_eq!(report.per_node[0].tm_writes, 0);
    assert_eq!(report.per_node[1].tm_writes, 0);
}

#[test]
fn basic_abort_is_fully_confirmed() {
    // Under the baseline the abort is durable and acknowledged
    // everywhere: forced abort records and an ack flow.
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::Basic);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.vote_no_on(1));
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Abort);
    // Coordinator: Aborted* + End; subordinate: Aborted* + End.
    assert_eq!(report.per_node[0].tm_forced, 1);
    assert_eq!(report.per_node[1].tm_forced, 1);
    assert!(report.per_node[0].tm_writes >= 2);
    assert!(report.per_node[1].tm_writes >= 2);
}

#[test]
fn pa_read_only_transaction_costs_nothing() {
    // Table 2 row "PA, Read-Only case": 1 flow each way (Prepare,
    // VoteReadOnly), no log writes at either participant.
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_opts(OptimizationConfig::none().with_read_only(true));
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    // Read-only work on both sides.
    let spec = TxnSpec::star_mixed(n0, &[], &[n1], "t");
    sim.push_txn(TxnSpec {
        root_ops: vec![],
        ..spec
    });
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    assert_eq!(report.protocol_flows(), 2); // Prepare + VoteReadOnly
    assert_eq!(report.per_node[0].tm_writes, 0);
    assert_eq!(report.per_node[1].tm_writes, 0);
}

#[test]
fn pa_last_agent_commit_costs() {
    // Table 2 row "PA & Last-Agent": coordinator pays an extra forced
    // prepared record but the exchange with the last agent collapses to
    // one round trip plus an implied ack.
    let opts = OptimizationConfig::none().with_last_agent(true);
    let c = run_pair(ProtocolKind::PresumedAbort, opts);
    // VoteYes(delegation) →, Commit ←, implied Ack rides the flush.
    // With the end-of-script flush the ack becomes one explicit frame.
    assert!(c.flows <= 3, "flows = {}", c.flows);
    // Initiator: Prepared*, Committed*, End.
    assert_eq!((c.coord_writes, c.coord_forced), (3, 2));
    // Last agent (the decider): Committed*, End.
    assert_eq!((c.sub_writes, c.sub_forced), (2, 1));
}

#[test]
fn unsolicited_vote_saves_the_prepare_flow() {
    let opts = OptimizationConfig::none();
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.unsolicited());
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    // Vote (unsolicited), Commit, Ack — the Prepare flow vanished.
    assert_eq!(report.protocol_flows(), 3);
}

#[test]
fn leave_out_skips_the_partner_entirely() {
    // Second transaction doesn't touch N1, which voted ok-to-leave-out in
    // the first: zero flows and zero log writes involve N1 afterwards.
    let opts = OptimizationConfig::none().with_leave_out(true);
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing).with_opts(opts.clone());
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.suspendable());
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t1"));
    sim.push_txn(TxnSpec::local_update(n0, "local", "x")); // untouched N1
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 2);

    // N1's engine saw exactly one transaction.
    let sub_metrics = report.per_node[1].engine;
    assert_eq!(sub_metrics.frames_sent - sub_metrics.work_frames, 2); // vote+ack of txn 1

    // Without leave-out, the standing partner would be enrolled in txn 2
    // as well: rerun to compare.
    let mut sim2 = Sim::new(SimConfig::default());
    let cfg2 = NodeConfig::new(ProtocolKind::PresumedNothing);
    let m0 = sim2.add_node(cfg2.clone());
    let m1 = sim2.add_node(cfg2.suspendable());
    sim2.declare_partner(m0, m1);
    sim2.push_txn(TxnSpec::star_update(m0, &[m1], "t1"));
    sim2.push_txn(TxnSpec::local_update(m0, "local", "x"));
    let baseline = sim2.run();
    baseline.assert_clean();
    // The paper: leaving one partner out saves 4 flows.
    assert_eq!(
        baseline.protocol_flows() - report.protocol_flows(),
        4,
        "leave-out should save 4 flows for one partner"
    );
}

#[test]
fn cascaded_tree_commits_cleanly_in_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let mut sim = Sim::new(SimConfig::default());
        let cfg = NodeConfig::new(protocol);
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg.clone());
        let n2 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.declare_partner(n1, n2);
        let spec = TxnSpec::local_update(n0, "root-key", "r")
            .with_edge(tpc_sim::WorkEdge::update(n0, n1, "mid-key", "m"))
            .with_edge(tpc_sim::WorkEdge::update(n1, n2, "leaf-key", "l"));
        sim.push_txn(spec);
        let report = sim.run();
        report.assert_clean();
        assert_eq!(report.single().outcome, Outcome::Commit, "{protocol}");
        // Everyone reached commit.
        for node in [n0, n1, n2] {
            let seat = sim
                .engine(node)
                .completed_seat(report.single().txn)
                .unwrap_or_else(|| panic!("{protocol}: no completed seat at {node}"));
            assert_eq!(seat.outcome, Some(Outcome::Commit));
        }
    }
}

#[test]
fn pn_cascaded_coordinator_logs_commit_pending() {
    // §3 / Figure 3: the intermediate logs commit-pending (forced) before
    // propagating Prepare — 4 writes / 3 forced at the cascade.
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let n2 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n1, n2);
    let spec = TxnSpec::local_update(n0, "r", "r")
        .with_edge(tpc_sim::WorkEdge::update(n0, n1, "m", "m"))
        .with_edge(tpc_sim::WorkEdge::update(n1, n2, "l", "l"));
    sim.push_txn(spec);
    let report = sim.run();
    report.assert_clean();
    let mid = &report.per_node[1];
    assert_eq!(
        (mid.tm_writes, mid.tm_forced),
        (4, 3),
        "PN cascade: CommitPending*, Prepared*, Committed*, End"
    );
}
