//! Cross-protocol cost matrix on deeper shapes: binary trees and
//! read-only interactions with the pre-Phase-1 records.

use tpc_common::{NodeId, OptimizationConfig, Outcome, ProtocolKind};
use tpc_sim::{NodeConfig, RunReport, Sim, SimConfig, TxnSpec, WorkEdge};

/// A balanced binary tree of depth 2 (7 nodes), every node updating.
fn run_binary_tree(protocol: ProtocolKind, opts: OptimizationConfig) -> (Sim, RunReport) {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(protocol).with_opts(opts);
    let ids: Vec<NodeId> = (0..7).map(|_| sim.add_node(cfg.clone())).collect();
    // 0 → {1, 2}; 1 → {3, 4}; 2 → {5, 6}
    let edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)];
    for (a, b) in edges {
        sim.declare_partner(ids[a], ids[b]);
    }
    let mut spec = TxnSpec::local_update(ids[0], "k0", "v");
    for (a, b) in edges {
        spec = spec.with_edge(WorkEdge::update(ids[a], ids[b], &format!("k{b}"), "v"));
    }
    sim.push_txn(spec);
    let report = sim.run();
    assert!(
        report.violations.is_empty(),
        "{protocol}: {:?}",
        report.violations
    );
    (sim, report)
}

#[test]
fn binary_tree_costs_match_the_flat_formulas() {
    // The paper's 4(n−1)/3n−1/2n−1 hold for any tree shape: each of the
    // n−1 edges carries prepare/vote/commit/ack once.
    let (_, basic) = run_binary_tree(ProtocolKind::Basic, OptimizationConfig::none());
    assert_eq!(basic.single().outcome, Outcome::Commit);
    assert_eq!(basic.protocol_flows(), 4 * 6, "4(n-1), n=7");
    assert_eq!(basic.tm_writes(), 3 * 7 - 1, "3n-1");
    assert_eq!(basic.tm_forced(), 2 * 7 - 1, "2n-1");

    // PN adds one forced commit-pending per coordinator (root + the two
    // intermediates).
    let (_, pn) = run_binary_tree(ProtocolKind::PresumedNothing, OptimizationConfig::none());
    assert_eq!(pn.protocol_flows(), 24);
    assert_eq!(pn.tm_forced(), 13 + 3, "basic + 3 commit-pending forces");
}

#[test]
fn read_only_cascade_collapses_a_whole_subtree() {
    // If an intermediate and everything below it is read-only, the
    // intermediate votes READ-ONLY and its entire subtree leaves the
    // second phase (§4: "a cascaded coordinator is allowed to vote
    // read-only if and only if all its subordinates have voted
    // read-only").
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_opts(OptimizationConfig::none().with_read_only(true));
    let root = sim.add_node(cfg.clone());
    let updater = sim.add_node(cfg.clone());
    let mid = sim.add_node(cfg.clone());
    let leaf = sim.add_node(cfg);
    sim.declare_partner(root, updater);
    sim.declare_partner(root, mid);
    sim.declare_partner(mid, leaf);
    let spec = TxnSpec::local_update(root, "r", "1")
        .with_edge(WorkEdge::update(root, updater, "u", "1"))
        .with_edge(WorkEdge::read(root, mid, "m"))
        .with_edge(WorkEdge::read(mid, leaf, "l"));
    sim.push_txn(spec);
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    // The read-only subtree logged nothing at all.
    let mid_report = report.per_node.iter().find(|n| n.node == mid).unwrap();
    let leaf_report = report.per_node.iter().find(|n| n.node == leaf).unwrap();
    assert_eq!(mid_report.tm_writes, 0);
    assert_eq!(leaf_report.tm_writes, 0);
    // ... and exchanged exactly two flows each (prepare down, RO vote up).
    assert_eq!(
        mid_report.engine.frames_sent - mid_report.engine.work_frames,
        2
    );
    assert_eq!(
        leaf_report.engine.frames_sent - leaf_report.engine.work_frames,
        1,
        "the leaf answers its prepare; nothing else"
    );
}

#[test]
fn mixed_cascade_keeps_the_updating_branch_in_phase_two() {
    // The intermediate has one updating and one read-only child: it must
    // vote YES (not READ-ONLY) and propagate the outcome to the updater.
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_opts(OptimizationConfig::none().with_read_only(true));
    let root = sim.add_node(cfg.clone());
    let mid = sim.add_node(cfg.clone());
    let ro_leaf = sim.add_node(cfg.clone());
    let up_leaf = sim.add_node(cfg);
    sim.declare_partner(root, mid);
    sim.declare_partner(mid, ro_leaf);
    sim.declare_partner(mid, up_leaf);
    let spec = TxnSpec::local_update(root, "r", "1")
        .with_edge(WorkEdge::read(root, mid, "m"))
        .with_edge(WorkEdge::read(mid, ro_leaf, "a"))
        .with_edge(WorkEdge::update(mid, up_leaf, "b", "1"));
    sim.push_txn(spec);
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Commit);
    let txn = report.single().txn;
    // The read-only leaf is out after phase 1; the updater committed.
    let ro_seat = sim.engine(ro_leaf).completed_seat(txn).unwrap();
    assert_eq!(ro_seat.sent_vote, Some(tpc_common::Vote::ReadOnly));
    let up_seat = sim.engine(up_leaf).completed_seat(txn).unwrap();
    assert_eq!(up_seat.outcome, Some(Outcome::Commit));
    // The mid (read-only locally, but with an updating child) logged the
    // full prepared/committed history.
    let mid_report = report.per_node.iter().find(|n| n.node == mid).unwrap();
    assert_eq!(mid_report.tm_forced, 2, "prepared* + committed*");
}
