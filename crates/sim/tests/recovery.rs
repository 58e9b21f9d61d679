//! Crash recovery per protocol family: the presumption rules of §2–§3.
//!
//! Each scenario crashes a participant at a chosen protocol instant,
//! restarts it, and verifies the distributed resolution the protocol
//! promises:
//!
//! * **PA** — subordinate-driven: the in-doubt subordinate queries; a
//!   coordinator with no information answers ABORT.
//! * **PN** — coordinator-driven: the restarted coordinator finds its
//!   forced commit-pending record and re-drives the subordinates itself.
//! * decided-but-unfinished coordinators re-propagate the outcome.

use tpc_common::{Outcome, ProtocolKind, SimDuration, SimTime};
use tpc_core::Timeouts;
use tpc_sim::{NodeConfig, Sim, SimConfig, TxnSpec};

fn fast_timeouts() -> Timeouts {
    Timeouts {
        vote_collection: SimDuration::from_secs(2),
        ack_collection: SimDuration::from_millis(200),
        in_doubt_query: SimDuration::from_millis(300),
    }
}

/// Coordinator crashes after the subordinate prepared but before any
/// decision was logged.
fn coordinator_crash_mid_vote(
    protocol: ProtocolKind,
) -> (Sim, tpc_common::NodeId, tpc_common::NodeId) {
    let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(20)));
    let cfg = NodeConfig::new(protocol).with_timeouts(fast_timeouts());
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    // Timeline: commit requested at 20 ms; Prepare reaches N1 ~21.2 ms;
    // N1's vote lands ~22.4 ms. Crash N0 at 22 ms — after N1 forced its
    // prepared record, before N0 processes the vote.
    sim.crash_at(n0, SimTime(22_000));
    sim.restart_at(n0, SimTime(1_000_000));
    (sim, n0, n1)
}

#[test]
fn pa_in_doubt_subordinate_queries_and_presumes_abort() {
    let (mut sim, n0, n1) = coordinator_crash_mid_vote(ProtocolKind::PresumedAbort);
    let report = sim.run();
    // The root application never heard an outcome (it crashed), but the
    // subordinate must be resolved: query → no information → ABORT.
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    let seat = sim
        .engine(n1)
        .completed_seats()
        .find(|s| s.txn.origin == n0)
        .expect("subordinate resolved");
    assert_eq!(seat.outcome, Some(Outcome::Abort));
}

#[test]
fn basic_in_doubt_subordinate_stays_blocked_without_info() {
    // The baseline protocol has no presumption: the restarted
    // coordinator answers OutcomeUnknown and the subordinate stays in
    // doubt — the blocking behaviour the paper's §1 motivates against.
    let (mut sim, _n0, n1) = coordinator_crash_mid_vote(ProtocolKind::Basic);
    let report = sim.run();
    assert!(
        report.unresolved.iter().any(|(n, _)| *n == n1),
        "baseline leaves the subordinate blocked: {:?}",
        report.unresolved
    );
}

#[test]
fn pn_coordinator_redrive_aborts_the_subordinate() {
    let (mut sim, n0, n1) = coordinator_crash_mid_vote(ProtocolKind::PresumedNothing);
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    // The commit-pending record drove recovery: the coordinator itself
    // aborted the transaction and collected the subordinate's ack.
    let seat = sim
        .engine(n1)
        .completed_seats()
        .find(|s| s.txn.origin == n0)
        .expect("subordinate resolved");
    assert_eq!(seat.outcome, Some(Outcome::Abort));
    // Coordinator-driven: the subordinate never sent a recovery Query.
    let sub_trace: Vec<_> = report
        .trace
        .iter()
        .filter_map(|e| match &e.kind {
            tpc_sim::TraceKind::Send { from, desc, .. } if *from == n1 => Some(desc.clone()),
            _ => None,
        })
        .collect();
    assert!(
        !sub_trace.iter().any(|d| d.contains("Query")),
        "PN subordinates wait for the coordinator: {sub_trace:?}"
    );
}

#[test]
fn coordinator_crash_after_commit_record_finishes_the_commit() {
    // Crash after the decision forced but before acks: restart must
    // re-propagate COMMIT (all protocols).
    for protocol in ProtocolKind::ALL {
        let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(20)));
        let cfg = NodeConfig::new(protocol).with_timeouts(fast_timeouts());
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
        // Vote arrives ~22.4 ms; the commit record is forced immediately;
        // the Commit message leaves ~22.6 ms. Crash at 22.5 ms: decision
        // durable, possibly unsent.
        sim.crash_at(n0, SimTime(22_500));
        sim.restart_at(n0, SimTime(500_000));
        let report = sim.run();
        assert!(
            report.violations.is_empty(),
            "{protocol}: {:?}",
            report.violations
        );
        assert!(
            report.unresolved.is_empty(),
            "{protocol}: {:?}",
            report.unresolved
        );
        let seat = sim
            .engine(n1)
            .completed_seats()
            .find(|s| s.txn.origin == n0)
            .unwrap_or_else(|| panic!("{protocol}: subordinate unresolved"));
        assert_eq!(seat.outcome, Some(Outcome::Commit), "{protocol}");
    }
}

#[test]
fn subordinate_crash_while_in_doubt_recovers_the_outcome() {
    for protocol in [
        ProtocolKind::Basic,
        ProtocolKind::PresumedAbort,
        ProtocolKind::PresumedNothing,
    ] {
        let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(20)));
        let cfg = NodeConfig::new(protocol).with_timeouts(fast_timeouts());
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
        // The subordinate crashes right after voting (~22 ms, its
        // prepared record is forced) and misses the Commit message.
        sim.crash_at(n1, SimTime(22_200));
        sim.restart_at(n1, SimTime(500_000));
        let report = sim.run();
        assert!(
            report.violations.is_empty(),
            "{protocol}: {:?}",
            report.violations
        );
        assert!(
            report.unresolved.is_empty(),
            "{protocol}: {:?}",
            report.unresolved
        );
        let seat = sim
            .engine(n1)
            .completed_seats()
            .find(|s| s.txn.origin == n0)
            .unwrap_or_else(|| panic!("{protocol}: no resolution"));
        assert_eq!(seat.outcome, Some(Outcome::Commit), "{protocol}");
    }
}

#[test]
fn crash_before_any_vote_aborts_everywhere() {
    // Subordinate crashes before Prepare arrives: its vote never comes,
    // the coordinator times out and aborts; the restarted subordinate has
    // nothing in its log (the transaction evaporates there).
    let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(30)));
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_timeouts(fast_timeouts());
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    sim.crash_at(n1, SimTime(5_000)); // before the 20 ms commit point
    sim.restart_at(n1, SimTime(3_000_000));
    let report = sim.run();
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    let result = report.single();
    assert_eq!(result.outcome, Outcome::Abort);
    // The restarted subordinate holds no trace of the transaction.
    assert_eq!(sim.engine(n1).active_txns(), 0);
}

#[test]
fn double_crash_of_the_coordinator_still_resolves() {
    // Crash, restart, crash again during recovery, restart again: the
    // durable log makes recovery idempotent.
    let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(30)));
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing).with_timeouts(fast_timeouts());
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    sim.crash_at(n0, SimTime(22_000));
    sim.restart_at(n0, SimTime(100_000));
    sim.crash_at(n0, SimTime(100_500)); // mid-recovery
    sim.restart_at(n0, SimTime(1_000_000));
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    let seat = sim
        .engine(n1)
        .completed_seats()
        .find(|s| s.txn.origin == n0)
        .expect("resolved");
    assert_eq!(seat.outcome, Some(Outcome::Abort));
}

#[test]
fn delegating_initiator_crash_recovers_by_asking_the_delegate() {
    // Last agent + crash: the initiator forced its prepared record (which
    // names the delegate as the one to ask), crashed before receiving the
    // delegate's decision, and must learn COMMIT from it on restart.
    let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(20)));
    let initiator_cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_timeouts(fast_timeouts())
        .with_opts(tpc_common::OptimizationConfig::none().with_last_agent(true));
    let agent_cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_timeouts(fast_timeouts());
    let n0 = sim.add_node(initiator_cfg);
    let n1 = sim.add_node(agent_cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    // Timeline: delegation leaves N0 ~20.4 ms (after its prepared force)
    // and lands at N1 ~21.6 ms, which decides COMMIT on the spot; the
    // Commit reaches N0 ~22.8 ms. Crash after the delegate has decided
    // but before the decision lands. (Crashing *before* delivery would
    // change the story: the conversation-failure signal makes N1 roll
    // back its unprepared work, so the late delegation — carrying
    // expect-work — must then abort, not commit.)
    sim.crash_at(n0, SimTime(22_000));
    sim.restart_at(n0, SimTime(500_000));
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    // The restarted initiator queried the delegate (named as its
    // "coordinator" in the prepared record) and committed.
    let seat = sim
        .engine(n0)
        .completed_seats()
        .find(|s| s.txn.origin == n0)
        .expect("initiator resolved");
    assert_eq!(seat.outcome, Some(Outcome::Commit));
    let agent_seat = sim
        .engine(n1)
        .completed_seats()
        .find(|s| s.txn.origin == n0)
        .expect("agent resolved");
    assert_eq!(agent_seat.outcome, Some(Outcome::Commit));
}

#[test]
fn delegation_to_a_partner_that_lost_its_work_aborts() {
    // The delegation's expect-work defense (the analogue of Prepare's):
    // the initiator crashes while its delegation is still in flight, so
    // the conversation-failure signal reaches the delegate FIRST and it
    // rolls back its unprepared work. The late delegation then finds a
    // partner with no trace of a transaction the initiator conversed
    // with — committing would commit effects that no longer exist, so
    // the delegate must decide ABORT, and recovery must settle everyone
    // on abort.
    let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(20)));
    let initiator_cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_timeouts(fast_timeouts())
        .with_opts(tpc_common::OptimizationConfig::none().with_last_agent(true));
    let agent_cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_timeouts(fast_timeouts());
    let n0 = sim.add_node(initiator_cfg);
    let n1 = sim.add_node(agent_cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    // Delegation leaves N0 ~20.4 ms, lands ~21.6 ms: crash at 21 ms is
    // after the send but before the delivery.
    sim.crash_at(n0, SimTime(21_000));
    sim.restart_at(n0, SimTime(500_000));
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    for n in [n0, n1] {
        let seat = sim
            .engine(n)
            .completed_seats()
            .find(|s| s.txn.origin == n0)
            .expect("resolved");
        assert_eq!(
            seat.outcome,
            Some(Outcome::Abort),
            "node {n} must abort the lost-work delegation"
        );
    }
}
