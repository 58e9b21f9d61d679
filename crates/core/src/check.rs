//! The harness-independent consistency checker.
//!
//! Verifies the properties the protocols promise, from nothing but
//! per-node protocol snapshots and the outcomes the application saw:
//!
//! 1. **Atomicity** — every participant that reached an outcome reached
//!    the *same* outcome as the root, unless it took a heuristic decision
//!    (which is damage, not a protocol bug — but it must be accounted).
//! 2. **Quiescence** — once a run is over, no seat is still unresolved
//!    (blocked in-doubt participants are reported as *unresolved* rather
//!    than violations: blocking is legitimate 2PC behaviour under
//!    failures).
//! 3. **Damage-report fidelity** — under PN with late acknowledgments,
//!    every damaged participant appears in the root's report (§3: "the
//!    root coordinator [must be] informed of any heuristic damage").
//!
//! The simulator's end-of-run verification (`tpc-sim`'s `verify`) and
//! the live runtime's chaos harness both delegate here, so a chaos run
//! over real sockets asserts exactly the invariants the simulator
//! asserts. The inputs are plain snapshots ([`Seat`] clones), which the
//! live runtime can ship across its node threads, not borrows of a
//! running cluster.

use tpc_common::{AckMode, DamageReport, NodeId, Outcome, ProtocolKind, TxnId, Vote};

use crate::engine::{EngineConfig, TmEngine};
use crate::seat::{Seat, Stage};

/// One application-visible transaction completion — the checker's view
/// of what a root promised its application.
#[derive(Clone, Debug)]
pub struct OutcomeRecord {
    /// The transaction.
    pub txn: TxnId,
    /// Its root (commit initiator).
    pub root: NodeId,
    /// The outcome delivered to the application.
    pub outcome: Outcome,
    /// Damage report visible at the root.
    pub report: DamageReport,
    /// Completed with "recovery in progress" (wait-for-outcome).
    pub pending: bool,
}

/// A checkable snapshot of one node's protocol state.
#[derive(Clone, Debug)]
pub struct NodeProtocolState {
    /// The node.
    pub node: NodeId,
    /// The node is down; its seats are excluded from unresolved checks
    /// (it is dead, not blocked).
    pub crashed: bool,
    /// Protocol family the node runs.
    pub protocol: ProtocolKind,
    /// Acknowledgment mode (damage-report fidelity precondition).
    pub ack_mode: AckMode,
    /// Vote-reliable weakens the damage chain.
    pub vote_reliable: bool,
    /// Wait-for-outcome weakens the damage chain.
    pub wait_for_outcome: bool,
    /// Long locks defer acks past the outcome notification.
    pub long_locks: bool,
    /// Seats still in flight.
    pub active: Vec<Seat>,
    /// Seats whose commit processing completed.
    pub completed: Vec<Seat>,
}

impl NodeProtocolState {
    /// Snapshots a live engine.
    pub fn from_engine(node: NodeId, crashed: bool, engine: &TmEngine) -> Self {
        let cfg: &EngineConfig = engine.config();
        NodeProtocolState {
            node,
            crashed,
            protocol: cfg.protocol,
            ack_mode: cfg.opts.ack_mode,
            vote_reliable: cfg.opts.vote_reliable,
            wait_for_outcome: cfg.opts.wait_for_outcome,
            long_locks: cfg.opts.long_locks,
            active: engine.active_seats().cloned().collect(),
            completed: engine.completed_seats().cloned().collect(),
        }
    }

    fn completed_seat(&self, txn: TxnId) -> Option<&Seat> {
        self.completed.iter().find(|s| s.txn == txn)
    }
}

/// Runs all checks. Returns `(violations, unresolved)`.
pub fn check(
    nodes: &[NodeProtocolState],
    outcomes: &[OutcomeRecord],
) -> (Vec<String>, Vec<(NodeId, TxnId)>) {
    let mut violations = Vec::new();
    let mut unresolved = Vec::new();

    // Unresolved seats (skip crashed nodes: they are down, not blocked).
    for state in nodes {
        if state.crashed {
            continue;
        }
        for seat in &state.active {
            // A delegate whose initiator's implied ack never arrived is
            // bookkeeping debt, not a stuck transaction, once it knows
            // the outcome.
            if seat.stage == Stage::Deciding && seat.outcome.is_some() {
                continue;
            }
            unresolved.push((state.node, seat.txn));
        }
    }
    unresolved.sort();

    // Outcome agreement per completed transaction.
    let damage_must_reach_root = must_report_damage(nodes);
    for result in outcomes {
        for state in nodes {
            let Some(seat) = state.completed_seat(result.txn) else {
                continue;
            };
            if seat.sent_vote == Some(Vote::ReadOnly) {
                // Read-only participants are compatible with either
                // outcome by definition.
                continue;
            }
            if let Some(h) = seat.heuristic {
                // Heuristic decisions are checked for reporting, below.
                let damaged = h.damages(result.outcome);
                if damaged && damage_must_reach_root {
                    let reported = result.report.damaged.contains(&state.node);
                    if !reported {
                        violations.push(format!(
                            "{}: heuristic damage at {} not reported to root {} \
                             (PN late-ack promises reliable damage reporting)",
                            result.txn, state.node, result.root
                        ));
                    }
                }
                continue;
            }
            match seat.outcome {
                Some(o) if o == result.outcome => {}
                Some(o) => violations.push(format!(
                    "{}: {} finished {o} but root {} decided {}",
                    result.txn, state.node, result.root, result.outcome
                )),
                None => violations.push(format!(
                    "{}: {} completed without an outcome",
                    result.txn, state.node
                )),
            }
        }
    }

    (violations, unresolved)
}

/// The configuration under which the paper promises the root sees every
/// damage report: every node's family forwards reports to the root and
/// drives recovery from the coordinator (PN), acknowledgments are late,
/// and neither vote-reliable nor wait-for-outcome weakens the chain.
pub fn must_report_damage(nodes: &[NodeProtocolState]) -> bool {
    nodes.iter().all(|s| {
        let rules = s.protocol.rules();
        rules.damage_to_root
            && rules.coordinator_recovers
            && s.ack_mode == AckMode::Late
            && !s.vote_reliable
            && !s.wait_for_outcome
            && !s.long_locks
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::HeuristicOutcome;

    fn txn() -> TxnId {
        TxnId::new(NodeId(0), 1)
    }

    fn state(node: u32, protocol: ProtocolKind) -> NodeProtocolState {
        NodeProtocolState {
            node: NodeId(node),
            crashed: false,
            protocol,
            ack_mode: AckMode::Late,
            vote_reliable: false,
            wait_for_outcome: false,
            long_locks: false,
            active: Vec::new(),
            completed: Vec::new(),
        }
    }

    fn outcome(o: Outcome) -> OutcomeRecord {
        OutcomeRecord {
            txn: txn(),
            root: NodeId(0),
            outcome: o,
            report: DamageReport::clean(),
            pending: false,
        }
    }

    fn completed_seat(o: Option<Outcome>) -> Seat {
        let mut s = Seat::new(txn());
        s.stage = Stage::Done;
        s.outcome = o;
        s
    }

    #[test]
    fn agreeing_outcomes_are_clean() {
        let mut a = state(0, ProtocolKind::PresumedAbort);
        a.completed.push(completed_seat(Some(Outcome::Commit)));
        let mut b = state(1, ProtocolKind::PresumedAbort);
        b.completed.push(completed_seat(Some(Outcome::Commit)));
        let (violations, unresolved) = check(&[a, b], &[outcome(Outcome::Commit)]);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(unresolved.is_empty());
    }

    #[test]
    fn disagreeing_outcome_is_a_violation() {
        let mut a = state(0, ProtocolKind::PresumedAbort);
        a.completed.push(completed_seat(Some(Outcome::Commit)));
        let mut b = state(1, ProtocolKind::PresumedAbort);
        b.completed.push(completed_seat(Some(Outcome::Abort)));
        let (violations, _) = check(&[a, b], &[outcome(Outcome::Commit)]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("finished ABORT"));
    }

    #[test]
    fn active_seat_is_unresolved_not_violation() {
        let mut a = state(0, ProtocolKind::Basic);
        a.active.push(Seat::new(txn()));
        let (violations, unresolved) = check(&[a], &[]);
        assert!(violations.is_empty());
        assert_eq!(unresolved, vec![(NodeId(0), txn())]);
    }

    #[test]
    fn crashed_node_seats_are_skipped() {
        let mut a = state(0, ProtocolKind::Basic);
        a.active.push(Seat::new(txn()));
        a.crashed = true;
        let (violations, unresolved) = check(&[a], &[]);
        assert!(violations.is_empty());
        assert!(unresolved.is_empty());
    }

    #[test]
    fn unreported_damage_flagged_only_under_pn_late_ack() {
        let mut seat = completed_seat(None);
        seat.heuristic = Some(HeuristicOutcome::Abort);
        let mut pn = state(1, ProtocolKind::PresumedNothing);
        pn.completed.push(seat.clone());
        let root = state(0, ProtocolKind::PresumedNothing);
        let (violations, _) = check(&[root.clone(), pn], &[outcome(Outcome::Commit)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("heuristic damage"));

        // Same shape under PA: damage is possible but unreported damage
        // is not promised away.
        let mut pa = state(1, ProtocolKind::PresumedAbort);
        pa.completed.push(seat);
        let mut root_pa = root;
        root_pa.protocol = ProtocolKind::PresumedAbort;
        let (violations, _) = check(&[root_pa, pa], &[outcome(Outcome::Commit)]);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
