//! Engine edge cases driven through the testkit pump: duplicate and
//! dropped frames, reordering, two-initiator conflicts, recovery queries,
//! vote-flag aggregation, timer behaviour.

use tpc_common::{
    HeuristicPolicy, NodeId, Outcome, ProtocolKind, SimDuration, TxnId, Vote, VoteFlags,
};
use tpc_core::testkit::Pump;
use tpc_core::{Event, LocalVote, ProtocolMsg, Stage, TimerKind};

fn txn0() -> TxnId {
    TxnId::new(NodeId(0), 1)
}

fn start_pair_commit(p: &mut Pump) {
    p.feed(
        NodeId(0),
        Event::SendWork {
            txn: txn0(),
            to: NodeId(1),
            payload: vec![],
        },
    );
    p.feed(NodeId(0), Event::CommitRequested { txn: txn0() });
}

#[test]
fn duplicate_prepare_is_answered_with_the_same_vote() {
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedAbort);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    let prepare = p.deliver_next().expect("prepare frame");
    assert!(prepare.msgs.iter().any(|m| m.kind_name() == "Prepare"));
    // The vote is queued. Duplicate the Prepare: the subordinate must
    // re-send its vote, not re-prepare.
    let logs_before = p.log_kinds(NodeId(1)).len();
    p.redeliver(&prepare);
    assert_eq!(
        p.log_kinds(NodeId(1)).len(),
        logs_before,
        "duplicate prepare must not log again"
    );
    // Two vote frames now queued; both deliver harmlessly.
    p.run_to_quiescence();
    assert_eq!(
        p.engine(NodeId(1)).finished_outcome(txn0()),
        Some(Outcome::Commit)
    );
}

#[test]
fn duplicate_commit_decision_is_re_acked() {
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedNothing);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    p.deliver_next(); // Prepare
    p.deliver_next(); // Vote
    let commit = p.deliver_next().expect("commit frame");
    assert!(commit.msgs.iter().any(|m| m.kind_name() == "Commit"));
    p.run_to_quiescence();
    // Both sides done; now the decision arrives again (retry crossed the
    // ack). The subordinate must ack again without logging again.
    let sub_logs = p.log_kinds(NodeId(1));
    p.redeliver(&commit);
    assert_eq!(p.log_kinds(NodeId(1)), sub_logs);
    let re_ack = p.deliver_next().expect("re-ack frame");
    assert!(re_ack.msgs.iter().any(|m| m.kind_name().starts_with("Ack")));
}

#[test]
fn lost_commit_is_recovered_by_ack_timer_retry() {
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedAbort);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    p.deliver_next(); // Prepare
    p.deliver_next(); // Vote — coordinator decides, queues Commit
    let dropped = p.drop_next().expect("commit frame dropped");
    assert!(dropped.msgs.iter().any(|m| m.kind_name() == "Commit"));
    assert_eq!(
        p.engine(NodeId(1)).seat(txn0()).unwrap().stage,
        Stage::InDoubt
    );
    // The coordinator's ack-collection timer retries the decision.
    assert!(p.fire_timer(NodeId(0), txn0(), TimerKind::AckCollection));
    p.run_to_quiescence();
    assert_eq!(
        p.engine(NodeId(1)).finished_outcome(txn0()),
        Some(Outcome::Commit)
    );
    assert_eq!(p.engine(NodeId(0)).active_txns(), 0);
}

#[test]
fn lost_vote_leads_to_vote_timeout_abort() {
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedAbort);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    p.deliver_next(); // Prepare
    let vote = p.drop_next().expect("vote dropped");
    assert!(vote.msgs.iter().any(|m| m.kind_name() == "VoteYes"));
    assert!(p.fire_timer(NodeId(0), txn0(), TimerKind::VoteCollection));
    assert_eq!(
        p.engine(NodeId(0)).completed_seat(txn0()).unwrap().outcome,
        Some(Outcome::Abort)
    );
    // The in-doubt subordinate eventually queries and learns the abort
    // by presumption.
    assert!(p.fire_timer(NodeId(1), txn0(), TimerKind::InDoubtQuery));
    p.run_to_quiescence();
    assert_eq!(
        p.engine(NodeId(1)).completed_seat(txn0()).unwrap().outcome,
        Some(Outcome::Abort)
    );
}

#[test]
fn late_vote_after_abort_decision_does_not_silence_the_redrive() {
    // A YES vote delayed past the vote-collection timeout races the
    // abort decision. Recording it must not clobber the child's
    // DecisionSent state: under PN the subordinate never queries, so the
    // coordinator's re-drive (or a direct answer) is its only way out of
    // doubt.
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedNothing);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    p.deliver_next(); // Prepare — N1 votes
    let vote = p.drop_next().expect("vote delayed in transit");
    assert!(vote.msgs.iter().any(|m| m.kind_name() == "VoteYes"));
    // The missing vote counts NO; the abort goes to the un-voted child
    // too — and is lost.
    assert!(p.fire_timer(NodeId(0), txn0(), TimerKind::VoteCollection));
    let abort = p.drop_next().expect("abort decision dropped");
    assert!(abort.msgs.iter().any(|m| m.kind_name() == "Abort"));
    assert_eq!(
        p.engine(NodeId(1)).seat(txn0()).unwrap().stage,
        Stage::InDoubt
    );
    // Now the delayed vote lands: the coordinator answers the in-doubt
    // voter with the decision instead of silently recording the vote.
    p.redeliver(&vote);
    p.run_to_quiescence();
    assert_eq!(
        p.engine(NodeId(1)).completed_seat(txn0()).unwrap().outcome,
        Some(Outcome::Abort)
    );
    assert_eq!(p.engine(NodeId(0)).active_txns(), 0);
    assert_eq!(p.engine(NodeId(1)).active_txns(), 0);
}

#[test]
fn two_initiators_abort_the_transaction() {
    // §3: "it is an error for two participants to initiate commit
    // processing independently for the same transaction".
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedNothing);
    let txn = txn0();
    p.feed(
        NodeId(0),
        Event::SendWork {
            txn,
            to: NodeId(1),
            payload: vec![],
        },
    );
    p.deliver_next(); // Work arrives at N1
                      // Both nodes now ask to commit the same transaction.
    p.feed(NodeId(0), Event::CommitRequested { txn });
    p.feed(NodeId(1), Event::CommitRequested { txn });
    p.run_to_quiescence();
    // N1 refused N0's Prepare (it already aborted); if the NO vote raced
    // ahead, N0's vote timer resolves it identically.
    p.fire_timer(NodeId(0), txn, TimerKind::VoteCollection);
    p.run_to_quiescence();
    let n0 = p.engine(NodeId(0)).completed_seat(txn).map(|s| s.outcome);
    let n1 = p.engine(NodeId(1)).completed_seat(txn).map(|s| s.outcome);
    assert_eq!(n0, Some(Some(Outcome::Abort)), "initiator 0 must abort");
    assert_eq!(n1, Some(Some(Outcome::Abort)), "initiator 1 must abort");
}

#[test]
fn query_answers_follow_the_presumption() {
    for (protocol, expected) in [
        (ProtocolKind::PresumedAbort, Some(Outcome::Abort)),
        (ProtocolKind::PresumedNothing, Some(Outcome::Abort)),
        (ProtocolKind::Basic, None), // OutcomeUnknown
    ] {
        let mut p = Pump::homogeneous(2, protocol);
        // N1 queries N0 about a transaction N0 has never heard of.
        let txn = TxnId::new(NodeId(0), 99);
        p.feed(
            NodeId(0),
            Event::MsgReceived {
                from: NodeId(1),
                msg: ProtocolMsg::Query { txn },
            },
        );
        let reply = p.queue.pop_front().expect("a reply is always sent");
        match (&reply.msgs[0], expected) {
            (ProtocolMsg::Decision { outcome, .. }, Some(presumed)) => {
                assert_eq!(*outcome, presumed, "{protocol}")
            }
            (ProtocolMsg::OutcomeUnknown { .. }, None) => {}
            (other, _) => panic!("{protocol}: unexpected reply {other:?}"),
        }
    }
}

#[test]
fn vote_flags_aggregate_across_a_cascade() {
    // Chain 0 → 1 → 2. The leaf is reliable+suspendable, the middle
    // reliable only: the middle's vote to the root must carry
    // reliable=true (all below reliable) and ok_to_leave_out=false (the
    // middle itself is not suspendable).
    let mut configs: Vec<tpc_core::EngineConfig> = (0..3)
        .map(|i| {
            tpc_core::EngineConfig::new(NodeId(i), ProtocolKind::PresumedNothing)
                .with_opts(tpc_common::OptimizationConfig::none().with_leave_out(true))
        })
        .collect();
    configs[0].opts = configs[0].opts.clone();
    let mut p = Pump::new(configs);
    p.set_local_vote(
        NodeId(1),
        LocalVote {
            disposition: tpc_core::LocalDisposition::Yes,
            reliable: true,
            suspendable: false,
        },
    );
    p.set_local_vote(
        NodeId(2),
        LocalVote {
            disposition: tpc_core::LocalDisposition::Yes,
            reliable: true,
            suspendable: true,
        },
    );
    let txn = txn0();
    p.feed(
        NodeId(0),
        Event::SendWork {
            txn,
            to: NodeId(1),
            payload: vec![],
        },
    );
    p.deliver_next(); // work to 1
    p.feed(
        NodeId(1),
        Event::SendWork {
            txn,
            to: NodeId(2),
            payload: vec![],
        },
    );
    p.deliver_next(); // work to 2
    p.feed(NodeId(0), Event::CommitRequested { txn });
    // Drain until the middle's vote to the root appears.
    let mut mid_vote: Option<Vote> = None;
    for _ in 0..20 {
        let Some(frame) = p.deliver_next() else { break };
        if frame.from == NodeId(1) && frame.to == NodeId(0) {
            if let Some(ProtocolMsg::VoteMsg { vote, .. }) = frame
                .msgs
                .iter()
                .find(|m| matches!(m, ProtocolMsg::VoteMsg { .. }))
            {
                mid_vote = Some(*vote);
            }
        }
    }
    let Some(Vote::Yes(flags)) = mid_vote else {
        panic!("expected the middle's YES vote, got {mid_vote:?}");
    };
    assert!(flags.reliable, "whole subtree reliable");
    assert!(
        !flags.ok_to_leave_out,
        "middle is not suspendable, so its subtree cannot be left out"
    );
    p.run_to_quiescence();
}

#[test]
fn unsolicited_vote_reaches_a_coordinator_still_working() {
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedAbort);
    let txn = txn0();
    p.feed(
        NodeId(0),
        Event::SendWork {
            txn,
            to: NodeId(1),
            payload: vec![],
        },
    );
    p.deliver_next(); // Work
                      // The server self-prepares before any Prepare is sent.
    p.feed(NodeId(1), Event::SelfPrepare { txn });
    let vote_frame = p.deliver_next().expect("unsolicited vote");
    assert!(vote_frame
        .msgs
        .iter()
        .any(|m| m.kind_name() == "VoteYes(unsolicited)"));
    // Commit now: no Prepare is sent to the already-voted child.
    p.feed(NodeId(0), Event::CommitRequested { txn });
    let next = p.deliver_next().expect("decision frame");
    assert!(
        next.msgs.iter().any(|m| m.kind_name() == "Commit"),
        "expected the decision directly, got {:?}",
        next.msgs
    );
    p.run_to_quiescence();
    assert_eq!(
        p.engine(NodeId(0)).finished_outcome(txn),
        Some(Outcome::Commit)
    );
}

#[test]
fn heuristic_fires_only_while_in_doubt() {
    let mut p = Pump::new(vec![
        tpc_core::EngineConfig::new(NodeId(0), ProtocolKind::PresumedNothing),
        tpc_core::EngineConfig::new(NodeId(1), ProtocolKind::PresumedNothing)
            .with_heuristic(HeuristicPolicy::AbortAfter(SimDuration::from_secs(1))),
    ]);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    p.deliver_next(); // Prepare — N1 votes, arms the heuristic deadline
    assert!(p
        .timers
        .iter()
        .any(|t| t.node == NodeId(1) && t.kind == TimerKind::HeuristicDeadline));
    // Deliver the vote and the commit normally: the deadline is
    // cancelled, so firing it later must do nothing.
    p.run_to_quiescence();
    assert!(
        !p.fire_timer(NodeId(1), txn0(), TimerKind::HeuristicDeadline),
        "deadline should have been cancelled by the decision"
    );
    assert_eq!(p.engine(NodeId(1)).metrics().heuristic_decisions, 0);
}

#[test]
fn heuristic_decision_is_logged_forced_and_reported() {
    let mut p = Pump::new(vec![
        tpc_core::EngineConfig::new(NodeId(0), ProtocolKind::PresumedNothing),
        tpc_core::EngineConfig::new(NodeId(1), ProtocolKind::PresumedNothing)
            .with_heuristic(HeuristicPolicy::AbortAfter(SimDuration::from_secs(1))),
    ]);
    start_pair_commit(&mut p);
    p.deliver_next(); // Work
    p.deliver_next(); // Prepare
                      // The commit decision is delayed: drop the vote's consequences by
                      // holding the queue, and fire the heuristic deadline first.
    let vote = p.drop_next().expect("vote withheld");
    assert!(p.fire_timer(NodeId(1), txn0(), TimerKind::HeuristicDeadline));
    assert!(p.log_kinds(NodeId(1)).contains(&"Heuristic".to_string()));
    assert_eq!(p.engine(NodeId(1)).metrics().heuristic_decisions, 1);
    // Now the vote arrives late; the coordinator commits; the subordinate
    // compares and reports damage in its ack.
    p.redeliver(&vote);
    p.run_to_quiescence();
    assert_eq!(p.engine(NodeId(1)).metrics().heuristic_damage, 1);
    let root_note = &p.notifications[0];
    assert_eq!(root_note.outcome, Outcome::Commit);
    assert!(root_note.report.damaged.contains(&NodeId(1)));
}

#[test]
fn read_only_vote_flags_are_plain() {
    // A READ-ONLY vote carries no flags by construction; make sure the
    // engine treats a flagged YES and a read-only vote distinctly.
    let yes = Vote::Yes(VoteFlags {
        ok_to_leave_out: true,
        ..VoteFlags::NONE
    });
    assert_ne!(yes, Vote::ReadOnly);
    assert!(yes.is_yes());
    assert!(!Vote::ReadOnly.is_yes());
}

#[test]
fn stale_timers_for_finished_transactions_are_ignored() {
    let mut p = Pump::homogeneous(2, ProtocolKind::PresumedAbort);
    start_pair_commit(&mut p);
    p.run_to_quiescence();
    // Both engines are done; firing every conceivably stale timer must
    // not panic or emit anything.
    for kind in [
        TimerKind::VoteCollection,
        TimerKind::AckCollection,
        TimerKind::InDoubtQuery,
        TimerKind::HeuristicDeadline,
    ] {
        p.feed(NodeId(0), Event::TimerFired { txn: txn0(), kind });
        p.feed(NodeId(1), Event::TimerFired { txn: txn0(), kind });
    }
    assert!(p.queue.is_empty());
}

#[test]
fn partner_failure_aborts_only_unvoted_transactions() {
    let mut p = Pump::homogeneous(3, ProtocolKind::PresumedAbort);
    let t_voted = TxnId::new(NodeId(0), 1);
    let t_working = TxnId::new(NodeId(0), 2);
    // Transaction 1 reaches the in-doubt stage at N1.
    p.feed(
        NodeId(0),
        Event::SendWork {
            txn: t_voted,
            to: NodeId(1),
            payload: vec![],
        },
    );
    p.deliver_next();
    p.feed(NodeId(0), Event::CommitRequested { txn: t_voted });
    p.deliver_next(); // Prepare
    assert_eq!(
        p.engine(NodeId(1)).seat(t_voted).unwrap().stage,
        Stage::InDoubt
    );
    // The vote for transaction 1 is lost (its coordinator never hears
    // it, matching the partner-failure scenario).
    p.drop_next();
    // Transaction 2 is still working at N1.
    p.feed(
        NodeId(0),
        Event::SendWork {
            txn: t_working,
            to: NodeId(1),
            payload: vec![],
        },
    );
    p.deliver_next();
    assert_eq!(
        p.engine(NodeId(1)).seat(t_working).unwrap().stage,
        Stage::Working
    );
    // The coordinator's conversation fails.
    p.feed(NodeId(1), Event::PartnerFailed { peer: NodeId(0) });
    // The unvoted transaction aborted; the in-doubt one is untouched.
    assert_eq!(
        p.engine(NodeId(1))
            .completed_seat(t_working)
            .unwrap()
            .outcome,
        Some(Outcome::Abort)
    );
    assert_eq!(
        p.engine(NodeId(1)).seat(t_voted).unwrap().stage,
        Stage::InDoubt
    );
}
