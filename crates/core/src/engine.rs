//! The transaction-manager engine: one sans-IO state machine implementing
//! every protocol family and optimization in the paper.
//!
//! See the crate docs for the design overview. The engine's externally
//! visible behaviour is specified by the paper's figures:
//!
//! * Figures 1–2 — baseline 2PC, flat and cascaded;
//! * Figure 3 — Presumed Nothing with an intermediate coordinator;
//! * Figure 4 — partial read-only;
//! * Figure 6 — last agent;
//! * Figure 7 — long locks;
//! * Figure 8 — vote reliable (early acks with late-ack semantics);
//!
//! and its per-configuration log/flow counts are validated against the
//! analytic formulas of §4 by the `tpc-bench` table generators.

use tpc_common::{
    DamageReport, Error, HeuristicOutcome, HeuristicPolicy, IdMap, IdSet, Lsn, NodeId,
    OptimizationConfig, Outcome, ProtocolKind, ProtocolRules, Result, SimDuration, SimTime, TxnId,
    Vote, VoteFlags,
};
use tpc_wal::{Durability, LogRecord, StreamId};

use crate::event::{Action, Event, LocalDisposition, LocalVote, TimerKind};
use crate::messages::ProtocolMsg;
use crate::metrics::EngineMetrics;
use crate::recovery::summarize;
use crate::seat::{ChildState, LocalState, Seat, Stage};

/// Failure-handling timer defaults. Only failure scenarios ever see these
/// fire; the normal case is timer-free on the wire.
#[derive(Clone, Copy, Debug)]
pub struct Timeouts {
    /// Coordinator's patience for votes before aborting.
    pub vote_collection: SimDuration,
    /// Patience for acknowledgments before resending the decision.
    pub ack_collection: SimDuration,
    /// In-doubt subordinate's re-query period (subordinate-driven
    /// recovery; not used by PN, whose coordinator drives recovery).
    pub in_doubt_query: SimDuration,
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts {
            vote_collection: SimDuration::from_secs(10),
            ack_collection: SimDuration::from_secs(10),
            in_doubt_query: SimDuration::from_secs(30),
        }
    }
}

/// How a recovered TM resolves one of its resource managers' in-doubt
/// transactions after restart (see [`TmEngine::recovered_disposition`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InDoubtDisposition {
    /// The durable TM state says the transaction committed.
    Commit,
    /// The durable TM state says it aborted — or the TM never voted, so
    /// abort is safe under every protocol (the vote could not have been
    /// sent without the TM's prepared force).
    Abort,
    /// Genuinely in doubt: the distributed protocol resolves it.
    AwaitOutcome,
}

/// Static configuration of one node's transaction manager.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// This node's identity.
    pub node: NodeId,
    /// Protocol family.
    pub protocol: ProtocolKind,
    /// Optimization switches (§4).
    pub opts: OptimizationConfig,
    /// Failure timers.
    pub timeouts: Timeouts,
    /// What this TM does when left in doubt too long.
    pub heuristic: HeuristicPolicy,
}

impl EngineConfig {
    /// A plain configuration for `node` running `protocol` with no
    /// optimizations and no heuristics.
    pub fn new(node: NodeId, protocol: ProtocolKind) -> Self {
        EngineConfig {
            node,
            protocol,
            opts: OptimizationConfig::none(),
            timeouts: Timeouts::default(),
            heuristic: HeuristicPolicy::Never,
        }
    }

    /// Replaces the optimization switches.
    pub fn with_opts(mut self, opts: OptimizationConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the heuristic policy.
    pub fn with_heuristic(mut self, policy: HeuristicPolicy) -> Self {
        self.heuristic = policy;
        self
    }
}

/// One deferred acknowledgment: the partner it is owed to and the ack
/// message itself. Normally private bookkeeping — exposed so a
/// multi-lane host can move deferred acks into a node-level piggyback
/// slot that outbound frames of *any* lane drain.
#[derive(Clone, Debug)]
pub struct OwedAck {
    /// Destination partner.
    pub to: NodeId,
    /// The deferred acknowledgment message.
    pub msg: ProtocolMsg,
}

/// One node's transaction manager.
///
/// ```
/// use tpc_common::{NodeId, Outcome, ProtocolKind, TxnId};
/// use tpc_core::testkit::Pump;
/// use tpc_core::Event;
///
/// // Two engines, driven sans-IO through the testkit pump.
/// let mut pump = Pump::homogeneous(2, ProtocolKind::PresumedAbort);
/// let txn = TxnId::new(NodeId(0), 1);
/// pump.feed(NodeId(0), Event::SendWork { txn, to: NodeId(1), payload: vec![] });
/// pump.feed(NodeId(0), Event::CommitRequested { txn });
/// pump.run_to_quiescence();
/// assert_eq!(pump.engine(NodeId(0)).finished_outcome(txn), Some(Outcome::Commit));
/// assert_eq!(pump.engine(NodeId(1)).finished_outcome(txn), Some(Outcome::Commit));
/// ```
#[derive(Debug)]
pub struct TmEngine {
    cfg: EngineConfig,
    /// The protocol family's row of the rules table: every per-family
    /// decision reads it.
    rules: &'static ProtocolRules,
    seats: IdMap<TxnId, Seat>,
    /// Final seats, kept for recovery queries, re-delivery and reporting.
    completed: IdMap<TxnId, Seat>,
    /// Durable-outcome index for recovery queries (PA aborts deliberately
    /// absent: they are *presumed*).
    finished: IdMap<TxnId, Outcome>,
    /// Acks deferred by long locks or owed as implied acks; they ride on
    /// the next frame to their destination (or are flushed explicitly).
    owed: Vec<OwedAck>,
    /// Standing conversation partners downstream of this node: enrolled in
    /// every commit tree unless the leave-out rule exempts them.
    session_partners: Vec<NodeId>,
    /// Partners whose last committed vote asserted `ok_to_leave_out`.
    leave_out_ok: IdSet<NodeId>,
    metrics: EngineMetrics,
}

impl TmEngine {
    /// Creates an engine; rejects contradictory optimization configs.
    pub fn new(cfg: EngineConfig) -> Result<Self> {
        cfg.opts.validate()?;
        Ok(TmEngine {
            rules: cfg.protocol.rules(),
            cfg,
            seats: IdMap::default(),
            completed: IdMap::default(),
            finished: IdMap::default(),
            owed: Vec::new(),
            session_partners: Vec::new(),
            leave_out_ok: IdSet::default(),
            metrics: EngineMetrics::default(),
        })
    }

    /// This node's identity.
    pub fn node(&self) -> NodeId {
        self.cfg.node
    }

    /// The static configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Counters.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Active seat for `txn`.
    pub fn seat(&self, txn: TxnId) -> Option<&Seat> {
        self.seats.get(&txn)
    }

    /// Final seat for `txn`, once commit processing completed here.
    pub fn completed_seat(&self, txn: TxnId) -> Option<&Seat> {
        self.completed.get(&txn)
    }

    /// Number of transactions still in flight at this node.
    pub fn active_txns(&self) -> usize {
        self.seats.len()
    }

    /// Iterates over the seats still in flight (unresolved transactions).
    pub fn active_seats(&self) -> impl Iterator<Item = &Seat> {
        self.seats.values()
    }

    /// Iterates over retired seats (completed transactions).
    pub fn completed_seats(&self) -> impl Iterator<Item = &Seat> {
        self.completed.values()
    }

    /// Durable outcome of a finished transaction, if retained.
    pub fn finished_outcome(&self, txn: TxnId) -> Option<Outcome> {
        self.finished.get(&txn).copied()
    }

    /// Declares a standing downstream conversation partner. Standing
    /// partners are enrolled in every commit this node coordinates, even
    /// when untouched — unless the leave-out optimization exempts them.
    pub fn add_session_partner(&mut self, peer: NodeId) {
        if !self.session_partners.contains(&peer) {
            self.session_partners.push(peer);
        }
    }

    /// Is `peer` currently exempt from enrollment (voted `ok_to_leave_out`
    /// in the last committed transaction)?
    pub fn is_leave_out_eligible(&self, peer: NodeId) -> bool {
        self.leave_out_ok.contains(&peer)
    }

    /// Acks currently deferred (long locks / implied acks).
    pub fn owed_ack_count(&self) -> usize {
        self.owed.len()
    }

    /// Removes and returns every deferred ack without emitting frames or
    /// touching the metrics. The caller assumes the delivery obligation:
    /// a multi-lane host parks these in a node-level piggyback slot so
    /// later outbound frames of *other* transactions — on any lane — can
    /// carry them.
    pub fn take_owed_acks(&mut self) -> Vec<OwedAck> {
        std::mem::take(&mut self.owed)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    /// Feeds one event; returns the actions the harness must execute.
    pub fn handle(&mut self, now: SimTime, event: Event) -> Result<Vec<Action>> {
        let mut out = Vec::new();
        match event {
            Event::SendWork { txn, to, payload } => {
                self.on_send_work(txn, to, payload, now, &mut out)?
            }
            Event::CommitRequested { txn } => self.on_commit_requested(txn, now, &mut out)?,
            Event::AbortRequested { txn } => self.on_abort_requested(txn, now, &mut out)?,
            Event::SelfPrepare { txn } => self.on_self_prepare(txn, now, &mut out)?,
            Event::LocalPrepared { txn, vote } => {
                self.on_local_prepared(txn, vote, now, &mut out)?
            }
            Event::MsgReceived { from, msg } => self.on_msg(from, msg, now, &mut out)?,
            Event::TimerFired { txn, kind } => self.on_timer(txn, kind, now, &mut out)?,
            Event::PartnerFailed { peer } => self.on_partner_failed(peer, now, &mut out),
        }
        Ok(self.coalesce(out))
    }

    /// Flushes deferred acks as explicit frames (end of conversation /
    /// session close). Normally they piggyback for free; this exists so a
    /// final transaction still completes its partners' bookkeeping.
    pub fn flush_owed_acks(&mut self) -> Vec<Action> {
        let owed = std::mem::take(&mut self.owed);
        let mut out = Vec::new();
        for ack in owed {
            self.metrics.frames_sent += 1;
            self.metrics.messages_sent += 1;
            out.push(Action::Send {
                to: ack.to,
                msgs: vec![ack.msg],
            });
        }
        self.coalesce(out)
    }

    /// Merges `Send` actions to the same destination emitted within one
    /// `handle` call into single frames — the engine-level piggybacking
    /// that makes implied acks and coupled flows free on the wire.
    fn coalesce(&mut self, actions: Vec<Action>) -> Vec<Action> {
        let mut out: Vec<Action> = Vec::with_capacity(actions.len());
        for action in actions {
            if let Action::Send { to, msgs } = action {
                if let Some(Action::Send {
                    to: prev_to,
                    msgs: prev_msgs,
                }) = out
                    .iter_mut()
                    .rev()
                    .find(|a| matches!(a, Action::Send { to: t, .. } if *t == to))
                {
                    debug_assert_eq!(*prev_to, to);
                    self.metrics.frames_sent -= 1;
                    self.metrics.piggybacked_messages += msgs.len() as u64;
                    prev_msgs.extend(msgs);
                    continue;
                }
                out.push(Action::Send { to, msgs });
            } else {
                out.push(action);
            }
        }
        out
    }

    /// Emits one frame to `to`, draining any owed acks for that
    /// destination into it as piggyback.
    fn push_send(&mut self, out: &mut Vec<Action>, to: NodeId, msg: ProtocolMsg) {
        if matches!(msg, ProtocolMsg::Work { .. }) {
            self.metrics.work_frames += 1;
        }
        let mut msgs = vec![msg];
        let mut i = 0;
        while i < self.owed.len() {
            if self.owed[i].to == to {
                msgs.push(self.owed.remove(i).msg);
            } else {
                i += 1;
            }
        }
        self.metrics.frames_sent += 1;
        self.metrics.messages_sent += msgs.len() as u64;
        self.metrics.piggybacked_messages += (msgs.len() - 1) as u64;
        out.push(Action::Send { to, msgs });
    }

    fn rm_prepare_durability(&self) -> Durability {
        if self.cfg.opts.shared_log {
            Durability::NonForced
        } else {
            Durability::Forced
        }
    }

    fn rm_commit_durability(&self) -> Durability {
        if self.cfg.opts.shared_log {
            Durability::NonForced
        } else {
            Durability::Forced
        }
    }

    /// The pre-Phase-1 force of a coordinator seat (§3 / Figure 3): under
    /// PN the seat durably names its subordinates before any Prepare
    /// leaves, so a crash mid-voting restarts as an explicit abort.
    fn log_commit_pending(&self, txn: TxnId, out: &mut Vec<Action>) {
        if self.rules.commit_pending {
            out.push(Action::Log {
                record: LogRecord::CommitPending {
                    txn,
                    subordinates: self.seats[&txn].children.iter().map(|c| c.node).collect(),
                },
                durability: Durability::Forced,
            });
        }
    }

    // ------------------------------------------------------------------
    // Application-facing events
    // ------------------------------------------------------------------

    fn on_send_work(
        &mut self,
        txn: TxnId,
        to: NodeId,
        payload: Vec<u8>,
        _now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        if seat.stage != Stage::Working {
            return Err(Error::InvalidState(format!(
                "{txn}: cannot send work in stage {:?}",
                seat.stage
            )));
        }
        seat.child_mut(to).worked = true;
        self.push_send(out, to, ProtocolMsg::Work { txn, payload });
        Ok(())
    }

    fn on_commit_requested(
        &mut self,
        txn: TxnId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        if seat.stage != Stage::Working {
            return Err(Error::InvalidState(format!(
                "{txn}: commit requested in stage {:?}",
                seat.stage
            )));
        }
        if seat.upstream.is_some() {
            // §3: two participants initiating commit for one transaction
            // is an error; the transaction aborts.
            seat.poisoned = true;
        }
        seat.is_root = true;
        seat.commit_started = Some(now);
        seat.stage = Stage::Voting;
        // The natural last agent is "the last subordinate contacted
        // during the voting phase" (§4) — the most recently *touched*
        // partner, chosen before untouched standing partners are
        // enrolled behind it.
        let touched_last = seat.children.last().map(|c| c.node);

        // Enroll standing partners (peer-to-peer conversations persist
        // across transactions) unless the leave-out exemption applies.
        self.enroll_partners(txn, None);

        if self.seats[&txn].poisoned {
            self.decide(txn, Outcome::Abort, now, out);
            return Ok(());
        }

        self.log_commit_pending(txn, out);

        // Choose a last agent: the most recently touched partner, or —
        // failing any data exchange this transaction — the final
        // enrolled subordinate.
        if self.cfg.opts.last_agent {
            let seat = self.seats.get_mut(&txn).expect("present");
            if let Some(last) = touched_last.or_else(|| seat.children.last().map(|c| c.node)) {
                seat.delegate = Some(last);
                seat.child_mut(last).state = ChildState::Delegate;
            }
        }

        self.send_prepares(txn, out);

        let seat = self.seats.get_mut(&txn).expect("present");
        seat.local = LocalState::Preparing;
        out.push(Action::PrepareLocal {
            txn,
            rm_durability: self.rm_prepare_durability(),
        });
        out.push(Action::SetTimer {
            txn,
            kind: TimerKind::VoteCollection,
            delay: self.cfg.timeouts.vote_collection,
        });
        // Everything else proceeds from LocalPrepared / votes.
        Ok(())
    }

    /// Enrolls every standing partner (other than `skip`) not yet a child
    /// of `txn`'s seat, unless the leave-out exemption applies to it.
    fn enroll_partners(&mut self, txn: TxnId, skip: Option<NodeId>) {
        let seat = self.seats.get_mut(&txn).expect("present");
        let mut skipped = 0u64;
        for &p in &self.session_partners {
            if Some(p) == skip || seat.child(p).is_some() {
                continue;
            }
            if self.cfg.opts.leave_out && self.leave_out_ok.contains(&p) {
                skipped += 1;
                continue;
            }
            seat.child_mut(p);
        }
        self.metrics.left_out_of += skipped;
    }

    /// Phase 1 from a coordinator seat: prepares every enrolled child —
    /// not the delegate, and not a child whose unsolicited vote already
    /// arrived.
    fn send_prepares(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let long_locks = self.cfg.opts.long_locks;
        let targets: Vec<(NodeId, bool)> = self.seats[&txn]
            .children
            .iter()
            .filter(|c| c.state == ChildState::Enrolled)
            .map(|c| (c.node, c.worked))
            .collect();
        for (nodeid, expect_work) in targets {
            self.seats
                .get_mut(&txn)
                .expect("present")
                .child_mut(nodeid)
                .state = ChildState::PrepareSent;
            self.push_send(
                out,
                nodeid,
                ProtocolMsg::Prepare {
                    txn,
                    long_locks,
                    expect_work,
                },
            );
        }
    }

    fn on_abort_requested(
        &mut self,
        txn: TxnId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        if !matches!(seat.stage, Stage::Working) {
            return Err(Error::InvalidState(format!(
                "{txn}: abort requested in stage {:?}",
                seat.stage
            )));
        }
        seat.is_root = true;
        seat.commit_started = Some(now);
        self.decide(txn, Outcome::Abort, now, out);
        Ok(())
    }

    fn on_self_prepare(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) -> Result<()> {
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        if seat.upstream.is_none() {
            return Err(Error::InvalidState(format!(
                "{txn}: self-prepare requires an upstream coordinator"
            )));
        }
        if seat.stage != Stage::Working {
            return Ok(()); // already preparing (e.g. Prepare raced in)
        }
        seat.self_prepared = true;
        seat.commit_started = Some(now);
        self.begin_subordinate_phase_one(txn, now, out);
        Ok(())
    }

    /// Shared entry into Phase 1 for a subordinate (on Prepare receipt or
    /// on self-prepare): cascaded pre-logging, child prepares, local
    /// prepare.
    fn begin_subordinate_phase_one(&mut self, txn: TxnId, _now: SimTime, out: &mut Vec<Action>) {
        // Enroll our own standing partners, same rule as a root.
        let upstream = self.seats[&txn].upstream;
        self.enroll_partners(txn, upstream);

        let seat = self.seats.get_mut(&txn).expect("seat exists");
        seat.stage = Stage::Voting;
        let has_children = !seat.children.is_empty();

        // A cascaded coordinator forces its pre-Phase-1 record before
        // propagating Prepare, as the root does.
        if has_children {
            self.log_commit_pending(txn, out);
        }

        self.send_prepares(txn, out);
        if has_children {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::VoteCollection,
                delay: self.cfg.timeouts.vote_collection,
            });
        }

        let seat = self.seats.get_mut(&txn).expect("present");
        seat.local = LocalState::Preparing;
        out.push(Action::PrepareLocal {
            txn,
            rm_durability: self.rm_prepare_durability(),
        });
    }

    fn on_local_prepared(
        &mut self,
        txn: TxnId,
        vote: LocalVote,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let Some(seat) = self.seats.get_mut(&txn) else {
            return Err(Error::UnknownTxn(txn));
        };
        if seat.local != LocalState::Preparing {
            return Err(Error::InvalidState(format!(
                "{txn}: local prepared in local state {:?}",
                seat.local
            )));
        }
        seat.local = match vote.disposition {
            LocalDisposition::No => LocalState::Refused,
            LocalDisposition::ReadOnly => {
                if self.cfg.opts.read_only {
                    LocalState::ReadOnly
                } else {
                    // Without the optimization an inactive participant
                    // pays the full protocol.
                    LocalState::Yes {
                        reliable: vote.reliable,
                        suspendable: vote.suspendable,
                    }
                }
            }
            LocalDisposition::Yes => LocalState::Yes {
                reliable: vote.reliable,
                suspendable: vote.suspendable,
            },
        };
        self.try_advance_voting(txn, now, out);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn on_msg(
        &mut self,
        from: NodeId,
        msg: ProtocolMsg,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        match msg {
            ProtocolMsg::Work { txn, .. } => self.on_work_received(from, txn, now, out),
            ProtocolMsg::Prepare {
                txn,
                long_locks,
                expect_work,
            } => self.on_prepare(from, txn, long_locks, expect_work, now, out),
            ProtocolMsg::VoteMsg { txn, vote } => self.on_vote(from, txn, vote, now, out),
            ProtocolMsg::Decision { txn, outcome } => {
                self.on_decision(from, txn, outcome, now, out)
            }
            ProtocolMsg::Ack {
                txn,
                report,
                pending,
            } => self.on_ack(from, txn, report, pending, now, out),
            ProtocolMsg::Query { txn } => self.on_query(from, txn, now, out),
            ProtocolMsg::OutcomeUnknown { txn } => {
                // Stay in doubt; the query timer re-fires. Nothing to do.
                let _ = txn;
                Ok(())
            }
        }
    }

    fn on_work_received(
        &mut self,
        from: NodeId,
        txn: TxnId,
        _now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        let first_contact = seat.upstream.is_none();
        match seat.upstream {
            None => seat.upstream = Some(from),
            Some(up) if up == from => {}
            Some(_) => {
                // Work for one transaction from two different parents:
                // the tree is broken (Figure 5 territory). Poison.
                seat.poisoned = true;
            }
        }
        // Working-stage liveness: if the Prepare (or a presumption-style
        // abort, which is never retried) gets lost — or the coordinator
        // dies before durably learning it has subordinates — a Working
        // seat would idle forever holding resources. The query fires well
        // after the coordinator's vote-collection window, so a live
        // coordinator has decided by then. PN cancels it again at the
        // YES vote (its *in-doubt* recovery is coordinator-driven); the
        // pre-vote window needs liveness under every protocol, because a
        // PN coordinator that never forced its commit-pending record has
        // nothing to drive recovery from.
        if first_contact {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::InDoubtQuery,
                delay: SimDuration::from_micros(
                    self.cfg.timeouts.vote_collection.as_micros()
                        + self.cfg.timeouts.in_doubt_query.as_micros(),
                ),
            });
        }
        Ok(())
    }

    fn on_prepare(
        &mut self,
        from: NodeId,
        txn: TxnId,
        long_locks: bool,
        expect_work: bool,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        // Re-delivery to a finished seat: repeat our vote. A seat that
        // finished without ever voting (e.g. aborted on a two-initiator
        // conflict or a conversation failure) answers NO — it can no
        // longer guarantee anything.
        if let Some(done) = self.completed.get(&txn) {
            match done.sent_vote {
                Some(v) => self.push_send(out, from, ProtocolMsg::VoteMsg { txn, vote: v }),
                None => self.push_send(
                    out,
                    from,
                    ProtocolMsg::VoteMsg {
                        txn,
                        vote: Vote::No,
                    },
                ),
            }
            return Ok(());
        }
        let first_contact = !self.seats.contains_key(&txn);
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        if first_contact && expect_work {
            // The coordinator conversed with us during this transaction,
            // but we have no trace of it: our state was lost in a crash,
            // or the Work frame never arrived. Either way the work's
            // local effects are gone, so a YES (or READ-ONLY) vote would
            // commit a transaction missing its updates here. Poison the
            // seat; Phase 1 below turns that into a NO vote with full
            // bookkeeping.
            seat.poisoned = true;
        }
        match seat.upstream {
            None => seat.upstream = Some(from),
            Some(up) if up == from => {}
            Some(_) => {
                seat.poisoned = true;
            }
        }
        if seat.is_root {
            // We initiated commit ourselves and now someone prepares us:
            // two coordinators own the decision. Abort.
            seat.poisoned = true;
            self.push_send(
                out,
                from,
                ProtocolMsg::VoteMsg {
                    txn,
                    vote: Vote::No,
                },
            );
            if self.seats[&txn].stage == Stage::Voting {
                self.try_advance_voting(txn, now, out);
            }
            return Ok(());
        }
        match self.seats[&txn].stage {
            Stage::Working => {
                let seat = self.seats.get_mut(&txn).expect("present");
                // The coordinator may request long locks in the Prepare
                // (Figure 7); a subordinate configured for long locks
                // defers its ack on its own initiative too.
                seat.long_locks_deferred_ack = long_locks || self.cfg.opts.long_locks;
                seat.commit_started = Some(now);
                self.begin_subordinate_phase_one(txn, now, out);
                self.try_advance_voting(txn, now, out);
            }
            Stage::Voting => {
                // Raced with self-prepare; remember the long-locks wish.
                let seat = self.seats.get_mut(&txn).expect("present");
                seat.long_locks_deferred_ack = long_locks || self.cfg.opts.long_locks;
            }
            Stage::InDoubt | Stage::Delegated => {
                // Vote may have been lost: re-send it.
                if let Some(v) = self.seats[&txn].sent_vote {
                    self.push_send(out, from, ProtocolMsg::VoteMsg { txn, vote: v });
                }
            }
            Stage::Deciding | Stage::Done => {}
        }
        Ok(())
    }

    fn on_vote(
        &mut self,
        from: NodeId,
        txn: TxnId,
        vote: Vote,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        // A vote from our *upstream* is a last-agent delegation (§4): the
        // initiator hands us the commit decision.
        let is_delegation = self
            .seats
            .get(&txn)
            .and_then(|s| s.upstream)
            .map(|up| up == from)
            .unwrap_or(false)
            || matches!(
                (&vote, self.seats.get(&txn)),
                (Vote::Yes(f), _) if f.last_agent_delegation
            );
        if is_delegation {
            return self.on_delegation(from, txn, vote, now, out);
        }

        let Some(seat) = self.seats.get_mut(&txn) else {
            // Vote for a transaction we already decided (e.g. duplicate).
            return Ok(());
        };
        if let Some(outcome) = seat.outcome {
            // The vote lost a race with the decision (the vote-collection
            // timeout counted it NO, or the frame was delayed in
            // transit). The child's state already reflects the decision
            // re-drive — DecisionSent under ack-collecting protocols —
            // and recording the vote now would clobber that and silence
            // the retries the child depends on to learn the outcome
            // (fatal under PN, where subordinates never query). A YES
            // voter is in doubt: answer it directly instead.
            if matches!(vote, Vote::Yes(_)) {
                self.push_send(out, from, ProtocolMsg::Decision { txn, outcome });
            }
            return Ok(());
        }
        // Record the child's vote.
        match vote {
            Vote::Yes(flags) => {
                seat.leave_out_votes.push((from, flags.ok_to_leave_out));
                seat.child_mut(from).state = ChildState::VotedYes(flags);
            }
            Vote::No => {
                seat.child_mut(from).state = ChildState::VotedNo;
            }
            Vote::ReadOnly => {
                seat.child_mut(from).state = ChildState::VotedReadOnly;
            }
        }
        if matches!(seat.stage, Stage::Voting) {
            self.try_advance_voting(txn, now, out);
        }
        // Votes arriving in Working stage (unsolicited) are just recorded.
        Ok(())
    }

    /// We are the chosen last agent: the initiator delegated the commit
    /// decision to us (Figure 6). A READ-ONLY delegation means the
    /// initiator (and its whole remaining tree) is read-only and keeps no
    /// recoverable state.
    fn on_delegation(
        &mut self,
        from: NodeId,
        txn: TxnId,
        vote: Vote,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let no_trace = !self.seats.contains_key(&txn);
        let seat = self.seats.entry(txn).or_insert_with(|| Seat::new(txn));
        match seat.upstream {
            None => seat.upstream = Some(from),
            Some(up) if up == from => {}
            Some(_) => seat.poisoned = true,
        }
        match vote {
            Vote::Yes(flags) if flags.last_agent_delegation => {
                seat.is_delegate = true;
                seat.initiator_prepared = true;
                // The initiator conversed with us, yet we have no trace
                // of the transaction: our work died in a crash (frames
                // are FIFO per pair, so the Work frame cannot still be
                // in flight behind the delegation). Committing would
                // commit effects that no longer exist — decide ABORT.
                if flags.expect_work && no_trace {
                    seat.poisoned = true;
                }
            }
            Vote::ReadOnly => {
                seat.is_delegate = true;
                seat.initiator_prepared = false;
            }
            Vote::No => {
                // The initiator tells us it cannot commit — abort.
                seat.poisoned = true;
                seat.is_delegate = true;
            }
            Vote::Yes(_) => {
                // A plain YES from upstream makes no protocol sense;
                // treat as delegation for robustness.
                seat.is_delegate = true;
                seat.initiator_prepared = true;
            }
        }
        if seat.commit_started.is_none() {
            seat.commit_started = Some(now);
        }
        match self.seats[&txn].stage {
            Stage::Working => {
                self.begin_subordinate_phase_one(txn, now, out);
                self.try_advance_voting(txn, now, out);
            }
            Stage::Voting => {
                self.try_advance_voting(txn, now, out);
            }
            _ => {}
        }
        Ok(())
    }

    fn on_decision(
        &mut self,
        from: NodeId,
        txn: TxnId,
        outcome: Outcome,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        if !self.seats.contains_key(&txn) {
            // Finished or unknown: satisfy at-least-once redelivery. The
            // coordinator retries until acked, so repeat the ack when the
            // protocol collects one.
            if self.rules.remembers(outcome) {
                let report = self
                    .completed
                    .get(&txn)
                    .map(|s| s.report.clone())
                    .unwrap_or_default();
                self.push_send(
                    out,
                    from,
                    ProtocolMsg::Ack {
                        txn,
                        report,
                        pending: false,
                    },
                );
            }
            return Ok(());
        }
        // A duplicate Decision while our ack sits in the deferred
        // (long-locks) queue is the coordinator re-driving recovery: it
        // paid a flow to reclaim its pending-list entry, so stop waiting
        // for a piggyback opportunity and answer now.
        if self
            .seats
            .get(&txn)
            .is_some_and(|s| matches!(s.stage, Stage::Deciding | Stage::Done))
        {
            let mut i = 0;
            while i < self.owed.len() {
                if self.owed[i].to == from && self.owed[i].msg.txn() == txn {
                    let ack = self.owed.remove(i);
                    self.metrics.frames_sent += 1;
                    self.metrics.messages_sent += 1;
                    out.push(Action::Send {
                        to: ack.to,
                        msgs: vec![ack.msg],
                    });
                } else {
                    i += 1;
                }
            }
        }
        self.apply_decision(txn, outcome, now, out);
        Ok(())
    }

    fn on_ack(
        &mut self,
        from: NodeId,
        txn: TxnId,
        report: DamageReport,
        pending: bool,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        self.metrics.damage_reports_received += report.damaged.len() as u64;
        if let Some(seat) = self.seats.get_mut(&txn) {
            if seat.is_delegate && seat.upstream == Some(from) {
                seat.awaiting_initiator_ack = false;
                seat.report.merge(&report);
            } else if seat.child(from).is_some() {
                seat.report.merge(&report);
                seat.child_mut(from).state = if pending {
                    ChildState::AckPending
                } else {
                    ChildState::Acked
                };
            }
            self.try_advance_deciding(txn, now, out);
        } else if let Some(done) = self.completed.get_mut(&txn) {
            // Late ack after a wait-for-outcome completion: record the
            // straggler's report for post-hoc inspection.
            done.report.merge(&report);
        }
        Ok(())
    }

    fn on_query(
        &mut self,
        from: NodeId,
        txn: TxnId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        self.metrics.recovery_queries_answered += 1;
        // Active seat?
        if let Some(seat) = self.seats.get(&txn) {
            match seat.outcome {
                Some(outcome) => {
                    self.push_send(out, from, ProtocolMsg::Decision { txn, outcome });
                }
                None => match seat.stage {
                    Stage::Voting => {
                        // A participant is already recovering: resolve by
                        // aborting (its vote may never arrive).
                        self.push_send(
                            out,
                            from,
                            ProtocolMsg::Decision {
                                txn,
                                outcome: Outcome::Abort,
                            },
                        );
                        self.decide(txn, Outcome::Abort, now, out);
                    }
                    _ => {
                        // We are in doubt ourselves; we cannot answer.
                        self.push_send(out, from, ProtocolMsg::OutcomeUnknown { txn });
                    }
                },
            }
            return Ok(());
        }
        // Finished with retained outcome?
        if let Some(&outcome) = self.finished.get(&txn) {
            self.push_send(out, from, ProtocolMsg::Decision { txn, outcome });
            return Ok(());
        }
        // No information: the presumption is the protocol's namesake.
        let reply = match self.rules.presumption {
            Some(outcome) => ProtocolMsg::Decision { txn, outcome },
            None => ProtocolMsg::OutcomeUnknown { txn },
        };
        self.push_send(out, from, reply);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Progress: voting phase
    // ------------------------------------------------------------------

    /// Central Phase 1 progress check, called whenever a vote or the local
    /// prepare result arrives.
    fn try_advance_voting(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let Some(seat) = self.seats.get(&txn) else {
            return;
        };
        if seat.stage != Stage::Voting {
            return;
        }
        // Local result still outstanding?
        if matches!(seat.local, LocalState::Preparing | LocalState::Unprepared) {
            return;
        }
        // Fast abort on any NO / poison.
        if seat.local == LocalState::Refused || seat.any_vote_no() || seat.poisoned {
            if seat.is_root || seat.is_delegate {
                self.decide(txn, Outcome::Abort, now, out);
            } else {
                self.subordinate_vote_no(txn, now, out);
            }
            return;
        }
        // All votes in (the delegate never votes — it decides)?
        let votes_in = seat
            .children
            .iter()
            .all(|c| c.state.voted() || c.state == ChildState::Delegate);
        if !votes_in {
            return;
        }
        out.push(Action::CancelTimer {
            txn,
            kind: TimerKind::VoteCollection,
        });
        // Snapshot subtree reliability while the vote states are intact
        // (§4 Vote Reliable: "the intermediates collect the reliability
        // information during every first phase").
        let reliable_now = (seat.local_reliable() || seat.local == LocalState::ReadOnly)
            && seat.all_yes_children_reliable();
        let seat = self.seats.get_mut(&txn).expect("present");
        seat.subtree_reliable = reliable_now;
        let seat = self.seats.get(&txn).expect("present");
        if seat.is_root || seat.is_delegate {
            if let Some(delegate) = seat.delegate {
                self.delegate_decision(txn, delegate, now, out);
            } else {
                self.decide(txn, Outcome::Commit, now, out);
            }
        } else {
            self.subordinate_vote(txn, now, out);
        }
    }

    /// A subordinate (leaf or cascaded) sends its vote upstream.
    fn subordinate_vote(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("checked");
        let upstream = seat.upstream.expect("subordinate has upstream");

        // Fully read-only subtree: vote READ-ONLY and vanish (§4).
        if self.cfg.opts.read_only
            && seat.local == LocalState::ReadOnly
            && seat.all_children_read_only()
        {
            seat.sent_vote = Some(Vote::ReadOnly);
            seat.outcome = Some(Outcome::Commit); // either outcome is fine
            seat.stage = Stage::Done;
            seat.finished_at = Some(now);
            out.push(Action::ForgetLocal { txn });
            self.push_send(
                out,
                upstream,
                ProtocolMsg::VoteMsg {
                    txn,
                    vote: Vote::ReadOnly,
                },
            );
            out.push(Action::TxnEnded { txn });
            let done = self.seats.remove(&txn).expect("present");
            self.completed.insert(txn, done);
            return;
        }

        // Otherwise: force the prepared record and vote YES.
        let flags = VoteFlags {
            ok_to_leave_out: self.cfg.opts.leave_out
                && seat.local_suspendable()
                && seat.all_yes_children_leave_out(),
            reliable: seat.local_reliable() && seat.all_yes_children_reliable(),
            unsolicited: seat.self_prepared,
            last_agent_delegation: false,
            expect_work: false,
        };
        let subs: Vec<NodeId> = seat.decision_targets();
        let vote = Vote::Yes(flags);
        seat.sent_vote = Some(vote);
        seat.stage = Stage::InDoubt;
        out.push(Action::Log {
            record: LogRecord::Prepared {
                txn,
                coordinator: upstream,
                subordinates: subs,
                prepared_at: now,
            },
            durability: Durability::Forced,
        });
        self.push_send(out, upstream, ProtocolMsg::VoteMsg { txn, vote });
        self.arm_in_doubt_timers(txn, out);
    }

    fn arm_in_doubt_timers(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        // Subordinate-driven recovery unless the coordinator drives it
        // from its commit-pending record (PN) — then the pre-vote
        // liveness timer is cancelled here instead.
        // One exception: an UNSOLICITED voter entered in-doubt before its
        // coordinator may have forced that commit-pending record (the
        // Prepare never arrived), so coordinator-driven recovery has
        // nothing durable to drive from — it must query for itself.
        let unsolicited_voter = self.seats.get(&txn).is_some_and(|s| s.self_prepared);
        if !self.rules.coordinator_recovers || unsolicited_voter {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::InDoubtQuery,
                delay: self.cfg.timeouts.in_doubt_query,
            });
        } else {
            out.push(Action::CancelTimer {
                txn,
                kind: TimerKind::InDoubtQuery,
            });
        }
        if let Some(deadline) = self.cfg.heuristic.timeout() {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::HeuristicDeadline,
                delay: deadline,
            });
        }
    }

    /// A subordinate votes NO: it aborts its subtree unilaterally (it
    /// knows the outcome) and tells its coordinator.
    fn subordinate_vote_no(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("checked");
        let upstream = seat.upstream.expect("subordinate has upstream");
        seat.sent_vote = Some(Vote::No);
        self.push_send(
            out,
            upstream,
            ProtocolMsg::VoteMsg {
                txn,
                vote: Vote::No,
            },
        );
        // Drive our own subtree to abort. decide() handles protocol
        // logging and child propagation; it will keep the seat alive to
        // answer the coordinator's Abort with an Ack where required.
        self.decide(txn, Outcome::Abort, now, out);
    }

    /// Last-agent delegation: everything but the delegate is prepared;
    /// hand the decision over (Figure 6).
    fn delegate_decision(
        &mut self,
        txn: TxnId,
        delegate: NodeId,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let seat = self.seats.get_mut(&txn).expect("checked");
        seat.stage = Stage::Delegated;

        // A fully read-only initiator delegates with a READ-ONLY vote and
        // keeps no recoverable state (§4 Last Agent, read-only variant).
        let initiator_read_only = self.cfg.opts.read_only
            && seat.local == LocalState::ReadOnly
            && seat
                .children
                .iter()
                .all(|c| c.state == ChildState::VotedReadOnly || c.state == ChildState::Delegate);
        let vote = if initiator_read_only {
            out.push(Action::ForgetLocal { txn });
            Vote::ReadOnly
        } else {
            // Force a prepared record so an in-doubt restart knows to ask
            // the delegate. PN's commit-pending force already names the
            // delegate, so the paper lets PN skip the extra force — the
            // prepared record rides unforced there.
            let subs: Vec<NodeId> = seat.decision_targets();
            let durability = if self.rules.commit_pending {
                Durability::NonForced
            } else {
                Durability::Forced
            };
            out.push(Action::Log {
                record: LogRecord::Prepared {
                    txn,
                    coordinator: delegate,
                    subordinates: subs,
                    prepared_at: now,
                },
                durability,
            });
            Vote::Yes(VoteFlags {
                ok_to_leave_out: false,
                reliable: false,
                unsolicited: false,
                last_agent_delegation: true,
                // Same defense as Prepare's field: a delegate we
                // conversed with that has no trace of the transaction
                // lost its work in a crash and must decide ABORT.
                expect_work: seat.children.iter().any(|c| c.node == delegate && c.worked),
            })
        };
        let seat = self.seats.get_mut(&txn).expect("present");
        seat.sent_vote = Some(vote);
        self.push_send(out, delegate, ProtocolMsg::VoteMsg { txn, vote });
        // A delegating initiator is in doubt exactly like a prepared
        // subordinate: if the delegate dies before answering, only a
        // periodic query resolves us.
        out.push(Action::SetTimer {
            txn,
            kind: TimerKind::InDoubtQuery,
            delay: self.cfg.timeouts.in_doubt_query,
        });
        if let Some(deadline) = self.cfg.heuristic.timeout() {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::HeuristicDeadline,
                delay: deadline,
            });
        }
    }

    // ------------------------------------------------------------------
    // Progress: decision phase
    // ------------------------------------------------------------------

    /// This node owns the decision (root, delegate, or unilateral
    /// subtree-abort): log it, apply it locally, propagate it.
    fn decide(&mut self, txn: TxnId, outcome: Outcome, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("decide on live seat");
        debug_assert!(seat.outcome.is_none(), "{txn} decided twice");
        seat.outcome = Some(outcome);
        seat.decided_at = Some(now);
        if seat.is_root || seat.is_delegate {
            self.metrics.decided += 1;
            match outcome {
                Outcome::Commit => self.metrics.committed += 1,
                Outcome::Abort => self.metrics.aborted += 1,
            }
        }
        out.push(Action::CancelTimer {
            txn,
            kind: TimerKind::VoteCollection,
        });

        match outcome {
            Outcome::Commit => self.decide_commit(txn, now, out),
            Outcome::Abort => self.decide_abort(txn, now, out),
        }
    }

    fn decide_commit(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("present");

        // The all-read-only commit: no second phase at all (§4 Read Only;
        // "PA performs no logging at all if all subordinates vote
        // read-only"). A delegate whose *initiator is prepared* cannot
        // take this shortcut: it owns the decision the initiator's forced
        // prepared record will ask about after a crash, so it must log.
        let all_read_only = self.cfg.opts.read_only
            && seat.local == LocalState::ReadOnly
            && seat.all_children_read_only()
            && !(seat.is_delegate && seat.initiator_prepared);
        if all_read_only {
            out.push(Action::ForgetLocal { txn });
            // PN forced a pre-Phase-1 record; close it out (non-forced).
            if self.rules.commit_pending {
                out.push(Action::Log {
                    record: LogRecord::End { txn },
                    durability: Durability::NonForced,
                });
            }
            if seat.is_root && !seat.notified {
                seat.notified = true;
                out.push(Action::NotifyOutcome {
                    txn,
                    outcome: Outcome::Commit,
                    report: seat.report.clone(),
                    pending: false,
                });
            }
            // A read-only-delegated transaction still tells its initiator
            // the outcome (the initiator's application is waiting).
            if seat.is_delegate {
                if let Some(up) = seat.upstream {
                    self.push_send(
                        out,
                        up,
                        ProtocolMsg::Decision {
                            txn,
                            outcome: Outcome::Commit,
                        },
                    );
                }
            }
            self.finish(txn, now, out);
            return;
        }

        let targets = seat.decision_targets();
        let mut commit_record_subs = targets.clone();
        if seat.is_delegate && seat.initiator_prepared {
            if let Some(up) = seat.upstream {
                commit_record_subs.push(up);
            }
        }
        // The commit point: forced at the decider.
        out.push(Action::Log {
            record: LogRecord::Committed {
                txn,
                subordinates: commit_record_subs,
            },
            durability: Durability::Forced,
        });
        if seat.local != LocalState::ReadOnly {
            out.push(Action::CommitLocal {
                txn,
                rm_durability: self.rm_commit_durability(),
            });
        } else {
            out.push(Action::ForgetLocal { txn });
        }
        let seat = self.seats.get_mut(&txn).expect("present");
        seat.local = LocalState::Committed;
        seat.stage = Stage::Deciding;

        // Propagate downward (and to a delegating initiator: upward).
        let mut send_to = targets;
        if seat.is_delegate {
            if let Some(up) = seat.upstream {
                send_to.push(up);
                if seat.initiator_prepared {
                    seat.awaiting_initiator_ack = true;
                }
            }
        }
        for node in send_to {
            let is_initiator = self.seats[&txn].upstream == Some(node);
            if !is_initiator {
                self.seats
                    .get_mut(&txn)
                    .expect("present")
                    .child_mut(node)
                    .state = ChildState::DecisionSent { retries: 0 };
            }
            self.push_send(
                out,
                node,
                ProtocolMsg::Decision {
                    txn,
                    outcome: Outcome::Commit,
                },
            );
        }
        // Same exemption as `propagate_outcome_to_children`: where the
        // coordinator drives recovery, participants never query, so the
        // decider's re-drive timer must survive long locks or a crashed
        // child stays in doubt forever.
        if !self.cfg.opts.long_locks || self.rules.coordinator_recovers {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::AckCollection,
                delay: self.cfg.timeouts.ack_collection,
            });
        }
        self.maybe_notify_early(txn, now, out);
        self.try_advance_deciding(txn, now, out);
    }

    fn decide_abort(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("present");
        // Everyone who may have state learns of the abort: prepared
        // voters, un-voted prepare targets, enrolled workers — and a
        // delegate, had one been chosen.
        let targets: Vec<NodeId> = seat
            .children
            .iter()
            .filter(|c| {
                matches!(
                    c.state,
                    ChildState::Enrolled
                        | ChildState::PrepareSent
                        | ChildState::VotedYes(_)
                        | ChildState::VotedNo
                        | ChildState::Delegate
                )
            })
            .map(|c| c.node)
            .collect();

        let presumed = !self.rules.remembers_aborts;
        if !presumed {
            out.push(Action::Log {
                record: LogRecord::Aborted {
                    txn,
                    subordinates: targets.clone(),
                },
                durability: Durability::Forced,
            });
        }
        if seat.local != LocalState::ReadOnly {
            out.push(Action::AbortLocal {
                txn,
                rm_durability: Durability::NonForced,
            });
        } else {
            out.push(Action::ForgetLocal { txn });
        }
        let seat = self.seats.get_mut(&txn).expect("present");
        seat.local = LocalState::Aborted;
        seat.stage = Stage::Deciding;
        let is_delegate = seat.is_delegate;
        let upstream = seat.upstream;

        for node in targets {
            self.seats
                .get_mut(&txn)
                .expect("present")
                .child_mut(node)
                .state = if presumed {
                ChildState::Acked
            } else {
                ChildState::DecisionSent { retries: 0 }
            };
            self.push_send(
                out,
                node,
                ProtocolMsg::Decision {
                    txn,
                    outcome: Outcome::Abort,
                },
            );
        }
        // A delegate tells the initiator too; a prepared initiator must
        // confirm under ack-collecting protocols.
        if is_delegate {
            if let Some(up) = upstream {
                self.push_send(
                    out,
                    up,
                    ProtocolMsg::Decision {
                        txn,
                        outcome: Outcome::Abort,
                    },
                );
                let seat = self.seats.get_mut(&txn).expect("present");
                if seat.initiator_prepared && !presumed {
                    seat.awaiting_initiator_ack = true;
                }
            }
        }
        if !presumed {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::AckCollection,
                delay: self.cfg.timeouts.ack_collection,
            });
        }
        self.maybe_notify_early(txn, now, out);
        self.try_advance_deciding(txn, now, out);
    }

    /// A participant learns the outcome from its coordinator (or, as a
    /// delegating initiator, from its delegate).
    fn apply_decision(
        &mut self,
        txn: TxnId,
        outcome: Outcome,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let Some(seat) = self.seats.get_mut(&txn) else {
            return;
        };
        match seat.stage {
            Stage::InDoubt | Stage::Delegated => {}
            Stage::Voting | Stage::Working => {
                // An abort can arrive before we voted (vote-collection
                // timeout upstream, or recovery). A *commit* cannot bind
                // us either: our YES was never sent, so no genuine commit
                // decision includes this subtree, and aborting our
                // never-voted work is the safe resolution.
                if seat.sent_vote.is_none() {
                    seat.outcome = Some(Outcome::Abort);
                    seat.decided_at = Some(now);
                    // decide_abort drives the subtree and, via
                    // try_advance_deciding, acks upstream once settled.
                    self.decide_abort(txn, now, out);
                }
                return;
            }
            Stage::Deciding | Stage::Done => return, // duplicate
        }
        out.push(Action::CancelTimer {
            txn,
            kind: TimerKind::InDoubtQuery,
        });
        out.push(Action::CancelTimer {
            txn,
            kind: TimerKind::HeuristicDeadline,
        });
        seat.outcome = Some(outcome);
        seat.decided_at = Some(now);

        // Heuristic residue: we already went one way unilaterally.
        if let Some(h) = seat.heuristic {
            let damaged = h.damages(outcome);
            if damaged {
                self.metrics.heuristic_damage += 1;
                seat.report.damaged.push(self.cfg.node);
            } else {
                seat.report.heuristic_no_damage.push(self.cfg.node);
            }
            // Propagate the real outcome to children regardless — they
            // were not part of our unilateral decision.
            seat.stage = Stage::Deciding;
            self.propagate_outcome_to_children(txn, outcome, out);
            self.try_advance_deciding(txn, now, out);
            return;
        }

        match outcome {
            Outcome::Commit => {
                let subs = self.seats[&txn].decision_targets();
                out.push(Action::Log {
                    record: LogRecord::Committed {
                        txn,
                        subordinates: subs,
                    },
                    durability: Durability::Forced,
                });
                let read_only_local = self.seats[&txn].local == LocalState::ReadOnly;
                if read_only_local {
                    out.push(Action::ForgetLocal { txn });
                } else {
                    out.push(Action::CommitLocal {
                        txn,
                        rm_durability: self.rm_commit_durability(),
                    });
                }
                let seat = self.seats.get_mut(&txn).expect("present");
                seat.local = LocalState::Committed;
                seat.stage = Stage::Deciding;
                self.propagate_outcome_to_children(txn, outcome, out);
                // Early acknowledgment (§4 Commit Acknowledgment / Vote
                // Reliable): ack upstream before children confirm; a
                // delegating root may likewise notify its app early.
                self.maybe_early_ack(txn, now, out);
                self.maybe_notify_early(txn, now, out);
                self.try_advance_deciding(txn, now, out);
            }
            Outcome::Abort => {
                if self.rules.remembers_aborts {
                    let subs = self.seats[&txn].decision_targets();
                    out.push(Action::Log {
                        record: LogRecord::Aborted {
                            txn,
                            subordinates: subs,
                        },
                        durability: Durability::Forced,
                    });
                }
                let read_only_local = self.seats[&txn].local == LocalState::ReadOnly;
                if read_only_local {
                    out.push(Action::ForgetLocal { txn });
                } else {
                    out.push(Action::AbortLocal {
                        txn,
                        rm_durability: Durability::NonForced,
                    });
                }
                let seat = self.seats.get_mut(&txn).expect("present");
                seat.local = LocalState::Aborted;
                seat.stage = Stage::Deciding;
                self.propagate_outcome_to_children(txn, outcome, out);
                self.try_advance_deciding(txn, now, out);
            }
        }
    }

    fn propagate_outcome_to_children(
        &mut self,
        txn: TxnId,
        outcome: Outcome,
        out: &mut Vec<Action>,
    ) {
        let expects_acks = self.rules.remembers(outcome);
        // Note: a `Delegate` child is excluded — this function propagates
        // an outcome *learned from* the delegate, who obviously knows.
        let targets = match outcome {
            Outcome::Commit => self.seats[&txn].decision_targets(),
            Outcome::Abort => self.seats[&txn]
                .children
                .iter()
                .filter(|c| {
                    matches!(
                        c.state,
                        ChildState::Enrolled
                            | ChildState::PrepareSent
                            | ChildState::VotedYes(_)
                            | ChildState::VotedNo
                    )
                })
                .map(|c| c.node)
                .collect(),
        };
        let any_targets = !targets.is_empty();
        for node in targets {
            self.seats
                .get_mut(&txn)
                .expect("present")
                .child_mut(node)
                .state = if expects_acks {
                ChildState::DecisionSent { retries: 0 }
            } else {
                ChildState::Acked
            };
            self.push_send(out, node, ProtocolMsg::Decision { txn, outcome });
        }
        // Long locks defers the children's acks to piggyback on later
        // traffic, so the retry timer would only generate spurious
        // re-drives — except where the coordinator drives recovery (PN):
        // in-doubt participants never query, so the coordinator's
        // re-drive is the ONLY path by which a crashed-and-recovered
        // child ever learns the outcome, and the timer stays armed (a
        // live deferring child answers the re-drive by flushing its ack
        // — see `on_decision`).
        if any_targets
            && expects_acks
            && (!self.cfg.opts.long_locks || self.rules.coordinator_recovers)
        {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::AckCollection,
                delay: self.cfg.timeouts.ack_collection,
            });
        }
    }

    /// Cascaded coordinator early acknowledgment: fires when the ack mode
    /// is Early, or when vote-reliable applies (every vote below was
    /// reliable), sending the ack upstream before children confirm.
    fn maybe_early_ack(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get(&txn).expect("present");
        if seat.upstream.is_none() || seat.is_delegate {
            return;
        }
        let use_early = match self.cfg.opts.ack_mode {
            tpc_common::AckMode::Early => true,
            tpc_common::AckMode::Late => self.cfg.opts.vote_reliable && seat.subtree_reliable,
        };
        if !use_early {
            return;
        }
        let seat = self.seats.get_mut(&txn).expect("present");
        if seat.notified {
            return;
        }
        seat.notified = true; // reuse: ack already sent upstream
        let upstream = seat.upstream.expect("checked");
        let report = seat.report.clone();
        let _ = now;
        self.send_or_defer_ack(txn, upstream, report, false, out);
    }

    /// Sends the upstream ack, or defers it under long locks / implied-ack
    /// rules.
    fn send_or_defer_ack(
        &mut self,
        txn: TxnId,
        upstream: NodeId,
        report: DamageReport,
        pending: bool,
        out: &mut Vec<Action>,
    ) {
        let msg = ProtocolMsg::Ack {
            txn,
            report,
            pending,
        };
        let defer = self
            .seats
            .get(&txn)
            .map(|s| s.long_locks_deferred_ack)
            .unwrap_or(false)
            || self
                .completed
                .get(&txn)
                .map(|s| s.long_locks_deferred_ack)
                .unwrap_or(false);
        if defer {
            self.owed.push(OwedAck { to: upstream, msg });
        } else {
            self.push_send(out, upstream, msg);
        }
    }

    /// Root-side early notification (before acks) when the configuration
    /// allows it.
    fn maybe_notify_early(&mut self, txn: TxnId, _now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("present");
        if !(seat.is_root || (seat.is_delegate && seat.upstream.is_none())) || seat.notified {
            return;
        }
        let outcome = seat.outcome.expect("decided");
        // The root application regains control at the decision point when
        // the configuration says nobody upstream of it is owed certainty:
        // explicit early acks; long locks (the app must be free to start
        // the next transaction that carries the piggybacked ack); a family
        // whose commit point is the coordinator's force (PA, R* style); or a
        // fully reliable subtree under vote-reliable. Wait-for-outcome
        // keeps the late path so the app hears about pending recovery.
        let use_early = !self.cfg.opts.wait_for_outcome
            && (self.cfg.opts.ack_mode == tpc_common::AckMode::Early
                || self.cfg.opts.long_locks
                || self.rules.notify_at_decision
                || (self.cfg.opts.vote_reliable && seat.subtree_reliable));
        if use_early {
            seat.notified = true;
            out.push(Action::NotifyOutcome {
                txn,
                outcome,
                report: seat.report.clone(),
                pending: false,
            });
        }
    }

    /// Central Phase 2 progress check.
    fn try_advance_deciding(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let Some(seat) = self.seats.get(&txn) else {
            return;
        };
        if seat.stage != Stage::Deciding {
            return;
        }
        if !seat.all_settled() || seat.awaiting_initiator_ack {
            return;
        }
        // Coordinator-driven recovery (PN): a handed-over (AckPending)
        // child still owes its ack and will never query for the outcome —
        // the seat cannot retire (its END would abandon the re-drive; see
        // `retry_acks`), but wait-for-outcome's contract still releases
        // the application now with the pending indication.
        if self.rules.coordinator_recovers && seat.any_ack_pending() {
            self.notify_pending_early(txn, out);
            return;
        }
        out.push(Action::CancelTimer {
            txn,
            kind: TimerKind::AckCollection,
        });
        self.notify_and_ack_if_done(txn, now, out);
    }

    /// Releases the root application with a "recovery in progress"
    /// completion while the seat stays alive to keep re-driving a
    /// handed-over child (PN wait-for-outcome).
    fn notify_pending_early(&mut self, txn: TxnId, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("present");
        if !seat.is_root || seat.notified {
            return;
        }
        seat.notified = true;
        seat.outcome_pending = true;
        self.metrics.outcome_pending_completions += 1;
        out.push(Action::NotifyOutcome {
            txn,
            outcome: seat.outcome.expect("decided"),
            report: seat.report.clone(),
            pending: true,
        });
    }

    /// The subtree is settled: write END, notify/ack, retire the seat.
    fn notify_and_ack_if_done(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let seat = self.seats.get_mut(&txn).expect("present");
        let outcome = seat.outcome.expect("decided");
        let pending = seat.any_ack_pending();
        seat.outcome_pending = pending;

        // END record: written wherever we logged anything. A PA abort
        // wrote nothing and writes nothing now (the whole point).
        let remembered = self.rules.remembers(outcome);
        let read_only_participant = seat.sent_vote == Some(Vote::ReadOnly);
        if remembered && !read_only_participant {
            out.push(Action::Log {
                record: LogRecord::End { txn },
                durability: Durability::NonForced,
            });
        }

        if seat.is_root {
            // Root: tell the application (late path).
            let notify = if seat.notified {
                None
            } else {
                seat.notified = true;
                Some((outcome, seat.report.clone(), pending))
            };
            // Implied acknowledgment to a last agent we delegated to: it
            // rides on the next transaction's first frame rather than
            // paying for its own (§4 Last Agent; Figure 6).
            let implied_ack_to = match (seat.delegate, seat.sent_vote) {
                (Some(d), Some(Vote::Yes(f))) if f.last_agent_delegation => Some(d),
                _ => None,
            };
            if let Some((outcome, report, pending)) = notify {
                if pending {
                    self.metrics.outcome_pending_completions += 1;
                }
                out.push(Action::NotifyOutcome {
                    txn,
                    outcome,
                    report,
                    pending,
                });
            }
            if let Some(d) = implied_ack_to {
                self.owed.push(OwedAck {
                    to: d,
                    msg: ProtocolMsg::Ack {
                        txn,
                        report: DamageReport::clean(),
                        pending: false,
                    },
                });
            }
        } else if let Some(upstream) = seat.upstream {
            if !seat.is_delegate {
                // Subordinate: acknowledge upstream (unless the protocol
                // says nobody is waiting, or an early ack already went).
                let already_acked = seat.notified; // early-ack path reuses the flag
                if remembered && !already_acked {
                    // PN (and the baseline) propagate damage reports all
                    // the way up; PA reports one hop only — child reports
                    // are absorbed here (§3: "heuristic decisions ... were
                    // only reported to the immediate coordinator").
                    let full = seat.report.clone();
                    let forward = if self.rules.damage_to_root {
                        full
                    } else {
                        let mine = self.cfg.node;
                        let absorbed = full
                            .damaged
                            .iter()
                            .chain(full.heuristic_no_damage.iter())
                            .filter(|n| **n != mine)
                            .count();
                        self.metrics.damage_reports_absorbed += absorbed as u64;
                        DamageReport {
                            heuristic_no_damage: full
                                .heuristic_no_damage
                                .iter()
                                .copied()
                                .filter(|n| *n == mine)
                                .collect(),
                            damaged: full
                                .damaged
                                .iter()
                                .copied()
                                .filter(|n| *n == mine)
                                .collect(),
                            outcome_pending: full.outcome_pending.clone(),
                        }
                    };
                    self.send_or_defer_ack(txn, upstream, forward, pending, out);
                }
            }
        }
        self.finish(txn, now, out);
    }

    /// Retires a seat into the completed set.
    fn finish(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let mut seat = self.seats.remove(&txn).expect("present");
        let outcome = seat.outcome.expect("decided");
        seat.stage = Stage::Done;
        seat.finished_at = Some(now);

        // Protected variable: leave-out eligibility updates only when the
        // transaction commits (§4 Leaving Inactive Partners Out).
        if outcome == Outcome::Commit {
            for (node, ok) in seat.leave_out_votes.clone() {
                if ok {
                    self.leave_out_ok.insert(node);
                } else {
                    self.leave_out_ok.remove(&node);
                }
            }
        }

        // PA's presumption: aborted transactions leave no trace.
        if self.rules.remembers(outcome) {
            self.finished.insert(txn, outcome);
        }
        out.push(Action::TxnEnded { txn });
        self.completed.insert(txn, seat);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Conversation failure: abort everything still free to abort whose
    /// coordinator just became unreachable. Participants that already
    /// voted YES stay in doubt (recovery territory); roots are unaffected
    /// (their children's silence is handled by the vote timer).
    fn on_partner_failed(&mut self, peer: NodeId, now: SimTime, out: &mut Vec<Action>) {
        let doomed: Vec<TxnId> = self
            .seats
            .values()
            .filter(|s| {
                s.upstream == Some(peer)
                    && !s.is_root
                    && s.sent_vote.is_none()
                    && matches!(s.stage, Stage::Working | Stage::Voting)
            })
            .map(|s| s.txn)
            .collect();
        for txn in doomed {
            let seat = self.seats.get_mut(&txn).expect("listed");
            seat.outcome = Some(Outcome::Abort);
            seat.decided_at = Some(now);
            // We never voted, so nobody upstream is waiting on us; drive
            // our own subtree down.
            self.decide_abort(txn, now, out);
        }
    }

    fn on_timer(
        &mut self,
        txn: TxnId,
        kind: TimerKind,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<()> {
        let Some(seat) = self.seats.get(&txn) else {
            return Ok(()); // stale timer
        };
        match kind {
            TimerKind::VoteCollection => {
                if seat.stage == Stage::Voting {
                    // Missing votes count as NO.
                    if seat.is_root || seat.is_delegate {
                        self.decide(txn, Outcome::Abort, now, out);
                    } else if !matches!(seat.local, LocalState::Preparing | LocalState::Unprepared)
                    {
                        self.subordinate_vote_no(txn, now, out);
                    }
                }
            }
            TimerKind::AckCollection => {
                if seat.stage == Stage::Deciding {
                    self.retry_acks(txn, now, out);
                }
            }
            TimerKind::InDoubtQuery => {
                if matches!(
                    seat.stage,
                    Stage::InDoubt | Stage::Delegated | Stage::Working
                ) {
                    let target = if seat.stage == Stage::Delegated {
                        seat.delegate.or(seat.upstream)
                    } else {
                        seat.upstream
                    };
                    if let Some(t) = target {
                        self.push_send(out, t, ProtocolMsg::Query { txn });
                    }
                    out.push(Action::SetTimer {
                        txn,
                        kind: TimerKind::InDoubtQuery,
                        delay: self.cfg.timeouts.in_doubt_query,
                    });
                }
            }
            TimerKind::HeuristicDeadline => {
                if seat.stage == Stage::InDoubt && seat.heuristic.is_none() {
                    self.take_heuristic_decision(txn, now, out);
                }
            }
        }
        Ok(())
    }

    /// Re-sends the decision to unacknowledged children; under
    /// wait-for-outcome, one retry is allowed before the participant
    /// completes with "recovery in progress" (§4 Wait For Outcome).
    fn retry_acks(&mut self, txn: TxnId, now: SimTime, out: &mut Vec<Action>) {
        let outcome = self.seats[&txn].outcome.expect("deciding");
        let wait_for_outcome = self.cfg.opts.wait_for_outcome;
        // Where the coordinator drives recovery (PN), participants never
        // query, so a handed-over (AckPending) child can never be
        // abandoned: wait-for-outcome still releases the application (see
        // `try_advance_deciding`), but the coordinator keeps re-driving
        // the decision until the ack actually arrives.
        let keep_driving = self.rules.coordinator_recovers;
        let lagging: Vec<(NodeId, u8)> = self.seats[&txn]
            .children
            .iter()
            .filter_map(|c| match c.state {
                ChildState::DecisionSent { retries } => Some((c.node, retries)),
                _ => None,
            })
            .collect();
        for (node, retries) in lagging {
            if wait_for_outcome && retries >= 1 {
                // Give up waiting: mark pending, record it in the report.
                let seat = self.seats.get_mut(&txn).expect("present");
                seat.child_mut(node).state = ChildState::AckPending;
                seat.report.outcome_pending.push(node);
            } else {
                let seat = self.seats.get_mut(&txn).expect("present");
                seat.child_mut(node).state = ChildState::DecisionSent {
                    retries: retries.saturating_add(1),
                };
                self.push_send(out, node, ProtocolMsg::Decision { txn, outcome });
            }
        }
        if keep_driving {
            let handed: Vec<NodeId> = self.seats[&txn]
                .children
                .iter()
                .filter(|c| c.state == ChildState::AckPending)
                .map(|c| c.node)
                .collect();
            for node in handed {
                self.push_send(out, node, ProtocolMsg::Decision { txn, outcome });
            }
        }
        // Re-arm if anything is still outstanding.
        let still_waiting = self.seats[&txn]
            .children
            .iter()
            .any(|c| matches!(c.state, ChildState::DecisionSent { .. }))
            || self.seats[&txn].awaiting_initiator_ack
            || (keep_driving && self.seats[&txn].any_ack_pending());
        if still_waiting {
            out.push(Action::SetTimer {
                txn,
                kind: TimerKind::AckCollection,
                delay: self.cfg.timeouts.ack_collection,
            });
        }
        self.try_advance_deciding(txn, now, out);
    }

    /// The in-doubt window closed without an answer: decide unilaterally
    /// per policy (§1 / §3 heuristic decisions).
    fn take_heuristic_decision(&mut self, txn: TxnId, _now: SimTime, out: &mut Vec<Action>) {
        let decision = match self.cfg.heuristic {
            HeuristicPolicy::Never => return,
            HeuristicPolicy::CommitAfter(_) => HeuristicOutcome::Commit,
            HeuristicPolicy::AbortAfter(_) => HeuristicOutcome::Abort,
        };
        self.metrics.heuristic_decisions += 1;
        match decision {
            HeuristicOutcome::Commit => self.metrics.heuristic_commits += 1,
            HeuristicOutcome::Abort | HeuristicOutcome::Mixed => self.metrics.heuristic_aborts += 1,
        }
        let seat = self.seats.get_mut(&txn).expect("present");
        seat.heuristic = Some(decision);
        out.push(Action::Log {
            record: LogRecord::Heuristic { txn, decision },
            durability: Durability::Forced,
        });
        match decision {
            HeuristicOutcome::Commit => {
                out.push(Action::CommitLocal {
                    txn,
                    rm_durability: Durability::Forced,
                });
                seat.local = LocalState::Committed;
            }
            HeuristicOutcome::Abort | HeuristicOutcome::Mixed => {
                out.push(Action::AbortLocal {
                    txn,
                    rm_durability: Durability::Forced,
                });
                seat.local = LocalState::Aborted;
            }
        }
        // The seat stays in doubt protocol-wise: the real outcome is still
        // owed to us, and the damage comparison happens when it arrives.
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Rebuilds engine state from the durable log after a crash and
    /// returns the actions that restart distributed resolution:
    ///
    /// * interrupted voting (PN commit-pending, no outcome) → abort and
    ///   drive the listed subordinates;
    /// * in doubt (prepared, no outcome) → query the coordinator (PA,
    ///   basic) or await the coordinator's re-drive (PN);
    /// * decided but not ended → re-propagate the outcome, re-collect
    ///   acknowledgments;
    /// * ended → retained in the finished index for queries.
    pub fn recover(
        &mut self,
        durable: &[(Lsn, StreamId, LogRecord)],
        now: SimTime,
    ) -> Result<Vec<Action>> {
        self.seats.clear();
        self.finished.clear();
        self.owed.clear();
        // completed is volatile bookkeeping; a fresh process starts empty.
        self.completed.clear();

        let mut out = Vec::new();
        for (txn, summary) in summarize(durable) {
            if summary.end {
                if let Some(outcome) = summary.outcome() {
                    self.finished.insert(txn, outcome);
                }
                continue;
            }
            if let Some(outcome) = summary.outcome() {
                // Decided but not finished: re-propagate and re-collect.
                let subs = match outcome {
                    Outcome::Commit => summary.committed.clone().unwrap_or_default(),
                    Outcome::Abort => summary.aborted.clone().unwrap_or_default(),
                };
                let mut seat = Seat::new(txn);
                seat.is_root = summary.prepared.is_none();
                if let Some((coord, _)) = summary.prepared {
                    seat.upstream = Some(coord);
                    // Long locks survives the crash: replaying the WAL
                    // re-arms the deferred ack, so the recovery re-ack
                    // goes back into the owed queue (piggybacked or
                    // flushed later) instead of paying an eager frame
                    // the original execution would not have sent.
                    seat.long_locks_deferred_ack = self.cfg.opts.long_locks;
                }
                seat.outcome = Some(outcome);
                seat.stage = Stage::Deciding;
                seat.local = match outcome {
                    Outcome::Commit => LocalState::Committed,
                    Outcome::Abort => LocalState::Aborted,
                };
                seat.commit_started = Some(now);
                seat.decided_at = Some(now);
                let expects_acks = self.rules.remembers(outcome);
                for sub in subs {
                    seat.child_mut(sub).state = if expects_acks {
                        ChildState::DecisionSent { retries: 0 }
                    } else {
                        ChildState::Acked
                    };
                }
                // Local RMs may have lost unforced records; re-drive them
                // idempotently.
                match outcome {
                    Outcome::Commit => out.push(Action::CommitLocal {
                        txn,
                        rm_durability: self.rm_commit_durability(),
                    }),
                    Outcome::Abort => out.push(Action::AbortLocal {
                        txn,
                        rm_durability: Durability::NonForced,
                    }),
                }
                let targets: Vec<NodeId> = seat
                    .children
                    .iter()
                    .filter(|c| matches!(c.state, ChildState::DecisionSent { .. }))
                    .map(|c| c.node)
                    .collect();
                self.seats.insert(txn, seat);
                for node in &targets {
                    self.push_send(&mut out, *node, ProtocolMsg::Decision { txn, outcome });
                }
                if !targets.is_empty() {
                    out.push(Action::SetTimer {
                        txn,
                        kind: TimerKind::AckCollection,
                        delay: self.cfg.timeouts.ack_collection,
                    });
                }
                self.try_advance_deciding(txn, now, &mut out);
                continue;
            }
            if summary.interrupted_voting() {
                // The commit operation died mid-voting: abort and drive
                // every subordinate we had enrolled.
                let subs = summary.commit_pending.clone().unwrap_or_default();
                let mut seat = Seat::new(txn);
                seat.is_root = true;
                seat.commit_started = Some(now);
                for sub in subs {
                    seat.child_mut(sub).state = ChildState::PrepareSent;
                }
                self.seats.insert(txn, seat);
                self.decide(txn, Outcome::Abort, now, &mut out);
                continue;
            }
            if let Some((coordinator, subs)) = summary.prepared.clone() {
                // In doubt.
                let mut seat = Seat::new(txn);
                seat.upstream = Some(coordinator);
                seat.stage = Stage::InDoubt;
                seat.commit_started = Some(now);
                seat.heuristic = summary.heuristic;
                seat.local = if let Some(h) = summary.heuristic {
                    match h {
                        HeuristicOutcome::Commit => LocalState::Committed,
                        _ => LocalState::Aborted,
                    }
                } else {
                    LocalState::Yes {
                        reliable: false,
                        suspendable: false,
                    }
                };
                seat.sent_vote = Some(Vote::Yes(VoteFlags::NONE));
                for sub in subs {
                    seat.child_mut(sub).state = ChildState::VotedYes(VoteFlags::NONE);
                }
                // Was this the initiator of a delegated (last-agent)
                // transaction? Then the "coordinator" is the delegate and
                // the stage is Delegated; querying it works identically.
                self.seats.insert(txn, seat);
                if !self.rules.coordinator_recovers {
                    self.push_send(&mut out, coordinator, ProtocolMsg::Query { txn });
                    out.push(Action::SetTimer {
                        txn,
                        kind: TimerKind::InDoubtQuery,
                        delay: self.cfg.timeouts.in_doubt_query,
                    });
                }
                if let Some(deadline) = self.cfg.heuristic.timeout() {
                    if summary.heuristic.is_none() {
                        out.push(Action::SetTimer {
                            txn,
                            kind: TimerKind::HeuristicDeadline,
                            delay: deadline,
                        });
                    }
                }
                continue;
            }
            // Only a heuristic record with nothing else — ignore.
        }
        Ok(self.coalesce(out))
    }

    /// After [`TmEngine::recover`], classifies one of the local resource
    /// managers' in-doubt transactions against the recovered TM state.
    /// Both harnesses resolve RM recovery through this one rule, so the
    /// unilateral-abort presumption cannot be wired differently in sim
    /// and live.
    pub fn recovered_disposition(&self, txn: TxnId) -> InDoubtDisposition {
        let outcome = self
            .finished_outcome(txn)
            .or_else(|| self.seat(txn).and_then(|s| s.outcome));
        match outcome {
            Some(Outcome::Commit) => InDoubtDisposition::Commit,
            Some(Outcome::Abort) => InDoubtDisposition::Abort,
            // The TM has no seat and no outcome: it never voted, so the
            // RM's prepared data can be rolled back unilaterally.
            None if self.seat(txn).is_none() => InDoubtDisposition::Abort,
            None => InDoubtDisposition::AwaitOutcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_rejects_invalid_config() {
        let cfg = EngineConfig::new(NodeId(0), ProtocolKind::PresumedAbort).with_opts(
            OptimizationConfig::none()
                .with_vote_reliable(true)
                .with_ack_mode(tpc_common::AckMode::Early),
        );
        assert!(TmEngine::new(cfg).is_err());
    }

    #[test]
    fn session_partner_registration_is_idempotent() {
        let mut e = TmEngine::new(EngineConfig::new(NodeId(0), ProtocolKind::Basic)).unwrap();
        e.add_session_partner(NodeId(1));
        e.add_session_partner(NodeId(1));
        assert_eq!(e.session_partners.len(), 1);
    }
}
