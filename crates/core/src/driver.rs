//! The node driver: the single interpreter of engine [`Action`]s.
//!
//! The engine is sans-IO — [`crate::TmEngine::handle`] returns a list of
//! [`Action`]s and performs none of them. Every harness therefore needs
//! an interpreter that turns actions into effects: frames on a wire, log
//! appends, resource-manager round-trips, timers, application
//! notifications. The paper's methodology is *exact counting* of those
//! effects (message flows and forced log writes per protocol variant,
//! Tables 2–4), so the reproduction lives or dies on every harness
//! interpreting the stream identically.
//!
//! This module owns that interpreter once. [`Driver::apply`] walks the
//! action stream and calls out through five small traits — [`Wire`],
//! [`LogHost`], [`RmHost`], [`TimerHost`], [`AppSink`] — that isolate
//! exactly the seams where the simulator (virtual time, scheduler,
//! in-memory network) and the live runtime (wall clock, threads, real
//! transports) legitimately differ. Everything environment-independent —
//! timer generations for stale-timer invalidation, flow and forced-write
//! counters, damage-report accounting, the recursion order of local
//! prepare votes, group-commit suspension — lives here and cannot drift
//! between harnesses.
//!
//! A harness embeds a [`Driver`] per node and feeds it events:
//!
//! ```text
//! driver.handle(&mut host, now, event)?      // engine + interpret
//! driver.timer_is_current(txn, kind, gen)    // before firing a timer
//! driver.stats(), driver.engine().metrics()  // uniform observability
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use tpc_common::{
    DamageReport, IdMap, NodeId, Outcome, Result, SimDuration, SimTime, TraceCtx, TxnId,
};
use tpc_obs::{Obs, Phase, Span};
use tpc_wal::{Durability, LogManager, LogRecord};

use crate::engine::{EngineConfig, TmEngine};
use crate::event::{Action, Event, LocalVote, TimerKind};
use crate::messages::ProtocolMsg;
use crate::metrics::EngineMetrics;

/// Picks the log a resource manager writes to: its own, or (under the
/// shared-log optimization, §4 *Sharing the Log*) the TM's, whose forces
/// then cover the RM records.
///
/// Both harnesses route through this one function, so the optimization
/// cannot be wired differently in sim and live.
pub fn rm_log_of<'a>(
    rm_log: Option<&'a mut (dyn LogManager + 'a)>,
    tm_log: &'a mut (dyn LogManager + 'a),
) -> &'a mut (dyn LogManager + 'a) {
    match rm_log {
        Some(own) => own,
        None => tm_log,
    }
}

/// [`rm_log_of`] for the common `Option<ConcreteLog>` (or boxed trait
/// object) storage shape.
pub fn rm_log_slot<'a, L: LogManager + 'a>(
    rm_log: Option<&'a mut L>,
    tm_log: &'a mut (dyn LogManager + 'a),
) -> &'a mut (dyn LogManager + 'a) {
    rm_log_of(rm_log.map(|l| l as &mut dyn LogManager), tm_log)
}

/// What the host did with a TM log append.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogControl {
    /// The record is appended (and flushed if forced); keep going.
    Done,
    /// The record joined a group-commit batch that is still filling. The
    /// driver hands the *rest* of the action stream to
    /// [`LogHost::suspend_rest`] and stops; the host resumes it when the
    /// batch flushes.
    Suspend,
}

/// What the host did with a local-prepare request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrepareControl {
    /// The local vote is known now; the driver feeds
    /// [`Event::LocalPrepared`] straight back to the engine and splices
    /// the resulting actions in front of the remaining stream (the same
    /// order direct recursion would produce).
    Vote(LocalVote),
    /// The vote will arrive later as an [`Event::LocalPrepared`] the
    /// host delivers itself (deferred voting, or a harness that models
    /// prepare latency by scheduling the reply).
    Async,
}

/// Frame egress.
pub trait Wire {
    /// Sends one frame (one *flow* in the paper's counting) to `to`.
    /// `ctx` is the trace context to propagate (present only when the
    /// sending driver has tracing enabled); hosts put it on the wire so
    /// the receiving driver can stitch cross-node span trees.
    fn send(&mut self, now: SimTime, to: NodeId, ctx: Option<TraceCtx>, msgs: Vec<ProtocolMsg>);
}

/// TM log appends (the forced/non-forced distinction the paper counts).
pub trait LogHost {
    /// Appends `record` to the TM stream. `now` is a cursor: a host that
    /// models flush latency advances it so later effects of the same
    /// action batch happen after the force completes.
    fn append_tm(
        &mut self,
        now: &mut SimTime,
        record: LogRecord,
        durability: Durability,
    ) -> LogControl;

    /// Receives the remainder of the action stream after `append_tm`
    /// returned [`LogControl::Suspend`]. Hosts that never suspend keep
    /// the default.
    fn suspend_rest(&mut self, rest: Vec<Action>) {
        debug_assert!(
            rest.is_empty(),
            "host returned LogControl::Suspend but does not store suspended actions"
        );
    }
}

/// Local resource-manager round-trips.
pub trait RmHost {
    /// Prepares all local RMs for `txn` and reports how the vote will be
    /// delivered. `now` is the same advancing cursor as in
    /// [`LogHost::append_tm`].
    fn prepare_local(
        &mut self,
        now: &mut SimTime,
        txn: TxnId,
        rm_durability: Durability,
    ) -> PrepareControl;

    /// Commits all local RMs (fire-and-forget).
    fn commit_local(&mut self, now: &mut SimTime, txn: TxnId, rm_durability: Durability);

    /// Aborts all local RMs (fire-and-forget).
    fn abort_local(&mut self, now: &mut SimTime, txn: TxnId, rm_durability: Durability);

    /// Releases a read-only transaction's local resources without
    /// logging.
    fn forget_local(&mut self, now: SimTime, txn: TxnId);

    /// Commit processing finished at this node; per-transaction harness
    /// state can be dropped.
    fn txn_ended(&mut self, txn: TxnId);
}

/// Timer arm/cancel.
///
/// The driver assigns a generation to every armed timer and owns the
/// staleness bookkeeping; the host only has to remember `(txn, kind,
/// gen)` alongside its deadline representation and ask
/// [`Driver::timer_is_current`] before firing.
pub trait TimerHost {
    /// Arms (or re-arms) a timer `delay` from `now`.
    fn set_timer(
        &mut self,
        now: SimTime,
        txn: TxnId,
        kind: TimerKind,
        delay: SimDuration,
        gen: u64,
    );

    /// Cancels a timer. The driver already invalidated the generation,
    /// so lazily-cancelling hosts (heap + generation check) keep the
    /// default no-op.
    fn cancel_timer(&mut self, _txn: TxnId, _kind: TimerKind) {}
}

/// Outcome delivery to the application.
pub trait AppSink {
    /// Reports the transaction outcome (with damage report and the
    /// wait-for-outcome `pending` indication).
    fn notify_outcome(
        &mut self,
        now: SimTime,
        txn: TxnId,
        outcome: Outcome,
        report: DamageReport,
        pending: bool,
    );
}

/// The full set of environment seams a harness provides.
pub trait NodeHost: Wire + LogHost + RmHost + TimerHost + AppSink {}

impl<T: Wire + LogHost + RmHost + TimerHost + AppSink> NodeHost for T {}

/// Effect counters maintained by the driver, identically for every
/// harness. Previously the simulator kept (some of) these privately; the
/// live runtime now reports them too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Frames handed to the wire (paper *flows*, including Work frames).
    pub flows_sent: u64,
    /// TM log appends.
    pub log_writes: u64,
    /// TM log appends that were forced.
    pub forced_writes: u64,
    /// Outcomes delivered to the application.
    pub outcomes: u64,
    /// Outcomes whose damage report recorded conflicting heuristic
    /// decisions.
    pub damaged_outcomes: u64,
    /// Outcomes delivered with "recovery in progress" pending.
    pub pending_outcomes: u64,
}

impl DriverStats {
    /// Folds another driver's counters into this one (per-lane drivers on
    /// a multi-lane node roll up to node totals).
    pub fn merge(&mut self, other: &DriverStats) {
        self.flows_sent += other.flows_sent;
        self.log_writes += other.log_writes;
        self.forced_writes += other.forced_writes;
        self.outcomes += other.outcomes;
        self.damaged_outcomes += other.damaged_outcomes;
        self.pending_outcomes += other.pending_outcomes;
    }
}

/// Milestone timestamps for one in-flight transaction seat, from which
/// the phase intervals are derived when the seat ends.
#[derive(Clone, Copy, Debug)]
struct TxnMarks {
    /// First event that touched the seat.
    begin: SimTime,
    /// Commit requested locally / Prepare received / self-prepare.
    commit_start: Option<SimTime>,
    /// Decision record (Committed/Aborted) appended to the TM stream.
    decided: Option<SimTime>,
    /// Outcome delivered to the application.
    outcome_at: Option<SimTime>,
    /// Globally-unique id for this node's participation in the
    /// transaction (node id in the high bits); stamped on every span the
    /// seat emits and propagated on the wire as the parent of downstream
    /// seats.
    seat: u64,
    /// Seat id of the upstream sender that enrolled this node, from the
    /// first wire [`TraceCtx`] seen for the transaction. `None` at the
    /// transaction's root.
    parent: Option<u64>,
}

/// Driver-side phase observation: milestone capture feeding an [`Obs`]
/// recorder. Attached with [`Driver::set_obs`]; absent (the default) the
/// driver pays a single `Option` check per event.
struct ObsState {
    obs: Arc<Obs>,
    node: NodeId,
    marks: IdMap<TxnId, TxnMarks>,
    /// Monotonic per-driver seat counter (low bits of the seat id).
    next_seat: u64,
    /// Wire trace contexts received before the seat's first event
    /// created its marks entry: txn → parent seat id.
    remote: IdMap<TxnId, u64>,
}

impl ObsState {
    /// Record milestones implied by an incoming event, before the engine
    /// sees it.
    fn observe_event(&mut self, now: SimTime, event: &Event) {
        let txn = match event {
            Event::SendWork { txn, .. }
            | Event::CommitRequested { txn }
            | Event::AbortRequested { txn }
            | Event::SelfPrepare { txn }
            | Event::LocalPrepared { txn, .. }
            | Event::TimerFired { txn, .. } => *txn,
            Event::MsgReceived { msg, .. } => msg.txn(),
            Event::PartnerFailed { .. } => return,
        };
        if let std::collections::hash_map::Entry::Vacant(v) = self.marks.entry(txn) {
            self.next_seat += 1;
            v.insert(TxnMarks {
                begin: now,
                commit_start: None,
                decided: None,
                outcome_at: None,
                seat: ((u64::from(self.node.0) + 1) << 40) | self.next_seat,
                parent: self.remote.get(&txn).copied(),
            });
        }
        let marks = self.marks.get_mut(&txn).expect("just inserted");
        let voting_starts = matches!(
            event,
            Event::CommitRequested { .. }
                | Event::AbortRequested { .. }
                | Event::SelfPrepare { .. }
                | Event::MsgReceived {
                    msg: ProtocolMsg::Prepare { .. },
                    ..
                }
        );
        if voting_starts && marks.commit_start.is_none() {
            marks.commit_start = Some(now);
        }
    }

    /// A wire frame carried a trace context. The *first* context seen for
    /// a transaction this node has no seat for yet names the enrolling
    /// sender: it becomes the seat's parent. Later contexts (votes and
    /// acks flowing back up, decision re-drives) are ignored so the tree
    /// stays acyclic with the edge pointing at the true enroller.
    fn note_remote(&mut self, ctx: &TraceCtx) {
        if self.marks.contains_key(&ctx.txn) {
            return;
        }
        self.remote.entry(ctx.txn).or_insert(ctx.parent_seat);
    }

    /// The trace context to stamp on an outgoing frame: this node's seat
    /// for the first message's transaction.
    fn send_ctx(&self, now: SimTime, msgs: &[ProtocolMsg]) -> Option<TraceCtx> {
        if !self.obs.tracing() {
            return None;
        }
        let txn = msgs.first()?.txn();
        let marks = self.marks.get(&txn)?;
        Some(TraceCtx {
            txn,
            parent_seat: marks.seat,
            sent_at: now,
        })
    }

    /// A decision record hit the TM stream.
    fn observe_decided(&mut self, now: SimTime, txn: TxnId) {
        if let Some(marks) = self.marks.get_mut(&txn) {
            marks.decided.get_or_insert(now);
        }
    }

    /// The outcome reached the local application.
    fn observe_outcome(&mut self, now: SimTime, txn: TxnId) {
        if let Some(marks) = self.marks.get_mut(&txn) {
            marks.outcome_at.get_or_insert(now);
        }
    }

    /// The seat ended: derive the phase intervals that have both
    /// endpoints and emit them. Seats that skip milestones (read-only
    /// participants never log a decision; PC subordinates send no ack)
    /// simply contribute fewer phases.
    fn observe_end(&mut self, node: NodeId, end: SimTime, txn: TxnId) {
        self.remote.remove(&txn);
        let Some(marks) = self.marks.remove(&txn) else {
            return;
        };
        let emit = |phase: Phase, start: SimTime, stop: SimTime| {
            self.obs.record_span(Span {
                txn,
                node,
                phase,
                start,
                end: stop,
                seat: marks.seat,
                parent: marks.parent,
            });
        };
        let work_end = marks.commit_start.unwrap_or(end);
        emit(Phase::Work, marks.begin, work_end);
        if let Some(commit_start) = marks.commit_start {
            // Without a decision record (read-only seat) the voting phase
            // runs until the outcome arrived, or the seat ended.
            let prepare_end = marks.decided.or(marks.outcome_at).unwrap_or(end);
            emit(Phase::Prepare, commit_start, prepare_end);
        }
        if let (Some(decided), Some(outcome_at)) = (marks.decided, marks.outcome_at) {
            emit(Phase::Decision, decided, outcome_at);
        }
        if let Some(outcome_at) = marks.outcome_at {
            emit(Phase::Ack, outcome_at, end);
        }
    }
}

/// Observability consequence of a TM log record, classified before the
/// append (which consumes the record) and applied after it.
#[derive(Clone, Copy)]
enum LogNote {
    /// `Prepared`: the in-doubt window opens.
    InDoubt,
    /// `Committed`/`Aborted`: decision milestone; window closes.
    Decision,
    /// `Heuristic`: the blocked seat decided unilaterally; the window
    /// closes (damage accounting is the engine's job).
    Heuristic,
}

/// What restart recovery found and did, for telemetry. Computed by
/// [`Driver::recover`] from the log summaries and the re-driven action
/// stream; hosts add the wall-clock WAL scan time via
/// [`Driver::note_wal_scan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Durable records replayed from the WAL (all streams).
    pub wal_records_scanned: u64,
    /// Time the host spent reading the durable log back, in microseconds
    /// (wall clock live, 0 in the simulator unless modelled).
    pub wal_scan_us: u64,
    /// In-doubt transactions found (prepared, no durable outcome).
    pub in_doubt_recovered: u64,
    /// Status `Query` frames sent to coordinators for in-doubt seats.
    pub queries_sent: u64,
    /// Decided-but-unacknowledged transactions whose outcome was
    /// re-driven to subordinates.
    pub redrives: u64,
    /// Transactions aborted because the crash interrupted voting
    /// (a pre-Phase-1 record with no outcome).
    pub interrupted_vote_aborts: u64,
    /// Log files whose recovery scan ended in an ordinary torn tail
    /// (partial last frame — the expected crash artifact).
    pub torn_tails: u64,
    /// Log files where the scan found corruption *before* the tail:
    /// a damaged frame with valid frames after it, meaning prefix
    /// truncation discarded once-durable data. Always worth alarming on.
    pub corruption_before_tail: u64,
}

impl RecoveryStats {
    /// Folds another lane's recovery telemetry into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.wal_records_scanned += other.wal_records_scanned;
        self.wal_scan_us += other.wal_scan_us;
        self.in_doubt_recovered += other.in_doubt_recovered;
        self.queries_sent += other.queries_sent;
        self.redrives += other.redrives;
        self.interrupted_vote_aborts += other.interrupted_vote_aborts;
        self.torn_tails += other.torn_tails;
        self.corruption_before_tail += other.corruption_before_tail;
    }
}

/// One node's engine plus the shared action interpreter.
pub struct Driver {
    engine: TmEngine,
    timer_gen: IdMap<(TxnId, TimerKind), u64>,
    next_gen: u64,
    stats: DriverStats,
    obs: Option<ObsState>,
    recovery: Option<RecoveryStats>,
}

impl Driver {
    /// Builds a driver around a fresh engine.
    pub fn new(config: EngineConfig) -> Result<Self> {
        Ok(Driver {
            engine: TmEngine::new(config)?,
            timer_gen: IdMap::default(),
            next_gen: 0,
            stats: DriverStats::default(),
            obs: None,
            recovery: None,
        })
    }

    /// Attaches an observability recorder: from now on the driver stamps
    /// phase milestones (work → prepare → decision → ack) per seat,
    /// tracks in-doubt windows, and feeds the recorder's
    /// histograms/spans. Without one (the default) the only cost is a
    /// `None` check per event.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(ObsState {
            obs,
            node: self.engine.node(),
            marks: IdMap::default(),
            next_seat: 0,
            remote: IdMap::default(),
        });
    }

    /// Feeds a trace context received on the wire to the observer.
    /// Hosts call this when a frame carries one, *before* handling the
    /// frame's messages, so the seat the messages create links to its
    /// enrolling sender.
    pub fn note_remote_ctx(&mut self, ctx: &TraceCtx) {
        if let Some(obs) = self.obs.as_mut() {
            obs.note_remote(ctx);
        }
    }

    /// Telemetry from the last [`Driver::recover`] call, if any.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// Records how long the host's durable-log read took (wall-clock
    /// microseconds), attributing it to the last recovery — or to a
    /// fresh [`RecoveryStats`] if the host timed the scan before calling
    /// [`Driver::recover`].
    pub fn note_wal_scan(&mut self, micros: u64) {
        self.recovery
            .get_or_insert_with(RecoveryStats::default)
            .wal_scan_us += micros;
    }

    /// Records what the host's recovery scan found at the end of each log
    /// file: `torn` files ended in an ordinary partial frame,
    /// `corrupt` files had a damaged frame with valid frames after it
    /// (once-durable data discarded). Attributed like
    /// [`Driver::note_wal_scan`].
    pub fn note_log_damage(&mut self, torn: u64, corrupt: u64) {
        let rec = self.recovery.get_or_insert_with(RecoveryStats::default);
        rec.torn_tails += torn;
        rec.corruption_before_tail += corrupt;
    }

    /// The attached recorder, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref().map(|s| &s.obs)
    }

    /// Read access to the engine (metrics, seats, assertions).
    pub fn engine(&self) -> &TmEngine {
        &self.engine
    }

    /// Write access to the engine (partner declarations).
    pub fn engine_mut(&mut self) -> &mut TmEngine {
        &mut self.engine
    }

    /// The engine's protocol counters.
    pub fn metrics(&self) -> EngineMetrics {
        self.engine.metrics()
    }

    /// The driver's effect counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Feeds one event to the engine and interprets the resulting
    /// actions against `host`.
    pub fn handle<H: NodeHost + ?Sized>(
        &mut self,
        host: &mut H,
        now: SimTime,
        event: Event,
    ) -> Result<()> {
        if let Some(obs) = self.obs.as_mut() {
            obs.observe_event(now, &event);
        }
        let actions = self.engine.handle(now, event)?;
        self.apply(host, now, actions)
    }

    /// Interprets an action stream against `host`, starting the time
    /// cursor at `start`.
    ///
    /// This is *the* interpreter: exactly one match over [`Action`]
    /// exists outside the engine's own unit-test pump, and this is it.
    pub fn apply<H: NodeHost + ?Sized>(
        &mut self,
        host: &mut H,
        start: SimTime,
        actions: Vec<Action>,
    ) -> Result<()> {
        let mut cursor = start;
        let mut queue: VecDeque<Action> = actions.into();
        while let Some(action) = queue.pop_front() {
            match action {
                Action::Send { to, msgs } => {
                    self.stats.flows_sent += 1;
                    let ctx = self.obs.as_ref().and_then(|o| o.send_ctx(cursor, &msgs));
                    host.send(cursor, to, ctx, msgs);
                }
                Action::Log { record, durability } => {
                    self.stats.log_writes += 1;
                    if durability.is_forced() {
                        self.stats.forced_writes += 1;
                    }
                    let note = if self.obs.is_some() {
                        match &record {
                            LogRecord::Prepared { txn, .. } => Some((*txn, LogNote::InDoubt)),
                            LogRecord::Committed { txn, .. } | LogRecord::Aborted { txn, .. } => {
                                Some((*txn, LogNote::Decision))
                            }
                            LogRecord::Heuristic { txn, .. } => Some((*txn, LogNote::Heuristic)),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let control = host.append_tm(&mut cursor, record, durability);
                    if let (Some(obs), Some((txn, note))) = (self.obs.as_mut(), note) {
                        // Stamped after the append so a host that models
                        // flush latency has advanced the cursor: the
                        // in-doubt window opens once the Prepared record
                        // is durable and closes when the outcome (or a
                        // heuristic decision) is.
                        match note {
                            LogNote::InDoubt => obs.obs.in_doubt_enter(txn, cursor),
                            LogNote::Decision => {
                                obs.observe_decided(cursor, txn);
                                obs.obs.in_doubt_resolve(txn, cursor);
                            }
                            LogNote::Heuristic => obs.obs.in_doubt_resolve(txn, cursor),
                        }
                    }
                    match control {
                        LogControl::Done => {}
                        LogControl::Suspend => {
                            host.suspend_rest(queue.drain(..).collect());
                            return Ok(());
                        }
                    }
                }
                Action::PrepareLocal { txn, rm_durability } => {
                    match host.prepare_local(&mut cursor, txn, rm_durability) {
                        PrepareControl::Vote(vote) => {
                            let nested = self
                                .engine
                                .handle(cursor, Event::LocalPrepared { txn, vote })?;
                            for a in nested.into_iter().rev() {
                                queue.push_front(a);
                            }
                        }
                        PrepareControl::Async => {}
                    }
                }
                Action::CommitLocal { txn, rm_durability } => {
                    host.commit_local(&mut cursor, txn, rm_durability);
                }
                Action::AbortLocal { txn, rm_durability } => {
                    host.abort_local(&mut cursor, txn, rm_durability);
                }
                Action::ForgetLocal { txn } => {
                    host.forget_local(cursor, txn);
                }
                Action::NotifyOutcome {
                    txn,
                    outcome,
                    report,
                    pending,
                } => {
                    self.stats.outcomes += 1;
                    if report.has_damage() {
                        self.stats.damaged_outcomes += 1;
                    }
                    if pending {
                        self.stats.pending_outcomes += 1;
                    }
                    if let Some(obs) = self.obs.as_mut() {
                        obs.observe_outcome(cursor, txn);
                    }
                    host.notify_outcome(cursor, txn, outcome, report, pending);
                }
                Action::SetTimer { txn, kind, delay } => {
                    self.next_gen += 1;
                    let gen = self.next_gen;
                    self.timer_gen.insert((txn, kind), gen);
                    host.set_timer(cursor, txn, kind, delay, gen);
                }
                Action::CancelTimer { txn, kind } => {
                    self.timer_gen.remove(&(txn, kind));
                    host.cancel_timer(txn, kind);
                }
                Action::TxnEnded { txn } => {
                    if let Some(obs) = self.obs.as_mut() {
                        // Safety net: a seat that ends while its window
                        // is still open (outcome learned without a local
                        // outcome record) closes it here. No-op when the
                        // window already closed at the decision append.
                        obs.obs.in_doubt_resolve(txn, cursor);
                        obs.observe_end(self.engine.node(), cursor, txn);
                    }
                    host.txn_ended(txn);
                }
            }
        }
        Ok(())
    }

    /// Is `(txn, kind, gen)` still the armed generation? Hosts call this
    /// when a stored deadline comes due; a `false` answer means the
    /// timer was cancelled or re-armed since.
    pub fn timer_is_current(&self, txn: TxnId, kind: TimerKind, gen: u64) -> bool {
        self.timer_gen.get(&(txn, kind)).copied() == Some(gen)
    }

    /// Invalidates every armed timer (crash handling). In-flight phase
    /// marks are dropped with them: a crashed seat's phases end with the
    /// crash and are not worth charging to the protocol.
    pub fn clear_timers(&mut self) {
        self.timer_gen.clear();
        if let Some(obs) = self.obs.as_mut() {
            obs.marks.clear();
            obs.remote.clear();
        }
    }

    /// Runs engine recovery from the durable log and returns the actions
    /// to re-drive. They are returned rather than applied because the
    /// harness must recover its resource managers first (so the re-driven
    /// `CommitLocal`/`AbortLocal` find consistent RM state), then call
    /// [`Driver::apply`].
    ///
    /// Also computes [`RecoveryStats`] from the log summaries and the
    /// re-driven stream, and — when an observer is attached — re-opens
    /// the in-doubt window of every prepared-undecided transaction *at
    /// the instant its `Prepared` record was stamped*, so the window
    /// eventually reported covers the whole outage, not just the
    /// post-restart tail.
    pub fn recover(
        &mut self,
        durable: &[(tpc_common::Lsn, tpc_wal::StreamId, LogRecord)],
        now: SimTime,
    ) -> Result<Vec<Action>> {
        let mut stats = self.recovery.take().unwrap_or_default();
        stats.wal_records_scanned += durable.len() as u64;
        for (txn, summary) in crate::recovery::summarize(durable) {
            if summary.end {
                continue;
            }
            if summary.in_doubt() {
                stats.in_doubt_recovered += 1;
                if let Some(obs) = self.obs.as_ref() {
                    obs.obs
                        .in_doubt_enter(txn, summary.prepared_at.unwrap_or(now));
                }
            } else if summary.outcome().is_some() {
                stats.redrives += 1;
            } else if summary.interrupted_voting() {
                stats.interrupted_vote_aborts += 1;
            }
        }
        let actions = self.engine.recover(durable, now)?;
        stats.queries_sent += actions
            .iter()
            .filter(|a| {
                matches!(a, Action::Send { msgs, .. }
                    if msgs.iter().any(|m| matches!(m, ProtocolMsg::Query { .. })))
            })
            .count() as u64;
        self.recovery = Some(stats);
        Ok(actions)
    }

    /// Flushes deferred (long-locks / implied) acknowledgments through
    /// the interpreter.
    pub fn flush_owed_acks<H: NodeHost + ?Sized>(
        &mut self,
        host: &mut H,
        now: SimTime,
    ) -> Result<()> {
        let actions = self.engine.flush_owed_acks();
        self.apply(host, now, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::ProtocolKind;
    use tpc_wal::{MemLog, StreamId};

    #[test]
    fn rm_log_routing_prefers_private_log() {
        let mut tm = MemLog::new();
        let mut private = MemLog::new();

        // With a private RM log, records land there...
        rm_log_slot(Some(&mut private), &mut tm)
            .append(
                StreamId::Rm(0),
                LogRecord::End {
                    txn: TxnId::new(NodeId(0), 1),
                },
                Durability::NonForced,
            )
            .unwrap();
        assert_eq!(private.stats().writes, 1);
        assert_eq!(tm.stats().writes, 0);

        // ...without one (shared-log optimization), the TM log absorbs
        // them.
        rm_log_of(None, &mut tm)
            .append(
                StreamId::Rm(0),
                LogRecord::End {
                    txn: TxnId::new(NodeId(0), 1),
                },
                Durability::NonForced,
            )
            .unwrap();
        assert_eq!(private.stats().writes, 1);
        assert_eq!(tm.stats().writes, 1);
    }

    /// A trivial host recording effects, for driver unit tests.
    #[derive(Default)]
    struct RecordingHost {
        frames: Vec<(NodeId, usize)>,
        ctxs: Vec<Option<TraceCtx>>,
        logs: Vec<(String, bool)>,
        votes: Vec<TxnId>,
        outcomes: Vec<(TxnId, Outcome)>,
        timers: Vec<(TxnId, TimerKind, u64)>,
    }

    impl Wire for RecordingHost {
        fn send(
            &mut self,
            _now: SimTime,
            to: NodeId,
            ctx: Option<TraceCtx>,
            msgs: Vec<ProtocolMsg>,
        ) {
            self.frames.push((to, msgs.len()));
            self.ctxs.push(ctx);
        }
    }
    impl LogHost for RecordingHost {
        fn append_tm(
            &mut self,
            _now: &mut SimTime,
            record: LogRecord,
            durability: Durability,
        ) -> LogControl {
            self.logs
                .push((record.kind_name().to_string(), durability.is_forced()));
            LogControl::Done
        }
    }
    impl RmHost for RecordingHost {
        fn prepare_local(
            &mut self,
            _now: &mut SimTime,
            txn: TxnId,
            _rm_durability: Durability,
        ) -> PrepareControl {
            self.votes.push(txn);
            PrepareControl::Vote(LocalVote::yes())
        }
        fn commit_local(&mut self, _now: &mut SimTime, _txn: TxnId, _d: Durability) {}
        fn abort_local(&mut self, _now: &mut SimTime, _txn: TxnId, _d: Durability) {}
        fn forget_local(&mut self, _now: SimTime, _txn: TxnId) {}
        fn txn_ended(&mut self, _txn: TxnId) {}
    }
    impl TimerHost for RecordingHost {
        fn set_timer(
            &mut self,
            _now: SimTime,
            txn: TxnId,
            kind: TimerKind,
            _delay: SimDuration,
            gen: u64,
        ) {
            self.timers.push((txn, kind, gen));
        }
    }
    impl AppSink for RecordingHost {
        fn notify_outcome(
            &mut self,
            _now: SimTime,
            txn: TxnId,
            outcome: Outcome,
            _report: DamageReport,
            _pending: bool,
        ) {
            self.outcomes.push((txn, outcome));
        }
    }

    #[test]
    fn driver_counts_and_timer_generations() {
        let mut host = RecordingHost::default();
        let mut driver =
            Driver::new(EngineConfig::new(NodeId(0), ProtocolKind::PresumedAbort)).unwrap();
        let txn = TxnId::new(NodeId(0), 1);
        let now = SimTime(1);

        driver
            .handle(
                &mut host,
                now,
                Event::SendWork {
                    txn,
                    to: NodeId(1),
                    payload: vec![],
                },
            )
            .unwrap();
        driver
            .handle(&mut host, now, Event::CommitRequested { txn })
            .unwrap();

        // Work frame + Prepare frame left the wire; the vote round-trip
        // happened through the host.
        assert_eq!(driver.stats().flows_sent, 2);
        assert_eq!(host.votes, vec![txn]);
        // A vote-collection timer is armed and current.
        let &(t, k, gen) = host.timers.first().expect("timer armed");
        assert!(driver.timer_is_current(t, k, gen));
        driver.clear_timers();
        assert!(!driver.timer_is_current(t, k, gen));
    }

    #[test]
    fn local_commit_produces_phase_spans() {
        let mut host = RecordingHost::default();
        let mut driver =
            Driver::new(EngineConfig::new(NodeId(0), ProtocolKind::PresumedAbort)).unwrap();
        let obs = Arc::new(Obs::new());
        obs.set_tracing(true);
        driver.set_obs(Arc::clone(&obs));

        // A purely local transaction: work at t=10, commit at t=50.
        let txn = TxnId::new(NodeId(0), 1);
        driver
            .handle(
                &mut host,
                SimTime(10),
                Event::SendWork {
                    txn,
                    to: NodeId(1),
                    payload: vec![],
                },
            )
            .unwrap();
        driver
            .handle(&mut host, SimTime(50), Event::CommitRequested { txn })
            .unwrap();
        // Deliver the subordinate's vote and ack so the seat completes.
        driver
            .handle(
                &mut host,
                SimTime(60),
                Event::MsgReceived {
                    from: NodeId(1),
                    msg: ProtocolMsg::VoteMsg {
                        txn,
                        vote: tpc_common::Vote::Yes(tpc_common::VoteFlags::NONE),
                    },
                },
            )
            .unwrap();
        driver
            .handle(
                &mut host,
                SimTime(80),
                Event::MsgReceived {
                    from: NodeId(1),
                    msg: ProtocolMsg::Ack {
                        txn,
                        report: DamageReport::default(),
                        pending: false,
                    },
                },
            )
            .unwrap();
        assert_eq!(host.outcomes, vec![(txn, Outcome::Commit)]);

        let snap = obs.snapshot();
        // Work phase = 10..50 = 40µs.
        let work = snap.phase(Phase::Work).expect("work recorded");
        assert_eq!((work.count, work.sum), (1, 40));
        // Prepare starts at commit request, ends at the decision record.
        let prepare = snap.phase(Phase::Prepare).expect("prepare recorded");
        assert_eq!(prepare.count, 1);
        assert!(prepare.sum >= 10, "prepare covers the vote wait");
        // Decision and ack phases both recorded for a coordinator that
        // waits for acks.
        assert!(snap.phase(Phase::Decision).is_some());
        assert!(snap.phase(Phase::Ack).is_some());
        // Span tree: every span belongs to the txn and node 0, and the
        // work span starts first.
        let spans = snap.txn_spans(txn);
        assert!(spans.len() >= 3, "spans: {spans:?}");
        assert!(spans.iter().all(|s| s.node == NodeId(0)));
        assert_eq!(spans[0].phase, Phase::Work);
        assert_eq!(spans[0].start, SimTime(10));
    }

    #[test]
    fn outgoing_frames_carry_trace_ctx_when_tracing() {
        let mut host = RecordingHost::default();
        let mut driver =
            Driver::new(EngineConfig::new(NodeId(0), ProtocolKind::PresumedAbort)).unwrap();
        let obs = Arc::new(Obs::new());
        obs.set_tracing(true);
        driver.set_obs(Arc::clone(&obs));

        let txn = TxnId::new(NodeId(0), 1);
        driver
            .handle(
                &mut host,
                SimTime(5),
                Event::SendWork {
                    txn,
                    to: NodeId(1),
                    payload: vec![],
                },
            )
            .unwrap();
        let ctx = host.ctxs[0].expect("work frame stamped with trace ctx");
        assert_eq!(ctx.txn, txn);
        assert_eq!(ctx.sent_at, SimTime(5));
        // Seat ids embed the node in the high bits, so they are globally
        // unique without coordination.
        assert_eq!(ctx.parent_seat >> 40, u64::from(NodeId(0).0) + 1);
    }

    #[test]
    fn remote_ctx_becomes_span_parent_on_first_contact_only() {
        let mut host = RecordingHost::default();
        let mut driver =
            Driver::new(EngineConfig::new(NodeId(2), ProtocolKind::PresumedAbort)).unwrap();
        let obs = Arc::new(Obs::new());
        obs.set_tracing(true);
        driver.set_obs(Arc::clone(&obs));

        // Root node 0 enrolls this node: its Work frame carries its seat.
        let txn = TxnId::new(NodeId(0), 9);
        let root_seat = (1u64 << 40) | 7;
        driver.note_remote_ctx(&TraceCtx {
            txn,
            parent_seat: root_seat,
            sent_at: SimTime(1),
        });
        // A later frame (e.g. the decision) must not replace the parent.
        driver.note_remote_ctx(&TraceCtx {
            txn,
            parent_seat: (5u64 << 40) | 99,
            sent_at: SimTime(2),
        });
        driver
            .handle(
                &mut host,
                SimTime(3),
                Event::MsgReceived {
                    from: NodeId(0),
                    msg: ProtocolMsg::Work {
                        txn,
                        payload: vec![],
                    },
                },
            )
            .unwrap();
        // An abort decision ends the seat and flushes its spans.
        driver
            .handle(
                &mut host,
                SimTime(4),
                Event::MsgReceived {
                    from: NodeId(0),
                    msg: ProtocolMsg::Decision {
                        txn,
                        outcome: Outcome::Abort,
                    },
                },
            )
            .unwrap();
        let spans = obs.snapshot().txn_spans(txn);
        assert!(!spans.is_empty(), "seat emitted spans");
        assert!(spans.iter().all(|s| s.parent == Some(root_seat)));
        assert!(spans.iter().all(|s| s.seat >> 40 == 3));
    }

    #[test]
    fn prepared_log_opens_in_doubt_window_and_recover_reopens_it() {
        // A subordinate that logs Prepared enters the in-doubt window;
        // recovery from the same log re-opens it at the stamped instant.
        let mut host = RecordingHost::default();
        let mut driver =
            Driver::new(EngineConfig::new(NodeId(1), ProtocolKind::PresumedAbort)).unwrap();
        let obs = Arc::new(Obs::new());
        driver.set_obs(Arc::clone(&obs));

        let txn = TxnId::new(NodeId(0), 4);
        driver
            .handle(
                &mut host,
                SimTime(10),
                Event::MsgReceived {
                    from: NodeId(0),
                    msg: ProtocolMsg::Work {
                        txn,
                        payload: vec![],
                    },
                },
            )
            .unwrap();
        driver
            .handle(
                &mut host,
                SimTime(100),
                Event::MsgReceived {
                    from: NodeId(0),
                    msg: ProtocolMsg::Prepare {
                        txn,
                        long_locks: false,
                        expect_work: true,
                    },
                },
            )
            .unwrap();
        let snap = obs.snapshot_at(SimTime(250));
        assert_eq!(snap.in_doubt_current, 1);
        assert_eq!(snap.in_doubt_oldest_age_us, 150);

        // The commit decision arrives: the window closes at its true width.
        driver
            .handle(
                &mut host,
                SimTime(300),
                Event::MsgReceived {
                    from: NodeId(0),
                    msg: ProtocolMsg::Decision {
                        txn,
                        outcome: Outcome::Commit,
                    },
                },
            )
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.in_doubt_current, 0);
        assert_eq!((snap.in_doubt.count, snap.in_doubt.sum), (1, 200));

        // Crash/recover from a log holding just the Prepared record: the
        // window re-opens at prepared_at, and the stats say why.
        let mut driver2 =
            Driver::new(EngineConfig::new(NodeId(1), ProtocolKind::PresumedAbort)).unwrap();
        let obs2 = Arc::new(Obs::new());
        driver2.set_obs(Arc::clone(&obs2));
        let mut log = MemLog::new();
        log.append(
            StreamId::Tm,
            LogRecord::Prepared {
                txn,
                coordinator: NodeId(0),
                subordinates: vec![],
                prepared_at: SimTime(100),
            },
            Durability::Forced,
        )
        .unwrap();
        let actions = driver2
            .recover(&log.durable_records(), SimTime(5_000))
            .unwrap();
        driver2.apply(&mut host, SimTime(5_000), actions).unwrap();
        let stats = driver2.recovery_stats().expect("recovery ran");
        assert_eq!(stats.in_doubt_recovered, 1);
        assert_eq!(stats.queries_sent, 1, "PA queries the coordinator");
        assert_eq!(stats.wal_records_scanned, 1);
        let snap = obs2.snapshot_at(SimTime(5_100));
        assert_eq!(snap.in_doubt_current, 1);
        assert_eq!(
            snap.in_doubt_oldest_age_us, 5_000,
            "window re-opened at prepared_at, covering the outage"
        );
    }

    #[test]
    fn without_obs_no_marks_accumulate() {
        let mut host = RecordingHost::default();
        let mut driver = Driver::new(EngineConfig::new(NodeId(0), ProtocolKind::Basic)).unwrap();
        let txn = TxnId::new(NodeId(0), 7);
        driver
            .handle(&mut host, SimTime(0), Event::CommitRequested { txn })
            .unwrap();
        assert!(driver.obs().is_none());
    }
}
