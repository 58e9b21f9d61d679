//! The simulated cluster: nodes, event loop, failure injection.
//!
//! Action interpretation is NOT done here: every engine action runs
//! through the shared [`Driver`] in `tpc-core`, exactly as in the live
//! runtime. This module only supplies the simulation-specific seams —
//! virtual-time scheduling, the in-memory network, group-commit batching
//! against the virtual clock, and scripted workload driving — through
//! the driver's host traits.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use tpc_common::{
    HeuristicPolicy, IdMap, IdSet, NodeId, OptimizationConfig, ProtocolKind, SimDuration, SimTime,
    TraceCtx, TxnId,
};
use tpc_core::driver::{
    rm_log_slot, AppSink, Driver, LogControl, LogHost, PrepareControl, RmHost, TimerHost, Wire,
};
use tpc_core::{
    Action, EngineConfig, Event, InDoubtDisposition, LocalDisposition, LocalVote, ProtocolMsg,
    Timeouts, TimerKind, TmEngine,
};
use tpc_obs::{Obs, ObsSnapshot, Phase, Timeline};

/// Sim timeline geometry: 1 ms virtual windows × 256 slots. Sim scenarios
/// finish in well under 256 ms of virtual time, so nothing is evicted and
/// summing window deltas reproduces the cumulative histograms exactly.
const SIM_TIMELINE_WINDOW_US: u64 = 1_000;
/// Ring length of the sim timeline.
const SIM_TIMELINE_WINDOWS: usize = 256;
use tpc_rm::{Access, RmConfig, SharedRm};
use tpc_simnet::{LatencyModel, Network, Partition, Scheduler};
use tpc_wal::{Durability, FlushDecision, GroupCommitter, LogManager, LogRecord, MemLog, StreamId};

use crate::report::{NodeReport, RunReport, TxnResult};
use crate::trace::{TraceEvent, TraceKind};
use crate::verify;
use crate::workload::{decode_ops, encode_ops, Op, TxnSpec, WorkEdge};

/// Cluster-wide simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Default one-way link latency.
    pub latency: LatencyModel,
    /// Time one forced log write (physical flush) takes.
    pub force_latency: SimDuration,
    /// Seed for any randomized latency models.
    pub seed: u64,
    /// `true` → key-value operations run against real resource managers;
    /// `false` (default) → abstract participation, exact paper counts.
    pub real_mode: bool,
    /// Time between a transaction's start and its commit request (the
    /// data-flow window; must exceed the work-delivery depth).
    pub work_window: SimDuration,
    /// Gap between a root notification and the next scripted transaction.
    pub inter_txn_delay: SimDuration,
    /// Flush deferred (long-locks / implied) acks once the script ends,
    /// so final transactions complete everyone's bookkeeping.
    pub flush_acks_at_end: bool,
    /// Hard stop for the virtual clock (bounds blocked scenarios).
    pub horizon: SimDuration,
    /// Attach a per-phase latency recorder to every node.
    pub observe: bool,
    /// Additionally capture per-transaction phase spans (implies the
    /// histograms; spans feed the chrome-trace exporter).
    pub trace_spans: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
            force_latency: SimDuration::from_micros(200),
            seed: 42,
            real_mode: false,
            work_window: SimDuration::from_millis(20),
            inter_txn_delay: SimDuration::from_millis(1),
            flush_acks_at_end: true,
            horizon: SimDuration::from_secs(600),
            observe: false,
            trace_spans: false,
        }
    }
}

impl SimConfig {
    /// Switches on real (key-value) execution mode.
    pub fn real(mut self) -> Self {
        self.real_mode = true;
        self
    }

    /// Overrides the horizon.
    pub fn with_horizon(mut self, h: SimDuration) -> Self {
        self.horizon = h;
        self
    }

    /// Attaches per-phase latency histograms to every node.
    pub fn observed(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Attaches histograms *and* per-transaction span capture.
    pub fn traced(mut self) -> Self {
        self.observe = true;
        self.trace_spans = true;
        self
    }
}

/// Per-node configuration.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Protocol family this node's TM runs.
    pub protocol: ProtocolKind,
    /// Optimization switches.
    pub opts: OptimizationConfig,
    /// TM-level heuristic policy for in-doubt transactions.
    pub heuristic: HeuristicPolicy,
    /// Failure timers.
    pub timeouts: Timeouts,
    /// Local resources are reliable (vote-reliable qualifier).
    pub reliable: bool,
    /// The local application is a pure server (ok-to-leave-out basis).
    pub suspendable: bool,
    /// Volunteers unsolicited votes when its work is done.
    pub unsolicited: bool,
    /// Transaction sequence numbers this node refuses to prepare
    /// (scripted NO votes for abort scenarios).
    pub vote_no_seqs: HashSet<u64>,
    /// Number of local resource managers (real mode). Keys are routed by
    /// their first byte; each LRM has its own lock space and, unless the
    /// shared-log optimization is on, its own log.
    pub rm_count: usize,
}

impl NodeConfig {
    /// A plain node running `protocol` with no optimizations.
    pub fn new(protocol: ProtocolKind) -> Self {
        NodeConfig {
            protocol,
            opts: OptimizationConfig::none(),
            heuristic: HeuristicPolicy::Never,
            timeouts: Timeouts::default(),
            reliable: false,
            suspendable: false,
            unsolicited: false,
            vote_no_seqs: HashSet::new(),
            rm_count: 1,
        }
    }

    /// Sets the number of local resource managers (real mode).
    pub fn with_rms(mut self, count: usize) -> Self {
        self.rm_count = count.max(1);
        self
    }

    /// Replaces the optimization switches.
    pub fn with_opts(mut self, opts: OptimizationConfig) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the heuristic policy.
    pub fn with_heuristic(mut self, h: HeuristicPolicy) -> Self {
        self.heuristic = h;
        self
    }

    /// Sets the failure timeouts.
    pub fn with_timeouts(mut self, t: Timeouts) -> Self {
        self.timeouts = t;
        self
    }

    /// Marks local resources reliable.
    pub fn reliable(mut self) -> Self {
        self.reliable = true;
        self
    }

    /// Marks the node's application as a suspendable server.
    pub fn suspendable(mut self) -> Self {
        self.suspendable = true;
        self
    }

    /// Enables unsolicited voting.
    pub fn unsolicited(mut self) -> Self {
        self.unsolicited = true;
        self
    }

    /// Scripts a NO vote for the given transaction sequence number.
    pub fn vote_no_on(mut self, seq: u64) -> Self {
        self.vote_no_seqs.insert(seq);
        self
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Participation {
    updated: bool,
}

/// Routes a key to one of the node's local resource managers.
fn route_rm(key: &[u8], rm_count: usize) -> usize {
    debug_assert!(rm_count > 0);
    key.first().copied().unwrap_or(0) as usize % rm_count
}

/// One local resource manager plus its (optional) private log. `log` is
/// `None` under the shared-log optimization: records then go to the TM
/// log and ride its forces (see [`rm_log_slot`]).
struct RmSlot {
    rm: SharedRm,
    log: Option<MemLog>,
}

/// Everything simulation-specific about a node — the driver's host state.
struct SimNodeState {
    /// TM log; also carries RM records under the shared-log optimization.
    log: MemLog,
    rms: Vec<RmSlot>,
    partners: Vec<NodeId>,
    participation: IdMap<TxnId, Participation>,
    deadlocked: IdSet<TxnId>,
    pending_ops: IdMap<TxnId, VecDeque<Op>>,
    /// Prepares deferred until blocked local work completes (the
    /// peer-to-peer "finish before you vote" rule).
    prepare_waiting: IdMap<TxnId, Durability>,
    /// Action-stream tails suspended behind a filling group-commit batch,
    /// keyed by ticket.
    suspended: IdMap<u64, Vec<Action>>,
    group: Option<GroupCommitter<u64>>,
    next_ticket: u64,
    /// Ticket of the append that just suspended (bridges the driver's
    /// `append_tm` → `suspend_rest` pair).
    suspending_ticket: Option<u64>,
    /// Virtual time the currently filling group-commit batch opened, for
    /// the `group_flush` latency phase.
    group_opened_at: Option<SimTime>,
    crashed: bool,
}

struct SimNode {
    cfg: NodeConfig,
    driver: Driver,
    state: SimNodeState,
}

impl SimNode {
    fn engine_config(&self, node: NodeId) -> EngineConfig {
        EngineConfig {
            node,
            protocol: self.cfg.protocol,
            opts: self.cfg.opts.clone(),
            timeouts: self.cfg.timeouts,
            heuristic: self.cfg.heuristic,
        }
    }
}

enum Ev {
    Deliver {
        from: NodeId,
        to: NodeId,
        ctx: Option<TraceCtx>,
        msgs: Vec<ProtocolMsg>,
    },
    Engine {
        node: NodeId,
        event: Event,
    },
    Timer {
        node: NodeId,
        txn: TxnId,
        kind: TimerKind,
        gen: u64,
    },
    StartTxn,
    StartSpec {
        spec: Box<TxnSpec>,
    },
    LateEdges {
        txn: TxnId,
        edges: Vec<WorkEdge>,
    },
    SelfPrep {
        node: NodeId,
        txn: TxnId,
    },
    Finish {
        node: NodeId,
        txn: TxnId,
        commit: bool,
    },
    Crash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
    GroupDeadline {
        node: NodeId,
    },
    ContinueBatch {
        node: NodeId,
        ticket: u64,
    },
    ResumeOps {
        node: NodeId,
        txn: TxnId,
    },
}

/// Computes a node's local vote for `txn`, preparing every updating RM
/// (and advancing the virtual-time cursor per forced RM write). Shared
/// between the driver host and the deferred-prepare resume path.
fn compute_local_vote(
    sim_cfg: &SimConfig,
    cfg: &NodeConfig,
    st: &mut SimNodeState,
    txn: TxnId,
    rm_durability: Durability,
    cursor: &mut SimTime,
) -> LocalVote {
    if cfg.vote_no_seqs.contains(&txn.seq) || st.deadlocked.contains(&txn) {
        return LocalVote::no();
    }
    let updated = if sim_cfg.real_mode {
        st.rms.iter().any(|s| !s.rm.is_read_only(txn))
    } else {
        st.participation
            .get(&txn)
            .map(|p| p.updated)
            .unwrap_or(false)
    };
    if !updated {
        return LocalVote {
            disposition: LocalDisposition::ReadOnly,
            reliable: cfg.reliable,
            suspendable: cfg.suspendable,
        };
    }
    if sim_cfg.real_mode {
        // Every updating local RM prepares (forcing its own log unless it
        // shares the TM's — §4 Sharing the Log).
        let SimNodeState { rms, log, .. } = st;
        for slot in rms.iter_mut() {
            if slot.rm.is_read_only(txn) {
                continue;
            }
            slot.rm
                .prepare(txn, rm_log_slot(slot.log.as_mut(), log), rm_durability)
                .expect("rm prepare");
            if rm_durability.is_forced() {
                *cursor += sim_cfg.force_latency;
            }
        }
    }
    LocalVote {
        disposition: LocalDisposition::Yes,
        reliable: cfg.reliable,
        suspendable: cfg.suspendable,
    }
}

/// The driver's view of one simulated node: virtual-time wire, log with
/// group commit, real-mode RMs, scheduler-backed timers, and the
/// scripted application.
struct SimHost<'a> {
    node: NodeId,
    sim_cfg: &'a SimConfig,
    cfg: &'a NodeConfig,
    state: &'a mut SimNodeState,
    sched: &'a mut Scheduler<Ev>,
    net: &'a mut Network,
    trace: &'a mut Vec<TraceEvent>,
    txn_started: &'a IdMap<TxnId, SimTime>,
    outcomes: &'a mut Vec<TxnResult>,
    pending_substantive: &'a mut i64,
    obs: Option<Arc<Obs>>,
}

impl SimHost<'_> {
    fn schedule_sub(&mut self, at: SimTime, ev: Ev) {
        *self.pending_substantive += 1;
        self.sched.schedule(at, ev);
    }

    /// Records one physical flush at the virtual flush cost, stamped at
    /// virtual `now` so the timeline buckets it deterministically.
    fn record_fsync(&self, now: SimTime) {
        if let Some(obs) = self.obs.as_ref() {
            obs.record_at(Phase::Fsync, self.sim_cfg.force_latency.as_micros(), now);
        }
    }

    /// Closes the open group-commit batch window at `now`.
    fn note_group_flush(&mut self, now: SimTime) {
        if let Some(opened) = self.state.group_opened_at.take() {
            if let Some(obs) = self.obs.as_ref() {
                obs.record_at(Phase::GroupFlush, now.since(opened).as_micros(), now);
            }
        }
    }

    fn schedule_resumes(&mut self, grants: Vec<tpc_locks::ReleaseGrant>, at: SimTime) {
        let node = self.node;
        let mut resumed: IdSet<TxnId> = IdSet::default();
        for g in grants {
            if resumed.insert(g.txn) {
                self.schedule_sub(at, Ev::ResumeOps { node, txn: g.txn });
            }
        }
    }
}

impl Wire for SimHost<'_> {
    fn send(&mut self, now: SimTime, to: NodeId, ctx: Option<TraceCtx>, msgs: Vec<ProtocolMsg>) {
        let desc = msgs
            .iter()
            .map(|m| m.kind_name())
            .collect::<Vec<_>>()
            .join("+");
        self.trace.push(TraceEvent {
            at: now,
            kind: TraceKind::Send {
                from: self.node,
                to,
                desc,
            },
        });
        if let Some(d) = self.net.delay(self.node, to, now) {
            self.schedule_sub(
                now + d,
                Ev::Deliver {
                    from: self.node,
                    to,
                    ctx,
                    msgs,
                },
            );
        }
    }
}

impl LogHost for SimHost<'_> {
    fn append_tm(
        &mut self,
        now: &mut SimTime,
        record: LogRecord,
        durability: Durability,
    ) -> LogControl {
        self.trace.push(TraceEvent {
            at: *now,
            kind: TraceKind::Log {
                node: self.node,
                kind: record.kind_name().to_string(),
                forced: durability.is_forced(),
            },
        });
        let forced = durability.is_forced();
        let force_latency = self.sim_cfg.force_latency;
        if forced && self.state.group.is_some() {
            self.state
                .log
                .append_deferred(StreamId::Tm, record, durability)
                .expect("log append");
            let ticket = self.state.next_ticket;
            self.state.next_ticket += 1;
            let decision = {
                let Some(gc) = self.state.group.as_mut() else {
                    unreachable!("guarded by is_some above");
                };
                gc.request(*now, ticket)
            };
            match decision {
                FlushDecision::FlushNow(tickets) => {
                    self.state.log.note_physical_flush();
                    *now += force_latency;
                    self.record_fsync(*now);
                    self.note_group_flush(*now);
                    let node = self.node;
                    for t in tickets {
                        if t != ticket {
                            self.schedule_sub(*now, Ev::ContinueBatch { node, ticket: t });
                        }
                    }
                    LogControl::Done
                }
                FlushDecision::WaitUntil(deadline) => {
                    self.state.suspending_ticket = Some(ticket);
                    if self.state.group_opened_at.is_none() {
                        self.state.group_opened_at = Some(*now);
                    }
                    let node = self.node;
                    self.schedule_sub(deadline, Ev::GroupDeadline { node });
                    LogControl::Suspend
                }
            }
        } else {
            self.state
                .log
                .append(StreamId::Tm, record, durability)
                .expect("log append");
            if forced {
                *now += force_latency;
                self.record_fsync(*now);
            }
            LogControl::Done
        }
    }

    fn suspend_rest(&mut self, rest: Vec<Action>) {
        let ticket = self
            .state
            .suspending_ticket
            .take()
            .expect("suspend_rest without a suspending append");
        self.state.suspended.insert(ticket, rest);
    }
}

impl RmHost for SimHost<'_> {
    fn prepare_local(
        &mut self,
        now: &mut SimTime,
        txn: TxnId,
        rm_durability: Durability,
    ) -> PrepareControl {
        if self.state.pending_ops.contains_key(&txn) && !self.state.deadlocked.contains(&txn) {
            // Blocked local work: finish before voting.
            self.state.prepare_waiting.insert(txn, rm_durability);
            return PrepareControl::Async;
        }
        let vote = compute_local_vote(self.sim_cfg, self.cfg, self.state, txn, rm_durability, now);
        // The vote is delivered through the scheduler (at the advanced
        // cursor) rather than recursively, so it interleaves with other
        // pending virtual-time events exactly as a real prepare
        // round-trip would.
        let node = self.node;
        self.schedule_sub(
            *now,
            Ev::Engine {
                node,
                event: Event::LocalPrepared { txn, vote },
            },
        );
        PrepareControl::Async
    }

    fn commit_local(&mut self, now: &mut SimTime, txn: TxnId, rm_durability: Durability) {
        if !self.sim_cfg.real_mode {
            return;
        }
        let force_latency = self.sim_cfg.force_latency;
        let at = *now;
        let node = self.node;
        let grants = {
            let SimNodeState { rms, log, .. } = &mut *self.state;
            let mut all = Vec::new();
            for slot in rms.iter_mut() {
                match slot
                    .rm
                    .commit(txn, rm_log_slot(slot.log.as_mut(), log), rm_durability, at)
                {
                    Ok(g) => {
                        if rm_durability.is_forced() {
                            *now += force_latency;
                        }
                        all.extend(g);
                    }
                    Err(tpc_common::Error::UnknownTxn(_)) => {}
                    Err(e) => panic!("rm commit failed at {node}: {e}"),
                }
            }
            all
        };
        self.schedule_resumes(grants, *now);
    }

    fn abort_local(&mut self, now: &mut SimTime, txn: TxnId, rm_durability: Durability) {
        if !self.sim_cfg.real_mode {
            return;
        }
        let force_latency = self.sim_cfg.force_latency;
        let at = *now;
        let node = self.node;
        let grants = {
            let SimNodeState { rms, log, .. } = &mut *self.state;
            let mut all = Vec::new();
            for slot in rms.iter_mut() {
                match slot
                    .rm
                    .abort(txn, rm_log_slot(slot.log.as_mut(), log), rm_durability, at)
                {
                    Ok(g) => {
                        if rm_durability.is_forced() {
                            *now += force_latency;
                        }
                        all.extend(g);
                    }
                    Err(e) => panic!("rm abort failed at {node}: {e}"),
                }
            }
            all
        };
        self.schedule_resumes(grants, *now);
    }

    fn forget_local(&mut self, now: SimTime, txn: TxnId) {
        if !self.sim_cfg.real_mode {
            return;
        }
        let grants = {
            let mut all = Vec::new();
            for slot in self.state.rms.iter_mut() {
                if let Ok(g) = slot.rm.forget_read_only(txn, now) {
                    all.extend(g);
                }
            }
            all
        };
        self.schedule_resumes(grants, now);
    }

    fn txn_ended(&mut self, txn: TxnId) {
        self.state.pending_ops.remove(&txn);
        self.state.deadlocked.remove(&txn);
        self.state.prepare_waiting.remove(&txn);
    }
}

impl TimerHost for SimHost<'_> {
    fn set_timer(
        &mut self,
        now: SimTime,
        txn: TxnId,
        kind: TimerKind,
        delay: SimDuration,
        gen: u64,
    ) {
        // Timers are non-substantive: a pending timer alone does not keep
        // the simulation's end-of-script ack flushing from running, so
        // this schedules directly instead of through `schedule_sub`.
        self.sched.schedule(
            now + delay,
            Ev::Timer {
                node: self.node,
                txn,
                kind,
                gen,
            },
        );
    }
}

impl AppSink for SimHost<'_> {
    fn notify_outcome(
        &mut self,
        now: SimTime,
        txn: TxnId,
        outcome: tpc_common::Outcome,
        report: tpc_common::DamageReport,
        pending: bool,
    ) {
        self.trace.push(TraceEvent {
            at: now,
            kind: TraceKind::Notify {
                node: self.node,
                outcome,
                pending,
            },
        });
        let started = self.txn_started.get(&txn).copied().unwrap_or(now);
        self.outcomes.push(TxnResult {
            txn,
            root: self.node,
            outcome,
            report,
            pending,
            started_at: started,
            notified_at: now,
        });
        let delay = self.sim_cfg.inter_txn_delay;
        self.schedule_sub(now + delay, Ev::StartTxn);
    }
}

/// The simulated cluster.
pub struct Sim {
    cfg: SimConfig,
    nodes: Vec<SimNode>,
    sched: Scheduler<Ev>,
    net: Network,
    script: VecDeque<TxnSpec>,
    edges_from: IdMap<(TxnId, NodeId), Vec<WorkEdge>>,
    txn_commit_flag: IdMap<TxnId, bool>,
    txn_started: IdMap<TxnId, SimTime>,
    next_seq: u64,
    outcomes: Vec<TxnResult>,
    trace: Vec<TraceEvent>,
    pending_substantive: i64,
}

impl Sim {
    /// An empty cluster.
    pub fn new(cfg: SimConfig) -> Self {
        let net = Network::new(cfg.latency, cfg.seed);
        Sim {
            cfg,
            nodes: Vec::new(),
            sched: Scheduler::new(),
            net,
            script: VecDeque::new(),
            edges_from: IdMap::default(),
            txn_commit_flag: IdMap::default(),
            txn_started: IdMap::default(),
            next_seq: 1,
            outcomes: Vec::new(),
            trace: Vec::new(),
            pending_substantive: 0,
        }
    }

    /// Adds a node; returns its id.
    pub fn add_node(&mut self, cfg: NodeConfig) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let engine_cfg = EngineConfig {
            node: id,
            protocol: cfg.protocol,
            opts: cfg.opts.clone(),
            timeouts: cfg.timeouts,
            heuristic: cfg.heuristic,
        };
        let mut driver = Driver::new(engine_cfg).expect("valid node config");
        if self.cfg.observe {
            // The timeline and flight recorder ride the virtual clock:
            // every sample is stamped with a deterministic SimTime, so
            // two identical runs produce byte-identical timelines.
            let obs = Arc::new(
                Obs::new()
                    .with_timeline(Arc::new(Timeline::new(
                        SIM_TIMELINE_WINDOW_US,
                        SIM_TIMELINE_WINDOWS,
                    )))
                    .with_flight(Arc::new(tpc_obs::FlightRecorder::new(tpc_obs::FLIGHT_CAP))),
            );
            obs.set_tracing(self.cfg.trace_spans);
            driver.set_obs(obs);
        }
        let group = cfg.opts.group_commit.map(GroupCommitter::new);
        let rms: Vec<RmSlot> = if self.cfg.real_mode {
            (0..cfg.rm_count.max(1))
                .map(|i| RmSlot {
                    // One stripe: the deterministic single-table lock manager.
                    rm: SharedRm::new(RmConfig::new(tpc_common::RmId(i as u16)), 1),
                    log: if cfg.opts.shared_log {
                        None // records go into the TM log
                    } else {
                        Some(MemLog::new())
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        self.nodes.push(SimNode {
            cfg,
            driver,
            state: SimNodeState {
                log: MemLog::new(),
                rms,
                partners: Vec::new(),
                participation: IdMap::default(),
                deadlocked: IdSet::default(),
                pending_ops: IdMap::default(),
                prepare_waiting: IdMap::default(),
                suspended: IdMap::default(),
                group,
                next_ticket: 0,
                suspending_ticket: None,
                group_opened_at: None,
                crashed: false,
            },
        });
        id
    }

    /// Adds `count` identical nodes.
    pub fn add_nodes(&mut self, count: usize, cfg: NodeConfig) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node(cfg.clone())).collect()
    }

    /// Declares `child` a standing conversation partner downstream of
    /// `parent`: enrolled in every commit `parent` coordinates unless the
    /// leave-out rule exempts it.
    pub fn declare_partner(&mut self, parent: NodeId, child: NodeId) {
        let n = &mut self.nodes[parent.index()];
        if !n.state.partners.contains(&child) {
            n.state.partners.push(child);
        }
        n.driver.engine_mut().add_session_partner(child);
    }

    /// Appends a transaction to the script. Transactions run serially:
    /// the next starts after the previous root is notified.
    pub fn push_txn(&mut self, spec: TxnSpec) {
        self.script.push_back(spec);
    }

    /// Schedules a transaction to start at an absolute virtual time,
    /// independent of the serial script — the way scenarios create
    /// *concurrent* transactions (lock contention, group commit batches).
    pub fn push_txn_at(&mut self, spec: TxnSpec, at: SimTime) {
        self.schedule_sub(
            at,
            Ev::StartSpec {
                spec: Box::new(spec),
            },
        );
    }

    /// Schedules a crash of `node` at absolute virtual time `at`.
    pub fn crash_at(&mut self, node: NodeId, at: SimTime) {
        self.schedule_sub(at, Ev::Crash { node });
    }

    /// Schedules a restart (with recovery) of `node` at `at`.
    pub fn restart_at(&mut self, node: NodeId, at: SimTime) {
        self.schedule_sub(at, Ev::Restart { node });
    }

    /// Installs a partition window between `a` and `b`.
    pub fn partition(&mut self, a: NodeId, b: NodeId, from: SimTime, until: Option<SimTime>) {
        self.net.add_partition(Partition { a, b, from, until });
    }

    /// Overrides one directed link's latency (e.g. a satellite hop).
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, model: LatencyModel) {
        self.net.set_link(src, dst, model);
    }

    /// Sets a uniform random frame-loss probability (seeded,
    /// deterministic). Exercises the retry/redelivery machinery.
    pub fn set_loss_rate(&mut self, rate: f64) {
        self.net.set_loss_rate(rate);
    }

    /// Read access to a node's engine, for assertions.
    pub fn engine(&self, node: NodeId) -> &TmEngine {
        self.nodes[node.index()].driver.engine()
    }

    /// Read access to a node's driver-level effect counters.
    pub fn driver_stats(&self, node: NodeId) -> tpc_core::DriverStats {
        self.nodes[node.index()].driver.stats()
    }

    /// Snapshot of a node's phase-latency recorder, when the cluster ran
    /// with [`SimConfig::observed`].
    pub fn obs_snapshot(&self, node: NodeId) -> Option<ObsSnapshot> {
        let now = self.sched.now();
        self.nodes[node.index()]
            .driver
            .obs()
            .map(|o| o.snapshot_at(now))
    }

    /// Snapshot of a node's windowed timeline on the virtual clock, when
    /// the cluster ran with [`SimConfig::observed`]. Deterministic: two
    /// identical runs yield identical snapshots.
    pub fn timeline_snapshot(&self, node: NodeId) -> Option<tpc_obs::TimelineSnapshot> {
        let now = self.sched.now();
        self.nodes[node.index()]
            .driver
            .obs()
            .and_then(|o| o.timeline().map(|t| t.snapshot(now)))
    }

    /// Read access to a node's first resource manager (real mode).
    pub fn rm(&self, node: NodeId) -> Option<&SharedRm> {
        self.nodes[node.index()].state.rms.first().map(|s| &s.rm)
    }

    /// Read access to all of a node's resource managers (real mode).
    pub fn rms(&self, node: NodeId) -> impl Iterator<Item = &SharedRm> {
        self.nodes[node.index()].state.rms.iter().map(|s| &s.rm)
    }

    /// Read access to a node's TM log.
    pub fn log(&self, node: NodeId) -> &MemLog {
        &self.nodes[node.index()].state.log
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn schedule_sub(&mut self, at: SimTime, ev: Ev) {
        self.pending_substantive += 1;
        self.sched.schedule(at, ev);
    }

    /// Runs `f` with a node's driver and its simulation host assembled
    /// from split borrows of the cluster.
    fn with_host<R>(&mut self, node: NodeId, f: impl FnOnce(&mut Driver, &mut SimHost) -> R) -> R {
        let Sim {
            cfg,
            nodes,
            sched,
            net,
            txn_started,
            outcomes,
            trace,
            pending_substantive,
            ..
        } = self;
        let n = &mut nodes[node.index()];
        let obs = n.driver.obs().cloned();
        let mut host = SimHost {
            node,
            sim_cfg: cfg,
            cfg: &n.cfg,
            state: &mut n.state,
            sched,
            net,
            trace,
            txn_started,
            outcomes,
            pending_substantive,
            obs,
        };
        f(&mut n.driver, &mut host)
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Runs the scenario to quiescence (or the horizon) and reports.
    pub fn run(&mut self) -> RunReport {
        self.schedule_sub(SimTime::ZERO, Ev::StartTxn);
        let horizon = SimTime::ZERO + self.cfg.horizon;
        while let Some((at, ev)) = self.sched.pop() {
            if at > horizon {
                break;
            }
            if !matches!(ev, Ev::Timer { .. }) {
                self.pending_substantive -= 1;
            }
            self.dispatch(at, ev);
            self.maybe_flush_acks(at);
        }
        self.build_report()
    }

    /// Once the script has drained and no substantive events remain,
    /// flush deferred acks so the final transaction's partners can finish.
    fn maybe_flush_acks(&mut self, now: SimTime) {
        if !self.cfg.flush_acks_at_end || !self.script.is_empty() || self.pending_substantive != 0 {
            return;
        }
        let any_owed = self
            .nodes
            .iter()
            .any(|n| n.driver.engine().owed_ack_count() > 0);
        if !any_owed {
            return;
        }
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u32);
            self.with_host(node, |driver, host| {
                driver
                    .flush_owed_acks(host, now)
                    .unwrap_or_else(|e| panic!("ack flush failed at {node}: {e}"));
            });
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::StartTxn => self.start_next_txn(now),
            Ev::StartSpec { spec } => self.start_spec(*spec, now),
            Ev::LateEdges { txn, edges } => {
                for e in edges {
                    if self.nodes[e.from.index()].state.crashed {
                        continue;
                    }
                    self.exec_engine(
                        e.from,
                        Event::SendWork {
                            txn,
                            to: e.to,
                            payload: encode_ops(&e.ops),
                        },
                        now,
                    );
                }
            }
            Ev::Engine { node, event } => {
                if !self.nodes[node.index()].state.crashed {
                    self.exec_engine(node, event, now);
                }
            }
            Ev::Deliver {
                from,
                to,
                ctx,
                msgs,
            } => self.deliver(from, to, ctx, msgs, now),
            Ev::Timer {
                node,
                txn,
                kind,
                gen,
            } => {
                let n = &self.nodes[node.index()];
                if n.state.crashed || !n.driver.timer_is_current(txn, kind, gen) {
                    return;
                }
                self.exec_engine(node, Event::TimerFired { txn, kind }, now);
            }
            Ev::SelfPrep { node, txn } => {
                let n = &self.nodes[node.index()];
                if n.state.crashed {
                    return;
                }
                // Only meaningful if the work actually arrived.
                let ready = n
                    .driver
                    .engine()
                    .seat(txn)
                    .map(|s| s.upstream.is_some())
                    .unwrap_or(false);
                if ready {
                    self.exec_engine(node, Event::SelfPrepare { txn }, now);
                }
            }
            Ev::Finish { node, txn, commit } => {
                if self.nodes[node.index()].state.crashed {
                    return;
                }
                let event = if commit {
                    Event::CommitRequested { txn }
                } else {
                    Event::AbortRequested { txn }
                };
                self.exec_engine(node, event, now);
            }
            Ev::Crash { node } => self.do_crash(node, now),
            Ev::Restart { node } => self.do_restart(node, now),
            Ev::GroupDeadline { node } => self.gc_deadline(node, now),
            Ev::ContinueBatch { node, ticket } => {
                if self.nodes[node.index()].state.crashed {
                    return;
                }
                if let Some(rest) = self.nodes[node.index()].state.suspended.remove(&ticket) {
                    self.exec_actions(node, rest, now);
                }
            }
            Ev::ResumeOps { node, txn } => {
                if self.nodes[node.index()].state.crashed {
                    return;
                }
                if let Some(ops) = self.nodes[node.index()].state.pending_ops.remove(&txn) {
                    self.run_ops(node, txn, ops, now);
                }
                // A deferred prepare can vote once the work is done (or
                // refuse, if the resume ended in deadlock).
                let sim_cfg = self.cfg.clone();
                let n = &mut self.nodes[node.index()];
                if !n.state.pending_ops.contains_key(&txn) {
                    if let Some(dur) = n.state.prepare_waiting.remove(&txn) {
                        let mut cursor = now;
                        let vote = compute_local_vote(
                            &sim_cfg,
                            &n.cfg,
                            &mut n.state,
                            txn,
                            dur,
                            &mut cursor,
                        );
                        self.schedule_sub(
                            cursor,
                            Ev::Engine {
                                node,
                                event: Event::LocalPrepared { txn, vote },
                            },
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Scenario driving
    // ------------------------------------------------------------------

    fn start_next_txn(&mut self, now: SimTime) {
        let Some(spec) = self.script.pop_front() else {
            return;
        };
        self.start_spec(spec, now);
    }

    fn start_spec(&mut self, spec: TxnSpec, now: SimTime) {
        let txn = TxnId::new(spec.root, self.next_seq);
        self.next_seq += 1;
        self.txn_started.insert(txn, now);
        self.txn_commit_flag.insert(txn, spec.commit);

        // Root participation and local work.
        self.note_participation(spec.root, txn, &spec.root_ops);
        self.run_ops(spec.root, txn, spec.root_ops.clone().into(), now);

        // Index deeper edges; kick off the root's own.
        let mut self_prep_targets: Vec<NodeId> = Vec::new();
        for edge in &spec.edges {
            if self.nodes[edge.to.index()].cfg.unsolicited && !self_prep_targets.contains(&edge.to)
            {
                self_prep_targets.push(edge.to);
            }
        }
        for edge in spec.edges.iter().filter(|e| e.from != spec.root) {
            self.edges_from
                .entry((txn, edge.from))
                .or_default()
                .push(edge.clone());
        }
        let root_edges: Vec<WorkEdge> = spec
            .edges
            .iter()
            .filter(|e| e.from == spec.root)
            .cloned()
            .collect();
        for e in root_edges {
            self.exec_engine(
                spec.root,
                Event::SendWork {
                    txn,
                    to: e.to,
                    payload: encode_ops(&e.ops),
                },
                now,
            );
        }

        // Unsolicited voters self-prepare just before the commit point.
        let window = self.cfg.work_window;
        for node in self_prep_targets {
            // Early enough that the volunteered vote beats the commit
            // point even over slow links.
            let self_prep_at = now + SimDuration::from_micros(window.as_micros() * 3 / 4);
            self.schedule_sub(self_prep_at, Ev::SelfPrep { node, txn });
        }
        if !spec.late_edges.is_empty() {
            let half = SimDuration::from_micros(window.as_micros() / 2);
            self.schedule_sub(
                now + half,
                Ev::LateEdges {
                    txn,
                    edges: spec.late_edges.clone(),
                },
            );
        }
        self.schedule_sub(
            now + window,
            Ev::Finish {
                node: spec.root,
                txn,
                commit: spec.commit,
            },
        );
    }

    fn note_participation(&mut self, node: NodeId, txn: TxnId, ops: &[Op]) {
        let p = self.nodes[node.index()]
            .state
            .participation
            .entry(txn)
            .or_default();
        p.updated |= ops.iter().any(|o| o.is_update());
    }

    // ------------------------------------------------------------------
    // Engine plumbing (all interpretation happens in the shared driver)
    // ------------------------------------------------------------------

    fn exec_engine(&mut self, node: NodeId, event: Event, now: SimTime) {
        self.with_host(node, |driver, host| {
            driver
                .handle(host, now, event)
                .unwrap_or_else(|e| panic!("engine error at {node}: {e}"));
        });
    }

    fn exec_actions(&mut self, node: NodeId, actions: Vec<Action>, now: SimTime) {
        self.with_host(node, |driver, host| {
            driver
                .apply(host, now, actions)
                .unwrap_or_else(|e| panic!("action replay failed at {node}: {e}"));
        });
    }

    // ------------------------------------------------------------------
    // Message delivery and application behaviour
    // ------------------------------------------------------------------

    fn deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        ctx: Option<TraceCtx>,
        msgs: Vec<ProtocolMsg>,
        now: SimTime,
    ) {
        if self.nodes[to.index()].state.crashed {
            return;
        }
        if let Some(ctx) = &ctx {
            self.nodes[to.index()].driver.note_remote_ctx(ctx);
        }
        for msg in msgs {
            if let ProtocolMsg::Work { txn, payload } = &msg {
                let txn = *txn;
                let ops = decode_ops(payload).expect("well-formed work payload");
                self.note_participation(to, txn, &ops);
                self.exec_engine(
                    to,
                    Event::MsgReceived {
                        from,
                        msg: msg.clone(),
                    },
                    now,
                );
                self.run_ops(to, txn, ops.into(), now);
                if let Some(edges) = self.edges_from.remove(&(txn, to)) {
                    for e in edges {
                        self.exec_engine(
                            to,
                            Event::SendWork {
                                txn,
                                to: e.to,
                                payload: encode_ops(&e.ops),
                            },
                            now,
                        );
                    }
                }
            } else {
                self.exec_engine(to, Event::MsgReceived { from, msg }, now);
            }
        }
    }

    fn run_ops(&mut self, node: NodeId, txn: TxnId, mut ops: VecDeque<Op>, now: SimTime) {
        if !self.cfg.real_mode {
            return;
        }
        while let Some(op) = ops.pop_front() {
            let access = {
                let st = &mut self.nodes[node.index()].state;
                if st.rms.is_empty() {
                    return;
                }
                let key = match &op {
                    Op::Read(k) | Op::Write(k, _) => k.as_slice(),
                };
                let idx = route_rm(key, st.rms.len());
                let SimNodeState { rms, log, .. } = st;
                let slot = &mut rms[idx];
                let the_log = rm_log_slot(slot.log.as_mut(), log);
                match &op {
                    Op::Read(k) => slot.rm.read(txn, k, now),
                    Op::Write(k, v) => slot.rm.write(txn, k, v.clone(), the_log, now),
                }
            };
            match access {
                Ok(Access::Value(_)) => {}
                Ok(Access::Wait) => {
                    ops.push_front(op);
                    self.nodes[node.index()].state.pending_ops.insert(txn, ops);
                    return;
                }
                Ok(Access::Deadlock) => {
                    // The victim's application is told immediately (the
                    // RM returns an error to it); it rolls back locally
                    // at every local RM, releasing its locks, and the
                    // node will vote NO when the coordinator asks.
                    self.nodes[node.index()].state.deadlocked.insert(txn);
                    let grants = {
                        let st = &mut self.nodes[node.index()].state;
                        let SimNodeState { rms, log, .. } = st;
                        let mut all = Vec::new();
                        for slot in rms.iter_mut() {
                            let the_log = rm_log_slot(slot.log.as_mut(), log);
                            all.extend(
                                slot.rm
                                    .abort(txn, the_log, Durability::NonForced, now)
                                    .unwrap_or_default(),
                            );
                        }
                        all
                    };
                    self.schedule_resumes(node, grants, now);
                    return;
                }
                Err(e) => panic!("rm op failed at {node}: {e}"),
            }
        }
    }

    fn schedule_resumes(
        &mut self,
        node: NodeId,
        grants: Vec<tpc_locks::ReleaseGrant>,
        at: SimTime,
    ) {
        let mut resumed: IdSet<TxnId> = IdSet::default();
        for g in grants {
            if resumed.insert(g.txn) {
                self.schedule_sub(at, Ev::ResumeOps { node, txn: g.txn });
            }
        }
    }

    // ------------------------------------------------------------------
    // Group commit
    // ------------------------------------------------------------------

    fn gc_deadline(&mut self, node: NodeId, now: SimTime) {
        if self.nodes[node.index()].state.crashed {
            return;
        }
        let released = {
            let st = &mut self.nodes[node.index()].state;
            let Some(gc) = st.group.as_mut() else { return };
            gc.expire(now)
        };
        if let Some(tickets) = released {
            let n = &mut self.nodes[node.index()];
            n.state.log.note_physical_flush();
            let resume_at = now + self.cfg.force_latency;
            if let Some(obs) = n.driver.obs() {
                obs.record_at(Phase::Fsync, self.cfg.force_latency.as_micros(), resume_at);
                if let Some(opened) = n.state.group_opened_at.take() {
                    obs.record_at(
                        Phase::GroupFlush,
                        resume_at.since(opened).as_micros(),
                        resume_at,
                    );
                }
            } else {
                n.state.group_opened_at = None;
            }
            for t in tickets {
                self.schedule_sub(resume_at, Ev::ContinueBatch { node, ticket: t });
            }
        }
    }

    // ------------------------------------------------------------------
    // Failures
    // ------------------------------------------------------------------

    fn do_crash(&mut self, node: NodeId, now: SimTime) {
        self.trace.push(TraceEvent {
            at: now,
            kind: TraceKind::Crash { node },
        });
        self.net.set_crashed(node, true);
        let n = &mut self.nodes[node.index()];
        n.state.crashed = true;
        n.state.log.crash();
        for slot in n.state.rms.iter_mut() {
            if let Some(rl) = slot.log.as_mut() {
                rl.crash();
            }
            slot.rm.crash();
        }
        n.driver.clear_timers();
        n.state.pending_ops.clear();
        n.state.prepare_waiting.clear();
        n.state.suspended.clear();
        n.state.suspending_ticket = None;
        n.state.group_opened_at = None;
        n.state.deadlocked.clear();
        if let Some(gc) = n.state.group.as_mut() {
            let _ = gc.drain();
        }
        // LU 6.2 conversation-failure notification: surviving partners
        // learn the conversation broke and abort work that has not voted.
        for i in 0..self.nodes.len() {
            let peer = NodeId(i as u32);
            if peer == node || self.nodes[i].state.crashed {
                continue;
            }
            self.exec_engine(peer, Event::PartnerFailed { peer: node }, now);
        }
    }

    fn do_restart(&mut self, node: NodeId, now: SimTime) {
        self.trace.push(TraceEvent {
            at: now,
            kind: TraceKind::Restart { node },
        });
        self.net.set_crashed(node, false);
        let engine_cfg = self.nodes[node.index()].engine_config(node);
        let partners = self.nodes[node.index()].state.partners.clone();
        {
            let n = &mut self.nodes[node.index()];
            n.state.crashed = false;
            n.state.log.restart();
            for slot in n.state.rms.iter_mut() {
                if let Some(rl) = slot.log.as_mut() {
                    rl.restart();
                }
            }
            let obs = n.driver.obs().cloned();
            n.driver = Driver::new(engine_cfg).expect("valid config");
            if let Some(obs) = obs {
                n.driver.set_obs(obs);
            }
            for p in partners {
                n.driver.engine_mut().add_session_partner(p);
            }
        }

        // Resource-manager recovery first, so the engine's re-driven
        // CommitLocal/AbortLocal actions find consistent RM state.
        if self.cfg.real_mode {
            let st = &mut self.nodes[node.index()].state;
            let SimNodeState { rms, log, .. } = st;
            for slot in rms.iter_mut() {
                let durable = rm_log_slot(slot.log.as_mut(), log).durable_records();
                slot.rm.recover(&durable, now).expect("rm recovery");
            }
        }

        let actions = {
            let n = &mut self.nodes[node.index()];
            let durable = n.state.log.durable_records();
            n.driver.recover(&durable, now).expect("engine recovery")
        };

        // Now resolve RM in-doubt transactions against the recovered TM,
        // through the shared disposition rule.
        if self.cfg.real_mode {
            let rm_count = self.nodes[node.index()].state.rms.len();
            for idx in 0..rm_count {
                let dispositions: Vec<(TxnId, InDoubtDisposition)> = {
                    let n = &self.nodes[node.index()];
                    let engine = n.driver.engine();
                    n.state.rms[idx]
                        .rm
                        .in_doubt()
                        .into_iter()
                        .map(|t| (t, engine.recovered_disposition(t)))
                        .collect()
                };
                for (txn, disposition) in dispositions {
                    let st = &mut self.nodes[node.index()].state;
                    let SimNodeState { rms, log, .. } = st;
                    let slot = &mut rms[idx];
                    let the_log = rm_log_slot(slot.log.as_mut(), log);
                    match disposition {
                        InDoubtDisposition::Commit => {
                            let _ = slot.rm.commit(txn, the_log, Durability::Forced, now);
                        }
                        InDoubtDisposition::Abort => {
                            let _ = slot.rm.abort(txn, the_log, Durability::NonForced, now);
                        }
                        InDoubtDisposition::AwaitOutcome => {} // protocol resolves
                    }
                }
            }
        }

        self.exec_actions(node, actions, now);
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn build_report(&mut self) -> RunReport {
        let mut per_node = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            let (tm_writes, tm_forced) = n.state.log.stream_counts(StreamId::Tm);
            let mut rm_writes = 0;
            let mut rm_forced = 0;
            let mut physical_flushes = n.state.log.stats().physical_flushes;
            let mut locks = tpc_locks::LockStats::default();
            for (idx, slot) in n.state.rms.iter().enumerate() {
                let stream = StreamId::Rm(idx as u16);
                let (w, f) = match &slot.log {
                    Some(rl) => {
                        physical_flushes += rl.stats().physical_flushes;
                        rl.stream_counts(stream)
                    }
                    None => n.state.log.stream_counts(stream),
                };
                rm_writes += w;
                rm_forced += f;
                locks.merge(&slot.rm.lock_stats());
            }
            per_node.push(NodeReport {
                node,
                tm_writes,
                tm_forced,
                rm_writes,
                rm_forced,
                physical_flushes,
                engine: n.driver.engine().metrics(),
                locks,
            });
        }
        let (violations, unresolved) = verify::check(self, &self.outcomes);
        RunReport {
            outcomes: self.outcomes.clone(),
            per_node,
            trace: self.trace.clone(),
            violations,
            unresolved,
            finished_at: self.sched.now(),
        }
    }

    pub(crate) fn nodes_iter(&self) -> impl Iterator<Item = (NodeId, &TmEngine)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n.driver.engine()))
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].state.crashed
    }
}
