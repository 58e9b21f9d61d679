//! The node worker: one thread owning an engine (via the shared
//! [`Driver`]), a log and a resource manager, fed by an inbound channel.
//!
//! Action interpretation is NOT done here: every engine action runs
//! through the shared [`Driver`] in `tpc-core`, exactly as in the
//! simulator. This module only supplies the live seams — a real
//! transport, a wall-clock timer queue, the application reply channels —
//! through the driver's host traits.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use tpc_common::config::GroupCommitConfig;
use tpc_common::wire::{Decode, Encode};
use tpc_common::{
    decode_ops, BufferPool, DamageReport, Error, HeuristicPolicy, IdMap, IdSet, NodeId, Op,
    OptimizationConfig, Outcome, PoolStats, PooledBuf, ProtocolKind, Result, SimDuration, SimTime,
    TraceCtx, TxnId,
};
use tpc_core::driver::rm_log_slot;
use tpc_core::messages::{Bundle, Frame};
use tpc_core::{
    Action, AppSink, Driver, DriverStats, EngineConfig, EngineMetrics, Event, InDoubtDisposition,
    LocalDisposition, LocalVote, LogControl, LogHost, NodeProtocolState, OwedAck, PrepareControl,
    ProtocolMsg, RecoveryStats, RmHost, Stage, Timeouts, TimerHost, TimerKind, Wire,
};
use tpc_locks::LockStats;
use tpc_obs::{
    FlightEvent, FlightKind, FlightRecorder, Obs, ObsSnapshot, Phase, Timeline, TimelineCounter,
    TimelineGauge, TimelineSnapshot, FLIGHT_CAP,
};
use tpc_rm::{Access, SharedRm};
use tpc_wal::{
    Durability, FaultyLog, FlushDecision, GroupCommitter, GroupStats, LogManager, LogRecord,
    LogStats, MemLog, SegmentedLog, StorageFaultPlan, StreamId, TailState,
};

use crate::signal::ClusterSignal;
use crate::timers::TimerQueue;

/// Where a live node keeps its write-ahead log.
#[derive(Clone, Debug, Default)]
pub enum LogBackend {
    /// In-memory (fast; the default for examples and tests).
    #[default]
    Memory,
    /// The segmented WAL under the given directory, exactly as
    /// [`Segmented`](Self::Segmented) builds it. The two differ only in
    /// that [`LiveNodeConfig::with_segmented_log`] also raises
    /// `shared_log`; this name stays because the benchmark adapter
    /// matches on it.
    File(std::path::PathBuf),
    /// A segmented, preallocated WAL under the given directory, with
    /// fsync on every forced write: the TM chain lives in
    /// `node-<id>-wal/`, the RM chain (when the log is not shared) in
    /// `node-<id>-rm-wal/`. Steady-state appends never extend a file, so
    /// each `fdatasync` skips the metadata flush, and sealed segments
    /// whose transactions have all ended are reclaimed unless the chain
    /// carries RM redo.
    Segmented(std::path::PathBuf),
}

/// What a node does when its write-ahead log stops accepting writes
/// (fsync failures that survive retries, ENOSPC): the one thing it must
/// never do is keep answering as if the write had happened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IoErrorPolicy {
    /// Crash the node. Conservative and simple: the cluster sees a dead
    /// partner, runs the normal failure timers, and the node restarts
    /// from whatever *was* durably forced.
    #[default]
    FailStop,
    /// Degrade to read-only: reads keep working, but every new prepare
    /// votes No and every commit request is answered with an explicit
    /// abort, each one counted in [`WalHealth::rejected_txns`] — the
    /// admission-control philosophy applied to a dying disk.
    ReadOnly,
}

/// Shared WAL-health state for one node: every lane's host counts its
/// I/O errors and retries here, and the degraded / fail-stop flags gate
/// all lanes at once (the disk is a node-level resource).
#[derive(Debug, Default)]
pub(crate) struct IoHealth {
    io_errors: AtomicU64,
    fsync_retries: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicBool,
    fail_stop: AtomicBool,
}

impl IoHealth {
    fn note_error(&self) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
    }

    fn note_retry(&self) {
        self.fsync_retries.fetch_add(1, Ordering::Relaxed);
    }

    fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies the policy verdict after durability could not be
    /// re-established.
    fn give_up(&self, policy: IoErrorPolicy) {
        match policy {
            IoErrorPolicy::FailStop => self.fail_stop.store(true, Ordering::Relaxed),
            IoErrorPolicy::ReadOnly => self.degraded.store(true, Ordering::Relaxed),
        }
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn wants_fail_stop(&self) -> bool {
        self.fail_stop.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> WalHealth {
        WalHealth {
            io_errors: self.io_errors.load(Ordering::Relaxed),
            fsync_retries: self.fsync_retries.load(Ordering::Relaxed),
            rejected_txns: self.rejected.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            fail_stopped: self.fail_stop.load(Ordering::Relaxed),
        }
    }
}

/// WAL-health snapshot a node reports in its [`NodeSummary`]: how many
/// log I/O operations failed, how many fsync retries were spent
/// re-establishing durability, and whether the node ended up degraded
/// (read-only) or fail-stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalHealth {
    /// Log append/sync operations that returned an error.
    pub io_errors: u64,
    /// Fsync retries issued trying to land a buffered forced record.
    pub fsync_retries: u64,
    /// Transactions explicitly rejected (prepare voted No, commit
    /// answered with abort) because the node was degraded read-only.
    pub rejected_txns: u64,
    /// The node is running read-only under [`IoErrorPolicy::ReadOnly`].
    pub degraded: bool,
    /// The node killed itself under [`IoErrorPolicy::FailStop`].
    pub fail_stopped: bool,
}

impl WalHealth {
    /// Folds a sibling lane's view in. Lanes share one [`IoHealth`], so
    /// the snapshots are near-identical; max/OR keeps the latest.
    fn absorb(&mut self, other: &WalHealth) {
        self.io_errors = self.io_errors.max(other.io_errors);
        self.fsync_retries = self.fsync_retries.max(other.fsync_retries);
        self.rejected_txns = self.rejected_txns.max(other.rejected_txns);
        self.degraded |= other.degraded;
        self.fail_stopped |= other.fail_stopped;
    }
}

/// Degradation counters every transport can report in one normalized
/// shape, so the node summary shows a struggling peer link next to the
/// WAL and pool health instead of burying it in free-form counter
/// triples. In-process transports report zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportHealth {
    /// Backoff sleeps taken after a failed connect or write.
    pub send_retries: u64,
    /// Successful re-connects after an established connection was lost.
    pub reconnects: u64,
    /// Frames dropped after retry exhaustion (peer unreachable).
    pub dropped_frames: u64,
}

impl TransportHealth {
    /// Folds a sibling lane's transport view in (lanes own separate
    /// transport handles, so the counters add).
    pub fn absorb(&mut self, other: &TransportHealth) {
        self.send_retries += other.send_retries;
        self.reconnects += other.reconnects;
        self.dropped_frames += other.dropped_frames;
    }
}

/// One transport counter series: `(metric_name, help, labels, value)`,
/// where `labels` holds label pairs beyond `node` (`""` for none).
pub type TransportCounter = (&'static str, &'static str, &'static str, u64);

/// How frames leave a node.
pub trait Transport: Send + 'static {
    /// Delivers an encoded frame to `to` (best effort). The buffer is
    /// pooled: the transport (or the receiving node, for in-process
    /// delivery) recycles it by dropping it.
    fn send(&mut self, to: NodeId, bytes: PooledBuf);

    /// Delivers an encoded frame to a specific coordinator lane of `to`.
    /// Transports that cannot address lanes (TCP, recorders) fall back to
    /// [`Transport::send`]; the receiving side then owns lane dispatch.
    fn send_to_lane(&mut self, to: NodeId, lane: usize, bytes: PooledBuf) {
        let _ = lane;
        self.send(to, bytes);
    }

    /// Transport-level counters for the metrics endpoint. Transports
    /// without interesting state (in-process channels) keep the default.
    fn counters(&self) -> Vec<TransportCounter> {
        Vec::new()
    }

    /// The frame-buffer pool outbound frames should be encoded into, so
    /// send buffers recycle where the transport (and its reader side)
    /// recycles its own. `None` makes the host run a private pool.
    fn buffer_pool(&self) -> Option<BufferPool> {
        None
    }

    /// Normalized degradation counters (retries, reconnects, drops) for
    /// the node summary rollup.
    fn health(&self) -> TransportHealth {
        TransportHealth::default()
    }

    /// Frames enqueued to sender threads but not yet handed to the
    /// kernel — the outbound backlog the timeline samples as a
    /// saturation gauge. In-process transports deliver synchronously and
    /// keep the zero default.
    fn backlog(&self) -> u64 {
        0
    }

    /// The lane's one blocking point: the next inbound message, from
    /// `rx` or from wherever this transport receives peer frames itself,
    /// waiting at most `timeout`. Transports whose frames arrive through
    /// `rx` keep the default.
    fn recv_timeout(
        &mut self,
        rx: &Receiver<Inbound>,
        timeout: Duration,
    ) -> std::result::Result<Inbound, RecvTimeoutError> {
        rx.recv_timeout(timeout)
    }

    /// Peer frames this transport has already received but not yet
    /// returned from [`Transport::recv_timeout`]: with `rx`'s queue, the
    /// lane's inbox.
    fn pending_frames(&self) -> usize {
        0
    }
}

impl Transport for Box<dyn Transport> {
    fn send(&mut self, to: NodeId, bytes: PooledBuf) {
        (**self).send(to, bytes)
    }

    fn send_to_lane(&mut self, to: NodeId, lane: usize, bytes: PooledBuf) {
        (**self).send_to_lane(to, lane, bytes)
    }

    fn counters(&self) -> Vec<TransportCounter> {
        (**self).counters()
    }

    fn buffer_pool(&self) -> Option<BufferPool> {
        (**self).buffer_pool()
    }

    fn health(&self) -> TransportHealth {
        (**self).health()
    }

    fn backlog(&self) -> u64 {
        (**self).backlog()
    }

    fn recv_timeout(
        &mut self,
        rx: &Receiver<Inbound>,
        timeout: Duration,
    ) -> std::result::Result<Inbound, RecvTimeoutError> {
        (**self).recv_timeout(rx, timeout)
    }

    fn pending_frames(&self) -> usize {
        (**self).pending_frames()
    }
}

/// The lane owning `txn` on a node running `lanes` root-coordinator
/// lanes. Pure function of the txn id, so every node in the cluster
/// routes a transaction's messages to the same lane index without
/// coordination.
#[inline]
pub fn lane_of(txn: TxnId, lanes: usize) -> usize {
    if lanes <= 1 {
        0
    } else {
        (txn.seq % lanes as u64) as usize
    }
}

/// Counters of the node-level ack-piggyback slot (zeros on single-lane
/// nodes, where the engine's own owed-ack queue does the piggybacking
/// and accounts for it in [`EngineMetrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct AckSlotStats {
    /// Deferred acks moved from a lane's engine into the slot.
    pub parked: u64,
    /// Slot acks that rode an outbound frame of another transaction.
    pub piggybacked: u64,
    /// Slot acks flushed as explicit frames (idle linger expiry or
    /// shutdown) because no suitable traffic came along.
    pub flushed: u64,
}

impl AckSlotStats {
    fn is_zero(&self) -> bool {
        self.parked == 0 && self.piggybacked == 0 && self.flushed == 0
    }
}

/// One deferred ack parked at node level: which lane owes it (and must
/// flush it if no ride shows up) and which lane of the receiving node
/// owns its transaction (so it only joins frames routed there).
struct ParkedAck {
    owner_lane: usize,
    dest_lane: usize,
    ack: OwedAck,
}

/// The node-level cross-transaction ack-piggyback slot (§4 *Long
/// Locks* on a sharded node). A lane's engine defers acks in its own
/// owed queue, which only frames of *that lane* can drain; on a
/// multi-lane node the worker moves them here instead, so the next
/// outbound frame of **any** lane — carrying a different transaction —
/// drains the acks owed to the same partner. Entries only join frames
/// whose destination lane (`lane_of` of the frame's transaction)
/// matches the lane owning the ack's transaction on the receiving
/// node, keeping lane dispatch exact. Acks that never find a ride are
/// flushed by their owning lane as explicit frames.
#[derive(Default)]
pub(crate) struct AckSlot {
    parked: Mutex<Vec<ParkedAck>>,
    parked_total: AtomicU64,
    piggybacked: AtomicU64,
    flushed: AtomicU64,
}

impl AckSlot {
    fn park(&self, owner_lane: usize, dest_lane: usize, ack: OwedAck) {
        self.parked_total.fetch_add(1, Ordering::Relaxed);
        self.parked.lock().expect("slot poisoned").push(ParkedAck {
            owner_lane,
            dest_lane,
            ack,
        });
    }

    /// Removes every parked ack owed to `to` whose transaction the
    /// receiving node's `dest_lane` owns — called by the wire path for
    /// each outbound frame, which carries them for free.
    fn drain_for(&self, to: NodeId, dest_lane: usize) -> Vec<ProtocolMsg> {
        let mut parked = self.parked.lock().expect("slot poisoned");
        let mut out = Vec::new();
        let mut i = 0;
        while i < parked.len() {
            if parked[i].ack.to == to && parked[i].dest_lane == dest_lane {
                out.push(parked.remove(i).ack.msg);
            } else {
                i += 1;
            }
        }
        self.piggybacked
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Removes every ack parked by `owner_lane` (explicit-flush path:
    /// linger expiry or shutdown).
    fn take_lane(&self, owner_lane: usize) -> Vec<OwedAck> {
        let mut parked = self.parked.lock().expect("slot poisoned");
        let mut out = Vec::new();
        let mut i = 0;
        while i < parked.len() {
            if parked[i].owner_lane == owner_lane {
                out.push(parked.remove(i).ack);
            } else {
                i += 1;
            }
        }
        self.flushed.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// How many parked acks `owner_lane` is still responsible for.
    fn owed_by(&self, owner_lane: usize) -> usize {
        self.parked
            .lock()
            .expect("slot poisoned")
            .iter()
            .filter(|p| p.owner_lane == owner_lane)
            .count()
    }

    pub(crate) fn stats(&self) -> AckSlotStats {
        AckSlotStats {
            parked: self.parked_total.load(Ordering::Relaxed),
            piggybacked: self.piggybacked.load(Ordering::Relaxed),
            flushed: self.flushed.load(Ordering::Relaxed),
        }
    }
}

/// Per-node configuration for the live runtime.
#[derive(Clone, Debug)]
pub struct LiveNodeConfig {
    /// Protocol family.
    pub protocol: ProtocolKind,
    /// Optimization switches.
    pub opts: OptimizationConfig,
    /// Heuristic policy for in-doubt transactions.
    pub heuristic: HeuristicPolicy,
    /// Failure timers.
    pub timeouts: Timeouts,
    /// Local resources are reliable (vote qualifier).
    pub reliable: bool,
    /// The node is a suspendable server (leave-out eligible).
    pub suspendable: bool,
    /// Log storage backend.
    pub log_backend: LogBackend,
    /// Chaos knob: the worker crashes itself (as if killed) immediately
    /// after processing this many protocol frames. Counted over `Frame`
    /// messages only, so a scripted scenario is deterministic regardless
    /// of timer wall-clock jitter. Cleared on restart so a recovered node
    /// does not crash again.
    pub kill_after_frames: Option<u32>,
    /// Attach an [`Obs`] recorder: per-phase latency histograms (work →
    /// prepare → decision → ack, plus fsync and group-flush timing).
    /// Off by default — a disabled node pays nothing.
    pub observe: bool,
    /// Also capture per-transaction phase spans for chrome-trace export
    /// (implies `observe`). Spans cost an allocation per phase, so this
    /// is a debugging/visualization switch, not a benchmarking one.
    pub trace: bool,
    /// Root-coordinator lanes per node. Each lane is a full [`Driver`]
    /// host on its own thread; all lanes of a node share one WAL, one
    /// [`SharedRm`] and one transport identity. Transactions map to
    /// lanes by `txn.seq % lanes`, consistently cluster-wide.
    pub lanes: usize,
    /// Seeded storage-fault injection for the node's log device(s);
    /// `None` runs the backend untouched. Cleared on restart (the
    /// replacement disk is healthy), mirroring the wire `FaultPlan`'s
    /// clean-on-restart semantics.
    pub storage_faults: Option<StorageFaultPlan>,
    /// What to do when the log device stops accepting writes.
    pub io_policy: IoErrorPolicy,
    /// Unsolicited-vote (§4): a subordinate self-prepares as soon as it
    /// finishes the delegated work, without waiting for Prepare — the
    /// vote rides back unsolicited and phase one costs no round trip.
    pub unsolicited: bool,
    /// How long a deferred ack may sit in the node-level piggyback slot
    /// waiting for an outbound frame to ride, before its owning lane
    /// flushes it as an explicit frame. `None` picks the default:
    /// 25 ms under `long_locks`, zero (flush at first idle) otherwise.
    pub ack_linger: Option<Duration>,
}

impl LiveNodeConfig {
    /// Plain configuration.
    pub fn new(protocol: ProtocolKind) -> Self {
        LiveNodeConfig {
            protocol,
            opts: OptimizationConfig::none(),
            heuristic: HeuristicPolicy::Never,
            timeouts: Timeouts::default(),
            reliable: false,
            suspendable: false,
            log_backend: LogBackend::Memory,
            kill_after_frames: None,
            observe: false,
            trace: false,
            lanes: 1,
            storage_faults: None,
            io_policy: IoErrorPolicy::default(),
            unsolicited: false,
            ack_linger: None,
        }
    }

    /// Enables unsolicited votes: subordinates self-prepare when their
    /// delegated work completes instead of waiting for Prepare. Also
    /// raises [`OptimizationConfig::unsolicited_vote`] so the config the
    /// engine sees matches the simulator's (the trigger itself is
    /// host-level in both stacks).
    pub fn unsolicited(mut self) -> Self {
        self.unsolicited = true;
        self.opts.unsolicited_vote = true;
        self
    }

    /// Marks the node a suspendable server (leave-out eligible).
    pub fn suspendable(mut self) -> Self {
        self.suspendable = true;
        self
    }

    /// Overrides how long deferred acks linger in the piggyback slot
    /// before being flushed as explicit frames.
    pub fn with_ack_linger(mut self, linger: Duration) -> Self {
        self.ack_linger = Some(linger);
        self
    }

    /// The effective ack linger: the explicit override if set, else
    /// 25 ms under `long_locks` (acks are expected to ride later
    /// traffic), else zero (flush at first idle, the historical
    /// behaviour).
    pub fn effective_ack_linger(&self) -> Duration {
        match self.ack_linger {
            Some(d) => d,
            None if self.opts.long_locks => Duration::from_millis(25),
            None => Duration::ZERO,
        }
    }

    /// Subjects the node's log device(s) to seeded storage faults.
    pub fn with_storage_faults(mut self, plan: StorageFaultPlan) -> Self {
        self.storage_faults = Some(plan);
        self
    }

    /// Sets the node's reaction to unrecoverable log I/O errors.
    pub fn with_io_policy(mut self, policy: IoErrorPolicy) -> Self {
        self.io_policy = policy;
        self
    }

    /// Runs `lanes` root-coordinator lanes on this node (min 1).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Key stripes for the shared RM's lock table and store: 1 for a
    /// single-lane node (exact single-table deadlock detection) and 16
    /// for a multi-lane one.
    pub fn effective_stripes(&self) -> usize {
        if self.lanes > 1 {
            16
        } else {
            1
        }
    }

    /// Enables per-phase latency histograms on this node.
    pub fn with_observability(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Enables histograms *and* per-transaction span capture (for the
    /// chrome-trace exporter).
    pub fn with_tracing(mut self) -> Self {
        self.observe = true;
        self.trace = true;
        self
    }

    /// Stores the node's logs as segmented WALs under `dir` (fsync on
    /// force): a TM chain, plus an RM chain unless `shared_log` is on.
    pub fn with_file_log(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.log_backend = LogBackend::File(dir.into());
        self
    }

    /// Stores the node's log as a segmented, preallocated WAL under
    /// `dir` — the same chain as [`with_file_log`](Self::with_file_log)
    /// builds, with `shared_log` raised.
    ///
    /// The segmented backend is one multiplexed chain per node: the
    /// frame format carries a stream id, so the RM stream shares the TM
    /// chain (the paper's log-sharing optimization, `shared_log`) and an
    /// RM prepare rides the Prepared force's flush instead of paying its
    /// own — the chain's LSN order guarantees the RM records are durable
    /// whenever the vote behind them is. That halves the serial fsyncs
    /// on the subordinate's prepare and commit paths, which is where a
    /// flush-bound node spends its time.
    pub fn with_segmented_log(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.log_backend = LogBackend::Segmented(dir.into());
        self.opts.shared_log = true;
        self
    }

    /// Replaces the optimization switches — all of them, so it goes
    /// *before* the builders that edit a single switch
    /// ([`with_group_commit`](Self::with_group_commit),
    /// [`with_segmented_log`](Self::with_segmented_log)).
    ///
    /// # Panics
    ///
    /// If the replacement would silently drop what one of those builders
    /// already set: a node labelled "group commit" or "shared log" that
    /// runs without it is a misconfiguration, and builders run at
    /// start-up, where failing loudly is cheap.
    pub fn with_opts(mut self, opts: OptimizationConfig) -> Self {
        assert!(
            self.opts.group_commit.is_none() || opts.group_commit == self.opts.group_commit,
            "with_opts after with_group_commit would discard the group-commit policy \
             {:?}: call with_opts first",
            self.opts.group_commit
        );
        assert!(
            !matches!(self.log_backend, LogBackend::Segmented(_)) || opts.shared_log,
            "with_opts after with_segmented_log would discard shared_log, which the \
             segmented backend's single multiplexed chain requires: call with_opts first"
        );
        self.opts = opts;
        self
    }

    /// Sets the group-commit batching policy for the node's TM log
    /// (shorthand for editing [`OptimizationConfig::group_commit`]):
    /// concurrent forced writes join one batch and share a single
    /// physical flush, per §4 *Group Commits*.
    pub fn with_group_commit(mut self, cfg: Option<GroupCommitConfig>) -> Self {
        self.opts.group_commit = cfg;
        self
    }

    /// Marks local resources reliable.
    pub fn reliable(mut self) -> Self {
        self.reliable = true;
        self
    }

    /// Replaces the failure timers (chaos tests use short ones).
    pub fn with_timeouts(mut self, timeouts: Timeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Replaces the heuristic policy.
    pub fn with_heuristic(mut self, heuristic: HeuristicPolicy) -> Self {
        self.heuristic = heuristic;
        self
    }

    /// Arms the self-kill chaos knob: the node crashes after processing
    /// `frames` protocol frames.
    pub fn kill_after_frames(mut self, frames: u32) -> Self {
        self.kill_after_frames = Some(frames);
        self
    }
}

/// The completion of a commit/abort request.
#[derive(Clone, Debug)]
pub struct CommitResult {
    /// The global outcome.
    pub outcome: Outcome,
    /// Heuristic-damage report visible at the root.
    pub report: DamageReport,
    /// Wait-for-outcome's "recovery in progress" indication.
    pub pending: bool,
}

/// Application commands accepted by a node.
pub enum AppCmd {
    /// Send work (ops) to a partner within `txn`.
    Work {
        /// Transaction the work belongs to.
        txn: TxnId,
        /// Destination partner.
        to: NodeId,
        /// Operations for the partner.
        ops: Vec<Op>,
    },
    /// Request commit; the result is sent on `reply`.
    Commit {
        /// Transaction to commit.
        txn: TxnId,
        /// Completion channel.
        reply: Sender<CommitResult>,
    },
    /// Request rollback; the result is sent on `reply`.
    Abort {
        /// Transaction to abort.
        txn: TxnId,
        /// Completion channel.
        reply: Sender<CommitResult>,
    },
    /// Read a committed value from the local store.
    Read {
        /// Key to read.
        key: Vec<u8>,
        /// Reply channel.
        reply: Sender<Option<Vec<u8>>>,
    },
    /// Fetch a summary (metrics + log stats) without stopping.
    Summary {
        /// Reply channel.
        reply: Sender<NodeSummary>,
    },
}

/// Everything a node reports when asked (or at shutdown).
#[derive(Clone, Debug)]
pub struct NodeSummary {
    /// The node.
    pub node: NodeId,
    /// Engine counters.
    pub metrics: EngineMetrics,
    /// Driver-level effect counters (flows, forced writes, outcomes) —
    /// the same counters the simulator reports.
    pub driver: DriverStats,
    /// TM log statistics.
    pub log: LogStats,
    /// RM log statistics (zeroed under the shared-log optimization,
    /// where RM records ride the TM log).
    pub rm_log: LogStats,
    /// Group-commit batching statistics (zeroed when the node runs
    /// without group commit): logical force requests vs physical flushes
    /// actually performed on the TM log.
    pub group: GroupStats,
    /// Per-phase latency histograms and (if tracing) spans; `None` when
    /// the node ran without observability.
    pub obs: Option<ObsSnapshot>,
    /// Windowed time-series snapshot (per-interval counters, queue-depth
    /// gauges, per-window latency histograms); `None` without
    /// observability.
    pub timeline: Option<TimelineSnapshot>,
    /// Flight-recorder contents at snapshot time: the last bounded ring
    /// of structured events (decisions, forces, in-doubt transitions,
    /// WAL-health changes, rejections). Empty without observability.
    pub flight: Vec<FlightEvent>,
    /// Per-stripe lock-manager statistics (waits, wait time, deadlocks),
    /// indexed by stripe.
    pub lock_stripes: Vec<LockStats>,
    /// Transactions currently parked in lock wait queues across all
    /// stripes (an instantaneous contention gauge).
    pub lock_waiters: u64,
    /// Restart-recovery telemetry; `None` when the node booted fresh.
    pub recovery: Option<RecoveryStats>,
    /// WAL-health counters: log I/O errors, fsync retries, degraded
    /// read-only mode and its explicit rejections.
    pub wal: WalHealth,
    /// Transport-level counters, e.g. TCP send retries; empty for
    /// in-process transports.
    pub transport: Vec<TransportCounter>,
    /// Normalized transport degradation (retries / reconnects / dropped
    /// frames), so a struggling peer link shows up in the same place as
    /// WAL health — zeros for in-process transports.
    pub net: TransportHealth,
    /// Frame-buffer pool counters for the wire hot path: hit/miss rates
    /// and the outstanding high-water mark expose allocation thrash.
    pub pool: PoolStats,
    /// Node-level ack-piggyback slot counters (all zero on single-lane
    /// nodes, where the engine's own owed queue does the piggybacking).
    pub acks: AckSlotStats,
    /// Transactions still unresolved.
    pub active_txns: usize,
    /// Protocol timers currently armed (summed over lanes). Cancelled
    /// timers leave the queue at once, so on a quiescent node this is 0.
    pub pending_timers: usize,
    /// Snapshot of the engine's protocol state for the shared consistency
    /// checker ([`tpc_core::check`]) — the same structure the simulator's
    /// verifier consumes, so chaos runs assert identical invariants.
    pub protocol_state: NodeProtocolState,
}

impl NodeSummary {
    /// Folds a sibling lane's summary into this one, producing the
    /// node-level rollup a multi-lane node reports. Engine/driver
    /// counters add; the log stats stay as-is because every lane reads
    /// the same shared device (lane 0's numbers already ARE the node
    /// totals); per-lane group-commit batchers add; the obs snapshot is
    /// shared (one `Arc<Obs>` across lanes), so the first one wins.
    pub fn absorb_lane(&mut self, other: NodeSummary) {
        debug_assert_eq!(self.node, other.node);
        self.metrics.merge(&other.metrics);
        self.driver.merge(&other.driver);
        self.group.merge(&other.group);
        if self.obs.is_none() {
            self.obs = other.obs;
        }
        // Timeline, flight recorder and the lock manager are node-level
        // structures shared by every lane, so the first lane's snapshot
        // already IS the node total.
        if self.timeline.is_none() {
            self.timeline = other.timeline;
        }
        if self.flight.is_empty() {
            self.flight = other.flight;
        }
        if self.lock_stripes.is_empty() {
            self.lock_stripes = other.lock_stripes;
            self.lock_waiters = other.lock_waiters;
        }
        match (&mut self.recovery, other.recovery) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (None, Some(theirs)) => self.recovery = Some(theirs),
            _ => {}
        }
        self.wal.absorb(&other.wal);
        self.net.absorb(&other.net);
        self.pool.absorb(&other.pool);
        // The ack slot is one shared structure per node; the first
        // lane's snapshot already IS the node total.
        if self.acks.is_zero() {
            self.acks = other.acks;
        }
        self.active_txns += other.active_txns;
        self.pending_timers += other.pending_timers;
        self.protocol_state
            .active
            .extend(other.protocol_state.active);
        self.protocol_state
            .completed
            .extend(other.protocol_state.completed);
        self.protocol_state.crashed |= other.protocol_state.crashed;
    }
}

/// The driver's view of one live node: a real transport, wall-clock
/// timers, the local RM and the application's reply channels.
struct LiveHost<T: Transport> {
    node: NodeId,
    transport: T,
    /// Frame-buffer pool outbound sends encode into — the transport's
    /// own pool when it has one (TCP), a private one otherwise.
    pool: BufferPool,
    log: Box<dyn LogManager + Send>,
    rm_log: Option<Box<dyn LogManager + Send>>,
    rm: Arc<SharedRm>,
    /// Total lanes on this node; 1 = classic single-lane node.
    lanes: usize,
    /// This host's lane index.
    lane: usize,
    /// Inbound channels of this node's lanes, indexed by lane (this
    /// lane's own slot is present but unused). Used to forward lock
    /// grants and deadlock victims to the lane owning the affected
    /// transaction.
    lane_peers: Vec<Sender<Inbound>>,
    timers: TimerQueue,
    pending_ops: IdMap<TxnId, VecDeque<Op>>,
    deadlocked: IdSet<TxnId>,
    /// Prepare requests deferred until blocked local work completes
    /// (peer-to-peer rule: a participant may finish before it votes).
    prepare_waiting: IdMap<TxnId, Durability>,
    waiting: IdMap<TxnId, Sender<CommitResult>>,
    suspendable: bool,
    reliable: bool,
    epoch: Instant,
    /// Engine events produced while the driver was already borrowed
    /// (votes unblocked by lock releases); the worker drains these after
    /// every driver call.
    followups: VecDeque<Event>,
    /// Group-commit batcher for TM-log forces; `None` runs one
    /// `sync_data` per force.
    group: Option<GroupCommitter<u64>>,
    /// Action-stream tails suspended behind a filling batch, by ticket.
    suspended: IdMap<u64, Vec<Action>>,
    next_ticket: u64,
    /// Ticket of the append that just suspended (bridges the driver's
    /// `append_tm` → `suspend_rest` pair, which happen back to back on
    /// this thread).
    suspending_ticket: Option<u64>,
    /// Tails released by a flush, waiting for the worker to re-apply
    /// them through the driver (the host cannot re-enter the driver
    /// from inside a host callback).
    resume_ready: VecDeque<Vec<Action>>,
    /// Shared observability recorder (also attached to the driver);
    /// the host feeds it the real fsync and group-flush timings.
    obs: Option<Arc<Obs>>,
    /// When the pending group-commit batch opened (first buffered
    /// force), for the GroupFlush histogram.
    group_opened_at: Option<Instant>,
    /// Node-level WAL health, shared by all lanes: I/O error counters
    /// and the degraded / fail-stop verdict.
    health: Arc<IoHealth>,
    /// Reaction to unrecoverable log I/O errors.
    io_policy: IoErrorPolicy,
    /// Set when a forced append's durability could not be established:
    /// the upcoming `suspend_rest` tail is dropped instead of parked, so
    /// the decision behind the failed force is never announced.
    poison_next_suspend: bool,
    /// Node-level cross-transaction ack-piggyback slot, shared by all
    /// lanes; `None` on single-lane nodes, whose engine already carries
    /// owed acks on its own outbound frames.
    ack_slot: Option<Arc<AckSlot>>,
}

/// Fsync retries spent trying to land a buffered forced record before
/// the [`IoErrorPolicy`] verdict applies.
const MAX_FSYNC_RETRIES: u32 = 3;

impl<T: Transport> LiveHost<T> {
    /// Times one closure and charges it to a phase histogram; a no-op
    /// without a recorder.
    fn timed<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.obs.is_none() {
            return f(self);
        }
        let start = Instant::now();
        let out = f(self);
        let now = self.now();
        if let Some(obs) = self.obs.as_ref() {
            obs.record_at(phase, start.elapsed().as_micros() as u64, now);
        }
        out
    }

    /// Charges the lifetime of the just-flushed group batch (first
    /// buffered force → physical flush) to the GroupFlush histogram.
    fn note_group_flush(&mut self) {
        let now = self.now();
        if let (Some(obs), Some(opened)) = (self.obs.as_ref(), self.group_opened_at.take()) {
            obs.record_at(Phase::GroupFlush, opened.elapsed().as_micros() as u64, now);
        }
        self.group_opened_at = None;
    }

    /// Bumps a windowed timeline counter at the node's clock; a no-op
    /// without observability.
    fn tl_inc(&self, counter: TimelineCounter, delta: u64) {
        if let Some(t) = self.obs.as_ref().and_then(|o| o.timeline()) {
            t.inc(counter, delta, self.now());
        }
    }

    /// Records a structured flight-recorder event at the node's clock; a
    /// no-op without observability.
    fn flight(&self, kind: FlightKind, txn: Option<TxnId>, detail: impl Into<String>) {
        if let Some(f) = self.obs.as_ref().and_then(|o| o.flight()) {
            f.record(kind, self.now(), txn, detail);
        }
    }

    /// One physical group-batch flush: timed into the Fsync histogram
    /// and charged to the GroupFlush window.
    ///
    /// Returns whether the batch is durable. `false` means the sync
    /// failed and retries did not save it: the caller must NOT resume the
    /// batch's suspended tails (their forces never became stable), and
    /// the node has been degraded or marked for fail-stop per policy.
    fn flush_group_batch(&mut self) -> bool {
        let mut res = self.timed(Phase::Fsync, |h| h.log.flush_batch());
        if res.is_err() {
            self.health.note_error();
            for _ in 0..MAX_FSYNC_RETRIES {
                self.health.note_retry();
                res = self.log.flush_batch();
                match &res {
                    Ok(()) => break,
                    Err(_) => self.health.note_error(),
                }
            }
        }
        self.note_group_flush();
        if res.is_err() {
            self.health.give_up(self.io_policy);
            self.tl_inc(TimelineCounter::IoErrors, 1);
            self.flight(
                FlightKind::WalHealth,
                None,
                format!(
                    "group flush failed after {MAX_FSYNC_RETRIES} retries; {:?} applied",
                    self.io_policy
                ),
            );
            return false;
        }
        self.tl_inc(TimelineCounter::GroupFlushes, 1);
        true
    }

    /// Performs the one physical flush a batch the committer just
    /// released is owed — whichever trigger released it (size, timer,
    /// idle lane, shutdown drain) — and settles the batch's suspended
    /// action-stream tails, in ticket (submission) order: moved to the
    /// resume queue when the flush made their forces durable, dropped
    /// when it did not (after the retries and [`IoErrorPolicy`] verdict
    /// of [`flush_group_batch`](Self::flush_group_batch)), so a decision
    /// behind an undurable force is never announced and its transaction
    /// resolves through the normal failure machinery, exactly as if the
    /// node had crashed mid-batch.
    ///
    /// `inline` is the ticket of the append that is triggering the flush
    /// from inside the driver: its tail is not parked, so the caller
    /// continues it (`Done`) or poisons it from the returned verdict.
    /// The host cannot re-enter the driver; the worker pumps the resume
    /// queue afterwards.
    fn flush_and_release(&mut self, tickets: Vec<u64>, inline: Option<u64>) -> bool {
        let durable = self.flush_group_batch();
        for t in tickets {
            if Some(t) == inline {
                continue;
            }
            if let Some(rest) = self.suspended.remove(&t) {
                if durable {
                    self.resume_ready.push_back(rest);
                }
            }
        }
        durable
    }

    /// A forced append failed. If the frame was written (`written`: the
    /// failure was the sync, not the append), bounded fsync retries try
    /// to land the buffered record. When durability cannot be
    /// re-established the policy verdict applies and the action tail
    /// behind the force is cut via the poisoned suspend — an undurable
    /// decision is never acted on.
    fn forced_append_failed(&mut self, written: bool) -> LogControl {
        self.health.note_error();
        if written {
            for _ in 0..MAX_FSYNC_RETRIES {
                self.health.note_retry();
                match self.log.flush() {
                    Ok(()) => return LogControl::Done,
                    Err(_) => self.health.note_error(),
                }
            }
        }
        self.health.give_up(self.io_policy);
        self.poison_next_suspend = true;
        self.tl_inc(TimelineCounter::IoErrors, 1);
        self.flight(
            FlightKind::WalHealth,
            None,
            format!(
                "forced append lost (written={written}); {:?} applied",
                self.io_policy
            ),
        );
        LogControl::Suspend
    }

    /// Counts a log I/O error seen outside the TM forced-append path
    /// (RM prepare force, non-forced appends) and applies the policy
    /// verdict: any write the device refuses means new transactions can
    /// no longer be guaranteed.
    fn note_io_failure(&mut self) {
        self.health.note_error();
        self.health.give_up(self.io_policy);
        self.tl_inc(TimelineCounter::IoErrors, 1);
        self.flight(
            FlightKind::WalHealth,
            None,
            format!("log write refused; {:?} applied", self.io_policy),
        );
    }
}

impl<T: Transport> LiveHost<T> {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    fn run_ops(&mut self, txn: TxnId, mut ops: VecDeque<Op>) {
        let now = self.now();
        while let Some(op) = ops.pop_front() {
            let access = {
                let log = rm_log_slot(self.rm_log.as_mut(), self.log.as_mut());
                match &op {
                    Op::Read(k) => self.rm.read(txn, k, now),
                    Op::Write(k, v) => self.rm.write(txn, k, v.clone(), log, now),
                }
            };
            match access {
                Ok(Access::Value(_)) => {}
                Ok(Access::Wait) => {
                    ops.push_front(op);
                    self.pending_ops.insert(txn, ops);
                    return;
                }
                Ok(Access::Deadlock) => {
                    self.deadlocked.insert(txn);
                    let now = self.now();
                    let grants = {
                        let log = rm_log_slot(self.rm_log.as_mut(), self.log.as_mut());
                        self.rm
                            .abort(txn, log, Durability::NonForced, now)
                            .unwrap_or_default()
                    };
                    self.resume_grants(grants);
                    if self.prepare_waiting.remove(&txn).is_some() {
                        self.followups.push_back(Event::LocalPrepared {
                            txn,
                            vote: LocalVote::no(),
                        });
                    }
                    return;
                }
                Err(_) => return, // op against a finished txn: drop
            }
        }
    }

    /// Applies release grants for this lane's transactions and forwards
    /// the rest to the owning lanes' inbound channels. On a single-lane
    /// node every grant is local, exactly the old behavior.
    fn resume_grants(&mut self, grants: Vec<tpc_locks::ReleaseGrant>) {
        let mut resumed: IdSet<TxnId> = IdSet::default();
        let mut foreign: IdMap<usize, Vec<tpc_locks::ReleaseGrant>> = IdMap::default();
        for g in grants {
            let lane = lane_of(g.txn, self.lanes);
            if lane != self.lane {
                foreign.entry(lane).or_default().push(g);
                continue;
            }
            if resumed.insert(g.txn) {
                if let Some(ops) = self.pending_ops.remove(&g.txn) {
                    self.run_ops(g.txn, ops);
                }
                // If a Prepare was waiting on this work, vote now.
                if !self.pending_ops.contains_key(&g.txn) {
                    if let Some(dur) = self.prepare_waiting.remove(&g.txn) {
                        let vote = self.local_vote(g.txn, dur);
                        self.followups
                            .push_back(Event::LocalPrepared { txn: g.txn, vote });
                    }
                }
            }
        }
        for (lane, batch) in foreign {
            let _ = self.lane_peers[lane].send(Inbound::Grants(batch));
        }
    }

    /// Dooms `txn` as a lock-victim on this lane: aborts its local work,
    /// resumes whoever its locks unblock, and votes No if a prepare was
    /// pending — the same path `run_ops` takes on an inline deadlock.
    fn doom_lock_victim(&mut self, txn: TxnId) {
        self.deadlocked.insert(txn);
        self.pending_ops.remove(&txn);
        let now = self.now();
        let grants = {
            let log = rm_log_slot(self.rm_log.as_mut(), self.log.as_mut());
            self.rm
                .abort(txn, log, Durability::NonForced, now)
                .unwrap_or_default()
        };
        self.resume_grants(grants);
        if self.prepare_waiting.remove(&txn).is_some() {
            self.followups.push_back(Event::LocalPrepared {
                txn,
                vote: LocalVote::no(),
            });
        }
    }

    fn local_vote(&mut self, txn: TxnId, rm_durability: Durability) -> LocalVote {
        if self.deadlocked.contains(&txn) || self.pending_ops.contains_key(&txn) {
            // Incomplete or doomed local work cannot be guaranteed.
            return LocalVote::no();
        }
        if self.rm.is_read_only(txn) {
            return LocalVote {
                disposition: LocalDisposition::ReadOnly,
                reliable: self.reliable,
                suspendable: self.suspendable,
            };
        }
        let prepared = {
            let log = rm_log_slot(self.rm_log.as_mut(), self.log.as_mut());
            self.rm.prepare(txn, log, rm_durability)
        };
        if let Err(e) = prepared {
            if matches!(e, Error::Io(_)) {
                // The prepare force never became durable: the guarantee
                // behind a Yes vote cannot be given, and the device is
                // now suspect — count it and apply the policy.
                self.note_io_failure();
            }
            return LocalVote::no();
        }
        LocalVote {
            disposition: LocalDisposition::Yes,
            reliable: self.reliable,
            suspendable: self.suspendable,
        }
    }
}

impl<T: Transport> Wire for LiveHost<T> {
    fn send(&mut self, _now: SimTime, to: NodeId, ctx: Option<TraceCtx>, msgs: Vec<ProtocolMsg>) {
        // All msgs in one driver send belong to one transaction, so the
        // destination lane is well-defined.
        let lane = msgs
            .first()
            .map(|m| lane_of(m.txn(), self.lanes))
            .unwrap_or(0);
        // Cross-transaction ack piggybacking (§4 Long Locks): any
        // outbound frame carries the node's parked acks owed to the
        // same partner — restricted to acks whose transaction the
        // receiver's `lane` owns, because the whole frame is dispatched
        // to that one lane.
        let mut msgs = msgs;
        if let Some(slot) = self.ack_slot.as_ref() {
            msgs.extend(slot.drain_for(to, lane));
        }
        // Encode straight into a pooled buffer, not a per-send Vec: the
        // buffer's capacity comes back to the pool when the transport
        // (or the receiving worker, in-process) drops it.
        let mut bytes = self.pool.checkout();
        Frame {
            ctx,
            bundle: Bundle(msgs),
        }
        .encode_append(&mut bytes);
        if self.lanes > 1 {
            self.transport.send_to_lane(to, lane, bytes);
        } else {
            self.transport.send(to, bytes);
        }
    }
}

impl<T: Transport> LogHost for LiveHost<T> {
    fn append_tm(
        &mut self,
        _now: &mut SimTime,
        record: LogRecord,
        durability: Durability,
    ) -> LogControl {
        if durability.is_forced() && self.group.is_some() {
            // Group commit: the record is written (buffered) now, but the
            // physical sync is owed to the batch. The action-stream tail
            // behind this force suspends until the batch flushes, exactly
            // as in the simulator host.
            if self
                .log
                .as_mut()
                .append_deferred(StreamId::Tm, record, durability)
                .is_err()
            {
                // The frame never entered the buffer (ENOSPC-class
                // failure): no retry can land it.
                return self.forced_append_failed(false);
            }
            self.tl_inc(TimelineCounter::Forces, 1);
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            let now = self.now();
            let decision = self
                .group
                .as_mut()
                .expect("guarded by is_some above")
                .request(now, ticket);
            match decision {
                FlushDecision::FlushNow(tickets) => {
                    if self.flush_and_release(tickets, Some(ticket)) {
                        LogControl::Done
                    } else {
                        // The whole batch failed to become durable: no
                        // tail in it may run, including this append's.
                        self.poison_next_suspend = true;
                        LogControl::Suspend
                    }
                }
                FlushDecision::WaitUntil(_) => {
                    // The deadline stays with the committer: the worker
                    // asks it (`expire`) on every pass of a busy lane.
                    self.suspending_ticket = Some(ticket);
                    if self.group_opened_at.is_none() {
                        self.group_opened_at = Some(Instant::now());
                    }
                    LogControl::Suspend
                }
            }
        } else if durability.is_forced() {
            // One forced append = one sync_data: time it.
            let before = self.log.stats().writes;
            let res = self.timed(Phase::Fsync, |h| {
                h.log.as_mut().append(StreamId::Tm, record, durability)
            });
            match res {
                Ok(_) => {
                    self.tl_inc(TimelineCounter::Forces, 1);
                    LogControl::Done
                }
                Err(_) => {
                    // Distinguish "frame buffered, sync failed" (retry
                    // may save it) from "append itself refused".
                    let written = self.log.stats().writes > before;
                    self.forced_append_failed(written)
                }
            }
        } else {
            if self
                .log
                .as_mut()
                .append(StreamId::Tm, record, durability)
                .is_err()
            {
                // A non-forced record is allowed to be lost (the
                // presumption covers it), so the action stream continues
                // — but a device refusing even unforced writes is done
                // for: count it and apply the policy.
                self.note_io_failure();
            }
            LogControl::Done
        }
    }

    fn suspend_rest(&mut self, rest: Vec<Action>) {
        if self.poison_next_suspend {
            // The force behind this tail never became durable: drop the
            // tail so the decision is never announced. The transaction
            // resolves through the normal failure machinery.
            self.poison_next_suspend = false;
            drop(rest);
            return;
        }
        let ticket = self
            .suspending_ticket
            .take()
            .expect("suspend_rest without a suspending append");
        self.suspended.insert(ticket, rest);
    }
}

impl<T: Transport> RmHost for LiveHost<T> {
    fn prepare_local(
        &mut self,
        _now: &mut SimTime,
        txn: TxnId,
        rm_durability: Durability,
    ) -> PrepareControl {
        if self.health.is_degraded() {
            // Read-only degradation: the node cannot guarantee new
            // prepared state, so it votes No — an explicit, counted
            // rejection, never a silent wrong answer.
            self.health.note_rejected();
            self.tl_inc(TimelineCounter::Rejected, 1);
            self.flight(
                FlightKind::Rejection,
                Some(txn),
                "degraded: prepare votes no",
            );
            return PrepareControl::Vote(LocalVote::no());
        }
        if self.pending_ops.contains_key(&txn) && !self.deadlocked.contains(&txn) {
            // Local work is lock-blocked: finish before voting (§4 Read
            // Only's serialization caveat is about exactly this window).
            self.prepare_waiting.insert(txn, rm_durability);
            PrepareControl::Async
        } else {
            PrepareControl::Vote(self.local_vote(txn, rm_durability))
        }
    }

    fn commit_local(&mut self, _now: &mut SimTime, txn: TxnId, rm_durability: Durability) {
        let now = self.now();
        let grants = {
            let log = rm_log_slot(self.rm_log.as_mut(), self.log.as_mut());
            self.rm
                .commit(txn, log, rm_durability, now)
                .unwrap_or_default()
        };
        self.resume_grants(grants);
    }

    fn abort_local(&mut self, _now: &mut SimTime, txn: TxnId, rm_durability: Durability) {
        let now = self.now();
        let grants = {
            let log = rm_log_slot(self.rm_log.as_mut(), self.log.as_mut());
            self.rm
                .abort(txn, log, rm_durability, now)
                .unwrap_or_default()
        };
        self.resume_grants(grants);
    }

    fn forget_local(&mut self, _now: SimTime, txn: TxnId) {
        let now = self.now();
        let grants = self.rm.forget_read_only(txn, now).unwrap_or_default();
        self.resume_grants(grants);
    }

    fn txn_ended(&mut self, txn: TxnId) {
        self.pending_ops.remove(&txn);
        self.deadlocked.remove(&txn);
        self.prepare_waiting.remove(&txn);
    }
}

impl<T: Transport> TimerHost for LiveHost<T> {
    fn set_timer(
        &mut self,
        _now: SimTime,
        txn: TxnId,
        kind: TimerKind,
        delay: SimDuration,
        gen: u64,
    ) {
        let deadline = Instant::now() + Duration::from_micros(delay.as_micros());
        self.timers.set(txn, kind, deadline, gen);
    }

    fn cancel_timer(&mut self, txn: TxnId, kind: TimerKind) {
        self.timers.cancel(txn, kind);
    }
}

impl<T: Transport> AppSink for LiveHost<T> {
    fn notify_outcome(
        &mut self,
        _now: SimTime,
        txn: TxnId,
        outcome: Outcome,
        report: DamageReport,
        pending: bool,
    ) {
        let name = match outcome {
            Outcome::Commit => "commit",
            Outcome::Abort => "abort",
        };
        self.tl_inc(
            match outcome {
                Outcome::Commit => TimelineCounter::Committed,
                Outcome::Abort => TimelineCounter::Aborted,
            },
            1,
        );
        if let Some(f) = self.obs.as_ref().and_then(|o| o.flight()) {
            let detail = if pending {
                format!("{name} (pending)")
            } else {
                name.to_string()
            };
            f.record(FlightKind::Decision, self.now(), Some(txn), detail);
        }
        if let Some(reply) = self.waiting.remove(&txn) {
            let _ = reply.send(CommitResult {
                outcome,
                report,
                pending,
            });
        }
    }
}

/// One node of the live cluster.
pub struct NodeWorker<T: Transport> {
    driver: Driver,
    host: LiveHost<T>,
    rx: Receiver<Inbound>,
    frames_seen: u32,
    kill_after_frames: Option<u32>,
    /// Unsolicited-vote: self-prepare enrolled transactions as soon as
    /// their delegated work completes.
    unsolicited: bool,
    /// How long deferred acks may wait for a piggyback ride before the
    /// idle path flushes them as explicit frames.
    ack_linger: Duration,
    /// Wall-clock deadline of the oldest unflushed deferred ack; `None`
    /// when nothing is owed.
    ack_deadline: Option<Instant>,
    /// Next wall-clock instant the lane-0 lock-wait sweep may run
    /// (throttle: the sweep visits every stripe).
    next_lock_sweep: Instant,
    /// Next wall-clock instant the queue-depth gauges sample into the
    /// timeline (throttled: sampling visits shared structures).
    next_gauge_sample: Instant,
    /// Cluster-wide progress signal: bumped whenever this worker makes
    /// observable progress, so cluster waiters (`read_eventually`,
    /// `quiesce`, `await_death`) block on a condvar instead of polling.
    signal: Arc<ClusterSignal>,
}

/// Messages arriving at a node's inbound channel.
pub enum Inbound {
    /// An encoded frame from a peer.
    Frame {
        /// Sending node.
        from: NodeId,
        /// Encoded [`Frame`] (trace context + message bundle), in a
        /// pooled buffer the worker recycles after decoding.
        bytes: PooledBuf,
    },
    /// An application command.
    App(AppCmd),
    /// Failure notification: `peer`'s sessions are gone. The engine
    /// aborts what can still be aborted and re-drives the rest (the live
    /// analogue of the simulator's crash broadcast, and what the TCP
    /// transport reports when its retries are exhausted).
    PartnerDown {
        /// The failed partner.
        peer: NodeId,
    },
    /// Lock grants released by another lane of this node whose waiting
    /// transactions belong to this lane.
    Grants(Vec<tpc_locks::ReleaseGrant>),
    /// Transactions this lane owns that another lane (or the lane-0
    /// lock-wait sweep) picked as deadlock/timeout victims; this lane
    /// aborts their local work and votes No where a vote was pending.
    LockVictims(Vec<TxnId>),
    /// Crash the worker: volatile state and buffered log tails are lost,
    /// in-flight application replies are dropped. Only the durable WAL
    /// survives for [`crate::Cluster::restart`].
    Kill,
    /// Stop the worker; it replies with its final summary.
    Shutdown {
        /// Reply channel for the final summary.
        reply: Sender<NodeSummary>,
    },
}

/// Creates the shared recorder when the config asks for one. The caller
/// hands it to both the driver (phase milestones, in-doubt windows) and
/// the host (fsync timing) — on restart the driver gets it *before*
/// recovery runs, so recovered in-doubt windows re-open with their
/// original entry instants.
pub(crate) fn make_obs(cfg: &LiveNodeConfig) -> Option<Arc<Obs>> {
    if !cfg.observe && !cfg.trace {
        return None;
    }
    let obs = Arc::new(
        Obs::new()
            .with_timeline(Arc::new(Timeline::new(
                LIVE_TIMELINE_WINDOW_US,
                LIVE_TIMELINE_WINDOWS,
            )))
            .with_flight(Arc::new(FlightRecorder::new(FLIGHT_CAP))),
    );
    obs.set_tracing(cfg.trace);
    Some(obs)
}

/// Backstop for lock waits that per-stripe cycle detection cannot see
/// (cross-stripe and cross-node cycles): waiters older than this are
/// aborted as deadlock victims. Only armed on multi-lane nodes.
const LOCK_WAIT_TIMEOUT: SimDuration = SimDuration(2_000_000);

/// Live timeline geometry: 250 ms windows × 64 slots ≈ 16 s of history —
/// wide enough to cover a benchmark cell, narrow enough that a window
/// shows queueing transients instead of averaging them away.
const LIVE_TIMELINE_WINDOW_US: u64 = 250_000;
/// Ring length of the live timeline.
const LIVE_TIMELINE_WINDOWS: usize = 64;

pub(crate) fn tm_seg_dir(dir: &std::path::Path, node: NodeId) -> std::path::PathBuf {
    dir.join(format!("node-{}-wal", node.0))
}

/// Which of a node's two log streams a backend helper is building.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogRole {
    /// The transaction manager's protocol log.
    Tm,
    /// The resource manager's redo/prepare log.
    Rm,
}

impl LogRole {
    /// Salt decorrelating the TM and RM storage-fault streams.
    fn salt(self) -> u64 {
        match self {
            LogRole::Tm => 0,
            LogRole::Rm => 1,
        }
    }

    /// Where this stream's segment chain lives under `dir`.
    fn seg_dir(self, dir: &std::path::Path, node: NodeId) -> std::path::PathBuf {
        match self {
            LogRole::Tm => tm_seg_dir(dir, node),
            LogRole::Rm => dir.join(format!("node-{}-rm-wal", node.0)),
        }
    }
}

/// Builds one of a node's log streams on the configured backend, wrapped
/// for storage faults when the config injects them. Fresh creation —
/// restart paths go through [`reopen_log`].
pub(crate) fn create_log(
    cfg: &LiveNodeConfig,
    node: NodeId,
    role: LogRole,
) -> Box<dyn LogManager + Send> {
    match &cfg.log_backend {
        LogBackend::Memory => wrap_storage_faults(
            Box::new(MemLog::new()),
            cfg.storage_faults.as_ref(),
            None,
            role.salt(),
        ),
        LogBackend::File(dir) | LogBackend::Segmented(dir) => {
            let log = SegmentedLog::create(role.seg_dir(dir, node)).expect("create segmented log");
            // Crash-image faults (torn write, bit flip) land on the
            // chain's first segment, `wal-0000.seg`, as it was at
            // creation; a rotation moves the tail past it.
            let path = log.first_segment_path();
            wrap_storage_faults(
                Box::new(log),
                cfg.storage_faults.as_ref(),
                Some(path),
                role.salt(),
            )
        }
    }
}

/// Reopens one of a node's log streams from its durable backend after a
/// crash, returning the recovered log and its tail classification.
/// Memory backends fail here: they die with the node.
pub(crate) fn reopen_log(
    backend: &LogBackend,
    node: NodeId,
    role: LogRole,
) -> Result<(Box<dyn LogManager + Send>, TailState)> {
    match backend {
        LogBackend::Memory => Err(Error::Config(
            "restart requires a durable log backend (a memory log dies with the node)".into(),
        )),
        LogBackend::File(dir) | LogBackend::Segmented(dir) => {
            let log = SegmentedLog::open(role.seg_dir(dir, node))?;
            let tail = log.recovered_tail();
            Ok((Box::new(log), tail))
        }
    }
}

/// The per-lane slice of a node's shared infrastructure: the lane's
/// inbox, one RM, one log (possibly a [`SharedLog`] clone), one lane
/// index and the sibling lanes' inbound channels, plus the cluster's
/// clock epoch and progress signal. The cluster builds one per lane.
pub(crate) struct LaneParts {
    pub rx: Receiver<Inbound>,
    pub epoch: Instant,
    pub signal: Arc<ClusterSignal>,
    pub rm: Arc<SharedRm>,
    pub log: Box<dyn LogManager + Send>,
    pub rm_log: Option<Box<dyn LogManager + Send>>,
    pub obs: Option<Arc<Obs>>,
    pub lane: usize,
    pub lane_peers: Vec<Sender<Inbound>>,
    pub health: Arc<IoHealth>,
    /// Node-level ack-piggyback slot all lanes share; `None` on
    /// single-lane nodes.
    pub ack_slot: Option<Arc<AckSlot>>,
}

/// Wraps a log backend in a [`FaultyLog`] when the config injects
/// storage faults. `path` enables the crash-time image faults (torn
/// write, bit flip) on file-backed logs; `salt` decorrelates the fault
/// streams of a node's TM and RM logs.
pub(crate) fn wrap_storage_faults(
    log: Box<dyn LogManager + Send>,
    plan: Option<&StorageFaultPlan>,
    path: Option<std::path::PathBuf>,
    salt: u64,
) -> Box<dyn LogManager + Send> {
    match plan {
        None => log,
        Some(p) => {
            let mut plan = p.clone();
            plan.seed ^= salt;
            let mut faulty = FaultyLog::new(log, plan);
            if let Some(path) = path {
                faulty = faulty.with_path(path);
            }
            Box::new(faulty)
        }
    }
}

/// Converts a recovery-scan tail classification into the
/// `(torn_tails, corruption_before_tail)` increment for
/// [`Driver::note_log_damage`].
pub(crate) fn tail_counts(tail: TailState) -> (u64, u64) {
    match tail {
        TailState::Clean => (0, 0),
        TailState::TornTail => (1, 0),
        TailState::CorruptionBeforeTail { .. } => (0, 1),
    }
}

/// One lane's recovered protocol state: its rebuilt [`Driver`] and the
/// recovery actions (queries, re-driven decisions) awaiting application.
pub(crate) struct RecoveredLane {
    pub driver: Driver,
    pub actions: Vec<Action>,
}

/// Replays a node's durable log(s) after a crash, exactly as a restarted
/// process would, and rebuilds per-lane driver state (one lane is the
/// degenerate case):
///
/// 1. resource-manager recovery runs once over the durable RM stream
///    (redo committed work, restore prepared transactions as in-doubt
///    with their locks) into the one [`SharedRm`] all lanes share;
/// 2. the durable TM stream is *repartitioned*: each record goes to the
///    lane owning its transaction (`lane_of(txn, lanes)`), and every
///    lane's fresh [`Driver`] runs engine recovery over exactly its own
///    transactions — interrupted voting aborts, in-doubt seats query or
///    await per the protocol's presumption, decided-but-unacknowledged
///    outcomes re-drive;
/// 3. RM in-doubt transactions the recovered TMs already decided settle
///    through the owning lane's `recovered_disposition`; genuinely
///    in-doubt ones wait for the protocol.
///
/// WAL scan timing and tail-damage classification are attributed to
/// lane 0, so the node-level [`RecoveryStats`] rollup counts them once.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recover_lanes(
    node: NodeId,
    cfg: &LiveNodeConfig,
    partners: &[NodeId],
    rm: &Arc<SharedRm>,
    log: &mut Box<dyn LogManager + Send>,
    rm_log: &mut Option<Box<dyn LogManager + Send>>,
    obs: Option<&Arc<Obs>>,
    epoch: Instant,
    tail_damage: (u64, u64),
) -> Result<Vec<RecoveredLane>> {
    let lanes = cfg.lanes.max(1);
    let now = SimTime(epoch.elapsed().as_micros() as u64);
    let scan_started = Instant::now();
    // RM recovery first, so the re-driven CommitLocal/AbortLocal actions
    // from engine recovery find consistent RM state (the same order the
    // simulator's restart uses).
    {
        let l = rm_log_slot(rm_log.as_mut(), log.as_mut());
        let durable = l.durable_records();
        rm.recover(&durable, now)?;
    }
    let durable_tm = log.durable_records();
    let scan_us = scan_started.elapsed().as_micros() as u64;

    let mut recovered = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        // Observability attaches before recovery so recovered in-doubt
        // windows re-open at their durable `prepared_at` instants.
        let mut driver = fresh_driver(node, cfg, partners, obs)?;
        if lane == 0 {
            driver.note_wal_scan(scan_us);
            driver.note_log_damage(tail_damage.0, tail_damage.1);
        }
        let lane_records: Vec<_> = if lanes > 1 {
            durable_tm
                .iter()
                .filter(|(_, _, rec)| lane_of(rec.txn(), lanes) == lane)
                .cloned()
                .collect()
        } else {
            durable_tm.clone()
        };
        let actions = driver.recover(&lane_records, now)?;
        recovered.push(RecoveredLane { driver, actions });
    }
    for txn in rm.in_doubt() {
        let disposition = recovered[lane_of(txn, lanes)]
            .driver
            .engine()
            .recovered_disposition(txn);
        let l = rm_log_slot(rm_log.as_mut(), log.as_mut());
        match disposition {
            InDoubtDisposition::Commit => {
                let _ = rm.commit(txn, l, Durability::Forced, now);
            }
            InDoubtDisposition::Abort => {
                let _ = rm.abort(txn, l, Durability::NonForced, now);
            }
            InDoubtDisposition::AwaitOutcome => {}
        }
    }
    Ok(recovered)
}

/// A lane's fresh [`Driver`]: the node's engine, its standing
/// `partners` and the node's recorder, when it has one.
fn fresh_driver(
    node: NodeId,
    cfg: &LiveNodeConfig,
    partners: &[NodeId],
    obs: Option<&Arc<Obs>>,
) -> Result<Driver> {
    let mut driver = Driver::new(EngineConfig {
        node,
        protocol: cfg.protocol,
        opts: cfg.opts.clone(),
        timeouts: cfg.timeouts,
        heuristic: cfg.heuristic,
    })?;
    for p in partners {
        driver.engine_mut().add_session_partner(*p);
    }
    if let Some(o) = obs {
        driver.set_obs(Arc::clone(o));
    }
    Ok(driver)
}

impl<T: Transport> NodeWorker<T> {
    /// Builds one lane of a fresh node from pre-built shared parts. All
    /// lanes of a node share `parts.rm` and (through [`SharedLog`] clones
    /// on a multi-lane node) the durable logs; each lane runs its own
    /// [`Driver`].
    pub(crate) fn new_with_parts(
        node: NodeId,
        cfg: &LiveNodeConfig,
        partners: &[NodeId],
        transport: T,
        parts: LaneParts,
    ) -> Self {
        let driver =
            fresh_driver(node, cfg, partners, parts.obs.as_ref()).expect("valid live config");
        NodeWorker {
            kill_after_frames: cfg.kill_after_frames,
            ..Self::assemble(node, cfg, transport, parts, driver)
        }
    }

    /// Builds a worker around an already-recovered lane (from
    /// [`recover_lanes`]) and applies its pending recovery actions, so
    /// queries and re-driven decisions go out over the real transport
    /// before the first inbound message is processed. The restart knobs
    /// reset: a recovered node does not crash again
    /// (`kill_after_frames` is one-shot), and the replacement disk is
    /// healthy (fresh [`IoHealth`], no storage faults).
    pub(crate) fn resume_with_parts(
        node: NodeId,
        cfg: &LiveNodeConfig,
        transport: T,
        parts: LaneParts,
        lane: RecoveredLane,
    ) -> Result<Self> {
        let mut worker = Self::assemble(node, cfg, transport, parts, lane.driver);
        let now = worker.host.now();
        worker.driver.apply(&mut worker.host, now, lane.actions)?;
        worker.pump();
        Ok(worker)
    }

    /// A worker around `driver`, hosted on `parts`, that never crashes
    /// itself.
    fn assemble(
        node: NodeId,
        cfg: &LiveNodeConfig,
        transport: T,
        parts: LaneParts,
        driver: Driver,
    ) -> Self {
        let host = LiveHost {
            node,
            pool: transport.buffer_pool().unwrap_or_default(),
            transport,
            log: parts.log,
            rm_log: parts.rm_log,
            rm: parts.rm,
            lanes: cfg.lanes.max(1),
            lane: parts.lane,
            lane_peers: parts.lane_peers,
            timers: TimerQueue::default(),
            pending_ops: IdMap::default(),
            deadlocked: IdSet::default(),
            prepare_waiting: IdMap::default(),
            waiting: IdMap::default(),
            suspendable: cfg.suspendable,
            reliable: cfg.reliable,
            epoch: parts.epoch,
            followups: VecDeque::new(),
            group: cfg.opts.group_commit.map(GroupCommitter::new),
            suspended: IdMap::default(),
            next_ticket: 0,
            suspending_ticket: None,
            resume_ready: VecDeque::new(),
            obs: parts.obs,
            group_opened_at: None,
            health: parts.health,
            io_policy: cfg.io_policy,
            poison_next_suspend: false,
            ack_slot: parts.ack_slot,
        };
        NodeWorker {
            driver,
            host,
            rx: parts.rx,
            frames_seen: 0,
            kill_after_frames: None,
            unsolicited: cfg.unsolicited || cfg.opts.unsolicited_vote,
            ack_linger: cfg.effective_ack_linger(),
            ack_deadline: None,
            next_lock_sweep: Instant::now() + Duration::from_millis(100),
            next_gauge_sample: Instant::now(),
            signal: parts.signal,
        }
    }

    /// The worker's main loop; returns the final summary at shutdown.
    pub fn run(mut self) -> NodeSummary {
        // A restarted lane can arrive here with a batch open: recovery's
        // re-driven decisions force their records before the first message.
        if self.flush_group_if_due() {
            self.signal.bump();
        }
        loop {
            // No group-commit term: a lane about to block has already
            // flushed its open batch (`flush_group_if_due`).
            debug_assert!(
                !self.inbox_is_empty()
                    || self
                        .host
                        .group
                        .as_ref()
                        .is_none_or(|g| g.pending_len() == 0),
                "lane going to sleep on an open group-commit batch"
            );
            let mut timeout = self
                .host
                .timers
                .next_deadline()
                .map(|dl| dl.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(250));
            if let Some(dl) = self.ack_deadline {
                timeout = timeout.min(dl.saturating_duration_since(Instant::now()));
            }
            let mut progressed = true;
            match self.host.transport.recv_timeout(&self.rx, timeout) {
                Ok(Inbound::Frame { from, bytes }) => {
                    self.on_frame(from, &bytes);
                    self.frames_seen += 1;
                    if self
                        .kill_after_frames
                        .is_some_and(|n| self.frames_seen >= n)
                    {
                        return self.die();
                    }
                }
                Ok(Inbound::App(cmd)) => self.on_app(cmd),
                Ok(Inbound::Grants(grants)) => {
                    self.host.resume_grants(grants);
                    self.pump();
                }
                Ok(Inbound::LockVictims(victims)) => {
                    for txn in victims {
                        self.host.doom_lock_victim(txn);
                    }
                    self.pump();
                }
                Ok(Inbound::PartnerDown { peer }) => {
                    self.drive(Event::PartnerFailed { peer });
                }
                Ok(Inbound::Kill) => return self.die(),
                Ok(Inbound::Shutdown { reply }) => {
                    // A clean shutdown is not a crash: the pending
                    // group-commit batch (if any) flushes so in-flight
                    // commits complete, and every deferred ack still
                    // waiting for a piggyback ride goes out, before the
                    // summary freezes.
                    self.drain_group();
                    self.flush_deferred_acks();
                    let _ = reply.send(self.summary(false));
                    return self.summary(false);
                }
                Err(RecvTimeoutError::Timeout) => progressed = false,
                Err(RecvTimeoutError::Disconnected) => {
                    self.drain_group();
                    self.flush_deferred_acks();
                    return self.summary(false);
                }
            }
            progressed |= self.fire_due_timers();
            progressed |= self.expire_lock_waits_if_due();
            progressed |= self.flush_group_if_due();
            self.park_owed_acks();
            self.flush_acks_if_idle();
            self.sample_gauges();
            if self.host.health.wants_fail_stop() {
                // The log device is gone and the policy says fail-stop:
                // crash now (all lanes see the shared flag within one
                // timeout tick). Restart recovers from what was forced.
                return self.die();
            }
            if progressed {
                self.signal.bump();
            }
        }
    }

    /// Nothing waits for this lane: its channel is empty and the
    /// transport holds no peer frame it already received.
    fn inbox_is_empty(&self) -> bool {
        self.host.transport.pending_frames() == 0 && self.rx.is_empty()
    }

    /// Samples queue-depth gauges into the windowed timeline (throttled
    /// to at most once per 5 ms): this lane's inbox, the group-commit
    /// batch occupancy and force-queue depth, the transport's outbound
    /// backlog, and — from lane 0, which owns the cross-stripe sweeps —
    /// the lock-wait depth across every stripe.
    fn sample_gauges(&mut self) {
        let Some(tl) = self.host.obs.as_ref().and_then(|o| o.timeline()).cloned() else {
            return;
        };
        let wall = Instant::now();
        if wall < self.next_gauge_sample {
            return;
        }
        self.next_gauge_sample = wall + Duration::from_millis(5);
        let now = self.host.now();
        let inbox = self.rx.len() + self.host.transport.pending_frames();
        tl.gauge(TimelineGauge::LaneInbox, inbox as u64, now);
        tl.gauge(
            TimelineGauge::ForceQueue,
            self.host.log.pending_forces(),
            now,
        );
        if let Some(g) = self.host.group.as_ref() {
            tl.gauge(TimelineGauge::GroupBatch, g.pending_len() as u64, now);
        }
        tl.gauge(
            TimelineGauge::SendBacklog,
            self.host.transport.backlog(),
            now,
        );
        if self.host.lane == 0 {
            tl.gauge(
                TimelineGauge::LockWaiters,
                self.host.rm.lock_waiter_depth() as u64,
                now,
            );
        }
    }

    /// Lane 0's periodic lock-wait sweep (multi-lane nodes only): evicts
    /// waiters older than the backstop timeout — the victims cover
    /// cross-stripe and cross-node cycles the per-stripe detector cannot
    /// see — and dispatches each victim to its owning lane.
    fn expire_lock_waits_if_due(&mut self) -> bool {
        if self.host.lanes <= 1 || self.host.lane != 0 {
            return false;
        }
        let wall = Instant::now();
        if wall < self.next_lock_sweep {
            return false;
        }
        self.next_lock_sweep = wall + Duration::from_millis(100);
        let now = self.host.now();
        let (victims, grants) = self.host.rm.expire_lock_waits(now, LOCK_WAIT_TIMEOUT);
        if victims.is_empty() && grants.is_empty() {
            return false;
        }
        let mut mine = Vec::new();
        let mut foreign: IdMap<usize, Vec<TxnId>> = IdMap::default();
        for v in victims {
            let lane = lane_of(v, self.host.lanes);
            if lane == self.host.lane {
                mine.push(v);
            } else {
                foreign.entry(lane).or_default().push(v);
            }
        }
        for (lane, batch) in foreign {
            let _ = self.host.lane_peers[lane].send(Inbound::LockVictims(batch));
        }
        for txn in mine {
            self.host.doom_lock_victim(txn);
        }
        self.host.resume_grants(grants);
        self.pump();
        true
    }

    /// Takes the open batch from the committer through `trigger`, gives
    /// it its one physical flush and resumes the released tails. Returns
    /// whether a batch was taken.
    fn flush_group(
        &mut self,
        trigger: impl FnOnce(&mut GroupCommitter<u64>, SimTime) -> Option<Vec<u64>>,
    ) -> bool {
        let now = self.host.now();
        let tickets = self.host.group.as_mut().and_then(|gc| trigger(gc, now));
        let Some(tickets) = tickets else {
            return false;
        };
        self.host.flush_and_release(tickets, None);
        self.pump();
        true
    }

    /// The two triggers only the lane loop can pull, checked before the
    /// lane's first wait and then once the current message (and whatever
    /// timers it let come due) has been handled: the batch has outlived `max_wait` on a lane that stays
    /// busy (§4's timer), or the inbox is empty, so the lane is about to
    /// block and nothing can join the batch before it wakes — flushing
    /// now costs no batching the lane could still have had, and the
    /// forces that arrive during this flush are the next batch. Resumed
    /// tails may force again, hence the loop: the lane never reaches
    /// `recv_timeout` holding a batch. A `Kill` returns before this runs,
    /// so a crash still loses the open batch like a power failure.
    fn flush_group_if_due(&mut self) -> bool {
        let mut flushed = false;
        // Most passes have no batch open (and most nodes no committer):
        // those cost this one check, not a clock read or an inbox probe.
        let open = |gc: &GroupCommitter<u64>| gc.pending_len() > 0;
        while self.host.group.as_ref().is_some_and(open) {
            // Idle first, so a flush booked to the timer means the lane
            // was busy when the deadline passed.
            let idle = self.inbox_is_empty();
            let took = self.flush_group(|gc, now| if idle { gc.idle() } else { gc.expire(now) });
            if !took {
                break;
            }
            flushed = true;
        }
        flushed
    }

    /// Flushes whatever the group committer still holds (clean shutdown
    /// path — a kill deliberately does NOT do this, so suspended forces
    /// die with the node like any other unflushed buffer).
    fn drain_group(&mut self) {
        self.flush_group(|gc, _| gc.drain());
    }

    /// Models a process crash: buffered (non-durable) log tails are
    /// discarded so only what a real power failure would preserve
    /// survives, and in-flight application replies are dropped so callers
    /// observe the node as down rather than blocking forever.
    fn die(mut self) -> NodeSummary {
        self.host.log.crash_discard();
        if let Some(rl) = self.host.rm_log.as_mut() {
            rl.crash_discard();
        }
        self.host.waiting.clear();
        self.summary(true)
    }

    /// Moves the lane engine's deferred acks into the node-level
    /// piggyback slot (multi-lane nodes only) so outbound frames of
    /// *other* transactions — on any lane — can carry them, and arms
    /// the linger deadline that bounds how long any deferred ack waits
    /// for a ride. On single-lane nodes the acks stay in the engine's
    /// own owed queue (same-lane piggybacking, engine-accounted); only
    /// the deadline is armed here.
    fn park_owed_acks(&mut self) {
        if let Some(slot) = self.host.ack_slot.as_ref().map(Arc::clone) {
            let lanes = self.host.lanes;
            let lane = self.host.lane;
            for ack in self.driver.engine_mut().take_owed_acks() {
                let dest_lane = lane_of(ack.msg.txn(), lanes);
                slot.park(lane, dest_lane, ack);
            }
            if self.ack_deadline.is_none() && slot.owed_by(lane) > 0 {
                self.ack_deadline = Some(Instant::now() + self.ack_linger);
            }
        } else if self.ack_deadline.is_none() && self.driver.engine().owed_ack_count() > 0 {
            self.ack_deadline = Some(Instant::now() + self.ack_linger);
        }
    }

    /// The live analogue of the simulator's end-of-script ack flush:
    /// once the inbound queue drains *and* the linger window expires,
    /// deferred (long-locks / implied) acknowledgments go out as
    /// explicit frames rather than waiting to piggyback on traffic that
    /// may never come. A zero linger (the default without `long_locks`)
    /// flushes at the first idle pass — the historical behaviour.
    fn flush_acks_if_idle(&mut self) {
        if !self.inbox_is_empty() {
            return;
        }
        let slot_owed = self
            .host
            .ack_slot
            .as_ref()
            .map(|s| s.owed_by(self.host.lane))
            .unwrap_or(0);
        if self.driver.engine().owed_ack_count() == 0 && slot_owed == 0 {
            self.ack_deadline = None;
            return;
        }
        match self.ack_deadline {
            Some(dl) if Instant::now() < dl => return, // still hoping for a ride
            _ => {}
        }
        self.flush_deferred_acks();
    }

    /// Unconditionally flushes every deferred ack this lane is
    /// responsible for — engine owed queue and the lane's share of the
    /// node-level slot — as explicit frames. Linger expiry and clean
    /// shutdown both land here, so quiescing never strands an ack.
    fn flush_deferred_acks(&mut self) {
        self.ack_deadline = None;
        let now = self.host.now();
        if self.driver.engine().owed_ack_count() > 0 {
            if let Err(e) = self.driver.flush_owed_acks(&mut self.host, now) {
                debug_assert!(false, "ack flush error at {}: {e}", self.host.node);
                let _ = e;
            }
        }
        if let Some(slot) = self.host.ack_slot.as_ref().map(Arc::clone) {
            for OwedAck { to, msg } in slot.take_lane(self.host.lane) {
                self.host.send(now, to, None, vec![msg]);
            }
        }
        self.pump();
    }

    /// Unsolicited-vote (§4): a subordinate whose delegated work just
    /// completed self-prepares immediately instead of waiting for the
    /// coordinator's Prepare — the vote travels back unsolicited,
    /// saving the Prepare flow. Only fires for enrolled subordinates
    /// still in the Working stage with no local work pending; a Prepare
    /// that raced in first wins (the engine no-ops).
    fn maybe_self_prepare(&mut self, txn: TxnId) {
        if !self.unsolicited
            || self.host.pending_ops.contains_key(&txn)
            || self.host.deadlocked.contains(&txn)
        {
            return;
        }
        let eligible = self
            .driver
            .engine()
            .seat(txn)
            .is_some_and(|s| s.upstream.is_some() && s.stage == Stage::Working);
        if eligible {
            self.drive(Event::SelfPrepare { txn });
        }
    }

    fn summary(&self, crashed: bool) -> NodeSummary {
        NodeSummary {
            node: self.host.node,
            metrics: self.driver.engine().metrics(),
            driver: self.driver.stats(),
            log: self.host.log.stats(),
            rm_log: self
                .host
                .rm_log
                .as_ref()
                .map(|l| l.stats())
                .unwrap_or_default(),
            group: self
                .host
                .group
                .as_ref()
                .map(|g| g.stats())
                .unwrap_or_default(),
            obs: self
                .host
                .obs
                .as_ref()
                .map(|o| o.snapshot_at(self.host.now())),
            timeline: self
                .host
                .obs
                .as_ref()
                .and_then(|o| o.timeline())
                .map(|t| t.snapshot(self.host.now())),
            flight: self
                .host
                .obs
                .as_ref()
                .and_then(|o| o.flight())
                .map(|f| f.dump())
                .unwrap_or_default(),
            lock_stripes: self.host.rm.per_stripe_lock_stats(),
            lock_waiters: self.host.rm.lock_waiter_depth() as u64,
            recovery: self.driver.recovery_stats(),
            wal: self.host.health.snapshot(),
            transport: self.host.transport.counters(),
            net: self.host.transport.health(),
            pool: self.host.pool.stats(),
            acks: self
                .host
                .ack_slot
                .as_ref()
                .map(|s| s.stats())
                .unwrap_or_default(),
            active_txns: self.driver.engine().active_txns(),
            pending_timers: self.host.timers.len(),
            protocol_state: NodeProtocolState::from_engine(
                self.host.node,
                crashed,
                self.driver.engine(),
            ),
        }
    }

    fn fire_due_timers(&mut self) -> bool {
        let now = Instant::now();
        let mut fired = false;
        // The queue holds only armed timers (cancel and re-arm remove the
        // old entry), so there is no skip loop over dead entries. The
        // generation is still checked: `Driver::clear_timers` invalidates
        // without telling the host.
        while let Some((txn, kind, gen)) = self.host.timers.pop_due(now) {
            if !self.driver.timer_is_current(txn, kind, gen) {
                continue;
            }
            fired = true;
            self.drive(Event::TimerFired { txn, kind });
        }
        fired
    }

    fn on_frame(&mut self, from: NodeId, bytes: &[u8]) {
        let Ok(frame) = Frame::decode_all(bytes) else {
            return; // corrupt frame: drop (transport-level noise)
        };
        if let Some(ctx) = &frame.ctx {
            // Before the messages: the seat they create must see its
            // enrolling sender.
            self.driver.note_remote_ctx(ctx);
        }
        for msg in frame.bundle.0 {
            if let ProtocolMsg::Work { txn, payload } = &msg {
                let txn = *txn;
                let ops = decode_ops(payload).unwrap_or_default();
                self.drive(Event::MsgReceived { from, msg });
                self.host.run_ops(txn, ops.into());
                self.pump();
                self.maybe_self_prepare(txn);
            } else {
                self.drive(Event::MsgReceived { from, msg });
            }
        }
    }

    fn on_app(&mut self, cmd: AppCmd) {
        match cmd {
            AppCmd::Work { txn, to, ops } => {
                // The root executes nothing locally here; callers that
                // want local work address ops to their own node.
                if to == self.host.node {
                    // Local work: run it directly and make sure a seat
                    // exists so the commit will include it.
                    self.host.run_ops(txn, ops.into());
                    self.pump();
                } else {
                    self.drive(Event::SendWork {
                        txn,
                        to,
                        payload: tpc_common::encode_ops(&ops),
                    });
                }
            }
            AppCmd::Commit { txn, reply } => {
                self.host.waiting.insert(txn, reply);
                if self.host.health.is_degraded() {
                    // Read-only degradation: committing would require a
                    // forced decision record the device cannot give us.
                    // The application gets an explicit abort, counted as
                    // a rejection — not a hang, not a lie.
                    self.host.health.note_rejected();
                    self.host.tl_inc(TimelineCounter::Rejected, 1);
                    self.host
                        .flight(FlightKind::Rejection, Some(txn), "degraded: commit refused");
                    self.drive(Event::AbortRequested { txn });
                } else {
                    self.drive(Event::CommitRequested { txn });
                }
            }
            AppCmd::Abort { txn, reply } => {
                self.host.waiting.insert(txn, reply);
                self.drive(Event::AbortRequested { txn });
            }
            AppCmd::Read { key, reply } => {
                let _ = reply.send(self.host.rm.get(&key));
            }
            AppCmd::Summary { reply } => {
                let _ = reply.send(self.summary(false));
            }
        }
    }

    fn drive(&mut self, event: Event) {
        let now = self.host.now();
        if let Err(e) = self.driver.handle(&mut self.host, now, event) {
            // Application misuse surfaces on the waiting channel if any;
            // protocol noise is dropped.
            debug_assert!(false, "engine error at {}: {e}", self.host.node);
            let _ = e;
        }
        self.pump();
    }

    /// Delivers engine events that host callbacks produced while the
    /// driver was busy (deferred votes unblocked by lock releases), and
    /// re-applies action-stream tails released by a group-commit flush.
    /// Either may produce more of the other, so this loops to fixpoint.
    fn pump(&mut self) {
        loop {
            if let Some(event) = self.host.followups.pop_front() {
                let now = self.host.now();
                if let Err(e) = self.driver.handle(&mut self.host, now, event) {
                    debug_assert!(false, "engine error at {}: {e}", self.host.node);
                    let _ = e;
                }
                continue;
            }
            if let Some(rest) = self.host.resume_ready.pop_front() {
                let now = self.host.now();
                if let Err(e) = self.driver.apply(&mut self.host, now, rest) {
                    debug_assert!(false, "resume error at {}: {e}", self.host.node);
                    let _ = e;
                }
                continue;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// What a lane does to the shared slot, decoded from raw generator
    /// output: park an owed ack, ride an outbound frame (drain for one
    /// destination/lane pair), or flush a lane explicitly (linger expiry
    /// / shutdown). The sequence models an arbitrary interleaving of the
    /// lanes' slot traffic — the slot serializes on its own mutex, so
    /// any true thread schedule is equivalent to some such sequence.
    #[derive(Clone, Copy, Debug)]
    enum SlotOp {
        Park { owner: usize, to: u32, seq: u64 },
        Ride { to: u32, dest_lane: usize },
        Flush { owner: usize },
    }

    const SLOT_LANES: usize = 4;
    const SLOT_PARTNERS: u32 = 3;

    fn decode_slot_ops(raw: &[(u8, u8, u8)]) -> Vec<SlotOp> {
        raw.iter()
            .map(|&(kind, a, b)| match kind % 4 {
                // Parks are twice as likely as each removal flavour so
                // runs exercise a loaded slot, not an empty one.
                0 | 1 => SlotOp::Park {
                    owner: a as usize % SLOT_LANES,
                    to: u32::from(b) % SLOT_PARTNERS,
                    seq: u64::from(a) << 8 | u64::from(b),
                },
                2 => SlotOp::Ride {
                    to: u32::from(b) % SLOT_PARTNERS,
                    dest_lane: a as usize % SLOT_LANES,
                },
                _ => SlotOp::Flush {
                    owner: a as usize % SLOT_LANES,
                },
            })
            .collect()
    }

    fn slot_ack(to: u32, seq: u64) -> OwedAck {
        let txn = TxnId::new(NodeId(9), seq);
        OwedAck {
            to: NodeId(to),
            msg: ProtocolMsg::Ack {
                txn,
                report: DamageReport::default(),
                pending: false,
            },
        }
    }

    fn gc_policy() -> GroupCommitConfig {
        GroupCommitConfig {
            batch_size: 8,
            max_wait: SimDuration::from_millis(2),
            adaptive: false,
        }
    }

    #[test]
    fn with_opts_first_keeps_what_the_single_switch_builders_set() {
        let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_opts(OptimizationConfig::none().with_read_only(true))
            .with_segmented_log("unused")
            .with_group_commit(Some(gc_policy()));
        assert!(cfg.opts.read_only && cfg.opts.shared_log);
        assert_eq!(cfg.opts.group_commit, Some(gc_policy()));
        // A replacement that carries the same switches discards nothing.
        let same = cfg.opts.clone();
        assert_eq!(cfg.with_opts(same).opts.group_commit, Some(gc_policy()));
    }

    #[test]
    #[should_panic(expected = "discard the group-commit policy")]
    fn with_opts_after_with_group_commit_panics() {
        let _ = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_group_commit(Some(gc_policy()))
            .with_opts(OptimizationConfig::none());
    }

    #[test]
    #[should_panic(expected = "discard shared_log")]
    fn with_opts_after_with_segmented_log_panics() {
        let _ = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_segmented_log("unused")
            .with_opts(OptimizationConfig::none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The cross-transaction piggyback slot under arbitrary lane
        /// interleavings: every parked ack leaves the slot exactly once
        /// (piggybacked on a frame or explicitly flushed), rides only
        /// frames bound for its own destination node AND destination
        /// lane, and the counters reconcile to parked = piggybacked +
        /// flushed once the lanes drain their leftovers — the shutdown
        /// path. No ack is ever duplicated or lost.
        #[test]
        fn ack_slot_interleavings_conserve_acks(
            raw in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..=64)
        ) {
            let slot = AckSlot::default();
            // Model: every parked ack still inside, keyed by its txn
            // seq, with the coordinates it must be removed under.
            let mut inside: Vec<(usize, u32, usize, u64)> = Vec::new(); // (owner, to, dest_lane, seq)
            let mut removed: Vec<u64> = Vec::new();
            let mut parked_n = 0u64;

            for op in decode_slot_ops(&raw) {
                match op {
                    SlotOp::Park { owner, to, seq } => {
                        let dest_lane = lane_of(TxnId::new(NodeId(9), seq), SLOT_LANES);
                        slot.park(owner, dest_lane, slot_ack(to, seq));
                        inside.push((owner, to, dest_lane, seq));
                        parked_n += 1;
                    }
                    SlotOp::Ride { to, dest_lane } => {
                        let got: Vec<u64> =
                            slot.drain_for(NodeId(to), dest_lane).iter().map(|m| m.txn().seq).collect();
                        let want: Vec<u64> = inside
                            .iter()
                            .filter(|(_, t, d, _)| *t == to && *d == dest_lane)
                            .map(|(_, _, _, s)| *s)
                            .collect();
                        prop_assert_eq!(&got, &want, "a frame carries exactly the acks owed to its destination/lane");
                        inside.retain(|(_, t, d, _)| !(*t == to && *d == dest_lane));
                        removed.extend(got);
                    }
                    SlotOp::Flush { owner } => {
                        let got: Vec<u64> =
                            slot.take_lane(owner).iter().map(|a| a.msg.txn().seq).collect();
                        let want: Vec<u64> = inside
                            .iter()
                            .filter(|(o, _, _, _)| *o == owner)
                            .map(|(_, _, _, s)| *s)
                            .collect();
                        prop_assert_eq!(&got, &want, "a lane flushes exactly its own leftovers");
                        inside.retain(|(o, _, _, _)| *o != owner);
                        removed.extend(got);
                    }
                }
            }

            // Shutdown: every lane flushes. The slot must end empty and
            // the books must balance with each ack counted exactly once.
            for lane in 0..SLOT_LANES {
                removed.extend(slot.take_lane(lane).iter().map(|a| a.msg.txn().seq));
            }
            for lane in 0..SLOT_LANES {
                prop_assert_eq!(slot.owed_by(lane), 0, "slot empty after full flush");
            }
            prop_assert_eq!(removed.len() as u64, parked_n, "no ack lost or duplicated");
            let stats = slot.stats();
            prop_assert_eq!(stats.parked, parked_n);
            prop_assert_eq!(stats.piggybacked + stats.flushed, parked_n, "counters reconcile");
        }
    }
}
