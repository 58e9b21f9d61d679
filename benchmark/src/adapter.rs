//! The only file that names the program under test.
//!
//! Everything the benchmark asks of the repository goes through here, so
//! this file is the compatibility contract a refactor has to keep (or
//! change in one place). Three surfaces:
//!
//! * **Cluster** — `LiveCluster` / `TcpCluster` `{start, begin, read,
//!   quiesce, shutdown}`, `TxnHandle` / `TcpTxnHandle` `{id, work, commit,
//!   commit_async}`, `CommitWait::{poll, wait}`,
//!   `TcpCommitWait::wait_with`, the `LiveNodeConfig` builders and public
//!   fields, `NodeSummary`, `verify::{check, outcome_record}`.
//! * **Simulator** — `Sim`, `SimConfig`, `NodeConfig`, `TxnSpec`,
//!   `WorkEdge`, `Sim::driver_stats`: the exact flow and force counts of
//!   one transaction shape.
//! * **Layers** — the public functions each probe times (see
//!   [`probes`]).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use twopc::common::config::GroupCommitConfig;
use twopc::common::wire::{Decode, Encode};
use twopc::common::{
    encode_ops, BufferPool, DamageReport, NodeId, Op, OptimizationConfig, Outcome, PooledBuf,
    ProtocolKind, RmId, SimDuration, SimTime, TxnId, Vote, VoteFlags,
};
use twopc::core::messages::Bundle;
use twopc::core::{
    Action, EngineConfig, Event, Frame, LocalVote, OutcomeRecord, ProtocolMsg, TmEngine,
};
use twopc::locks::{LockManager, LockMode, StripedLockManager};
use twopc::obs::{Obs, ObsSnapshot, Phase};
use twopc::rm::{RmConfig, SharedRm};
use twopc::runtime::tcp::{TcpCluster, TcpCommitWait, TcpTxnHandle};
use twopc::runtime::{
    verify, CommitResult, CommitWait, LiveCluster, LiveNodeConfig, LogBackend, NodeSummary,
    TxnHandle,
};
use twopc::sim::{NodeConfig, Sim, SimConfig, TxnSpec, WorkEdge};
use twopc::simnet::LatencyModel;
use twopc::wal::file::FileLog;
use twopc::wal::{Durability, LogManager, LogRecord, MemLog, SegmentedLog, StreamId};

use crate::workload::{key_name, Backend, Spec, Transport, GC_BATCH, GC_MAX_WAIT_US};

/// Two roots and one server; every transaction's work runs at the server.
pub const ROOTS: usize = 2;
const NODES: usize = ROOTS + 1;
const SERVER: NodeId = NodeId(ROOTS as u32);
const PROTOCOL: ProtocolKind = ProtocolKind::PresumedAbort;

/// How long a client waits for one outcome before counting a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

// ------------------------------------------------------------------
// Configuration
// ------------------------------------------------------------------

/// The switches a workload's label promises, as read back from the node
/// configurations that were actually built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Effective {
    pub transport: &'static str,
    pub backend: &'static str,
    pub shared_log: bool,
    /// `(batch_size, max_wait_us, adaptive)`.
    pub group_commit: Option<(usize, u64, bool)>,
    pub read_only: bool,
    pub lanes: usize,
    pub stripes: usize,
    pub observe: bool,
}

/// The transport is which cluster type gets started, not a node option.
fn transport_name(spec: &Spec) -> &'static str {
    match spec.transport {
        Transport::Channel => "channel",
        Transport::Tcp => "tcp",
    }
}

impl Effective {
    /// What `spec` says should run.
    pub fn expected(spec: &Spec, observe: bool) -> Effective {
        let segmented = spec.backend == Backend::Segmented;
        Effective {
            transport: transport_name(spec),
            backend: if segmented { "segmented" } else { "mem" },
            // The segmented backend is one multiplexed chain per node,
            // so it always shares the log.
            shared_log: segmented,
            group_commit: spec
                .group_commit
                .then_some((GC_BATCH, GC_MAX_WAIT_US, false)),
            read_only: spec.read_only,
            lanes: spec.lanes,
            stripes: if spec.lanes > 1 { 16 } else { 1 },
            observe,
        }
    }

    fn of(spec: &Spec, cfg: &LiveNodeConfig) -> Effective {
        Effective {
            transport: transport_name(spec),
            backend: match cfg.log_backend {
                LogBackend::Memory => "mem",
                LogBackend::File(_) => "file",
                LogBackend::Segmented(_) => "segmented",
            },
            shared_log: cfg.opts.shared_log,
            group_commit: cfg
                .opts
                .group_commit
                .map(|g| (g.batch_size, g.max_wait.as_micros(), g.adaptive)),
            read_only: cfg.opts.read_only,
            lanes: cfg.lanes,
            stripes: cfg.effective_stripes(),
            observe: cfg.observe,
        }
    }
}

/// One node's configuration. `with_opts` replaces the whole option set,
/// so it goes first and the setters that edit single options (the
/// segmented backend raises `shared_log`, `with_group_commit` sets
/// `group_commit`) come after it.
fn node_config(spec: &Spec, wal_dir: &Path, observe: bool) -> LiveNodeConfig {
    let opts = OptimizationConfig {
        read_only: spec.read_only,
        ..OptimizationConfig::none()
    };
    let mut cfg = LiveNodeConfig::new(PROTOCOL).with_opts(opts);
    if spec.backend == Backend::Segmented {
        cfg = cfg.with_segmented_log(wal_dir);
    }
    if spec.group_commit {
        cfg = cfg.with_group_commit(Some(GroupCommitConfig {
            batch_size: GC_BATCH,
            max_wait: SimDuration::from_micros(GC_MAX_WAIT_US),
            adaptive: false,
        }));
    }
    cfg = cfg.with_lanes(spec.lanes);
    if observe {
        cfg = cfg.with_observability();
    }
    cfg
}

// ------------------------------------------------------------------
// Cluster
// ------------------------------------------------------------------

pub enum Cluster {
    Channel(LiveCluster),
    Tcp(TcpCluster),
}

impl Cluster {
    /// Builds the three node configurations, checks that they say what
    /// the workload's label says, and starts the cluster. WAL files (if
    /// the backend has any) go under `wal_dir`.
    pub fn start(
        spec: &Spec,
        wal_dir: &Path,
        observe: bool,
    ) -> Result<(Cluster, Effective), String> {
        assert!(
            spec.in_flight == 1 || spec.transport == Transport::Channel,
            "TcpCommitWait has no poll: a TCP workload cannot keep transactions in flight"
        );
        let cfg = node_config(spec, wal_dir, observe);
        let effective = Effective::of(spec, &cfg);
        let expected = Effective::expected(spec, observe);
        if effective != expected {
            return Err(format!(
                "{}: effective configuration {effective:?} is not the labelled {expected:?}",
                spec.name
            ));
        }
        let configs = vec![cfg; NODES];
        let cluster = match spec.transport {
            Transport::Channel => Cluster::Channel(LiveCluster::start(configs)),
            Transport::Tcp => {
                Cluster::Tcp(TcpCluster::start(configs).map_err(|e| format!("bind loopback: {e}"))?)
            }
        };
        Ok((cluster, effective))
    }

    pub fn begin(&self, root: usize) -> Txn<'_> {
        let root = NodeId(root as u32);
        match self {
            Cluster::Channel(c) => Txn::Channel(c.begin(root)),
            Cluster::Tcp(c) => Txn::Tcp(c.begin(root)),
        }
    }

    /// The committed value of `key` at the server.
    pub fn read(&self, key: u32) -> Option<Vec<u8>> {
        let key = key_name(key);
        match self {
            Cluster::Channel(c) => c.read(SERVER, &key),
            Cluster::Tcp(c) => c.read(SERVER, &key),
        }
    }

    pub fn quiesce(&self, timeout: Duration) -> bool {
        match self {
            Cluster::Channel(c) => c.quiesce(timeout),
            Cluster::Tcp(c) => c.quiesce(timeout),
        }
    }

    pub fn shutdown(self) -> Final {
        Final {
            summaries: match self {
                Cluster::Channel(c) => c.shutdown(),
                Cluster::Tcp(c) => c.shutdown(),
            },
        }
    }
}

pub enum Txn<'a> {
    Channel(TxnHandle<'a>),
    Tcp(TcpTxnHandle<'a>),
}

impl Txn<'_> {
    fn id(&self) -> TxnId {
        match self {
            Txn::Channel(t) => t.id(),
            Txn::Tcp(t) => t.id(),
        }
    }

    fn work(&self, ops: Vec<Op>) {
        match self {
            Txn::Channel(t) => t.work(SERVER, ops),
            Txn::Tcp(t) => t.work(SERVER, ops),
        }
    }

    pub fn put(&self, key: u32, value: &str) {
        self.work(vec![Op::put(&key_name(key), value)]);
    }

    pub fn get(&self, key: u32) {
        self.work(vec![Op::get(&key_name(key))]);
    }

    /// Requests commit and blocks for the outcome.
    pub fn commit(self) -> Done {
        let txn = self.id();
        let result = match self {
            Txn::Channel(t) => t.commit(),
            Txn::Tcp(t) => t.commit(),
        };
        Done { txn, result }
    }

    /// Requests commit and returns at once.
    pub fn commit_async(self) -> Pending {
        let txn = self.id();
        let wait = match self {
            Txn::Channel(t) => Waiter::Channel(t.commit_async()),
            Txn::Tcp(t) => Waiter::Tcp(t.commit_async()),
        };
        Pending { txn, wait }
    }
}

enum Waiter {
    Channel(CommitWait),
    Tcp(TcpCommitWait),
}

pub struct Pending {
    txn: TxnId,
    wait: Waiter,
}

impl Pending {
    /// The outcome if it has arrived.
    pub fn poll(&self) -> Option<Done> {
        let result = match &self.wait {
            Waiter::Channel(w) => w.poll().transpose()?,
            Waiter::Tcp(_) => unreachable!("rejected by Cluster::start"),
        };
        Some(Done {
            txn: self.txn,
            result,
        })
    }

    pub fn wait(self) -> Done {
        let result = match self.wait {
            Waiter::Channel(w) => w.wait(REPLY_TIMEOUT),
            Waiter::Tcp(w) => w.wait_with(REPLY_TIMEOUT),
        };
        Done {
            txn: self.txn,
            result,
        }
    }
}

/// One transaction's completion as the client saw it.
pub struct Done {
    txn: TxnId,
    result: twopc::common::Result<CommitResult>,
}

impl Done {
    /// The outcome arrived and it is Commit. Anything else — an error,
    /// a reply timeout, an abort — is a failed operation: the workloads
    /// are chosen so that none occurs.
    pub fn committed(&self) -> bool {
        matches!(&self.result, Ok(r) if r.outcome == Outcome::Commit)
    }

    pub fn describe(&self) -> String {
        match &self.result {
            Ok(r) => format!("{:?}: {:?}", self.txn, r.outcome),
            Err(e) => format!("{:?}: {e}", self.txn),
        }
    }
}

// ------------------------------------------------------------------
// Final state: counters and the invariant check
// ------------------------------------------------------------------

/// The nodes' shutdown summaries.
pub struct Final {
    summaries: Vec<NodeSummary>,
}

/// Cluster-wide totals since start, taken from the shutdown summaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub nodes: usize,
    pub flows: u64,
    pub forced: u64,
    pub log_writes: u64,
    pub outcomes: u64,
    pub committed: u64,
    pub aborted: u64,
    pub active_txns: u64,
    pub wal_forced: u64,
    pub wal_flushes: u64,
    pub wal_bytes: u64,
    pub rm_forced: u64,
    pub group_requests: u64,
    pub group_flushes: u64,
    pub group_by_timer: u64,
    pub pool_checkouts: u64,
    pub pool_hits: u64,
    pub lock_requests: u64,
    pub lock_waits: u64,
    pub lock_wait_us: u64,
    pub lock_victims: u64,
    pub net_retries: u64,
    pub acks_piggybacked: u64,
    pub io_errors: u64,
    /// Phase durations at the roots; empty without observability.
    pub prepare: PhaseTotal,
    pub decision: PhaseTotal,
    pub ack: PhaseTotal,
    /// Over all nodes; empty without observability.
    pub fsync: PhaseTotal,
    pub group_flush: PhaseTotal,
}

/// Sum and count of one phase histogram (the sum is exact; the
/// histogram's quantiles are factor-of-two quantised, so only the mean
/// is used).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTotal {
    pub sum_us: u64,
    pub count: u64,
}

impl Final {
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            nodes: self.summaries.len(),
            ..Counters::default()
        };
        for s in &self.summaries {
            c.flows += s.driver.flows_sent;
            c.forced += s.driver.forced_writes;
            c.log_writes += s.driver.log_writes;
            c.outcomes += s.driver.outcomes;
            c.active_txns += s.active_txns as u64;
            c.wal_forced += s.log.forced_writes;
            c.wal_flushes += s.log.physical_flushes;
            c.wal_bytes += s.log.bytes + s.rm_log.bytes;
            c.rm_forced += s.rm_log.forced_writes;
            c.group_requests += s.group.requests;
            c.group_flushes += s.group.flushes;
            c.group_by_timer += s.group.flushes_by_timer;
            c.pool_checkouts += s.pool.checkouts;
            c.pool_hits += s.pool.hits;
            for l in &s.lock_stripes {
                c.lock_requests += l.requests;
                c.lock_waits += l.waits;
                c.lock_wait_us += l.total_wait_micros;
                c.lock_victims += l.deadlocks + l.timeouts;
            }
            c.net_retries += s.net.send_retries + s.net.reconnects + s.net.dropped_frames;
            c.acks_piggybacked += s.acks.piggybacked;
            c.io_errors += s.wal.io_errors;
            if (s.node.0 as usize) < ROOTS {
                c.committed += s.metrics.committed;
                c.aborted += s.metrics.aborted;
            }
        }
        let obs = |roots_only: bool| {
            ObsSnapshot::merged(
                self.summaries
                    .iter()
                    .filter(|s| !roots_only || (s.node.0 as usize) < ROOTS)
                    .filter_map(|s| s.obs.as_ref()),
            )
        };
        let total = |snap: &ObsSnapshot, phase| {
            snap.phase(phase)
                .map_or_else(PhaseTotal::default, |h| PhaseTotal {
                    sum_us: h.sum,
                    count: h.count,
                })
        };
        let (roots, all) = (obs(true), obs(false));
        c.prepare = total(&roots, Phase::Prepare);
        c.decision = total(&roots, Phase::Decision);
        c.ack = total(&roots, Phase::Ack);
        c.fsync = total(&all, Phase::Fsync);
        c.group_flush = total(&all, Phase::GroupFlush);
        c
    }

    /// Runs the repository's invariant checker (atomicity, quiescence,
    /// damage-report fidelity) over the final protocol state and the
    /// outcomes in `sample`. Returns what it found wrong.
    ///
    /// The checker looks each outcome up in every node's completed list
    /// by linear search, so only a sample of the run's outcomes is
    /// passed; unresolved seats are reported for every transaction.
    pub fn verify(&self, sample: &[Done]) -> Vec<String> {
        let records: Vec<OutcomeRecord> = sample
            .iter()
            .filter_map(|d| {
                let r = d.result.as_ref().ok()?;
                Some(verify::outcome_record(d.txn, d.txn.origin, r))
            })
            .collect();
        let (mut problems, unresolved) = verify::check(&self.summaries, &records);
        problems.extend(
            unresolved
                .iter()
                .map(|(node, txn)| format!("{txn:?} unresolved at {node}")),
        );
        problems
    }
}

// ------------------------------------------------------------------
// Simulator: exact per-transaction costs
// ------------------------------------------------------------------

/// What one transaction of a given shape costs, counted by the
/// deterministic simulator on the same tree, operations and options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeCosts {
    /// Frames sent, application data included (`DriverStats::flows_sent`).
    pub flows: u64,
    /// Forced and total TM log writes (`DriverStats`).
    pub forced: u64,
    pub log_writes: u64,
    /// Forced writes on every stream (TM and RM).
    pub all_forced: u64,
    /// Flows and forces in series between the commit request and the
    /// outcome reaching the application.
    pub crit_flows: u64,
    pub crit_forces: u64,
}

/// Costs of one transaction of `spec` that reads (`read`) or writes one
/// key at the server.
///
/// The counters come from one run; the critical-path counts from how the
/// commit latency of that same scenario moves when one hop, or one
/// force, is made 1 ms dearer.
pub fn sim_costs(spec: &Spec, read: bool) -> ShapeCosts {
    const STEP_US: u64 = 1_000;
    let run = |hop_us: u64, force_us: u64| {
        let mut cfg = SimConfig::default().real();
        cfg.latency = LatencyModel::Fixed(SimDuration::from_micros(hop_us));
        cfg.force_latency = SimDuration::from_micros(force_us);
        let mut sim = Sim::new(cfg);
        let expected = Effective::expected(spec, false);
        let opts = OptimizationConfig {
            read_only: expected.read_only,
            shared_log: expected.shared_log,
            ..OptimizationConfig::none()
        };
        let nodes = sim.add_nodes(NODES, NodeConfig::new(PROTOCOL).with_opts(opts));
        let (root, server) = (nodes[0], nodes[ROOTS]);
        let edge = if read {
            WorkEdge::read(root, server, "key-0000")
        } else {
            WorkEdge::update(root, server, "key-0000", "1")
        };
        sim.push_txn(TxnSpec {
            root,
            root_ops: Vec::new(),
            edges: vec![edge],
            late_edges: Vec::new(),
            commit: true,
        });
        let report = sim.run();
        report.assert_clean();
        assert_eq!(report.single().outcome, Outcome::Commit);
        let stats: Vec<_> = nodes.iter().map(|n| sim.driver_stats(*n)).collect();
        (report, stats)
    };
    let (base, stats) = run(STEP_US, 0);
    let elapsed = |r: &twopc::sim::RunReport| r.single().elapsed().as_micros();
    ShapeCosts {
        flows: stats.iter().map(|d| d.flows_sent).sum(),
        forced: stats.iter().map(|d| d.forced_writes).sum(),
        log_writes: stats.iter().map(|d| d.log_writes).sum(),
        all_forced: base.total_forced(),
        crit_flows: (elapsed(&run(2 * STEP_US, 0).0) - elapsed(&base)) / STEP_US,
        crit_forces: (elapsed(&run(STEP_US, STEP_US).0) - elapsed(&base)) / STEP_US,
    }
}

// ------------------------------------------------------------------
// Layer probes
// ------------------------------------------------------------------

/// A timed loop over one layer's public functions. `run(n)` performs the
/// operation `n` times; the reported value is nanoseconds per operation
/// divided by `ns_per_unit`.
pub struct Probe {
    pub name: &'static str,
    pub ns_per_unit: f64,
    pub run: Box<dyn FnMut(u64)>,
}

/// How often the probes that grow a structure start a fresh one, so a
/// long probe measures the steady state and not an ever larger table.
const RENEW_EVERY: u64 = 4096;

fn txn(seq: u64) -> TxnId {
    TxnId::new(NodeId(0), seq)
}

/// The five frames of one committing write, with the workloads' key and
/// value shapes.
fn commit_frames() -> Vec<Frame> {
    let t = txn(123_456);
    [
        ProtocolMsg::Work {
            txn: t,
            payload: encode_ops(&[Op::put(&key_name(512), "123456")]),
        },
        ProtocolMsg::Prepare {
            txn: t,
            long_locks: false,
            expect_work: true,
        },
        ProtocolMsg::VoteMsg {
            txn: t,
            vote: Vote::Yes(VoteFlags::NONE),
        },
        ProtocolMsg::Decision {
            txn: t,
            outcome: Outcome::Commit,
        },
        ProtocolMsg::Ack {
            txn: t,
            report: DamageReport::clean(),
            pending: false,
        },
    ]
    .into_iter()
    .map(|m| Frame {
        ctx: None,
        bundle: Bundle(vec![m]),
    })
    .collect()
}

/// Two engines and the hand pump of `crates/bench/benches/substrates.rs`
/// (`engine_raw`): one full two-participant Presumed Abort commit with no
/// host, no log and no wire.
struct EnginePair {
    coord: TmEngine,
    sub: TmEngine,
}

impl EnginePair {
    fn new() -> EnginePair {
        let engine = |n| TmEngine::new(EngineConfig::new(NodeId(n), PROTOCOL)).expect("config");
        EnginePair {
            coord: engine(0),
            sub: engine(1),
        }
    }

    fn commit(&mut self, txn: TxnId) {
        let t = SimTime(1);
        let work = Event::SendWork {
            txn,
            to: NodeId(1),
            payload: Vec::new(),
        };
        let acts = self.coord.handle(t, work).expect("work");
        self.pump(acts, t);
        let acts = self
            .coord
            .handle(t, Event::CommitRequested { txn })
            .expect("commit");
        self.pump(acts, t);
        assert_eq!(self.coord.finished_outcome(txn), Some(Outcome::Commit));
    }

    fn pump(&mut self, actions: Vec<Action>, t: SimTime) {
        let mut queue: Vec<(bool, Action)> = actions.into_iter().map(|a| (true, a)).collect();
        while let Some((at_coord, action)) = queue.pop() {
            match action {
                Action::Send { to, msgs } => {
                    let to_coord = to == NodeId(0);
                    let (target, from) = if to_coord {
                        (&mut self.coord, NodeId(1))
                    } else {
                        (&mut self.sub, NodeId(0))
                    };
                    for msg in msgs {
                        let acts = target
                            .handle(t, Event::MsgReceived { from, msg })
                            .expect("deliver");
                        queue.extend(acts.into_iter().map(|a| (to_coord, a)));
                    }
                }
                Action::PrepareLocal { txn, .. } => {
                    let target = if at_coord {
                        &mut self.coord
                    } else {
                        &mut self.sub
                    };
                    let vote = LocalVote::yes();
                    let acts = target
                        .handle(t, Event::LocalPrepared { txn, vote })
                        .expect("prepared");
                    queue.extend(acts.into_iter().map(|a| (at_coord, a)));
                }
                _ => {}
            }
        }
    }
}

/// A thread that sends back whatever it receives, for the hop probes.
/// Dropping it closes the connection and joins the thread.
struct Echo<C> {
    conn: Option<C>,
    thread: Option<JoinHandle<()>>,
}

impl<C> Drop for Echo<C> {
    fn drop(&mut self) {
        // Dropping our end makes the peer's receive fail, which ends it.
        self.conn = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

type ChannelEnds = (Sender<PooledBuf>, Receiver<PooledBuf>);

fn channel_echo() -> Echo<ChannelEnds> {
    let (to_peer, peer_rx) = unbounded::<PooledBuf>();
    let (peer_tx, from_peer) = unbounded::<PooledBuf>();
    let thread = std::thread::spawn(move || {
        while let Ok(buf) = peer_rx.recv() {
            if peer_tx.send(buf).is_err() {
                break;
            }
        }
    });
    Echo {
        conn: Some((to_peer, from_peer)),
        thread: Some(thread),
    }
}

/// Size of the frames the TCP hop probe exchanges (a Prepare or Vote
/// frame with its length prefix is about this long).
const TCP_FRAME: usize = 32;

fn tcp_echo() -> std::io::Result<Echo<TcpStream>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let conn = TcpStream::connect(listener.local_addr()?)?;
    conn.set_nodelay(true)?;
    let (mut peer, _) = listener.accept()?;
    peer.set_nodelay(true)?;
    let thread = std::thread::spawn(move || {
        let mut frame = [0u8; TCP_FRAME];
        while peer.read_exact(&mut frame).is_ok() {
            if peer.write_all(&frame).is_err() {
                break;
            }
        }
    });
    Ok(Echo {
        conn: Some(conn),
        thread: Some(thread),
    })
}

/// Every layer probe. File-backed logs are created under `dir`.
pub fn probes(dir: &Path) -> Result<Vec<Probe>, String> {
    let io = |e: twopc::common::Error| format!("probe log under {}: {e}", dir.display());
    let key = key_name(512).into_bytes();
    let mut out: Vec<Probe> = Vec::new();
    let mut add = |name, ns_per_unit, run: Box<dyn FnMut(u64)>| {
        out.push(Probe {
            name,
            ns_per_unit,
            run,
        })
    };

    // common: the wire codec, as the node host calls it — encode into a
    // pooled buffer, decode a whole frame. One operation is one frame.
    let frames = commit_frames();
    let per_frame = frames.len() as f64;
    let pool = BufferPool::new();
    let to_encode = frames.clone();
    add(
        "common.encode_ns",
        per_frame,
        Box::new(move |n| {
            for _ in 0..n {
                for f in &to_encode {
                    let mut buf = pool.checkout();
                    f.encode_append(&mut buf);
                    std::hint::black_box(&buf);
                }
            }
        }),
    );
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| f.encode_to_bytes().to_vec())
        .collect();
    add(
        "common.decode_ns",
        per_frame,
        Box::new(move |n| {
            for _ in 0..n {
                for bytes in &encoded {
                    std::hint::black_box(Frame::decode_all(std::hint::black_box(bytes)))
                        .expect("valid frame");
                }
            }
        }),
    );

    // core: the protocol state machine alone.
    let mut engines = EnginePair::new();
    let mut seq = 0u64;
    add(
        "core.engine_commit_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                if seq.is_multiple_of(RENEW_EVERY) {
                    engines = EnginePair::new();
                }
                engines.commit(txn(seq));
            }
        }),
    );

    // locks: one exclusive acquire and its release.
    let mut lm = LockManager::new();
    let (mut seq, k) = (0u64, key.clone());
    add(
        "locks.acquire_release_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                let t = txn(seq);
                std::hint::black_box(lm.acquire(t, &k, LockMode::Exclusive, SimTime(seq)));
                std::hint::black_box(lm.release_all(t, SimTime(seq + 1)));
            }
        }),
    );
    let slm = StripedLockManager::new(16);
    let (mut seq, k) = (0u64, key.clone());
    add(
        "locks.striped16_acquire_release_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                let t = txn(seq);
                std::hint::black_box(slm.acquire(t, &k, LockMode::Exclusive, SimTime(seq)));
                std::hint::black_box(slm.release_all(t, SimTime(seq + 1)));
            }
        }),
    );

    // rm: a write transaction end to end at one stripe (mem_sync's
    // server), a read-only one at sixteen (mem_mix16's server).
    let rm_cfg = || RmConfig::new(RmId(0));
    let mut rm = SharedRm::new(rm_cfg(), 1);
    let mut log = MemLog::new();
    let (mut seq, k) = (0u64, key.clone());
    add(
        "rm.write_prepare_commit_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                if seq.is_multiple_of(RENEW_EVERY) {
                    rm = SharedRm::new(rm_cfg(), 1);
                    log = MemLog::new();
                }
                let (t, now) = (txn(seq), SimTime(seq));
                rm.write(t, &k, Some(b"123456".to_vec()), &mut log, now)
                    .expect("write");
                rm.prepare(t, &mut log, Durability::Forced)
                    .expect("prepare");
                std::hint::black_box(rm.commit(t, &mut log, Durability::Forced, now))
                    .expect("commit");
            }
        }),
    );
    let mut rm = SharedRm::new(rm_cfg(), 16);
    let (mut seq, k) = (0u64, key.clone());
    add(
        "rm.read_forget_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                if seq.is_multiple_of(RENEW_EVERY) {
                    rm = SharedRm::new(rm_cfg(), 16);
                }
                let (t, now) = (txn(seq), SimTime(seq));
                std::hint::black_box(rm.read(t, &k, now)).expect("read");
                std::hint::black_box(rm.forget_read_only(t, now)).expect("forget");
            }
        }),
    );

    // wal: appends per backend, and what one device flush costs here.
    let committed = |seq| LogRecord::Committed {
        txn: txn(seq),
        subordinates: vec![SERVER],
    };
    let mut log = MemLog::new();
    let mut seq = 0u64;
    add(
        "wal.mem_append_forced_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                if seq.is_multiple_of(16 * RENEW_EVERY) {
                    log = MemLog::new();
                }
                std::hint::black_box(log.append(StreamId::Tm, committed(seq), Durability::Forced))
                    .expect("append");
            }
        }),
    );
    // End records end their transaction, so sealed segments are
    // reclaimed and the probe's footprint stays at a couple of segments.
    let mut log = SegmentedLog::create(dir.join("probe-seg-append")).map_err(io)?;
    let mut seq = 0u64;
    add(
        "wal.seg_append_nonforced_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                let end = LogRecord::End { txn: txn(seq) };
                std::hint::black_box(log.append(StreamId::Tm, end, Durability::NonForced))
                    .expect("append");
            }
        }),
    );
    let mut log = SegmentedLog::create(dir.join("probe-seg-flush")).map_err(io)?;
    let mut seq = 0u64;
    add(
        "wal.seg_flush_us",
        1e3,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                log.append(StreamId::Tm, committed(seq), Durability::Forced)
                    .expect("forced append");
            }
        }),
    );
    let mut log = FileLog::create(dir.join("probe-file.log")).map_err(io)?;
    let mut seq = 0u64;
    add(
        "wal.file_flush_us",
        1e3,
        Box::new(move |n| {
            for _ in 0..n {
                seq += 1;
                log.append(StreamId::Tm, committed(seq), Durability::Forced)
                    .expect("forced append");
            }
        }),
    );

    // runtime: one hop is half a round trip between two threads.
    let echo = channel_echo();
    let pool = BufferPool::new();
    let vote = frames[2].clone();
    add(
        "runtime.channel_hop_us",
        2.0 * 1e3,
        Box::new(move |n| {
            let (tx, rx) = echo.conn.as_ref().expect("open until drop");
            for _ in 0..n {
                let mut buf = pool.checkout();
                vote.encode_append(&mut buf);
                tx.send(buf).expect("echo thread alive");
                std::hint::black_box(rx.recv().expect("echo thread alive"));
            }
        }),
    );
    let mut echo = tcp_echo().map_err(|e| format!("loopback echo: {e}"))?;
    add(
        "runtime.tcp_hop_us",
        2.0 * 1e3,
        Box::new(move |n| {
            let conn = echo.conn.as_mut().expect("open until drop");
            let mut frame = [7u8; TCP_FRAME];
            for _ in 0..n {
                conn.write_all(&frame).expect("echo thread alive");
                conn.read_exact(&mut frame).expect("echo thread alive");
            }
        }),
    );

    // obs: what one histogram record costs the node that makes it.
    let obs = Obs::new();
    let mut v = 0u64;
    add(
        "obs.record_ns",
        1.0,
        Box::new(move |n| {
            for _ in 0..n {
                v = (v + 7) & 0xfff;
                obs.record(Phase::Prepare, std::hint::black_box(v));
            }
        }),
    );
    Ok(out)
}
