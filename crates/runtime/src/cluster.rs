//! The live cluster: one thread per node lane, with kill / restart /
//! fault-injection controls for chaos testing. The cluster is generic
//! over how frames travel ([`Net`]): [`LiveCluster`] runs over crossbeam
//! channels ([`ChannelNet`]), [`crate::tcp::TcpCluster`] over loopback
//! sockets ([`crate::tcp::TcpNet`]). Starting, killing, restarting and
//! every request are one code path for both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use tpc_common::{Error, NodeId, Op, PooledBuf, Result, RmId, TxnId};
use tpc_rm::{RmConfig, SharedRm};
use tpc_wal::SharedLog;

use crate::fault::{FaultPlan, FaultStats, FaultyWire};
use crate::node::{
    create_log, lane_of, make_obs, recover_lanes, reopen_log, tail_counts, AckSlot, AppCmd,
    CommitResult, Inbound, IoHealth, LaneParts, LiveNodeConfig, LogRole, NodeSummary, NodeWorker,
    Transport,
};
use crate::signal::ClusterSignal;

/// How long cluster-level blocking requests (commit, read, summary) wait
/// for a reply before reporting [`Error::Timeout`] instead of hanging on
/// a dead or wedged node.
const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// How a cluster's frames travel: the factory the cluster asks for each
/// lane's transport, and the two hooks a network with an inbound side of
/// its own (TCP's sockets) needs. Channel delivery needs neither hook.
pub trait Net {
    /// The transport one lane sends and receives through.
    type Transport: Transport;

    /// Builds the transport of one of `node`'s lanes.
    /// `inboxes[node][lane]` is every lane's inbound channel.
    fn transport(&self, node: NodeId, inboxes: &[Vec<Sender<Inbound>>]) -> Self::Transport;

    /// Hooks one of `node`'s inbound channels into the network, so a
    /// message on it wakes a lane parked in its transport.
    fn attach(&self, node: NodeId, inbox: &Receiver<Inbound>) {
        let _ = (node, inbox);
    }

    /// At restart: drops whatever the network still holds for `node`'s
    /// dead incarnation (the dead process never received it).
    fn discard_pending(&self, node: NodeId) {
        let _ = node;
    }
}

/// The in-process network: frames travel over crossbeam channels,
/// straight into the receiving lane's inbox.
#[derive(Debug)]
pub struct ChannelNet;

impl Net for ChannelNet {
    type Transport = ChannelTransport;

    fn transport(&self, node: NodeId, inboxes: &[Vec<Sender<Inbound>>]) -> ChannelTransport {
        ChannelTransport {
            me: node,
            peers: inboxes.to_vec(),
        }
    }
}

/// Transport over crossbeam channels: every node holds senders to all
/// peers' lanes.
pub struct ChannelTransport {
    me: NodeId,
    /// `peers[node][lane]` — lane 0 always exists.
    peers: Vec<Vec<Sender<Inbound>>>,
}

impl Transport for ChannelTransport {
    fn send(&mut self, to: NodeId, bytes: PooledBuf) {
        self.send_to_lane(to, 0, bytes);
    }

    fn send_to_lane(&mut self, to: NodeId, lane: usize, bytes: PooledBuf) {
        if let Some(lanes) = self.peers.get(to.index()) {
            if let Some(tx) = lanes.get(lane).or_else(|| lanes.first()) {
                let _ = tx.send(Inbound::Frame {
                    from: self.me,
                    bytes,
                });
            }
        }
    }
}

/// A running cluster whose frames travel over `N`.
pub struct Cluster<N> {
    net: N,
    /// `senders[node][lane]` — lane 0 always exists.
    senders: Vec<Vec<Sender<Inbound>>>,
    /// Clones of the workers' inbound receivers, kept so a killed node's
    /// channel survives and a restarted worker can resume reading it
    /// (after the down-window backlog is drained — those frames are the
    /// messages the dead "process" never received).
    receivers: Vec<Vec<Receiver<Inbound>>>,
    /// `None` marks a dead (killed, not yet restarted) worker, indexed
    /// `[node][lane]`.
    handles: Vec<Vec<Option<JoinHandle<NodeSummary>>>>,
    /// Coordinator lanes per node (uniform across the cluster).
    lanes: usize,
    configs: Vec<LiveNodeConfig>,
    downstream: Vec<Vec<NodeId>>,
    /// Each node's outbound fault plan, taken by its first incarnation.
    faults: Vec<Option<FaultPlan>>,
    fault_stats: Vec<Option<Arc<FaultStats>>>,
    epoch: Instant,
    next_seq: Arc<AtomicU64>,
    reply_timeout: Duration,
    /// Bumped by workers on observable progress; cluster-level waits
    /// block on it instead of sleep-polling.
    pub(crate) signal: Arc<ClusterSignal>,
}

/// The in-process cluster: every node is a thread (one per lane) and
/// frames travel over crossbeam channels.
pub type LiveCluster = Cluster<ChannelNet>;

impl Cluster<ChannelNet> {
    /// Starts one thread per config with no standing partners: commit
    /// trees are built purely from the work actually exchanged. Standing
    /// partnership (the LU 6.2 conversation structure that the leave-out
    /// optimization exploits) is directional and tree-shaped — declare it
    /// explicitly with [`LiveCluster::start_with_topology`].
    pub fn start(configs: Vec<LiveNodeConfig>) -> Self {
        Self::start_with_topology(configs, &[])
    }

    /// Starts the cluster with explicit partner edges `(parent, child)`.
    pub fn start_with_topology(configs: Vec<LiveNodeConfig>, partners: &[(usize, usize)]) -> Self {
        let faults = vec![None; configs.len()];
        Self::start_with_faults(configs, partners, faults)
    }

    /// Starts the cluster with a per-node outbound [`FaultPlan`] (`None`
    /// for a clean wire). Fault plans apply to the node's original
    /// incarnation only; a restarted node comes back with a clean wire so
    /// recovery converges.
    pub fn start_with_faults(
        configs: Vec<LiveNodeConfig>,
        partners: &[(usize, usize)],
        faults: Vec<Option<FaultPlan>>,
    ) -> Self {
        Self::launch(ChannelNet, configs, partners, faults)
    }
}

impl<N: Net> Cluster<N> {
    /// Opens every lane's inbox on `net` and starts every node.
    pub(crate) fn launch(
        net: N,
        configs: Vec<LiveNodeConfig>,
        partners: &[(usize, usize)],
        faults: Vec<Option<FaultPlan>>,
    ) -> Self {
        assert_eq!(configs.len(), faults.len(), "one fault slot per node");
        let n = configs.len();
        let lanes = configs.first().map(|c| c.lanes.max(1)).unwrap_or(1);
        assert!(
            configs.iter().all(|c| c.lanes.max(1) == lanes),
            "lane count must be uniform across the cluster (txn→lane \
             routing is a pure function every node computes)"
        );
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for i in 0..n {
            let (txs, rxs): (Vec<_>, Vec<_>) = (0..lanes).map(|_| unbounded()).unzip();
            for rx in &rxs {
                net.attach(NodeId(i as u32), rx);
            }
            senders.push(txs);
            receivers.push(rxs);
        }
        let downstream = (0..n)
            .map(|i| {
                partners
                    .iter()
                    .filter(|(a, _)| *a == i)
                    .map(|(_, b)| NodeId(*b as u32))
                    .collect()
            })
            .collect();
        let mut cluster = Cluster {
            net,
            senders,
            receivers,
            handles: (0..n).map(|_| (0..lanes).map(|_| None).collect()).collect(),
            lanes,
            configs,
            downstream,
            faults,
            fault_stats: vec![None; n],
            epoch: Instant::now(),
            next_seq: Arc::new(AtomicU64::new(1)),
            reply_timeout: DEFAULT_REPLY_TIMEOUT,
            signal: Arc::new(ClusterSignal::new()),
        };
        for i in 0..n {
            cluster
                .spawn_node(NodeId(i as u32), false)
                .expect("a fresh node has nothing to recover");
        }
        cluster
    }

    /// Builds and spawns every lane of `node`. Fresh, the node gets new
    /// logs; `recovered`, its durable WAL is reopened (classifying any
    /// tail damage) and replayed once, and each lane resumes with exactly
    /// the recovered transactions it owns (`lane_of`). A restarted node
    /// comes back with a clean wire and healthy storage: its fault plans
    /// belong to the original incarnation.
    fn spawn_node(&mut self, node: NodeId, recovered: bool) -> Result<()> {
        let i = node.index();
        let mut cfg = self.configs[i].clone();
        let plan = self.faults[i].take();
        if recovered {
            cfg.storage_faults = None;
        }
        let rm = Arc::new(SharedRm::new(
            RmConfig::new(RmId(0)),
            cfg.effective_stripes(),
        ));
        // Observability attaches before recovery so the recovered
        // in-doubt windows re-open at their durable `prepared_at`
        // instants (covering the outage, not just the tail after it).
        let obs = make_obs(&cfg);
        let (log, rm_log, resumed) = if recovered {
            let (mut log, tm_tail) = reopen_log(&cfg.log_backend, node, LogRole::Tm)?;
            let mut damage = tail_counts(tm_tail);
            let mut rm_log = None;
            if !cfg.opts.shared_log {
                let (l, rm_tail) = reopen_log(&cfg.log_backend, node, LogRole::Rm)?;
                let (t, c) = tail_counts(rm_tail);
                damage = (damage.0 + t, damage.1 + c);
                rm_log = Some(l);
            }
            let resumed = recover_lanes(
                node,
                &cfg,
                &self.downstream[i],
                &rm,
                &mut log,
                &mut rm_log,
                obs.as_ref(),
                self.epoch,
                damage,
            )?;
            (log, rm_log, resumed)
        } else {
            // The RM log shares the TM log's durability class: a node
            // whose TM log survives a crash but whose RM log does not
            // could not honour its prepared guarantee.
            let rm_log = (!cfg.opts.shared_log).then(|| create_log(&cfg, node, LogRole::Rm));
            (create_log(&cfg, node, LogRole::Tm), rm_log, Vec::new())
        };
        // A one-lane node owns its logs outright, which keeps the
        // SharedLog mutex off its append path. Lanes > 1 share one RM,
        // one durable device (SharedLog clones, so storage faults run
        // through one fault stream, as on one physical disk) and one
        // ack-piggyback slot.
        let (logs, ack_slot) = if self.lanes == 1 {
            (vec![(log, rm_log)], None)
        } else {
            let tm = SharedLog::new(log);
            let rm_log = rm_log.map(SharedLog::new);
            let logs = (0..self.lanes)
                .map(|_| {
                    let rm_log = rm_log.clone().map(|l| Box::new(l) as _);
                    (Box::new(tm.clone()) as _, rm_log)
                })
                .collect();
            (logs, Some(Arc::new(AckSlot::default())))
        };
        let health = Arc::new(IoHealth::default());
        let mut resumed = resumed.into_iter();
        for (lane, (log, rm_log)) in logs.into_iter().enumerate() {
            let transport = self.transport(node, plan.clone());
            let parts = LaneParts {
                rx: self.receivers[i][lane].clone(),
                epoch: self.epoch,
                signal: Arc::clone(&self.signal),
                rm: Arc::clone(&rm),
                log,
                rm_log,
                obs: obs.clone(),
                lane,
                lane_peers: self.senders[i].clone(),
                health: Arc::clone(&health),
                ack_slot: ack_slot.clone(),
            };
            let worker = match resumed.next() {
                Some(rec) => NodeWorker::resume_with_parts(node, &cfg, transport, parts, rec)?,
                None => {
                    NodeWorker::new_with_parts(node, &cfg, &self.downstream[i], transport, parts)
                }
            };
            self.handles[i][lane] = Some(spawn_worker(
                i,
                lane,
                self.lanes,
                worker,
                Arc::clone(&self.signal),
            ));
        }
        Ok(())
    }

    /// Replaces the reply deadline used by blocking requests.
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    fn transport(&mut self, node: NodeId, plan: Option<FaultPlan>) -> Box<dyn Transport> {
        let base = self.net.transport(node, &self.senders);
        match plan {
            Some(plan) => {
                let wire = FaultyWire::new(base, plan);
                self.fault_stats[node.index()] = Some(wire.stats());
                Box::new(wire)
            }
            None => Box::new(base),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Coordinator lanes per node.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// True when the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// True while any of `node`'s lane workers is running.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.handles[node.index()]
            .iter()
            .any(|h| h.as_ref().is_some_and(|h| !h.is_finished()))
    }

    /// True until `node` is killed (or found dead), and again once it
    /// restarts: its lane workers have not been joined.
    fn has_workers(&self, node: NodeId) -> bool {
        self.handles[node.index()].iter().any(Option::is_some)
    }

    /// Fault counters for `node`'s outbound wire, when it has one.
    pub fn fault_stats(&self, node: NodeId) -> Option<&FaultStats> {
        self.fault_stats[node.index()].as_deref()
    }

    /// Kills `node` mid-protocol: every lane worker crashes (volatile
    /// state and buffered log tails lost, in-flight replies dropped) and
    /// the node's partners are told the sessions failed, exactly as the
    /// simulator's crash event does. A multi-lane node dies as one
    /// process — its lanes share the RM and log buffers, so they go down
    /// together. The node's inbox stays open, like a crashed process's
    /// port (over TCP, its listener and inbound connections): what peers
    /// send meanwhile is discarded at restart. Returns the dying node's
    /// last summary (lanes folded).
    pub fn kill(&mut self, node: NodeId) -> Result<NodeSummary> {
        if !self.has_workers(node) {
            return Err(Error::NodeDown(node));
        }
        self.bury(node)
    }

    /// Kills whatever lanes of `node` still run (a lane that already
    /// exited leaves its Kill in the inbox, which restart drains), joins
    /// every lane, folds their summaries into the node-level rollup and
    /// tells the partners the node is gone.
    fn bury(&mut self, node: NodeId) -> Result<NodeSummary> {
        for (lane, tx) in self.senders[node.index()].iter().enumerate() {
            if self.handles[node.index()][lane].is_some() {
                let _ = tx.send(Inbound::Kill);
            }
        }
        let lanes = self.handles[node.index()]
            .iter_mut()
            .filter_map(Option::take)
            .map(|h| h.join())
            .collect::<std::thread::Result<Vec<_>>>()
            .map_err(|_| Error::Transport(format!("worker {node} panicked")))?;
        self.broadcast_partner_down(node);
        fold_lanes(lanes).ok_or(Error::NodeDown(node))
    }

    /// Waits for a node armed with
    /// [`kill_after_frames`](LiveNodeConfig::kill_after_frames) (on any
    /// lane) or driven into fail-stop by a storage fault to crash
    /// itself, then notifies its partners. On a multi-lane node the
    /// first lane to die takes the rest of the "process" with it: the
    /// lanes share volatile state, so the survivors are killed and
    /// joined too. Fails with [`Error::Timeout`] if every lane is still
    /// alive after `timeout`.
    pub fn await_death(&mut self, node: NodeId, timeout: Duration) -> Result<NodeSummary> {
        if !self.has_workers(node) {
            return Err(Error::NodeDown(node));
        }
        let finished = self.signal.wait_for(timeout, || {
            self.handles[node.index()]
                .iter()
                .any(|h| h.as_ref().is_some_and(|h| h.is_finished()))
                .then_some(())
        });
        if finished.is_none() {
            return Err(Error::Timeout(format!(
                "{node} still alive after {timeout:?}"
            )));
        }
        // The remaining lanes die with the process (their volatile state
        // is shared with the crashed lane).
        self.bury(node)
    }

    /// Restarts a killed node from its durable WAL: whatever reached the
    /// dead incarnation — its inbox backlog, and over TCP every whole
    /// frame its connections hold — is discarded first, then RM and
    /// engine recovery replay and the protocol re-drives over the
    /// network. On a multi-lane node the one shared log is replayed once
    /// and the recovered transactions are repartitioned to their owning
    /// lanes; recovery telemetry rolls up per node. Needs a durable log
    /// backend (file or segmented): a memory log dies with the node.
    pub fn restart(&mut self, node: NodeId) -> Result<()> {
        if self.has_workers(node) {
            return Err(Error::InvalidState(format!("{node} is already running")));
        }
        for rx in &self.receivers[node.index()] {
            while rx.try_recv().is_ok() {}
        }
        self.net.discard_pending(node);
        self.spawn_node(node, true)
    }

    fn broadcast_partner_down(&self, peer: NodeId) {
        for (i, lanes) in self.senders.iter().enumerate() {
            if i == peer.index() {
                continue;
            }
            for (lane, tx) in lanes.iter().enumerate() {
                if self.handles[i][lane].is_some() {
                    let _ = tx.send(Inbound::PartnerDown { peer });
                }
            }
        }
    }

    /// Begins a transaction rooted at `root`.
    pub fn begin(&self, root: NodeId) -> TxnHandle<'_, N> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        TxnHandle {
            cluster: self,
            txn: TxnId::new(root, seq),
            root,
        }
    }

    fn request_lane<R>(
        &self,
        node: NodeId,
        lane: usize,
        make: impl FnOnce(Sender<R>) -> AppCmd,
    ) -> Result<R> {
        if self.handles[node.index()][lane].is_none() {
            return Err(Error::NodeDown(node));
        }
        let (tx, rx) = bounded(1);
        self.senders[node.index()][lane]
            .send(Inbound::App(make(tx)))
            .map_err(|_| Error::NodeDown(node))?;
        recv_reply(&rx, node, self.reply_timeout)
    }

    /// Reads a committed value from `node`'s store (blocking).
    pub fn read(&self, node: NodeId, key: &str) -> Option<Vec<u8>> {
        self.try_read(node, key).ok().flatten()
    }

    /// Reads a committed value, distinguishing "no such key" from "node
    /// down / no reply".
    pub fn try_read(&self, node: NodeId, key: &str) -> Result<Option<Vec<u8>>> {
        self.request_lane(node, 0, |reply| AppCmd::Read {
            key: key.as_bytes().to_vec(),
            reply,
        })
    }

    /// Polls `node`'s store until `key` holds a value or `timeout`
    /// elapses. The root's outcome reply races decision propagation to
    /// subordinates (it may answer while acks are still in flight), so
    /// visibility at another node is asserted with a deadline, not a
    /// single read.
    pub fn read_eventually(&self, node: NodeId, key: &str, timeout: Duration) -> Option<Vec<u8>> {
        self.signal.wait_for(timeout, || self.read(node, key))
    }

    /// Waits until every live node reports zero active transactions, or
    /// `timeout` passes. Returns `true` on quiescence — chaos runs call
    /// this before handing final state to [`crate::verify::check`]. The
    /// wait blocks on the cluster progress signal instead of sleeping.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        self.signal
            .wait_for(timeout, || {
                let busy = (0..self.len()).map(|i| NodeId(i as u32)).any(|node| {
                    self.has_workers(node) && self.summary(node).is_none_or(|s| s.active_txns > 0)
                });
                (!busy).then_some(())
            })
            .is_some()
    }

    /// Renders the Prometheus text exposition for every live node:
    /// driver/WAL counters always, plus per-phase latency histograms for
    /// nodes built with [`LiveNodeConfig::with_observability`]. Killed
    /// nodes are skipped (their scrape would hang).
    pub fn prometheus_dump(&self) -> String {
        crate::obs_export::prometheus_text(&self.live_summaries())
    }

    /// Renders a chrome-trace JSON of one transaction's phase spans
    /// across all live nodes. Needs
    /// [`LiveNodeConfig::with_tracing`]; without it the trace is empty.
    pub fn chrome_trace(&self, txn: TxnId) -> String {
        crate::obs_export::chrome_trace_text(&self.live_summaries(), txn)
    }

    fn live_summaries(&self) -> Vec<NodeSummary> {
        (0..self.len())
            .filter_map(|i| self.summary(NodeId(i as u32)))
            .collect()
    }

    /// Serves the cluster observability endpoints over HTTP at `addr`
    /// (use `"127.0.0.1:0"` for an ephemeral port; the bound address is
    /// on the returned server): `/metrics`, `/healthz` (503 once any
    /// node's WAL degrades), the windowed `/timeline` JSON and the
    /// `/debug/flight` recorder dump. Each request collects fresh
    /// summaries from every node that answers within a bounded wait, so
    /// a killed node degrades the response instead of hanging it.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<crate::http::MetricsServer> {
        let senders = self.senders.clone();
        let timeout = self.reply_timeout.min(Duration::from_secs(2));
        crate::http::MetricsServer::serve_routes(addr, move |path| {
            let summaries: Vec<NodeSummary> = senders
                .iter()
                .enumerate()
                .filter_map(|(i, lanes)| {
                    let lanes = lanes.iter().map(|tx| {
                        let (reply, rx) = bounded(1);
                        tx.send(Inbound::App(AppCmd::Summary { reply })).ok()?;
                        recv_reply(&rx, NodeId(i as u32), timeout).ok()
                    });
                    fold_lanes(lanes.collect::<Option<Vec<_>>>()?)
                })
                .collect();
            crate::obs_export::route(&summaries, path)
        })
    }

    /// Fetches a node's live summary.
    pub fn summary(&self, node: NodeId) -> Option<NodeSummary> {
        self.try_summary(node).ok()
    }

    /// Fetches a node's live summary with a typed error on failure. On a
    /// multi-lane node, every lane's summary is collected and folded
    /// into the node-level rollup.
    pub fn try_summary(&self, node: NodeId) -> Result<NodeSummary> {
        let mut merged = self.request_lane(node, 0, |reply| AppCmd::Summary { reply })?;
        for lane in 1..self.lanes {
            let s = self.request_lane(node, lane, |reply| AppCmd::Summary { reply })?;
            merged.absorb_lane(s);
        }
        Ok(merged)
    }

    /// Stops every live node and returns their final summaries (killed
    /// nodes are absent — their last summary was returned by
    /// [`Cluster::kill`] / [`Cluster::await_death`]).
    pub fn shutdown(self) -> Vec<NodeSummary> {
        for (i, lanes) in self.senders.iter().enumerate() {
            for (lane, tx) in lanes.iter().enumerate() {
                if self.handles[i][lane].is_some() {
                    let (reply, _rx) = bounded(1);
                    let _ = tx.send(Inbound::Shutdown { reply });
                }
            }
        }
        self.handles
            .into_iter()
            .filter_map(|lanes| {
                fold_lanes(lanes.into_iter().flatten().filter_map(|h| h.join().ok()))
            })
            .collect()
    }

    pub(crate) fn send_app(&self, node: NodeId, cmd: AppCmd) {
        let lane = match &cmd {
            AppCmd::Work { txn, .. } | AppCmd::Commit { txn, .. } | AppCmd::Abort { txn, .. } => {
                lane_of(*txn, self.lanes)
            }
            AppCmd::Read { .. } | AppCmd::Summary { .. } => 0,
        };
        let _ = self.senders[node.index()][lane].send(Inbound::App(cmd));
    }
}

/// Folds a node's lane summaries into the node-level rollup.
fn fold_lanes(lanes: impl IntoIterator<Item = NodeSummary>) -> Option<NodeSummary> {
    lanes.into_iter().reduce(|mut node, lane| {
        node.absorb_lane(lane);
        node
    })
}

fn spawn_worker<T: Transport>(
    index: usize,
    lane: usize,
    lanes: usize,
    worker: NodeWorker<T>,
    signal: Arc<ClusterSignal>,
) -> JoinHandle<NodeSummary> {
    let name = if lanes > 1 {
        format!("tpc-node-{index}-l{lane}")
    } else {
        format!("tpc-node-{index}")
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let summary = worker.run();
            // Final bump so await_death / quiesce observe the exit.
            signal.bump();
            summary
        })
        .expect("spawn node thread")
}

fn recv_reply<R>(rx: &Receiver<R>, node: NodeId, timeout: Duration) -> Result<R> {
    match rx.recv_timeout(timeout) {
        Ok(r) => Ok(r),
        Err(RecvTimeoutError::Disconnected) => Err(Error::NodeDown(node)),
        Err(RecvTimeoutError::Timeout) => Err(Error::Timeout(format!(
            "no reply from {node} within {timeout:?}"
        ))),
    }
}

/// An in-flight commit/abort whose caller kept control: wait on it after
/// scripting faults (kills, restarts) that must happen while the
/// protocol runs.
pub struct CommitWait {
    rx: Receiver<CommitResult>,
    node: NodeId,
}

impl CommitWait {
    /// Blocks until the outcome arrives; [`Error::NodeDown`] if the root
    /// died with the request in flight, [`Error::Timeout`] after
    /// `timeout`.
    pub fn wait(self, timeout: Duration) -> Result<CommitResult> {
        recv_reply(&self.rx, self.node, timeout)
    }

    /// [`CommitWait::wait`] under the name TCP callers use.
    pub fn wait_with(self, timeout: Duration) -> Result<CommitResult> {
        self.wait(timeout)
    }

    /// Non-blocking completion check: `Ok(Some(..))` once the outcome
    /// has arrived, `Ok(None)` while still in flight, so one thread can
    /// reap many in-flight commits without blocking on any of them.
    pub fn poll(&self) -> Result<Option<CommitResult>> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(Error::NodeDown(self.node)),
        }
    }
}

/// A transaction in flight on a [`Cluster`].
pub struct TxnHandle<'a, N = ChannelNet> {
    pub(crate) cluster: &'a Cluster<N>,
    pub(crate) txn: TxnId,
    pub(crate) root: NodeId,
}

impl<N: Net> TxnHandle<'_, N> {
    /// The transaction id.
    pub fn id(&self) -> TxnId {
        self.txn
    }

    /// Sends work to a partner (or runs it locally when `to` is the
    /// root).
    pub fn work(&self, to: NodeId, ops: Vec<Op>) {
        self.cluster.send_app(
            self.root,
            AppCmd::Work {
                txn: self.txn,
                to,
                ops,
            },
        );
    }

    /// Requests commit and blocks for the outcome. Fails with
    /// [`Error::NodeDown`] / [`Error::Timeout`] instead of hanging when
    /// the root is dead or never answers.
    pub fn commit(self) -> Result<CommitResult> {
        let timeout = self.cluster.reply_timeout;
        self.commit_async().wait(timeout)
    }

    /// Requests commit and returns immediately with a [`CommitWait`],
    /// releasing the cluster borrow so the caller can kill and restart
    /// nodes while the protocol runs.
    pub fn commit_async(self) -> CommitWait {
        let (reply, rx) = bounded(1);
        let txn = self.txn;
        self.cluster
            .send_app(self.root, AppCmd::Commit { txn, reply });
        CommitWait {
            rx,
            node: self.root,
        }
    }

    /// Requests rollback and blocks for the confirmation.
    pub fn abort(self) -> Result<CommitResult> {
        let (reply, rx) = bounded(1);
        let txn = self.txn;
        self.cluster
            .send_app(self.root, AppCmd::Abort { txn, reply });
        let wait = CommitWait {
            rx,
            node: self.root,
        };
        wait.wait(self.cluster.reply_timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::{Outcome, ProtocolKind};

    fn cluster(n: usize, protocol: ProtocolKind) -> LiveCluster {
        LiveCluster::start(vec![LiveNodeConfig::new(protocol); n])
    }

    #[test]
    fn distributed_commit_makes_values_visible() {
        let c = cluster(3, ProtocolKind::PresumedAbort);
        let t = c.begin(NodeId(0));
        t.work(NodeId(0), vec![Op::put("root-key", "r")]);
        t.work(NodeId(1), vec![Op::put("a", "1")]);
        t.work(NodeId(2), vec![Op::put("b", "2")]);
        let result = t.commit().expect("root alive");
        assert_eq!(result.outcome, Outcome::Commit);
        assert!(result.report.is_clean());
        assert_eq!(c.read(NodeId(0), "root-key"), Some(b"r".to_vec()));
        assert_eq!(c.read(NodeId(1), "a"), Some(b"1".to_vec()));
        assert_eq!(c.read(NodeId(2), "b"), Some(b"2".to_vec()));
        for s in c.shutdown() {
            assert_eq!(s.active_txns, 0, "{:?}", s.node);
        }
    }

    #[test]
    fn rollback_discards_everywhere() {
        let c = cluster(2, ProtocolKind::PresumedNothing);
        let t = c.begin(NodeId(0));
        t.work(NodeId(0), vec![Op::put("x", "1")]);
        t.work(NodeId(1), vec![Op::put("y", "1")]);
        let result = t.abort().expect("root alive");
        assert_eq!(result.outcome, Outcome::Abort);
        assert_eq!(c.read(NodeId(0), "x"), None);
        assert_eq!(c.read(NodeId(1), "y"), None);
        c.shutdown();
    }

    #[test]
    fn sequential_transactions_across_protocols() {
        for protocol in ProtocolKind::ALL {
            let c = cluster(2, protocol);
            for i in 0..5 {
                let t = c.begin(NodeId(0));
                t.work(NodeId(1), vec![Op::put("counter", &i.to_string())]);
                let r = t.commit().expect("root alive");
                assert_eq!(r.outcome, Outcome::Commit, "{protocol}");
            }
            assert_eq!(c.read(NodeId(1), "counter"), Some(b"4".to_vec()));
            c.shutdown();
        }
    }

    #[test]
    fn concurrent_roots_serialize_on_conflicts() {
        let c = Arc::new(cluster(3, ProtocolKind::PresumedAbort));
        let mut joins = Vec::new();
        for root in 0..2u32 {
            let c2 = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let t = c2.begin(NodeId(root));
                    t.work(NodeId(2), vec![Op::put("hot", &format!("{root}-{i}"))]);
                    let r = t.commit().expect("root alive");
                    assert_eq!(r.outcome, Outcome::Commit);
                }
            }));
        }
        for j in joins {
            j.join().expect("worker");
        }
        let final_value = c.read(NodeId(2), "hot").expect("written");
        assert!(final_value.ends_with(b"-9"));
        Arc::try_unwrap(c).ok().map(|c| c.shutdown());
    }

    #[test]
    fn finished_transactions_leave_no_timer_behind() {
        // Every commit arms (and, finishing, cancels) failure timers that
        // are seconds long. They must leave the lane's queue when they
        // are cancelled, not when they would have come due: a queue of
        // dead deadlines turns every idle wait into a poll once the node
        // is older than the timeout.
        let c = cluster(3, ProtocolKind::PresumedAbort);
        for i in 0..2_000 {
            let t = c.begin(NodeId(i % 2));
            t.work(NodeId(2), vec![Op::put("k", "v")]);
            assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        }
        assert!(c.quiesce(Duration::from_secs(10)));
        for s in c.shutdown() {
            assert_eq!(s.active_txns, 0, "{:?}", s.node);
            assert_eq!(s.pending_timers, 0, "{:?}", s.node);
        }
    }

    #[test]
    fn read_only_transaction_commits_without_logging() {
        let opts = tpc_common::OptimizationConfig::none().with_read_only(true);
        let c = LiveCluster::start(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts.clone()),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts),
        ]);
        // Seed data.
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put("k", "v")]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        let before = c.summary(NodeId(1)).unwrap().log;

        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::get("k")]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        let after = c.summary(NodeId(1)).unwrap().log;
        assert_eq!(
            before.writes, after.writes,
            "read-only participation must not log"
        );
        c.shutdown();
    }

    #[test]
    fn committing_at_a_killed_root_errors_instead_of_hanging() {
        let mut c =
            cluster(2, ProtocolKind::PresumedAbort).with_reply_timeout(Duration::from_secs(2));
        let victim = NodeId(0);
        let s = c.kill(victim).expect("first kill succeeds");
        assert!(s.protocol_state.crashed);
        assert!(!c.is_alive(victim));
        assert!(matches!(c.kill(victim), Err(Error::NodeDown(n)) if n == victim));

        let t = c.begin(victim);
        match t.commit() {
            Err(Error::Timeout(_)) | Err(Error::NodeDown(_)) => {}
            other => panic!("expected a typed submit failure, got {other:?}"),
        }
        // The surviving node still answers.
        assert!(c.summary(NodeId(1)).is_some());
        c.shutdown();
    }

    #[test]
    fn fault_injected_wire_still_commits_via_retries() {
        // Drop a third of the root's outbound frames: vote-collection and
        // ack-collection retries must still converge every transaction.
        let configs = vec![
            LiveNodeConfig::new(ProtocolKind::PresumedNothing).with_timeouts(
                tpc_core::Timeouts {
                    vote_collection: tpc_common::SimDuration::from_millis(50),
                    ack_collection: tpc_common::SimDuration::from_millis(50),
                    in_doubt_query: tpc_common::SimDuration::from_millis(80),
                },
            );
            2
        ];
        let faults = vec![Some(FaultPlan::clean(0xC0FFEE).with_drops(0.33)), None];
        let c = LiveCluster::start_with_faults(configs, &[], faults);
        for i in 0..5 {
            let key = format!("k{i}");
            let t = c.begin(NodeId(0));
            t.work(NodeId(1), vec![Op::put(&key, &i.to_string())]);
            // Outcome may be Commit or Abort (a dropped vote aborts the
            // txn), but it must never hang or violate atomicity.
            let r = t.commit().expect("typed result");
            if r.outcome == Outcome::Commit {
                // The decision frame itself may be dropped; the re-drive
                // must land it within the retry budget.
                assert_eq!(
                    c.read_eventually(NodeId(1), &key, Duration::from_secs(5)),
                    Some(i.to_string().into_bytes()),
                    "committed write must become visible at the subordinate"
                );
            }
        }
        assert!(
            c.fault_stats(NodeId(0)).expect("wire wrapped").lost() > 0,
            "the fault plan should actually have fired"
        );
        c.shutdown();
    }
}
