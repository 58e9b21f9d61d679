//! TCP transport: the same node workers over loopback sockets.
//!
//! Frame format on the wire: `u32 len (LE) | u32 sender (LE) | bundle
//! bytes`. One outbound connection per (src, dst) pair; one acceptor
//! thread per node. Frame boundaries are carried by the length prefix,
//! never by write or packet boundaries.
//!
//! **The lane does its own socket I/O.** On the commit path no other
//! thread touches a frame:
//!
//! * *Send.* [`TcpTransport::send`] writes each frame (`len | sender |
//!   payload`, one `writev`) straight to the peer's non-blocking socket
//!   under a per-peer lock. The first frame to a peer connects inline,
//!   with one attempt. `TCP_NODELAY` is on, so the frame leaves at once.
//! * *Receive.* [`TcpTransport::recv_timeout`] is the lane's one blocking
//!   point: one `ppoll(2)` over a wake-up socket and the node's inbound
//!   connections. A message on the node's channel (an application
//!   command, a failure notice) wakes the lane through the channel's
//!   waker, which writes to the wake-up socket. Bytes are reassembled
//!   per connection into pooled frame buffers.
//!
//! **The sender thread is the slow path.** A frame goes to a lazily
//! spawned per-peer sender thread only when frames are already queued
//! for that peer (a queued-frame count under the same lock keeps
//! per-peer FIFO across the two paths), the inline connect failed, or
//! the write returned `WouldBlock` or an error — then the frame, or its
//! unwritten tail, is queued. The sender thread owns everything that
//! waits: it coalesces queued runs into single writes (bounded by
//! [`MAX_COALESCE_BYTES`] / frames), waits for room in a full socket
//! buffer, and on a failed connect or write reconnects with capped
//! exponential backoff plus seeded jitter, bounded by
//! [`RetryPolicy::max_attempts`]; when retries are exhausted it drops
//! the run and reports [`Inbound::PartnerDown`] to its own node, so the
//! engine aborts or re-drives the affected transactions instead of
//! wedging. Connection and write failures never panic.
//!
//! **Bytes for a down node.** Inbound connections belong to the node's
//! inbound hub, not to the lane: a crashed worker's transport hands
//! them back, so peers keep writing into them while the node is down
//! (the listener stays bound, like a crashed process's port). At
//! restart the hub discards whatever they hold, one whole frame at a
//! time — a frame still arriving is dropped once complete — so the
//! stream framing stays intact and nothing sent to the dead incarnation
//! reaches the next one.
//!
//! **The network.** [`TcpNet`] binds the nodes' listeners and plugs this
//! transport into the one [`Cluster`]: [`TcpCluster`] is
//! `Cluster<TcpNet>`, one lane per node.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError, Waker};
use tpc_common::{BufferPool, NodeId, PooledBuf};

use crate::cluster::{Cluster, CommitWait, Net, TxnHandle};
use crate::node::{Inbound, LiveNodeConfig, Transport, TransportCounter, TransportHealth};

/// Cap on bytes the sender thread coalesces into one write (keeps a
/// slow peer from accumulating an unbounded batch in memory before the
/// first byte moves).
pub const MAX_COALESCE_BYTES: usize = 256 * 1024;

/// Cap on frames the sender thread coalesces into one write.
pub const MAX_COALESCE_FRAMES: u64 = 128;

/// `len | sender`.
const HEADER_BYTES: usize = 8;

/// A length header above this is not a frame: the connection is dropped.
const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Initial per-connection reassembly buffer (grows for a larger frame).
const READ_BUF_BYTES: usize = 64 * 1024;

/// Reconnect discipline for a [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Connection/write attempts per frame before giving the peer up.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter generator (so a scripted run reproduces).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempt` (1-based; attempt 0 is
    /// immediate): `min(base << (attempt-1), max)`, scaled by a jitter
    /// factor in `[0.5, 1.0]` drawn from `rng` so simultaneous retriers
    /// do not stampede in lockstep.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_delay);
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = 0.5 + ((*rng >> 11) as f64 / (1u64 << 53) as f64) / 2.0;
        exp.mul_f64(jitter)
    }
}

/// Outbound counters of one [`TcpTransport`]. `direct` against `queued`
/// says how often the lane's own write was enough; `queued / writes` is
/// the sender threads' coalescing.
#[derive(Debug, Default)]
pub struct TcpSendStats {
    /// Frames the lane wrote itself, whole, in one write.
    pub direct: AtomicU64,
    /// Frames (or unwritten frame tails) a sender thread wrote.
    pub queued: AtomicU64,
    /// Sender-thread writes — syscall batches, each covering ≥1 frame.
    pub writes: AtomicU64,
    /// Total bytes written on either path, including the 8-byte frame
    /// headers.
    pub bytes: AtomicU64,
    /// Frames dropped after retry exhaustion (peer unreachable).
    pub dropped: AtomicU64,
    /// Backoff sleeps taken by sender threads (one per failed
    /// connect/write attempt that was retried).
    pub retries: AtomicU64,
    /// Successful re-connects after a previously-established connection
    /// was lost.
    pub reconnects: AtomicU64,
    /// Frames handed to sender threads and not yet written or dropped —
    /// the outbound backlog gauge. Grows when a peer link (or the
    /// kernel) is slower than the protocol produces frames.
    pub backlog: AtomicU64,
}

/// Locks `m`, recovering the data if a holder panicked: the transport
/// keeps no invariant a panic could leave half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A frame on its way to a sender thread: the payload and how many
/// bytes of `len | sender | payload` the lane already wrote to the
/// current connection (non-zero only for a frame cut short by a full
/// socket buffer, which is then the first frame its sender thread sees).
struct Outgoing {
    payload: PooledBuf,
    sent: usize,
}

/// One peer link, shared by the lane (fast path) and the peer's sender
/// thread (slow path).
#[derive(Default)]
struct PeerLink {
    state: Mutex<LinkState>,
}

#[derive(Default)]
struct LinkState {
    conn: Option<Arc<TcpStream>>,
    /// Frames handed to the sender thread and not yet written or
    /// dropped. While non-zero the lane queues behind them, and only the
    /// sender thread writes or replaces `conn`.
    queued: u64,
    /// The lane made its one inline connect attempt.
    tried: bool,
    /// A connection was established at some point: a later successful
    /// connect counts as a reconnect.
    connected_once: bool,
    /// The sender thread's queue, spawned on first use; closed when the
    /// transport drops.
    tx: Option<Sender<Outgoing>>,
}

/// A node's inbound side, owned by the node rather than by a lane
/// incarnation. The acceptor hands it accepted streams; the lane's
/// [`TcpTransport`] adopts them; when the worker dies, its transport
/// hands the connections back with their partly received frames, so
/// they survive the crash, and [`Cluster::restart`] discards what
/// they hold.
struct InboundHub {
    /// The node's frame-buffer pool: its transport encodes into it,
    /// sender threads recycle into it, inbound frames are assembled
    /// from it. A restart keeps it, so warmed capacity survives.
    pool: BufferPool,
    /// Streams accepted and not yet adopted.
    accepted: Mutex<Vec<TcpStream>>,
    /// Connections while no transport holds them (the node is down).
    idle: Mutex<Vec<InboundConn>>,
    /// Readable whenever a parked lane should look at its channel (or
    /// at a newly accepted stream).
    wake_rx: UnixStream,
    wake_tx: UnixStream,
}

impl InboundHub {
    /// A hub with an empty pool and no connections.
    fn new() -> io::Result<Arc<Self>> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        Ok(Arc::new(InboundHub {
            pool: BufferPool::new(),
            accepted: Mutex::default(),
            idle: Mutex::default(),
            wake_rx,
            wake_tx,
        }))
    }

    /// Interrupts a lane parked in `recv_timeout`. A full wake-up socket
    /// already holds a wake-up, so a failed write loses nothing.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// The waker to install on the node's inbound channel
    /// ([`Receiver::set_waker`]).
    fn waker(self: &Arc<Self>) -> Waker {
        let hub = Arc::clone(self);
        Arc::new(move || hub.wake())
    }

    /// Serves `listener`, handing each accepted stream to the hub, until
    /// the hub is gone. Holding it weakly lets the node's connections
    /// close with its cluster.
    fn accept_loop(hub: Weak<InboundHub>, listener: TcpListener) {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let Some(hub) = hub.upgrade() else { break };
            // A stream that cannot go non-blocking is dropped: its peer
            // reconnects and retries.
            if stream.set_nonblocking(true).is_ok() {
                lock(&hub.accepted).push(stream);
                hub.wake();
            }
        }
    }

    fn adopt_accepted(&self, into: &mut Vec<InboundConn>) {
        into.extend(lock(&self.accepted).drain(..).map(InboundConn::new));
    }

    /// At restart: drops every whole frame the node's connections hold,
    /// and marks a frame still arriving to be dropped once complete.
    fn discard_pending(&self) {
        let mut idle = lock(&self.idle);
        self.adopt_accepted(&mut idle);
        idle.retain_mut(|c| c.discard().is_ok());
    }
}

/// One accepted connection and its reassembly state.
struct InboundConn {
    stream: TcpStream,
    /// `buf[start..end]` holds bytes read but not yet parsed: at most a
    /// partial frame once parsing stops.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The next complete frame began before a restart: drop it.
    drop_next: bool,
}

impl InboundConn {
    fn new(stream: TcpStream) -> Self {
        InboundConn {
            stream,
            buf: vec![0; READ_BUF_BYTES],
            start: 0,
            end: 0,
            drop_next: false,
        }
    }

    /// One non-blocking read into the buffer; returns the bytes read (0
    /// when nothing is waiting). End of stream is an error: the caller
    /// drops the connection.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                // One frame fills the buffer (its header passed the
                // MAX_FRAME_BYTES check): grow.
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        loop {
            return match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.end += n;
                    Ok(n)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(0),
                Err(e) => Err(e),
            };
        }
    }

    /// Hands every complete frame in the buffer to `deliver`, in order.
    /// A length header above [`MAX_FRAME_BYTES`] is an error.
    fn parse(&mut self, mut deliver: impl FnMut(NodeId, &[u8])) -> io::Result<()> {
        loop {
            let avail = &self.buf[self.start..self.end];
            if avail.len() < HEADER_BYTES {
                return Ok(());
            }
            let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(io::ErrorKind::InvalidData.into());
            }
            let Some(body) = avail.get(HEADER_BYTES..HEADER_BYTES + len) else {
                return Ok(());
            };
            if !std::mem::take(&mut self.drop_next) {
                let from = NodeId(u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]));
                deliver(from, body);
            }
            self.start += HEADER_BYTES + len;
        }
    }

    /// One read, then every complete frame into `out` as a pooled
    /// buffer. Reading once per readiness report is enough: the poll is
    /// level-triggered, so bytes left behind wake the next one at once.
    fn read_frames(&mut self, pool: &BufferPool, out: &mut VecDeque<Inbound>) -> io::Result<()> {
        self.fill()?;
        self.parse(|from, body| {
            let mut bytes = pool.checkout();
            bytes.extend_from_slice(body);
            out.push_back(Inbound::Frame { from, bytes });
        })
    }

    /// Reads everything waiting and drops it frame by frame (see
    /// [`InboundHub::discard_pending`]).
    fn discard(&mut self) -> io::Result<()> {
        loop {
            let n = self.fill()?;
            self.parse(|_, _| {})?;
            if n == 0 {
                break;
            }
        }
        self.drop_next = self.start != self.end;
        Ok(())
    }
}

/// The TCP transport of one node. The lane writes and reads its sockets
/// itself; per-peer sender threads take only what the lane could not
/// write at once (see the module docs).
pub struct TcpTransport {
    me: NodeId,
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    /// The owning node's inbound channel, for failure notifications.
    self_tx: Sender<Inbound>,
    /// Per-peer links, indexed by node, created on the first frame.
    links: Vec<Option<Arc<PeerLink>>>,
    stats: Arc<TcpSendStats>,
    /// The node's pool (from its hub): outbound encodes, sender batches
    /// and inbound frames all recycle through it.
    pool: BufferPool,
    hub: Arc<InboundHub>,
    /// The node's inbound connections while this transport runs.
    conns: Vec<InboundConn>,
    /// Messages received and not yet returned by `recv_timeout`: peer
    /// frames, and a failure notice held behind them.
    ready: VecDeque<Inbound>,
}

impl TcpTransport {
    /// The transport of node `me`, whose peers listen at `addrs`; it
    /// reports failures to `self_tx` and takes over the node's inbound
    /// connections from `hub` (handing them back when dropped).
    fn new(
        me: NodeId,
        addrs: Vec<SocketAddr>,
        policy: RetryPolicy,
        self_tx: Sender<Inbound>,
        hub: Arc<InboundHub>,
    ) -> Self {
        let conns = std::mem::take(&mut *lock(&hub.idle));
        TcpTransport {
            me,
            links: (0..addrs.len()).map(|_| None).collect(),
            addrs,
            policy,
            self_tx,
            stats: Arc::new(TcpSendStats::default()),
            pool: hub.pool.clone(),
            hub,
            conns,
            ready: VecDeque::new(),
        }
    }

    /// Shared outbound counters of this transport.
    pub fn stats(&self) -> Arc<TcpSendStats> {
        Arc::clone(&self.stats)
    }

    /// Hands `out` to the link's sender thread (spawning it on first
    /// use), behind everything already queued there.
    fn enqueue(&self, to: NodeId, link: &Arc<PeerLink>, st: &mut LinkState, out: Outgoing) {
        if st.tx.is_none() {
            let (tx, rx) = unbounded();
            let sender = PeerSender {
                me: self.me,
                to,
                addr: self.addrs[to.index()],
                policy: self.policy.clone(),
                link: Arc::clone(link),
                self_tx: self.self_tx.clone(),
                stats: Arc::clone(&self.stats),
                pool: self.pool.clone(),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("tpc-tcp-send-{}-{}", self.me.0, to.0))
                .spawn(move || sender.run(rx));
            if spawned.is_err() {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                if out.sent > 0 {
                    // The peer holds a torn frame: only a fresh
                    // connection restores the framing.
                    st.conn = None;
                }
                return;
            }
            st.tx = Some(tx);
        }
        if st.tx.as_ref().is_some_and(|tx| tx.send(out).is_ok()) {
            st.queued += 1;
            self.stats.backlog.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads whatever the node's connections (and wake-up socket) have,
    /// waiting at most `timeout` for something to arrive. Peer frames
    /// land in `ready`, oldest connection first: a restarted peer's new
    /// connection is younger than its dead incarnation's, so what the
    /// dead one wrote (its last vote) is delivered before what the new
    /// one says (its recovery query). A closed, failed or garbled
    /// connection is dropped.
    fn poll_sockets(&mut self, timeout: Duration) {
        self.hub.adopt_accepted(&mut self.conns);
        let polled = {
            let mut fds = Vec::with_capacity(1 + self.conns.len());
            fds.push(self.hub.wake_rx.as_fd());
            fds.extend(self.conns.iter().map(|c| c.stream.as_fd()));
            polling::poll_readable(&fds, timeout)
        };
        let Ok(readiness) = polled else {
            // Cannot happen with valid descriptors; never spin on it.
            std::thread::sleep(timeout.min(Duration::from_millis(1)));
            return;
        };
        if readiness.is_ready(0) {
            let mut sink = [0u8; 64];
            while matches!((&self.hub.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        let (pool, ready) = (&self.pool, &mut self.ready);
        let mut fd = 0;
        self.conns.retain_mut(|c| {
            fd += 1;
            !readiness.is_ready(fd) || c.read_frames(pool, ready).is_ok()
        });
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Closing the queues lets each sender thread write what is
        // already queued and exit.
        for link in self.links.iter().flatten() {
            lock(&link.state).tx = None;
        }
        // The connections belong to the node: they outlive this lane.
        lock(&self.hub.idle).append(&mut self.conns);
    }
}

/// The frame header: `len | sender`, little-endian.
fn frame_header(me: NodeId, len: usize) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..4].copy_from_slice(&(len as u32).to_le_bytes());
    h[4..].copy_from_slice(&me.0.to_le_bytes());
    h
}

/// Connects to a peer: `TCP_NODELAY`, non-blocking (the lane must never
/// wait on a write; the sender thread waits with `poll`).
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

impl Transport for TcpTransport {
    fn send(&mut self, to: NodeId, payload: PooledBuf) {
        let Some(addr) = self.addrs.get(to.index()).copied() else {
            return;
        };
        let link = Arc::clone(self.links[to.index()].get_or_insert_with(Arc::default));
        let mut st = lock(&link.state);
        let mut sent = 0;
        if st.queued == 0 {
            if st.conn.is_none() && !std::mem::replace(&mut st.tried, true) {
                st.conn = connect(addr).ok().map(Arc::new);
                st.connected_once |= st.conn.is_some();
            }
            if let Some(conn) = st.conn.as_deref() {
                let header = frame_header(self.me, payload.len());
                let frame = [IoSlice::new(&header), IoSlice::new(&payload)];
                let total = HEADER_BYTES + payload.len();
                let wrote = loop {
                    match (&*conn).write_vectored(&frame) {
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        r => break r,
                    }
                };
                match wrote {
                    Ok(n) => {
                        self.stats.bytes.fetch_add(n as u64, Ordering::Relaxed);
                        if n == total {
                            self.stats.direct.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        sent = n; // the socket buffer filled mid-frame
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => st.conn = None,
                }
            }
        }
        self.enqueue(to, &link, &mut st, Outgoing { payload, sent });
    }

    fn buffer_pool(&self) -> Option<BufferPool> {
        Some(self.pool.clone())
    }

    fn health(&self) -> TransportHealth {
        TransportHealth {
            send_retries: self.stats.retries.load(Ordering::Relaxed),
            reconnects: self.stats.reconnects.load(Ordering::Relaxed),
            dropped_frames: self.stats.dropped.load(Ordering::Relaxed),
        }
    }

    fn counters(&self) -> Vec<TransportCounter> {
        let frames = "Frames sent over TCP, by who wrote them: the lane itself (direct) \
                      or a per-peer sender thread (queued)";
        vec![
            (
                "tpc_tcp_send_retries_total",
                "Backoff sleeps taken by TCP sender threads after a failed connect or write.",
                "",
                self.stats.retries.load(Ordering::Relaxed),
            ),
            (
                "tpc_tcp_reconnects_total",
                "Successful TCP re-connects after a previously-established connection was lost.",
                "",
                self.stats.reconnects.load(Ordering::Relaxed),
            ),
            (
                "tpc_tcp_frames_dropped_total",
                "Frames dropped after TCP retry exhaustion (peer unreachable).",
                "",
                self.stats.dropped.load(Ordering::Relaxed),
            ),
            (
                "tpc_tcp_frames_total",
                frames,
                "path=\"direct\"",
                self.stats.direct.load(Ordering::Relaxed),
            ),
            (
                "tpc_tcp_frames_total",
                frames,
                "path=\"queued\"",
                self.stats.queued.load(Ordering::Relaxed),
            ),
        ]
    }

    fn backlog(&self) -> u64 {
        self.stats.backlog.load(Ordering::Relaxed)
    }

    /// Ready peer frames first, then the node's channel; with both
    /// empty, park the channel and `ppoll` the wake-up socket plus every
    /// connection. A failure notice from the channel is held behind any
    /// frame already on the wire, so a peer's last words (a vote written
    /// just before it died) are read before its `PartnerDown`.
    fn recv_timeout(
        &mut self,
        rx: &Receiver<Inbound>,
        timeout: Duration,
    ) -> std::result::Result<Inbound, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            if let Some(m) = self.ready.pop_front() {
                return Ok(m);
            }
            match rx.try_recv() {
                Ok(m) => {
                    if matches!(m, Inbound::PartnerDown { .. }) {
                        self.poll_sockets(Duration::ZERO);
                        if !self.ready.is_empty() {
                            self.ready.push_back(m);
                            continue;
                        }
                    }
                    return Ok(m);
                }
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let left = deadline.map_or(timeout, |d| d.saturating_duration_since(Instant::now()));
            if !rx.park() {
                continue; // a message arrived (or every sender left)
            }
            self.poll_sockets(left);
            rx.unpark();
            let expired = left.is_zero() || deadline.is_some_and(|d| Instant::now() >= d);
            if expired && self.ready.is_empty() && rx.is_empty() {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    fn pending_frames(&self) -> usize {
        self.ready.len()
    }
}

/// Appends one wire frame (`u32 len | u32 sender | payload`) to the
/// coalescing batch.
fn append_frame(batch: &mut Vec<u8>, me: NodeId, payload: &[u8]) {
    batch.extend_from_slice(&frame_header(me, payload.len()));
    batch.extend_from_slice(payload);
}

/// Writes all of `buf` to the non-blocking `conn`, waiting for room
/// whenever the kernel's send buffer is full.
fn write_all_waiting(conn: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    let mut w = conn;
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                polling::poll_writable(conn.as_fd(), Duration::from_secs(1))?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One peer's sender thread: the slow path behind [`TcpTransport::send`].
struct PeerSender {
    me: NodeId,
    to: NodeId,
    addr: SocketAddr,
    policy: RetryPolicy,
    link: Arc<PeerLink>,
    self_tx: Sender<Inbound>,
    stats: Arc<TcpSendStats>,
    pool: BufferPool,
}

impl PeerSender {
    /// Blocks for a frame, drains the run queued behind it (bounded),
    /// writes the whole run with one write, reconnecting with backoff on
    /// failure. Exits when the transport closes the queue — after
    /// writing what was already queued.
    ///
    /// The coalescing batch is itself a pooled buffer, recycled when the
    /// batch goes out of scope, so the steady state allocates nothing.
    fn run(self, rx: Receiver<Outgoing>) {
        let mut rng = self
            .policy
            .seed
            .wrapping_add(u64::from(self.me.0) << 8)
            .wrapping_add(u64::from(self.to.0))
            | 1;
        // Set while the peer is reported unreachable; cleared by the next
        // successful connect so a recovered-then-failed peer is
        // re-reported.
        let mut reported_down = false;
        'frames: loop {
            let Ok(first) = rx.recv() else { return };
            let mut batch = self.pool.checkout();
            // Bytes of the batch already on the current connection: the
            // lane's partial write of the first frame.
            let mut skip = first.sent;
            append_frame(&mut batch, self.me, &first.payload);
            drop(first); // payload recycles while we keep draining
            let mut frames = 1u64;
            while batch.len() < MAX_COALESCE_BYTES && frames < MAX_COALESCE_FRAMES {
                match rx.try_recv() {
                    Ok(f) => {
                        append_frame(&mut batch, self.me, &f.payload);
                        frames += 1;
                    }
                    Err(_) => break,
                }
            }
            let mut attempt = 0;
            loop {
                let conn = lock(&self.link.state).conn.clone();
                let conn = match conn {
                    Some(c) => Some(c),
                    None => {
                        // A fresh connection: the whole batch goes again.
                        skip = 0;
                        self.reconnect()
                    }
                };
                if let Some(conn) = conn {
                    reported_down = false;
                    if write_all_waiting(&conn, &batch[skip..]).is_ok() {
                        self.stats.queued.fetch_add(frames, Ordering::Relaxed);
                        self.stats.writes.fetch_add(1, Ordering::Relaxed);
                        let bytes = (batch.len() - skip) as u64;
                        self.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
                        self.finish(frames);
                        continue 'frames;
                    }
                    lock(&self.link.state).conn = None;
                }
                attempt += 1;
                if attempt >= self.policy.max_attempts {
                    // Retries exhausted: drop the batch and tell our own
                    // engine so it can abort unvoted work and lean on
                    // timers for the rest, instead of silently losing
                    // frames.
                    self.stats.dropped.fetch_add(frames, Ordering::Relaxed);
                    self.finish(frames);
                    if !reported_down {
                        reported_down = true;
                        let _ = self.self_tx.send(Inbound::PartnerDown { peer: self.to });
                    }
                    continue 'frames;
                }
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.policy.backoff(attempt, &mut rng));
            }
        }
    }

    /// One connect attempt; a success becomes the link's connection.
    fn reconnect(&self) -> Option<Arc<TcpStream>> {
        let conn = Arc::new(connect(self.addr).ok()?);
        let mut st = lock(&self.link.state);
        if st.connected_once {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        st.connected_once = true;
        st.conn = Some(Arc::clone(&conn));
        Some(conn)
    }

    /// `frames` left the queue (written or dropped): once none remain,
    /// the lane writes directly again.
    fn finish(&self, frames: u64) {
        lock(&self.link.state).queued -= frames;
        self.stats.backlog.fetch_sub(frames, Ordering::Relaxed);
    }
}

/// The loopback TCP network: one listener per node, bound at start, and
/// the node's inbound hub, which its acceptor thread feeds and which
/// outlives a crashed worker.
pub struct TcpNet {
    /// The socket addresses the nodes listen on.
    addrs: Vec<SocketAddr>,
    hubs: Vec<Arc<InboundHub>>,
}

impl TcpNet {
    /// Binds a loopback listener for each of `n` nodes and starts its
    /// acceptor thread.
    fn bind(n: usize) -> io::Result<Self> {
        let mut net = TcpNet {
            addrs: Vec::with_capacity(n),
            hubs: Vec::with_capacity(n),
        };
        for i in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            net.addrs.push(listener.local_addr()?);
            let hub = InboundHub::new()?;
            let acceptor = Arc::downgrade(&hub);
            std::thread::Builder::new()
                .name(format!("tpc-acceptor-{i}"))
                .spawn(move || InboundHub::accept_loop(acceptor, listener))?;
            net.hubs.push(hub);
        }
        Ok(net)
    }
}

impl Net for TcpNet {
    type Transport = TcpTransport;

    /// Failures are reported to the node's own inbox.
    fn transport(&self, node: NodeId, inboxes: &[Vec<Sender<Inbound>>]) -> TcpTransport {
        TcpTransport::new(
            node,
            self.addrs.clone(),
            RetryPolicy::default(),
            inboxes[node.index()][0].clone(),
            Arc::clone(&self.hubs[node.index()]),
        )
    }

    /// A channel message wakes the lane out of its socket poll.
    fn attach(&self, node: NodeId, inbox: &Receiver<Inbound>) {
        inbox.set_waker(self.hubs[node.index()].waker());
    }

    fn discard_pending(&self, node: NodeId) {
        self.hubs[node.index()].discard_pending();
    }
}

/// A cluster whose nodes talk TCP over loopback.
pub type TcpCluster = Cluster<TcpNet>;

/// A transaction in flight on a [`TcpCluster`].
pub type TcpTxnHandle<'a> = TxnHandle<'a, TcpNet>;

/// An in-flight commit on a [`TcpCluster`].
pub type TcpCommitWait = CommitWait;

impl Cluster<TcpNet> {
    /// Binds a loopback listener per node and starts one worker each,
    /// with no standing partners and a clean wire (see
    /// [`crate::LiveCluster::start`]). A node runs one lane over TCP: a
    /// config asking for more fails with [`io::ErrorKind::InvalidInput`]
    /// (lanes over TCP are ROADMAP item 5(b)).
    pub fn start(configs: Vec<LiveNodeConfig>) -> io::Result<Self> {
        if let Some(cfg) = configs.iter().find(|c| c.lanes > 1) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "lanes = {}: a TCP node runs one lane (lanes over TCP are ROADMAP item 5(b))",
                    cfg.lanes
                ),
            ));
        }
        let n = configs.len();
        let net = TcpNet::bind(n)?;
        Ok(Self::launch(net, configs, &[], vec![None; n]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppCmd, NodeSummary};
    use proptest::prelude::*;
    use tpc_common::{Error, Op, Outcome, ProtocolKind};

    #[test]
    fn commit_over_real_sockets() {
        let c = TcpCluster::start(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
        ])
        .expect("bind loopback");
        let t = c.begin(NodeId(0));
        t.work(NodeId(1), vec![Op::put("tcp-a", "1")]);
        t.work(NodeId(2), vec![Op::put("tcp-b", "2")]);
        let r = t.commit().expect("root alive");
        assert_eq!(r.outcome, Outcome::Commit);
        let wait = Duration::from_secs(5);
        assert_eq!(
            c.read_eventually(NodeId(1), "tcp-a", wait),
            Some(b"1".to_vec())
        );
        assert_eq!(
            c.read_eventually(NodeId(2), "tcp-b", wait),
            Some(b"2".to_vec())
        );
        c.shutdown();
    }

    #[test]
    fn several_transactions_over_tcp() {
        let c = TcpCluster::start(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedNothing),
            LiveNodeConfig::new(ProtocolKind::PresumedNothing),
        ])
        .expect("bind loopback");
        for i in 0..5 {
            let t = c.begin(NodeId(0));
            t.work(NodeId(1), vec![Op::put("seq", &i.to_string())]);
            assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        }
        // "seq" is rewritten by each txn: the root's outcome reply races
        // the decision frame to the subordinate, so wait on the cluster
        // progress signal (no sleep-polling) until the last write lands.
        let deadline = Duration::from_secs(5);
        let v = c
            .signal
            .wait_for(deadline, || c.read(NodeId(1), "seq").filter(|v| v == b"4"));
        assert_eq!(v, Some(b"4".to_vec()), "expected seq=4 at the subordinate");
        c.shutdown();
    }

    /// The value of transport counter `name{labels}` across `summaries`.
    fn counter(summaries: &[NodeSummary], name: &str, labels: &str) -> u64 {
        summaries
            .iter()
            .flat_map(|s| &s.transport)
            .filter(|(n, _, l, _)| *n == name && *l == labels)
            .map(|c| c.3)
            .sum()
    }

    #[test]
    fn fault_free_cluster_writes_every_frame_from_the_lane() {
        let c = TcpCluster::start(vec![
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
            LiveNodeConfig::new(ProtocolKind::PresumedAbort),
        ])
        .expect("bind loopback");
        for i in 0..20 {
            let t = c.begin(NodeId(i % 2));
            t.work(NodeId(2), vec![Op::put(&format!("k{i}"), "v")]);
            assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        }
        assert!(c.quiesce(Duration::from_secs(5)));
        let text = c.prometheus_dump();
        for path in ["direct", "queued"] {
            let series = format!("tpc_tcp_frames_total{{node=\"2\",path=\"{path}\"}} ");
            assert!(text.contains(&series), "missing {series} in {text}");
        }
        let summaries = c.shutdown();
        let direct = counter(&summaries, "tpc_tcp_frames_total", "path=\"direct\"");
        let queued = counter(&summaries, "tpc_tcp_frames_total", "path=\"queued\"");
        let flows: u64 = summaries.iter().map(|s| s.driver.flows_sent).sum();
        assert_eq!(queued, 0, "no frame needed a sender thread");
        assert_eq!(direct, flows, "one frame per flow, all written by a lane");
        assert!(summaries
            .iter()
            .all(|s| s.net == TransportHealth::default()));
    }

    #[test]
    fn frame_sent_to_a_down_node_is_not_delivered_to_its_next_incarnation() {
        let dir = std::env::temp_dir().join(format!("tpc-tcp-down-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_file_log(&dir);
        let mut c = TcpCluster::start(vec![cfg(), cfg()]).expect("bind loopback");
        let (root, sub) = (NodeId(0), NodeId(1));
        // Warm the root → sub connection, so it is adopted by sub's hub
        // before the crash (not still in the listener's backlog).
        let t = c.begin(root);
        t.work(sub, vec![Op::put("warm", "1")]);
        assert_eq!(t.commit().expect("root alive").outcome, Outcome::Commit);
        assert!(c.quiesce(Duration::from_secs(5)));

        c.kill(sub).expect("sub alive");
        let txn = c.begin(root).id();
        let ops = vec![Op::put("ghost", "1")];
        c.send_app(root, AppCmd::Work { txn, to: sub, ops });
        // Channel order: once the root answers this, its lane has
        // written the Work frame into sub's socket.
        c.summary(root).expect("root alive");
        c.restart(sub).expect("restart");
        let t = TcpTxnHandle {
            cluster: &c,
            txn,
            root,
        };
        let r = t.commit().expect("root alive");
        assert_eq!(r.outcome, Outcome::Abort, "the work died with the process");
        assert!(c.quiesce(Duration::from_secs(5)));
        assert_eq!(c.read(sub, "ghost"), None);
        assert_eq!(c.read(sub, "warm"), Some(b"1".to_vec()));
        c.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_waves_commit_on_a_segmented_log_with_group_commit() {
        // Two waves of 16 `commit_async` calls over sockets, rooted at
        // nodes 0 and 1 in turn and writing at node 2, whose segmented
        // log batches the forces that overlap. The first wave is reaped
        // by polling, the second by blocking waits.
        const WAVES: usize = 2;
        const IN_FLIGHT: usize = 16;
        let dir = std::env::temp_dir().join(format!("tpc-tcp-waves-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gc = tpc_common::config::GroupCommitConfig {
            batch_size: 8,
            max_wait: tpc_common::SimDuration::from_millis(1),
            adaptive: false,
        };
        let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort)
            .with_segmented_log(&dir)
            .with_group_commit(Some(gc));
        let c = TcpCluster::start(vec![cfg; 3]).expect("bind loopback");
        let mut outcomes = Vec::new();
        for wave in 0..WAVES {
            let mut waits: Vec<_> = (0..IN_FLIGHT)
                .map(|i| {
                    let root = NodeId((i % 2) as u32);
                    let t = c.begin(root);
                    let txn = t.id();
                    t.work(NodeId(2), vec![Op::put(&format!("w{wave}-{i}"), "v")]);
                    (txn, root, t.commit_async())
                })
                .collect();
            if wave == 0 {
                let reaped = c.signal.wait_for(Duration::from_secs(20), || {
                    waits.retain(|(txn, root, wait)| match wait.poll().expect("root alive") {
                        Some(r) => {
                            assert_eq!(r.outcome, Outcome::Commit, "wave {wave}");
                            outcomes.push(crate::verify::outcome_record(*txn, *root, &r));
                            false
                        }
                        None => true,
                    });
                    waits.is_empty().then_some(())
                });
                assert!(reaped.is_some(), "{} commits still in flight", waits.len());
                continue;
            }
            for (txn, root, wait) in waits {
                let r = wait.wait_with(Duration::from_secs(20)).expect("root alive");
                assert_eq!(r.outcome, Outcome::Commit, "wave {wave}");
                outcomes.push(crate::verify::outcome_record(txn, root, &r));
            }
        }
        assert!(c.quiesce(Duration::from_secs(20)), "must quiesce");
        let summaries = c.shutdown();
        let group = summaries[2].group;
        assert!(group.requests >= outcomes.len() as u64, "{group:?}");
        let (violations, unresolved) = crate::verify::check(&summaries, &outcomes);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(unresolved.is_empty(), "{unresolved:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requests_to_a_killed_node_fail_fast() {
        // The reply timeout stays at its 30 s default: a request that
        // reached the dead node's inbox would wait it out.
        let mut c = TcpCluster::start(vec![LiveNodeConfig::new(ProtocolKind::PresumedAbort); 2])
            .expect("bind loopback");
        let victim = NodeId(1);
        c.kill(victim).expect("victim alive");
        let started = Instant::now();
        assert!(matches!(c.try_read(victim, "k"), Err(Error::NodeDown(n)) if n == victim));
        assert!(matches!(c.try_summary(victim), Err(Error::NodeDown(n)) if n == victim));
        assert_eq!(c.read(victim, "k"), None);
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(!c.is_alive(victim));
        c.shutdown();
    }

    #[test]
    fn more_than_one_lane_is_rejected() {
        let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_lanes(4);
        match TcpCluster::start(vec![cfg; 2]) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}"),
            Ok(c) => {
                c.shutdown();
                panic!("a four-lane TCP cluster started");
            }
        }
    }

    #[test]
    fn backoff_grows_and_caps_with_jitter_bounds() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(40),
            seed: 7,
        };
        let mut rng = 99u64;
        let mut last = Duration::ZERO;
        for attempt in 1..6 {
            let d = policy.backoff(attempt, &mut rng);
            let raw = policy
                .base_delay
                .saturating_mul(1 << (attempt - 1))
                .min(policy.max_delay);
            assert!(
                d >= raw.mul_f64(0.5) && d <= raw,
                "jitter within [0.5, 1.0]"
            );
            assert!(d >= last.mul_f64(0.25), "roughly monotone under jitter");
            last = d;
        }
        // Capped: attempt 5 raw backoff is 160ms, clamped to 40ms.
        let d = policy.backoff(5, &mut rng);
        assert!(d <= Duration::from_millis(40));
    }

    /// A sending transport for node `me` whose peers listen at `addrs`.
    fn sender(me: u32, addrs: Vec<SocketAddr>) -> TcpTransport {
        let (self_tx, _self_rx) = unbounded();
        let hub = InboundHub::new().expect("socketpair");
        TcpTransport::new(NodeId(me), addrs, RetryPolicy::default(), self_tx, hub)
    }

    #[test]
    fn unreachable_peer_reports_partner_down_after_bounded_retries() {
        // A listener we bind then drop: connecting to it fails fast.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (self_tx, self_rx) = unbounded();
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            seed: 11,
        };
        let mut t = TcpTransport::new(
            NodeId(0),
            vec![live.local_addr().unwrap(), dead_addr],
            policy,
            self_tx,
            InboundHub::new().unwrap(),
        );
        let stats = t.stats();
        // The inline connect fails, so the frame goes to the sender
        // thread; its report arrives once the retries are exhausted.
        t.send(NodeId(1), vec![1, 2, 3].into());
        match self_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Inbound::PartnerDown { peer }) => assert_eq!(peer, NodeId(1)),
            other => panic!(
                "expected PartnerDown after retry exhaustion, got ok={:?}",
                other.is_ok()
            ),
        }
        assert!(stats.dropped.load(Ordering::Relaxed) >= 1);
        assert!(t.health().dropped_frames >= 1, "health mirrors the drop");
        // Reported once, not per frame.
        t.send(NodeId(1), vec![4, 5, 6].into());
        assert!(
            self_rx.recv_timeout(Duration::from_millis(300)).is_err(),
            "no duplicate report"
        );
        assert_eq!(stats.direct.load(Ordering::Relaxed), 0);
    }

    /// A node's receiving side, driven by the test thread the way a lane
    /// drives it: an inbound hub behind a listener, a transport over it
    /// and the node's channel.
    struct Inbox {
        t: TcpTransport,
        tx: Sender<Inbound>,
        rx: Receiver<Inbound>,
        addr: SocketAddr,
    }

    fn inbox() -> Inbox {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hub = InboundHub::new().unwrap();
        let acceptor = Arc::downgrade(&hub);
        std::thread::spawn(move || InboundHub::accept_loop(acceptor, listener));
        let (tx, rx) = unbounded();
        rx.set_waker(hub.waker());
        let t = TcpTransport::new(
            NodeId(99),
            Vec::new(),
            RetryPolicy::default(),
            tx.clone(),
            hub,
        );
        Inbox { t, tx, rx, addr }
    }

    impl Inbox {
        /// The next message, or `None` after `wait`.
        fn recv(&mut self, wait: Duration) -> Option<(NodeId, Vec<u8>)> {
            match self.t.recv_timeout(&self.rx, wait) {
                Ok(Inbound::Frame { from, bytes }) => Some((from, bytes.to_vec())),
                Ok(_) => panic!("only frames expected"),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => panic!("channel closed"),
            }
        }

        /// The next frame, failing the test after 10 s.
        fn frame(&mut self) -> (NodeId, Vec<u8>) {
            self.recv(Duration::from_secs(10))
                .expect("frame within 10 s")
        }
    }

    /// Waits until the sender threads have written (and counted) every
    /// queued frame: the receiver can read a frame before its writer
    /// gets to count it.
    fn settle(stats: &TcpSendStats) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.backlog.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "sender thread stuck");
            std::thread::yield_now();
        }
    }

    /// `len | sender | body` as a raw peer would write it.
    fn wire(from: u32, body: &[u8]) -> Vec<u8> {
        let mut w = frame_header(NodeId(from), body.len()).to_vec();
        w.extend_from_slice(body);
        w
    }

    fn raw_peer(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_nodelay(true).ok();
        s
    }

    #[test]
    fn frame_boundaries_survive_coalescing() {
        // The receiver is paused while frames pour in, so the lane's
        // direct writes hit a full socket buffer: the frame cut short
        // and everything after it go to the sender thread, which
        // coalesces the queued run into shared writes. Every frame must
        // still arrive intact, once, in order: boundaries live in the
        // length prefix, not in write boundaries or in which path wrote.
        let mut inbox = inbox();
        let mut t = sender(3, vec![inbox.addr]);
        let stats = t.stats();
        let pool = t.buffer_pool().expect("tcp pools");
        let body = |i: usize| format!("frame-{i}-{}", "x".repeat(i % 997)).into_bytes();

        let mut n = 0;
        while stats.backlog.load(Ordering::Relaxed) == 0 || n < 2000 {
            assert!(n < 200_000, "the socket buffer never filled");
            let mut buf = pool.checkout();
            buf.extend_from_slice(&body(n));
            t.send(NodeId(0), buf);
            n += 1;
        }
        for _ in 0..300 {
            t.send(NodeId(0), body(n).into());
            n += 1;
        }
        for i in 0..n {
            let (from, bytes) = inbox.frame();
            assert_eq!(from, NodeId(3));
            assert_eq!(bytes, body(i), "frame {i} corrupted");
        }
        settle(&stats);
        let direct = stats.direct.load(Ordering::Relaxed);
        let queued = stats.queued.load(Ordering::Relaxed);
        let writes = stats.writes.load(Ordering::Relaxed);
        assert_eq!(
            direct + queued,
            n as u64,
            "every frame written exactly once"
        );
        assert!(
            direct > 0 && queued > 300,
            "both paths ran: {direct} / {queued}"
        );
        assert!(
            writes < queued,
            "sender should coalesce queued frames: {writes} writes for {queued} frames"
        );
        // Payloads and batch buffers recycle: the steady state reuses
        // capacity instead of allocating per frame.
        let ps = pool.stats();
        assert!(ps.hits > 0, "pool must see reuse: {ps:?}");
        assert!(ps.recycled > 0, "dropped buffers must recycle: {ps:?}");
    }

    /// Deterministic LCG so the fuzz shapes reproduce from a seed.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 11
    }

    fn fuzz_body(seed: u64, i: usize) -> Vec<u8> {
        let mut s = seed.wrapping_add(i as u64) | 1;
        // Lengths from 0 to ~4 KiB, heavily varied so any boundary error
        // desynchronizes the parse immediately.
        let len = (lcg(&mut s) % 4096) as usize;
        let mut body = Vec::with_capacity(len + 8);
        body.extend_from_slice(&(i as u64).to_le_bytes());
        while body.len() < len + 8 {
            body.push((lcg(&mut s) & 0xFF) as u8);
        }
        body
    }

    #[test]
    fn random_frame_sizes_survive_coalescing() {
        // Seeded random frame lengths (including empty bodies) from a
        // real transport to a real inbox: no path may move a boundary.
        let mut inbox = inbox();
        let mut t = sender(5, vec![inbox.addr]);
        const SEED: u64 = 0xF00D_CAFE;
        const N: usize = 1500;
        for i in 0..N {
            t.send(NodeId(0), fuzz_body(SEED, i).into());
        }
        for i in 0..N {
            let (from, bytes) = inbox.frame();
            assert_eq!(from, NodeId(5));
            assert_eq!(bytes, fuzz_body(SEED, i), "frame {i} corrupted");
        }
    }

    #[test]
    fn partial_writes_never_split_frame_boundaries() {
        // The receiving half under adversarial segmentation: a writer
        // that chops the byte stream into random small chunks, so
        // headers and bodies straddle read boundaries arbitrarily. The
        // inbox must reassemble every frame exactly.
        let mut inbox = inbox();
        let addr = inbox.addr;
        const SEED: u64 = 0xDEAD_BEEF;
        const N: usize = 400;
        let writer = std::thread::spawn(move || {
            let wire: Vec<u8> = (0..N).flat_map(|i| wire(9, &fuzz_body(SEED, i))).collect();
            let mut stream = raw_peer(addr);
            let mut s = SEED | 1;
            let mut off = 0;
            while off < wire.len() {
                // Forced partial writes: 1..=97 bytes at a time, so every
                // frame is split across many TCP segments.
                let chunk = (1 + lcg(&mut s) % 97) as usize;
                let end = (off + chunk).min(wire.len());
                stream.write_all(&wire[off..end]).expect("chunk write");
                off = end;
            }
        });
        for i in 0..N {
            let (from, bytes) = inbox.frame();
            assert_eq!(from, NodeId(9));
            assert_eq!(bytes, fuzz_body(SEED, i), "frame {i} corrupted");
        }
        writer.join().expect("writer thread");
    }

    #[test]
    fn frame_delivered_one_byte_per_write_is_reassembled() {
        let mut inbox = inbox();
        let mut peer = raw_peer(inbox.addr);
        let w = wire(7, b"hello");
        // The first frame proves the connection is adopted, so every
        // later byte is read on its own.
        peer.write_all(&wire(7, b"")).unwrap();
        assert_eq!(inbox.frame(), (NodeId(7), Vec::new()));
        for (i, byte) in w.iter().enumerate() {
            peer.write_all(std::slice::from_ref(byte)).unwrap();
            if i + 1 < w.len() {
                assert_eq!(inbox.recv(Duration::from_millis(2)), None, "byte {i}");
            }
        }
        assert_eq!(inbox.frame(), (NodeId(7), b"hello".to_vec()));
    }

    #[test]
    fn hundred_frames_in_one_read_are_all_delivered() {
        let mut inbox = inbox();
        let mut peer = raw_peer(inbox.addr);
        let burst: Vec<u8> = (0..100u32)
            .flat_map(|i| wire(4, &i.to_le_bytes()))
            .collect();
        peer.write_all(&burst).unwrap();
        assert_eq!(inbox.frame(), (NodeId(4), 0u32.to_le_bytes().to_vec()));
        assert_eq!(
            inbox.t.pending_frames(),
            99,
            "one read parsed the whole burst"
        );
        for i in 1..100u32 {
            assert_eq!(inbox.frame(), (NodeId(4), i.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn oversized_length_header_drops_only_that_connection() {
        let mut inbox = inbox();
        let mut bad = raw_peer(inbox.addr);
        let mut good = raw_peer(inbox.addr);
        good.write_all(&wire(2, b"before")).unwrap();
        assert_eq!(inbox.frame(), (NodeId(2), b"before".to_vec()));
        let mut header = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&1u32.to_le_bytes());
        bad.write_all(&header).unwrap();
        // The inbox closes the bad connection: its peer reads the end.
        assert_eq!(inbox.recv(Duration::from_millis(50)), None);
        bad.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert!(
            matches!(bad.read(&mut buf), Ok(0) | Err(_)),
            "the garbled connection must be closed"
        );
        good.write_all(&wire(2, b"after")).unwrap();
        assert_eq!(inbox.frame(), (NodeId(2), b"after".to_vec()));
        assert_eq!(inbox.t.conns.len(), 1);
    }

    #[test]
    fn closed_peer_is_removed_not_polled_forever() {
        let mut inbox = inbox();
        let mut peer = raw_peer(inbox.addr);
        peer.write_all(&wire(1, b"last words")).unwrap();
        drop(peer);
        assert_eq!(inbox.frame(), (NodeId(1), b"last words".to_vec()));
        assert_eq!(inbox.recv(Duration::from_millis(20)), None);
        assert!(inbox.t.conns.is_empty(), "the closed connection is gone");
    }

    #[test]
    fn older_connection_is_read_first() {
        // A restarted peer's new connection must not overtake what its
        // dead incarnation wrote: with both readable, the older goes first.
        let mut inbox = inbox();
        let mut old = raw_peer(inbox.addr);
        old.write_all(&wire(1, b"old")).unwrap();
        assert_eq!(inbox.frame(), (NodeId(1), b"old".to_vec()));
        let mut new = raw_peer(inbox.addr);
        new.write_all(&wire(1, b"new")).unwrap();
        assert_eq!(inbox.frame(), (NodeId(1), b"new".to_vec()));
        new.write_all(&wire(1, b"query")).unwrap();
        old.write_all(&wire(1, b"vote")).unwrap();
        let fds: Vec<_> = inbox.t.conns.iter().map(|c| c.stream.as_fd()).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !polling::poll_readable(&fds, Duration::from_millis(10))
            .is_ok_and(|r| r.is_ready(0) && r.is_ready(1))
        {
            assert!(Instant::now() < deadline, "both frames arrive");
        }
        assert_eq!(inbox.frame(), (NodeId(1), b"vote".to_vec()));
        assert_eq!(inbox.frame(), (NodeId(1), b"query".to_vec()));
    }

    #[test]
    fn restart_discards_whole_frames_and_keeps_framing() {
        let mut inbox = inbox();
        let mut peer = raw_peer(inbox.addr);
        peer.write_all(&wire(6, b"adopted")).unwrap();
        assert_eq!(inbox.frame(), (NodeId(6), b"adopted".to_vec()));
        // Sent to the old incarnation: one whole frame, one half frame.
        let half = wire(6, b"split across the crash");
        peer.write_all(&wire(6, b"lost")).unwrap();
        peer.write_all(&half[..10]).unwrap();
        let Inbox { t, tx, rx, addr } = inbox;
        let hub = Arc::clone(&t.hub);
        drop(t); // the worker dies; its connections go back to the hub
        hub.discard_pending();
        peer.write_all(&half[10..]).unwrap();
        peer.write_all(&wire(6, b"next incarnation")).unwrap();
        let t = TcpTransport::new(
            NodeId(99),
            Vec::new(),
            RetryPolicy::default(),
            tx.clone(),
            hub,
        );
        let mut inbox = Inbox { t, tx, rx, addr };
        assert_eq!(inbox.frame(), (NodeId(6), b"next incarnation".to_vec()));
    }

    /// One step of [`sends_arrive_exactly_once_in_per_peer_order`].
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// One frame of `len` body bytes from sender `peer`.
        Send { peer: usize, len: usize },
        /// Frames from `peer` until its socket buffer is full and one is
        /// queued (the receiver is paused meanwhile).
        Flood { peer: usize },
        /// Resume the receiver: read everything sent so far.
        Drain,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..10, 0usize..2, 0usize..3000).prop_map(|(kind, peer, len)| match kind {
            0 => Step::Flood { peer },
            1 | 2 => Step::Drain,
            _ => Step::Send { peer, len },
        })
    }

    /// A frame body naming its sender and sequence number.
    fn numbered(peer: usize, seq: u32, len: usize) -> PooledBuf {
        let mut b = vec![peer as u8];
        b.extend_from_slice(&seq.to_le_bytes());
        b.resize(5 + len, seq as u8);
        b.into()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Two senders, one receiver that pauses and resumes: whichever
        /// path each frame takes (written by the lane, queued behind a
        /// full socket buffer, or cut short and finished by the sender
        /// thread), every frame arrives exactly once and in per-peer
        /// order.
        fn sends_arrive_exactly_once_in_per_peer_order(
            steps in prop::collection::vec(step(), 1..40)
        ) {
            let mut inbox = inbox();
            let mut peers = [sender(0, vec![inbox.addr]), sender(1, vec![inbox.addr])];
            let mut sent = [0u32; 2];
            let mut seen = [0u32; 2];
            let mut drain = |inbox: &mut Inbox, sent: &[u32; 2]| {
                while seen != *sent {
                    let (from, body) = inbox.frame();
                    let p = from.0 as usize;
                    let seq = u32::from_le_bytes([body[1], body[2], body[3], body[4]]);
                    assert_eq!((body[0] as usize, seq), (p, seen[p]), "out of order");
                    seen[p] += 1;
                }
            };
            for step in steps.into_iter().chain([Step::Drain]) {
                match step {
                    Step::Send { peer, len } => {
                        peers[peer].send(NodeId(0), numbered(peer, sent[peer], len));
                        sent[peer] += 1;
                    }
                    Step::Flood { peer } => {
                        let stats = peers[peer].stats();
                        while stats.backlog.load(Ordering::Relaxed) == 0 {
                            prop_assert!(sent[peer] < 100_000, "never filled");
                            peers[peer].send(NodeId(0), numbered(peer, sent[peer], 16 * 1024));
                            sent[peer] += 1;
                        }
                    }
                    Step::Drain => drain(&mut inbox, &sent),
                }
            }
            for (p, t) in peers.iter().enumerate() {
                settle(&t.stats);
                let direct = t.stats.direct.load(Ordering::Relaxed);
                let queued = t.stats.queued.load(Ordering::Relaxed);
                prop_assert_eq!(direct + queued, u64::from(sent[p]));
            }
        }
    }
}
