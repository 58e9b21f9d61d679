//! One pass of one workload: timed set-up, the closed-loop load
//! generator, and the output checks.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::adapter::{self, Cluster, Counters, Done, Effective, Pending, ShapeCosts, Txn, ROOTS};
use crate::affinity;
use crate::spans::{Recorder, Span};
use crate::stats::percentile;
use crate::workload::{OpGen, Spec, TxnOp, KEYS};

/// Pause between two sweeps over the in-flight slots.
const SWEEP_PAUSE: Duration = Duration::from_micros(50);
/// The invariant checker gets a sample of the outcomes: one in
/// `VERIFY_STRIDE` at first, thinned to one in twice as many whenever
/// the sample reaches `2 * VERIFY_SAMPLE`. The first failed outcomes are
/// kept besides.
const VERIFY_STRIDE: u64 = 64;
const VERIFY_SAMPLE: usize = 128;

/// The run's scratch directory, `benchmark/target/run-<pid>/`: WAL
/// directories and probe logs live here, on the real filesystem. Removed
/// when dropped — also when a check failed on the way.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        // `cargo run` exports the manifest directory; a binary started by
        // hand falls back to where it was built.
        let base = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
        let path = base
            .join("target")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// How long and how often a pass measures.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub repeats: usize,
    pub repeat: Duration,
    /// Divides the workload's warm-up count (the smoke test shortens it).
    pub warmup_div: u64,
}

/// What one repeat's measured window saw.
#[derive(Clone, Copy, Debug)]
pub struct Repeat {
    pub samples: usize,
    pub txn_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

pub struct Pass {
    /// The pass ran pinned to one CPU.
    pub one_cpu: bool,
    pub effective: Effective,
    /// One per repeat.
    pub setup_s: Vec<f64>,
    pub repeats: Vec<Repeat>,
    /// Transactions sent during the measured windows, and how many of
    /// them did not commit.
    pub attempted: u64,
    pub failed: u64,
    /// Each repeat's cluster totals.
    pub counters: Vec<Counters>,
    /// Transactions over all repeats, warm-up included — what the summed
    /// counters are divided by.
    pub txns: u64,
    pub keys_read_back: usize,
    /// Every check that failed; empty means the outputs are correct.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

impl Pass {
    /// Every transaction committed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

enum Stop {
    After(u64),
    At(Instant),
}

/// A transaction between `begin` and its outcome.
struct Ticket {
    seq: u64,
    op: TxnOp,
    started: Instant,
    /// When the work had been handed over; taken only when tracing.
    worked: Option<Instant>,
}

/// The load generator: one thread, closed loop.
struct Client {
    spec: Spec,
    /// Added to the transaction number to make its trace id, so repeats
    /// do not share ids.
    trace_base: u64,
    gen: OpGen,
    verify_stride: u64,
    seq: u64,
    reads: u64,
    writes: u64,
    failed: u64,
    failures: Vec<String>,
    /// Per key: the value of the latest write, how many writes are in
    /// flight, and whether the latest write overlapped another (then the
    /// order at the server is not the order of issue, and the key is left
    /// out of the read-back).
    last_write: Vec<Option<u64>>,
    writes_in_flight: Vec<u32>,
    ambiguous: Vec<bool>,
    sample: Vec<Done>,
    failed_sample: Vec<Done>,
    recorder: Option<Recorder>,
    /// Completion time and latency of every transaction since the last
    /// `clear()`.
    latencies: Vec<(Instant, u64)>,
}

impl Client {
    fn new(spec: &Spec, seed: u64, trace_base: u64) -> Client {
        Client {
            trace_base,
            spec: *spec,
            gen: OpGen::new(spec, seed),
            verify_stride: VERIFY_STRIDE,
            seq: 0,
            reads: 0,
            writes: 0,
            failed: 0,
            failures: Vec::new(),
            last_write: vec![None; KEYS as usize],
            writes_in_flight: vec![0; KEYS as usize],
            ambiguous: vec![false; KEYS as usize],
            sample: Vec::new(),
            failed_sample: Vec::new(),
            recorder: None,
            latencies: Vec::new(),
        }
    }

    /// Begins the next transaction and sends its one operation.
    fn issue<'c>(&mut self, cluster: &'c Cluster, slot: usize) -> (Txn<'c>, Ticket) {
        let op = self.gen.next(slot);
        self.seq += 1;
        let seq = self.seq;
        let started = Instant::now();
        let txn = cluster.begin((seq % ROOTS as u64) as usize);
        let begun = self.recorder.as_ref().map(|_| Instant::now());
        if op.read {
            self.reads += 1;
            txn.get(op.key);
        } else {
            self.writes += 1;
            let k = op.key as usize;
            self.ambiguous[k] = self.writes_in_flight[k] > 0;
            self.writes_in_flight[k] += 1;
            self.last_write[k] = Some(seq);
            txn.put(op.key, &seq.to_string());
        }
        let worked = self.recorder.as_ref().map(|_| Instant::now());
        if let (Some(r), Some(begun), Some(worked)) = (&mut self.recorder, begun, worked) {
            let trace = self.trace_base + seq;
            r.push(trace, 1, Some(0), "begin", started, begun);
            r.push(trace, 2, Some(0), "work", begun, worked);
        }
        let ticket = Ticket {
            seq,
            op,
            started,
            worked,
        };
        (txn, ticket)
    }

    /// Books one outcome. `submitted` is when the commit request had
    /// been handed over, for the traced split of submit and wait.
    fn complete(&mut self, done: Done, t: Ticket, submitted: Instant) {
        let now = Instant::now();
        if let (Some(r), Some(worked)) = (&mut self.recorder, t.worked) {
            let trace = self.trace_base + t.seq;
            r.push(trace, 3, Some(0), "submit", worked, submitted);
            r.push(trace, 4, Some(0), "wait", submitted, now);
            r.push(trace, 0, None, "txn", t.started, now);
        }
        self.latencies
            .push((now, now.duration_since(t.started).as_nanos() as u64));
        if !t.op.read {
            self.writes_in_flight[t.op.key as usize] -= 1;
        }
        if !done.committed() {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(done.describe());
                self.failed_sample.push(done);
            }
        } else if t.seq.is_multiple_of(self.verify_stride) {
            self.sample.push(done);
            if self.sample.len() >= 2 * VERIFY_SAMPLE {
                let mut i = 0;
                self.sample.retain(|_| {
                    i += 1;
                    i % 2 == 0
                });
                self.verify_stride *= 2;
            }
        }
    }

    /// Runs the closed loop until `stop`, then waits for what is still
    /// in flight.
    fn run(&mut self, cluster: &Cluster, stop: Stop) {
        let (target, deadline) = match stop {
            Stop::After(n) => (self.seq + n, None),
            Stop::At(deadline) => (u64::MAX, Some(deadline)),
        };
        let go = |seq: u64| seq < target && deadline.is_none_or(|d| Instant::now() < d);
        if self.spec.in_flight == 1 {
            while go(self.seq) {
                let (txn, ticket) = self.issue(cluster, 0);
                if self.recorder.is_none() {
                    // As a caller of the library would.
                    let done = txn.commit();
                    let started = ticket.started;
                    self.complete(done, ticket, started);
                } else {
                    // The same call in its two halves, so the hand-off
                    // and the wait can be told apart.
                    let pending = txn.commit_async();
                    let submitted = Instant::now();
                    self.complete(pending.wait(), ticket, submitted);
                }
            }
            return;
        }
        let mut slots: Vec<Option<(Pending, Ticket, Instant)>> =
            (0..self.spec.in_flight).map(|_| None).collect();
        loop {
            let mut busy = false;
            for (slot, cell) in slots.iter_mut().enumerate() {
                if let Some(done) = cell.as_ref().and_then(|(p, _, _)| p.poll()) {
                    let (_, ticket, submitted) = cell.take().expect("polled");
                    self.complete(done, ticket, submitted);
                }
                if cell.is_none() && go(self.seq) {
                    let (txn, ticket) = self.issue(cluster, slot);
                    *cell = Some((txn.commit_async(), ticket, Instant::now()));
                }
                busy |= cell.is_some();
            }
            if !busy {
                return;
            }
            std::thread::sleep(SWEEP_PAUSE);
        }
    }
}

/// One repeat, added to `pass`: a fresh cluster is set up (timed),
/// measured for `plan.repeat`, checked and shut down.
fn run_repeat(
    pass: &mut Pass,
    spec: &Spec,
    seed: u64,
    plan: Plan,
    wal_dir: &Path,
    traced: bool,
) -> Result<(), String> {
    let index = pass.setup_s.len();
    // Set-up: the WAL directory, the cluster, and a fixed number of
    // warm-up transactions — counted, not timed, so that set-up time
    // measures work and a slower start shows in it.
    let warmup = (spec.warmup_txns / plan.warmup_div).max(spec.in_flight as u64);
    let setup_started = Instant::now();
    std::fs::create_dir_all(wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
    let (cluster, effective) = Cluster::start(spec, wal_dir, traced)?;
    let mut client = Client::new(spec, seed, (index as u64) << 40);
    client.run(&cluster, Stop::After(warmup));
    pass.setup_s.push(setup_started.elapsed().as_secs_f64());
    pass.effective = effective;

    // Measure. Warm-up is not traced: its spans would only dilute the
    // means.
    client.recorder = traced.then(Recorder::new);
    client.latencies.clear();
    let before = (client.seq, client.failed);
    let started = Instant::now();
    client.run(&cluster, Stop::At(started + plan.repeat));
    pass.attempted += client.seq - before.0;
    pass.failed += client.failed - before.1;
    let repeat = window(&client.latencies, started, plan.repeat);

    // Check the outputs.
    let mut problems: Vec<String> = client
        .failures
        .iter()
        .map(|f| format!("failed: {f}"))
        .collect();
    if repeat.is_none() {
        problems.push("no transaction completed inside the repeat".into());
    }
    pass.repeats.extend(repeat);
    if !cluster.quiesce(Duration::from_secs(10)) {
        problems.push("cluster did not quiesce within 10 s".into());
    }
    let mut keys_read_back = 0;
    for key in 0..KEYS {
        let k = key as usize;
        if let (Some(value), false) = (client.last_write[k], client.ambiguous[k]) {
            keys_read_back += 1;
            let got = cluster.read(key);
            if got.as_deref() != Some(value.to_string().as_bytes()) {
                problems.push(format!(
                    "key {key}: last write {value}, server holds {:?}",
                    got.map(|v| String::from_utf8_lossy(&v).into_owned())
                ));
            }
        }
    }
    if keys_read_back == 0 && client.writes > 0 {
        problems.push("no key was eligible for the read-back check".into());
    }
    pass.keys_read_back += keys_read_back;
    client.sample.append(&mut client.failed_sample);
    let last = cluster.shutdown();
    problems.extend(last.verify(&client.sample));
    let counters = last.counters();
    check_counters(spec, &counters, client.reads, client.writes, &mut problems);
    let _ = std::fs::remove_dir_all(wal_dir);

    pass.counters.push(counters);
    pass.txns += client.seq;
    pass.problems
        .extend(problems.into_iter().map(|p| format!("repeat {index}: {p}")));
    if let Some(r) = client.recorder {
        pass.spans.extend(r.spans);
    }
    Ok(())
}

/// Runs one pass of `plan.repeats` repeats, each on a cluster of its
/// own. `traced` turns on the nodes' phase histograms and the client
/// spans.
///
/// A fresh cluster per repeat keeps the repeats alike — each measures a
/// cluster of the same age and size, with threads the scheduler places
/// anew — and yields one set-up time per repeat.
pub fn run_pass(
    spec: &Spec,
    seed: u64,
    plan: Plan,
    dir: &Path,
    traced: bool,
) -> Result<Pass, String> {
    let pinned = spec.one_cpu.then(affinity::pin_to_one_cpu);
    let mut pass = Pass {
        one_cpu: pinned.as_ref().is_some_and(|p| p.active()),
        effective: Effective::expected(spec, traced),
        setup_s: Vec::new(),
        repeats: Vec::new(),
        attempted: 0,
        failed: 0,
        counters: Vec::new(),
        txns: 0,
        keys_read_back: 0,
        problems: Vec::new(),
        spans: Vec::new(),
    };
    for i in 0..plan.repeats {
        let wal_dir = dir.join(format!("{}-{}-{i}", spec.name, traced as u8));
        run_repeat(&mut pass, spec, seed, plan, &wal_dir, traced)?;
    }
    Ok(pass)
}

/// Summarises the transactions that completed inside the window.
/// Completions after it (the final drain) are left out of the timing,
/// not out of the checks.
fn window(latencies: &[(Instant, u64)], started: Instant, length: Duration) -> Option<Repeat> {
    let mut ns: Vec<u64> = latencies
        .iter()
        .filter(|(at, _)| at.duration_since(started) < length)
        .map(|(_, ns)| *ns)
        .collect();
    ns.sort_unstable();
    (!ns.is_empty()).then(|| Repeat {
        samples: ns.len(),
        txn_per_s: ns.len() as f64 / length.as_secs_f64(),
        p50_us: percentile(&ns, 0.50) as f64 / 1e3,
        p99_us: percentile(&ns, 0.99) as f64 / 1e3,
    })
}

/// The counter checks: the protocol did exactly the work the simulator
/// says these transactions cost, nothing aborted or is left over, and
/// the mechanism the workload is labelled with really ran.
fn check_counters(spec: &Spec, c: &Counters, reads: u64, writes: u64, problems: &mut Vec<String>) {
    let mut expect = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let txns = reads + writes;
    expect(
        c.nodes == ROOTS + 1,
        format!("{} of 3 node summaries", c.nodes),
    );
    expect(
        c.outcomes == txns && c.committed == txns && c.aborted == 0,
        format!(
            "{txns} transactions sent, {} outcomes, {} committed, {} aborted",
            c.outcomes, c.committed, c.aborted
        ),
    );
    expect(
        c.active_txns == 0,
        format!("{} transactions still active", c.active_txns),
    );

    let cost = |read| adapter::sim_costs(spec, read);
    let (w, r) = (
        cost(false),
        if reads > 0 { cost(true) } else { cost(false) },
    );
    let total = |f: fn(&ShapeCosts) -> u64| reads * f(&r) + writes * f(&w);
    for (name, live, sim) in [
        ("flows", c.flows, total(|s| s.flows)),
        ("forced TM writes", c.forced, total(|s| s.forced)),
        ("TM log writes", c.log_writes, total(|s| s.log_writes)),
    ] {
        expect(
            live == sim,
            format!("{name}: live {live}, simulator {sim} for {reads} reads + {writes} writes"),
        );
    }

    expect(
        c.net_retries == 0 && c.io_errors == 0 && c.lock_victims == 0,
        format!(
            "{} transport retries, {} log I/O errors, {} lock victims; expected none",
            c.net_retries, c.io_errors, c.lock_victims
        ),
    );
    expect(
        c.acks_piggybacked == 0,
        format!("{} acks piggybacked; expected none", c.acks_piggybacked),
    );
    if spec.hot {
        expect(
            c.lock_waits > 0,
            "no lock waited on a contended workload".into(),
        );
        expect(
            (c.forced as f64) / (txns as f64) < w.forced as f64,
            "read-only transactions did not save forced writes".into(),
        );
    } else {
        expect(
            c.lock_waits == 0,
            format!("{} lock waits on an uncontended workload", c.lock_waits),
        );
    }

    use crate::workload::{Backend, Transport};
    if spec.backend == Backend::Segmented {
        expect(
            c.rm_forced == 0,
            format!("{} forced RM-log writes under a shared log", c.rm_forced),
        );
    }
    if spec.group_commit {
        expect(
            c.group_flushes > 0 && c.wal_flushes < c.wal_forced,
            format!(
                "group commit did not batch: {} group flushes, {} physical flushes for {} forces",
                c.group_flushes, c.wal_flushes, c.wal_forced
            ),
        );
    } else {
        expect(
            c.group_flushes == 0 && c.wal_flushes >= c.wal_forced,
            format!(
                "no group commit, yet {} group flushes, {} physical flushes for {} forces",
                c.group_flushes, c.wal_flushes, c.wal_forced
            ),
        );
    }
    if spec.transport == Transport::Tcp {
        expect(
            c.pool_checkouts > 0,
            "no buffer-pool checkout over TCP".into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_keeps_completions_inside_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let lat = [
            (at(10), 1_000),
            (at(50), 3_000),
            (at(99), 2_000),
            (at(150), 9_000), // the drain, beyond the window
        ];
        let w = window(&lat, t0, Duration::from_millis(100)).expect("three inside");
        assert_eq!(w.samples, 3);
        assert_eq!(w.txn_per_s, 30.0);
        assert_eq!(w.p50_us, 2.0);
        assert_eq!(w.p99_us, 3.0);
        assert!(window(&lat[3..], t0, Duration::from_millis(100)).is_none());
    }
}
