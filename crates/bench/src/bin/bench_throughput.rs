//! Live-runtime throughput bench: txn/s and commit-latency percentiles
//! for the concurrent closed-loop workload, across
//! {Basic, PresumedAbort, PresumedNothing} × {group commit off, on} ×
//! {mem, file, segmented} WAL backends × {channel, tcp} transports,
//! plus an `optimizations` axis: the §4 subsets
//! {last_agent, early_ack, piggyback} each measured on the mem and
//! segmented backends (Presumed Abort, channel transport) against the
//! matching baseline rows.
//!
//! ```text
//! cargo run --release -p tpc-bench --bin bench_throughput            # full run
//! cargo run --release -p tpc-bench --bin bench_throughput -- --quick
//! cargo run --release -p tpc-bench --bin bench_throughput -- --out /tmp/t.json
//! ```
//!
//! Results are written as machine-readable JSON (default:
//! `BENCH_throughput.json` at the repo root) so successive PRs have a
//! throughput trajectory to compare against. The workload is
//! deterministic in structure (fixed concurrency, fixed per-slot keys);
//! wall-clock numbers of course vary with the host.
//!
//! The interesting comparisons are `file` × group commit off/on — with a
//! durable backend every forced record costs a real `sync_data()`, and
//! group commit (§4 *Group Commits*) amortizes those across concurrent
//! transactions (`physical_flushes` drops well below `log_forces` and
//! txn/s rises) — and `file` vs `segmented` at equal durability: the
//! segmented chain appends into preallocated, zero-filled capacity, so
//! its `sync_data()` never has file metadata to flush.
//!
//! A separate `failure_path` section measures what the throughput matrix
//! cannot: for each protocol (tcp + file log), a subordinate is killed
//! in its in-doubt window under load and restarted, and the run reports
//! the in-doubt window distribution, the restart's recovery counters and
//! the wall-clock restart-to-recovered time.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tpc_common::config::GroupCommitConfig;
use tpc_common::{ProtocolKind, SimDuration};
use tpc_obs::{ObsSnapshot, Phase, TimelineCounter, TimelineGauge, TimelineHist};
use tpc_runtime::tcp::TcpCluster;
use tpc_runtime::{
    LiveCluster, LiveNodeConfig, NodeSummary, OpenLoopReport, OpenLoopSpec, WorkloadReport,
    WorkloadSpec,
};

/// The WAL backend axis of the bench matrix.
#[derive(Clone, Copy, PartialEq)]
enum WalBackend {
    Mem,
    File,
    Segmented,
}

impl WalBackend {
    fn name(self) -> &'static str {
        match self {
            WalBackend::Mem => "mem",
            WalBackend::File => "file",
            WalBackend::Segmented => "segmented",
        }
    }

    fn durable(self) -> bool {
        !matches!(self, WalBackend::Mem)
    }
}

/// One cell of the bench matrix.
struct Case {
    protocol: ProtocolKind,
    group_commit: bool,
    wal_backend: WalBackend,
    tcp: bool,
    /// Which §4 optimization subset the cluster runs: `baseline`,
    /// `last_agent`, `early_ack` or `piggyback` (long-locks ack
    /// deferral). The optimization rows run Presumed Abort on the
    /// channel transport so the delta against the matching baseline row
    /// isolates the optimization itself.
    optimizations: &'static str,
}

impl Case {
    fn opts(&self) -> tpc_common::OptimizationConfig {
        use tpc_common::{AckMode, OptimizationConfig};
        match self.optimizations {
            "last_agent" => OptimizationConfig::none().with_last_agent(true),
            "early_ack" => OptimizationConfig::none().with_ack_mode(AckMode::Early),
            "piggyback" => OptimizationConfig::none().with_long_locks(true),
            _ => OptimizationConfig::none(),
        }
    }
}

/// One finished measurement: the workload report plus the cluster's
/// aggregated log/group counters.
struct Measurement {
    case: Case,
    report: WorkloadReport,
    /// Σ forced TM-log appends across nodes.
    log_forces: u64,
    /// Σ physical TM-log flushes across nodes.
    physical_flushes: u64,
    /// Σ group-committer force requests across nodes.
    group_requests: u64,
    /// Σ group-committer flushes across nodes.
    group_flushes: u64,
    /// Cluster-merged per-phase latency histograms.
    obs: ObsSnapshot,
}

/// One point on the shard scale curve: an open-loop run against a
/// multi-lane cluster on the mem backend.
struct ScalePoint {
    lanes: usize,
    stripes: usize,
    in_flight: usize,
    offered_rate: f64,
    /// Marks the admission-control row (tight caps, expects rejections).
    saturation: bool,
    report: OpenLoopReport,
}

/// One finished kill/restart measurement on the failure path.
struct FailureMeasurement {
    protocol: ProtocolKind,
    /// Lanes per node on the victim: 1 is the classic single-lane node;
    /// more means sharded — the crash kills every lane and recovery
    /// replays the one shared WAL, repartitioning transactions to lanes.
    lanes: usize,
    /// `tcp` for the single-lane cell, `channel` for the sharded ones
    /// (the TCP harness runs one lane per node).
    transport: &'static str,
    outage: Duration,
    /// Victim's closed in-doubt window distribution, µs.
    in_doubt: tpc_obs::HistogramSnapshot,
    /// Victim's restart-recovery counters.
    recovery: tpc_core::RecoveryStats,
    /// Wall-clock from calling restart to the blocked commit resolving.
    restart_to_recovered: Duration,
}

const NODES: usize = 3; // two roots + one server

fn main() {
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(args.next().expect("--out needs a path"))),
            other => {
                eprintln!("usage: bench_throughput [--quick] [--out PATH]");
                panic!("unknown argument {other:?}");
            }
        }
    }
    // Default: the repo root, two levels above this crate's manifest.
    let out = out.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json")
    });
    let spec = if quick {
        WorkloadSpec::new(8, 64)
    } else {
        WorkloadSpec::new(16, 400)
    };

    let mut measurements = Vec::new();
    for protocol in [
        ProtocolKind::Basic,
        ProtocolKind::PresumedAbort,
        ProtocolKind::PresumedNothing,
    ] {
        for tcp in [false, true] {
            for wal_backend in [WalBackend::Mem, WalBackend::File, WalBackend::Segmented] {
                for group_commit in [false, true] {
                    let case = Case {
                        protocol,
                        group_commit,
                        wal_backend,
                        tcp,
                        optimizations: "baseline",
                    };
                    eprintln!(
                        "running {protocol:?} transport={} wal={} group_commit={} …",
                        if tcp { "tcp" } else { "channel" },
                        wal_backend.name(),
                        group_commit
                    );
                    measurements.push(run_case(case, &spec));
                }
            }
        }
    }

    // The optimization axis (§4 on the live path): Presumed Abort over
    // channels, no group commit, each optimization against the cheapest
    // and the most durable backend. Compare against the matching
    // PresumedAbort/channel/…/gc=off baseline rows.
    for optimizations in ["last_agent", "early_ack", "piggyback"] {
        for wal_backend in [WalBackend::Mem, WalBackend::Segmented] {
            let case = Case {
                protocol: ProtocolKind::PresumedAbort,
                group_commit: false,
                wal_backend,
                tcp: false,
                optimizations,
            };
            eprintln!(
                "running PresumedAbort wal={} optimizations={optimizations} …",
                wal_backend.name()
            );
            measurements.push(run_case(case, &spec));
        }
    }

    let scale = run_scale_curve(quick);

    let mut failures = Vec::new();
    for protocol in [
        ProtocolKind::Basic,
        ProtocolKind::PresumedAbort,
        ProtocolKind::PresumedNothing,
    ] {
        for lanes in [1usize, 4] {
            eprintln!("running {protocol:?} failure path (kill/restart, lanes={lanes}) …");
            failures.push(run_failure_case(protocol, lanes, quick));
        }
    }

    let json = render_json(quick, &spec, &measurements, &scale, &failures);
    std::fs::write(&out, json).expect("write BENCH_throughput.json");
    eprintln!("wrote {}", out.display());
}

/// Open-loop scale sweep: lanes × in-flight on the mem backend, offered
/// load far above capacity so completion rate measures the node's
/// multi-lane throughput ceiling, plus (full mode) one ≥10k-in-flight
/// deep cell and one tight-cap saturation cell demonstrating bounded
/// queueing + explicit rejections. Lane scaling tracks available cores:
/// on a single-core host the curve is expected to be flat-to-noisy, and
/// the `cpus` field records the context.
fn run_scale_curve(quick: bool) -> Vec<ScalePoint> {
    let lanes_axis: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let in_flight_axis: &[usize] = if quick { &[64] } else { &[64, 1024] };
    let mut points = Vec::new();
    for &lanes in lanes_axis {
        for &in_flight in in_flight_axis {
            let txns = if quick { 300 } else { 2_000 };
            eprintln!("running scale lanes={lanes} in_flight={in_flight} …");
            points.push(run_scale_case(lanes, in_flight, txns, false));
        }
    }
    if !quick {
        // The deep cell: ≥10k transactions concurrently in flight.
        eprintln!("running scale deep cell lanes=8 in_flight=10000 …");
        points.push(run_scale_case(8, 10_000, 12_000, false));
    }
    // Saturation: offered load with tight admission control must reject,
    // not collapse. Long enough (full mode) to spread across several
    // timeline windows, so the per-window section shows a curve.
    eprintln!("running scale saturation cell …");
    points.push(run_scale_case(
        if quick { 2 } else { 8 },
        32,
        if quick { 2_000 } else { 6_000 },
        true,
    ));
    points
}

fn run_scale_case(lanes: usize, in_flight: usize, txns: usize, saturation: bool) -> ScalePoint {
    let cfg = LiveNodeConfig::new(ProtocolKind::PresumedAbort).with_lanes(lanes);
    let stripes = cfg.effective_stripes();
    let c = LiveCluster::start(vec![cfg; NODES]);
    let spec = OpenLoopSpec {
        arrival_rate: 100_000.0,
        txns,
        max_in_flight: in_flight,
        queue_cap: if saturation { 64 } else { txns },
        zipf_theta: 0.99,
        tenants: 8,
        keys_per_tenant: 1_000,
        reply_timeout: Duration::from_secs(60),
        key_prefix: format!("sc{lanes}x{in_flight}"),
        seed: 42,
    };
    let report = c.run_open_loop(&spec);
    assert!(c.quiesce(Duration::from_secs(30)), "cluster must quiesce");
    c.shutdown();
    if saturation {
        assert!(
            report.rejected > 0,
            "saturation cell must show explicit rejections"
        );
        assert!(report.max_queue_depth <= spec.queue_cap);
    } else {
        assert_eq!(report.rejected, 0, "scale cells size the queue to fit");
    }
    ScalePoint {
        lanes,
        stripes,
        in_flight,
        offered_rate: spec.arrival_rate,
        saturation,
        report,
    }
}

/// Kills a subordinate in its in-doubt window (right after its forced
/// Prepared record, frame 2) under a real file-WAL configuration, holds
/// the outage, restarts it, and reads the failure-path telemetry back
/// from the victim's summary. The single-lane cell runs over TCP; the
/// sharded cells run over channels (the TCP harness is one lane per
/// node) and exercise the shared-WAL replay that repartitions recovered
/// transactions to their owning lanes.
fn run_failure_case(protocol: ProtocolKind, lanes: usize, quick: bool) -> FailureMeasurement {
    use tpc_common::{NodeId, Op};
    let outage = Duration::from_millis(if quick { 30 } else { 100 });
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "../../target/bench-failure-{}-{protocol:?}-{lanes}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let timeouts = tpc_core::Timeouts {
        vote_collection: SimDuration::from_millis(500),
        ack_collection: SimDuration::from_millis(150),
        in_doubt_query: SimDuration::from_millis(200),
    };
    let cfg = || {
        LiveNodeConfig::new(protocol)
            .with_observability()
            .with_file_log(&dir)
            .with_lanes(lanes)
            .with_timeouts(timeouts)
    };
    let root = NodeId(0);
    let victim = NodeId(1);

    let (s, restart_to_recovered) = if lanes == 1 {
        let mut c = TcpCluster::start(vec![cfg(), cfg().kill_after_frames(2), cfg()])
            .expect("bind loopback")
            .with_reply_timeout(Duration::from_secs(30));
        let t = c.begin(root);
        t.work(victim, vec![Op::put("fp/a", "1")]);
        t.work(NodeId(2), vec![Op::put("fp/b", "2")]);
        let wait = t.commit_async();
        c.await_death(victim, Duration::from_secs(10))
            .expect("victim dies after voting");
        std::thread::sleep(outage);
        let restarted = std::time::Instant::now();
        c.restart(victim).expect("restart from WAL");
        wait.wait_with(Duration::from_secs(30))
            .expect("root answers");
        assert!(c.quiesce(Duration::from_secs(30)), "must quiesce");
        let elapsed = restarted.elapsed();
        let s = c.summary(victim).expect("victim summary");
        c.shutdown();
        (s, elapsed)
    } else {
        let mut c = LiveCluster::start(vec![cfg(), cfg().kill_after_frames(2), cfg()])
            .with_reply_timeout(Duration::from_secs(30));
        let t = c.begin(root);
        t.work(victim, vec![Op::put("fp/a", "1")]);
        t.work(NodeId(2), vec![Op::put("fp/b", "2")]);
        let wait = t.commit_async();
        c.await_death(victim, Duration::from_secs(10))
            .expect("victim dies after voting");
        std::thread::sleep(outage);
        let restarted = std::time::Instant::now();
        c.restart(victim).expect("restart from the shared WAL");
        wait.wait(Duration::from_secs(30)).expect("root answers");
        assert!(c.quiesce(Duration::from_secs(30)), "must quiesce");
        let elapsed = restarted.elapsed();
        let s = c.summary(victim).expect("victim summary");
        c.shutdown();
        (s, elapsed)
    };

    let obs = s.obs.expect("observability was on");
    let recovery = s.recovery.expect("restart recorded recovery stats");
    let _ = std::fs::remove_dir_all(&dir);
    FailureMeasurement {
        protocol,
        lanes,
        transport: if lanes == 1 { "tcp" } else { "channel" },
        outage,
        in_doubt: obs.in_doubt,
        recovery,
        restart_to_recovered,
    }
}

fn run_case(case: Case, spec: &WorkloadSpec) -> Measurement {
    let gc = case.group_commit.then(|| GroupCommitConfig {
        batch_size: spec.concurrency.max(2),
        max_wait: SimDuration::from_millis(2),
        adaptive: false,
    });
    let mut cfg = LiveNodeConfig::new(case.protocol)
        .with_opts(case.opts())
        .with_group_commit(gc)
        .with_observability();
    // Log files go under target/ so fsync hits the real filesystem the
    // build uses, not a tmpfs that would flatter the numbers.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "../../target/bench-throughput-{}",
        std::process::id()
    ));
    if case.wal_backend.durable() {
        let _ = std::fs::remove_dir_all(&dir);
        cfg = match case.wal_backend {
            WalBackend::File => cfg.with_file_log(&dir),
            WalBackend::Segmented => cfg.with_segmented_log(&dir),
            WalBackend::Mem => unreachable!(),
        };
    }
    let configs = vec![cfg; NODES];
    let (report, summaries) = if case.tcp {
        let c = TcpCluster::start(configs).expect("bind loopback");
        let report = c.run_workload(spec);
        assert!(c.quiesce(Duration::from_secs(30)), "cluster must quiesce");
        (report, c.shutdown())
    } else {
        let c = LiveCluster::start(configs);
        let report = c.run_workload(spec);
        assert!(c.quiesce(Duration::from_secs(30)), "cluster must quiesce");
        (report, c.shutdown())
    };
    if case.wal_backend.durable() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(report.failed, 0, "throughput run must not drop requests");
    let agg = |f: fn(&NodeSummary) -> u64| summaries.iter().map(f).sum();
    let obs = ObsSnapshot::merged(summaries.iter().filter_map(|s| s.obs.as_ref()));
    Measurement {
        case,
        report,
        log_forces: agg(|s| s.log.forced_writes),
        physical_flushes: agg(|s| s.log.physical_flushes),
        group_requests: agg(|s| s.group.requests),
        group_flushes: agg(|s| s.group.flushes),
        obs,
    }
}

/// Renders one phase's histogram as a JSON object. Phases with no
/// samples (e.g. `group_flush` with group commit off) render with a
/// zero count so every config carries the same columns.
fn phase_json(obs: &ObsSnapshot, phase: Phase) -> String {
    match obs.phase(phase) {
        Some(h) => format!(
            "{{ \"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {} }}",
            h.count,
            h.p50(),
            h.p99(),
            h.max
        ),
        None => "{ \"count\": 0, \"p50\": 0, \"p99\": 0, \"max\": 0 }".to_string(),
    }
}

fn render_json(
    quick: bool,
    spec: &WorkloadSpec,
    measurements: &[Measurement],
    scale: &[ScalePoint],
    failures: &[FailureMeasurement],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"throughput\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(
        s,
        "  \"spec\": {{ \"nodes\": {NODES}, \"concurrency\": {}, \"txns\": {} }},",
        spec.concurrency, spec.txns
    );
    s.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let c = &m.case;
        let l = &m.report.latency;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"protocol\": \"{:?}\",", c.protocol);
        let _ = writeln!(
            s,
            "      \"transport\": \"{}\",",
            if c.tcp { "tcp" } else { "channel" }
        );
        // `log` repeats `wal_backend` for readers of the old schema.
        let _ = writeln!(s, "      \"log\": \"{}\",", c.wal_backend.name());
        let _ = writeln!(s, "      \"wal_backend\": \"{}\",", c.wal_backend.name());
        let _ = writeln!(s, "      \"group_commit\": {},", c.group_commit);
        let _ = writeln!(s, "      \"optimizations\": \"{}\",", c.optimizations);
        let _ = writeln!(s, "      \"committed\": {},", m.report.committed);
        let _ = writeln!(s, "      \"aborted\": {},", m.report.aborted);
        let _ = writeln!(s, "      \"failed\": {},", m.report.failed);
        let _ = writeln!(
            s,
            "      \"elapsed_ms\": {:.3},",
            m.report.elapsed.as_secs_f64() * 1e3
        );
        let _ = writeln!(s, "      \"txns_per_sec\": {:.1},", m.report.txns_per_sec());
        let _ = writeln!(
            s,
            "      \"latency_us\": {{ \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }},",
            l.mean_us, l.p50_us, l.p95_us, l.p99_us, l.max_us
        );
        let _ = writeln!(s, "      \"phase_latency_us\": {{");
        let phases = [
            Phase::Work,
            Phase::Prepare,
            Phase::Decision,
            Phase::Ack,
            Phase::Fsync,
            Phase::GroupFlush,
        ];
        for (j, p) in phases.iter().enumerate() {
            let _ = writeln!(
                s,
                "        \"{p}\": {}{}",
                phase_json(&m.obs, *p),
                if j + 1 < phases.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "      }},");
        let _ = writeln!(s, "      \"log_forces\": {},", m.log_forces);
        let _ = writeln!(s, "      \"physical_flushes\": {},", m.physical_flushes);
        let _ = writeln!(s, "      \"group_requests\": {},", m.group_requests);
        let _ = writeln!(s, "      \"group_flushes\": {}", m.group_flushes);
        s.push_str(if i + 1 < measurements.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ],\n");
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    s.push_str("  \"scale_curve\": [\n");
    for (i, p) in scale.iter().enumerate() {
        let r = &p.report;
        let l = &r.latency;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"lanes\": {},", p.lanes);
        let _ = writeln!(s, "      \"stripes\": {},", p.stripes);
        let _ = writeln!(s, "      \"in_flight\": {},", p.in_flight);
        let _ = writeln!(s, "      \"cpus\": {cpus},");
        let _ = writeln!(s, "      \"saturation\": {},", p.saturation);
        let _ = writeln!(s, "      \"offered_rate\": {:.1},", p.offered_rate);
        let _ = writeln!(s, "      \"committed\": {},", r.committed);
        let _ = writeln!(s, "      \"aborted\": {},", r.aborted);
        let _ = writeln!(s, "      \"failed\": {},", r.failed);
        let _ = writeln!(s, "      \"rejected\": {},", r.rejected);
        let _ = writeln!(s, "      \"max_queue_depth\": {},", r.max_queue_depth);
        let _ = writeln!(s, "      \"max_in_flight_seen\": {},", r.max_in_flight_seen);
        let _ = writeln!(
            s,
            "      \"elapsed_ms\": {:.3},",
            r.elapsed.as_secs_f64() * 1e3
        );
        let _ = writeln!(s, "      \"txns_per_sec\": {:.1},", r.txns_per_sec());
        let _ = writeln!(
            s,
            "      \"latency_us\": {{ \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
            l.mean_us, l.p50_us, l.p95_us, l.p99_us, l.max_us
        );
        s.push_str(if i + 1 < scale.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ],\n");
    // The driver-side timeline of the saturation cell: per-window
    // throughput, tail latency and queue depths — the time axis the
    // aggregate saturation row flattens away. Windows with no activity
    // are skipped.
    if let Some(sat) = scale.iter().find(|p| p.saturation) {
        let t = &sat.report.timeline;
        s.push_str("  \"timeline\": {\n");
        let _ = writeln!(s, "    \"cell\": \"saturation\",");
        let _ = writeln!(s, "    \"window_us\": {},", t.window_us);
        let _ = writeln!(s, "    \"late_drops\": {},", t.late_drops);
        s.push_str("    \"windows\": [\n");
        let window_sec = t.window_us as f64 / 1e6;
        let active: Vec<_> = t
            .windows
            .iter()
            .filter(|w| w.counters.iter().any(|&c| c > 0) || w.gauges.iter().any(|g| g.count > 0))
            .collect();
        for (i, w) in active.iter().enumerate() {
            let committed = w.counter(TimelineCounter::Committed);
            let _ = writeln!(
                s,
                "      {{ \"start_us\": {}, \"committed\": {}, \"aborted\": {}, \"rejected\": {}, \
                 \"tps\": {:.1}, \"commit_p99_us\": {}, \"admit_queue_max\": {}, \"in_flight_max\": {} }}{}",
                w.start_us,
                committed,
                w.counter(TimelineCounter::Aborted),
                w.counter(TimelineCounter::Rejected),
                committed as f64 / window_sec,
                w.hist(TimelineHist::Commit).p99(),
                w.gauge(TimelineGauge::AdmitQueue).max,
                w.gauge(TimelineGauge::InFlight).max,
                if i + 1 < active.len() { "," } else { "" }
            );
        }
        s.push_str("    ]\n");
        s.push_str("  },\n");
    }
    s.push_str("  \"failure_path\": [\n");
    for (i, f) in failures.iter().enumerate() {
        let r = &f.recovery;
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"protocol\": \"{:?}\",", f.protocol);
        let _ = writeln!(s, "      \"lanes\": {},", f.lanes);
        let _ = writeln!(s, "      \"transport\": \"{}\",", f.transport);
        let _ = writeln!(s, "      \"log\": \"file\",");
        let _ = writeln!(s, "      \"outage_ms\": {},", f.outage.as_millis());
        let _ = writeln!(
            s,
            "      \"in_doubt_us\": {{ \"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {} }},",
            f.in_doubt.count,
            f.in_doubt.p50(),
            f.in_doubt.p99(),
            f.in_doubt.max
        );
        let _ = writeln!(
            s,
            "      \"recovery\": {{ \"wal_records\": {}, \"wal_scan_us\": {}, \"in_doubt\": {}, \"queries_sent\": {}, \"redrives\": {}, \"interrupted_vote_aborts\": {} }},",
            r.wal_records_scanned,
            r.wal_scan_us,
            r.in_doubt_recovered,
            r.queries_sent,
            r.redrives,
            r.interrupted_vote_aborts
        );
        let _ = writeln!(
            s,
            "      \"restart_to_recovered_ms\": {:.3}",
            f.restart_to_recovered.as_secs_f64() * 1e3
        );
        s.push_str(if i + 1 < failures.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}
