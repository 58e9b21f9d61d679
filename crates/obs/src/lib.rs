//! Observability layer shared by the simulator and the live runtime.
//!
//! The paper's whole argument is an accounting one — commit cost is message
//! flows plus forced log writes — and this crate is the measurement
//! instrument for it: lock-free counters, log2-bucketed latency histograms
//! (p50/p90/p99/max), and per-transaction phase spans (work → prepare →
//! decision → ack, plus fsync and group-commit flush timing).
//!
//! Both harnesses feed the same [`Obs`] recorder through the driver layer,
//! so a phase breakdown from the discrete-event simulator and one from a
//! real TCP cluster are directly comparable. Everything is cheap enough to
//! leave on in benchmarks and free when absent (the driver holds an
//! `Option<Arc<Obs>>` and skips all of this on `None`).
//!
//! Exports:
//! - [`render_prometheus`] — Prometheus text exposition format 0.0.4
//! - [`render_chrome_trace`] — `chrome://tracing` / Perfetto JSON
//! - [`ObsSnapshot`] — plain-data snapshot for reports and benches

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod histogram;
pub mod prometheus;
pub mod span;
pub mod timeline;
pub mod trace_json;

pub use flight::{
    render_flight_json, render_flight_text, FlightEvent, FlightKind, FlightRecorder, FLIGHT_CAP,
};
pub use histogram::{Histogram, HistogramSnapshot};
pub use prometheus::{render_prometheus, NodeExport};
pub use span::{Phase, Span};
pub use timeline::{
    render_timeline_json, GaugeStat, Timeline, TimelineCounter, TimelineGauge, TimelineSnapshot,
    WindowSnapshot,
};
pub use trace_json::render_chrome_trace;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tpc_common::{SimTime, TxnId};

/// Upper bound on buffered spans per node; beyond it new spans are counted
/// but dropped so long benches cannot grow memory without bound.
pub const SPAN_BUFFER_CAP: usize = 4096;

/// Per-node observability recorder.
///
/// One `Obs` is shared (via `Arc`) between a node's driver and its host.
/// All hot-path operations are wait-free atomics; only span capture takes a
/// mutex, and only when tracing is enabled.
pub struct Obs {
    phases: [Histogram; Phase::ALL.len()],
    tracing: AtomicBool,
    spans: Mutex<Vec<Span>>,
    dropped_spans: Histogram,
    /// Transactions currently prepared-but-undecided at this node, with
    /// the time each entered the window (paper §1: the blocking exposure
    /// 2PC is judged by).
    in_doubt_open: Mutex<HashMap<TxnId, SimTime>>,
    /// Closed in-doubt window durations, microseconds.
    in_doubt: Histogram,
    in_doubt_entered: AtomicU64,
    in_doubt_resolved: AtomicU64,
    /// Optional windowed view of the same telemetry (see [`Timeline`]).
    timeline: Option<Arc<Timeline>>,
    /// Optional crash flight recorder (see [`FlightRecorder`]).
    flight: Option<Arc<FlightRecorder>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// New recorder with tracing off (histograms always record).
    pub fn new() -> Self {
        Obs {
            phases: std::array::from_fn(|_| Histogram::new()),
            tracing: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            dropped_spans: Histogram::new(),
            in_doubt_open: Mutex::new(HashMap::new()),
            in_doubt: Histogram::new(),
            in_doubt_entered: AtomicU64::new(0),
            in_doubt_resolved: AtomicU64::new(0),
            timeline: None,
            flight: None,
        }
    }

    /// Attach a windowed timeline: [`Obs::record_at`] / [`Obs::record_span`]
    /// and the in-doubt transitions will feed it alongside the cumulative
    /// histograms. Builder-style, called before the `Obs` is shared.
    pub fn with_timeline(mut self, timeline: Arc<Timeline>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Attach a flight recorder: in-doubt transitions auto-record, and
    /// hosts reach it via [`Obs::flight`] for decision/force/health events.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The attached timeline, if any.
    pub fn timeline(&self) -> Option<&Arc<Timeline>> {
        self.timeline.as_ref()
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Enable or disable span capture. Histograms are unaffected.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether span capture is currently on.
    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Record a completed phase duration (microseconds) into its histogram.
    ///
    /// Cumulative only — prefer [`Obs::record_at`] when a clock reading is
    /// available so the timeline window sees the sample too.
    pub fn record(&self, phase: Phase, micros: u64) {
        self.phases[phase as usize].record(micros);
    }

    /// Record a phase duration into both the cumulative histogram and the
    /// timeline window containing `now` (if a timeline is attached).
    pub fn record_at(&self, phase: Phase, micros: u64, now: SimTime) {
        self.record(phase, micros);
        if let Some(t) = &self.timeline {
            t.record_phase(phase, micros, now);
        }
    }

    /// Record a phase duration and, if tracing, capture the span itself.
    /// The span's end time places it on the timeline.
    pub fn record_span(&self, span: Span) {
        let micros = span.end.since(span.start).as_micros();
        self.record(span.phase, micros);
        if let Some(t) = &self.timeline {
            t.record_phase(span.phase, micros, span.end);
        }
        if self.tracing() {
            let mut buf = self.spans.lock().expect("span buffer poisoned");
            if buf.len() < SPAN_BUFFER_CAP {
                buf.push(span);
            } else {
                self.dropped_spans.record(1);
            }
        }
    }

    /// Histogram for one phase (live handle, not a snapshot).
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize]
    }

    /// The transaction entered the in-doubt window (its Prepared record is
    /// durable, no outcome yet). Idempotent: re-entering an already-open
    /// window keeps the original entry time, so recovery replaying a
    /// Prepared record cannot shrink a window that survived a crash.
    pub fn in_doubt_enter(&self, txn: TxnId, at: SimTime) {
        let entered = {
            let mut open = self.in_doubt_open.lock().expect("in-doubt map poisoned");
            if let std::collections::hash_map::Entry::Vacant(v) = open.entry(txn) {
                v.insert(at);
                self.in_doubt_entered.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        };
        if entered {
            if let Some(t) = &self.timeline {
                t.inc(TimelineCounter::InDoubtEntered, 1, at);
            }
            if let Some(f) = &self.flight {
                f.record(
                    FlightKind::InDoubtEnter,
                    at,
                    Some(txn),
                    "prepared, undecided",
                );
            }
        }
    }

    /// The transaction's outcome became known locally: close the window
    /// and record its duration. A no-op if the window was never opened
    /// (coordinators decide without ever being in doubt).
    pub fn in_doubt_resolve(&self, txn: TxnId, at: SimTime) {
        let entered = {
            let mut open = self.in_doubt_open.lock().expect("in-doubt map poisoned");
            open.remove(&txn)
        };
        if let Some(start) = entered {
            self.in_doubt_resolved.fetch_add(1, Ordering::Relaxed);
            let window = micros_between(start, at);
            self.in_doubt.record(window);
            if let Some(t) = &self.timeline {
                t.inc(TimelineCounter::InDoubtResolved, 1, at);
            }
            if let Some(f) = &self.flight {
                f.record(
                    FlightKind::InDoubtResolve,
                    at,
                    Some(txn),
                    format!("window {window}us"),
                );
            }
        }
    }

    /// Number of transactions currently sitting in doubt.
    pub fn in_doubt_current(&self) -> u64 {
        self.in_doubt_open
            .lock()
            .expect("in-doubt map poisoned")
            .len() as u64
    }

    /// Copy-out of every histogram and buffered span. Open in-doubt ages
    /// are reported as zero; use [`Obs::snapshot_at`] when a current clock
    /// reading is available.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.snapshot_at(SimTime::ZERO)
    }

    /// Copy-out including in-doubt gauges evaluated at `now` (the harness
    /// clock: virtual in the sim, µs since epoch live). The oldest-age
    /// gauge saturates to zero if `now` precedes an entry time.
    pub fn snapshot_at(&self, now: SimTime) -> ObsSnapshot {
        let (current, oldest_age) = {
            let open = self.in_doubt_open.lock().expect("in-doubt map poisoned");
            let oldest = open
                .values()
                .min()
                .map(|entered| micros_between(*entered, now))
                .unwrap_or(0);
            (open.len() as u64, oldest)
        };
        ObsSnapshot {
            phases: Phase::ALL
                .iter()
                .map(|p| (*p, self.phases[*p as usize].snapshot()))
                .collect(),
            spans: self.spans.lock().expect("span buffer poisoned").clone(),
            dropped_spans: self.dropped_spans.snapshot().count,
            in_doubt: self.in_doubt.snapshot(),
            in_doubt_current: current,
            in_doubt_oldest_age_us: oldest_age,
            in_doubt_entered: self.in_doubt_entered.load(Ordering::Relaxed),
            in_doubt_resolved: self.in_doubt_resolved.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of an [`Obs`] at a point in time.
///
/// This is what travels in `NodeSummary` / sim reports; it has no atomics
/// and can be merged across nodes for cluster-wide percentiles.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    /// Per-phase histogram snapshots, in [`Phase::ALL`] order.
    pub phases: Vec<(Phase, HistogramSnapshot)>,
    /// Captured spans (empty unless tracing was enabled).
    pub spans: Vec<Span>,
    /// Spans dropped because the buffer was full.
    pub dropped_spans: u64,
    /// Closed in-doubt window durations (µs): time spent
    /// prepared-but-undecided per transaction at this node.
    pub in_doubt: HistogramSnapshot,
    /// Transactions in doubt at snapshot time (a gauge; sums on merge).
    pub in_doubt_current: u64,
    /// Age of the oldest open in-doubt window at snapshot time, µs
    /// (zero when none are open or the snapshot had no clock reading).
    pub in_doubt_oldest_age_us: u64,
    /// Total in-doubt windows ever opened.
    pub in_doubt_entered: u64,
    /// Total in-doubt windows resolved (closed by a real outcome).
    pub in_doubt_resolved: u64,
}

impl ObsSnapshot {
    /// Snapshot of one phase, if it recorded anything.
    pub fn phase(&self, phase: Phase) -> Option<&HistogramSnapshot> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, h)| h)
            .filter(|h| h.count > 0)
    }

    /// Merge another node's snapshot into this one (histograms add
    /// bucket-wise; spans concatenate).
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (phase, theirs) in &other.phases {
            match self.phases.iter_mut().find(|(p, _)| p == phase) {
                Some((_, ours)) => ours.merge(theirs),
                None => self.phases.push((*phase, theirs.clone())),
            }
        }
        self.spans.extend(other.spans.iter().cloned());
        self.dropped_spans += other.dropped_spans;
        self.in_doubt.merge(&other.in_doubt);
        self.in_doubt_current += other.in_doubt_current;
        self.in_doubt_oldest_age_us = self
            .in_doubt_oldest_age_us
            .max(other.in_doubt_oldest_age_us);
        self.in_doubt_entered += other.in_doubt_entered;
        self.in_doubt_resolved += other.in_doubt_resolved;
    }

    /// Merge many per-node snapshots into one cluster-wide view.
    pub fn merged<'a>(snaps: impl IntoIterator<Item = &'a ObsSnapshot>) -> ObsSnapshot {
        let mut out = ObsSnapshot::default();
        for s in snaps {
            out.merge(s);
        }
        out
    }

    /// All spans belonging to one transaction, ordered by start time.
    pub fn txn_spans(&self, txn: tpc_common::TxnId) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| s.txn == txn)
            .cloned()
            .collect();
        spans.sort_by_key(|s| (s.start, s.end));
        spans
    }
}

/// Convenience: duration between two [`SimTime`]s in microseconds,
/// saturating at zero if the clock went backwards.
pub fn micros_between(start: SimTime, end: SimTime) -> u64 {
    end.since(start).as_micros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::{NodeId, TxnId};

    fn span(phase: Phase, start: u64, end: u64) -> Span {
        Span {
            txn: TxnId::new(NodeId(0), 1),
            node: NodeId(0),
            phase,
            start: SimTime(start),
            end: SimTime(end),
            seat: 1,
            parent: None,
        }
    }

    #[test]
    fn record_span_feeds_histogram() {
        let obs = Obs::new();
        obs.record_span(span(Phase::Prepare, 100, 350));
        let snap = obs.snapshot();
        let h = snap.phase(Phase::Prepare).expect("prepare recorded");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 250);
        // Tracing was off: no span captured.
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn tracing_captures_spans_until_cap() {
        let obs = Obs::new();
        obs.set_tracing(true);
        for i in 0..SPAN_BUFFER_CAP + 10 {
            obs.record_span(span(Phase::Ack, i as u64, i as u64 + 1));
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), SPAN_BUFFER_CAP);
        assert_eq!(snap.dropped_spans, 10);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Obs::new();
        let b = Obs::new();
        a.record(Phase::Fsync, 100);
        b.record(Phase::Fsync, 200);
        b.record(Phase::Decision, 5);
        let merged = ObsSnapshot::merged([&a.snapshot(), &b.snapshot()]);
        assert_eq!(merged.phase(Phase::Fsync).unwrap().count, 2);
        assert_eq!(merged.phase(Phase::Decision).unwrap().count, 1);
        assert!(merged.phase(Phase::Work).is_none());
    }

    #[test]
    fn txn_spans_filters_and_sorts() {
        let obs = Obs::new();
        obs.set_tracing(true);
        let t1 = TxnId::new(NodeId(0), 1);
        let t2 = TxnId::new(NodeId(0), 2);
        obs.record_span(Span {
            txn: t1,
            node: NodeId(1),
            phase: Phase::Ack,
            start: SimTime(50),
            end: SimTime(60),
            seat: 2,
            parent: Some(1),
        });
        obs.record_span(Span {
            txn: t2,
            node: NodeId(0),
            phase: Phase::Work,
            start: SimTime(0),
            end: SimTime(10),
            seat: 3,
            parent: None,
        });
        obs.record_span(Span {
            txn: t1,
            node: NodeId(0),
            phase: Phase::Work,
            start: SimTime(5),
            end: SimTime(20),
            seat: 1,
            parent: None,
        });
        let spans = obs.snapshot().txn_spans(t1);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start, SimTime(5));
        assert_eq!(spans[1].start, SimTime(50));
    }

    #[test]
    fn in_doubt_window_opens_and_closes() {
        let obs = Obs::new();
        let t = TxnId::new(NodeId(1), 1);
        obs.in_doubt_enter(t, SimTime(100));
        // Re-entry (e.g. recovery replay) keeps the original entry time.
        obs.in_doubt_enter(t, SimTime(500));
        assert_eq!(obs.in_doubt_current(), 1);

        let open = obs.snapshot_at(SimTime(1_100));
        assert_eq!(open.in_doubt_current, 1);
        assert_eq!(open.in_doubt_oldest_age_us, 1_000);
        assert_eq!(open.in_doubt_entered, 1);
        assert_eq!(open.in_doubt_resolved, 0);

        obs.in_doubt_resolve(t, SimTime(2_100));
        let closed = obs.snapshot_at(SimTime(3_000));
        assert_eq!(closed.in_doubt_current, 0);
        assert_eq!(closed.in_doubt_oldest_age_us, 0);
        assert_eq!(closed.in_doubt_resolved, 1);
        assert_eq!(closed.in_doubt.count, 1);
        assert_eq!(closed.in_doubt.sum, 2_000);
    }

    #[test]
    fn in_doubt_resolve_without_entry_is_a_noop() {
        let obs = Obs::new();
        obs.in_doubt_resolve(TxnId::new(NodeId(0), 9), SimTime(50));
        let snap = obs.snapshot();
        assert_eq!(snap.in_doubt.count, 0);
        assert_eq!(snap.in_doubt_resolved, 0);
    }

    #[test]
    fn merge_sums_in_doubt_counters_and_maxes_oldest_age() {
        let a = Obs::new();
        let b = Obs::new();
        a.in_doubt_enter(TxnId::new(NodeId(1), 1), SimTime(0));
        a.in_doubt_resolve(TxnId::new(NodeId(1), 1), SimTime(300));
        a.in_doubt_enter(TxnId::new(NodeId(1), 2), SimTime(900));
        b.in_doubt_enter(TxnId::new(NodeId(2), 1), SimTime(400));
        let merged = ObsSnapshot::merged([
            &a.snapshot_at(SimTime(1_000)),
            &b.snapshot_at(SimTime(1_000)),
        ]);
        assert_eq!(merged.in_doubt_current, 2);
        assert_eq!(merged.in_doubt_entered, 3);
        assert_eq!(merged.in_doubt_resolved, 1);
        assert_eq!(merged.in_doubt.count, 1);
        assert_eq!(merged.in_doubt.sum, 300);
        // a's oldest open window is 100µs old, b's is 600µs.
        assert_eq!(merged.in_doubt_oldest_age_us, 600);
    }
}
