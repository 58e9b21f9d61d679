//! Windowed time-series recorder: the *shape* of a run, not its endpoint.
//!
//! Everything else in `tpc-obs` is cumulative-since-start, which is the
//! right view for the paper's accounting (total forced writes, total
//! message flows) but hides *when* the costs land: saturation onset,
//! group-commit batch dynamics, in-doubt storms. [`Timeline`] fixes that
//! with a fixed ring of per-interval buckets — counter deltas, gauge
//! samples, and full per-window latency histograms — driven entirely by
//! an externally supplied clock ([`SimTime`]): the wall clock in the live
//! runtime, the virtual clock in the simulator. Because no call reads a
//! real clock, two identical sim runs produce byte-identical timelines.
//!
//! Concurrency model: every hot-path operation is atomics-only. A bucket
//! is lazily recycled when the clock first enters a window whose ring slot
//! still holds an older window: the first recorder to notice CAS-claims
//! the slot (epoch → `RESETTING`), zeroes it, and publishes the new window
//! index; racing recorders spin for the handful of stores that takes.
//! Samples for windows that have already been evicted from the ring are
//! counted in `late_drops`, never recorded.
//!
//! The per-window histograms reuse the cumulative [`Histogram`] type
//! bucket-for-bucket, so summing every window of a timeline reproduces the
//! cumulative [`crate::ObsSnapshot`] exactly (property-tested).

use std::sync::atomic::{AtomicU64, Ordering};

use tpc_common::SimTime;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::span::Phase;

/// Bucket slot is empty (never claimed by any window).
const EMPTY: u64 = u64::MAX;
/// Bucket slot is mid-recycle; recorders spin until the claimant publishes.
const RESETTING: u64 = u64::MAX - 1;

/// Monotonically increasing event counters, recorded as per-window deltas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TimelineCounter {
    /// Transactions that committed.
    Committed = 0,
    /// Transactions that aborted.
    Aborted = 1,
    /// Transactions refused by a node degraded to read-only.
    Rejected = 2,
    /// Forced log writes requested.
    Forces = 3,
    /// Group-commit batches flushed.
    GroupFlushes = 4,
    /// In-doubt windows opened.
    InDoubtEntered = 5,
    /// In-doubt windows closed by a real outcome.
    InDoubtResolved = 6,
    /// Storage I/O errors observed.
    IoErrors = 7,
}

impl TimelineCounter {
    /// All counters, bucket-array order.
    pub const ALL: [TimelineCounter; 8] = [
        TimelineCounter::Committed,
        TimelineCounter::Aborted,
        TimelineCounter::Rejected,
        TimelineCounter::Forces,
        TimelineCounter::GroupFlushes,
        TimelineCounter::InDoubtEntered,
        TimelineCounter::InDoubtResolved,
        TimelineCounter::IoErrors,
    ];

    /// Stable lowercase name used in JSON keys and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            TimelineCounter::Committed => "committed",
            TimelineCounter::Aborted => "aborted",
            TimelineCounter::Rejected => "rejected",
            TimelineCounter::Forces => "forces",
            TimelineCounter::GroupFlushes => "group_flushes",
            TimelineCounter::InDoubtEntered => "in_doubt_entered",
            TimelineCounter::InDoubtResolved => "in_doubt_resolved",
            TimelineCounter::IoErrors => "io_errors",
        }
    }
}

/// Instantaneous queue depths and occupancies, sampled into per-window
/// last/max/sum/count statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TimelineGauge {
    /// Lane inbox (driver mailbox) depth.
    LaneInbox = 0,
    /// Group-commit batch occupancy (buffered forces).
    GroupBatch = 1,
    /// WAL force queue: appended records not yet made durable.
    ForceQueue = 2,
    /// TCP sender backlog: frames enqueued but not yet written.
    SendBacklog = 3,
    /// Transactions parked in lock wait queues.
    LockWaiters = 4,
}

impl TimelineGauge {
    /// All gauges, bucket-array order.
    pub const ALL: [TimelineGauge; 5] = [
        TimelineGauge::LaneInbox,
        TimelineGauge::GroupBatch,
        TimelineGauge::ForceQueue,
        TimelineGauge::SendBacklog,
        TimelineGauge::LockWaiters,
    ];

    /// Stable lowercase name used in JSON keys and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            TimelineGauge::LaneInbox => "lane_inbox",
            TimelineGauge::GroupBatch => "group_batch",
            TimelineGauge::ForceQueue => "force_queue",
            TimelineGauge::SendBacklog => "send_backlog",
            TimelineGauge::LockWaiters => "lock_waiters",
        }
    }
}

const COUNTERS: usize = TimelineCounter::ALL.len();
const GAUGES: usize = TimelineGauge::ALL.len();
/// One per-window latency histogram per protocol [`Phase`].
const HISTS: usize = Phase::ALL.len();

/// One sampled-statistics cell for a gauge within a window.
struct GaugeCell {
    last: AtomicU64,
    max: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl GaugeCell {
    fn new() -> Self {
        GaugeCell {
            last: AtomicU64::new(0),
            max: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.last.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    fn sample(&self, value: u64) {
        self.last.store(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> GaugeStat {
        GaugeStat {
            last: self.last.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of one gauge's within-window statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeStat {
    /// Most recent sample.
    pub last: u64,
    /// Largest sample in the window.
    pub max: u64,
    /// Sum of samples (mean = sum / count).
    pub sum: u64,
    /// Number of samples taken in the window.
    pub count: u64,
}

/// One ring slot: the telemetry for a single time window.
struct Bucket {
    /// Window index this slot currently holds, or [`EMPTY`]/[`RESETTING`].
    epoch: AtomicU64,
    counters: [AtomicU64; COUNTERS],
    gauges: [GaugeCell; GAUGES],
    hists: [Histogram; HISTS],
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            epoch: AtomicU64::new(EMPTY),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| GaugeCell::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    fn clear(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.reset();
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

/// Lock-free windowed time-series recorder.
///
/// A fixed ring of `windows` buckets, each `window_us` microseconds wide.
/// The clock is always supplied by the caller, so the sim's virtual clock
/// drives deterministic windows and the live runtime passes µs since the
/// cluster epoch. Retention is `windows × window_us`; older samples are
/// dropped (counted in [`TimelineSnapshot::late_drops`]).
pub struct Timeline {
    window_us: u64,
    ring: Vec<Bucket>,
    late_drops: AtomicU64,
}

impl Timeline {
    /// Ring of `windows` buckets, each `window_us` wide. Both are clamped
    /// to at least 1.
    pub fn new(window_us: u64, windows: usize) -> Self {
        Timeline {
            window_us: window_us.max(1),
            ring: (0..windows.max(1)).map(|_| Bucket::new()).collect(),
            late_drops: AtomicU64::new(0),
        }
    }

    /// Width of one window in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Number of ring slots (maximum retained windows).
    pub fn windows(&self) -> usize {
        self.ring.len()
    }

    /// Resolve the bucket for `now`, recycling its ring slot if the clock
    /// has moved past whatever window the slot last held. Returns `None`
    /// (and counts a late drop) when `now` falls in a window that has
    /// already been evicted from the ring.
    fn bucket_at(&self, now: SimTime) -> Option<&Bucket> {
        let w = now.0 / self.window_us;
        let bucket = &self.ring[(w as usize) % self.ring.len()];
        loop {
            let e = bucket.epoch.load(Ordering::Acquire);
            if e == w {
                return Some(bucket);
            }
            if e == RESETTING {
                std::hint::spin_loop();
                continue;
            }
            if e != EMPTY && e > w {
                // The slot was already recycled for a newer window: this
                // sample's window is gone from the ring.
                self.late_drops.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // Slot holds an older window (or nothing): claim and recycle.
            if bucket
                .epoch
                .compare_exchange(e, RESETTING, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                bucket.clear();
                bucket.epoch.store(w, Ordering::Release);
                return Some(bucket);
            }
        }
    }

    /// Add `delta` to a counter in the window containing `now`.
    pub fn inc(&self, counter: TimelineCounter, delta: u64, now: SimTime) {
        if let Some(b) = self.bucket_at(now) {
            b.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sample a gauge value into the window containing `now`.
    pub fn gauge(&self, gauge: TimelineGauge, value: u64, now: SimTime) {
        if let Some(b) = self.bucket_at(now) {
            b.gauges[gauge as usize].sample(value);
        }
    }

    /// Record a phase latency into the window containing `now`.
    pub fn record_phase(&self, phase: Phase, micros: u64, now: SimTime) {
        if let Some(b) = self.bucket_at(now) {
            b.hists[phase as usize].record(micros);
        }
    }

    /// Copy-out of every live window, oldest first. `now` only brands the
    /// snapshot (`now_us`); it does not advance or recycle any bucket.
    pub fn snapshot(&self, now: SimTime) -> TimelineSnapshot {
        let mut windows: Vec<WindowSnapshot> = self
            .ring
            .iter()
            .filter_map(|b| {
                let e = b.epoch.load(Ordering::Acquire);
                if e == EMPTY || e == RESETTING {
                    return None;
                }
                Some(WindowSnapshot {
                    index: e,
                    start_us: e * self.window_us,
                    counters: std::array::from_fn(|i| b.counters[i].load(Ordering::Relaxed)),
                    gauges: std::array::from_fn(|i| b.gauges[i].snapshot()),
                    hists: std::array::from_fn(|i| b.hists[i].snapshot()),
                })
            })
            .collect();
        windows.sort_by_key(|w| w.index);
        TimelineSnapshot {
            window_us: self.window_us,
            now_us: now.0,
            late_drops: self.late_drops.load(Ordering::Relaxed),
            windows,
        }
    }
}

/// Plain-data copy of one window's telemetry.
#[derive(Clone, Debug)]
pub struct WindowSnapshot {
    /// Window index (`start_us / window_us`).
    pub index: u64,
    /// Window start on the harness clock, microseconds.
    pub start_us: u64,
    /// Counter deltas accumulated in this window, [`TimelineCounter::ALL`] order.
    pub counters: [u64; COUNTERS],
    /// Gauge statistics, [`TimelineGauge::ALL`] order.
    pub gauges: [GaugeStat; GAUGES],
    /// Phase latency histograms, [`Phase::ALL`] order.
    pub hists: [HistogramSnapshot; HISTS],
}

impl WindowSnapshot {
    /// Counter delta for this window.
    pub fn counter(&self, c: TimelineCounter) -> u64 {
        self.counters[c as usize]
    }

    /// Gauge statistics for this window.
    pub fn gauge(&self, g: TimelineGauge) -> GaugeStat {
        self.gauges[g as usize]
    }

    /// One phase's latency histogram for this window.
    pub fn hist(&self, phase: Phase) -> &HistogramSnapshot {
        &self.hists[phase as usize]
    }
}

/// Plain-data copy of a [`Timeline`]: what travels in node summaries and
/// renders as the `/timeline` endpoint.
#[derive(Clone, Debug, Default)]
pub struct TimelineSnapshot {
    /// Window width, microseconds.
    pub window_us: u64,
    /// Harness clock reading when the snapshot was taken, microseconds.
    pub now_us: u64,
    /// Samples dropped because their window had left the ring.
    pub late_drops: u64,
    /// Live windows, oldest first.
    pub windows: Vec<WindowSnapshot>,
}

impl TimelineSnapshot {
    /// Sum of a counter across every retained window.
    pub fn counter_total(&self, c: TimelineCounter) -> u64 {
        self.windows.iter().map(|w| w.counter(c)).sum()
    }

    /// Bucket-wise merge of one phase histogram across every retained
    /// window. With a ring large enough that nothing was evicted, this
    /// equals the cumulative histogram exactly.
    pub fn hist_total(&self, phase: Phase) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for w in &self.windows {
            out.merge(w.hist(phase));
        }
        out
    }

    /// Merge another node's timeline into this one, window-by-window
    /// (matched on window index; both sides must share `window_us`).
    pub fn merge(&mut self, other: &TimelineSnapshot) {
        self.late_drops += other.late_drops;
        self.now_us = self.now_us.max(other.now_us);
        if self.window_us == 0 {
            self.window_us = other.window_us;
        }
        for theirs in &other.windows {
            match self.windows.iter_mut().find(|w| w.index == theirs.index) {
                Some(ours) => {
                    for i in 0..COUNTERS {
                        ours.counters[i] += theirs.counters[i];
                    }
                    for i in 0..GAUGES {
                        let (a, b) = (&mut ours.gauges[i], &theirs.gauges[i]);
                        a.last = a.last.max(b.last);
                        a.max = a.max.max(b.max);
                        a.sum += b.sum;
                        a.count += b.count;
                    }
                    for i in 0..HISTS {
                        ours.hists[i].merge(&theirs.hists[i]);
                    }
                }
                None => self.windows.push(theirs.clone()),
            }
        }
        self.windows.sort_by_key(|w| w.index);
    }
}

/// Deterministic JSON rendering of a timeline snapshot: integer-only,
/// fixed key order, no whitespace variation — two byte-identical
/// snapshots render to byte-identical strings.
pub fn render_timeline_json(snap: &TimelineSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"window_us\":{},\"now_us\":{},\"late_drops\":{},\"windows\":[",
        snap.window_us, snap.now_us, snap.late_drops
    );
    for (wi, w) in snap.windows.iter().enumerate() {
        if wi > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{},\"start_us\":{},\"counters\":{{",
            w.index, w.start_us
        );
        for (i, c) in TimelineCounter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name(), w.counter(*c));
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in TimelineGauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = w.gauge(*g);
            let _ = write!(
                out,
                "\"{}\":{{\"last\":{},\"max\":{},\"sum\":{},\"count\":{}}}",
                g.name(),
                s.last,
                s.max,
                s.sum,
                s.count
            );
        }
        out.push_str("},\"latency\":{");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = w.hist(*p);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                p.name(),
                s.count,
                s.sum,
                s.p50(),
                s.p99(),
                s.max
            );
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_clock() {
        let t = Timeline::new(1_000, 8);
        t.inc(TimelineCounter::Committed, 1, SimTime(0));
        t.inc(TimelineCounter::Committed, 1, SimTime(999));
        t.inc(TimelineCounter::Committed, 1, SimTime(1_000));
        t.inc(TimelineCounter::Committed, 2, SimTime(5_500));
        let snap = t.snapshot(SimTime(6_000));
        assert_eq!(snap.windows.len(), 3);
        assert_eq!(snap.windows[0].index, 0);
        assert_eq!(snap.windows[0].counter(TimelineCounter::Committed), 2);
        assert_eq!(snap.windows[1].index, 1);
        assert_eq!(snap.windows[1].counter(TimelineCounter::Committed), 1);
        assert_eq!(snap.windows[2].index, 5);
        assert_eq!(snap.windows[2].counter(TimelineCounter::Committed), 2);
        assert_eq!(snap.counter_total(TimelineCounter::Committed), 5);
        assert_eq!(snap.late_drops, 0);
    }

    #[test]
    fn ring_recycles_and_drops_late_samples() {
        let t = Timeline::new(100, 4);
        t.inc(TimelineCounter::Forces, 1, SimTime(0)); // window 0, slot 0
        t.inc(TimelineCounter::Forces, 7, SimTime(450)); // window 4 recycles slot 0
        let snap = t.snapshot(SimTime(500));
        assert_eq!(snap.windows.len(), 1);
        assert_eq!(snap.windows[0].index, 4);
        assert_eq!(snap.windows[0].counter(TimelineCounter::Forces), 7);
        // Window 0 left the ring: its samples are dropped, not misfiled.
        t.inc(TimelineCounter::Forces, 9, SimTime(50));
        let snap = t.snapshot(SimTime(500));
        assert_eq!(snap.counter_total(TimelineCounter::Forces), 7);
        assert_eq!(snap.late_drops, 1);
    }

    #[test]
    fn gauge_stats_track_last_max_mean() {
        let t = Timeline::new(1_000, 4);
        for (v, at) in [(3u64, 10u64), (9, 20), (1, 30)] {
            t.gauge(TimelineGauge::LaneInbox, v, SimTime(at));
        }
        let snap = t.snapshot(SimTime(100));
        let g = snap.windows[0].gauge(TimelineGauge::LaneInbox);
        assert_eq!(g.last, 1);
        assert_eq!(g.max, 9);
        assert_eq!(g.sum, 13);
        assert_eq!(g.count, 3);
    }

    #[test]
    fn window_hist_totals_match_one_big_histogram() {
        let t = Timeline::new(500, 16);
        let all = Histogram::new();
        for i in 0..200u64 {
            let v = (i * 37) % 4096;
            t.record_phase(Phase::Prepare, v, SimTime(i * 20));
            all.record(v);
        }
        let merged = t.snapshot(SimTime(4_000)).hist_total(Phase::Prepare);
        let expect = all.snapshot();
        assert_eq!(merged.buckets, expect.buckets);
        assert_eq!(merged.count, expect.count);
        assert_eq!(merged.sum, expect.sum);
        assert_eq!(merged.max, expect.max);
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let t = Timeline::new(1_000, 4);
        t.inc(TimelineCounter::Committed, 3, SimTime(100));
        t.gauge(TimelineGauge::LaneInbox, 5, SimTime(200));
        t.record_phase(Phase::Decision, 250, SimTime(300));
        let a = render_timeline_json(&t.snapshot(SimTime(1_000)));
        let b = render_timeline_json(&t.snapshot(SimTime(1_000)));
        assert_eq!(a, b);
        assert!(a.contains("\"window_us\":1000"));
        assert!(a.contains("\"committed\":3"));
        assert!(a.contains("\"lane_inbox\":{\"last\":5"));
        assert!(a.contains("\"decision\":{\"count\":1,\"sum\":250"));
    }

    #[test]
    fn merge_aligns_on_window_index() {
        let a = Timeline::new(1_000, 8);
        let b = Timeline::new(1_000, 8);
        a.inc(TimelineCounter::Committed, 2, SimTime(500));
        b.inc(TimelineCounter::Committed, 3, SimTime(700));
        b.inc(TimelineCounter::Aborted, 1, SimTime(2_500));
        let mut m = a.snapshot(SimTime(3_000));
        m.merge(&b.snapshot(SimTime(3_000)));
        assert_eq!(m.windows.len(), 2);
        assert_eq!(m.windows[0].counter(TimelineCounter::Committed), 5);
        assert_eq!(m.windows[1].counter(TimelineCounter::Aborted), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_live_windows() {
        use std::sync::Arc;
        let t = Arc::new(Timeline::new(1_000, 64));
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        t.inc(TimelineCounter::Committed, 1, SimTime(i * 60 + k));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let snap = t.snapshot(SimTime(60_000));
        assert_eq!(snap.counter_total(TimelineCounter::Committed), 4_000);
        assert_eq!(snap.late_drops, 0);
    }
}
