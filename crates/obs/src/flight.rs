//! Crash flight recorder: a bounded ring of recent structured events.
//!
//! When an invariant check fails or a chaos cell trips, the assertion
//! message alone rarely explains *how* the cluster got there. Each node
//! keeps a small ring of the protocol-relevant events that preceded the
//! failure — decisions, forced writes, in-doubt transitions, WAL health
//! changes, degraded-mode rejections — and `tpc_runtime::verify::check` dumps
//! the rings automatically when a violation is detected. The same dump is
//! served live as JSON at `/debug/flight`.
//!
//! The ring is deliberately tiny and mutex-guarded: events are rare
//! relative to the hot path (a handful per transaction at most), and a
//! recorder that is only consulted post-mortem does not need to be
//! wait-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tpc_common::{SimTime, TxnId};

/// Default ring capacity per node.
pub const FLIGHT_CAP: usize = 256;

/// What kind of event happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A commit/abort decision was reached (or delivered) for a txn.
    Decision,
    /// A forced log write was issued (direct or via group commit).
    Force,
    /// A transaction entered the in-doubt window.
    InDoubtEnter,
    /// A transaction's in-doubt window closed.
    InDoubtResolve,
    /// WAL health changed (degraded entered, fail-stop, I/O error).
    WalHealth,
    /// A request was refused by a node degraded to read-only.
    Rejection,
}

impl FlightKind {
    /// Stable lowercase name used in JSON and text dumps.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Decision => "decision",
            FlightKind::Force => "force",
            FlightKind::InDoubtEnter => "in_doubt_enter",
            FlightKind::InDoubtResolve => "in_doubt_resolve",
            FlightKind::WalHealth => "wal_health",
            FlightKind::Rejection => "rejection",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic per-recorder sequence number (never reset, so a full
    /// ring still shows how many events were evicted before the dump).
    pub seq: u64,
    /// Harness clock when the event happened.
    pub at: SimTime,
    /// Event kind.
    pub kind: FlightKind,
    /// Transaction involved, when one is.
    pub txn: Option<TxnId>,
    /// Free-form context (`"commit"`, `"fsync gave up: ..."`, ...).
    pub detail: String,
}

/// Bounded per-node ring of [`FlightEvent`]s.
pub struct FlightRecorder {
    cap: usize,
    seq: AtomicU64,
    events: Mutex<VecDeque<FlightEvent>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// Ring holding at most `cap` events (clamped to at least 1).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn record(
        &self,
        kind: FlightKind,
        at: SimTime,
        txn: Option<TxnId>,
        detail: impl Into<String>,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.events.lock().expect("flight ring poisoned");
        if ring.len() >= self.cap {
            ring.pop_front();
        }
        ring.push_back(FlightEvent {
            seq,
            at,
            kind,
            txn,
            detail: detail.into(),
        });
    }

    /// Events recorded over the recorder's lifetime (including evicted).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Copy-out of the retained events, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        self.events
            .lock()
            .expect("flight ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Deterministic JSON rendering of a flight dump (an array of events).
pub fn render_flight_json(events: &[FlightEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_us\":{},\"kind\":\"{}\",\"txn\":{},\"detail\":\"{}\"}}",
            e.seq,
            e.at.0,
            e.kind.name(),
            match e.txn {
                Some(t) => format!("\"{t:?}\""),
                None => "null".to_string(),
            },
            escape_json(&e.detail)
        );
    }
    out.push(']');
    out
}

/// Human-oriented text rendering, one event per line (used by the
/// automatic dump on invariant violations).
pub fn render_flight_text(events: &[FlightEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for e in events {
        let _ = match e.txn {
            Some(t) => writeln!(
                out,
                "  #{:<6} t={:<12} {:<16} {:?} {}",
                e.seq,
                e.at.0,
                e.kind.name(),
                t,
                e.detail
            ),
            None => writeln!(
                out,
                "  #{:<6} t={:<12} {:<16} {}",
                e.seq,
                e.at.0,
                e.kind.name(),
                e.detail
            ),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_common::NodeId;

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let f = FlightRecorder::new(3);
        for i in 0..5u64 {
            f.record(FlightKind::Force, SimTime(i * 10), None, format!("f{i}"));
        }
        let dump = f.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(dump[0].seq, 2);
        assert_eq!(dump[2].seq, 4);
        assert_eq!(f.recorded(), 5);
    }

    #[test]
    fn json_escapes_and_renders_txn() {
        let f = FlightRecorder::new(8);
        let txn = TxnId::new(NodeId(1), 7);
        f.record(FlightKind::Decision, SimTime(42), Some(txn), "say \"hi\"\n");
        let json = render_flight_json(&f.dump());
        assert!(json.starts_with('['));
        assert!(json.contains("\"kind\":\"decision\""));
        assert!(json.contains("\\\"hi\\\"\\n"));
        assert!(json.contains("\"at_us\":42"));
    }

    #[test]
    fn text_dump_is_one_line_per_event() {
        let f = FlightRecorder::new(8);
        f.record(FlightKind::WalHealth, SimTime(1), None, "degraded");
        f.record(
            FlightKind::Rejection,
            SimTime(2),
            Some(TxnId::new(NodeId(0), 1)),
            "queue full",
        );
        let text = render_flight_text(&f.dump());
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("wal_health"));
        assert!(text.contains("queue full"));
    }
}
