//! Client-side spans: recorded in memory by the load generator around
//! its own calls into the client API, one trace per transaction, and
//! written out (chrome-trace JSON) only when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one transaction share `trace`; `parent`
/// names the span (by `id`, within the trace) that caused this one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Append-only span buffer with its own clock origin.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        trace: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }
}

/// Total self time and span count per span name. A span's self time is
/// its duration minus the part of its interval that its direct children
/// cover (children are clipped to the parent and overlaps counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_trace: Vec<&Span> = spans.iter().collect();
    by_trace.sort_by_key(|s| s.trace);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for group in by_trace.chunk_by(|a, b| a.trace == b.trace) {
        for span in group {
            let mut kids: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| {
                    (
                        c.start_ns.clamp(span.start_ns, span.end_ns),
                        c.end_ns.clamp(span.start_ns, span.end_ns),
                    )
                })
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let entry = out.entry(span.name).or_default();
            entry.0 += (span.end_ns - span.start_ns) - covered;
            entry.1 += 1;
        }
    }
    out
}

/// Mean self time of the spans called `name`, in microseconds (0 when
/// none were recorded).
pub fn mean_self_us(times: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match times.get(name) {
        Some(&(total, count)) if count > 0 => total as f64 / count as f64 / 1e3,
        _ => 0.0,
    }
}

/// Chrome-trace ("Trace Event Format") rendering: one complete event per
/// span, one track per transaction.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            s.name,
            s.trace,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )
        .expect("write to String");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            // Trace 1: txn [0,100] with begin [0,10], work [10,30],
            // wait [25,90] (overlaps work by 5) and a grandchild that
            // must only count against its own parent.
            span(1, 0, None, "txn", 0, 100),
            span(1, 1, Some(0), "begin", 0, 10),
            span(1, 2, Some(0), "work", 10, 30),
            span(1, 3, Some(0), "wait", 25, 90),
            span(1, 4, Some(3), "poll", 30, 50),
            // Trace 2 reuses the ids; a child overhanging its parent is
            // clipped to it.
            span(2, 0, None, "txn", 1000, 1040),
            span(2, 1, Some(0), "begin", 990, 1010),
        ];
        let t = self_times(&spans);
        // txn: trace 1 covered [0,90] → 10 self; trace 2 covered
        // [1000,1010] → 30 self.
        assert_eq!(t["txn"], (40, 2));
        assert_eq!(t["begin"], (10 + 20, 2));
        assert_eq!(t["work"], (20, 1));
        assert_eq!(t["wait"], (65 - 20, 1));
        assert_eq!(t["poll"], (20, 1));
        assert!((mean_self_us(&t, "txn") - 0.02).abs() < 1e-12);
        assert_eq!(mean_self_us(&t, "absent"), 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = [
            span(7, 0, None, "txn", 1500, 4500),
            span(7, 1, Some(0), "begin", 1500, 2000),
        ];
        let doc = crate::json::parse(&chrome_trace(&spans)).expect("valid JSON");
        let events = match doc.get("traceEvents") {
            Some(crate::json::Value::Arr(e)) => e,
            other => panic!("no event array: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("dur").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(events[1].get("tid").and_then(|v| v.as_f64()), Some(7.0));
    }
}
