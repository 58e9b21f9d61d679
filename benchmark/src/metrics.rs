//! The metric tables: every name the benchmark reports, with its unit,
//! which direction is better and — for end-to-end metrics — the bound by
//! which it may worsen before a change counts as a regression.
//! `BENCHMARK.json` is generated from these tables (`--manifest`).

use crate::json::Value;
use crate::stats::Summary;
use crate::workload;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// What a user of the commit library sees. Failures are not a metric
/// here because a metric may never read 0: every run reports `attempted`
/// and `failed` beside its metrics, and any failed operation makes the
/// run incorrect.
///
/// The bounds are about three times the quartile spread of ten runs on
/// the two-vCPU sandbox this was sized on (throughput and median 1–8 %,
/// p99 4–13 %, set-up 2–11 % by workload): tighter bounds would refuse
/// changes for the host's noise.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "commit_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "commit_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer = crate. `(p)` a probe, `(c)` a counter from the node
/// summaries, `(s)` a span or phase histogram of the traced pass.
pub const PER_LAYER: [PerLayer; 38] = [
    layer("common.encode_ns", "ns", Lower),                   // p
    layer("common.decode_ns", "ns", Lower),                   // p
    layer("common.pool_hit_rate", "ratio", Higher),           // c
    layer("core.engine_commit_ns", "ns", Lower),              // p
    layer("core.flows_per_txn", "count", Lower),              // c
    layer("core.forced_per_txn", "count", Lower),             // c
    layer("core.log_writes_per_txn", "count", Lower),         // c
    layer("core.phase_prepare_mean_us", "us", Lower),         // s
    layer("core.phase_decision_mean_us", "us", Lower),        // s
    layer("core.phase_ack_mean_us", "us", Lower),             // s
    layer("locks.acquire_release_ns", "ns", Lower),           // p
    layer("locks.striped16_acquire_release_ns", "ns", Lower), // p
    layer("locks.wait_share", "ratio", Lower),                // c
    layer("locks.wait_mean_us", "us", Lower),                 // c
    layer("rm.write_prepare_commit_ns", "ns", Lower),         // p
    layer("rm.read_forget_ns", "ns", Lower),                  // p
    layer("wal.mem_append_forced_ns", "ns", Lower),           // p
    layer("wal.seg_append_nonforced_ns", "ns", Lower),        // p
    layer("wal.seg_flush_us", "us", Lower),                   // p
    layer("wal.file_flush_us", "us", Lower),                  // p
    layer("wal.flushes_per_force", "ratio", Lower),           // c
    layer("wal.group_batch_mean", "count", Higher),           // c
    layer("wal.group_timer_share", "ratio", Lower),           // c
    layer("wal.group_flush_mean_us", "us", Lower),            // s
    layer("wal.fsync_mean_us", "us", Lower),                  // s
    layer("wal.bytes_per_txn", "bytes", Lower),               // c
    layer("runtime.client_begin_us", "us", Lower),            // s
    layer("runtime.client_work_us", "us", Lower),             // s
    layer("runtime.client_submit_us", "us", Lower),           // s
    layer("runtime.client_wait_us", "us", Lower),             // s
    layer("runtime.channel_hop_us", "us", Lower),             // p
    layer("runtime.tcp_hop_us", "us", Lower),                 // p
    layer("runtime.net_retries", "count", Lower),             // c
    layer("runtime.acks_piggybacked", "count", Higher),       // c
    layer("obs.overhead_pct", "%", Lower),
    layer("obs.record_ns", "ns", Lower), // p
    layer("model.predicted_p50_us", "us", Lower),
    layer("model.residual_us", "us", Lower),
];

/// Seconds one run measures. Seven repeats of two seconds: the slowest
/// workload then still has about 6 000 samples per repeat, so some 60 lie
/// beyond its p99.
pub const RUN_SECONDS: u64 = 14;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better.name())),
        ]
    };
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--quiet",
                    "--release",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Value::str)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                workload::ALL
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut fields = named(m.name, m.unit, m.better);
                        fields.push(("bound", Value::Num(m.bound)));
                        Value::obj(fields)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| Value::obj(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

/// One reported value. End-to-end metrics carry the summary of the
/// repeats their median was taken over.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub over: Option<Summary>,
}

impl Reading {
    /// `{value, unit}`, and with `summary` what the median was taken
    /// over.
    pub fn json(&self, summary: bool) -> Value {
        let mut fields = vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(self.unit)),
        ];
        if let Some(s) = self.over.filter(|_| summary) {
            for (key, v) in [("q1", s.q1), ("q3", s.q3), ("min", s.min), ("max", s.max)] {
                fields.push((key, Value::Num(v)));
            }
        }
        Value::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(names.insert(name), "{name} used twice");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in &workload::ALL {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --manifest"
        );
    }
}
