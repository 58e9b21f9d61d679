//! Per-layer metrics: counters and spans of the traced pass, the layer
//! probes, and the cost model that composes them into a predicted commit
//! latency.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use crate::adapter::{self, Counters, PhaseTotal, ShapeCosts};
use crate::affinity;
use crate::metrics::{Reading, PER_LAYER};
use crate::probe::ns_per_iter;
use crate::run::Pass;
use crate::spans::{mean_self_us, self_times};
use crate::stats::median;
use crate::workload::{Backend, Spec, Transport};

/// Runs every layer probe for `budget` in total. Values are in each
/// probe's own unit, by metric name.
pub fn run_probes(dir: &Path, budget: Duration) -> Result<BTreeMap<&'static str, f64>, String> {
    // On one CPU, like the workloads the cost model predicts.
    let _pinned = affinity::pin_to_one_cpu();
    let mut probes = adapter::probes(dir)?;
    let each = budget / probes.len() as u32;
    Ok(probes
        .iter_mut()
        .map(|p| (p.name, ns_per_iter(&mut *p.run, each) / p.ns_per_unit))
        .collect())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The cost model, in the paper's terms: flows on the critical path
/// times what one hop costs, forces on it times what one flush costs,
/// plus the service time of the layers a commit passes through — all
/// measured on this host by the probes, with the counts taken from the
/// simulator's run of the same transaction.
///
/// It describes one writer with nothing else in flight, so it is the
/// `*_sync` workloads it predicts; with 16 in flight the residual is
/// queueing by construction.
pub fn predict_p50_us(spec: &Spec, w: &ShapeCosts, probe: &BTreeMap<&'static str, f64>) -> f64 {
    let p = |name: &str| probe[name];
    let client_hop = p("runtime.channel_hop_us");
    let hop = match spec.transport {
        Transport::Channel => client_hop,
        Transport::Tcp => p("runtime.tcp_hop_us"),
    };
    let flush = match spec.backend {
        Backend::Mem => p("wal.mem_append_forced_ns") / 1e3,
        Backend::Segmented => p("wal.seg_flush_us"),
    };
    let lock = if spec.lanes > 1 {
        p("locks.striped16_acquire_release_ns")
    } else {
        p("locks.acquire_release_ns")
    };
    // The request into the root and the outcome back out cross the
    // client's channel whatever the transport between nodes is.
    let wire = 2.0 * client_hop + w.crit_flows as f64 * hop;
    let device = w.crit_forces as f64 * flush;
    // Closed loop, one client: the server is still forcing phase two of
    // the previous transaction when the next request reaches it, two
    // client hops after the outcome left the root.
    let tail = (w.all_forced - w.crit_forces) as f64 * flush;
    let carried = (tail - 2.0 * client_hop).max(0.0);
    // The Work frame precedes Prepare on the same link, so one frame
    // more than the critical flows is encoded and decoded in series.
    let codec = (w.crit_flows + 1) as f64 * (p("common.encode_ns") + p("common.decode_ns"));
    let service =
        (codec + p("core.engine_commit_ns") + lock + p("rm.write_prepare_commit_ns")) / 1e3;
    wire + device + carried + service
}

/// Every per-layer metric, in table order. `reference` is the untraced
/// pass made just before `traced` on the same workload and seed.
pub fn readings(
    spec: &Spec,
    reference: &Pass,
    traced: &Pass,
    probe: &BTreeMap<&'static str, f64>,
) -> Vec<Reading> {
    let txns = traced.txns;
    // Totals over the traced pass's repeats.
    let sum = |f: fn(&Counters) -> u64| traced.counters.iter().map(f).sum::<u64>();
    let per_txn = |f: fn(&Counters) -> u64| ratio(sum(f), txns);
    let phase_mean = |f: fn(&Counters) -> PhaseTotal| {
        let (us, n) = traced
            .counters
            .iter()
            .map(f)
            .fold((0, 0), |(us, n), p| (us + p.sum_us, n + p.count));
        ratio(us, n)
    };
    let spans = self_times(&traced.spans);
    let rate = |p: &Pass| median(&p.repeats.iter().map(|r| r.txn_per_s).collect::<Vec<_>>());
    let measured_p50 = median(
        &reference
            .repeats
            .iter()
            .map(|r| r.p50_us)
            .collect::<Vec<_>>(),
    );
    let predicted = predict_p50_us(spec, &adapter::sim_costs(spec, false), probe);

    let value = |name: &str| -> f64 {
        if let Some(v) = probe.get(name) {
            return *v;
        }
        match name {
            "common.pool_hit_rate" => ratio(sum(|c| c.pool_hits), sum(|c| c.pool_checkouts)),
            "core.flows_per_txn" => per_txn(|c| c.flows),
            "core.forced_per_txn" => per_txn(|c| c.forced),
            "core.log_writes_per_txn" => per_txn(|c| c.log_writes),
            "core.phase_prepare_mean_us" => phase_mean(|c| c.prepare),
            "core.phase_decision_mean_us" => phase_mean(|c| c.decision),
            "core.phase_ack_mean_us" => phase_mean(|c| c.ack),
            "locks.wait_share" => ratio(sum(|c| c.lock_waits), sum(|c| c.lock_requests)),
            "locks.wait_mean_us" => ratio(sum(|c| c.lock_wait_us), sum(|c| c.lock_waits)),
            "wal.flushes_per_force" => ratio(sum(|c| c.wal_flushes), sum(|c| c.wal_forced)),
            "wal.group_batch_mean" => ratio(sum(|c| c.group_requests), sum(|c| c.group_flushes)),
            "wal.group_timer_share" => ratio(sum(|c| c.group_by_timer), sum(|c| c.group_flushes)),
            "wal.group_flush_mean_us" => phase_mean(|c| c.group_flush),
            "wal.fsync_mean_us" => phase_mean(|c| c.fsync),
            "wal.bytes_per_txn" => per_txn(|c| c.wal_bytes),
            "runtime.client_begin_us" => mean_self_us(&spans, "begin"),
            "runtime.client_work_us" => mean_self_us(&spans, "work"),
            "runtime.client_submit_us" => mean_self_us(&spans, "submit"),
            "runtime.client_wait_us" => mean_self_us(&spans, "wait"),
            "runtime.net_retries" => sum(|c| c.net_retries) as f64,
            "runtime.acks_piggybacked" => sum(|c| c.acks_piggybacked) as f64,
            "obs.overhead_pct" => (1.0 - rate(traced) / rate(reference)) * 100.0,
            "model.predicted_p50_us" => predicted,
            "model.residual_us" => measured_p50 - predicted,
            other => unreachable!("no source for per-layer metric {other}"),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| Reading {
            name: m.name,
            unit: m.unit,
            value: value(m.name),
            over: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    fn probe_values() -> BTreeMap<&'static str, f64> {
        [
            ("runtime.channel_hop_us", 5.0),
            ("runtime.tcp_hop_us", 20.0),
            ("wal.mem_append_forced_ns", 100.0),
            ("wal.seg_flush_us", 80.0),
            ("locks.acquire_release_ns", 200.0),
            ("locks.striped16_acquire_release_ns", 300.0),
            ("common.encode_ns", 50.0),
            ("common.decode_ns", 150.0),
            ("core.engine_commit_ns", 2000.0),
            ("rm.write_prepare_commit_ns", 1000.0),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn model_composes_flows_forces_and_service() {
        let w = ShapeCosts {
            flows: 5,
            forced: 3,
            log_writes: 5,
            all_forced: 3,
            crit_flows: 2,
            crit_forces: 2,
        };
        // service = (3 × 200 + 2000 + 200 + 1000) ns = 3.8 µs.
        let seg = predict_p50_us(by_name("seg_sync").expect("defined"), &w, &probe_values());
        // wire 2×5 + 2×5, device 2×80, carried 80 − 10.
        assert!((seg - (20.0 + 160.0 + 70.0 + 3.8)).abs() < 1e-9, "{seg}");
        let tcp = predict_p50_us(by_name("tcp_sync").expect("defined"), &w, &probe_values());
        // wire 2×5 + 2×20, device 2×0.1, nothing carried.
        assert!((tcp - (50.0 + 0.2 + 3.8)).abs() < 1e-9, "{tcp}");
    }
}
