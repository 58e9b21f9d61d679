//! Cluster-level observability export: turns a set of [`NodeSummary`]s
//! into the Prometheus text exposition, the windowed `/timeline` JSON,
//! the `/debug/flight` recorder dump, the `/healthz` verdict, or a
//! chrome-trace JSON — shared by the channel and TCP clusters.

use std::fmt::Write as _;

use tpc_common::TxnId;
use tpc_locks::LockStats;
use tpc_obs::{
    render_chrome_trace, render_flight_json, render_prometheus, render_timeline_json, NodeExport,
    ObsSnapshot, Span,
};

use crate::http::HttpResponse;
use crate::node::NodeSummary;

/// Cap on per-stripe label cardinality in the Prometheus exposition:
/// the first `MAX_STRIPE_LABELS` stripes are exported individually, the
/// rest aggregate into one `stripe="other"` sample — a node striped 128
/// ways must not mint 128 label values per metric per node.
pub const MAX_STRIPE_LABELS: usize = 16;

/// Rolls a node's per-stripe lock statistics into at most
/// `MAX_STRIPE_LABELS + 1` labelled rows.
fn stripe_rows(stripes: &[LockStats]) -> Vec<(String, LockStats)> {
    let mut rows: Vec<(String, LockStats)> = stripes
        .iter()
        .take(MAX_STRIPE_LABELS)
        .enumerate()
        .map(|(i, s)| (format!("stripe=\"{i}\""), *s))
        .collect();
    if stripes.len() > MAX_STRIPE_LABELS {
        let mut other = LockStats::default();
        for s in &stripes[MAX_STRIPE_LABELS..] {
            other.requests += s.requests;
            other.immediate_grants += s.immediate_grants;
            other.waits += s.waits;
            other.deadlocks += s.deadlocks;
            other.timeouts += s.timeouts;
            other.releases += s.releases;
            other.total_hold_micros += s.total_hold_micros;
            other.max_hold_micros = other.max_hold_micros.max(s.max_hold_micros);
            other.total_wait_micros += s.total_wait_micros;
        }
        rows.push(("stripe=\"other\"".to_string(), other));
    }
    rows
}

/// Builds the Prometheus exposition for a set of node summaries: driver
/// and WAL counters for every node, plus per-phase latency histograms for
/// nodes that ran with observability enabled.
pub fn prometheus_text(summaries: &[NodeSummary]) -> String {
    let exports: Vec<NodeExport> = summaries
        .iter()
        .map(|s| {
            let recovery = s.recovery.unwrap_or_default();
            let mut counters = vec![
                (
                    "tpc_flows_sent_total",
                    "Protocol frames sent (paper flows, including Work)",
                    s.driver.flows_sent,
                ),
                (
                    "tpc_log_writes_total",
                    "TM log appends",
                    s.driver.log_writes,
                ),
                (
                    "tpc_forced_writes_total",
                    "TM log appends that requested a force",
                    s.driver.forced_writes,
                ),
                (
                    "tpc_physical_flushes_total",
                    "Physical device flushes on the TM log",
                    s.log.physical_flushes,
                ),
                (
                    "tpc_outcomes_total",
                    "Transaction outcomes delivered to the application",
                    s.driver.outcomes,
                ),
                (
                    "tpc_damaged_outcomes_total",
                    "Outcomes carrying heuristic damage",
                    s.driver.damaged_outcomes,
                ),
                (
                    "tpc_group_requests_total",
                    "Forced writes submitted to the group committer",
                    s.group.requests,
                ),
                (
                    "tpc_heuristic_decisions_total",
                    "Heuristic decisions taken at this node while in doubt",
                    s.metrics.heuristic_decisions,
                ),
                (
                    "tpc_heuristic_commit_total",
                    "Heuristic decisions that jumped to commit",
                    s.metrics.heuristic_commits,
                ),
                (
                    "tpc_heuristic_abort_total",
                    "Heuristic decisions that jumped to abort",
                    s.metrics.heuristic_aborts,
                ),
                (
                    "tpc_heuristic_damage_total",
                    "Heuristic decisions observed to conflict with the real outcome",
                    s.metrics.heuristic_damage,
                ),
                (
                    "tpc_heuristic_damage_reported_total",
                    "Damaged nodes reported in acknowledgments received here (whole subtree at a PN root)",
                    s.metrics.damage_reports_received,
                ),
                (
                    "tpc_recovery_queries_answered_total",
                    "Recovery status queries answered for in-doubt peers",
                    s.metrics.recovery_queries_answered,
                ),
                (
                    "tpc_recovery_wal_records_total",
                    "Durable WAL records replayed during restart recovery",
                    recovery.wal_records_scanned,
                ),
                (
                    "tpc_recovery_wal_scan_us_total",
                    "Wall-clock microseconds spent reading the WAL back at restart",
                    recovery.wal_scan_us,
                ),
                (
                    "tpc_recovery_in_doubt_total",
                    "In-doubt (prepared, undecided) transactions found at restart",
                    recovery.in_doubt_recovered,
                ),
                (
                    "tpc_recovery_queries_sent_total",
                    "Status queries sent to coordinators for recovered in-doubt transactions",
                    recovery.queries_sent,
                ),
                (
                    "tpc_recovery_redrives_total",
                    "Decided-but-unacknowledged outcomes re-driven at restart",
                    recovery.redrives,
                ),
                (
                    "tpc_recovery_interrupted_vote_aborts_total",
                    "Transactions aborted at restart because the crash interrupted voting",
                    recovery.interrupted_vote_aborts,
                ),
                (
                    "tpc_recovery_torn_tails_total",
                    "Restarts that found a cleanly torn WAL tail (interrupted append)",
                    recovery.torn_tails,
                ),
                (
                    "tpc_recovery_corruption_before_tail_total",
                    "Restarts that found WAL corruption with valid frames after it",
                    recovery.corruption_before_tail,
                ),
                (
                    "tpc_wal_io_errors_total",
                    "Log I/O operations that failed after exhausting retries",
                    s.wal.io_errors,
                ),
                (
                    "tpc_wal_fsync_retries_total",
                    "Fsync attempts retried after a transient failure",
                    s.wal.fsync_retries,
                ),
                (
                    "tpc_wal_rejected_txns_total",
                    "Transactions rejected because the node degraded to read-only",
                    s.wal.rejected_txns,
                ),
            ];
            counters.extend([
                (
                    "tpc_pool_checkouts_total",
                    "Wire buffers checked out of the node's frame pool",
                    s.pool.checkouts,
                ),
                (
                    "tpc_pool_hits_total",
                    "Pool checkouts served from recycled capacity (no allocation)",
                    s.pool.hits,
                ),
                (
                    "tpc_pool_misses_total",
                    "Pool checkouts that had to allocate a fresh buffer",
                    s.pool.misses,
                ),
                (
                    "tpc_pool_recycled_total",
                    "Wire buffers returned to the pool's free list on drop",
                    s.pool.recycled,
                ),
                (
                    "tpc_pool_discarded_total",
                    "Wire buffers released to the allocator instead of recycled",
                    s.pool.discarded,
                ),
                (
                    "tpc_net_send_retries_total",
                    "Transport send attempts retried with backoff",
                    s.net.send_retries,
                ),
                (
                    "tpc_net_reconnects_total",
                    "Transport connections re-established after a loss",
                    s.net.reconnects,
                ),
                (
                    "tpc_net_frames_dropped_total",
                    "Frames the transport dropped after retry exhaustion",
                    s.net.dropped_frames,
                ),
            ]);
            let (plain, tagged): (Vec<_>, Vec<_>) =
                s.transport.iter().partition(|(_, _, labels, _)| labels.is_empty());
            counters.extend(plain.into_iter().map(|&(name, help, _, v)| (name, help, v)));
            let gauges = vec![
                (
                    "tpc_wal_degraded",
                    "1 when the node gave up on log durability and runs read-only",
                    if s.wal.degraded { 1.0 } else { 0.0 },
                ),
                (
                    "tpc_pool_idle",
                    "Wire buffers currently idle in the node's frame pool",
                    s.pool.idle as f64,
                ),
                (
                    "tpc_pool_outstanding_high_water",
                    "Most wire buffers ever checked out at once on this node",
                    s.pool.outstanding_high_water as f64,
                ),
                (
                    "tpc_lock_waiters",
                    "Transactions currently parked in lock wait queues (all stripes)",
                    s.lock_waiters as f64,
                ),
            ];
            // One series per trigger; they sum to `GroupStats::flushes`.
            let mut labeled: Vec<_> = [
                ("size", s.group.flushes_by_size),
                ("timer", s.group.flushes_by_timer),
                ("idle", s.group.flushes_by_idle),
            ]
            .into_iter()
            .map(|(trigger, flushes)| {
                (
                    "tpc_group_flushes_total",
                    "Group-commit batches flushed, by what closed the batch \
                     (a shutdown drain counts as timer)",
                    format!("trigger=\"{trigger}\""),
                    flushes,
                )
            })
            .collect();
            labeled.extend(
                tagged
                    .into_iter()
                    .map(|&(name, help, labels, v)| (name, help, labels.to_string(), v)),
            );
            for (labels, ls) in stripe_rows(&s.lock_stripes) {
                labeled.push((
                    "tpc_lock_waits_total",
                    "Lock requests that had to queue, by stripe (capped cardinality)",
                    labels.clone(),
                    ls.waits,
                ));
                labeled.push((
                    "tpc_lock_wait_us_total",
                    "Microseconds waiters queued before their grant, by stripe",
                    labels.clone(),
                    ls.total_wait_micros,
                ));
                labeled.push((
                    "tpc_lock_deadlocks_total",
                    "Lock requests refused as deadlock victims, by stripe",
                    labels,
                    ls.deadlocks,
                ));
            }
            NodeExport {
                node: s.node,
                obs: s.obs.clone().unwrap_or_default(),
                counters,
                gauges,
                labeled,
            }
        })
        .collect();
    render_prometheus(&exports)
}

/// Builds the `/timeline` JSON: every node's windowed time series, in
/// node order, `"timeline": null` for nodes that ran without
/// observability. Deterministic for identical snapshots — integer
/// values, fixed key order.
pub fn timeline_json(summaries: &[NodeSummary]) -> String {
    let mut out = String::from("{\"nodes\":[");
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"node\":\"{}\",\"timeline\":", s.node);
        match &s.timeline {
            Some(t) => out.push_str(&render_timeline_json(t)),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Builds the `/debug/flight` JSON: every node's flight-recorder ring,
/// oldest event first.
pub fn flight_json(summaries: &[NodeSummary]) -> String {
    let mut out = String::from("{\"nodes\":[");
    for (i, s) in summaries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":\"{}\",\"events\":{}}}",
            s.node,
            render_flight_json(&s.flight)
        );
    }
    out.push_str("]}");
    out
}

/// The `/healthz` verdict: `200 ok` while every node's WAL is healthy,
/// `503` with a body listing the degraded / fail-stopped nodes once any
/// node gave up on log durability — so a probe (or a load balancer)
/// sees a dying disk before the first lost transaction.
pub fn healthz(summaries: &[NodeSummary]) -> HttpResponse {
    let mut sick = Vec::new();
    for s in summaries {
        if s.wal.fail_stopped {
            sick.push(format!("{} fail-stopped", s.node));
        } else if s.wal.degraded {
            sick.push(format!("{} degraded (read-only)", s.node));
        }
    }
    if sick.is_empty() {
        HttpResponse::text("ok\n")
    } else {
        HttpResponse::unavailable(format!("unhealthy: {}\n", sick.join(", ")))
    }
}

/// The shared observability router both clusters mount on their
/// [`MetricsServer`](crate::http::MetricsServer): `/metrics`,
/// `/healthz`, `/timeline`, `/debug/flight`.
pub fn route(summaries: &[NodeSummary], path: &str) -> HttpResponse {
    match path {
        "/metrics" => HttpResponse::metrics(prometheus_text(summaries)),
        "/healthz" => healthz(summaries),
        "/timeline" => HttpResponse::json(timeline_json(summaries)),
        "/debug/flight" => HttpResponse::json(flight_json(summaries)),
        _ => HttpResponse::not_found(),
    }
}

/// Builds a chrome-trace JSON for one transaction from every node's
/// captured spans (nodes must have run with tracing enabled). The result
/// renders in `chrome://tracing` / Perfetto as the root's and each
/// subordinate's phase rows on the shared cluster clock.
pub fn chrome_trace_text(summaries: &[NodeSummary], txn: TxnId) -> String {
    let merged = ObsSnapshot::merged(summaries.iter().filter_map(|s| s.obs.as_ref()));
    let spans: Vec<Span> = merged.txn_spans(txn);
    render_chrome_trace(&spans)
}
