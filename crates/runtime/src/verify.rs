//! Consistency checking for live (chaos) runs.
//!
//! Two independent views of the same promises:
//!
//! 1. [`check`] feeds the engines' final protocol state (carried in each
//!    [`NodeSummary`]) and the outcomes the application observed through
//!    the **same** [`tpc_core::check`] module the simulator's verifier
//!    uses — atomicity, quiescence and damage-report fidelity are
//!    asserted identically in both harnesses.
//! 2. [`check_wal_agreement`] ignores in-memory state entirely and
//!    re-reads every node's WAL chain from disk, the way a recovering
//!    process would: the durable (non-heuristic) decisions recorded for
//!    one transaction must agree across the cluster.

use std::collections::BTreeMap;
use std::path::Path;

use tpc_common::{NodeId, Outcome, Result, TxnId};
use tpc_core::check::{NodeProtocolState, OutcomeRecord};
use tpc_core::recovery::summarize;

use crate::node::{tm_seg_dir, CommitResult, NodeSummary};

/// Runs the shared protocol-invariant checker over live node summaries.
/// Returns `(violations, unresolved)` exactly as the simulator's
/// verifier does: violations are atomicity/reporting bugs, unresolved
/// are transactions still blocked on a live node (legitimate under
/// failures, fatal after the cluster should have quiesced).
///
/// When violations are found, every node's flight recorder is dumped to
/// stderr — the last [`tpc_obs::FLIGHT_CAP`](tpc_obs) structured events
/// (decisions, forces, in-doubt transitions, WAL health changes,
/// rejections) per node, so a failing chaos run carries its own black
/// box instead of asking for a rerun under logging.
pub fn check(
    summaries: &[NodeSummary],
    outcomes: &[OutcomeRecord],
) -> (Vec<String>, Vec<(NodeId, TxnId)>) {
    let states: Vec<NodeProtocolState> =
        summaries.iter().map(|s| s.protocol_state.clone()).collect();
    let (violations, unresolved) = tpc_core::check::check(&states, outcomes);
    if !violations.is_empty() {
        if let Some(dump) = flight_dump(summaries) {
            eprintln!("=== flight recorder (invariant violation) ===\n{dump}");
        }
    }
    (violations, unresolved)
}

/// Renders every node's flight-recorder ring as human-readable text,
/// oldest event first, or `None` if no node recorded any events (e.g.
/// observability disabled). [`check`] prints this automatically on an
/// invariant violation; chaos tests call it directly to assert the
/// black box was populated.
pub fn flight_dump(summaries: &[NodeSummary]) -> Option<String> {
    let mut out = String::new();
    let mut any = false;
    for s in summaries {
        if s.flight.is_empty() {
            continue;
        }
        any = true;
        out.push_str(&format!("--- node {} ---\n", s.node));
        out.push_str(&tpc_obs::render_flight_text(&s.flight));
    }
    any.then_some(out)
}

/// Builds the outcome record the checker wants from an application-side
/// commit/abort completion.
pub fn outcome_record(txn: TxnId, root: NodeId, result: &CommitResult) -> OutcomeRecord {
    OutcomeRecord {
        txn,
        root,
        outcome: result.outcome,
        report: result.report.clone(),
        pending: result.pending,
    }
}

/// Scans every node's TM segment chain under `dir` (durable backends
/// only) and cross-checks the durable decisions: a transaction must not
/// have one node with a durable commit and another with a durable
/// non-heuristic abort.
/// Returns the violations found; nodes with no durable log on disk are
/// skipped (never started, or memory-backed).
pub fn check_wal_agreement(dir: &Path, nodes: usize) -> Result<Vec<String>> {
    let mut decisions: BTreeMap<TxnId, Vec<(NodeId, Outcome)>> = BTreeMap::new();
    for i in 0..nodes {
        let node = NodeId(i as u32);
        let seg_dir = tm_seg_dir(dir, node);
        if !seg_dir.exists() {
            continue;
        }
        let records = tpc_wal::segment::scan_chain(&seg_dir)?;
        for (txn, summary) in summarize(&records) {
            if summary.heuristic.is_some() {
                // A heuristic decision is damage, not a protocol bug; it
                // is checked against the root's damage report by
                // `check`, not here.
                continue;
            }
            if let Some(outcome) = summary.outcome() {
                decisions.entry(txn).or_default().push((node, outcome));
            }
        }
    }
    let mut violations = Vec::new();
    for (txn, list) in decisions {
        let committed: Vec<NodeId> = list
            .iter()
            .filter(|(_, o)| *o == Outcome::Commit)
            .map(|(n, _)| *n)
            .collect();
        let aborted: Vec<NodeId> = list
            .iter()
            .filter(|(_, o)| *o == Outcome::Abort)
            .map(|(n, _)| *n)
            .collect();
        if !committed.is_empty() && !aborted.is_empty() {
            violations.push(format!(
                "{txn}: durable decisions disagree on disk — committed at {committed:?}, \
                 aborted at {aborted:?}"
            ));
        }
    }
    Ok(violations)
}
