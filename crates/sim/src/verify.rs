//! The end-of-run consistency checker.
//!
//! The protocol-level invariants (atomicity, quiescence, damage-report
//! fidelity) are checked by the harness-independent
//! [`tpc_core::check`] module — the same checker the live runtime's
//! chaos harness runs, so a simulated scenario and a live chaos run
//! assert identical promises. This module adds the simulation-only
//! checks the core checker cannot see: resource-manager lock leakage
//! and lingering RM in-doubt state after quiescence.

use tpc_common::{NodeId, TxnId};
use tpc_core::check::{self, NodeProtocolState, OutcomeRecord};

use crate::cluster::Sim;
use crate::report::TxnResult;

/// Runs all checks. Returns `(violations, unresolved)`.
pub fn check(sim: &Sim, outcomes: &[TxnResult]) -> (Vec<String>, Vec<(NodeId, TxnId)>) {
    let states: Vec<NodeProtocolState> = sim
        .nodes_iter()
        .map(|(node, engine)| NodeProtocolState::from_engine(node, sim.is_crashed(node), engine))
        .collect();
    let records: Vec<OutcomeRecord> = outcomes
        .iter()
        .map(|r| OutcomeRecord {
            txn: r.txn,
            root: r.root,
            outcome: r.outcome,
            report: r.report.clone(),
            pending: r.pending,
        })
        .collect();
    let (mut violations, unresolved) = check::check(&states, &records);

    // Lock leakage: only meaningful when nothing is unresolved and no
    // node is down.
    let all_up = (0..sim.len()).all(|i| !sim.is_crashed(NodeId(i as u32)));
    if unresolved.is_empty() && all_up {
        for i in 0..sim.len() {
            let node = NodeId(i as u32);
            for rm in sim.rms(node) {
                if rm.locked_keys() != 0 {
                    violations.push(format!(
                        "{node}/{}: {} keys still locked after quiescence",
                        rm.config().id,
                        rm.locked_keys()
                    ));
                }
                if !rm.in_doubt().is_empty() {
                    violations.push(format!(
                        "{node}/{}: resource manager still in doubt on {:?}",
                        rm.config().id,
                        rm.in_doubt()
                    ));
                }
            }
        }
    }

    (violations, unresolved)
}
