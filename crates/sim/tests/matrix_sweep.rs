//! The deterministic protocol × optimization × crash-step sweep: every
//! cell of the paper's optimization matrix runs on the shared engine,
//! and every cell asserts the shared invariant checker plus the paper's
//! closed-form flow/write/force accounting (clean cells) or the
//! durable-floor rules (crash cells).
//!
//! 162 cells: every protocol family ({Basic, PA, PN}) × 9 optimization
//! subsets × {clean + 5 crash steps at the cascade's intermediate
//! node}. One failure reports every broken cell, not just the first.

use tpc_common::{Outcome, ProtocolKind};
use tpc_sim::sweep::{all_cells, Cell, CrashStep};

/// Runs one cell and returns its failure description, if any.
fn check_cell(cell: &Cell) -> Result<(), String> {
    let (mut sim, [root, mid, leaf]) = cell.build();
    let report = sim.run();
    let name = cell.name();

    // The shared invariant checker holds on every cell: no node may
    // disagree with another about any transaction's outcome, no
    // transaction may end half-applied.
    if !report.violations.is_empty() {
        return Err(format!("{name}: violations {:?}", report.violations));
    }

    match cell.crash {
        CrashStep::None => {
            // Clean cells resolve completely and commit.
            if !report.unresolved.is_empty() {
                return Err(format!("{name}: unresolved {:?}", report.unresolved));
            }
            if report.single().outcome != Outcome::Commit {
                return Err(format!("{name}: outcome {:?}", report.single().outcome));
            }
            let costs = cell.expected().expect("clean cell has a closed form");
            let flows = report.protocol_flows();
            if flows < costs.flows.0 || flows > costs.flows.1 {
                return Err(format!("{name}: flows {flows}, expected {:?}", costs.flows));
            }
            for (i, (node, label)) in [(root, "root"), (mid, "mid"), (leaf, "leaf")]
                .into_iter()
                .enumerate()
            {
                let n = &report.per_node[node.index()];
                let got = (n.tm_writes, n.tm_forced);
                if got != costs.per_node[i] {
                    return Err(format!(
                        "{name}: {label} (writes, forced) = {got:?}, expected {:?}",
                        costs.per_node[i]
                    ));
                }
            }
        }
        _ => {
            // Crash cells: the victim restarts at a fixed virtual time
            // and recovery must settle everything — with one documented
            // exception. A family without a presumption (Basic): a
            // restarted node with no trace of the transaction can only
            // answer "outcome unknown", so its partners may legitimately
            // stay blocked (the paper's motivating defect — only the
            // baseline may block).
            let may_block = cell.protocol.rules().presumption.is_none();
            if !may_block && !report.unresolved.is_empty() {
                return Err(format!("{name}: unresolved {:?}", report.unresolved));
            }
            // A crash cell may notify the application more than once
            // (e.g. wait-for-outcome's "recovery in progress" completion
            // followed by the settled one) — but every definitive
            // notification must agree.
            let definitive: Vec<Outcome> = report
                .outcomes
                .iter()
                .filter(|o| !o.pending)
                .map(|o| o.outcome)
                .collect();
            // Wait-for-outcome's contract (§4) is exactly that the
            // application may be released with "recovery in progress"
            // when the subtree cannot confirm in time: pending-only
            // completion is that contract working, not a failure. A
            // blocked Basic root may not have notified at all.
            let wait = matches!(
                cell.optset,
                tpc_sim::OptSet::WaitForOutcome | tpc_sim::OptSet::LastAgentWait
            );
            if definitive.is_empty() {
                if wait || may_block {
                    if report.outcomes.is_empty() && !may_block {
                        return Err(format!("{name}: no outcome notification at all"));
                    }
                    return Ok(());
                }
                return Err(format!("{name}: no definitive outcome notification"));
            }
            if definitive.windows(2).any(|w| w[0] != w[1]) {
                return Err(format!("{name}: outcome flip-flop {definitive:?}"));
            }
            let outcome = definitive[0];
            if outcome == Outcome::Commit {
                // The paper's durability argument as a floor: commit
                // implies every updating participant forced its
                // Prepared* (or better) and the commit point itself was
                // forced. A crash may only ever ADD forced writes
                // (recovery re-forces), never let one disappear.
                let (root_floor, mid_floor, leaf_floor) = cell.commit_floor();
                for (node, floor, label) in [
                    (root, root_floor, "root"),
                    (mid, mid_floor, "mid"),
                    (leaf, leaf_floor, "leaf"),
                ] {
                    let forced = report.per_node[node.index()].tm_forced;
                    if forced < floor {
                        return Err(format!(
                            "{name}: committed but {label} forced only {forced} < {floor}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn sweep_covers_at_least_100_cells() {
    assert!(all_cells().len() >= 100, "sweep too small");
}

#[test]
fn full_matrix_sweep() {
    let cells = all_cells();
    let mut failures = Vec::new();
    for cell in &cells {
        if let Err(e) = check_cell(cell) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} cells failed:\n{}",
        failures.len(),
        cells.len(),
        failures.join("\n")
    );
}

/// The clean closed forms, protocol by protocol, are mutually
/// consistent: an optimization never *increases* the flow count over
/// its own protocol's baseline, and never changes total writes by more
/// than the records the paper says it moves.
#[test]
fn optimizations_never_cost_extra_flows() {
    for protocol in ProtocolKind::ALL {
        let baseline = Cell {
            protocol,
            optset: tpc_sim::OptSet::Baseline,
            crash: CrashStep::None,
        }
        .expected()
        .unwrap();
        for optset in tpc_sim::OptSet::ALL {
            let cell = Cell {
                protocol,
                optset,
                crash: CrashStep::None,
            };
            let costs = cell.expected().unwrap();
            assert!(
                costs.flows.1 <= baseline.flows.1,
                "{:?}/{}: optimization may not add flows",
                protocol,
                optset.name()
            );
        }
    }
}

/// Every protocol family has sweep cells, and the same number of them: a
/// family added to the rules table runs the whole matrix, with no way to
/// skip it.
#[test]
fn every_protocol_is_swept() {
    let cells = all_cells();
    let per_protocol = tpc_sim::OptSet::ALL.len() * CrashStep::ALL.len();
    assert_eq!(cells.len(), ProtocolKind::ALL.len() * per_protocol);
    for protocol in ProtocolKind::ALL {
        let swept = cells.iter().filter(|c| c.protocol == protocol).count();
        assert_eq!(swept, per_protocol, "{protocol} is not fully swept");
    }
}
