//! Deterministic protocol × optimization × crash-step sweep generator.
//!
//! Enumerates every protocol family ([`ProtocolKind::ALL`]) × named
//! optimization subsets × crash steps over one fixed topology — a
//! three-node cascade (root → mid → leaf, everyone updating) — the
//! smallest tree where every optimization in the matrix is observable:
//! last-agent delegation, unsolicited votes,
//! the cascaded early acknowledgment (early-ack and vote-reliable fire
//! at an *intermediate*, never at a leaf), wait-for-outcome and
//! long-locks ack deferral.
//!
//! Each clean cell carries the paper's closed-form flow/write/force
//! expectations (Table 2 extended to the cascade); each crash cell
//! carries the durable-floor rules that must hold for whatever outcome
//! recovery settles on. `crates/sim/tests/matrix_sweep.rs` runs the full
//! enumeration and asserts both, plus the shared invariant checker, on
//! every cell.

use tpc_common::{AckMode, NodeId, OptimizationConfig, ProtocolKind, SimDuration, SimTime};
use tpc_core::Timeouts;

use crate::cluster::{NodeConfig, Sim, SimConfig};
use crate::workload::{TxnSpec, WorkEdge};

/// Named optimization subsets swept against every protocol. Each variant
/// is a *set*: the combination rows pin down that the optimizations
/// compose, not just that each works alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptSet {
    /// No optimizations: the protocol family's baseline costs.
    Baseline,
    /// Last-agent delegation (§4): the root self-prepares and hands the
    /// commit decision to its most recently touched partner.
    LastAgent,
    /// Unsolicited votes (§4): subordinates self-prepare when their
    /// delegated work completes; the Prepare flows vanish.
    Unsolicited,
    /// Early commit acknowledgment (§4): a cascaded coordinator acks
    /// upstream before its own subtree confirms.
    EarlyAck,
    /// Vote-reliable (§4): early ack gated on every vote below carrying
    /// the reliable qualifier; late-ack semantics otherwise.
    VoteReliable,
    /// Wait-for-outcome (§4): the root application is only notified once
    /// the full subtree has confirmed — no early notification.
    WaitForOutcome,
    /// Long locks (§4): commit acks are deferred to piggyback on later
    /// traffic; the end-of-run flush emits the stragglers.
    LongLocks,
    /// Unsolicited votes + early acks together: both flow savings at
    /// once, write counts untouched.
    UnsolicitedEarlyAck,
    /// Last-agent + wait-for-outcome: delegation with the conservative
    /// notification rule.
    LastAgentWait,
}

impl OptSet {
    /// Every subset, in sweep order.
    pub const ALL: [OptSet; 9] = [
        OptSet::Baseline,
        OptSet::LastAgent,
        OptSet::Unsolicited,
        OptSet::EarlyAck,
        OptSet::VoteReliable,
        OptSet::WaitForOutcome,
        OptSet::LongLocks,
        OptSet::UnsolicitedEarlyAck,
        OptSet::LastAgentWait,
    ];

    /// Stable cell-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            OptSet::Baseline => "baseline",
            OptSet::LastAgent => "last_agent",
            OptSet::Unsolicited => "unsolicited",
            OptSet::EarlyAck => "early_ack",
            OptSet::VoteReliable => "vote_reliable",
            OptSet::WaitForOutcome => "wait_for_outcome",
            OptSet::LongLocks => "long_locks",
            OptSet::UnsolicitedEarlyAck => "unsolicited+early_ack",
            OptSet::LastAgentWait => "last_agent+wait",
        }
    }

    /// The engine-level switches for this subset.
    pub fn opts(self) -> OptimizationConfig {
        match self {
            OptSet::Baseline => OptimizationConfig::none(),
            OptSet::LastAgent => OptimizationConfig::none().with_last_agent(true),
            OptSet::Unsolicited => OptimizationConfig::none().with_unsolicited_vote(true),
            OptSet::EarlyAck => OptimizationConfig::none().with_ack_mode(AckMode::Early),
            OptSet::VoteReliable => OptimizationConfig::none().with_vote_reliable(true),
            OptSet::WaitForOutcome => OptimizationConfig::none().with_wait_for_outcome(true),
            OptSet::LongLocks => OptimizationConfig::none().with_long_locks(true),
            OptSet::UnsolicitedEarlyAck => OptimizationConfig::none()
                .with_unsolicited_vote(true)
                .with_ack_mode(AckMode::Early),
            OptSet::LastAgentWait => OptimizationConfig::none()
                .with_last_agent(true)
                .with_wait_for_outcome(true),
        }
    }

    /// Whether the sweep nodes carry the reliable vote qualifier (only
    /// vote-reliable needs it — the qualifier is what the optimization
    /// keys on).
    fn reliable(self) -> bool {
        self == OptSet::VoteReliable
    }

    /// Whether subordinates self-prepare (host-level unsolicited-vote
    /// trigger, mirroring the live runtime's `unsolicited()` knob).
    fn unsolicited(self) -> bool {
        matches!(self, OptSet::Unsolicited | OptSet::UnsolicitedEarlyAck)
    }
}

/// Where in the protocol the victim (the cascade's *mid* node — the one
/// participant that is both a subordinate and a coordinator) crashes.
/// Times are virtual and fixed, so each cell is fully deterministic; the
/// names describe the baseline timeline (work window 20 ms, 1.2 ms hop
/// latency: commit requested at 20 ms, Prepare at mid ≈ 21.2 ms,
/// cascaded Prepare at leaf ≈ 22.4 ms, leaf vote ≈ 23.6 ms, mid's vote
/// at root ≈ 24.8 ms, Decision at mid ≈ 26 ms, acks ≈ 28 ms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashStep {
    /// No crash: the clean path, asserted against the closed form.
    None,
    /// During the work phase, before any vote exists anywhere.
    MidWork,
    /// The root's Prepare is in flight; mid dies without receiving it.
    PrepareInFlight,
    /// Mid has propagated Prepare to the leaf but not yet voted.
    Prepared,
    /// Mid's YES vote has reached the root; mid is in doubt.
    Voted,
    /// The Decision reached mid; mid dies mid-phase-2.
    Decided,
}

impl CrashStep {
    /// Every step, in sweep order.
    pub const ALL: [CrashStep; 6] = [
        CrashStep::None,
        CrashStep::MidWork,
        CrashStep::PrepareInFlight,
        CrashStep::Prepared,
        CrashStep::Voted,
        CrashStep::Decided,
    ];

    /// Stable cell-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            CrashStep::None => "clean",
            CrashStep::MidWork => "mid_work",
            CrashStep::PrepareInFlight => "prepare_in_flight",
            CrashStep::Prepared => "prepared",
            CrashStep::Voted => "voted",
            CrashStep::Decided => "decided",
        }
    }

    /// The victim's crash instant (virtual µs), `None` for the clean
    /// cell.
    pub fn crash_at(self) -> Option<SimTime> {
        match self {
            CrashStep::None => None,
            CrashStep::MidWork => Some(SimTime(5_000)),
            CrashStep::PrepareInFlight => Some(SimTime(20_600)),
            CrashStep::Prepared => Some(SimTime(22_800)),
            CrashStep::Voted => Some(SimTime(25_200)),
            CrashStep::Decided => Some(SimTime(26_500)),
        }
    }
}

/// Closed-form cost expectation for a clean cell: total protocol flows
/// (a range — last-agent's implied ack and unsolicited's self-prepare
/// race make one frame timing-dependent; exact cells have `lo == hi`)
/// and exact per-node `(tm_writes, tm_forced)` for root, mid and leaf.
#[derive(Clone, Copy, Debug)]
pub struct CellCosts {
    /// Inclusive range of total protocol flows.
    pub flows: (u64, u64),
    /// `(writes, forced)` for root, mid, leaf — the paper's TM-stream
    /// accounting.
    pub per_node: [(u64, u64); 3],
}

/// One sweep cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Protocol family under test.
    pub protocol: ProtocolKind,
    /// Optimization subset enabled on every node.
    pub optset: OptSet,
    /// Where (if anywhere) the mid node crashes.
    pub crash: CrashStep,
}

/// The full deterministic enumeration: every protocol family × 9
/// optimization subsets × 6 crash steps (3 × 9 × 6 = 162 cells).
pub fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for protocol in ProtocolKind::ALL {
        for optset in OptSet::ALL {
            for crash in CrashStep::ALL {
                cells.push(Cell {
                    protocol,
                    optset,
                    crash,
                });
            }
        }
    }
    cells
}

impl Cell {
    /// Stable human-readable cell name for assertion messages.
    pub fn name(&self) -> String {
        format!(
            "{:?}/{}/{}",
            self.protocol,
            self.optset.name(),
            self.crash.name()
        )
    }

    /// Builds the ready-to-run simulator for this cell: the three-node
    /// cascade, the transaction, and (for crash cells) the victim's
    /// crash/restart schedule with fast failure timers so recovery
    /// settles well inside the horizon.
    pub fn build(&self) -> (Sim, [NodeId; 3]) {
        let crash = self.crash.crash_at();
        let mut cfg = SimConfig::default();
        if crash.is_some() {
            cfg = cfg.with_horizon(SimDuration::from_secs(30));
        }
        let mut sim = Sim::new(cfg);
        let timeouts = if crash.is_some() {
            Timeouts {
                vote_collection: SimDuration::from_secs(2),
                ack_collection: SimDuration::from_millis(200),
                in_doubt_query: SimDuration::from_millis(300),
            }
        } else {
            Timeouts::default()
        };
        let mut node_cfg = NodeConfig::new(self.protocol)
            .with_opts(self.optset.opts())
            .with_timeouts(timeouts);
        if self.optset.reliable() {
            node_cfg = node_cfg.reliable();
        }
        // Only the LEAF self-prepares under unsolicited: if the mid did
        // too, both would fire at the same instant and the mid's
        // redundant cascaded Prepare would cross the leaf's unsolicited
        // vote on the wire, costing the flow the optimization saves.
        // (The paper's workflow framing: the leaf knows its work is done;
        // an intermediate with a live subtree does not.)
        let leaf_cfg = if self.optset.unsolicited() {
            node_cfg.clone().unsolicited()
        } else {
            node_cfg.clone()
        };
        let root = sim.add_node(node_cfg.clone());
        let mid = sim.add_node(node_cfg);
        let leaf = sim.add_node(leaf_cfg);
        sim.declare_partner(root, mid);
        sim.declare_partner(mid, leaf);
        sim.push_txn(
            TxnSpec::local_update(root, "r", "1")
                .with_edge(WorkEdge::update(root, mid, "m", "1"))
                .with_edge(WorkEdge::update(mid, leaf, "l", "1")),
        );
        if let Some(at) = crash {
            sim.crash_at(mid, at);
            sim.restart_at(mid, SimTime(1_000_000));
        }
        (sim, [root, mid, leaf])
    }

    /// The closed-form expectation for the clean cell; `None` for crash
    /// cells (those assert the durable-floor rules instead — see
    /// [`Cell::commit_floor`]).
    pub fn expected(&self) -> Option<CellCosts> {
        if self.crash != CrashStep::None {
            return None;
        }
        // PN's CommitPending* on every coordinator seat: one write, forced.
        let cp = u64::from(self.protocol.rules().commit_pending);
        // Baseline cascade accounting (Table 2 generalized, pinned by
        // table2_counts / table2_prop): per-seat the root pays
        // (2 writes, 1 forced) — Committed*, End — an updating
        // intermediate (3, 2), and an updating leaf (3, 2), plus the
        // CommitPending* on the two coordinator seats. Flows are 4 per
        // edge.
        let root_base = (2 + cp, 1 + cp);
        let mid_base = (3 + cp, 2 + cp);
        let leaf_base = (3, 2);
        let some = |flows: (u64, u64), per_node| Some(CellCosts { flows, per_node });
        match self.optset {
            // Early-ack, vote-reliable, wait-for-outcome and long-locks
            // move *when* acks and notifications happen, never how many
            // records are written or (after the end-of-run flush) how
            // many flows are paid: their closed form IS the baseline's.
            OptSet::Baseline
            | OptSet::EarlyAck
            | OptSet::VoteReliable
            | OptSet::WaitForOutcome
            | OptSet::LongLocks => some((8, 8), [root_base, mid_base, leaf_base]),
            // Last-agent: the root self-prepares and forces a Prepared*
            // naming the delegate (2 extra writes, 1 extra force over a
            // plain coordinator) — except under PN, where the forced
            // CommitPending* already names the delegate and the Prepared
            // record rides unforced (+2 writes, +0 forces). The delegate
            // decides without voting, so its seat pays a coordinator's
            // (2, 1) (+ PN's CommitPending* when cascading Phase 1). One
            // root↔mid round trip collapses: 4E − 2 flows, +1 when the
            // root's implied ack flushes as its own frame.
            OptSet::LastAgent | OptSet::LastAgentWait => {
                let root = (3 + cp, 2);
                let mid = (2 + cp, 1 + cp);
                some((6, 7), [root, mid, leaf_base])
            }
            // Unsolicited votes: the leaf self-prepares when its work
            // completes, so its vote reaches the mid before the mid even
            // begins Phase 1 — the cascaded Prepare flow vanishes (8 − 1:
            // the unsolicited vote itself is still a flow). Write counts
            // are untouched — the same records force, just earlier.
            OptSet::Unsolicited | OptSet::UnsolicitedEarlyAck => {
                some((7, 7), [root_base, mid_base, leaf_base])
            }
        }
    }

    /// The durable-floor rule for crash cells, per the paper's
    /// correctness argument: a transaction may only COMMIT if every
    /// updating subordinate's YES vote was backed by a forced Prepared
    /// record and the commit point itself was forced. Returns the
    /// minimum `(root_forced, mid_forced, leaf_forced)` given the
    /// settled outcome was Commit.
    pub fn commit_floor(&self) -> (u64, u64, u64) {
        let cp = u64::from(self.protocol.rules().commit_pending);
        // Root: Committed* (PN additionally forced CommitPending*).
        // Mid / leaf: at least their Prepared* (mid's may be absent only
        // if it was the last-agent delegate, which never happens here —
        // the root delegates only under last_agent, and then mid still
        // forces its commit record as the decider).
        (1 + cp, 1, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_stable_and_large_enough() {
        let cells = all_cells();
        assert_eq!(cells.len(), 162);
        // Names are unique — every cell is a distinct coordinate.
        let mut names: Vec<String> = cells.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 162);
    }

    #[test]
    fn every_optset_validates() {
        for optset in OptSet::ALL {
            optset
                .opts()
                .validate()
                .expect("sweep optset must be valid");
        }
    }
}
