//! Protocol-variant and optimization configuration.
//!
//! The engine implements one state machine whose behaviour is steered by
//! data: a [`ProtocolKind`] whose [`ProtocolRules`] row selects the
//! presumption/logging regime, and an [`OptimizationConfig`] toggling
//! each of the paper's §4 optimizations.
//! This keeps every variant comparable — the benches run the *same* code
//! with different configuration rows, mirroring the paper's tables.

use crate::time::SimDuration;
use crate::{Error, Outcome, Result};

/// Which 2PC family a node runs.
///
/// The families differ only in the handful of rules collected in
/// [`ProtocolRules`]; the engine reads those through
/// [`ProtocolKind::rules`] and never branches on the variant itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The baseline protocol of §2 / Figures 1–2: coordinator logs nothing
    /// before Phase 1, forces a commit record, aborts are force-logged and
    /// acknowledged, coordinator retains outcome information until all acks
    /// arrive.
    Basic,
    /// Presumed Abort (§3): subordinate-driven recovery; a coordinator with
    /// no information presumes abort, so the abort path needs no forces and
    /// no acks, and read-only transactions need no logging at all.
    PresumedAbort,
    /// IBM's Presumed Nothing (§3 / Figure 3): the coordinator force-logs a
    /// commit-pending record *before* sending Prepare, drives recovery
    /// itself, collects acknowledgments from every subordinate, and reports
    /// heuristic damage reliably to the root.
    PresumedNothing,
}

/// The rules by which one protocol family differs from the others: one
/// row of [`ProtocolKind::rules`]'s table. Each column is a decision the
/// engine makes; everything not listed here is common to every family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolRules {
    /// Every coordinator seat forces a `CommitPending` record naming its
    /// subordinates before Phase 1 (PN, Figure 3). Because that record
    /// already names a last agent, a delegating initiator's `Prepared`
    /// record rides unforced.
    pub commit_pending: bool,
    /// Aborts are force-logged, acknowledged and remembered for recovery
    /// queries. Not under PA, where an abort leaves no trace and the
    /// no-information answer presumes it.
    pub remembers_aborts: bool,
    /// The answer to a query about a transaction this node holds no
    /// information on: `Some(outcome)` presumes it, `None` answers
    /// "outcome unknown" and leaves the asker blocked (Basic).
    pub presumption: Option<Outcome>,
    /// The coordinator drives recovery: it re-drives the decision until
    /// every subordinate has acknowledged, even under long locks or
    /// wait-for-outcome, and its prepared participants never query (PN).
    pub coordinator_recovers: bool,
    /// The root application learns the outcome at the decision, before
    /// the acknowledgments (PA's R*-style commit point).
    pub notify_at_decision: bool,
    /// Heuristic damage reports travel all the way up to the root (Basic,
    /// PN); otherwise each coordinator absorbs its children's reports and
    /// forwards only its own (PA, §3: "only reported to the immediate
    /// coordinator").
    pub damage_to_root: bool,
}

/// One row per [`ProtocolKind`], in declaration order.
const RULES: [ProtocolRules; 3] = [
    // Basic
    ProtocolRules {
        commit_pending: false,
        remembers_aborts: true,
        presumption: None,
        coordinator_recovers: false,
        notify_at_decision: false,
        damage_to_root: true,
    },
    // PresumedAbort
    ProtocolRules {
        commit_pending: false,
        remembers_aborts: false,
        presumption: Some(Outcome::Abort),
        coordinator_recovers: false,
        notify_at_decision: true,
        damage_to_root: false,
    },
    // PresumedNothing: the forced commit-pending record means a
    // coordinator never forgets an unresolved transaction, so no
    // information means it never reached Phase 2 and abort is safe.
    ProtocolRules {
        commit_pending: true,
        remembers_aborts: true,
        presumption: Some(Outcome::Abort),
        coordinator_recovers: true,
        notify_at_decision: false,
        damage_to_root: true,
    },
];

impl ProtocolRules {
    /// Is `outcome` logged, acknowledged and remembered for queries?
    /// Commits always are; aborts only under
    /// [`remembers_aborts`](Self::remembers_aborts).
    pub fn remembers(&self, outcome: Outcome) -> bool {
        outcome == Outcome::Commit || self.remembers_aborts
    }
}

impl ProtocolKind {
    /// All protocol families, in the order the paper discusses them (and
    /// the order of the rules table).
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::Basic,
        ProtocolKind::PresumedAbort,
        ProtocolKind::PresumedNothing,
    ];

    /// Short name used in tables and traces.
    pub fn short_name(self) -> &'static str {
        match self {
            ProtocolKind::Basic => "2PC",
            ProtocolKind::PresumedAbort => "PA",
            ProtocolKind::PresumedNothing => "PN",
        }
    }

    /// This family's row of the rules table.
    pub const fn rules(self) -> &'static ProtocolRules {
        &RULES[self as usize]
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Acknowledgment timing for cascaded coordinators (§4, *Commit
/// Acknowledgment*).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AckMode {
    /// "I and all members of my subordinate subtree have committed" —
    /// the intermediate holds its ack until all children acked. Reliable
    /// damage reporting; the root waits longest.
    #[default]
    Late,
    /// "I have committed and am in the middle of propagation" — the
    /// intermediate acks as soon as its own commit record is logged.
    Early,
}

/// When an in-doubt participant gives up waiting and decides unilaterally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum HeuristicPolicy {
    /// Never decide heuristically; block until the outcome is learned.
    #[default]
    Never,
    /// After `timeout` in doubt, unilaterally commit.
    CommitAfter(SimDuration),
    /// After `timeout` in doubt, unilaterally abort.
    AbortAfter(SimDuration),
}

impl HeuristicPolicy {
    /// The in-doubt timeout, if this policy ever fires.
    pub fn timeout(self) -> Option<SimDuration> {
        match self {
            HeuristicPolicy::Never => None,
            HeuristicPolicy::CommitAfter(t) | HeuristicPolicy::AbortAfter(t) => Some(t),
        }
    }
}

/// Per-node switches for the paper's §4 optimizations.
///
/// Every field defaults to *off*, which reproduces the protocol family
/// unadorned; the table generators turn them on row by row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimizationConfig {
    /// Read-Only: participants that performed no updates vote READ-ONLY,
    /// skip phase two, and write no log records.
    pub read_only: bool,
    /// Leaving Inactive Partners Out: subordinates vote `ok_to_leave_out`
    /// when their subtree suspends between requests; the coordinator skips
    /// them in later transactions that never touch them.
    pub leave_out: bool,
    /// Last Agent: delegate the commit decision to one subordinate; the
    /// coordinator prepares itself and everyone else first.
    pub last_agent: bool,
    /// Unsolicited Vote: servers that know they are done self-prepare and
    /// vote YES without waiting for Prepare.
    pub unsolicited_vote: bool,
    /// Shared Log: co-located LRMs piggyback on the TM's forces, skipping
    /// their own prepared/committed forces.
    pub shared_log: bool,
    /// Group Commit: the log manager batches force requests.
    pub group_commit: Option<GroupCommitConfig>,
    /// Long Locks: the subordinate buffers its commit ack and piggybacks it
    /// on the first message of the next transaction.
    pub long_locks: bool,
    /// Acknowledgment timing at cascaded coordinators.
    pub ack_mode: AckMode,
    /// Vote Reliable: if every subordinate voted `reliable`, an
    /// intermediate may use early acks while retaining late-ack semantics.
    pub vote_reliable: bool,
    /// Wait For Outcome: on failure during ack collection, make one
    /// recovery attempt then complete with "outcome pending" instead of
    /// blocking the application.
    pub wait_for_outcome: bool,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        OptimizationConfig {
            read_only: false,
            leave_out: false,
            last_agent: false,
            unsolicited_vote: false,
            shared_log: false,
            group_commit: None,
            long_locks: false,
            ack_mode: AckMode::Late,
            vote_reliable: false,
            wait_for_outcome: false,
        }
    }
}

impl OptimizationConfig {
    /// No optimizations — the bare protocol family.
    pub fn none() -> Self {
        OptimizationConfig::default()
    }

    /// Everything the paper recommends for the commercial normal case,
    /// with late acks retained via vote-reliable.
    pub fn all() -> Self {
        OptimizationConfig {
            read_only: true,
            leave_out: true,
            last_agent: true,
            unsolicited_vote: false, // application-specific; off by default
            shared_log: true,
            group_commit: Some(GroupCommitConfig::default()),
            long_locks: true,
            ack_mode: AckMode::Late,
            vote_reliable: true,
            // Deliberately off: wait-for-outcome keeps the application
            // blocked until every ack arrives, while long locks defers
            // those very acks to the next transaction — combining them
            // deadlocks the conversation (validate() rejects it).
            wait_for_outcome: false,
        }
    }

    /// Builder-style setters, so table generators read like the paper rows.
    pub fn with_read_only(mut self, on: bool) -> Self {
        self.read_only = on;
        self
    }

    /// Enables/disables leave-inactive-partners-out.
    pub fn with_leave_out(mut self, on: bool) -> Self {
        self.leave_out = on;
        self
    }

    /// Enables/disables last-agent delegation.
    pub fn with_last_agent(mut self, on: bool) -> Self {
        self.last_agent = on;
        self
    }

    /// Enables/disables unsolicited votes.
    pub fn with_unsolicited_vote(mut self, on: bool) -> Self {
        self.unsolicited_vote = on;
        self
    }

    /// Enables/disables TM/LRM log sharing.
    pub fn with_shared_log(mut self, on: bool) -> Self {
        self.shared_log = on;
        self
    }

    /// Sets the group-commit policy.
    pub fn with_group_commit(mut self, cfg: Option<GroupCommitConfig>) -> Self {
        self.group_commit = cfg;
        self
    }

    /// Enables/disables long locks.
    pub fn with_long_locks(mut self, on: bool) -> Self {
        self.long_locks = on;
        self
    }

    /// Sets the acknowledgment timing.
    pub fn with_ack_mode(mut self, mode: AckMode) -> Self {
        self.ack_mode = mode;
        self
    }

    /// Enables/disables vote-reliable.
    pub fn with_vote_reliable(mut self, on: bool) -> Self {
        self.vote_reliable = on;
        self
    }

    /// Enables/disables wait-for-outcome.
    pub fn with_wait_for_outcome(mut self, on: bool) -> Self {
        self.wait_for_outcome = on;
        self
    }

    /// Rejects configurations the paper calls out as contradictory.
    pub fn validate(&self) -> Result<()> {
        if self.vote_reliable && self.ack_mode == AckMode::Early {
            return Err(Error::Config(
                "vote_reliable selects early acks dynamically; fixing ack_mode=Early \
                 makes the reliability vote meaningless"
                    .into(),
            ));
        }
        if self.long_locks && self.wait_for_outcome {
            return Err(Error::Config(
                "long_locks defers commit acks to the next transaction while \
                 wait_for_outcome blocks the application until those acks arrive; \
                 the combination deadlocks the conversation"
                    .into(),
            ));
        }
        if let Some(gc) = &self.group_commit {
            gc.validate()?;
        }
        Ok(())
    }
}

/// Group-commit batching policy (§4, *Group Commits*): hold a force until
/// `batch_size` requests accumulate or `max_wait` elapses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// Number of force requests that triggers an immediate flush.
    pub batch_size: usize,
    /// Maximum time the first queued request may wait.
    pub max_wait: SimDuration,
    /// Retired: must be `false` ([`validate`](Self::validate) rejects
    /// `true`). It used to select an estimator that guessed from arrival
    /// and flush-cost averages when waiting for company was pointless;
    /// the live host now observes that directly — a lane about to block
    /// flushes its open batch (`GroupCommitter::idle`) — so there is
    /// nothing left to switch on. The field stays because struct literals
    /// across the workspace and the benchmark name it.
    pub adaptive: bool,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            batch_size: 4,
            max_wait: SimDuration::from_millis(5),
            adaptive: false,
        }
    }
}

impl GroupCommitConfig {
    /// Rejects degenerate policies.
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(Error::Config("group commit batch_size must be >= 1".into()));
        }
        if self.adaptive {
            return Err(Error::Config(
                "group commit `adaptive` is retired: the live host flushes an open \
                 batch whenever its lane goes idle, which subsumes it; set it to false"
                    .into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_rows_match_the_paper() {
        use ProtocolKind::*;
        // One row per family, in the order ALL lists them: a family
        // without a row, or a row missing from ALL, fails here.
        assert_eq!(RULES.len(), ProtocolKind::ALL.len());
        for (i, p) in ProtocolKind::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p} is out of table order");
        }

        // §2, Figures 1–2: nothing before Phase 1; aborts forced and
        // acknowledged; no presumption, so a forgetful coordinator can
        // only answer "unknown"; late notification; damage reported up
        // the whole tree.
        assert_eq!(
            *Basic.rules(),
            ProtocolRules {
                commit_pending: false,
                remembers_aborts: true,
                presumption: None,
                coordinator_recovers: false,
                notify_at_decision: false,
                damage_to_root: true,
            }
        );
        // §3 Presumed Abort: aborts cost no force, no ack and no memory;
        // no information presumes abort; subordinates drive recovery;
        // the commit point returns control; damage goes one hop.
        assert_eq!(
            *PresumedAbort.rules(),
            ProtocolRules {
                commit_pending: false,
                remembers_aborts: false,
                presumption: Some(Outcome::Abort),
                coordinator_recovers: false,
                notify_at_decision: true,
                damage_to_root: false,
            }
        );
        // §3 / Figure 3 Presumed Nothing: commit-pending forced before
        // Phase 1; every outcome acknowledged; the coordinator drives
        // recovery and reports damage reliably to the root.
        assert_eq!(
            *PresumedNothing.rules(),
            ProtocolRules {
                commit_pending: true,
                remembers_aborts: true,
                presumption: Some(Outcome::Abort),
                coordinator_recovers: true,
                notify_at_decision: false,
                damage_to_root: true,
            }
        );
    }

    #[test]
    fn default_config_is_all_off() {
        let c = OptimizationConfig::none();
        assert!(!c.read_only && !c.leave_out && !c.last_agent);
        assert!(!c.unsolicited_vote && !c.shared_log && !c.long_locks);
        assert!(c.group_commit.is_none());
        assert_eq!(c.ack_mode, AckMode::Late);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let c = OptimizationConfig::none()
            .with_read_only(true)
            .with_last_agent(true)
            .with_long_locks(true);
        assert!(c.read_only && c.last_agent && c.long_locks);
        assert!(!c.leave_out);
    }

    #[test]
    fn contradictory_config_rejected() {
        let c = OptimizationConfig::none()
            .with_vote_reliable(true)
            .with_ack_mode(AckMode::Early);
        assert!(c.validate().is_err());
    }

    #[test]
    fn group_commit_validation() {
        let bad = GroupCommitConfig {
            batch_size: 0,
            max_wait: SimDuration::from_millis(1),
            adaptive: false,
        };
        assert!(bad.validate().is_err());
        assert!(GroupCommitConfig::default().validate().is_ok());
        let c = OptimizationConfig::none().with_group_commit(Some(bad));
        assert!(c.validate().is_err());
        // The retired switch fails loudly instead of being ignored.
        let adaptive = GroupCommitConfig {
            adaptive: true,
            ..GroupCommitConfig::default()
        };
        let err = adaptive.validate().expect_err("adaptive is rejected");
        assert!(err.to_string().contains("adaptive"), "{err}");
    }

    #[test]
    fn heuristic_policy_timeout() {
        assert_eq!(HeuristicPolicy::Never.timeout(), None);
        let t = SimDuration::from_secs(30);
        assert_eq!(HeuristicPolicy::CommitAfter(t).timeout(), Some(t));
        assert_eq!(HeuristicPolicy::AbortAfter(t).timeout(), Some(t));
    }

    #[test]
    fn all_config_is_valid() {
        assert!(OptimizationConfig::all().validate().is_ok());
    }
}
