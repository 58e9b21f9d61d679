//! Per-engine counters matching the paper's evaluation metrics.

/// Message and outcome counters for one node's engine.
///
/// Frames ("flows" in the paper) are counted at the sender; each frame may
/// carry several piggybacked protocol messages, which the paper's metric
/// deliberately does not charge for (§4 *Long Locks*: "the commit
/// acknowledgment can be packaged in the same packet as the
/// next-transaction data").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Network frames sent (the paper's "message flows").
    pub frames_sent: u64,
    /// Frames whose primary message is application data (`Work`). The
    /// paper's flow counts cover commit traffic only, so table generators
    /// subtract these: `frames_sent - work_frames` is the 2PC flow count.
    pub work_frames: u64,
    /// Individual protocol messages sent (>= frames when piggybacking).
    pub messages_sent: u64,
    /// Messages that rode along in another message's frame.
    pub piggybacked_messages: u64,
    /// Transactions this node decided (as root or delegate).
    pub decided: u64,
    /// ... of which committed.
    pub committed: u64,
    /// ... of which aborted.
    pub aborted: u64,
    /// Heuristic decisions taken here.
    pub heuristic_decisions: u64,
    /// ... of which jumped to commit.
    pub heuristic_commits: u64,
    /// ... of which jumped to abort.
    pub heuristic_aborts: u64,
    /// Heuristic damage observed here (decision conflicted with outcome).
    pub heuristic_damage: u64,
    /// Damage reported by the subtree in acknowledgments received here.
    /// At the root under PN this counts every damaged node in the tree —
    /// the reliable reporting Figure 3 buys; under PA one hop only.
    pub damage_reports_received: u64,
    /// Damage reports received from children that were *not* forwarded
    /// upstream (PA's one-hop reporting) — the reliability loss the paper
    /// contrasts PN against.
    pub damage_reports_absorbed: u64,
    /// Commit operations that completed with "outcome pending"
    /// (wait-for-outcome).
    pub outcome_pending_completions: u64,
    /// Transactions in which this node was skipped entirely by leave-out.
    pub left_out_of: u64,
    /// Recovery `Query` messages this node answered for in-doubt peers.
    pub recovery_queries_answered: u64,
}

impl EngineMetrics {
    /// Difference between a later snapshot and this one.
    pub fn delta(&self, later: &EngineMetrics) -> EngineMetrics {
        EngineMetrics {
            frames_sent: later.frames_sent - self.frames_sent,
            work_frames: later.work_frames - self.work_frames,
            messages_sent: later.messages_sent - self.messages_sent,
            piggybacked_messages: later.piggybacked_messages - self.piggybacked_messages,
            decided: later.decided - self.decided,
            committed: later.committed - self.committed,
            aborted: later.aborted - self.aborted,
            heuristic_decisions: later.heuristic_decisions - self.heuristic_decisions,
            heuristic_commits: later.heuristic_commits - self.heuristic_commits,
            heuristic_aborts: later.heuristic_aborts - self.heuristic_aborts,
            heuristic_damage: later.heuristic_damage - self.heuristic_damage,
            damage_reports_received: later.damage_reports_received - self.damage_reports_received,
            damage_reports_absorbed: later.damage_reports_absorbed - self.damage_reports_absorbed,
            outcome_pending_completions: later.outcome_pending_completions
                - self.outcome_pending_completions,
            left_out_of: later.left_out_of - self.left_out_of,
            recovery_queries_answered: later.recovery_queries_answered
                - self.recovery_queries_answered,
        }
    }

    /// Adds another node's counters (for cluster-wide totals).
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.frames_sent += other.frames_sent;
        self.work_frames += other.work_frames;
        self.messages_sent += other.messages_sent;
        self.piggybacked_messages += other.piggybacked_messages;
        self.decided += other.decided;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.heuristic_decisions += other.heuristic_decisions;
        self.heuristic_commits += other.heuristic_commits;
        self.heuristic_aborts += other.heuristic_aborts;
        self.heuristic_damage += other.heuristic_damage;
        self.damage_reports_received += other.damage_reports_received;
        self.damage_reports_absorbed += other.damage_reports_absorbed;
        self.outcome_pending_completions += other.outcome_pending_completions;
        self.left_out_of += other.left_out_of;
        self.recovery_queries_answered += other.recovery_queries_answered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_merge() {
        let a = EngineMetrics {
            frames_sent: 10,
            messages_sent: 12,
            committed: 2,
            decided: 2,
            ..Default::default()
        };
        let b = EngineMetrics {
            frames_sent: 15,
            messages_sent: 20,
            committed: 3,
            decided: 4,
            aborted: 1,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.frames_sent, 5);
        assert_eq!(d.messages_sent, 8);
        assert_eq!(d.committed, 1);
        assert_eq!(d.aborted, 1);

        let mut total = a;
        total.merge(&b);
        assert_eq!(total.frames_sent, 25);
        assert_eq!(total.decided, 6);
    }
}
