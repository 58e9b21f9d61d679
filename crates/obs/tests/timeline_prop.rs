//! Property: the timeline is a lossless decomposition of the cumulative
//! recorder. Summing every window's deltas — histograms bucket-for-bucket,
//! counters exactly — reproduces the cumulative [`ObsSnapshot`], as long
//! as the ring is large enough that no window was evicted.

use std::sync::Arc;

use proptest::prelude::*;
use tpc_common::{NodeId, SimTime, TxnId};
use tpc_obs::{Obs, Phase, Timeline, TimelineCounter};

/// One randomized recording action against the shared `Obs`.
#[derive(Clone, Copy, Debug)]
enum Action {
    Phase { phase: usize, micros: u64 },
    Enter { txn: u64 },
    Resolve { txn: u64 },
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..Phase::ALL.len(), 0u64..100_000)
            .prop_map(|(phase, micros)| Action::Phase { phase, micros }),
        (0u64..20).prop_map(|txn| Action::Enter { txn }),
        (0u64..20).prop_map(|txn| Action::Resolve { txn }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_deltas_sum_to_cumulative_snapshot(
        actions in prop::collection::vec(action(), 1..200),
        window_us in 1u64..5_000,
    ) {
        // Ring sized so the whole run fits: one action per 100µs of
        // virtual time, so the last window index is bounded by
        // 200 * 100 / window_us; +2 covers rounding.
        let windows = (200 * 100 / window_us + 2) as usize;
        let timeline = Arc::new(Timeline::new(window_us, windows));
        let obs = Obs::new().with_timeline(Arc::clone(&timeline));

        let mut clock = 0u64;
        for a in &actions {
            clock += 100;
            let now = SimTime(clock);
            match *a {
                Action::Phase { phase, micros } => {
                    obs.record_at(Phase::ALL[phase], micros, now);
                }
                Action::Enter { txn } => {
                    obs.in_doubt_enter(TxnId::new(NodeId(0), txn), now);
                }
                Action::Resolve { txn } => {
                    obs.in_doubt_resolve(TxnId::new(NodeId(0), txn), now);
                }
            }
        }

        let now = SimTime(clock);
        let cumulative = obs.snapshot_at(now);
        let tl = timeline.snapshot(now);

        prop_assert_eq!(tl.late_drops, 0, "ring must have been large enough");

        // Per-phase histograms: bucket-for-bucket identical.
        for (phase, cum_hist) in &cumulative.phases {
            let windowed = tl.hist_total(*phase);
            prop_assert_eq!(&windowed, cum_hist, "phase {}", phase.name());
        }

        // In-doubt transition counters match exactly (idempotent entries
        // and no-op resolves must not desynchronize the two views).
        prop_assert_eq!(
            tl.counter_total(TimelineCounter::InDoubtEntered),
            cumulative.in_doubt_entered
        );
        prop_assert_eq!(
            tl.counter_total(TimelineCounter::InDoubtResolved),
            cumulative.in_doubt_resolved
        );
    }
}
