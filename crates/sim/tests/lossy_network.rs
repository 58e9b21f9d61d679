//! At-least-once delivery under random frame loss: the retry machinery
//! (vote timeouts, decision re-delivery, in-doubt queries) must resolve
//! every transaction without divergence, whatever gets dropped.

use tpc_common::{Outcome, ProtocolKind, SimDuration};
use tpc_core::Timeouts;
use tpc_sim::{NodeConfig, Sim, SimConfig, TxnSpec};

fn fast() -> Timeouts {
    Timeouts {
        vote_collection: SimDuration::from_millis(500),
        ack_collection: SimDuration::from_millis(200),
        in_doubt_query: SimDuration::from_millis(300),
    }
}

fn run_lossy(protocol: ProtocolKind, loss: f64, seed: u64, txns: usize) -> (usize, usize) {
    let mut sim = Sim::new(SimConfig {
        seed,
        horizon: SimDuration::from_secs(300),
        ..SimConfig::default()
    });
    let cfg = NodeConfig::new(protocol).with_timeouts(fast());
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let n2 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.declare_partner(n0, n2);
    sim.set_loss_rate(loss);
    for i in 0..txns {
        sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], &format!("t{i}")));
    }
    let report = sim.run();
    assert!(
        report.violations.is_empty(),
        "{protocol} loss={loss} seed={seed}: {:?}",
        report.violations
    );
    assert!(
        report.unresolved.is_empty(),
        "{protocol} loss={loss} seed={seed}: {:?}",
        report.unresolved
    );
    assert_eq!(report.outcomes.len(), txns, "{protocol} seed={seed}");
    let committed = report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Commit)
        .count();
    (committed, txns - committed)
}

#[test]
fn pa_survives_ten_percent_loss() {
    let mut total_committed = 0;
    for seed in 0..4 {
        let (c, _a) = run_lossy(ProtocolKind::PresumedAbort, 0.10, seed, 10);
        total_committed += c;
    }
    // Loss converts some commits into (clean) aborts; most still commit.
    assert!(total_committed >= 20, "only {total_committed}/40 committed");
}

#[test]
fn pn_survives_ten_percent_loss() {
    for seed in 0..4 {
        run_lossy(ProtocolKind::PresumedNothing, 0.10, seed, 10);
    }
}

#[test]
fn heavy_loss_still_never_diverges() {
    // 30% loss: plenty of aborts, but never inconsistency.
    for seed in 0..3 {
        run_lossy(ProtocolKind::PresumedAbort, 0.30, seed, 8);
        run_lossy(ProtocolKind::PresumedNothing, 0.30, seed + 100, 8);
    }
}
