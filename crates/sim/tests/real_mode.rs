//! Real-mode scenarios: the engine driving actual resource managers with
//! strict 2PL, undo/redo logging and crash recovery of data.

use tpc_common::config::GroupCommitConfig;
use tpc_common::{OptimizationConfig, Outcome, ProtocolKind, SimDuration, SimTime};
use tpc_sim::{NodeConfig, Op, Sim, SimConfig, TxnSpec, WorkEdge};

fn store_value(sim: &Sim, node: tpc_common::NodeId, key: &str) -> Option<Vec<u8>> {
    sim.rm(node).expect("real mode").get(key.as_bytes())
}

#[test]
fn committed_values_are_visible_everywhere() {
    for protocol in ProtocolKind::ALL {
        let mut sim = Sim::new(SimConfig::default().real());
        let cfg = NodeConfig::new(protocol);
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg.clone());
        let n2 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.declare_partner(n0, n2);
        sim.push_txn(
            TxnSpec::local_update(n0, "acct/root", "100")
                .with_edge(WorkEdge::update(n0, n1, "acct/a", "50"))
                .with_edge(WorkEdge::update(n0, n2, "acct/b", "50")),
        );
        let report = sim.run();
        report.assert_clean();
        assert_eq!(report.single().outcome, Outcome::Commit, "{protocol}");
        assert_eq!(store_value(&sim, n0, "acct/root"), Some(b"100".to_vec()));
        assert_eq!(store_value(&sim, n1, "acct/a"), Some(b"50".to_vec()));
        assert_eq!(store_value(&sim, n2, "acct/b"), Some(b"50".to_vec()));
    }
}

#[test]
fn aborted_values_vanish_everywhere() {
    for protocol in ProtocolKind::ALL {
        let mut sim = Sim::new(SimConfig::default().real());
        let cfg = NodeConfig::new(protocol);
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg.clone().vote_no_on(1));
        let n2 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.declare_partner(n0, n2);
        sim.push_txn(
            TxnSpec::local_update(n0, "k0", "x")
                .with_edge(WorkEdge::update(n0, n1, "k1", "x"))
                .with_edge(WorkEdge::update(n0, n2, "k2", "x")),
        );
        let report = sim.run();
        report.assert_clean();
        assert_eq!(report.single().outcome, Outcome::Abort, "{protocol}");
        for (n, k) in [(n0, "k0"), (n1, "k1"), (n2, "k2")] {
            assert_eq!(store_value(&sim, n, k), None, "{protocol}: {k} leaked");
        }
    }
}

#[test]
fn explicit_rollback_request_discards_work() {
    let mut sim = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(
        TxnSpec::local_update(n0, "a", "1")
            .with_edge(WorkEdge::update(n0, n1, "b", "1"))
            .aborting(),
    );
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.single().outcome, Outcome::Abort);
    assert_eq!(store_value(&sim, n0, "a"), None);
    assert_eq!(store_value(&sim, n1, "b"), None);
}

#[test]
fn sequential_transactions_see_each_others_effects() {
    let mut sim = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(
        TxnSpec::local_update(n0, "k", "v1").with_edge(WorkEdge::update(n0, n1, "r", "1")),
    );
    sim.push_txn(
        TxnSpec::local_update(n0, "k", "v2").with_edge(WorkEdge::update(n0, n1, "r", "2")),
    );
    sim.push_txn(TxnSpec {
        root: n0,
        root_ops: vec![Op::del("k")],
        edges: vec![WorkEdge::update(n0, n1, "r", "3")],
        late_edges: vec![],
        commit: true,
    });
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(store_value(&sim, n0, "k"), None, "deleted by txn 3");
    assert_eq!(store_value(&sim, n1, "r"), Some(b"3".to_vec()));
}

#[test]
fn concurrent_transactions_conflict_and_serialize() {
    // Two concurrent roots updating the same key at a shared server: 2PL
    // serializes them; both commit; the later writer wins.
    let mut sim = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg.clone());
    let server = sim.add_node(cfg);
    sim.declare_partner(n0, server);
    sim.declare_partner(n1, server);
    sim.push_txn_at(
        TxnSpec {
            root: n0,
            root_ops: vec![],
            edges: vec![WorkEdge::update(n0, server, "hot", "from-n0")],
            late_edges: vec![],
            commit: true,
        },
        SimTime(0),
    );
    sim.push_txn_at(
        TxnSpec {
            root: n1,
            root_ops: vec![],
            edges: vec![WorkEdge::update(n1, server, "hot", "from-n1")],
            late_edges: vec![],
            commit: true,
        },
        SimTime(2_000),
    );
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.outcomes.iter().all(|o| o.outcome == Outcome::Commit));
    // The second transaction waited for the first's locks.
    let locks = report
        .per_node
        .iter()
        .find(|n| n.node == server)
        .unwrap()
        .locks;
    assert!(locks.waits >= 1, "expected a lock wait: {locks:?}");
    assert_eq!(store_value(&sim, server, "hot"), Some(b"from-n1".to_vec()));
}

#[test]
fn deadlock_victim_aborts_and_the_other_commits() {
    // Classic two-key deadlock at a shared server, built with two-wave
    // work: txn A takes `a` then wants `b`; txn B takes `b` then wants
    // `a`. The victim votes NO at prepare; the survivor commits.
    let mut sim = Sim::new(SimConfig::default().real());
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let ra = sim.add_node(cfg.clone());
    let rb = sim.add_node(cfg.clone());
    let server = sim.add_node(cfg);
    sim.declare_partner(ra, server);
    sim.declare_partner(rb, server);
    sim.push_txn_at(
        TxnSpec {
            root: ra,
            root_ops: vec![],
            edges: vec![WorkEdge::update(ra, server, "a", "A")],
            late_edges: vec![WorkEdge::update(ra, server, "b", "A")],
            commit: true,
        },
        SimTime(0),
    );
    sim.push_txn_at(
        TxnSpec {
            root: rb,
            root_ops: vec![],
            edges: vec![WorkEdge::update(rb, server, "b", "B")],
            late_edges: vec![WorkEdge::update(rb, server, "a", "B")],
            commit: true,
        },
        SimTime(100),
    );
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.outcomes.len(), 2);
    let committed: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Commit)
        .collect();
    let aborted: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.outcome == Outcome::Abort)
        .collect();
    assert_eq!(committed.len(), 1, "exactly one survivor");
    assert_eq!(aborted.len(), 1, "exactly one victim");
    let locks = report
        .per_node
        .iter()
        .find(|n| n.node == server)
        .unwrap()
        .locks;
    assert_eq!(locks.deadlocks, 1, "{locks:?}");
    // The survivor's values are in place, consistently on both keys.
    let a = store_value(&sim, server, "a").unwrap();
    let b = store_value(&sim, server, "b").unwrap();
    assert_eq!(a, b, "both keys belong to the surviving transaction");
}

#[test]
fn shared_log_saves_rm_forces() {
    // §4 Sharing the Log: with the TM and LRM on one log, the LRM's
    // prepared and committed records ride the TM's forces — 2 forced
    // writes saved per sharing LRM, with recovery still correct.
    let run = |shared: bool| {
        let mut sim = Sim::new(SimConfig::default().real());
        let opts = OptimizationConfig::none().with_shared_log(shared);
        let cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts);
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
        let report = sim.run();
        report.assert_clean();
        (
            report.per_node[0].rm_forced + report.per_node[1].rm_forced,
            report.total_physical_flushes(),
        )
    };
    let (separate_forced, separate_flushes) = run(false);
    let (shared_forced, shared_flushes) = run(true);
    assert_eq!(separate_forced, 4, "2 RM forces per updating node");
    assert_eq!(shared_forced, 0, "all RM records ride the TM forces");
    assert!(
        shared_flushes < separate_flushes,
        "physical flushes must drop: {shared_flushes} vs {separate_flushes}"
    );
}

#[test]
fn shared_log_crash_between_rm_write_and_tm_force_stays_atomic() {
    // The subordinate crashes right after the (unforced, shared-log) RM
    // prepared record but before the TM prepared force: recovery must
    // find nothing and the transaction aborts cleanly.
    let mut sim = Sim::new(
        SimConfig::default()
            .real()
            .with_horizon(SimDuration::from_secs(20)),
    );
    let opts = OptimizationConfig::none().with_shared_log(true);
    let timeouts = tpc_core::Timeouts {
        vote_collection: SimDuration::from_secs(1),
        ack_collection: SimDuration::from_millis(200),
        in_doubt_query: SimDuration::from_millis(300),
    };
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_opts(opts)
        .with_timeouts(timeouts);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    // Work arrives ~1.2 ms (RM update logged, unforced). Crash at 2 ms,
    // long before the 20 ms prepare.
    sim.crash_at(n1, SimTime(2_000));
    sim.restart_at(n1, SimTime(3_000_000));
    let report = sim.run();
    assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
    assert_eq!(report.single().outcome, Outcome::Abort);
    assert_eq!(store_value(&sim, n1, "t/n1"), None);
}

#[test]
fn crashed_subordinate_recovers_committed_data_from_its_log() {
    // Commit fully; crash the subordinate afterwards; restart: the store
    // is rebuilt from the durable log (redo).
    let mut sim = Sim::new(
        SimConfig::default()
            .real()
            .with_horizon(SimDuration::from_secs(20)),
    );
    let cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let n0 = sim.add_node(cfg.clone());
    let n1 = sim.add_node(cfg);
    sim.declare_partner(n0, n1);
    sim.push_txn(TxnSpec::star_update(n0, &[n1], "t"));
    sim.crash_at(n1, SimTime(1_000_000)); // long after completion
    sim.restart_at(n1, SimTime(2_000_000));
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.single().outcome, Outcome::Commit);
    assert_eq!(
        store_value(&sim, n1, "t/n1"),
        Some(b"t".to_vec()),
        "redo must rebuild committed data"
    );
}

#[test]
fn group_commit_batches_concurrent_forces() {
    // Ten concurrent transactions from ten roots against one server whose
    // log batches forces (batch of 4 / 2 ms): physical flushes at the
    // server drop well below its logical forces.
    let mut sim = Sim::new(SimConfig::default().real());
    let gc = GroupCommitConfig {
        batch_size: 4,
        max_wait: SimDuration::from_millis(2),
        adaptive: false,
    };
    let server_cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
        .with_opts(OptimizationConfig::none().with_group_commit(Some(gc)));
    let root_cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
    let server = sim.add_node(server_cfg);
    let roots: Vec<_> = (0..10).map(|_| sim.add_node(root_cfg.clone())).collect();
    for (i, r) in roots.iter().enumerate() {
        sim.declare_partner(*r, server);
        sim.push_txn_at(
            TxnSpec {
                root: *r,
                root_ops: vec![],
                edges: vec![WorkEdge::update(*r, server, &format!("k{i}"), "v")],
                late_edges: vec![],
                commit: true,
            },
            SimTime(i as u64 * 100),
        );
    }
    let report = sim.run();
    report.assert_clean();
    assert_eq!(report.outcomes.len(), 10);
    let server_report = report.per_node.iter().find(|n| n.node == server).unwrap();
    // 10 prepared forces + 10 committed forces batched on the TM log.
    // The server's physical flushes (TM log batched + RM log) must fall
    // below its total logical forces.
    assert!(
        server_report.physical_flushes < server_report.forced(),
        "batching must reduce flushes: {} flushes for {} forces",
        server_report.physical_flushes,
        server_report.forced()
    );
    for i in 0..10 {
        assert_eq!(
            store_value(&sim, server, &format!("k{i}")),
            Some(b"v".to_vec())
        );
    }
}

// ---------------------------------------------------------------------
// Sim ↔ live equivalence: both harnesses interpret engine actions
// through the one shared driver in tpc-core, so for the same scenario
// they must produce *identical* flow and log-write counts per node.
// ---------------------------------------------------------------------

mod equivalence {
    use super::*;
    use tpc_common::NodeId;
    use tpc_runtime::{LiveCluster, LiveNodeConfig};

    /// The scenario both harnesses run: root n0 updates locally, n1
    /// updates, n2 updates — or only reads when `readonly_sub` (the
    /// read-only-optimization variant, where n2's vote drops it from
    /// Phase 2).
    const ROOT_KEY: &str = "r";
    const N1_KEY: &str = "a";
    const N2_KEY: &str = "b";

    struct PerNode {
        flows_sent: u64,
        log_writes: u64,
        forced_writes: u64,
        rm_forced: u64,
    }

    fn run_sim(
        protocol: ProtocolKind,
        opts: &OptimizationConfig,
        readonly_sub: bool,
    ) -> Vec<PerNode> {
        let mut sim = Sim::new(SimConfig::default().real());
        let cfg = NodeConfig::new(protocol).with_opts(opts.clone());
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg.clone());
        let n2 = sim.add_node(cfg);
        sim.declare_partner(n0, n1);
        sim.declare_partner(n0, n2);
        let mut spec = TxnSpec::local_update(n0, ROOT_KEY, "v")
            .with_edge(WorkEdge::update(n0, n1, N1_KEY, "1"));
        spec = if readonly_sub {
            spec.with_edge(WorkEdge::read(n0, n2, N2_KEY))
        } else {
            spec.with_edge(WorkEdge::update(n0, n2, N2_KEY, "2"))
        };
        sim.push_txn(spec);
        let report = sim.run();
        report.assert_clean();
        assert_eq!(report.single().outcome, Outcome::Commit, "{protocol} (sim)");
        [n0, n1, n2]
            .iter()
            .map(|&n| {
                let stats = sim.driver_stats(n);
                let rm_forced = report
                    .per_node
                    .iter()
                    .find(|r| r.node == n)
                    .map(|r| r.rm_forced)
                    .unwrap();
                PerNode {
                    flows_sent: stats.flows_sent,
                    log_writes: stats.log_writes,
                    forced_writes: stats.forced_writes,
                    rm_forced,
                }
            })
            .collect()
    }

    fn run_live(
        protocol: ProtocolKind,
        opts: &OptimizationConfig,
        readonly_sub: bool,
    ) -> Vec<PerNode> {
        let cfg = LiveNodeConfig::new(protocol).with_opts(opts.clone());
        let c = LiveCluster::start_with_topology(vec![cfg; 3], &[(0, 1), (0, 2)]);
        let t = c.begin(NodeId(0));
        t.work(NodeId(0), vec![Op::put(ROOT_KEY, "v")]);
        t.work(NodeId(1), vec![Op::put(N1_KEY, "1")]);
        if readonly_sub {
            t.work(NodeId(2), vec![Op::get(N2_KEY)]);
        } else {
            t.work(NodeId(2), vec![Op::put(N2_KEY, "2")]);
        }
        let result = t.commit().expect("root alive");
        assert_eq!(result.outcome, Outcome::Commit, "{protocol} (live)");
        assert!(result.report.is_clean());
        // The root's reply races the tail of Phase 2 (acks, End records):
        // wait for every node to fully retire the transaction before
        // freezing counters.
        assert!(c.quiesce(std::time::Duration::from_secs(5)));
        c.shutdown()
            .into_iter()
            .map(|s| PerNode {
                flows_sent: s.driver.flows_sent,
                log_writes: s.driver.log_writes,
                forced_writes: s.driver.forced_writes,
                rm_forced: s.rm_log.forced_writes,
            })
            .collect()
    }

    fn assert_equivalent(protocol: ProtocolKind, opts: OptimizationConfig, readonly_sub: bool) {
        let sim = run_sim(protocol, &opts, readonly_sub);
        let live = run_live(protocol, &opts, readonly_sub);
        assert_eq!(sim.len(), live.len());
        for (i, (s, l)) in sim.iter().zip(live.iter()).enumerate() {
            let ctx = format!("{protocol}, readonly_sub={readonly_sub}, node {i}");
            assert_eq!(s.flows_sent, l.flows_sent, "flows diverge: {ctx}");
            assert_eq!(s.log_writes, l.log_writes, "log writes diverge: {ctx}");
            assert_eq!(
                s.forced_writes, l.forced_writes,
                "forced writes diverge: {ctx}"
            );
            assert_eq!(s.rm_forced, l.rm_forced, "RM forces diverge: {ctx}");
        }
    }

    #[test]
    fn sim_and_live_counts_match_no_opts() {
        for protocol in [
            ProtocolKind::Basic,
            ProtocolKind::PresumedAbort,
            ProtocolKind::PresumedNothing,
        ] {
            assert_equivalent(protocol, OptimizationConfig::none(), false);
        }
    }

    #[test]
    fn sim_and_live_counts_match_read_only() {
        for protocol in [
            ProtocolKind::Basic,
            ProtocolKind::PresumedAbort,
            ProtocolKind::PresumedNothing,
        ] {
            assert_equivalent(
                protocol,
                OptimizationConfig::none().with_read_only(true),
                true,
            );
        }
    }

    #[test]
    fn sim_and_live_counts_match_group_commit() {
        // Group commit batches *physical* flushes only; the logical
        // protocol — flows, log writes, forces — must be untouched, and
        // the live LogHost's suspend/resume machinery must not perturb
        // the action stream relative to the sim's.
        let gc = GroupCommitConfig {
            batch_size: 4,
            max_wait: SimDuration::from_millis(2),
            adaptive: false,
        };
        for protocol in [
            ProtocolKind::Basic,
            ProtocolKind::PresumedAbort,
            ProtocolKind::PresumedNothing,
        ] {
            assert_equivalent(
                protocol,
                OptimizationConfig::none().with_group_commit(Some(gc)),
                false,
            );
        }
    }

    #[test]
    fn sim_and_live_counts_match_last_agent() {
        for protocol in [
            ProtocolKind::Basic,
            ProtocolKind::PresumedAbort,
            ProtocolKind::PresumedNothing,
        ] {
            assert_equivalent(
                protocol,
                OptimizationConfig::none().with_last_agent(true),
                false,
            );
        }
    }
}
