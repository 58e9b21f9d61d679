//! Workspace-level property tests: atomicity of the full protocol stack
//! under randomized topologies, optimization mixes, refusals, latencies
//! and crash schedules.

use proptest::prelude::*;
use twopc::prelude::*;
use twopc::simnet::LatencyModel;

fn protocol_from(idx: u8) -> ProtocolKind {
    ProtocolKind::ALL[(idx as usize) % ProtocolKind::ALL.len()]
}

fn opts_from(bits: u8) -> OptimizationConfig {
    OptimizationConfig::none()
        .with_read_only(bits & 1 != 0)
        .with_last_agent(bits & 2 != 0)
        .with_long_locks(bits & 4 != 0)
        .with_vote_reliable(bits & 8 != 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random stars: any protocol, any optimization mix, random
    /// read-only/updating subordinates, optional refuser. The run must be
    /// clean and the outcome must match the presence of a refuser.
    #[test]
    fn random_stars_are_atomic(
        protocol_idx in 0u8..4,
        opt_bits in 0u8..16,
        n_subs in 1usize..7,
        ro_mask in any::<u8>(),
        refuser in prop::option::of(0usize..7),
        latency_us in 200u64..3_000,
        seed in any::<u64>(),
    ) {
        let protocol = protocol_from(protocol_idx);
        let opts = opts_from(opt_bits);
        let cfg = SimConfig {
            latency: LatencyModel::Uniform(
                SimDuration::from_micros(latency_us / 2),
                SimDuration::from_micros(latency_us),
            ),
            seed,
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg);
        let refuser_idx = refuser.filter(|r| *r < n_subs);
        let root = sim.add_node(NodeConfig::new(protocol).with_opts(opts.clone()));
        let mut subs = Vec::new();
        for i in 0..n_subs {
            let mut node_cfg = NodeConfig::new(protocol).with_opts(opts.clone());
            if refuser_idx == Some(i) {
                node_cfg = node_cfg.vote_no_on(1);
            }
            let id = sim.add_node(node_cfg);
            sim.declare_partner(root, id);
            subs.push(id);
        }
        let updaters: Vec<NodeId> = subs
            .iter()
            .enumerate()
            .filter(|(i, _)| ro_mask & (1 << i) == 0)
            .map(|(_, n)| *n)
            .collect();
        let readers: Vec<NodeId> = subs
            .iter()
            .enumerate()
            .filter(|(i, _)| ro_mask & (1 << i) != 0)
            .map(|(_, n)| *n)
            .collect();
        sim.push_txn(TxnSpec::star_mixed(root, &updaters, &readers, "p"));
        let report = sim.run();
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
        prop_assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
        prop_assert_eq!(report.outcomes.len(), 1);
        // A refuser forces abort IF it was asked to do real work or asked
        // to prepare at all (it always is, as a standing partner) —
        // unless it voted READ-ONLY first (the scripted NO applies at
        // prepare, and read-only participants refuse too — LocalVote::no
        // wins). Either way: refuser present => abort.
        let expected = if refuser_idx.is_some() {
            Outcome::Abort
        } else {
            Outcome::Commit
        };
        prop_assert_eq!(report.single().outcome, expected);
    }

    /// Random chains with a crash at a random node and time: after the
    /// restart settles, nothing may disagree (blocked-in-doubt is allowed
    /// for the baseline protocol; disagreement never is).
    #[test]
    fn random_chains_with_crashes_never_diverge(
        protocol_idx in 0u8..4,
        depth in 2usize..5,
        crash_at_ms in 1u64..40,
        crash_node in 0usize..5,
        seed in any::<u64>(),
    ) {
        let protocol = protocol_from(protocol_idx);
        let cfg = SimConfig {
            seed,
            horizon: SimDuration::from_secs(120),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(cfg);
        let timeouts = twopc::core::Timeouts {
            vote_collection: SimDuration::from_secs(2),
            ack_collection: SimDuration::from_millis(300),
            in_doubt_query: SimDuration::from_millis(500),
        };
        let node_cfg = NodeConfig::new(protocol).with_timeouts(timeouts);
        let ids: Vec<NodeId> = (0..depth).map(|_| sim.add_node(node_cfg.clone())).collect();
        for w in ids.windows(2) {
            sim.declare_partner(w[0], w[1]);
        }
        let mut spec = TxnSpec::local_update(ids[0], "root", "1");
        for w in ids.windows(2) {
            spec = spec.with_edge(WorkEdge::update(w[0], w[1], &format!("k{}", w[1].0), "1"));
        }
        sim.push_txn(spec);
        let victim = ids[crash_node % depth];
        sim.crash_at(victim, SimTime(crash_at_ms * 1_000));
        sim.restart_at(victim, SimTime(2_000_000));
        let report = sim.run();
        // Divergence is never acceptable; blocking may be (Basic).
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
        if !report.unresolved.is_empty() {
            prop_assert_eq!(
                protocol, ProtocolKind::Basic,
                "only the baseline may block: {:?}", report.unresolved
            );
        }
    }

    /// Multi-transaction sequences across random protocols stay clean and
    /// leave no residue (locks, seats, owed acks).
    #[test]
    fn random_sequences_leave_no_residue(
        protocol_idx in 0u8..4,
        opt_bits in 0u8..16,
        txn_count in 1usize..8,
        seed in any::<u64>(),
    ) {
        let protocol = protocol_from(protocol_idx);
        let opts = opts_from(opt_bits);
        let cfg = SimConfig {
            seed,
            ..SimConfig::default().real()
        };
        let mut sim = Sim::new(cfg);
        let node_cfg = NodeConfig::new(protocol).with_opts(opts);
        let n0 = sim.add_node(node_cfg.clone());
        let n1 = sim.add_node(node_cfg.clone());
        let n2 = sim.add_node(node_cfg);
        sim.declare_partner(n0, n1);
        sim.declare_partner(n0, n2);
        for i in 0..txn_count {
            sim.push_txn(TxnSpec::star_update(n0, &[n1, n2], &format!("t{i}")));
        }
        let report = sim.run();
        prop_assert!(report.violations.is_empty(), "{:?}", report.violations);
        prop_assert!(report.unresolved.is_empty(), "{:?}", report.unresolved);
        prop_assert_eq!(report.outcomes.len(), txn_count);
        for node in [n0, n1, n2] {
            prop_assert_eq!(sim.engine(node).active_txns(), 0);
            prop_assert_eq!(sim.rm(node).unwrap().locked_keys(), 0);
            // The last transaction's committed values are present.
            let key = format!("t{}/n{}", txn_count - 1, node.0);
            prop_assert!(sim.rm(node).unwrap().get(key.as_bytes()).is_some());
        }
    }
}
