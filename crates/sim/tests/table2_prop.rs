//! Property-level generalization of the Table 2/3 count tests: random
//! tree shapes × random optimization subsets, asserting the *measured*
//! flow and log-write counts match the paper's closed-form
//! per-participant formulas.
//!
//! The closed forms, for a committing transaction over a tree with `E`
//! edges (so `E + 1` participants), `R` read-only leaves and `U`
//! unsolicited-voting leaves:
//!
//! | protocol | flows         | writes            | forced            |
//! |----------|---------------|-------------------|-------------------|
//! | Basic/PA | 4E − 2R − U   | 2 + 3(E − R)      | 1 + 2(E − R)      |
//! | PN       | 4E            | +1 per coordinator seat (forced)      |
//! | PC       | 3E            | see per-seat table in the test        |
//!
//! Per-seat: a Basic/PA root logs (2 writes, 1 forced); every other
//! updating participant (3, 2); a read-only participant (0, 0); an
//! unsolicited voter saves exactly its Prepare flow and nothing else.
//! PN adds one forced commit-pending record at every coordinator seat
//! (root and interior). PC replaces the ack flow with nothing, logs
//! (3, 2) at the root, (3, 1) at subordinate leaves, and (4, 2) at
//! interior nodes (subordinate records plus a forced Collecting).

use proptest::prelude::*;
use tpc_common::{AckMode, NodeId, OptimizationConfig, Outcome, ProtocolKind};
use tpc_sim::{NodeConfig, RunReport, Sim, SimConfig, TxnSpec, WorkEdge};

/// What a non-root participant does in the transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Attr {
    Update,
    ReadOnly,
    Unsolicited,
}

/// A random rooted tree over nodes `0..=E` (node 0 is the root; the
/// parent of node `i` has a smaller index, so work always reaches a
/// parent before its own edges fire) plus a per-node attribute.
#[derive(Debug)]
struct Shape {
    parents: Vec<usize>, // parents[i - 1] = parent of node i
    attrs: Vec<Attr>,    // attrs[i - 1] = attribute of node i
}

impl Shape {
    /// Decodes raw generator output. The optimization attributes are
    /// kept on *leaves* only — that is where the paper's read-only and
    /// unsolicited-vote formulas apply without interacting with the
    /// node's own coordinator seat — so interior nodes are downgraded
    /// to plain updaters.
    fn decode(raw: &[(u32, u8)]) -> Shape {
        let parents: Vec<usize> = raw
            .iter()
            .enumerate()
            .map(|(i, (p, _))| (*p as usize) % (i + 1))
            .collect();
        let attrs = raw
            .iter()
            .enumerate()
            .map(|(i, (_, a))| {
                let node = i + 1;
                let is_leaf = !parents.contains(&node);
                match a % 3 {
                    1 if is_leaf => Attr::ReadOnly,
                    2 if is_leaf => Attr::Unsolicited,
                    _ => Attr::Update,
                }
            })
            .collect();
        Shape { parents, attrs }
    }

    fn edges(&self) -> usize {
        self.parents.len()
    }

    fn interior_nonroot(&self) -> usize {
        (1..=self.edges())
            .filter(|n| self.parents.contains(n))
            .count()
    }

    fn count(&self, attr: Attr) -> usize {
        self.attrs.iter().filter(|a| **a == attr).count()
    }

    /// Runs one committing transaction over this tree and returns the
    /// clean report.
    fn run(&self, mk_cfg: impl Fn(usize) -> NodeConfig) -> RunReport {
        let mut sim = Sim::new(SimConfig::default());
        let n = self.edges() + 1;
        let ids: Vec<NodeId> = (0..n).map(|i| sim.add_node(mk_cfg(i))).collect();
        let mut spec = TxnSpec::local_update(ids[0], "k/n0", "v");
        for (i, &p) in self.parents.iter().enumerate() {
            let child = i + 1;
            sim.declare_partner(ids[p], ids[child]);
            let key = format!("k/n{child}");
            spec = spec.with_edge(match self.attrs[i] {
                Attr::ReadOnly => WorkEdge::read(ids[p], ids[child], &key),
                _ => WorkEdge::update(ids[p], ids[child], &key, "v"),
            });
        }
        sim.push_txn(spec);
        let report = sim.run();
        report.assert_clean();
        assert_eq!(report.single().outcome, Outcome::Commit);
        report
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Presumed Abort over a random tree with a random subset of
    /// read-only and unsolicited-voting leaves: totals AND the per-node
    /// breakdown must match the closed forms.
    #[test]
    fn pa_tree_mixed_leaves_match_closed_form(
        raw in prop::collection::vec((any::<u32>(), 0u8..3), 1..=7)
    ) {
        let shape = Shape::decode(&raw);
        let report = shape.run(|i| {
            let cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
                .with_opts(OptimizationConfig::none().with_read_only(true));
            if i > 0 && shape.attrs[i - 1] == Attr::Unsolicited {
                cfg.unsolicited()
            } else {
                cfg
            }
        });
        let e = shape.edges() as u64;
        let r = shape.count(Attr::ReadOnly) as u64;
        let u = shape.count(Attr::Unsolicited) as u64;
        prop_assert_eq!(
            report.protocol_flows(),
            4 * e - 2 * r - u,
            "flows: shape {:?}",
            shape
        );
        prop_assert_eq!(report.tm_writes(), 2 + 3 * (e - r), "writes: {:?}", shape);
        prop_assert_eq!(report.tm_forced(), 1 + 2 * (e - r), "forced: {:?}", shape);
        // Per-participant accounting.
        prop_assert_eq!(
            (report.per_node[0].tm_writes, report.per_node[0].tm_forced),
            (2, 1),
            "root seat"
        );
        for (i, attr) in shape.attrs.iter().enumerate() {
            let node = &report.per_node[i + 1];
            let want = match attr {
                Attr::ReadOnly => (0, 0),
                _ => (3, 2), // unsolicited saves a flow, never a write
            };
            prop_assert_eq!(
                (node.tm_writes, node.tm_forced),
                want,
                "node {} attr {:?} in {:?}",
                i + 1,
                attr,
                shape
            );
        }
    }

    /// Every protocol family over random all-updating trees. Interior
    /// nodes are where the families genuinely differ: PN pays a forced
    /// commit-pending per coordinator seat, PC a forced Collecting.
    #[test]
    fn protocol_families_tree_costs(
        raw in prop::collection::vec((any::<u32>(), 0u8..1), 1..=7)
    ) {
        let shape = Shape::decode(&raw);
        let e = shape.edges() as u64;
        let interior = shape.interior_nonroot() as u64;
        let leaves = e - interior;
        for protocol in [
            ProtocolKind::Basic,
            ProtocolKind::PresumedAbort,
            ProtocolKind::PresumedNothing,
            ProtocolKind::PresumedCommit,
        ] {
            let report = shape.run(|_| NodeConfig::new(protocol));
            let (flows, writes, forced) = match protocol {
                ProtocolKind::Basic | ProtocolKind::PresumedAbort => {
                    (4 * e, 2 + 3 * e, 1 + 2 * e)
                }
                ProtocolKind::PresumedNothing => (
                    4 * e,
                    3 + 4 * interior + 3 * leaves,
                    2 + 3 * interior + 2 * leaves,
                ),
                ProtocolKind::PresumedCommit => (
                    3 * e,
                    3 + 4 * interior + 3 * leaves,
                    2 + 2 * interior + leaves,
                ),
            };
            prop_assert_eq!(
                report.protocol_flows(),
                flows,
                "{} flows over {:?}",
                protocol,
                shape
            );
            prop_assert_eq!(report.tm_writes(), writes, "{} writes over {:?}", protocol, shape);
            prop_assert_eq!(report.tm_forced(), forced, "{} forced over {:?}", protocol, shape);
        }
    }

    /// Last-agent delegation on a random-width star: the prepare/commit
    /// round to the delegate collapses (2 flows saved; at most one
    /// reappears as the flushed implied ack), and — the paper's caveat —
    /// forced writes do NOT drop: the initiator's extra forced prepared
    /// record exactly cancels the delegate's saved one.
    #[test]
    fn last_agent_star_preserves_write_totals(subs in 1usize..=6) {
        let mut sim = Sim::new(SimConfig::default());
        let root_cfg = NodeConfig::new(ProtocolKind::PresumedAbort)
            .with_opts(OptimizationConfig::none().with_last_agent(true));
        let sub_cfg = NodeConfig::new(ProtocolKind::PresumedAbort);
        let root = sim.add_node(root_cfg);
        let ids: Vec<NodeId> = (0..subs).map(|_| sim.add_node(sub_cfg.clone())).collect();
        for s in &ids {
            sim.declare_partner(root, *s);
        }
        sim.push_txn(TxnSpec::star_update(root, &ids, "t"));
        let report = sim.run();
        report.assert_clean();
        prop_assert_eq!(report.single().outcome, Outcome::Commit);

        let n = subs as u64 + 1;
        let baseline_flows = 4 * (n - 1);
        prop_assert!(
            report.protocol_flows() >= baseline_flows - 2
                && report.protocol_flows() < baseline_flows,
            "last agent saves the delegate round: {} flows vs baseline {}",
            report.protocol_flows(),
            baseline_flows
        );
        prop_assert_eq!(report.tm_writes(), 3 * n - 1, "no write savings");
        prop_assert_eq!(report.tm_forced(), 2 * n - 1, "no forced savings");
    }

    /// Early acknowledgment composes with the tree formula for free: a
    /// random tree with mixed read-only and unsolicited leaves, with
    /// early-ack switched on everywhere, pays exactly the same flows and
    /// writes as without it — the optimization moves *when* the upstream
    /// ack happens, never how many frames or records exist.
    #[test]
    fn early_ack_is_count_free_over_random_trees(
        raw in prop::collection::vec((any::<u32>(), 0u8..3), 1..=7)
    ) {
        let shape = Shape::decode(&raw);
        let report = shape.run(|i| {
            let cfg = NodeConfig::new(ProtocolKind::PresumedAbort).with_opts(
                OptimizationConfig::none()
                    .with_read_only(true)
                    .with_ack_mode(AckMode::Early),
            );
            if i > 0 && shape.attrs[i - 1] == Attr::Unsolicited {
                cfg.unsolicited()
            } else {
                cfg
            }
        });
        let e = shape.edges() as u64;
        let r = shape.count(Attr::ReadOnly) as u64;
        let u = shape.count(Attr::Unsolicited) as u64;
        prop_assert_eq!(
            report.protocol_flows(),
            4 * e - 2 * r - u,
            "flows with early-ack: {:?}",
            shape
        );
        prop_assert_eq!(report.tm_writes(), 2 + 3 * (e - r), "writes: {:?}", shape);
        prop_assert_eq!(report.tm_forced(), 1 + 2 * (e - r), "forced: {:?}", shape);
    }

    /// The full §4 combination on a random-width star: last-agent
    /// delegation at the initiator, a random subset of the non-delegate
    /// subordinates voting unsolicited, early-ack on everywhere. Savings
    /// add: the delegate round collapses (2 flows, one may reappear as
    /// the flushed implied ack) and each unsolicited voter saves its
    /// Prepare flow — while the write totals stay exactly the paper's
    /// caveat: the initiator's extra forced Prepared* cancels the
    /// delegate's saved records, and nothing else moves.
    #[test]
    fn last_agent_unsolicited_early_ack_combine_on_a_star(
        subs in 2usize..=6,
        mask in any::<u8>(),
    ) {
        let mut sim = Sim::new(SimConfig::default());
        let opts = OptimizationConfig::none()
            .with_last_agent(true)
            .with_ack_mode(AckMode::Early);
        let base = NodeConfig::new(ProtocolKind::PresumedAbort).with_opts(opts);
        let root = sim.add_node(base.clone());
        // The delegate is the most recently touched partner — the final
        // star edge — so only earlier subordinates may vote unsolicited
        // (a self-prepared delegate would have nothing left to collapse).
        let unsolicited: Vec<bool> = (0..subs).map(|i| i + 1 < subs && mask >> i & 1 == 1).collect();
        let ids: Vec<NodeId> = unsolicited
            .iter()
            .map(|u| sim.add_node(if *u { base.clone().unsolicited() } else { base.clone() }))
            .collect();
        for s in &ids {
            sim.declare_partner(root, *s);
        }
        sim.push_txn(TxnSpec::star_update(root, &ids, "t"));
        let report = sim.run();
        report.assert_clean();
        prop_assert_eq!(report.single().outcome, Outcome::Commit);

        let s = subs as u64;
        let u = unsolicited.iter().filter(|b| **b).count() as u64;
        let flows = report.protocol_flows();
        prop_assert!(
            flows >= 4 * s - u - 2 && flows < 4 * s - u,
            "flows {} for {} subs ({} unsolicited): want [{}, {})",
            flows,
            s,
            u,
            4 * s - u - 2,
            4 * s - u
        );
        prop_assert_eq!(report.tm_writes(), 3 * s + 2, "write totals never move");
        prop_assert_eq!(report.tm_forced(), 2 * s + 1, "forced totals never move");
        // Per-seat: initiator pays the delegate's coordinator records.
        prop_assert_eq!(
            (report.per_node[0].tm_writes, report.per_node[0].tm_forced),
            (3, 2),
            "initiator seat"
        );
        for (i, &was_unsolicited) in unsolicited.iter().enumerate() {
            let node = &report.per_node[i + 1];
            let want = if i + 1 == subs { (2, 1) } else { (3, 2) };
            prop_assert_eq!(
                (node.tm_writes, node.tm_forced),
                want,
                "sub {} (unsolicited {})",
                i,
                was_unsolicited
            );
        }
    }
}
