//! Printable reproductions of the paper's Tables 1–4 (plus the group
//! commit and heuristic-reporting analyses).

use tpc_common::{
    AckMode, HeuristicPolicy, NodeId, OptimizationConfig, ProtocolKind, SimDuration, SimTime,
};
use tpc_sim::{NodeConfig, Sim, SimConfig, TxnSpec, WorkEdge};

use crate::rows::{
    run_contended, run_group_commit, run_latency_chain, run_pair, run_sequence, run_star,
};

fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Table 2: logging and network traffic of a 2-participant transaction,
/// per protocol variant and optimization.
pub fn table2() -> String {
    let mut out = header("Table 2: logging and network traffic (2 participants)");
    out.push_str(&format!(
        "{:<28} {:>6} {:>14} {:>6} {:>14}\n",
        "2PC variant", "C.flow", "C.logs(w,f)", "S.flow", "S.logs(w,f)"
    ));
    let mut row = |name: &str,
                   protocol: ProtocolKind,
                   opts: OptimizationConfig,
                   sub_work: Option<bool>,
                   no: bool,
                   unsolicited: bool| {
        let c = run_pair(protocol, opts, sub_work, no, unsolicited);
        out.push_str(&format!(
            "{:<28} {:>6} {:>9},{:>4} {:>6} {:>9},{:>4}\n",
            name,
            c.coordinator.flows,
            c.coordinator.writes,
            c.coordinator.forced,
            c.subordinate.flows,
            c.subordinate.writes,
            c.subordinate.forced,
        ));
    };
    let none = OptimizationConfig::none;
    row(
        "Basic 2PC",
        ProtocolKind::Basic,
        none(),
        Some(true),
        false,
        false,
    );
    row(
        "PN",
        ProtocolKind::PresumedNothing,
        none(),
        Some(true),
        false,
        false,
    );
    row(
        "PA, commit case",
        ProtocolKind::PresumedAbort,
        none(),
        Some(true),
        false,
        false,
    );
    row(
        "PA, abort case",
        ProtocolKind::PresumedAbort,
        none(),
        Some(true),
        true,
        false,
    );
    row(
        "PA, read-only case",
        ProtocolKind::PresumedAbort,
        none().with_read_only(true),
        Some(false),
        false,
        false,
    );
    row(
        "PA & last agent",
        ProtocolKind::PresumedAbort,
        none().with_last_agent(true),
        Some(true),
        false,
        false,
    );
    row(
        "PA & unsolicited vote",
        ProtocolKind::PresumedAbort,
        none(),
        Some(true),
        false,
        true,
    );
    row(
        "PA & long locks",
        ProtocolKind::PresumedAbort,
        none().with_long_locks(true),
        Some(true),
        false,
        false,
    );
    out
}

/// Table 3: n = 11 participants, m = 4 following each optimization.
pub fn table3() -> String {
    const N: usize = 11;
    let mut out = header("Table 3: costs for n=11 participants, m=4 optimized");
    out.push_str(&format!(
        "{:<28} {:>6} {:>7} {:>7}   {}\n",
        "2PC variant", "flows", "writes", "forced", "paper formula (flows)"
    ));
    fn push(out: &mut String, name: &str, report: &tpc_sim::RunReport, formula: &str) {
        out.push_str(&format!(
            "{:<28} {:>6} {:>7} {:>7}   {}\n",
            name,
            report.protocol_flows(),
            report.tm_writes(),
            report.tm_forced(),
            formula,
        ));
    }

    let basic = run_star(
        N,
        |_| NodeConfig::new(ProtocolKind::Basic),
        |root, subs| TxnSpec::star_update(root, subs, "t"),
    );
    push(&mut out, "Basic 2PC", &basic, "4(n-1) = 40");

    let ro = run_star(
        N,
        |_| {
            NodeConfig::new(ProtocolKind::PresumedAbort)
                .with_opts(OptimizationConfig::none().with_read_only(true))
        },
        |root, subs| TxnSpec::star_mixed(root, &subs[..6], &subs[6..], "t"),
    );
    push(&mut out, "PA & read-only (m=4)", &ro, "4(n-1) - 2m = 32");

    let unsolicited = run_star(
        N,
        |i| {
            let c = NodeConfig::new(ProtocolKind::PresumedAbort);
            if i >= 7 {
                c.unsolicited()
            } else {
                c
            }
        },
        |root, subs| TxnSpec::star_update(root, subs, "t"),
    );
    push(
        &mut out,
        "PA & unsolicited (m=4)",
        &unsolicited,
        "4(n-1) - m = 36",
    );

    let last_agent = run_star(
        N,
        |i| {
            let c = NodeConfig::new(ProtocolKind::PresumedAbort);
            if i == 0 {
                c.with_opts(OptimizationConfig::none().with_last_agent(true))
            } else {
                c
            }
        },
        |root, subs| TxnSpec::star_update(root, subs, "t"),
    );
    push(
        &mut out,
        "PA & last agent (m=1)",
        &last_agent,
        "4(n-1) - 2m = 38",
    );

    // Leave-out needs a priming transaction; isolate the second txn.
    let leave_out_delta = {
        let mk = || {
            NodeConfig::new(ProtocolKind::PresumedAbort)
                .with_opts(OptimizationConfig::none().with_leave_out(true))
                .suspendable()
        };
        let run2 = {
            let mut sim = Sim::new(SimConfig::default());
            let ids: Vec<NodeId> = (0..N).map(|_| sim.add_node(mk())).collect();
            for s in &ids[1..] {
                sim.declare_partner(ids[0], *s);
            }
            sim.push_txn(TxnSpec::star_update(ids[0], &ids[1..], "prime"));
            sim.push_txn(TxnSpec::star_update(ids[0], &ids[1..7], "t"));
            sim.run()
        };
        let run1 = {
            let mut sim = Sim::new(SimConfig::default());
            let ids: Vec<NodeId> = (0..N).map(|_| sim.add_node(mk())).collect();
            for s in &ids[1..] {
                sim.declare_partner(ids[0], *s);
            }
            sim.push_txn(TxnSpec::star_update(ids[0], &ids[1..], "prime"));
            sim.run()
        };
        (
            run2.protocol_flows() - run1.protocol_flows(),
            run2.tm_writes() - run1.tm_writes(),
            run2.tm_forced() - run1.tm_forced(),
        )
    };
    out.push_str(&format!(
        "{:<28} {:>6} {:>7} {:>7}   {}\n",
        "PA & leave-out (m=4)",
        leave_out_delta.0,
        leave_out_delta.1,
        leave_out_delta.2,
        "4(n-1) - 4m = 24"
    ));

    let long_locks = run_star(
        N,
        |i| {
            let c = NodeConfig::new(ProtocolKind::PresumedAbort);
            if (7..=10).contains(&i) {
                c.with_opts(OptimizationConfig::none().with_long_locks(true))
            } else {
                c
            }
        },
        |root, subs| TxnSpec::star_update(root, subs, "t"),
    );
    push(
        &mut out,
        "PA & long locks (m=4)",
        &long_locks,
        "4(n-1) - m = 36 (steady state)",
    );
    out
}

/// Table 4: long locks over r = 12 consecutive 2-member transactions.
pub fn table4() -> String {
    const R: u64 = 12;
    let mut out = header("Table 4: long locks over r=12 transactions (2 members)");
    out.push_str(&format!(
        "{:<36} {:>6} {:>7} {:>7}   {}\n",
        "2PC variant", "flows", "writes", "forced", "paper"
    ));
    fn push4(out: &mut String, name: &str, report: &tpc_sim::RunReport, paper: &str) {
        out.push_str(&format!(
            "{:<36} {:>6} {:>7} {:>7}   {}\n",
            name,
            report.protocol_flows(),
            report.tm_writes(),
            report.tm_forced(),
            paper,
        ));
    }
    let basic = run_sequence(R, ProtocolKind::Basic, OptimizationConfig::none(), false);
    push4(&mut out, "Basic 2PC", &basic, "4r = 48");
    let ll = run_sequence(
        R,
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none().with_long_locks(true),
        false,
    );
    push4(&mut out, "PA & long locks (not last agent)", &ll, "3r = 36");
    let ll_la = run_sequence(
        R,
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none()
            .with_long_locks(true)
            .with_last_agent(true),
        true,
    );
    push4(
        &mut out,
        "PA & long locks & last agent",
        &ll_la,
        "3r/2 = 18 (see EXPERIMENTS.md)",
    );
    out
}

/// Table 1, quantified: each optimization's measured advantage and its
/// measured cost, from the scenarios of §4.
pub fn table1() -> String {
    let mut out = header("Table 1 (quantified): advantages and tradeoffs");
    let baseline = run_pair(
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none(),
        Some(true),
        false,
        false,
    );
    out.push_str(&format!(
        "baseline (PA, 2 participants): {} flows, {} writes ({} forced)\n\n",
        baseline.total_flows,
        baseline.coordinator.writes + baseline.subordinate.writes,
        baseline.coordinator.forced + baseline.subordinate.forced,
    ));

    // Read-only.
    let ro = run_pair(
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none().with_read_only(true),
        Some(false),
        false,
        false,
    );
    out.push_str(&format!(
        "read-only        : {} flows, {} log writes — but the read-only partner \
         never learns the outcome\n",
        ro.total_flows,
        ro.coordinator.writes + ro.subordinate.writes,
    ));

    // Last agent.
    let la = run_pair(
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none().with_last_agent(true),
        Some(true),
        false,
        false,
    );
    out.push_str(&format!(
        "last agent       : {} flows (initiator pays an extra forced prepared record: \
         coordinator forces {} vs baseline {})\n",
        la.total_flows, la.coordinator.forced, baseline.coordinator.forced,
    ));

    // Unsolicited vote.
    let uv = run_pair(
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none(),
        Some(true),
        false,
        true,
    );
    out.push_str(&format!(
        "unsolicited vote : {} flows — application must know when it is done\n",
        uv.total_flows,
    ));

    // Vote reliable / ack timing (latency over a 40 ms far hop).
    let late = run_latency_chain(
        ProtocolKind::PresumedNothing,
        OptimizationConfig::none(),
        true,
    );
    let vr = run_latency_chain(
        ProtocolKind::PresumedNothing,
        OptimizationConfig::none().with_vote_reliable(true),
        true,
    );
    let early = run_latency_chain(
        ProtocolKind::PresumedNothing,
        OptimizationConfig::none().with_ack_mode(AckMode::Early),
        true,
    );
    out.push_str(&format!(
        "vote reliable    : root completion {} vs late-ack {} (early-ack {}) — \
         damage reporting lost if a 'reliable' resource does decide heuristically\n",
        vr, late, early,
    ));

    // Long locks.
    let ll = run_sequence(
        12,
        ProtocolKind::PresumedAbort,
        OptimizationConfig::none().with_long_locks(true),
        false,
    );
    out.push_str(&format!(
        "long locks       : {} flows for 12 txns (baseline 48) — subordinate \
         bookkeeping held to the next transaction\n",
        ll.protocol_flows(),
    ));

    // Group commit.
    let (forces, flushes) = run_group_commit(10, Some(4));
    out.push_str(&format!(
        "group commit     : {forces} logical forces served by {flushes} physical \
         flushes — individual commits wait for their batch\n",
    ));
    out
}

/// Group-commit sweep: physical flushes vs batch size.
pub fn group_commit_sweep() -> String {
    let mut out = header("Group commit: flushes vs batch size (20 concurrent txns)");
    out.push_str(&format!(
        "{:>10} {:>10} {:>10}\n",
        "batch", "forces", "flushes"
    ));
    let (forces, flushes) = run_group_commit(20, None);
    out.push_str(&format!("{:>10} {forces:>10} {flushes:>10}\n", "off"));
    for batch in [2usize, 4, 8, 16] {
        let (forces, flushes) = run_group_commit(20, Some(batch));
        out.push_str(&format!("{batch:>10} {forces:>10} {flushes:>10}\n"));
    }
    out
}

/// The paper's closing teaser, measured: "better performance can be
/// achieved by combining the different optimizations". A staircase of
/// optimization stacks over the same workload (PN, 1 root + 4 partners,
/// 2 of them read-only, 6 consecutive transactions touching half the
/// partners).
pub fn ablation() -> String {
    let mut out = header("Combined optimizations: the §5 staircase (PN, 5 nodes, 6 txns)");
    out.push_str(&format!(
        "{:<44} {:>6} {:>7} {:>7}
",
        "stack", "flows", "writes", "forced"
    ));
    let stacks: Vec<(&str, OptimizationConfig)> = vec![
        ("bare PN", OptimizationConfig::none()),
        (
            "+ read-only",
            OptimizationConfig::none().with_read_only(true),
        ),
        (
            "+ leave-out",
            OptimizationConfig::none()
                .with_read_only(true)
                .with_leave_out(true),
        ),
        (
            "+ last agent",
            OptimizationConfig::none()
                .with_read_only(true)
                .with_leave_out(true)
                .with_last_agent(true),
        ),
        (
            "+ long locks",
            OptimizationConfig::none()
                .with_read_only(true)
                .with_leave_out(true)
                .with_last_agent(true)
                .with_long_locks(true),
        ),
        ("+ vote reliable (all)", OptimizationConfig::all()),
    ];
    for (name, opts) in stacks {
        let report = run_ablation_stack(opts);
        out.push_str(&format!(
            "{:<44} {:>6} {:>7} {:>7}
",
            name,
            report.protocol_flows(),
            report.tm_writes(),
            report.tm_forced(),
        ));
    }
    out
}

/// One ablation workload run.
pub fn run_ablation_stack(opts: OptimizationConfig) -> tpc_sim::RunReport {
    let mut sim = Sim::new(SimConfig::default());
    let cfg = NodeConfig::new(ProtocolKind::PresumedNothing)
        .with_opts(opts)
        .reliable()
        .suspendable();
    let root = sim.add_node(cfg.clone());
    let partners: Vec<NodeId> = (0..4).map(|_| sim.add_node(cfg.clone())).collect();
    for p in &partners {
        sim.declare_partner(root, *p);
    }
    // A priming transaction touches every partner with updates so their
    // ok-to-leave-out qualifiers can take effect (the qualifier rides the
    // YES vote; read-only voters never convey it).
    sim.push_txn(TxnSpec::star_update(root, &partners, "prime"));
    for i in 0..6 {
        // Each transaction reads partner 1, then updates partner 0 — the
        // updater is touched LAST, so the last-agent stack delegates to
        // it ("it is left to application design to determine which
        // process should be the commit coordinator", §3). Partners 2 and
        // 3 stay untouched (leave-out candidates after the prime).
        let tag = format!("a{i}");
        sim.push_txn(TxnSpec {
            root,
            root_ops: vec![tpc_common::Op::put(&format!("{tag}/root"), &tag)],
            edges: vec![
                tpc_sim::WorkEdge::read(root, partners[1], &format!("{tag}/r")),
                tpc_sim::WorkEdge::update(root, partners[0], &format!("{tag}/u"), &tag),
            ],
            late_edges: vec![],
            commit: true,
        });
    }
    let report = sim.run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    report
}

/// §1's throughput motivation, measured: lock contention on one hot key
/// under the variants that release the server's lock sooner.
pub fn contention() -> String {
    let mut out = header("Lock contention: 8 roots serializing on one hot key");
    out.push_str(&format!(
        "{:<28} {:>12} {:>16}
",
        "variant", "makespan", "server lock wait"
    ));
    let (m, w) = run_contended(OptimizationConfig::none(), false);
    out.push_str(&format!(
        "{:<28} {m:>12} {w:>16}
",
        "PA baseline"
    ));
    let (m, w) = run_contended(OptimizationConfig::none(), true);
    out.push_str(&format!(
        "{:<28} {m:>12} {w:>16}
",
        "PA + unsolicited server"
    ));
    let (m, w) = run_contended(OptimizationConfig::none().with_last_agent(true), false);
    out.push_str(&format!(
        "{:<28} {m:>12} {w:>16}
",
        "PA + server as last agent"
    ));
    out
}

/// Heuristic-damage reporting fidelity: PN vs PA (the §3 comparison).
pub fn heuristic_reporting() -> String {
    let mut out = header("Heuristic damage reporting: PN late-ack vs PA one-hop");
    for protocol in [ProtocolKind::PresumedNothing, ProtocolKind::PresumedAbort] {
        let mut sim = Sim::new(SimConfig::default().with_horizon(SimDuration::from_secs(30)));
        let timeouts = tpc_core::Timeouts {
            vote_collection: SimDuration::from_secs(5),
            ack_collection: SimDuration::from_millis(200),
            in_doubt_query: SimDuration::from_secs(2),
        };
        let cfg = NodeConfig::new(protocol).with_timeouts(timeouts);
        let n0 = sim.add_node(cfg.clone());
        let n1 = sim.add_node(cfg.clone());
        let n2 = sim.add_node(
            cfg.with_heuristic(HeuristicPolicy::AbortAfter(SimDuration::from_millis(100))),
        );
        sim.declare_partner(n0, n1);
        sim.declare_partner(n1, n2);
        sim.push_txn(
            TxnSpec::local_update(n0, "r", "1")
                .with_edge(WorkEdge::update(n0, n1, "m", "1"))
                .with_edge(WorkEdge::update(n1, n2, "l", "1")),
        );
        sim.partition(n1, n2, SimTime(25_000), Some(SimTime(500_000)));
        let report = sim.run();
        let result = &report.outcomes[0];
        let damage_at_root = result.report.damaged.contains(&n2);
        let absorbed: u64 = report
            .per_node
            .iter()
            .map(|n| n.engine.damage_reports_absorbed)
            .sum();
        out.push_str(&format!(
            "{:<4} leaf heuristically aborted against a global commit: \
             root sees damage = {damage_at_root}, reports absorbed mid-tree = {absorbed}\n",
            protocol.short_name(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_without_panicking() {
        for t in [table2(), table3(), table4()] {
            assert!(t.lines().count() > 3, "{t}");
        }
    }

    #[test]
    fn ablation_staircase_is_monotone() {
        use tpc_common::OptimizationConfig;
        let bare = run_ablation_stack(OptimizationConfig::none());
        let ro = run_ablation_stack(OptimizationConfig::none().with_read_only(true));
        let lo = run_ablation_stack(
            OptimizationConfig::none()
                .with_read_only(true)
                .with_leave_out(true),
        );
        let la = run_ablation_stack(
            OptimizationConfig::none()
                .with_read_only(true)
                .with_leave_out(true)
                .with_last_agent(true),
        );
        let all = run_ablation_stack(OptimizationConfig::all());
        let flows = [
            bare.protocol_flows(),
            ro.protocol_flows(),
            lo.protocol_flows(),
            la.protocol_flows(),
            all.protocol_flows(),
        ];
        assert!(
            flows.windows(2).all(|w| w[1] <= w[0]),
            "each added optimization must not regress flows: {flows:?}"
        );
        assert!(
            all.protocol_flows() * 2 < bare.protocol_flows(),
            "{flows:?}"
        );
        // PN + last agent adds no forced writes (the commit-pending force
        // already covers the delegation) and the delegate skips its
        // prepared force.
        assert!(la.tm_forced() <= lo.tm_forced());
    }

    #[test]
    fn heuristic_table_shows_the_pn_pa_contrast() {
        let t = heuristic_reporting();
        assert!(t.contains("PN   leaf") || t.contains("PN "), "{t}");
        assert!(t.contains("root sees damage = true"), "{t}");
        assert!(t.contains("root sees damage = false"), "{t}");
    }
}
