//! # twopc — Two-Phase Commit Optimizations and Tradeoffs
//!
//! A Rust reproduction of *"Two-Phase Commit Optimizations and Tradeoffs
//! in the Commercial Environment"* (Samaras, Britton, Citron, Mohan —
//! ICDE 1993): the baseline 2PC, Presumed Abort and Presumed Nothing
//! protocol families, the paper's ten normal-case optimizations,
//! heuristic decisions with reliable damage reporting, and full crash
//! recovery — implemented as a sans-IO engine with both a
//! deterministic simulator and a live threaded/TCP runtime.
//!
//! ## Crate map
//!
//! | module    | crate        | contents                                        |
//! |-----------|--------------|-------------------------------------------------|
//! | [`common`]| `tpc-common` | ids, votes, outcomes, config, ops, wire codec   |
//! | [`wal`]   | `tpc-wal`    | write-ahead log, group commit, crash simulation |
//! | [`locks`] | `tpc-locks`  | strict-2PL lock manager, deadlock detection     |
//! | [`rm`]    | `tpc-rm`     | transactional key-value resource manager        |
//! | [`core`]  | `tpc-core`   | **the 2PC engine** (the paper's contribution)   |
//! | [`obs`]   | `tpc-obs`    | phase histograms, spans, Prometheus/chrome-trace|
//! | [`simnet`]| `tpc-simnet` | discrete-event scheduler, network model         |
//! | [`sim`]   | `tpc-sim`    | scenario harness, paper scenarios, reports      |
//! | [`runtime`]|`tpc-runtime`| live threaded cluster and TCP transport         |
//!
//! ## Quick start (live cluster)
//!
//! ```
//! use twopc::prelude::*;
//!
//! let cluster = LiveCluster::start(vec![
//!     LiveNodeConfig::new(ProtocolKind::PresumedAbort); 3
//! ]);
//! let txn = cluster.begin(NodeId(0));
//! txn.work(NodeId(1), vec![Op::put("accounts/alice", "90")]);
//! txn.work(NodeId(2), vec![Op::put("accounts/bob", "110")]);
//! let result = txn.commit().expect("root node is alive");
//! assert_eq!(result.outcome, Outcome::Commit);
//! cluster.shutdown();
//! ```
//!
//! ## Quick start (deterministic simulation)
//!
//! ```
//! use twopc::prelude::*;
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let cfg = NodeConfig::new(ProtocolKind::PresumedNothing);
//! let n0 = sim.add_node(cfg.clone());
//! let n1 = sim.add_node(cfg);
//! sim.declare_partner(n0, n1);
//! sim.push_txn(TxnSpec::star_update(n0, &[n1], "demo"));
//! let report = sim.run();
//! report.assert_clean();
//! // The paper's Table 2 row, measured:
//! assert_eq!(report.protocol_flows(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tpc_common as common;
pub use tpc_core as core;
pub use tpc_locks as locks;
pub use tpc_obs as obs;
pub use tpc_rm as rm;
pub use tpc_runtime as runtime;
pub use tpc_sim as sim;
pub use tpc_simnet as simnet;
pub use tpc_wal as wal;

/// The names most programs need.
pub mod prelude {
    pub use tpc_common::{
        AckMode, DamageReport, HeuristicOutcome, HeuristicPolicy, NodeId, Op, OptimizationConfig,
        Outcome, ProtocolKind, SimDuration, SimTime, TxnId, Vote, VoteFlags,
    };
    pub use tpc_core::{EngineConfig, TmEngine};
    pub use tpc_runtime::{
        CommitResult, FaultPlan, FaultStats, IoErrorPolicy, LiveCluster, LiveNodeConfig,
        StorageFaultPlan, WalHealth,
    };
    pub use tpc_sim::{NodeConfig, RunReport, Sim, SimConfig, TxnSpec, WorkEdge};
}
