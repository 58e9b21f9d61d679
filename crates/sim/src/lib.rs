//! # tpc-sim
//!
//! The deterministic scenario harness: whole-cluster simulations of the
//! twopc engine over the `tpc-simnet` substrate.
//!
//! A [`Sim`] hosts any number of nodes (each one a sans-IO
//! [`tpc_core::TmEngine`] plus a [`tpc_wal::MemLog`] and, in *real* mode,
//! a [`tpc_rm::SharedRm`] at one stripe), delivers frames with configurable
//! latency, injects crashes and partitions, and counts exactly what the
//! paper's evaluation counts: message flows, log writes (forced and
//! non-forced), lock hold time, and heuristic-damage reporting fidelity.
//!
//! Two execution modes:
//!
//! * **abstract** (default) — participants are marked updated/read-only by
//!   the workload without engaging the key-value store. Log and flow
//!   counts match the paper's per-participant accounting exactly; all
//!   table generators run in this mode.
//! * **real** — `Work` payloads carry key-value operations executed
//!   against each node's resource manager under strict 2PL. Used by the
//!   correctness, recovery and shared-log experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod report;
pub mod scenarios;
pub mod sweep;
pub mod trace;
pub mod verify;
pub mod workload;

pub use cluster::{NodeConfig, Sim, SimConfig};
pub use report::{NodeReport, RunReport, TxnResult};
pub use sweep::{all_cells, Cell, CellCosts, CrashStep, OptSet};
pub use trace::{protocol_only, render_trace, TraceEvent, TraceKind};
pub use workload::{Op, TxnSpec, WorkEdge};
