//! # tpc-core
//!
//! The paper's primary contribution: a two-phase-commit engine implementing
//! the **baseline 2PC**, **Presumed Abort** and **Presumed Nothing**
//! protocol families plus the ten normal-case optimizations of Samaras,
//! Britton, Citron & Mohan, *"Two-Phase Commit Optimizations and
//! Tradeoffs in the Commercial Environment"*, ICDE 1993.
//!
//! ## Sans-IO design
//!
//! The engine ([`TmEngine`]) is a pure state machine: it consumes
//! [`Event`]s (messages received, votes from local resource managers,
//! timers, application requests) and returns [`Action`]s (send a message
//! bundle, write a log record with a given durability, apply a local
//! commit/abort, notify the application, arm a timer). It performs **no**
//! I/O itself, so the same engine runs under:
//!
//! * the deterministic discrete-event simulator (`tpc-sim`), which the
//!   tests, benchmarks and paper-table generators use, and
//! * the live threaded runtime (`tpc-runtime`) with real sockets and logs.
//!
//! ## Protocol families and optimizations as data
//!
//! A node is configured with a [`ProtocolKind`](tpc_common::ProtocolKind)
//! and an [`OptimizationConfig`](tpc_common::OptimizationConfig); every
//! behavioural difference between the paper's variants — who logs what and
//! when, which records are forced, who acknowledges, what a participant
//! with no information presumes — is table-driven from those two values:
//! the family's row of the rules table
//! ([`ProtocolRules`](tpc_common::ProtocolRules)) and the optimization
//! switches.
//! The benchmark harness regenerates the paper's Tables 2–4 by running the
//! *same engine* with different configuration rows.
//!
//! ## Transaction model
//!
//! Following the paper's peer-to-peer (LU 6.2) model, any node may send
//! work to any other ([`ProtocolMsg::Work`]) and any participant may
//! initiate commit, becoming the root of the commit tree for that
//! transaction. Sending work enrolls the receiver as a subordinate;
//! receiving it records the sender as the upstream coordinator. Two
//! independent initiators for one transaction are detected and abort the
//! transaction, as §3 requires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod driver;
pub mod engine;
pub mod event;
pub mod messages;
pub mod metrics;
pub mod recovery;
pub mod seat;
pub mod testkit;

pub use check::{NodeProtocolState, OutcomeRecord};
pub use driver::{
    rm_log_of, rm_log_slot, AppSink, Driver, DriverStats, LogControl, LogHost, NodeHost,
    PrepareControl, RecoveryStats, RmHost, TimerHost, Wire,
};
pub use engine::{EngineConfig, InDoubtDisposition, OwedAck, Timeouts, TmEngine};
pub use event::{Action, Event, LocalDisposition, LocalVote, TimerKind};
pub use messages::{Frame, ProtocolMsg};
pub use metrics::EngineMetrics;
pub use seat::{ChildState, LocalState, Seat, Stage};
