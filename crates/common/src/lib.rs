//! # tpc-common
//!
//! Shared vocabulary for the `twopc` workspace: strongly-typed identifiers,
//! votes and outcomes, protocol/optimization configuration, a virtual clock,
//! error types, and a small hand-rolled binary wire codec used by both the
//! deterministic simulator and the live TCP transport.
//!
//! Everything here is deliberately dependency-light: the protocol engine
//! (`tpc-core`) and every substrate build on these types, so this crate must
//! stay at the bottom of the dependency graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod ops;
pub mod outcome;
pub mod pool;
pub mod temp;
pub mod time;
pub mod trace;
pub mod vote;
pub mod wire;

pub use config::{AckMode, HeuristicPolicy, OptimizationConfig, ProtocolKind, ProtocolRules};
pub use error::{Error, Result};
pub use hash::{id_hash, shard_of, IdHasher, IdMap, IdSet};
pub use ids::{Lsn, NodeId, RmId, TxnId};
pub use ops::{decode_ops, encode_ops, Op};
pub use outcome::{DamageReport, HeuristicOutcome, Outcome};
pub use pool::{BufferPool, PoolStats, PooledBuf};
pub use temp::TempDir;
pub use time::{SimDuration, SimTime};
pub use trace::TraceCtx;
pub use vote::{Vote, VoteFlags};
