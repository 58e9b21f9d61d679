//! # tpc-rm
//!
//! A transactional key-value **local resource manager** (LRM), the
//! "database and file managers" of the paper's §2.
//!
//! The resource manager supplies everything the 2PC engine manipulates:
//!
//! * strict-2PL data access through an embedded
//!   [`tpc_locks::StripedLockManager`] (so lock-release timing — the
//!   paper's second throughput lever — is observable);
//! * WAL-protected updates with undo/redo records, prepare/commit/abort
//!   participation, and crash recovery by log replay ([`SharedRm`]);
//! * read-only detection for the §4 *Read Only* vote;
//! * shared-log awareness: when the TM and the LRM share a log, the LRM's
//!   prepared/committed records ride along with the TM's forces instead of
//!   forcing themselves (§4 *Sharing the Log*).
//!
//! There is one RM. The live runtime runs it with many key stripes; the
//! deterministic simulator runs it with one, where the striped lock table
//! is exactly the single-table lock manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shared;
mod store;

pub use shared::{Access, RmConfig, RmPhase, SharedRm};
pub use store::KvStore;
