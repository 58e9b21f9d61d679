//! # tpc-wal
//!
//! Write-ahead logging substrate for the twopc workspace.
//!
//! The paper's cost metric is the *number of log writes, forced and
//! non-forced* (§2, "Logging"). This crate supplies:
//!
//! * [`record::LogRecord`] — every record type the protocols of §2–§4 write
//!   (commit-pending, prepared, committed, heuristic, END, plus resource-
//!   manager undo/redo records), with a checksummed binary encoding;
//! * [`log::LogManager`] — the force/non-force append interface, with
//!   precise [`log::LogStats`] counters;
//! * [`mem::MemLog`] — the simulator's log: non-forced records live in a
//!   volatile tail that a simulated crash destroys, exactly matching the
//!   paper's definition ("non-forced log writes ... are not guaranteed to
//!   survive a system failure");
//! * [`segment::SegmentedLog`] — the one on-disk log: checksummed frames
//!   ([`file`](mod@file)) over preallocated, rotating fixed-size
//!   segments, with fsync and a recovery scan that tolerates (and
//!   classifies) a torn tail. Steady-state appends never extend a file
//!   (so `sync_data` skips metadata flushes), and fully-ended sealed
//!   segments of a chain that carries no resource-manager redo are
//!   reclaimed;
//! * [`faults::FaultyLog`] — seeded storage-fault injection over any
//!   backend: fsync failures, ENOSPC, torn writes, bit rot, sync latency;
//! * [`group::GroupCommitter`] — the §4 *Group Commits* batching policy as
//!   a pure, clock-driven state machine the simulator and the live runtime
//!   both drive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod file;
pub mod group;
pub mod log;
pub mod mem;
pub mod record;
pub mod segment;
pub mod shared;

pub use faults::{FaultyLog, StorageFaultPlan, StorageFaultStats};
pub use file::TailState;
pub use group::{FlushDecision, GroupCommitter, GroupStats};
pub use log::{Durability, LogManager, LogStats, StreamId};
pub use mem::MemLog;
pub use record::LogRecord;
pub use segment::{SegmentStats, SegmentedLog, DEFAULT_SEGMENT_BYTES};
pub use shared::SharedLog;
