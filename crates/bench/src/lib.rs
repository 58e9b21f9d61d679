//! # tpc-bench
//!
//! Table and figure generators reproducing the paper's evaluation
//! section.
//!
//! * `cargo run -p tpc-bench --bin gen_tables` prints Tables 1–4 (and the
//!   group-commit / heuristic-reporting analyses) from live simulation
//!   runs, next to the paper's analytic formulas.
//! * `cargo run -p tpc-bench --bin gen_figures` prints the Figure 1–8
//!   protocol traces.
//!
//! The row-building code lives here so the binaries and the
//! documentation report the same numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rows;
pub mod tables;

pub use rows::{CostRow, PairCosts};
