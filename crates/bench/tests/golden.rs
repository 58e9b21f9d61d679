//! Golden guard for the simulator: `gen_tables` and `gen_figures` are
//! deterministic, so any change to what the simulator counts or traces
//! shows up as a byte difference against the checked-in output.
//!
//! After an intended change to the tables or figures, regenerate with
//! `cargo run --release -p tpc-bench --bin gen_tables > crates/bench/tests/golden/gen_tables.txt`
//! (and likewise for `gen_figures`) and review the diff.

use std::process::Command;

fn assert_golden(bin: &str, golden: &str) {
    let out = Command::new(bin).output().expect("run generator");
    assert!(out.status.success(), "{bin} failed: {out:?}");
    let actual = String::from_utf8(out.stdout).expect("utf-8 output");
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{bin} output differs from its golden file, first at line {}:\n  got:  {:?}\n  want: {:?}",
            first + 1,
            actual.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}

#[test]
fn gen_tables_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_gen_tables"),
        include_str!("golden/gen_tables.txt"),
    );
}

#[test]
fn gen_figures_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_gen_figures"),
        include_str!("golden/gen_figures.txt"),
    );
}
