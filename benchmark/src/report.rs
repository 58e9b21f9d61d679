//! Turning passes into named readings, host facts, and the comparison
//! of two suite files.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::adapter::Effective;
use crate::json::Value;
use crate::metrics::{Better, Reading, END_TO_END};
use crate::run::Pass;
use crate::stats::Summary;

/// The end-to-end metrics of one untraced pass: each the median over the
/// repeats (set-ups for `setup_s`), with the range beside it.
pub fn end_to_end(pass: &Pass) -> Vec<Reading> {
    let over = |f: fn(&crate::run::Repeat) -> f64| {
        Summary::of(&pass.repeats.iter().map(f).collect::<Vec<_>>())
    };
    END_TO_END
        .iter()
        .map(|m| {
            let s = match m.name {
                "txn_per_s" => over(|r| r.txn_per_s),
                "commit_p50_us" => over(|r| r.p50_us),
                "commit_p99_us" => over(|r| r.p99_us),
                "setup_s" => Summary::of(&pass.setup_s),
                other => unreachable!("no source for end-to-end metric {other}"),
            };
            Reading {
                name: m.name,
                unit: m.unit,
                value: s.median,
                over: Some(s),
            }
        })
        .collect()
}

pub fn print_readings(readings: &[Reading]) {
    for r in readings {
        match r.over {
            Some(s) => println!(
                "  {:<36} {:>14.4} {:<6} (quartiles {:.4}..{:.4}, range {:.4}..{:.4})",
                r.name, r.value, r.unit, s.q1, s.q3, s.min, s.max
            ),
            None => println!("  {:<36} {:>14.4} {}", r.name, r.value, r.unit),
        }
    }
}

pub fn effective_json(e: &Effective) -> Value {
    Value::obj([
        ("transport", Value::str(e.transport)),
        ("backend", Value::str(e.backend)),
        ("shared_log", Value::Bool(e.shared_log)),
        (
            "group_commit",
            e.group_commit
                .map_or(Value::Null, |(batch, wait_us, adaptive)| {
                    Value::obj([
                        ("batch_size", Value::Num(batch as f64)),
                        ("max_wait_us", Value::Num(wait_us as f64)),
                        ("adaptive", Value::Bool(adaptive)),
                    ])
                }),
        ),
        ("read_only", Value::Bool(e.read_only)),
        ("lanes", Value::Num(e.lanes as f64)),
        ("stripes", Value::Num(e.stripes as f64)),
        ("observe", Value::Bool(e.observe)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
}

/// Facts about the host a result was measured on. `toolchain` adds the
/// compiler version and the git commit, which take a child process each;
/// a single run as the driver makes it goes without.
pub fn host_facts(wal_dir: &Path, seed: u64, toolchain: bool) -> Value {
    let or_unknown = |v: Option<String>| Value::Str(v.unwrap_or_else(|| "unknown".into()));
    let mut facts = vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("wal_filesystem", or_unknown(filesystem_of(wal_dir))),
        ("seed", Value::Num(seed as f64)),
    ];
    if toolchain {
        facts.push(("rustc", or_unknown(command_line("rustc", &["--version"]))));
        facts.push((
            "git_commit",
            or_unknown(command_line("git", &["rev-parse", "HEAD"])),
        ));
    }
    Value::obj(facts)
}

/// Compares two suite files metric by metric and workload by workload.
/// A pair is a regression when `b`'s median is worse than `a`'s by more
/// than the metric's bound, and "unresolved" when the distance between
/// the quartiles of either side's own repeats is wider than the bound, so
/// the pair cannot tell.
/// Returns the table and whether any pair regressed.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<10} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%"
    )
    .expect("write to String");
    let workloads = a.get("workloads").ok_or("first file has no workloads")?;
    for (name, wa) in workloads.fields() {
        let wb = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("second file lacks workload {name}"))?;
        for m in &END_TO_END {
            let read = |w: &Value| -> Result<Summary, String> {
                let r = w
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .ok_or_else(|| format!("{name} lacks {}", m.name))?;
                let num = |k: &str| {
                    r.get(k)
                        .and_then(Value::as_f64)
                        .ok_or_else(|| format!("{name}.{}.{k} is not a number", m.name))
                };
                Ok(Summary {
                    median: num("value")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                    min: num("min")?,
                    max: num("max")?,
                })
            };
            let (sa, sb) = (read(wa)?, read(wb)?);
            let worse = match m.better {
                Better::Lower => sb.median / sa.median - 1.0,
                Better::Higher => 1.0 - sb.median / sa.median,
            };
            let verdict = if sa.spread() > m.bound || sb.spread() > m.bound {
                "unresolved"
            } else if worse > m.bound {
                regressed = true;
                "REGRESSION"
            } else if worse < -m.bound {
                "improved"
            } else {
                "within bound"
            };
            writeln!(
                out,
                "{:<10} {:<14} {:>12.3} {:>12.3} {:>+8.2} {:>6.0}  {}",
                name,
                m.name,
                sa.median,
                sb.median,
                worse * 100.0,
                m.bound * 100.0,
                verdict
            )
            .expect("write to String");
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(rate: (f64, f64, f64), p50: f64) -> Value {
        let reading = |v: f64, q1: f64, q3: f64| {
            Value::obj([
                ("value", Value::Num(v)),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                ("min", Value::Num(q1 * 0.8)),
                ("max", Value::Num(q3 * 1.2)),
            ])
        };
        Value::obj([(
            "workloads",
            Value::obj([(
                "mem_sync",
                Value::obj([(
                    "end_to_end",
                    Value::obj([
                        ("txn_per_s", reading(rate.0, rate.1, rate.2)),
                        ("commit_p50_us", reading(p50, p50 * 0.99, p50 * 1.01)),
                        ("commit_p99_us", reading(300.0, 290.0, 310.0)),
                        ("setup_s", reading(0.3, 0.29, 0.31)),
                    ]),
                )]),
            )]),
        )])
    }

    fn verdict_of<'t>(table: &'t str, metric: &str) -> &'t str {
        let line = table.lines().find(|l| l.contains(metric)).expect("row");
        line.rsplit("  ").next().expect("verdict column")
    }

    #[test]
    fn compare_flags_regressions_and_unresolved_pairs() {
        let base = suite((10_000.0, 9_900.0, 10_100.0), 70.0);
        let (t, bad) = compare(&base, &base).expect("comparable");
        assert!(!bad);
        assert_eq!(verdict_of(&t, "txn_per_s"), "within bound");

        // 20 % fewer transactions and a 20 % slower median: both beyond 15 %.
        let slow = suite((8_000.0, 7_900.0, 8_100.0), 84.0);
        let (t, bad) = compare(&base, &slow).expect("comparable");
        assert!(bad);
        assert_eq!(verdict_of(&t, "txn_per_s"), "REGRESSION");
        assert_eq!(verdict_of(&t, "commit_p50_us"), "REGRESSION");
        assert_eq!(verdict_of(&t, "commit_p99_us"), "within bound");
        let (t, bad) = compare(&slow, &base).expect("comparable");
        assert!(!bad);
        assert_eq!(verdict_of(&t, "txn_per_s"), "improved");

        // The same medians, but one side's repeats spread over 30 %.
        let noisy = suite((8_500.0, 7_000.0, 9_600.0), 70.0);
        let (t, bad) = compare(&base, &noisy).expect("comparable");
        assert!(!bad);
        assert_eq!(verdict_of(&t, "txn_per_s"), "unresolved");

        assert!(compare(
            &base,
            &Value::obj([("workloads", Value::obj::<String>([]))])
        )
        .is_err());
    }

    #[test]
    fn finds_the_filesystem_of_a_directory() {
        let fs = filesystem_of(Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(fs.is_some_and(|f| !f.is_empty()));
    }
}
