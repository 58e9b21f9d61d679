//! The repository benchmark.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, as the driver makes it
//! benchmark [--seed N] [--seconds S] [--quick] [--out FILE]    every workload, untraced then traced
//! benchmark --compare A.json B.json                            two --out files against the bounds
//! benchmark --manifest                                         the contents of BENCHMARK.json
//! ```
//!
//! A run prints every metric by name with its unit, checks the
//! program's outputs, and ends with one JSON line; it exits non-zero if
//! any check failed. See `README.md` beside this crate.

mod adapter;
mod affinity;
mod json;
mod layers;
mod metrics;
mod probe;
mod report;
mod run;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use json::Value;
use metrics::Reading;
use run::{run_pass, Pass, Plan, RunDir};
use workload::Spec;

/// Repeats per untraced run.
const REPEATS: usize = 7;
/// Repeats of the reference and of the traced pass of a traced run.
const TRACED_REPEATS: usize = 3;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside 0..600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// How a run's seconds are spent.
struct Timing {
    untraced: Plan,
    /// The untraced reference pass and the traced pass of a traced run.
    traced: Plan,
    probes: Duration,
}

impl Timing {
    /// An untraced run measures for all of `seconds`. A traced run
    /// spends a quarter on an untraced reference pass, a quarter on the
    /// traced pass and half on the probes.
    fn of(seconds: f64) -> Timing {
        Timing {
            untraced: Plan {
                repeats: REPEATS,
                repeat: Duration::from_secs_f64(seconds / REPEATS as f64),
                warmup_div: 1,
            },
            traced: Plan {
                repeats: TRACED_REPEATS,
                repeat: Duration::from_secs_f64(seconds / 4.0 / TRACED_REPEATS as f64),
                warmup_div: 1,
            },
            probes: Duration::from_secs_f64(seconds / 2.0),
        }
    }

    /// The smoke test: one repeat of 0.3 s, every check on.
    fn quick() -> Timing {
        let plan = Plan {
            repeats: 1,
            repeat: Duration::from_millis(300),
            warmup_div: 10,
        };
        Timing {
            untraced: plan,
            traced: plan,
            probes: Duration::from_millis(1500),
        }
    }
}

/// One workload's traced half: the reference pass, the traced pass and
/// the per-layer readings made from them.
struct Traced {
    reference: Pass,
    traced: Pass,
    readings: Vec<Reading>,
}

impl Traced {
    fn print(&self, spec: &Spec) {
        print_pass(spec, "reference pass", &self.reference);
        print_pass(spec, "traced pass", &self.traced);
        report::print_readings(&self.readings);
    }
}

fn run_traced(
    spec: &Spec,
    seed: u64,
    plan: Plan,
    dir: &Path,
    probes: &BTreeMap<&'static str, f64>,
) -> Result<Traced, String> {
    let reference = run_pass(spec, seed, plan, dir, false)?;
    let traced = run_pass(spec, seed, plan, dir, true)?;
    let readings = layers::readings(spec, &reference, &traced, probes);
    Ok(Traced {
        reference,
        traced,
        readings,
    })
}

fn print_pass(spec: &Spec, label: &str, pass: &Pass) {
    println!("{} {label}: {:?}", spec.name, pass.effective);
    if spec.one_cpu != pass.one_cpu {
        println!("  WARNING: could not pin to one CPU; latencies include cross-CPU wake-ups");
    }
    let samples = pass.repeats.iter().map(|r| r.samples).min().unwrap_or(0);
    println!(
        "  {} repeats, at least {samples} samples each ({} beyond p99); attempted {}, failed {}; \
         {} keys read back; {} transactions since start",
        pass.repeats.len(),
        samples / 100,
        pass.attempted,
        pass.failed,
        pass.keys_read_back,
        pass.txns,
    );
    let per_repeat = |f: fn(&run::Repeat) -> f64| {
        let v: Vec<String> = pass
            .repeats
            .iter()
            .map(|r| format!("{:.0}", f(r)))
            .collect();
        v.join(" ")
    };
    println!("  per repeat: txn/s {}", per_repeat(|r| r.txn_per_s));
    println!("  per repeat: p50 us {}", per_repeat(|r| r.p50_us));
    println!("  per repeat: p99 us {}", per_repeat(|r| r.p99_us));
    for p in &pass.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn metrics_json(readings: &[Reading], summary: bool) -> Value {
    Value::obj(readings.iter().map(|r| (r.name, r.json(summary))))
}

fn write_trace(path: &Path, spans: &[spans::Span]) -> Result<(), String> {
    std::fs::write(path, spans::chrome_trace(spans)).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run as the driver makes it. Returns whether every check passed.
fn single(spec: &Spec, args: &Args, timing: &Timing) -> Result<bool, String> {
    let dir = RunDir::create().map_err(|e| format!("run directory: {e}"))?;
    println!(
        "workload {}, seed {}, trace {}, host {}",
        spec.name,
        args.seed,
        args.trace as u8,
        report::host_facts(dir.path(), args.seed, false).render()
    );
    println!("why: {}", spec.why);
    let (readings, attempted, failed, correct) = if args.trace {
        let probes = layers::run_probes(dir.path(), timing.probes)?;
        let t = run_traced(spec, args.seed, timing.traced, dir.path(), &probes)?;
        t.print(spec);
        if let Some(path) = &args.trace_out {
            write_trace(path, &t.traced.spans)?;
        }
        (
            t.readings,
            t.reference.attempted + t.traced.attempted,
            t.reference.failed + t.traced.failed,
            t.reference.correct() && t.traced.correct(),
        )
    } else {
        let pass = run_pass(spec, args.seed, timing.untraced, dir.path(), false)?;
        print_pass(spec, "untraced", &pass);
        let readings = report::end_to_end(&pass);
        report::print_readings(&readings);
        (readings, pass.attempted, pass.failed, pass.correct())
    };
    drop(dir);
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_json(&readings, false)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// Every workload untraced, the probes once, every workload traced.
/// Returns the suite document and whether every check passed.
fn suite(seed: u64, timing: &Timing, trace_out: Option<&Path>) -> Result<(Value, bool), String> {
    let dir = RunDir::create().map_err(|e| format!("run directory: {e}"))?;
    let mut host = report::host_facts(dir.path(), seed, true);
    let mut correct = true;
    let mut docs: Vec<Vec<(&str, Value)>> = Vec::new();
    for spec in &workload::ALL {
        let pass = run_pass(spec, seed, timing.untraced, dir.path(), false)?;
        print_pass(spec, "untraced", &pass);
        let readings = report::end_to_end(&pass);
        report::print_readings(&readings);
        correct &= pass.correct();
        docs.push(vec![
            ("config", report::effective_json(&pass.effective)),
            ("attempted", Value::Num(pass.attempted as f64)),
            ("failed", Value::Num(pass.failed as f64)),
            ("end_to_end", metrics_json(&readings, true)),
        ]);
    }
    println!("layer probes");
    let probes = layers::run_probes(dir.path(), timing.probes)?;
    if let Value::Obj(fields) = &mut host {
        fields.push((
            "wal.seg_flush_us".into(),
            Value::Num(probes["wal.seg_flush_us"]),
        ));
    }
    let mut all_spans = Vec::new();
    for (spec, doc) in workload::ALL.iter().zip(&mut docs) {
        let mut t = run_traced(spec, seed, timing.traced, dir.path(), &probes)?;
        t.print(spec);
        correct &= t.reference.correct() && t.traced.correct();
        doc.push(("per_layer", metrics_json(&t.readings, false)));
        all_spans.append(&mut t.traced.spans);
    }
    if let Some(path) = trace_out {
        write_trace(path, &all_spans)?;
    }
    let workloads = workload::ALL
        .iter()
        .zip(docs)
        .map(|(spec, doc)| (spec.name, Value::obj(doc)));
    let doc = Value::obj([
        ("host", host),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::obj(workloads)),
    ]);
    Ok((doc, correct))
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if args.manifest {
        print!("{}", metrics::manifest().render_pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let (table, regressed) = report::compare(&load(a)?, &load(b)?)?;
        print!("{table}");
        return Ok(!regressed);
    }
    let timing = match args.quick {
        true => Timing::quick(),
        false => Timing::of(args.seconds.unwrap_or(metrics::RUN_SECONDS as f64)),
    };
    if let Some(name) = &args.workload {
        let spec = workload::by_name(name).ok_or_else(|| {
            let known: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })?;
        return single(spec, &args, &timing);
    }
    let (doc, correct) = suite(args.seed, &timing, args.trace_out.as_deref())?;
    if let Some(path) = &args.out {
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        ["CHECKS FAILED", "every check passed"][correct as usize]
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload seg_gc16 --seed 7 --seconds 14 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).expect("valid");
        assert_eq!(a.workload.as_deref(), Some("seg_gc16"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(14.0), true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--seed".into()]).is_err());
    }

    #[test]
    fn a_traced_run_spends_what_it_was_given() {
        let t = Timing::of(14.0);
        assert_eq!(t.untraced.repeat * REPEATS as u32, Duration::from_secs(14));
        let passes = t.traced.repeat * (2 * TRACED_REPEATS) as u32;
        assert!((passes + t.probes).as_secs_f64() <= 14.0 + 1e-6);
    }

    #[test]
    fn only_the_adapter_names_the_program() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).expect("src directory") {
            let path = entry.expect("entry").path();
            if path.file_name().is_some_and(|n| n == "adapter.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable source");
            // Spelled in two halves so this test does not find itself.
            let needle = ["two", "pc::"].concat();
            assert!(
                !text.contains(&needle),
                "{} names the program",
                path.display()
            );
        }
    }

    /// The `--quick` smoke: every workload, both passes, every check, on
    /// one 0.3 s repeat each.
    #[test]
    fn quick_suite_passes_every_check() {
        let started = std::time::Instant::now();
        let (doc, correct) = suite(1, &Timing::quick(), None).expect("suite runs");
        assert!(correct, "{}", doc.render_pretty());
        let took = started.elapsed();
        assert!(took < Duration::from_secs(15), "smoke took {took:?}");
        for spec in &workload::ALL {
            let w = doc
                .get("workloads")
                .and_then(|w| w.get(spec.name))
                .expect("present");
            for m in &metrics::END_TO_END {
                let v = w.get("end_to_end").and_then(|e| e.get(m.name));
                assert!(v.and_then(|v| v.get("value")).and_then(Value::as_f64) > Some(0.0));
            }
            assert_eq!(
                w.get("per_layer").map(|p| p.fields().len()),
                Some(metrics::PER_LAYER.len())
            );
        }
    }
}
