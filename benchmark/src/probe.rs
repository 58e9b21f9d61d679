//! Timing harness for the layer probes: calibrate a batch size, time a
//! few batches, report the median cost of one operation.

use std::time::{Duration, Instant};

use crate::stats::median;

/// Batches timed per probe.
const SLICES: u32 = 5;

fn time(run: &mut dyn FnMut(u64), iters: u64) -> Duration {
    let start = Instant::now();
    run(iters);
    start.elapsed()
}

/// Nanoseconds per iteration of `run`, as the median of [`SLICES`]
/// batches that together take about `budget`. Batch sizes grow until one
/// batch is long enough to time, so the first, cold iterations also warm
/// the probe up.
pub fn ns_per_iter(run: &mut dyn FnMut(u64), budget: Duration) -> f64 {
    let slice = budget / (SLICES + 1);
    let mut iters = 1u64;
    let mut took = time(run, iters);
    while took < slice / 8 && iters < 1 << 40 {
        iters *= 2;
        took = time(run, iters);
    }
    let per_iter = took.as_secs_f64() / iters as f64;
    let iters = ((slice.as_secs_f64() / per_iter) as u64).max(1);
    let samples: Vec<f64> = (0..SLICES)
        .map(|_| time(run, iters).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_known_delay_within_budget() {
        let mut calls = 0u64;
        let mut run = |n: u64| {
            calls += n;
            std::thread::sleep(Duration::from_micros(200) * n as u32);
        };
        let started = Instant::now();
        let ns = ns_per_iter(&mut run, Duration::from_millis(120));
        // Sleeps overshoot but never undershoot.
        assert!((200_000.0..2_000_000.0).contains(&ns), "{ns}");
        assert!(started.elapsed() < Duration::from_secs(2));
        assert!(calls > 5);
    }
}
