//! A minimal, dependency-free benchmark harness for branch-lab.
//!
//! The build environment is fully offline, so instead of criterion the
//! `metrics_overhead` bench uses this small fixed-format harness (the
//! gated throughput benchmarks live in [`perf`], driven by the `bp-perf`
//! binary): one warm-up call,
//! a configured number of timed samples, and a one-line report with the
//! median/min wall time plus element throughput when available. Output
//! lines are stable (`group/name: ...`) so before/after numbers can be
//! diffed or grepped by tooling.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A named group of related benchmarks, mirroring the criterion API
/// shape.
pub struct BenchGroup {
    name: String,
    elements: Option<u64>,
    samples: usize,
}

impl BenchGroup {
    /// Creates a group; benchmark lines are printed as `name/bench: ...`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        BenchGroup {
            name: name.to_owned(),
            elements: None,
            samples: 10,
        }
    }

    /// Declares that each iteration processes `elements` items, enabling
    /// throughput reporting.
    #[must_use]
    pub fn throughput(mut self, elements: u64) -> Self {
        self.elements = Some(elements);
        self
    }

    /// Number of timed samples per benchmark (default 10).
    #[must_use]
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Times `f` and prints a report line, returning the median duration.
    pub fn bench<R>(&self, name: &str, mut f: impl FnMut() -> R) -> Duration {
        black_box(f()); // warm-up
        let mut times: Vec<Duration> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let median = times[times.len() / 2];
        let min = times[0];
        match self.elements {
            Some(n) if median > Duration::ZERO => {
                let rate = n as f64 / median.as_secs_f64() / 1e6;
                println!(
                    "{}/{}: median {:?}  min {:?}  ({rate:.2} Melem/s)",
                    self.name, name, median, min
                );
            }
            _ => println!("{}/{}: median {:?}  min {:?}", self.name, name, median, min),
        }
        median
    }
}

pub mod perf;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_a_sane_median() {
        let g = BenchGroup::new("self-test").samples(3).throughput(1000);
        let d = g.bench("noop-loop", || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(d < Duration::from_secs(1));
    }
}
