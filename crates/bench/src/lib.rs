//! Dependency-free benchmarks for branch-lab.
//!
//! The build environment is fully offline, so instead of criterion the
//! gated throughput benchmarks live in [`perf`], driven by the `bp-perf`
//! binary, which records `BENCH_<date>.json` and checks a run against it.

pub mod perf;
