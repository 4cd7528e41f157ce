//! H2P hunting: screen the hard-to-predict branches of a benchmark with
//! the paper's §III-A criteria, rank the heavy hitters, and inspect the
//! dependency branches that make the top one hard (§IV-A).
//!
//! Run with: `cargo run --release --example h2p_hunt [workload-index]`

use branch_lab::analysis::{rank_heavy_hitters, DependencyAnalysis, H2pCriteria, DEFAULT_WINDOW};
use branch_lab::core::Table;
use branch_lab::predictors::TageScL;
use branch_lab::trace::SliceConfig;
use branch_lab::workloads::specint_suite;

fn main() {
    let idx: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1); // mcf-like by default
    let suite = specint_suite();
    let spec = &suite[idx.min(suite.len() - 1)];
    println!("hunting H2Ps in {}", spec.name);

    let trace = spec.trace(0, 500_000);
    let slice = SliceConfig::new(50_000);

    // Screen per slice with a continuously-trained predictor, as in the
    // paper's methodology.
    let (merged, h2ps) = H2pCriteria::paper().screen_slices(&mut TageScL::kb8(), &trace, slice);
    println!(
        "aggregate accuracy {:.4}; {} static branches; {} H2Ps",
        merged.accuracy(),
        merged.static_branch_count(),
        h2ps.len()
    );

    let hitters = rank_heavy_hitters(&merged, h2ps.iter().copied());
    let mut table = Table::new(vec!["rank", "ip", "execs", "mispredicts", "cum-frac"]);
    for (i, h) in hitters.iter().take(10).enumerate() {
        table.row(vec![
            format!("{}", i + 1),
            format!("{:#x}", h.ip),
            format!("{}", h.execs),
            format!("{}", h.mispredicts),
            format!("{:.3}", h.cumulative_fraction),
        ]);
    }
    print!("{}", table.render());

    if let Some(top) = hitters.first() {
        let dep = DependencyAnalysis::new(&trace);
        let report = dep.analyze(&trace, top.ip, DEFAULT_WINDOW, 256);
        println!(
            "\ntop H2P {:#x}: {} dependency branches at history positions {}..{} —\n\
             the position spread is why exact-pattern matching struggles (Fig. 6).",
            top.ip,
            report.dep_branch_count(),
            report.min_position().unwrap_or(0),
            report.max_position().unwrap_or(0),
        );
    }
}
