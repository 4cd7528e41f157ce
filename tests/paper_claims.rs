//! Reproduction tests: the paper's qualitative claims must hold at test
//! scale. Each test cites the section/figure it guards.

use branch_lab::analysis::{
    accuracy_spread, compute_alloc_stats, paper_equivalent, rank_heavy_hitters, BinSpec,
    BranchProfile, H2pCriteria, RecurrenceAnalysis,
};
use branch_lab::core::{characterize_workload, memo::TAGE_SC_L_8KB, DatasetConfig};
use branch_lab::predictors::{measure, TageScL, TageSclConfig};
use branch_lab::trace::SliceConfig;
use branch_lab::workloads::{lcf_suite, specint_suite};

/// §III-A / Table I: a small number of H2Ps owns a disproportionate share
/// of mispredictions, and excluding them lifts accuracy markedly.
#[test]
fn h2ps_own_a_disproportionate_misprediction_share() {
    let spec = &specint_suite()[1]; // mcf-like: paper reports 96.9%
    let c = characterize_workload(spec, &DatasetConfig::quick(), TAGE_SC_L_8KB);
    assert!(
        c.avg_h2p_mispredict_share > 0.6,
        "mcf-like H2P share {}",
        c.avg_h2p_mispredict_share
    );
    assert!(c.avg_accuracy_excl_h2p > c.avg_accuracy + 0.02);
    // The H2P count itself is small.
    assert!(c.avg_h2p_per_slice < 40.0);
}

/// Table I: the accuracy ordering across benchmarks holds — xalancbmk-like
/// is the most predictable, leela-like among the least.
#[test]
fn specint_accuracy_ordering_matches_table1() {
    let len = 120_000;
    let acc = |idx: usize| {
        let spec = &specint_suite()[idx];
        measure(&mut TageScL::kb8(), &spec.cached_trace(0, len)).accuracy()
    };
    let xalanc = acc(3);
    let leela = acc(6);
    let mcf = acc(1);
    assert!(xalanc > 0.97, "xalancbmk-like {xalanc}");
    assert!(leela < xalanc - 0.08, "leela {leela} vs xalanc {xalanc}");
    assert!(mcf < xalanc - 0.05, "mcf {mcf} vs xalanc {xalanc}");
}

/// Fig. 2: the top heavy hitters cover a large cumulative fraction of
/// mispredictions.
#[test]
fn heavy_hitters_concentrate_mispredictions() {
    let spec = &specint_suite()[8]; // xz-like: paper reports 80.5% from 10 H2Ps
    let trace = spec.cached_trace(0, 150_000);
    let slice = SliceConfig::new(30_000);
    let mut bpu = TageScL::kb8();
    let criteria = H2pCriteria::paper();
    let mut merged = BranchProfile::new();
    let mut h2ps = std::collections::HashSet::new();
    for s in trace.slices(slice) {
        let p = BranchProfile::collect(&mut bpu, s);
        h2ps.extend(criteria.screen(&p, slice));
        merged.merge(&p);
    }
    let hitters = rank_heavy_hitters(&merged, h2ps.iter().copied());
    assert!(hitters.len() >= 3);
    let frac = hitters
        .iter()
        .take(10)
        .next_back()
        .map(|h| h.cumulative_fraction)
        .unwrap_or(0.0);
    assert!(frac > 0.4, "top-10 coverage {frac}");
}

/// §III-B / Fig. 3: LCF applications are rare-branch dominated — most
/// static branches execute under 1,000 paper-equivalent times.
#[test]
fn lcf_is_rare_branch_dominated() {
    let spec = &lcf_suite()[1]; // game-like
    let trace = spec.cached_trace(0, 150_000);
    let profile = BranchProfile::collect(&mut TageScL::kb8(), trace.insts());
    let window = profile.instructions;
    let hist = BinSpec::executions()
        .histogram(profile.iter().map(|(_, s)| paper_equivalent(s.execs, window)));
    let under_1k = hist.fraction_of("0-100") + hist.fraction_of("100-1K");
    assert!(under_1k > 0.7, "rare fraction {under_1k}");
    // And the suite's static footprint dwarfs SPECint-like workloads.
    assert!(profile.static_branch_count() > 2_000);
}

/// Fig. 4: rare branches have a wide accuracy spread that collapses with
/// execution count.
#[test]
fn accuracy_spread_narrows_with_executions() {
    let spec = &lcf_suite()[1];
    let trace = spec.cached_trace(0, 200_000);
    let profile = BranchProfile::collect(&mut TageScL::kb8(), trace.insts());
    let bins = accuracy_spread(&profile, 100.0, 15_000.0);
    // At this trace scale one execution is ~150 paper-equivalents, so the
    // first *populated* bin is the rare-branch bin.
    let first = bins.first().expect("rare bin populated");
    assert!(first.lo <= 300.0 && first.stddev > 0.2, "first bin {first:?}");
    let late: Vec<_> = bins.iter().filter(|b| b.lo >= 1_000.0 && b.n >= 3).collect();
    if let Some(l) = late.first() {
        assert!(
            l.stddev < first.stddev,
            "spread should narrow: {} vs {}",
            l.stddev,
            first.stddev
        );
    }
}

/// §IV-A: H2P branches thrash TAGE's tables — orders of magnitude more
/// allocations than ordinary branches, with entries recycled.
#[test]
fn h2ps_thrash_tage_tables() {
    let spec = &specint_suite()[6]; // leela-like
    let trace = spec.cached_trace(0, 150_000);
    let slice = SliceConfig::new(30_000);
    let mut bpu = TageScL::kb8();
    bpu.enable_instrumentation();
    let criteria = H2pCriteria::paper();
    let mut h2ps = std::collections::HashSet::new();
    for s in trace.slices(slice) {
        let p = BranchProfile::collect(&mut bpu, s);
        h2ps.extend(criteria.screen(&p, slice));
    }
    let stats = compute_alloc_stats(bpu.tracker().unwrap(), &h2ps);
    assert!(stats.h2p_count > 0);
    assert!(
        stats.h2p_median_allocations > 5 * stats.other_median_allocations.max(1),
        "{stats:?}"
    );
    assert!(stats.h2p_mean_allocation_share > stats.other_mean_allocation_share * 10.0);
}

/// §IV-B / Fig. 7: for LCF applications, growing storage 8KB -> 64KB gives
/// the main accuracy step, after which returns plateau.
#[test]
fn storage_scaling_plateaus_after_64kb() {
    let spec = &lcf_suite()[1]; // game-like
    let trace = spec.cached_trace(0, 250_000);
    let a8 = measure(&mut TageScL::kb8(), &trace).accuracy();
    let a64 = measure(&mut TageScL::kb64(), &trace).accuracy();
    let a1024 = measure(&mut TageScL::new(TageSclConfig::storage_kb(1024)), &trace).accuracy();
    assert!(a64 > a8, "64KB ({a64}) must beat 8KB ({a8})");
    let first_step = a64 - a8;
    let rest = a1024 - a64;
    assert!(
        rest < first_step,
        "8->64 gain {first_step} should dominate 64->1024 gain {rest}"
    );
    // Even 1024KB leaves most of the misprediction mass (irreducibly rare
    // branches): far from perfect.
    assert!(a1024 < 0.9, "1024KB accuracy {a1024}");
}

/// Fig. 9: median recurrence intervals show long-timescale structure.
#[test]
fn recurrence_intervals_have_longscale_mass() {
    let spec = &lcf_suite()[0];
    let trace = spec.cached_trace(0, 200_000);
    let rec = RecurrenceAnalysis::compute(&trace);
    let hist = rec.histogram(trace.len() as u64);
    // Substantial mass beyond 10K paper-equivalent instructions.
    let long: f64 = hist
        .labels()
        .iter()
        .zip(hist.fractions())
        .filter(|(l, _)| {
            ["10K-100K", "100K-1M", "1M-2M", "2M-4M", "4M-8M", "8M-16M", "16M-32M"]
                .contains(&l.as_str())
        })
        .map(|(_, f)| f)
        .sum();
    assert!(long > 0.3, "long-interval mass {long}");
}

/// §III-A: H2P sites recur across application inputs (program structure is
/// input-independent), enabling offline training.
#[test]
fn h2p_sites_recur_across_inputs() {
    let spec = &specint_suite()[6];
    let cfg = DatasetConfig {
        max_inputs: Some(3),
        ..DatasetConfig::quick()
    };
    let c = characterize_workload(spec, &cfg, TAGE_SC_L_8KB);
    assert!(c.h2p_3plus_inputs > 0, "union {}", c.h2p_union.len());
}
