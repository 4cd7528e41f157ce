//! Report functions for the analysis studies, ablations and probes
//! (Figs. 4, 6, 10, Table III, `alloc_stats`, `baselines`, `helpers`,
//! `ablation`, `calibrate`, `debug_ipc`).
//!
//! Same contract as [`crate::reports`]: each function computes one
//! study and returns a [`Report`] whose `render()` is byte-identical to
//! the stdout of the legacy standalone binary. Sweep-shaped studies
//! (`baselines`, the `ablation` accuracy tables, `debug_ipc`) step all
//! their configurations through a single trace pass via
//! [`bp_predictors::sweep_flags`] / [`bp_pipeline::SweepReplay`]
//! instead of re-replaying per configuration; the H2P studies screen
//! slices with [`H2pCriteria::screen_slices`].

use std::sync::Arc;

use bp_analysis::{
    accuracy_spread_from_points, compute_alloc_stats, rank_heavy_hitters, spread_points,
    BranchProfile, DepBranchReport, DependencyAnalysis, H2pCriteria, HeavyHitter,
    RegValueAnalysis, DEFAULT_WINDOW, PAPER_TRACKED_REGS,
};
use bp_core::{f3, DatasetConfig, Report, ResolvedSampling, SamplingConfig, Table};
use bp_helpers::{
    train_helper, CnnNet, HistoryEncoder, HybridPredictor, PhaseHelper, PhaseHelperConfig,
    TrainerConfig,
};
use bp_analysis::{simpoints_from_profiles, PhaseConfig};
use bp_pipeline::{
    run, PipelineConfig, SampledReplay, SampledStats, SamplePlan, SampleSegment, SweepReplay,
};
use bp_predictors::{
    measure, misprediction_flags, sweep_flags, AccuracyStats, DirectionPredictor,
    PerfectPredictor, Predictor, PredictorSpec, TageConfig, TageScL, TageSclConfig,
};
use bp_trace::profile_intervals;
use bp_trace::Trace;
use bp_workloads::{lcf_suite, specint_suite, WorkloadSpec};

/// Fig. 4: accuracy spread of rare branches — the per-execution-bin
/// standard deviation of accuracy over the LCF dataset.
#[must_use]
pub fn fig4_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    let mut points = Vec::new();
    for spec in &lcf_suite() {
        let trace = spec.cached_trace(0, cfg.trace_len);
        let mut bpu = TageScL::kb8();
        let profile = BranchProfile::collect(&mut bpu, trace.insts());
        points.extend(spread_points(&profile));
    }
    let bins = accuracy_spread_from_points(&points, 100.0, 15_000.0);
    let mut table = Table::new(vec![
        "execs-bin (paper-equiv)",
        "branches",
        "mean-acc",
        "stddev-acc",
    ]);
    for b in &bins {
        table.row(vec![
            format!("{:.0}-{:.0}", b.lo, b.lo + 100.0),
            format!("{}", b.n),
            format!("{:.3}", b.mean),
            format!("{:.3}", b.stddev),
        ]);
    }
    report.section(
        "Fig. 4b: stddev of accuracy by dynamic-execution bin (LCF dataset)",
        "fig4",
        table,
    );
    if let (Some(first), Some(second)) = (bins.first(), bins.get(1)) {
        report.note(format!(
            "first bin stddev {:.2} (paper: 0.35); second bin {:.2} (paper: 0.08)",
            first.stddev, second.stddev
        ));
    }
    report
}

/// The first input's trace of `spec` and its top H2P heavy hitter, if
/// any: the paper's H2P screen over 8KB TAGE-SC-L slices, ranked by
/// dynamic executions. Table III, Fig. 6 and Fig. 10 all start here.
fn top_h2p(spec: &WorkloadSpec, cfg: &DatasetConfig) -> (Arc<Trace>, Option<HeavyHitter>) {
    let trace = spec.cached_trace(0, cfg.trace_len);
    let (merged, h2ps) =
        H2pCriteria::paper().screen_slices(&mut TageScL::kb8(), &trace, cfg.slice);
    let top = rank_heavy_hitters(&merged, h2ps.iter().copied()).into_iter().next();
    (trace, top)
}

/// The dependency branches of every execution of the H2P at `ip`, as
/// Table III and Fig. 6 read them: the paper's 5,000-instruction window,
/// at most 256 nodes per execution.
fn dependencies(trace: &Trace, ip: u64) -> DepBranchReport {
    DependencyAnalysis::new(trace).analyze(trace, ip, DEFAULT_WINDOW, 256)
}

/// Fig. 6: history-position distributions of dependency branches for the
/// top H2P heavy hitter of each SPECint benchmark.
#[must_use]
pub fn fig6_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    for spec in &specint_suite() {
        let (trace, top) = top_h2p(spec, cfg);
        let Some(top) = top else {
            report.note(format!("\n== Fig. 6 {}: no H2P found ==", spec.name));
            continue;
        };
        let analysis = dependencies(&trace, top.ip);

        // Summarize per dependency branch: how many distinct positions,
        // and the occurrence-weighted position span.
        let mut per_ip: std::collections::HashMap<u64, (usize, usize, usize, u64)> =
            std::collections::HashMap::new();
        for (&(ip, pos), &count) in &analysis.occurrences {
            let e = per_ip.entry(ip).or_insert((usize::MAX, 0, 0, 0));
            e.0 = e.0.min(pos);
            e.1 = e.1.max(pos);
            e.2 += 1; // distinct positions
            e.3 += count;
        }
        let mut rows: Vec<_> = per_ip.into_iter().collect();
        // Tie-break equal occurrence counts by ip: HashMap iteration
        // order is seeded per process, and the row order must not be.
        rows.sort_by_key(|&(ip, v)| (std::cmp::Reverse(v.3), ip));
        let mut table = Table::new(vec![
            "dep-branch-ip",
            "distinct-positions",
            "min-pos",
            "max-pos",
            "occurrences",
        ]);
        for (ip, (min, max, distinct, occ)) in rows.into_iter().take(12) {
            table.row(vec![
                format!("{ip:#x}"),
                format!("{distinct}"),
                format!("{min}"),
                format!("{max}"),
                format!("{occ}"),
            ]);
        }
        report.section(
            format!(
                "Fig. 6 {}: dependency-branch history positions for H2P {:#x} ({} executions)",
                spec.name, top.ip, analysis.executions
            ),
            format!("fig6_{}", spec.name.replace('.', "_")),
            table,
        );
    }
    report
}

/// Fig. 10: distributions of register values written immediately before
/// the top H2P heavy hitter executes, for the paper's six benchmarks.
#[must_use]
pub fn fig10_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    // The paper shows six benchmarks; we show the same six.
    let shown = [
        "605.mcf_s",
        "620.omnetpp_s",
        "625.x264_s",
        "631.deepsjeng_s",
        "641.leela_s",
        "657.xz_s",
    ];
    for spec in specint_suite().iter().filter(|s| shown.contains(&s.name.as_str())) {
        let (trace, top) = top_h2p(spec, cfg);
        let Some(top) = top else {
            report.note(format!("\n== Fig. 10 {}: no H2P found ==", spec.name));
            continue;
        };
        let rv = RegValueAnalysis::collect(&trace, top.ip, PAPER_TRACKED_REGS);
        let mut table = Table::new(vec![
            "register",
            "distinct-values",
            "entropy-bits",
            "top-value",
            "top-count",
        ]);
        for r in 0..rv.tracked() {
            let d = rv.register(r);
            if d.total() == 0 {
                continue;
            }
            let top_val = d.top(1);
            table.row(vec![
                format!("r{r}"),
                format!("{}", d.distinct()),
                format!("{:.2}", d.entropy_bits()),
                top_val.first().map_or("-".into(), |(v, _)| format!("{v:#x}")),
                top_val.first().map_or("-".into(), |(_, c)| c.to_string()),
            ]);
        }
        report.section(
            format!(
                "Fig. 10 {}: register values preceding H2P {:#x} ({} executions, mean entropy {:.2} bits)",
                spec.name,
                top.ip,
                rv.executions,
                rv.mean_entropy_bits()
            ),
            format!("fig10_{}", spec.name.replace('.', "_")),
            table,
        );
    }
    report
}

/// Table III: dependency-branch statistics for the top H2P heavy hitter
/// of each SPECint benchmark.
#[must_use]
pub fn table3_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    let mut table = Table::new(vec![
        "benchmark",
        "top-h2p-ip",
        "dep-branches",
        "min-hist-pos",
        "max-hist-pos",
    ]);
    for spec in &specint_suite() {
        let (trace, top) = top_h2p(spec, cfg);
        let Some(top) = top else {
            table.row(vec![
                spec.name.clone(),
                "-".into(),
                "0".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let analysis = dependencies(&trace, top.ip);
        table.row(vec![
            spec.name.clone(),
            format!("{:#x}", top.ip),
            format!("{}", analysis.dep_branch_count()),
            analysis.min_position().map_or("-".into(), |p| p.to_string()),
            analysis.max_position().map_or("-".into(), |p| p.to_string()),
        ]);
    }
    report.section(
        "Table III: dependency branches of the top H2P heavy hitter (window 5,000 instructions)",
        "table3",
        table,
    );
    report
}

/// §IV-A: TAGE-SC-L table-allocation statistics for H2P vs non-H2P
/// branches at the 64KB configuration.
#[must_use]
pub fn alloc_stats_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    let mut table = Table::new(vec![
        "benchmark",
        "h2p-med-allocs",
        "h2p-med-unique",
        "other-med-allocs",
        "other-med-unique",
        "h2p-share",
        "other-share",
    ]);
    for spec in &specint_suite() {
        let trace = spec.cached_trace(0, cfg.trace_len);
        let mut bpu = TageScL::new(TageSclConfig::storage_kb(64));
        bpu.enable_instrumentation();
        let (_, h2ps) = H2pCriteria::paper().screen_slices(&mut bpu, &trace, cfg.slice);
        let stats = compute_alloc_stats(bpu.tracker().expect("instrumented"), &h2ps);
        table.row(vec![
            spec.name.clone(),
            format!("{}", stats.h2p_median_allocations),
            format!("{}", stats.h2p_median_unique_entries),
            format!("{}", stats.other_median_allocations),
            format!("{}", stats.other_median_unique_entries),
            format!("{:.3}%", stats.h2p_mean_allocation_share * 100.0),
            format!("{:.4}%", stats.other_mean_allocation_share * 100.0),
        ]);
    }
    report.section(
        "§IV-A: TAGE-SC-L 64KB allocation statistics, H2P vs non-H2P",
        "alloc_stats",
        table,
    );
    report.note("(paper medians: H2P 13,093 allocs / 3,990 unique; non-H2P 4 / 4)");
    report
}

/// §II context: the predictor-generation survey on both suites. All
/// seven generations score in one pass per workload
/// ([`sweep_flags`]).
#[must_use]
pub fn baselines_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    let mut table = Table::new(vec![
        "workload",
        "bimodal",
        "local",
        "gshare",
        "tournament",
        "perceptron",
        "ppm",
        "tage-sc-l-8kb",
    ]);
    let specs = PredictorSpec::survey();
    let mut means = [0.0f64; 7];
    let mut n = 0.0f64;
    for spec in specint_suite().iter().chain(lcf_suite().iter()) {
        let trace = spec.cached_trace(0, cfg.trace_len);
        let mut predictors = PredictorSpec::build_all(&specs);
        let accs: Vec<f64> = sweep_flags(&mut predictors, trace.reader(), None)
            .expect("in-memory reader cannot fail")
            .iter()
            .map(|flags| AccuracyStats::from_flags(flags).accuracy())
            .collect();
        n += 1.0;
        for (m, a) in means.iter_mut().zip(&accs) {
            *m += a;
        }
        let mut row = vec![spec.name.clone()];
        row.extend(accs.iter().map(|&a| f3(a)));
        table.row(row);
    }
    let mut row = vec!["MEAN".to_owned()];
    row.extend(means.iter().map(|&m| f3(m / n)));
    table.row(row);
    report.section(
        "Predictor generations on the branch-lab suites (§II survey context)",
        "baselines",
        table,
    );
    report
}

/// Accuracy ablations for the design choices DESIGN.md calls out. Each
/// accuracy table's configurations score in one pass per workload.
#[must_use]
pub fn ablation_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    let suite = specint_suite();
    let lcf = lcf_suite();
    let specs = [
        suite.iter().find(|s| s.name.contains("mcf")).unwrap(),
        suite.iter().find(|s| s.name.contains("leela")).unwrap(),
        suite.iter().find(|s| s.name.contains("xalancbmk")).unwrap(),
        &lcf[1],
    ];
    // One pass per workload scoring a list of TAGE-SC-L variants; cell
    // order matches the configs' order.
    let accs_for = |spec: &WorkloadSpec, configs: Vec<TageSclConfig>| -> Vec<String> {
        let trace = spec.cached_trace(0, cfg.trace_len);
        let mut predictors: Vec<Box<dyn DirectionPredictor>> = configs
            .into_iter()
            .map(|c| Box::new(TageScL::new(c)) as Box<dyn DirectionPredictor>)
            .collect();
        sweep_flags(&mut predictors, trace.reader(), None)
            .expect("in-memory reader cannot fail")
            .iter()
            .map(|flags| f3(AccuracyStats::from_flags(flags).accuracy()))
            .collect()
    };

    // --- Component ablation across a few representative workloads. ---
    let mut table = Table::new(vec!["workload", "tage", "tage-l", "tage-sc", "tage-sc-l"]);
    for spec in specs {
        let mut row = vec![spec.name.clone()];
        row.extend(accs_for(
            spec,
            vec![
                TageSclConfig::tage_only(8),
                TageSclConfig::tage_l(8),
                TageSclConfig {
                    loop_entries: None,
                    ..TageSclConfig::storage_kb(8)
                },
                TageSclConfig::storage_kb(8),
            ],
        ));
        table.row(row);
    }
    report.section(
        "Ablation: ensemble components (8KB budget)",
        "ablation_components",
        table,
    );

    // --- History-length limit at fixed storage. ---
    let with_hist = |max_hist: usize| {
        let mut c = TageSclConfig::storage_kb(8);
        c.tage = TageConfig { max_hist, ..c.tage };
        c
    };
    let mut table = Table::new(vec!["workload", "hist-250", "hist-1000", "hist-3000"]);
    for spec in specs {
        let mut row = vec![spec.name.clone()];
        row.extend(accs_for(
            spec,
            vec![with_hist(250), with_hist(1000), with_hist(3000)],
        ));
        table.row(row);
    }
    report.section(
        "Ablation: maximum history length at fixed 8KB storage",
        "ablation_history",
        table,
    );

    // --- Usefulness aging period (allocation churn control). ---
    let with_age = |period: u64| {
        let mut c = TageSclConfig::storage_kb(8);
        c.tage = TageConfig {
            u_reset_period: period,
            ..c.tage
        };
        c
    };
    let mut table = Table::new(vec!["workload", "age-2^14", "age-2^18", "age-never"]);
    for spec in specs {
        let mut row = vec![spec.name.clone()];
        row.extend(accs_for(
            spec,
            vec![with_age(1 << 14), with_age(1 << 18), with_age(u64::MAX)],
        ));
        table.row(row);
    }
    report.section(
        "Ablation: usefulness aging period (8KB budget)",
        "ablation_aging",
        table,
    );

    // --- CNN precision on a synthetic variable-gap stream. ---
    let (window, buckets) = (12usize, 48usize);
    let make_stream = |seed: u64, n: usize| -> Vec<(Vec<u16>, bool)> {
        let mut enc = HistoryEncoder::new(window, buckets);
        let mut state = seed;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut out = Vec::new();
        for _ in 0..n {
            let d = rnd() % 2 == 0;
            enc.push(0x100, d);
            for k in 0..(1 + rnd() % 5) {
                enc.push(0x200 + k * 4, rnd() % 100 < 70);
            }
            out.push((enc.buckets(), d));
            enc.push(0x300, d);
            // Spacing filler so the window spans roughly one lap and the
            // dependency direction is unambiguous.
            for k in 0..10u64 {
                enc.push(0x400 + k * 4, k % 2 == 0);
            }
        }
        out
    };
    let train = make_stream(3, 4000);
    let test = make_stream(99, 2000);
    let mut net = CnnNet::new(12, buckets, 4);
    for _ in 0..4 {
        for (w, t) in &train {
            net.train_step(w, *t, 0.05);
        }
    }
    let acc_of = |f: &dyn Fn(&[u16]) -> bool| {
        test.iter().filter(|(w, t)| f(w) == *t).count() as f64 / test.len() as f64
    };
    let naive = net.quantize();
    let tuned = net.quantize_finetuned(&train, 2, 0.05);
    let mut table = Table::new(vec!["precision", "held-out accuracy"]);
    table.row(vec!["f32".into(), f3(acc_of(&|w| net.forward(w).taken()))]);
    table.row(vec![
        "2-bit naive".into(),
        f3(acc_of(&|w| naive.forward(w).taken())),
    ]);
    table.row(vec![
        "2-bit + classifier fine-tune".into(),
        f3(acc_of(&|w| tuned.forward(w).taken())),
    ]);
    report.section(
        "Ablation: CNN helper weight precision (synthetic variable-gap H2P)",
        "ablation_cnn",
        table,
    );
    report
}

fn per_ip_accuracy(predictor: &mut dyn DirectionPredictor, trace: &Trace, ip: u64) -> f64 {
    let mut total = 0u64;
    let mut correct = 0u64;
    for b in trace.conditional_branches() {
        let pred = predictor.predict_and_train(b.ip, b.taken);
        if b.ip == ip {
            total += 1;
            correct += u64::from(pred == b.taken);
        }
    }
    correct as f64 / total.max(1) as f64
}

fn cnn_study(report: &mut Report, spec: &WorkloadSpec, cfg: &DatasetConfig) {
    report.note(format!("\n-- CNN helper study on {} --", spec.name));
    let train_inputs = 3.min(spec.inputs - 1);
    let train_traces: Vec<_> = (0..train_inputs)
        .map(|i| spec.cached_trace(i, cfg.trace_len))
        .collect();
    let held_out = spec.cached_trace(spec.inputs - 1, cfg.trace_len);

    // Screen H2Ps on the training traces, a fresh predictor per trace.
    let mut h2ps = std::collections::HashSet::new();
    let mut merged = BranchProfile::new();
    for t in &train_traces {
        let (profile, screened) =
            H2pCriteria::paper().screen_slices(&mut TageScL::kb8(), t, cfg.slice);
        h2ps.extend(screened);
        merged.merge(&profile);
    }
    let hitters = rank_heavy_hitters(&merged, h2ps.iter().copied());
    let targets: Vec<u64> = hitters.iter().take(8).map(|h| h.ip).collect();
    if targets.is_empty() {
        report.note("no H2Ps found; skipping");
        return;
    }

    let tcfg = TrainerConfig::default();
    let helpers: Vec<_> = targets
        .iter()
        .map(|&ip| train_helper(&train_traces, ip, &tcfg))
        .collect();

    // Per-IP accuracy on the held-out input: TAGE alone vs hybrid.
    let mut table = Table::new(vec!["h2p-ip", "tage8-acc", "hybrid-acc", "delta"]);
    for (ip, helper) in targets.iter().zip(&helpers) {
        let tage_acc = per_ip_accuracy(&mut TageScL::kb8(), &held_out, *ip);
        let mut hybrid = HybridPredictor::new(TageScL::kb8());
        hybrid.attach_cnn(helper.clone());
        let hybrid_acc = per_ip_accuracy(&mut hybrid, &held_out, *ip);
        table.row(vec![
            format!("{ip:#x}"),
            f3(tage_acc),
            f3(hybrid_acc),
            format!("{:+.3}", hybrid_acc - tage_acc),
        ]);
    }
    report.section(
        format!("per-H2P accuracy on held-out input ({})", spec.name),
        format!("helpers_cnn_{}", spec.name.replace('.', "_")),
        table,
    );

    // Whole-trace effect.
    let base_acc = measure(&mut TageScL::kb8(), &held_out).accuracy();
    let mut hybrid = HybridPredictor::new(TageScL::kb8());
    for h in helpers {
        hybrid.attach_cnn(h);
    }
    let hybrid_acc = measure(&mut hybrid, &held_out).accuracy();
    let pipe = PipelineConfig::skylake();
    let base_ipc = run(&held_out, &mut TageScL::kb8(), &pipe).ipc();
    let mut hybrid2 = hybrid.clone();
    let hybrid_ipc = run(&held_out, &mut hybrid2, &pipe).ipc();
    report.note(format!(
        "whole-trace: accuracy {:.4} -> {:.4}; IPC {:.3} -> {:.3} ({:+.1}%) with {} helpers ({} helper bits)",
        base_acc,
        hybrid_acc,
        base_ipc,
        hybrid_ipc,
        (hybrid_ipc / base_ipc - 1.0) * 100.0,
        hybrid.cnn_helper_count(),
        hybrid.storage_bits() - TageScL::kb8().storage_bits(),
    ));
}

fn phase_study(report: &mut Report, spec: &WorkloadSpec, cfg: &DatasetConfig) {
    report.note(format!(
        "\n-- phase-conditioned rare-branch helper on {} --",
        spec.name
    ));
    // Offline training trace = one "prior invocation"; evaluation on a
    // longer fresh run (the paper: statistics aggregated over invocations).
    let train = spec.cached_trace(0, cfg.trace_len);
    let eval = spec.cached_trace(0, cfg.trace_len * 2);
    let helper = PhaseHelper::train(std::slice::from_ref(&train), PhaseHelperConfig::default());

    let base_acc = measure(&mut TageScL::kb8(), &eval).accuracy();
    let mut hybrid = HybridPredictor::new(TageScL::kb8());
    hybrid.attach_phase_helper(helper);
    let hybrid_acc = measure(&mut hybrid, &eval).accuracy();
    let mut table = Table::new(vec!["config", "accuracy"]);
    table.row(vec!["tage-sc-l-8kb".into(), f3(base_acc)]);
    table.row(vec!["tage + phase helper".into(), f3(hybrid_acc)]);
    report.section(
        format!("rare-branch helper accuracy ({})", spec.name),
        format!("helpers_phase_{}", spec.name),
        table,
    );
}

/// §V helper-predictor study: offline-trained CNN helpers deployed on a
/// held-out input, plus the phase-conditioned rare-branch helper.
#[must_use]
pub fn helpers_report(cfg: &DatasetConfig) -> Report {
    let mut report = Report::new();
    for name in ["605.mcf_s", "641.leela_s"] {
        let suite = specint_suite();
        let spec = suite.iter().find(|s| s.name == name).expect("known spec");
        cnn_study(&mut report, spec, cfg);
    }
    let lcf = lcf_suite();
    phase_study(&mut report, &lcf[1], cfg); // game-like: rare-branch dominated
    report
}

/// Calibration probe: per-workload TAGE-SC-L accuracy and branch
/// statistics for tuning suite parameters against Tables I/II.
#[must_use]
pub fn calibrate_report(len: usize) -> Report {
    let mut report = Report::new();
    report.note(format!(
        "{:<18} {:>9} {:>10} {:>8} {:>10} {:>8}",
        "workload", "branches", "static-ips", "acc", "execs/ip", "br-dens"
    ));
    for spec in specint_suite().iter().chain(lcf_suite().iter()) {
        let trace = spec.cached_trace(0, len);
        let mut per_ip: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for b in trace.conditional_branches() {
            *per_ip.entry(b.ip).or_default() += 1;
        }
        let mut bpu = TageScL::kb8();
        let stats = measure(&mut bpu, &trace);
        report.note(format!(
            "{:<18} {:>9} {:>10} {:>8.4} {:>10.1} {:>8.3}",
            spec.name,
            stats.total,
            per_ip.len(),
            stats.accuracy(),
            stats.total as f64 / per_ip.len() as f64,
            stats.total as f64 / trace.len() as f64,
        ));
    }
    report
}

/// Debug probe: absolute IPC per scale for one workload under TAGE-SC-L
/// 8KB and perfect prediction. Both configurations replay in lockstep.
#[must_use]
pub fn debug_ipc_report(which: &str, len: usize) -> Report {
    let mut report = Report::new();
    let suite = specint_suite();
    let lcf = lcf_suite();
    let spec = match which {
        s if s.starts_with("lcf") => &lcf[s[3..].parse::<usize>().unwrap_or(0)],
        s => &suite[s.parse::<usize>().unwrap_or(1)],
    };
    report.note(format!("workload {} len {len}", spec.name));
    let trace = spec.cached_trace(0, len);
    let mut predictors: Vec<Box<dyn DirectionPredictor>> =
        vec![Box::new(TageScL::kb8()), Box::new(PerfectPredictor)];
    let mut streams =
        sweep_flags(&mut predictors, trace.reader(), None).expect("in-memory reader cannot fail");
    let perfect_flags = streams.pop().expect("two streams");
    let tage_flags = streams.pop().expect("one stream");
    let mpki = tage_flags.iter().filter(|&&f| f).count() as f64 * 1000.0 / len as f64;
    report.note(format!("tage8 MPKI {mpki:.2}"));
    let base = PipelineConfig::skylake();
    let sweep = SweepReplay::new(&trace, &base);
    for scale in PipelineConfig::SCALES {
        let stats = sweep.simulate_many(&[&tage_flags, &perfect_flags], &base.scaled(scale));
        report.note(format!(
            "{scale:>3}x  tage8 {:.3}  perfect {:.3}  ratio {:.3}",
            stats[0].ipc(),
            stats[1].ipc(),
            stats[1].ipc() / stats[0].ipc()
        ));
    }
    report
}

/// One workload's sampled-vs-full comparison: the full-replay golden and
/// the SimPoint-style weighted reconstruction, side by side.
pub struct SampledComparison {
    /// Intervals the trace divides into at the resolved interval length.
    pub intervals: usize,
    /// Representatives actually simulated (phases found, EOF-capped).
    pub segments: usize,
    /// Full-replay golden MPKI under TAGE-SC-L 8KB.
    pub golden_mpki: f64,
    /// Full-replay golden IPC at the Skylake baseline.
    pub golden_ipc: f64,
    /// The weighted sampled estimates with confidence half-widths.
    pub est: SampledStats,
}

impl SampledComparison {
    /// Relative MPKI reconstruction error against the golden.
    #[must_use]
    pub fn mpki_rel_err(&self) -> f64 {
        (self.est.mpki - self.golden_mpki).abs() / self.golden_mpki.max(f64::MIN_POSITIVE)
    }
}

/// Runs one workload both ways — full replay and sampled replay — under
/// a fresh TAGE-SC-L 8KB each, and returns the comparison.
///
/// The sampled side is the production path end to end: streamed interval
/// profiles ([`bp_trace::profile_intervals`]), medoid selection
/// ([`bp_analysis::simpoint`]), single-pass segment extraction, a
/// functionally-warmed predictor pass
/// ([`bp_pipeline::SampledReplay::warmed_lanes`] — the predictor trains
/// over the whole stream, only pipeline replay is sampled), and weighted
/// reconstruction ([`bp_pipeline::SampledReplay::simulate_weighted`]).
#[must_use]
pub fn sampled_comparison(
    spec: &WorkloadSpec,
    cfg: &DatasetConfig,
    sampling: &ResolvedSampling,
) -> SampledComparison {
    let trace = spec.cached_trace(0, cfg.trace_len);
    let base = PipelineConfig::skylake();

    // Full-replay golden.
    let flags = misprediction_flags(&mut TageScL::kb8(), &trace);
    let sweep = SweepReplay::new(&trace, &base);
    let golden = sweep.simulate(&flags, &base);

    // Sampled path.
    let phase_cfg = PhaseConfig {
        max_phases: sampling.max_phases,
        ..PhaseConfig::default()
    };
    let profiles = profile_intervals(trace.reader(), sampling.interval_len, phase_cfg.dims)
        .expect("in-memory reader cannot fail");
    let simpoints = simpoints_from_profiles(&profiles, &phase_cfg);
    let plan = SamplePlan {
        interval_len: sampling.interval_len,
        warmup: sampling.warmup,
        segments: simpoints
            .representatives
            .iter()
            .map(|r| SampleSegment {
                interval: r.interval,
                weight: r.weight,
                spread: r.spread,
            })
            .collect(),
    };
    let sampled =
        SampledReplay::prepare(trace.reader(), &base, &plan).expect("in-memory reader cannot fail");
    let lanes = sampled
        .warmed_lanes(trace.reader(), &mut TageScL::kb8())
        .expect("in-memory reader cannot fail");
    let lane_refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
    let est = sampled.simulate_weighted(&lane_refs, &base);

    SampledComparison {
        intervals: profiles.len(),
        segments: sampled.num_segments(),
        golden_mpki: golden.mpki(),
        golden_ipc: golden.ipc(),
        est,
    }
}

/// Sampled-replay validation study: every suite workload replayed in
/// full (the golden) and via SimPoint-style sampling, with the weighted
/// reconstruction, its confidence interval, and the achieved error side
/// by side. Workloads run sequentially so the report is byte-identical
/// at any `BRANCH_LAB_THREADS` setting.
#[must_use]
pub fn sampled_report(cfg: &DatasetConfig, sampling: &SamplingConfig) -> Report {
    let resolved = sampling.resolve(cfg);
    let mut report = Report::new();
    report.note(format!(
        "sampled replay: interval {} insts, warmup {} insts, max {} phases",
        resolved.interval_len, resolved.warmup, resolved.max_phases
    ));
    let mut table = Table::new(vec![
        "workload", "ivals", "reps", "cover", "mpki", "mpki-est", "+/-", "err%", "in-ci", "ipc",
        "ipc-est",
    ]);
    let mut worst_err = 0.0f64;
    let mut contained = 0usize;
    let mut total = 0usize;
    for spec in specint_suite().iter().chain(lcf_suite().iter()) {
        let c = sampled_comparison(spec, cfg, &resolved);
        let within = c.est.mpki_contains(c.golden_mpki);
        worst_err = worst_err.max(c.mpki_rel_err());
        contained += usize::from(within);
        total += 1;
        table.row(vec![
            spec.name.to_owned(),
            c.intervals.to_string(),
            c.segments.to_string(),
            format!("{:.1}%", c.est.coverage() * 100.0),
            f3(c.golden_mpki),
            f3(c.est.mpki),
            f3(c.est.mpki_half),
            format!("{:.2}", c.mpki_rel_err() * 100.0),
            if within { "yes" } else { "NO" }.to_owned(),
            f3(c.golden_ipc),
            f3(c.est.ipc),
        ]);
    }
    report.section(
        "sampled replay vs full-replay golden (TAGE-SC-L 8KB, Skylake baseline)",
        "sampled",
        table,
    );
    report.note(format!(
        "golden contained in {contained}/{total} intervals; worst MPKI error {:.2}%",
        worst_err * 100.0
    ));
    report
}
