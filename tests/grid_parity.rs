//! Grid-study parity: the single-pass heterogeneous grid must be
//! *bit-identical* to running each (predictor, scale) cell as its own
//! per-config invocation, and independent of the engine's thread count.
//!
//! The grid study's whole value is that it collapses `specs × scales`
//! invocations into one train pass and one prepared replay per workload;
//! these tests pin that the collapse changes nothing: every IPC and MPKI
//! cell equals the solo number exactly (f64 bit equality, not epsilon),
//! and 1-, 4- and 16-thread engines produce byte-identical studies. Each
//! grid memoizes in a fresh [`TraceStore`], so every thread count trains
//! and prepares its own lanes.

use branch_lab::core::{hetero_grid_study_with, DatasetConfig, Engine, HeteroGridStudy};
use branch_lab::pipeline::{PipelineConfig, SweepReplay};
use branch_lab::predictors::misprediction_flags;
use branch_lab::workloads::{lcf_suite, TraceStore};

/// Two LCF workloads keep the per-config reference pass (16 solo train
/// walks per workload) affordable while still exercising the parallel
/// engine with more tasks than one.
fn workloads() -> Vec<branch_lab::workloads::WorkloadSpec> {
    lcf_suite()[..2].to_vec()
}

fn grid(threads: usize) -> HeteroGridStudy {
    hetero_grid_study_with(
        Engine::with_threads(threads),
        &TraceStore::new(),
        &workloads(),
        &DatasetConfig::quick(),
    )
}

/// Exact structural equality, field by field; f64 cells must match
/// bitwise, which is what "byte-identical output" means for the
/// rendered report.
fn assert_identical(a: &HeteroGridStudy, b: &HeteroGridStudy, label: &str) {
    assert_eq!(a.scales, b.scales, "{label}: scales");
    assert_eq!(a.specs, b.specs, "{label}: specs");
    assert_eq!(a.rows.len(), b.rows.len(), "{label}: row count");
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.name, rb.name, "{label}: row name");
        for (ia, ib) in ra.ipc.iter().flatten().zip(rb.ipc.iter().flatten()) {
            assert_eq!(ia.to_bits(), ib.to_bits(), "{label}: {} ipc", ra.name);
        }
        for (ma, mb) in ra.mpki.iter().zip(&rb.mpki) {
            assert_eq!(ma.to_bits(), mb.to_bits(), "{label}: {} mpki", ra.name);
        }
    }
}

#[test]
fn grid_is_byte_identical_at_1_4_and_16_threads() {
    let serial = grid(1);
    assert_identical(&serial, &grid(4), "4 threads");
    assert_identical(&serial, &grid(16), "16 threads");
}

#[test]
fn grid_cells_match_per_config_invocations_exactly() {
    let cfg = DatasetConfig::quick();
    let study = grid(1);
    let base = PipelineConfig::skylake();
    for (w, wl) in workloads().iter().enumerate() {
        let trace = wl.cached_trace(0, cfg.trace_len);
        let insts = trace.len().max(1) as f64;
        let sweep = SweepReplay::new(&trace, &base);
        for (i, spec) in study.specs.iter().enumerate() {
            // The per-config path: this predictor alone, scalar flags,
            // one replay per scale.
            let flags = misprediction_flags(spec.build().as_mut(), &trace);
            let mpki = flags.iter().filter(|&&m| m).count() as f64 * 1000.0 / insts;
            assert_eq!(
                study.rows[w].mpki[i].to_bits(),
                mpki.to_bits(),
                "{}/{}: mpki",
                wl.name,
                spec.label()
            );
            for (si, &scale) in study.scales.iter().enumerate() {
                let solo = sweep.simulate(&flags, &base.scaled(scale));
                assert_eq!(
                    study.rows[w].ipc[si][i].to_bits(),
                    solo.ipc().to_bits(),
                    "{}/{}: ipc at {scale}x",
                    wl.name,
                    spec.label()
                );
            }
        }
    }
}
