//! The §V pipeline end-to-end: screen H2Ps on training inputs, train a
//! 2-bit CNN helper offline, deploy it alongside TAGE-SC-L, and evaluate
//! on a held-out application input.
//!
//! Run with: `cargo run --release --example helper_training`

use branch_lab::analysis::{rank_heavy_hitters, BranchProfile, H2pCriteria};
use branch_lab::helpers::{evaluate_helper, train_helper, HybridPredictor, TrainerConfig};
use branch_lab::predictors::{measure, DirectionPredictor, TageScL};
use branch_lab::trace::SliceConfig;
use branch_lab::workloads::specint_suite;

fn main() {
    let spec = &specint_suite()[1]; // mcf-like: H2P-dominated
    let program = spec.program();
    let len = 300_000;
    println!("workload {}: training on inputs 0-2, evaluating on input {}", spec.name, spec.inputs - 1);

    // Offline phase: trace multiple inputs and screen H2Ps.
    let train_traces: Vec<_> = (0..3).map(|i| spec.trace_with(&program, i, len)).collect();
    let slice = SliceConfig::new(50_000);
    let mut merged = BranchProfile::new();
    let mut h2ps = std::collections::HashSet::new();
    for t in &train_traces {
        let (profile, screened) = H2pCriteria::paper().screen_slices(&mut TageScL::kb8(), t, slice);
        h2ps.extend(screened);
        merged.merge(&profile);
    }
    let hitters = rank_heavy_hitters(&merged, h2ps.iter().copied());
    let target = hitters.first().expect("mcf-like has H2Ps").ip;
    println!("top H2P heavy hitter: {target:#x}");

    // Train the helper offline on the aggregated multi-input data.
    let helper = train_helper(&train_traces, target, &TrainerConfig::default());
    println!("trained CNN helper: {} bits of 2-bit weights", helper.storage_bits());

    // Held-out evaluation.
    let held_out = spec.trace_with(&program, spec.inputs - 1, len);
    let helper_acc = evaluate_helper(&helper, &held_out).expect("target executes");

    // TAGE's accuracy on the same branch.
    let mut tage = TageScL::kb8();
    let mut total = 0u64;
    let mut correct = 0u64;
    for b in held_out.conditional_branches() {
        let pred = tage.predict_and_train(b.ip, b.taken);
        if b.ip == target {
            total += 1;
            correct += u64::from(pred == b.taken);
        }
    }
    let tage_acc = correct as f64 / total.max(1) as f64;
    println!(
        "\nheld-out accuracy on {target:#x}: TAGE-SC-L 8KB {tage_acc:.3} vs CNN helper {helper_acc:.3}"
    );

    // Deployed: hybrid whole-trace accuracy.
    let base = measure(&mut TageScL::kb8(), &held_out).accuracy();
    let mut hybrid = HybridPredictor::new(TageScL::kb8());
    hybrid.attach_cnn(helper);
    let hyb = measure(&mut hybrid, &held_out).accuracy();
    println!(
        "whole-trace accuracy: {base:.4} -> {hyb:.4} with one helper attached \
         ({} helper overrides)",
        hybrid.helper_overrides
    );
}
