//! Bit-identity proof for the optimized replay hot path.
//!
//! The optimized lane-structured TAGE-SC-L (`TageScL`) is checked against
//! the naive array-of-structs reference it was derived from
//! (`naive::NaiveTageScL`, test support in `tests/naive/`). Every
//! optimization must be behavior-preserving — the studies' golden
//! fixtures depend on byte-identical prediction streams (see
//! `PERFORMANCE.md`). This suite replays all nine SPECint-like workloads
//! through both implementations and asserts:
//!
//! * the prediction stream matches branch-for-branch;
//! * periodic and final `state_digest` values match, i.e. every table
//!   counter, folded history, and policy counter ends identical.
//!
//! The configurations cover what the kernel's lane layout depends on:
//! every storage point (1 to 3 lane groups, 8- to 15-bit table indices,
//! 9- to 12-bit tags), both max-history ablations, a usefulness-aging
//! period short enough to fire many times per trace, and the two periods
//! that never fire (0 and `u64::MAX`).

mod naive;

use bp_predictors::{Predictor, Tage, TageConfig, TageScL, TageSclConfig};
use bp_workloads::{specint_suite, WorkloadSpec};
use naive::{NaiveTage, NaiveTageScL};

/// Long enough to exercise allocation, loop confidence, and SC threshold
/// training on every workload, short enough to keep the suite in seconds.
/// The default aging period (2^18 updates) is not reached at this length;
/// `optimized_matches_naive_with_short_aging_period` covers aging.
const TRACE_LEN: usize = 150_000;

/// Compare digests at this many dynamic-branch intervals, so a divergence
/// is localized to a window rather than reported only at the end.
const DIGEST_STRIDE: u64 = 10_000;

/// One fresh predictor pair per workload, digests compared every
/// `DIGEST_STRIDE` branches and at the end of each workload.
fn assert_bit_identical(config: &TageSclConfig, label: &str) {
    for spec in specint_suite() {
        let mut fast = TageScL::new(config.clone());
        let mut slow = NaiveTageScL::new(config.clone());
        let branches = replay_both(&mut fast, &mut slow, &spec, label, DIGEST_STRIDE);
        assert_eq!(
            fast.state_digest(),
            slow.state_digest(),
            "{label}/{}: final state diverged after {branches} branches",
            spec.name
        );
    }
}

/// One predictor pair replays the nine workloads back to back, with
/// predictions compared at every branch and state once, at the end. For
/// the 128KB–1024KB points, whose digests hash up to 2M state words: a
/// digest per workload would double the suite's time in a debug build.
fn assert_bit_identical_chained(config: &TageSclConfig, label: &str) {
    let mut fast = TageScL::new(config.clone());
    let mut slow = NaiveTageScL::new(config.clone());
    let mut branches = 0;
    for spec in specint_suite() {
        branches += replay_both(&mut fast, &mut slow, &spec, label, u64::MAX);
    }
    assert_eq!(
        fast.state_digest(),
        slow.state_digest(),
        "{label}: final state diverged after {branches} branches"
    );
}

/// Replays `spec`'s trace through both predictors, asserting equal
/// predictions at every branch and equal state every `digest_stride`
/// branches. Returns the number of branches replayed.
fn replay_both(
    fast: &mut TageScL,
    slow: &mut NaiveTageScL,
    spec: &WorkloadSpec,
    label: &str,
    digest_stride: u64,
) -> u64 {
    let trace = spec.cached_trace(0, TRACE_LEN);
    let mut branches = 0u64;
    for br in trace.conditional_branches() {
        let pf = fast.predict(br.ip);
        let ps = slow.predict(br.ip);
        assert_eq!(
            pf, ps,
            "{label}/{}: prediction diverged at dynamic branch {branches} (ip {:#x})",
            spec.name, br.ip
        );
        fast.update(br.ip, br.taken, pf);
        slow.update(br.ip, br.taken, ps);
        branches += 1;
        if branches.is_multiple_of(digest_stride) {
            assert_eq!(
                fast.state_digest(),
                slow.state_digest(),
                "{label}/{}: state diverged within branches {}..{branches}",
                spec.name,
                branches - digest_stride
            );
        }
    }
    assert!(
        branches > 5_000,
        "{label}/{}: trace too branch-light ({branches}) to prove anything",
        spec.name
    );
    branches
}

/// Steps `fast` and `slow` through `n` synthetic branches drawn by
/// `branch(i, lcg_state)`, asserting equal predictions at every branch
/// and equal state at the end. Independent of the workload generators.
fn assert_agree_on_synthetic_stream(
    fast: &mut dyn Predictor,
    slow: &mut dyn Predictor,
    n: u64,
    mut state: u64,
    branch: impl Fn(u64, u64) -> (u64, bool),
) {
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let (ip, taken) = branch(i, state);
        let pf = fast.predict(ip);
        let ps = slow.predict(ip);
        assert_eq!(pf, ps, "prediction diverged at branch {i}");
        fast.update(ip, taken, pf);
        slow.update(ip, taken, ps);
    }
    assert_eq!(fast.state_digest(), slow.state_digest());
}

/// Biased, periodic and noisy branches through the 8KB ensemble.
#[test]
fn naive_and_optimized_agree_on_synthetic_stream() {
    let mut slow = NaiveTageScL::new(TageSclConfig::storage_kb(8));
    assert_agree_on_synthetic_stream(&mut TageScL::kb8(), &mut slow, 30_000, 41, |i, state| {
        let ip = 0x1000 + (state >> 20) % 97 * 4;
        let taken = match ip % 3 {
            0 => (state >> 33) % 100 < 85,
            1 => i % 5 != 0,
            _ => (state >> 45) & 1 == 1,
        };
        (ip, taken)
    });
}

/// The bare TAGE core (`Tage`, outside the ensemble) against its naive
/// counterpart.
#[test]
fn naive_tage_agrees_with_optimized_tage() {
    let mut fast = Tage::new(TageConfig::default());
    let mut slow = NaiveTage::new(TageConfig::default());
    assert_agree_on_synthetic_stream(&mut fast, &mut slow, 20_000, 7, |_, state| {
        (0x400 + (state >> 24) % 61 * 4, (state >> 38) % 100 < 70)
    });
}

#[test]
fn optimized_matches_naive_at_8kb() {
    assert_bit_identical(&TageSclConfig::storage_kb(8), "tage-sc-l-8kb");
}

#[test]
fn optimized_matches_naive_at_64kb() {
    assert_bit_identical(&TageSclConfig::storage_kb(64), "tage-sc-l-64kb");
}

/// The ablation path (no SC, no loop predictor) exercises the bare TAGE
/// core arbitration, which the ensemble otherwise partially masks.
#[test]
fn optimized_matches_naive_tage_only() {
    assert_bit_identical(&TageSclConfig::tage_only(8), "tage-8kb");
}

/// The large storage points: 12 banks of 2^12 to 2^15 entries with 10- to
/// 12-bit tags, and SC tables of 2^12 to 2^15 entries.
#[test]
fn optimized_matches_naive_at_128kb_to_1024kb() {
    for kb in [128, 256, 512, 1024] {
        assert_bit_identical_chained(&TageSclConfig::storage_kb(kb), &format!("tage-sc-l-{kb}kb"));
    }
}

/// The max-history ablations at 8KB: the history lengths, and with them
/// every bank's fold points and outgoing-bit ages, change.
#[test]
fn optimized_matches_naive_at_max_history_ablations() {
    for max_hist in [250, 3000] {
        let mut config = TageSclConfig::storage_kb(8);
        config.tage = TageConfig {
            max_hist,
            ..config.tage
        };
        assert_bit_identical(&config, &format!("tage-sc-l-8kb-hist{max_hist}"));
    }
}

/// Usefulness aging every 2^10 updates fires dozens of times per trace.
#[test]
fn optimized_matches_naive_with_short_aging_period() {
    assert_bit_identical(&with_aging_period(1 << 10), "tage-sc-l-8kb-age2^10");
}

/// Periods 0 and `u64::MAX` never age within any trace; the optimized
/// countdown must neither underflow on 0 nor fire early.
#[test]
fn optimized_matches_naive_when_aging_never_fires() {
    for period in [0, u64::MAX] {
        let label = format!("tage-sc-l-8kb-age{period}");
        assert_bit_identical(&with_aging_period(period), &label);
    }
}

fn with_aging_period(u_reset_period: u64) -> TageSclConfig {
    let mut config = TageSclConfig::storage_kb(8);
    config.tage = TageConfig {
        u_reset_period,
        ..config.tage
    };
    config
}
