//! The two benchmark suites used throughout the paper.
//!
//! [`specint_suite`] mirrors the nine SPECint 2017 benchmarks of Table I
//! (excluding `603.gcc_s`, which the paper moves to the LCF dataset);
//! [`lcf_suite`] mirrors the six large-code-footprint applications of
//! Table II. Parameters are tuned so that the *qualitative* per-workload
//! profile holds: relative accuracy ordering, H2P density, static branch
//! footprint, and rare-branch skew. Absolute values are scaled to
//! laptop-size traces (see `DESIGN.md`).

use std::sync::OnceLock;

use crate::motifs::{RareTier, VarGapSpec};
use crate::spec::{Family, MotifSet, WorkloadSpec};

/// Convenience constructor for a variable-gap H2P spec.
fn vg(dep_bias_pct: u8, gap_max: u8, noise_bias_pct: u8) -> VarGapSpec {
    VarGapSpec {
        dep_bias_pct,
        gap_max,
        noise_bias_pct,
    }
}

/// Convenience constructor for a rare tier.
fn tier(pockets: u32, branches_per_pocket: u32, bias_min_pct: u8, bias_max_pct: u8) -> RareTier {
    RareTier {
        pockets,
        branches_per_pocket,
        bias_min_pct,
        bias_max_pct,
        polarized: false,
    }
}

/// A polarized tier: per-branch biases cluster at the range ends.
fn tier_pol(pockets: u32, branches_per_pocket: u32, bias_min_pct: u8, bias_max_pct: u8) -> RareTier {
    RareTier {
        polarized: true,
        ..tier(pockets, branches_per_pocket, bias_min_pct, bias_max_pct)
    }
}

/// Default trace length for SPECint-like workloads.
pub const SPECINT_TRACE_LEN: usize = 2_000_000;

/// Default trace length for LCF-like workloads.
pub const LCF_TRACE_LEN: usize = 2_000_000;

/// Memory-behaviour profile of a workload: data footprint (log2 words) and
/// serial pointer-chase depth per iteration. Memory-bound benchmarks
/// (mcf-like) get large footprints and deep chases, so branch misprediction
/// stalls partially hide under memory stalls — as on real hardware.
#[derive(Clone, Copy)]
struct MemProfile {
    words_log2: u32,
    chase_hops: u32,
}

/// Cache-resident working set, light chase.
const MEM_LIGHT: MemProfile = MemProfile { words_log2: 14, chase_hops: 2 };
/// L2-resident working set.
const MEM_MID: MemProfile = MemProfile { words_log2: 16, chase_hops: 3 };
/// DRAM-visiting working set, deep pointer chasing.
const MEM_HEAVY: MemProfile = MemProfile { words_log2: 18, chase_hops: 4 };

fn spec(
    name: &str,
    inputs: u32,
    phases: u32,
    mem: MemProfile,
    common: MotifSet,
    per_phase: MotifSet,
) -> WorkloadSpec {
    let common = MotifSet {
        pointer_chase_hops: mem.chase_hops,
        ..common
    };
    WorkloadSpec {
        name: name.to_owned(),
        family: Family::SpecInt,
        inputs,
        mem_words_log2: mem.words_log2,
        phases,
        phase_shift: 9,
        common,
        per_phase,
        default_trace_len: SPECINT_TRACE_LEN,
    }
}

fn lcf(name: &str, phases: u32, mem: MemProfile, common: MotifSet, per_phase: MotifSet) -> WorkloadSpec {
    let common = MotifSet {
        pointer_chase_hops: mem.chase_hops,
        ..common
    };
    WorkloadSpec {
        name: name.to_owned(),
        family: Family::Lcf,
        inputs: 1,
        mem_words_log2: mem.words_log2,
        phases,
        phase_shift: 8,
        common,
        per_phase,
        default_trace_len: LCF_TRACE_LEN,
    }
}

/// The nine SPECint-2017-like benchmarks of Table I.
///
/// # Examples
///
/// ```
/// let suite = bp_workloads::specint_suite();
/// assert_eq!(suite.len(), 9);
/// assert!(suite.iter().any(|s| s.name.contains("leela")));
/// ```
#[must_use]
pub fn specint_suite() -> Vec<WorkloadSpec> {
    vec![
        // Highly predictable overall; a single weak H2P; large-ish static
        // footprint from a well-biased rare tier.
        spec(
            "600.perlbench_s",
            4,
            6,
            MEM_LIGHT,
            MotifSet {
                constant_chain: 6,
                correlated_pairs: 2,
                fixed_loops: vec![8],
                nested_imli: vec![(3, 6)],
                data_dep_h2ps: vec![92],
                rare_tiers: vec![tier(600, 2, 70, 96)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 4,
                fixed_loops: vec![12, 6],
                nested_imli: vec![(4, 6)],
                var_gap_h2ps: vec![vg(80, 4, 88)],
                ..MotifSet::default()
            },
        ),
        // H2P-dominated: almost all mispredictions come from a handful of
        // systematic H2Ps; tiny static footprint.
        spec(
            "605.mcf_s",
            8,
            11,
            MEM_HEAVY,
            MotifSet {
                constant_chain: 4,
                correlated_pairs: 1,
                nested_imli: vec![(2, 6)],
                data_dep_h2ps: vec![62],
                var_gap_h2ps: vec![vg(60, 8, 75)],
                rare_tiers: vec![tier(80, 1, 88, 97)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                fixed_loops: vec![6],
                var_gap_h2ps: vec![vg(66, 6, 80)],
                data_dep_h2ps: vec![55],
                ..MotifSet::default()
            },
        ),
        spec(
            "620.omnetpp_s",
            5,
            12,
            MEM_MID,
            MotifSet {
                constant_chain: 6,
                correlated_pairs: 2,
                fixed_loops: vec![10],
                data_dep_h2ps: vec![85],
                rare_tiers: vec![tier(400, 2, 72, 95)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 3,
                fixed_loops: vec![8],
                nested_imli: vec![(3, 5)],
                var_gap_h2ps: vec![vg(70, 6, 82)],
                data_dep_h2ps: vec![78],
                ..MotifSet::default()
            },
        ),
        // Most predictable benchmark of the suite (0.997 in the paper):
        // big predictable nests and only high-bias H2Ps.
        spec(
            "623.xalancbmk_s",
            4,
            7,
            MEM_LIGHT,
            MotifSet {
                constant_chain: 8,
                correlated_pairs: 2,
                nested_imli: vec![(6, 10)],
                data_dep_h2ps: vec![97],
                rare_tiers: vec![tier(500, 2, 82, 98)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 6,
                fixed_loops: vec![16],
                nested_imli: vec![(4, 8)],
                var_gap_h2ps: vec![vg(92, 4, 94)],
                ..MotifSet::default()
            },
        ),
        // One strong H2P per slice that nevertheless owns over half the
        // mispredictions; mid accuracy from loop-exit noise.
        spec(
            "625.x264_s",
            14,
            14,
            MEM_LIGHT,
            MotifSet {
                constant_chain: 5,
                correlated_pairs: 1,
                fixed_loops: vec![5, 9],
                rare_tiers: vec![tier(300, 2, 70, 94)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 3,
                fixed_loops: vec![7],
                data_dep_h2ps: vec![53],
                ..MotifSet::default()
            },
        ),
        spec(
            "631.deepsjeng_s",
            12,
            9,
            MEM_LIGHT,
            MotifSet {
                constant_chain: 5,
                correlated_pairs: 2,
                fixed_loops: vec![8],
                nested_imli: vec![(2, 5)],
                data_dep_h2ps: vec![80],
                rare_tiers: vec![tier(350, 2, 65, 92)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 3,
                fixed_loops: vec![10],
                var_gap_h2ps: vec![vg(72, 5, 80)],
                data_dep_h2ps: vec![75, 68],
                ..MotifSet::default()
            },
        ),
        // The H2P-richest benchmark (0.880 in the paper, 34 H2Ps/slice).
        spec(
            "641.leela_s",
            10,
            9,
            MEM_LIGHT,
            MotifSet {
                constant_chain: 3,
                correlated_pairs: 1,
                nested_imli: vec![(2, 5)],
                data_dep_h2ps: vec![60, 70],
                var_gap_h2ps: vec![vg(62, 7, 78)],
                rare_tiers: vec![tier(150, 1, 60, 90)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                fixed_loops: vec![5],
                var_gap_h2ps: vec![vg(65, 6, 75), vg(58, 5, 82)],
                data_dep_h2ps: vec![64, 72],
                ..MotifSet::default()
            },
        ),
        spec(
            "648.exchange2_s",
            5,
            8,
            MEM_LIGHT,
            MotifSet {
                constant_chain: 6,
                correlated_pairs: 2,
                fixed_loops: vec![12],
                nested_imli: vec![(5, 5)],
                data_dep_h2ps: vec![90],
                rare_tiers: vec![tier(450, 2, 75, 96)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 4,
                fixed_loops: vec![9],
                var_gap_h2ps: vec![vg(84, 5, 90)],
                ..MotifSet::default()
            },
        ),
        spec(
            "657.xz_s",
            5,
            8,
            MEM_MID,
            MotifSet {
                constant_chain: 4,
                correlated_pairs: 1,
                fixed_loops: vec![6],
                data_dep_h2ps: vec![66],
                var_gap_h2ps: vec![vg(64, 7, 76)],
                rare_tiers: vec![tier(120, 1, 80, 95)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                fixed_loops: vec![7],
                var_gap_h2ps: vec![vg(68, 6, 78)],
                data_dep_h2ps: vec![62],
                ..MotifSet::default()
            },
        ),
    ]
}

/// The six large-code-footprint applications of Table II.
///
/// # Examples
///
/// ```
/// let suite = bp_workloads::lcf_suite();
/// assert_eq!(suite.len(), 6);
/// assert!(suite.iter().all(|s| s.family == bp_workloads::Family::Lcf));
/// ```
#[must_use]
pub fn lcf_suite() -> Vec<WorkloadSpec> {
    vec![
        // gcc: largest SPEC footprint; decent accuracy, some H2Ps.
        lcf(
            "602.gcc_s",
            6,
            MEM_MID,
            MotifSet {
                constant_chain: 5,
                correlated_pairs: 1,
                fixed_loops: vec![6],
                data_dep_h2ps: vec![74],
                var_gap_h2ps: vec![vg(70, 5, 80)],
                rare_tiers: vec![tier(16, 2, 60, 92), tier_pol(250, 12, 6, 95), tier(3000, 2, 60, 93), tier(1500, 2, 99, 100)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                rare_tiers: vec![tier_pol(80, 4, 8, 94)],
                ..MotifSet::default()
            },
        ),
        // Game: the extreme rare-branch case — huge static footprint,
        // very few executions per branch, lowest accuracy.
        lcf(
            "game",
            8,
            MEM_HEAVY,
            MotifSet {
                constant_chain: 2,
                data_dep_h2ps: vec![55],
                rare_tiers: vec![tier(32, 2, 35, 75), tier_pol(300, 10, 12, 88), tier(4000, 3, 25, 80), tier(3500, 2, 99, 100)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 1,
                rare_tiers: vec![tier_pol(150, 4, 14, 86)],
                ..MotifSet::default()
            },
        ),
        // RDBMS: large footprint, good accuracy, several H2Ps.
        lcf(
            "rdbms",
            6,
            MEM_MID,
            MotifSet {
                constant_chain: 5,
                correlated_pairs: 1,
                fixed_loops: vec![8],
                data_dep_h2ps: vec![80],
                var_gap_h2ps: vec![vg(75, 5, 85)],
                rare_tiers: vec![tier(24, 2, 70, 96), tier_pol(280, 10, 5, 97), tier(2500, 2, 68, 96), tier(1500, 2, 99, 100)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                rare_tiers: vec![tier_pol(100, 4, 6, 96)],
                ..MotifSet::default()
            },
        ),
        // NoSQL database: best LCF accuracy, few H2Ps.
        lcf(
            "nosql",
            5,
            MEM_MID,
            MotifSet {
                constant_chain: 6,
                correlated_pairs: 2,
                fixed_loops: vec![10],
                data_dep_h2ps: vec![84],
                rare_tiers: vec![tier(16, 2, 75, 97), tier_pol(200, 8, 4, 98), tier(1200, 2, 72, 97), tier(800, 2, 99, 100)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                rare_tiers: vec![tier_pol(60, 3, 5, 97)],
                ..MotifSet::default()
            },
        ),
        // Real-time analytics: mid accuracy, a handful of H2Ps.
        lcf(
            "rt-analytics",
            6,
            MEM_MID,
            MotifSet {
                constant_chain: 4,
                fixed_loops: vec![6],
                data_dep_h2ps: vec![68],
                var_gap_h2ps: vec![vg(66, 6, 78)],
                rare_tiers: vec![tier(16, 2, 50, 88), tier_pol(220, 9, 8, 92), tier(1000, 2, 50, 90), tier(700, 2, 99, 100)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 2,
                rare_tiers: vec![tier_pol(70, 3, 10, 90)],
                ..MotifSet::default()
            },
        ),
        // Streaming server: smallest LCF footprint, hot branches with
        // mediocre biases (0.78 accuracy in the paper).
        lcf(
            "streaming",
            4,
            MEM_MID,
            MotifSet {
                constant_chain: 3,
                fixed_loops: vec![5],
                data_dep_h2ps: vec![60, 66],
                var_gap_h2ps: vec![vg(62, 6, 72)],
                rare_tiers: vec![tier(12, 3, 45, 82), tier_pol(120, 6, 12, 86), tier(300, 2, 45, 84), tier(250, 2, 99, 100)],
                ..MotifSet::default()
            },
            MotifSet {
                constant_chain: 1,
                rare_tiers: vec![tier_pol(30, 2, 14, 84)],
                ..MotifSet::default()
            },
        ),
    ]
}

/// Both suites in suite order (SPECint, then LCF), built once per
/// process: serve resolves a workload on every `POST /sweep`, and
/// building both suites costs more than the rest of a sweep hit.
fn all_workloads() -> &'static [WorkloadSpec] {
    static ALL: OnceLock<Vec<WorkloadSpec>> = OnceLock::new();
    ALL.get_or_init(|| specint_suite().into_iter().chain(lcf_suite()).collect())
}

/// Looks a workload up by name across both suites (SPECint first, then
/// LCF) — the CLI's `--workload` resolver.
///
/// # Examples
///
/// ```
/// assert!(bp_workloads::find_workload("641.leela_s").is_some());
/// assert!(bp_workloads::find_workload("game").is_some());
/// assert!(bp_workloads::find_workload("nope").is_none());
/// ```
#[must_use]
pub fn find_workload(name: &str) -> Option<WorkloadSpec> {
    all_workloads().iter().find(|s| s.name == name).cloned()
}

/// Names of every workload, in suite order — what the CLI prints when a
/// `--workload` lookup fails.
#[must_use]
pub fn workload_names() -> Vec<String> {
    all_workloads().iter().map(|s| s.name.clone()).collect()
}

/// A content digest of every workload definition in both suites (FNV-1a
/// 64 over each spec's full parameter set, in suite order).
///
/// Traces are pure functions of `(workload spec, input, len)`, so this
/// digest stands in for the digest of every trace the suites can
/// produce: any change to a workload's generator parameters — motif
/// mix, phase structure, input count, memory size — changes the digest,
/// and therefore invalidates every cached study result derived from the
/// old traces (`branch-lab serve` folds it into its content-addressed
/// cache keys).
///
/// # Examples
///
/// ```
/// // Stable within a build.
/// assert_eq!(bp_workloads::suite_digest(), bp_workloads::suite_digest());
/// ```
#[must_use]
pub fn suite_digest() -> u64 {
    static DIGEST: OnceLock<u64> = OnceLock::new();
    *DIGEST.get_or_init(|| {
        all_workloads().iter().fold(bp_metrics::FNV_OFFSET, |hash, spec| {
            // The derived Debug form covers every field of the spec
            // (including nested motif sets), so no parameter can change
            // without changing the digest.
            bp_metrics::fnv1a(bp_metrics::fnv1a(hash, format!("{spec:?}").as_bytes()), &[0xff])
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_expected_membership() {
        let si = specint_suite();
        assert_eq!(si.len(), 9);
        assert!(si.iter().all(|s| s.family == Family::SpecInt));
        assert!(si.iter().all(|s| s.inputs >= 4));
        let lcf = lcf_suite();
        assert_eq!(lcf.len(), 6);
        assert!(lcf.iter().all(|s| s.family == Family::Lcf));
    }

    #[test]
    fn all_programs_lower_and_run() {
        for s in specint_suite().iter().chain(lcf_suite().iter()) {
            let p = s.program();
            assert!(p.static_cond_branch_count() > 10, "{}", s.name);
            let t = s.trace_with(&p, 0, 3_000);
            assert_eq!(t.len(), 3_000, "{}", s.name);
            assert!(t.conditional_branch_count() > 100, "{}", s.name);
        }
    }

    #[test]
    fn lcf_has_bigger_static_footprint_than_specint_median() {
        let si_max = specint_suite()
            .iter()
            .map(|s| s.program().static_cond_branch_count())
            .max()
            .unwrap();
        let game = lcf_suite()
            .iter()
            .find(|s| s.name == "game")
            .unwrap()
            .program()
            .static_cond_branch_count();
        assert!(
            game > si_max,
            "game ({game}) should exceed the SPECint max ({si_max})"
        );
    }

    #[test]
    fn workload_names_are_unique() {
        let mut names: Vec<String> = specint_suite()
            .iter()
            .chain(lcf_suite().iter())
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
