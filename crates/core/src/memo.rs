//! The studies' shared per-trace intermediates, memoized in a
//! [`TraceStore`] ([`TraceStore::derive`]).
//!
//! The paper's figures reuse a small set of computations over the same
//! input-0 traces: flag streams of the same predictor configurations
//! (Figs. 1, 5, 7, 8, the grid, the survey and serve sweeps), one
//! prepared replay per trace, one TAGE-SC-L 8KB slice screen per trace
//! and slice length (Tables I–III, Figs. 1–6, 10), and one dependency
//! analysis per top H2P (Table III, Fig. 6). Each function here computes
//! its intermediate once per store — whichever study or request asks
//! first — and hands every later caller the same value. Keys spell
//! everything a computation reads, so a study sees exactly the bytes it
//! would compute itself; memo entries count against the store's memory
//! budget and are evicted with its traces. The studies and the CLI use
//! [`TraceStore::global`]; a test can give a study a fresh
//! [`TraceStore::new`] to compute everything itself.
//!
//! Only [`PredictorSpec`] predictors are memoized: a spec is plain data,
//! so it can be part of a key. Oracle lanes and instrumented predictors
//! keep computing directly.

use std::collections::HashSet;
use std::sync::Arc;

use bp_analysis::{DepBranchReport, DependencyAnalysis};
use bp_pipeline::{PipelineConfig, SweepReplay};
use bp_predictors::{sweep_flags, PredictorSpec};
use bp_trace::SliceConfig;
use bp_workloads::{DerivedKey, TraceStore, WorkloadSpec};

use crate::characterize::{characterize_input, InputCharacterization};

/// Resident bytes of a [`BranchProfile`](bp_analysis::BranchProfile)
/// entry, an estimate of one hash map slot (key, statistics, control byte
/// and load-factor slack).
const PROFILE_ENTRY_BYTES: u64 = 40;
/// Resident bytes of one entry of a `HashSet<u64>`, estimated likewise.
const SET_ENTRY_BYTES: u64 = 16;
/// Resident bytes of one [`DepBranchReport`] occurrence, estimated
/// likewise.
const OCCURRENCE_BYTES: u64 = 32;

/// The TAGE-SC-L 8KB reference predictor as a spec: the one every
/// screen and profile of the paper runs.
pub const TAGE_SC_L_8KB: PredictorSpec = PredictorSpec::TageScl { storage_kb: 8 };

/// Estimated resident bytes of `set`.
fn set_bytes(set: &HashSet<u64>) -> u64 {
    set.len() as u64 * SET_ENTRY_BYTES
}

/// The misprediction flags of each of `predictors` over input 0 of
/// `spec` at `len` instructions, in order.
///
/// The predictors the memo lacks train together in one lockstep
/// [`sweep_flags`] pass over the streamed trace; the others are not
/// trained again.
///
/// # Panics
///
/// Panics if the trace cannot be read back from the store's disk cache.
#[must_use]
pub fn flags(
    store: &TraceStore,
    spec: &WorkloadSpec,
    len: usize,
    predictors: &[PredictorSpec],
) -> Vec<Arc<Vec<bool>>> {
    let keys: Vec<DerivedKey> = predictors
        .iter()
        .map(|p| DerivedKey::new(spec, 0, len, format!("flags {p:?}")))
        .collect();
    store.derive_many(&keys, |missing| {
        let lacking: Vec<PredictorSpec> = missing.iter().map(|&i| predictors[i]).collect();
        let mut built = PredictorSpec::build_all(&lacking);
        sweep_flags(&mut built, store.stream(spec, 0, len), None)
            .expect("stream trace for predictor flags")
            .into_iter()
            .map(|f| {
                let bytes = f.capacity() as u64;
                (f, bytes)
            })
            .collect()
    })
}

/// Input 0 of `spec` at `len` instructions prepared for replay under
/// `config`'s cache hierarchy and multiply latency — the two settings a
/// preparation reads, so one serves every [`PipelineConfig::scaled`]
/// scaling of `config`.
///
/// # Panics
///
/// Panics if the trace cannot be read back from the store's disk cache.
#[must_use]
pub fn replay(
    store: &TraceStore,
    spec: &WorkloadSpec,
    len: usize,
    config: &PipelineConfig,
) -> Arc<SweepReplay> {
    let what = format!("replay cache={:?} mul={}", config.cache, config.mul_latency);
    store.derive(DerivedKey::new(spec, 0, len, what), || {
        let sweep = SweepReplay::prepare(store.stream(spec, 0, len), config)
            .expect("stream trace for replay prepare");
        let bytes = sweep.resident_bytes();
        (sweep, bytes)
    })
}

/// The paper's §III characterization of the trace of `spec` at
/// (`input`, `len`) ([`characterize_input`]): `predictor` trained
/// continuously over every `slice`, each slice's profile screened for
/// H2Ps, and the slices clustered into phases.
///
/// This one slice pass is every screen the studies read: its merged
/// `profile` and `h2p_union` are the H2P screen of Figs. 1, 5, 6, 10 and
/// Table III, and at `SliceConfig::new(len)` (one whole-trace slice) the
/// profile and H2P set of Table II and Figs. 3 and 4.
#[must_use]
pub fn characterization(
    store: &TraceStore,
    spec: &WorkloadSpec,
    input: u32,
    len: usize,
    slice: SliceConfig,
    predictor: PredictorSpec,
) -> Arc<InputCharacterization> {
    let what = format!("characterize {predictor:?} slice={}", slice.len());
    store.derive(DerivedKey::new(spec, input, len, what), || {
        let trace = store.get(spec, input, len);
        let c = characterize_input(&trace, input, slice, &mut *predictor.build());
        let bytes = c.profile.static_branch_count() as u64 * PROFILE_ENTRY_BYTES
            + set_bytes(&c.h2p_union)
            + c.h2ps_per_slice.iter().map(set_bytes).sum::<u64>();
        (c, bytes)
    })
}

/// The dependency branches of every execution of the branch at `ip` in
/// input 0 of `spec` at `len` instructions
/// ([`DependencyAnalysis::analyze`] over a `window`-instruction lookback,
/// at most `max_nodes` closure nodes per execution).
#[must_use]
pub fn dependencies(
    store: &TraceStore,
    spec: &WorkloadSpec,
    len: usize,
    ip: u64,
    window: usize,
    max_nodes: usize,
) -> Arc<DepBranchReport> {
    let what = format!("dependencies ip={ip:#x} window={window} nodes={max_nodes}");
    store.derive(DerivedKey::new(spec, 0, len, what), || {
        let trace = store.get(spec, 0, len);
        let report = DependencyAnalysis::new(&trace).analyze(&trace, ip, window, max_nodes);
        let bytes = report.occurrences.len() as u64 * OCCURRENCE_BYTES;
        (report, bytes)
    })
}
