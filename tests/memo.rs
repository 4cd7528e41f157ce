//! The per-trace memo seen from the studies: a study reads the same
//! bytes from intermediates another study (or an earlier run of
//! itself) memoized as it computes them cold, whatever the order.
//!
//! Both tests read the process-wide [`TraceStore::global`] counters, so
//! they take one lock and never overlap; the store-level guarantees
//! (one fill per key across threads, nothing stored by a cancelled
//! fill, eviction under a budget) are unit tests of `bp_workloads`'
//! store, and `crates/experiments/tests/cli.rs` runs a study under a
//! small `BRANCH_LAB_MEM_BUDGET`.

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use bp_core::DatasetConfig;
use bp_experiments::{reports, studies};
use bp_workloads::{lcf_suite, TraceStore};

/// Serializes the tests of this file over the global store's counters.
static GLOBAL_MEMO: Mutex<()> = Mutex::new(());

/// The checked-in fixture of `name`, recorded at `--quick`.
fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn a_warm_memo_gives_the_bytes_of_a_cold_one() {
    let _serial = GLOBAL_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = DatasetConfig::quick();
    let cold = reports::fig5_report(&cfg).render();
    let before = TraceStore::global().stats();
    let warm = reports::fig5_report(&cfg).render();
    let after = TraceStore::global().stats();
    assert_eq!(cold, golden("fig5"));
    assert_eq!(warm, cold);
    assert_eq!(
        after.memo_fills, before.memo_fills,
        "the warm run recomputed an intermediate"
    );
    // Per workload: the screen, two flag streams and the replay.
    let reads = 4 * lcf_suite().len() as u64;
    assert_eq!(
        after.memo_hits - before.memo_hits,
        reads,
        "{before:?} -> {after:?}"
    );
}

#[test]
fn fig6_before_table3_gives_their_golden_bytes() {
    // `all` runs table3 first; the reverse order must read the same
    // screens and dependency analyses and print the same bytes.
    let _serial = GLOBAL_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = DatasetConfig::quick();
    let fig6 = studies::fig6_report(&cfg).render();
    let before = TraceStore::global().stats();
    let table3 = studies::table3_report(&cfg).render();
    let after = TraceStore::global().stats();
    assert_eq!(fig6, golden("fig6"));
    assert_eq!(table3, golden("table3"));
    assert_eq!(
        after.memo_fills, before.memo_fills,
        "table3 recomputed what fig6 computed"
    );
}
