//! Fault-tolerance guarantees: torn, corrupt or retired-format
//! trace-cache files are detected, quarantined, and regenerated (never
//! trusted); `durable::write_atomic`, which persists trace and serve
//! cache files, is atomic under concurrency; a panicking `Engine::map` task fails the
//! map with its own message only after its siblings ran, and the
//! executor's retry absorbs a one-shot panic; and the `faultpoint`
//! facility drives every degradation path deterministically.
//!
//! Fault plans are process-global, so every test here serializes behind
//! one gate — the suite is cheap, the determinism is worth it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use branch_lab::core::cancel::CancelToken;
use branch_lab::core::exec::{self, ExecOptions, Outcome, Task};
use branch_lab::core::{faultpoint, Engine};
use branch_lab::metrics::durable;
use branch_lab::trace::{ReadTraceError, RetiredInst, Trace, TraceMeta};
use branch_lab::workloads::{lcf_suite, specint_suite, TraceStore};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh private directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "branch-lab-fault-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The single `.bptr` file in `dir`.
fn cache_file(dir: &std::path::Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "bptr"))
        .expect("one .bptr cache file")
}

fn quarantined_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            // Quarantine names are uniquely suffixed: `<file>.corrupt-<n>`.
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".corrupt"))
        })
        .collect()
}

#[test]
fn truncated_cache_file_is_quarantined_and_regenerated() {
    let _g = gate();
    let dir = scratch_dir("truncate");
    let spec = &lcf_suite()[0];
    let good = TraceStore::with_cache_dir(&dir).get(spec, 0, 12_000);

    // Tear the file the way a crash mid-write (without atomic rename)
    // would: keep a valid prefix, drop the rest.
    let path = cache_file(&dir);
    let bytes = std::fs::read(&path).expect("read cache file");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

    let store = TraceStore::with_cache_dir(&dir);
    let regenerated = store.get(spec, 0, 12_000);
    let stats = store.stats();
    assert_eq!(stats.corrupt, 1, "{stats:?}");
    assert_eq!(stats.disk_loads, 0, "{stats:?}");
    assert_eq!(stats.generated, 1, "{stats:?}");
    assert_eq!(regenerated.insts(), good.insts());
    assert_eq!(quarantined_files(&dir).len(), 1, "torn file kept for post-mortem");

    // Regeneration re-persisted a good copy: a third store disk-loads it.
    let reloader = TraceStore::with_cache_dir(&dir);
    let reloaded = reloader.get(spec, 0, 12_000);
    assert_eq!(reloader.stats().disk_loads, 1);
    assert_eq!(reloaded.insts(), good.insts());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_cache_file_is_caught_by_the_checksum() {
    let _g = gate();
    let dir = scratch_dir("bitflip");
    let spec = &lcf_suite()[1];
    let good = TraceStore::with_cache_dir(&dir).get(spec, 0, 12_000);

    // Flip one bit deep inside a block's payload. The flipped bytes may
    // well decode to valid records, so the block checksum must notice.
    let path = cache_file(&dir);
    let mut bytes = std::fs::read(&path).expect("read cache file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).expect("rewrite");

    let store = TraceStore::with_cache_dir(&dir);
    let regenerated = store.get(spec, 0, 12_000);
    let stats = store.stats();
    assert_eq!(stats.corrupt, 1, "{stats:?}");
    assert_eq!(stats.generated, 1, "{stats:?}");
    assert_eq!(regenerated.insts(), good.insts());
    assert_eq!(quarantined_files(&dir).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_format_version_is_quarantined_and_regenerated() {
    let _g = gate();
    // Patch the version field to 2 or 3, as a cache written by an older
    // build would read. The store reads v4 only, so each file takes the
    // same path as any other it cannot read.
    for version in [2u16, 3] {
        let dir = scratch_dir("oldversion");
        let spec = &lcf_suite()[2];
        let good = TraceStore::with_cache_dir(&dir).get(spec, 0, 12_000);

        let path = cache_file(&dir);
        let mut bytes = std::fs::read(&path).expect("read cache file");
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");

        let store = TraceStore::with_cache_dir(&dir);
        let regenerated = store.get(spec, 0, 12_000);
        let stats = store.stats();
        assert_eq!(stats.corrupt, 1, "v{version}: {stats:?}");
        assert_eq!(stats.disk_loads, 0, "v{version}: {stats:?}");
        assert_eq!(stats.generated, 1, "v{version}: {stats:?}");
        assert_eq!(regenerated.insts(), good.insts());
        assert_eq!(regenerated.insts(), spec.trace(0, 12_000).insts());
        assert_eq!(quarantined_files(&dir).len(), 1, "v{version}: old file kept");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_files_are_never_loadable_at_any_truncation_point() {
    let _g = gate();
    let mut t = Trace::new(TraceMeta::new("torn", 0));
    for i in 0..50u64 {
        t.push(RetiredInst::cond_branch(0x400 + i * 4, i % 2 == 0, 0x800, Some(1), None));
    }
    let mut bytes = Vec::new();
    t.write_to(&mut bytes).expect("serialize");
    // Every proper prefix must fail to decode — including a "clean" cut at
    // the block boundary (the whole end marker dropped) and a cut that
    // drops only the end marker's checksum.
    for cut in [bytes.len() - 8, bytes.len() - 16, bytes.len() / 2, 10, 3] {
        let err = Trace::read_from(&bytes[..cut]).expect_err("prefix must not load");
        assert!(
            matches!(err, ReadTraceError::Io(_) | ReadTraceError::ChecksumMismatch { .. }),
            "cut at {cut}: unexpected {err:?}"
        );
    }
}

#[test]
fn concurrent_savers_and_loaders_never_observe_a_torn_file() {
    let _g = gate();
    let dir = scratch_dir("race");
    let path = dir.join("shared.bptr");

    // Two distinguishable traces under the same path: a reader must see
    // one of them in full, never a splice or a prefix.
    let make = |len: u64| {
        let mut t = Trace::new(TraceMeta::new("race", 0));
        for i in 0..len {
            t.push(RetiredInst::cond_branch(0x400 + i * 4, i % 3 == 0, 0x800, Some(1), None));
        }
        t
    };
    let a = make(400);
    let b = make(900);
    let save = |t: &Trace| durable::write_atomic(&path, |w| t.write_to(w)).expect("save");
    save(&a);

    std::thread::scope(|scope| {
        for t in [&a, &b] {
            scope.spawn(move || {
                for _ in 0..60 {
                    save(t);
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..200 {
                    let loaded = Trace::load(&path).expect("load must always succeed");
                    assert!(
                        loaded.len() == a.len() || loaded.len() == b.len(),
                        "unexpected length {}",
                        loaded.len()
                    );
                    let full = if loaded.len() == a.len() { &a } else { &b };
                    assert_eq!(loaded.insts(), full.insts(), "spliced content");
                }
            });
        }
    });
    // The savers' temp files were all renamed or cleaned up.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n != "shared.bptr")
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_engine_task_panic_is_isolated_and_reported() {
    let _g = gate();
    // Fire on the 4th arrival at engine.task. With 1 thread, arrival
    // order is input order, so item index 3 fails.
    faultpoint::install_for_tests(Some("engine.task:panic@4"), 0);
    let items: Vec<u32> = (0..8).collect();
    let ran = AtomicU32::new(0);
    let out = catch_unwind(AssertUnwindSafe(|| {
        Engine::with_threads(1).map(&items, |_, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            x + 100
        })
    }));
    faultpoint::install_for_tests(None, 0);
    let payload = out.expect_err("the injected panic fails the map");
    let message = payload.downcast_ref::<String>().expect("the fault's own message");
    assert!(message.contains("injected fault"), "{message}");
    assert_eq!(ran.load(Ordering::Relaxed), 7, "the 7 siblings all ran");
}

#[test]
fn injected_transient_panic_is_absorbed_by_retry() {
    let _g = gate();
    // One attempt of the task panics inside its engine map; the
    // executor's retry runs the whole task again, as `all` does.
    faultpoint::install_for_tests(Some("engine.task:panic@2"), 0);
    let items: Vec<u32> = (0..4).collect();
    let mut out = Vec::new();
    let tasks = vec![Task::new("study", |_: &CancelToken| {
        out = Engine::with_threads(1).map(&items, |_, &x| x);
        Ok(())
    })];
    let opts = ExecOptions { retries: 1, ..ExecOptions::default() };
    let reports = exec::run(tasks, &opts);
    faultpoint::install_for_tests(None, 0);
    assert_eq!(reports[0].outcome, Outcome::Ok, "one retry absorbs a one-shot fault");
    assert_eq!(reports[0].attempts, 2);
    assert_eq!(out, items);
}

#[test]
fn injected_save_failure_degrades_to_memory_only_operation() {
    let _g = gate();
    let dir = scratch_dir("savefail");
    let spec = &specint_suite()[0];
    faultpoint::install_for_tests(Some("trace_store.save:fail"), 0);
    let store = TraceStore::with_cache_dir(&dir);
    let t = store.get(spec, 0, 8_000);
    faultpoint::install_for_tests(None, 0);
    assert_eq!(t.len(), 8_000);
    assert_eq!(store.stats().generated, 1);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert!(files.is_empty(), "persistence was suppressed: {files:?}");

    // Same key again, post-fault: memory cache still serves it.
    let again = store.get(spec, 0, 8_000);
    assert_eq!(store.stats().hits, 1);
    assert_eq!(again.insts(), t.insts());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_load_failure_quarantines_and_regenerates() {
    let _g = gate();
    let dir = scratch_dir("loadfail");
    let spec = &specint_suite()[1];
    let good = TraceStore::with_cache_dir(&dir).get(spec, 0, 8_000);

    // The file on disk is fine; the injected fault simulates an
    // unreadable/corrupt cache entry at load time.
    faultpoint::install_for_tests(Some("trace_store.load:fail@1"), 0);
    let store = TraceStore::with_cache_dir(&dir);
    let t = store.get(spec, 0, 8_000);
    faultpoint::install_for_tests(None, 0);
    assert_eq!(store.stats().corrupt, 1);
    assert_eq!(store.stats().generated, 1);
    assert_eq!(t.insts(), good.insts());
    assert_eq!(quarantined_files(&dir).len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
