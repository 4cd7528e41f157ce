//! TraceStore and parallel-engine guarantees: cached traces are
//! bit-identical to direct generation (memory and disk paths), generation
//! happens exactly once, oversized workload names fail loudly instead of
//! being truncated, and the parallel studies match the serial path
//! bit-for-bit. Each study run memoizes in a fresh [`TraceStore`], so
//! the parallel run trains, prepares and screens everything itself
//! instead of reading what the serial run stored.

use std::sync::atomic::{AtomicU32, Ordering};

use branch_lab::core::memo::TAGE_SC_L_8KB;
use branch_lab::core::{
    characterize_workload_with, rare_oracle_study_with, scaling_study_with,
    storage_scaling_study_with, DatasetConfig, Engine,
};
use branch_lab::trace::{RetiredInst, Trace, TraceMeta, TraceReader, WriteTraceError};
use branch_lab::workloads::{find_workload, lcf_suite, specint_suite, StoreReader, TraceStore};

/// A fresh private directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "branch-lab-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn memory_path_is_bit_identical_to_direct_generation() {
    let spec = &specint_suite()[2];
    let store = TraceStore::new();
    let cached = store.get(spec, 0, 25_000);
    let direct = spec.trace(0, 25_000);
    assert_eq!(cached.meta(), direct.meta());
    assert_eq!(cached.insts(), direct.insts());
}

#[test]
fn disk_path_is_bit_identical_and_counted() {
    let dir = scratch_dir("disk");
    let spec = &lcf_suite()[0];
    let direct = spec.trace(0, 20_000);

    // First store generates and persists.
    let writer = TraceStore::with_cache_dir(&dir);
    let first = writer.get(spec, 0, 20_000);
    assert_eq!(writer.stats().generated, 1);
    assert_eq!(writer.stats().disk_loads, 0);
    assert_eq!(first.insts(), direct.insts());

    // A second store over the same directory loads instead of generating.
    let reader = TraceStore::with_cache_dir(&dir);
    let reloaded = reader.get(spec, 0, 20_000);
    assert_eq!(reader.stats().generated, 0, "should load from disk");
    assert_eq!(reader.stats().disk_loads, 1);
    assert_eq!(reloaded.meta(), direct.meta());
    assert_eq!(reloaded.insts(), direct.insts());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_changed_spec_never_reads_the_old_specs_file() {
    let dir = scratch_dir("respec");
    let spec = find_workload("game").expect("game is in the suite");
    // The same workload name with one generator parameter changed: two
    // more data-dependent H2P motifs.
    let mut changed = spec.clone();
    changed.common.data_dep_h2ps.extend([55, 45]);
    let want = changed.trace(0, 20_000);
    assert_ne!(want.insts(), spec.trace(0, 20_000).insts(), "the change moves the trace");

    let _ = TraceStore::with_cache_dir(&dir).get(&spec, 0, 20_000);
    let store = TraceStore::with_cache_dir(&dir);
    let got = store.get(&changed, 0, 20_000);
    let stats = store.stats();
    assert_eq!((stats.generated, stats.disk_loads), (1, 0), "{stats:?}");
    assert_eq!(got.insts(), want.insts());

    // Both specs' files now sit side by side, and a fresh store streams
    // the changed spec's own file.
    assert_eq!(std::fs::read_dir(&dir).expect("read dir").count(), 2);
    let mut reader = TraceStore::with_cache_dir(&dir).stream(&changed, 0, 20_000);
    assert!(matches!(reader, StoreReader::Disk(_)));
    let mut streamed = Vec::new();
    while let Some(chunk) = reader.next_chunk().expect("stream") {
        streamed.extend_from_slice(chunk);
    }
    assert_eq!(streamed, want.insts());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_cache_file_falls_back_to_generation() {
    let dir = scratch_dir("corrupt");
    let spec = &lcf_suite()[2];
    let writer = TraceStore::with_cache_dir(&dir);
    let good = writer.get(spec, 0, 10_000);
    // Truncate every cached file.
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        std::fs::write(&path, b"BPTR").expect("truncate");
    }
    let reader = TraceStore::with_cache_dir(&dir);
    let regenerated = reader.get(spec, 0, 10_000);
    assert_eq!(reader.stats().generated, 1);
    assert_eq!(reader.stats().disk_loads, 0);
    assert_eq!(reader.stats().corrupt, 1, "damage must be counted");
    assert_eq!(regenerated.insts(), good.insts());
    // The damaged file was quarantined for post-mortems, not deleted.
    let quarantined = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter(|e| {
            // Quarantine names are uniquely suffixed: `<file>.corrupt-<n>`.
            e.as_ref()
                .expect("entry")
                .file_name()
                .to_str()
                .is_some_and(|n| n.contains(".corrupt"))
        })
        .count();
    assert_eq!(quarantined, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_trace_is_generated_at_most_once_per_process() {
    let store = TraceStore::new();
    let spec = &specint_suite()[4];
    std::thread::scope(|s| {
        for _ in 0..6 {
            s.spawn(|| {
                for _ in 0..3 {
                    let _ = store.get(spec, 0, 8_000);
                }
            });
        }
    });
    let stats = store.stats();
    assert_eq!(stats.generated, 1, "{stats:?}");
    // Every thread's repeat gets are guaranteed memory hits; first gets may
    // either hit or wait on the in-flight generation.
    assert!(stats.hits >= 12, "{stats:?}");
}

#[test]
fn oversized_workload_names_are_rejected_not_truncated() {
    let long_name = "x".repeat(usize::from(u16::MAX) + 1);
    let mut trace = Trace::new(TraceMeta::new(long_name, 0));
    trace.push(RetiredInst::cond_branch(0x400, true, 0, None, None));
    let err = trace.write_to(Vec::new()).expect_err("must reject long name");
    match err {
        WriteTraceError::NameTooLong(n) => assert_eq!(n, usize::from(u16::MAX) + 1),
        WriteTraceError::Io(e) => panic!("expected NameTooLong, got Io: {e}"),
    }
}

#[test]
fn max_length_workload_names_round_trip() {
    let name = "y".repeat(usize::from(u16::MAX));
    let mut trace = Trace::new(TraceMeta::new(name.clone(), 7));
    trace.push(RetiredInst::cond_branch(0x400, false, 0, None, None));
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("max-length name fits");
    let back = Trace::read_from(bytes.as_slice()).expect("deserialize");
    assert_eq!(back.meta().name, name);
    assert_eq!(back.meta().input, 7);
    assert_eq!(back.insts(), trace.insts());
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn parallel_scaling_study_matches_serial_exactly() {
    let specs = vec![specint_suite()[1].clone(), specint_suite()[6].clone()];
    let cfg = DatasetConfig::quick();
    let serial = scaling_study_with(Engine::with_threads(1), &TraceStore::new(), &specs, &cfg);
    let parallel = scaling_study_with(Engine::with_threads(4), &TraceStore::new(), &specs, &cfg);
    assert_eq!(serial.scales, parallel.scales);
    for (s, p) in serial.series.iter().zip(&parallel.series) {
        assert_eq!(s.label, p.label);
        assert_eq!(bits(&s.relative_ipc), bits(&p.relative_ipc), "{}", s.label);
    }
}

#[test]
fn parallel_storage_and_rare_studies_match_serial_exactly() {
    let specs = vec![lcf_suite()[1].clone(), lcf_suite()[5].clone()];
    let cfg = DatasetConfig::quick();

    let serial =
        storage_scaling_study_with(Engine::with_threads(1), &TraceStore::new(), &specs, &cfg);
    let parallel =
        storage_scaling_study_with(Engine::with_threads(4), &TraceStore::new(), &specs, &cfg);
    assert_eq!(serial.storages_kb, parallel.storages_kb);
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(s.name, p.name);
        for (sg, pg) in s.gap_closed.iter().zip(&p.gap_closed) {
            assert_eq!(bits(sg), bits(pg), "{}", s.name);
        }
    }

    let serial = rare_oracle_study_with(Engine::with_threads(1), &TraceStore::new(), &specs, &cfg);
    let parallel =
        rare_oracle_study_with(Engine::with_threads(4), &TraceStore::new(), &specs, &cfg);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(s.remaining_after_1000.to_bits(), p.remaining_after_1000.to_bits());
        assert_eq!(s.remaining_after_100.to_bits(), p.remaining_after_100.to_bits());
    }
}

#[test]
fn parallel_characterization_matches_serial_exactly() {
    let spec = &specint_suite()[1];
    let cfg = DatasetConfig {
        max_inputs: Some(3),
        ..DatasetConfig::quick()
    };
    let characterize = |threads| {
        let engine = Engine::with_threads(threads);
        characterize_workload_with(engine, &TraceStore::new(), spec, &cfg, TAGE_SC_L_8KB)
    };
    let serial = characterize(1);
    let parallel = characterize(3);
    assert_eq!(serial.inputs.len(), parallel.inputs.len());
    assert_eq!(serial.avg_accuracy.to_bits(), parallel.avg_accuracy.to_bits());
    assert_eq!(
        serial.avg_h2p_mispredict_share.to_bits(),
        parallel.avg_h2p_mispredict_share.to_bits()
    );
    assert_eq!(serial.h2p_union, parallel.h2p_union);
    assert_eq!(serial.h2p_3plus_inputs, parallel.h2p_3plus_inputs);
}
