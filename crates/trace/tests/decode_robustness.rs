//! Decode robustness against a checked-in corpus of damaged `BPTR` files.
//!
//! Every file under `tests/corpus/` is a deliberately broken trace —
//! truncated, bit-flipped, or carrying hostile header/frame values.
//! Decoding any of them must yield a structured [`ReadTraceError`]: never
//! a panic, never a success, and never an allocation anywhere near what a
//! hostile length field claims.
//!
//! The v3 and header-level files are generated deterministically by this
//! file. To regenerate them after a deliberate format change:
//!
//! ```text
//! BRANCH_LAB_UPDATE_GOLDEN=1 cargo test -p bp-trace --test decode_robustness
//! ```
//!
//! The nine `v1-*`/`v2-*` files are frozen bytes from the retired
//! fixed-layout formats, which nothing writes any more: they stay in the
//! corpus as unsupported-version cases and are never regenerated.

use std::collections::BTreeSet;
use std::path::PathBuf;

use bp_trace::{BranchKind, InstClass, ReadTraceError, Reg, RetiredInst, Trace, TraceMeta};

/// Records in the corpus base trace; small enough that the mutants stay
/// a few KB each in the repository.
const BASE_RECORDS: u64 = 600;

/// Workload name baked into every corpus file; offsets below depend on
/// its length.
const BASE_NAME: &str = "corpus";

/// Header length for `BASE_NAME`: magic + version + name_len + name +
/// input + count.
const HEADER_LEN: usize = 4 + 2 + 2 + BASE_NAME.len() + 4 + 8;
const COUNT_OFF: usize = HEADER_LEN - 8;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deterministic mixed base trace every mutant is derived from.
fn base_trace() -> Trace {
    let mut t = Trace::new(TraceMeta::new(BASE_NAME, 2));
    let mut state = 0x9e37_79b9u64;
    for i in 0..BASE_RECORDS {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let ip = 0x1000 + (i % 41) * 4;
        match state % 5 {
            0 => t.push(RetiredInst::cond_branch(ip, state & 8 == 0, ip + 64, Some(1), None)),
            1 => t.push(RetiredInst::mem(
                ip,
                InstClass::Load,
                0x8000 + (state >> 7) % 512,
                None,
                None,
                Some(Reg::new((state % 16) as u8)),
                state >> 32,
            )),
            2 => t.push(RetiredInst::uncond_branch(ip, BranchKind::Call, ip + 0x200)),
            _ => t.push(RetiredInst::op(
                ip,
                InstClass::Alu,
                Some(Reg::new((state % 16) as u8)),
                None,
                Some(Reg::new(((state >> 4) % 16) as u8)),
                state >> 40,
            )),
        }
    }
    t
}

fn v3_bytes() -> Vec<u8> {
    let mut b = Vec::new();
    base_trace().write_to(&mut b).expect("v3 encode");
    b
}

/// Patches the header record count to `lie`.
fn with_count(mut b: Vec<u8>, lie: u64) -> Vec<u8> {
    b[COUNT_OFF..COUNT_OFF + 8].copy_from_slice(&lie.to_le_bytes());
    b
}

/// Rewrites the first v3 block's payload byte at `off` to `val` and fixes
/// the block trailer so the *field* check (not the checksum) is what
/// rejects it.
fn v3_patch_first_payload(mut b: Vec<u8>, off: usize, val: u8) -> Vec<u8> {
    let frame_off = HEADER_LEN;
    let payload_len =
        u32::from_le_bytes(b[frame_off + 4..frame_off + 8].try_into().unwrap()) as usize;
    let payload_off = frame_off + 8;
    b[payload_off + off] = val;
    let digest = fnv1a64(&b[frame_off..payload_off + payload_len]);
    b[payload_off + payload_len..payload_off + payload_len + 8]
        .copy_from_slice(&digest.to_le_bytes());
    b
}

/// The frozen files of the retired formats, with the version each
/// header declares: decode must stop at that version.
const FROZEN: [(&str, u16); 9] = [
    ("v1-bad-register.bptr", 1),
    ("v1-hostile-count.bptr", 1),
    ("v1-trailing-garbage.bptr", 1),
    ("v1-truncated-mid-record.bptr", 1),
    ("v2-bitflip-payload.bptr", 2),
    ("v2-bitflip-trailer.bptr", 2),
    ("v2-hostile-count.bptr", 2),
    ("v2-trailing-garbage.bptr", 2),
    ("v2-truncated-at-trailer.bptr", 2),
];

/// The generated corpus: file name → deliberately damaged bytes.
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let v3 = v3_bytes();
    let v3_first_payload_len = {
        let off = HEADER_LEN + 4;
        u32::from_le_bytes(v3[off..off + 4].try_into().unwrap()) as usize
    };

    let mut files: Vec<(&'static str, Vec<u8>)> = Vec::new();

    // --- v3: blocked codec, per-block trailers ---
    files.push(("v3-truncated-mid-block.bptr", v3[..HEADER_LEN + 8 + 40].to_vec()));
    files.push((
        "v3-missing-end-marker.bptr",
        v3[..HEADER_LEN + 8 + v3_first_payload_len + 8].to_vec(),
    ));
    files.push(("v3-bitflip-payload.bptr", {
        let mut b = v3.clone();
        b[HEADER_LEN + 8 + 17] ^= 0x08;
        b
    }));
    files.push(("v3-bitflip-frame.bptr", {
        let mut b = v3.clone();
        b[HEADER_LEN + 1] ^= 0x01; // n_records, caught by the block trailer
        b
    }));
    files.push(("v3-hostile-count.bptr", with_count(v3.clone(), 7)));
    files.push(("v3-hostile-nrecords.bptr", {
        let mut b = v3.clone();
        b[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        b
    }));
    files.push(("v3-hostile-payload-len.bptr", {
        let mut b = v3.clone();
        b[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        b
    }));
    // First payload byte is the dictionary-size varint (< 128 entries).
    files.push(("v3-zero-dict.bptr", v3_patch_first_payload(v3.clone(), 0, 0)));
    files.push(("v3-trailing-garbage.bptr", {
        let mut b = v3.clone();
        b.push(0xAA);
        b
    }));

    // --- header-level hostility, version-independent ---
    files.push(("bad-magic.bptr", {
        let mut b = v3.clone();
        b[0] = b'X';
        b
    }));
    files.push(("future-version.bptr", {
        let mut b = v3.clone();
        b[4..6].copy_from_slice(&9u16.to_le_bytes());
        b
    }));
    files.push(("nonutf8-name.bptr", {
        let mut b = v3.clone();
        b[8] = 0xFF; // first name byte
        b
    }));
    files.push(("name-len-overflow.bptr", {
        let mut b = v3[..16].to_vec();
        b[6..8].copy_from_slice(&u16::MAX.to_le_bytes());
        b
    }));
    files.push(("empty-file.bptr", Vec::new()));
    files.push(("header-only.bptr", v3[..10].to_vec()));

    files
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Peak resident set size of this process, from `/proc/self/status`
/// (`VmHWM`). Returns 0 where unavailable — the over-allocation guard
/// then passes trivially rather than failing on exotic platforms.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The generated files on disk must match what this file generates — or
/// be rewritten when `BRANCH_LAB_UPDATE_GOLDEN=1`, mirroring the golden
/// fixture workflow. The frozen files are left alone.
#[test]
fn corpus_files_are_in_sync() {
    let dir = corpus_dir();
    let update = std::env::var("BRANCH_LAB_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(&dir).expect("create corpus dir");
    }
    for (name, bytes) in corpus() {
        let path = dir.join(name);
        if update {
            std::fs::write(&path, &bytes).expect("write corpus file");
            continue;
        }
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing corpus file {name}: {e}; regenerate with \
                 BRANCH_LAB_UPDATE_GOLDEN=1 cargo test -p bp-trace --test decode_robustness"
            )
        });
        assert_eq!(
            on_disk, bytes,
            "corpus file {name} out of sync; regenerate with BRANCH_LAB_UPDATE_GOLDEN=1"
        );
    }
}

/// Every corpus file, generated or frozen, decodes to a structured
/// error — no panic, no success, and no allocation remotely sized by its
/// hostile length fields (guarded via the process's peak-RSS high-water
/// mark). A frozen v1/v2 file fails on its version field and nothing
/// else.
#[test]
fn every_corpus_file_fails_structurally() {
    let dir = corpus_dir();
    let before_kb = peak_rss_kb();
    let mut seen = BTreeSet::new();
    for entry in std::fs::read_dir(&dir).expect("corpus dir (regenerate if missing)") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "bptr") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let err = match Trace::load(&path) {
            Err(e) => e,
            Ok(t) => panic!("{name}: decoded successfully ({} records)", t.len()),
        };
        // Structured, displayable, classified.
        let msg = err.to_string();
        assert!(!msg.is_empty(), "{name}: empty error message");
        if let Some(&(_, version)) = FROZEN.iter().find(|(n, _)| *n == name) {
            assert!(
                matches!(err, ReadTraceError::UnsupportedVersion(v) if v == version),
                "{name}: expected UnsupportedVersion({version}), got {err:?}"
            );
        }
        match err {
            ReadTraceError::Io(_)
            | ReadTraceError::BadMagic
            | ReadTraceError::UnsupportedVersion(_)
            | ReadTraceError::Corrupt(_)
            | ReadTraceError::ChecksumMismatch { .. } => {}
        }
        seen.insert(name);
    }
    let expected: BTreeSet<String> = corpus()
        .into_iter()
        .map(|(name, _)| name)
        .chain(FROZEN.iter().map(|&(name, _)| name))
        .map(str::to_owned)
        .collect();
    assert_eq!(expected.len(), 24);
    assert_eq!(seen, expected, "corpus files in {}", dir.display());
    // Hostile counts in the corpus claim up to u64::MAX records (would be
    // hundreds of GB materialized). Decode must stay within a paranoid
    // constant of the trace-free baseline.
    let after_kb = peak_rss_kb();
    assert!(
        after_kb - before_kb < 256 * 1024,
        "decoding the corpus grew peak RSS by {} kB — hostile length honored?",
        after_kb - before_kb
    );
}

/// The mutants must be damaged versions of a loadable base: the clean
/// encoding itself round-trips.
#[test]
fn base_encodings_are_loadable() {
    let back = Trace::read_from(v3_bytes().as_slice()).expect("clean base must load");
    assert_eq!(back.insts(), base_trace().insts());
}
