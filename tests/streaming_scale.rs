//! Scale guarantees for the v3 streaming codec: compactness (≤ 1 byte
//! per instruction on branch-dense traces) and flat memory (peak RSS is
//! independent of trace length, because neither `TraceWriter` nor the
//! block-wise reader ever materializes the trace).
//!
//! The 100M-branch variant is `#[ignore]`d so `cargo test` stays fast;
//! CI runs it from the release leg with `-- --ignored`.

use std::sync::atomic::{AtomicU32, Ordering};

use branch_lab::predictors::{AccuracyStats, PredictorSpec};
use branch_lab::trace::{RetiredInst, Trace, TraceMeta, TraceReader, TraceWriter};

/// A fresh private directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "branch-lab-scale-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Peak resident set size (`VmHWM`) in kB, or 0 where `/proc` is
/// unavailable (the RSS assertions then pass trivially).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `i`-th record of the synthetic branch workload: a 64-site loop body
/// whose branches mix strongly biased, pattern-following, and noisy
/// behaviour — representative of what the compressor sees in practice.
fn synth_branch(i: u64, state: &mut u64) -> RetiredInst {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    let site = i % 64;
    let ip = 0x40_0000 + site * 4;
    let taken = match site % 3 {
        0 => true,                      // biased
        1 => !(i / 64).is_multiple_of(4), // short period pattern
        _ => (*state >> 33) % 10 < 3,  // noisy, 30% taken
    };
    RetiredInst::cond_branch(ip, taken, ip + 128, Some((site % 8) as u8), None)
}

/// Streams `n` synthetic branches to disk and back: asserts the encoded
/// size is ≤ 1 byte/inst and that the whole round trip (encode, decode,
/// predictor sweep) grows peak RSS by less than `rss_budget_kb` — a
/// constant, while materializing `n` records would take `64 * n` bytes.
fn stream_round_trip(n: u64, rss_budget_kb: u64) {
    let dir = scratch_dir("roundtrip");
    let path = dir.join("synthetic.bptr");
    let before_kb = peak_rss_kb();

    // Encode without materializing.
    let meta = TraceMeta::new("synthetic-scale", 0);
    let file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace file"));
    let mut writer = TraceWriter::new(file, &meta, Some(n)).expect("write header");
    let mut state = 0x5eed_1234u64;
    for i in 0..n {
        writer.push(synth_branch(i, &mut state)).expect("push record");
    }
    use std::io::Write as _;
    writer.finish().expect("finish trace").flush().expect("flush trace");

    let encoded = std::fs::metadata(&path).expect("stat trace").len();
    let bytes_per_inst = encoded as f64 / n as f64;
    assert!(
        bytes_per_inst <= 1.0,
        "v3 encoding too fat: {encoded} bytes for {n} records = {bytes_per_inst:.3} B/inst"
    );

    // Decode block-by-block straight into two predictors, keeping only
    // their running accuracy: nothing here grows with the trace.
    let mut reader = Trace::open(&path).expect("open trace");
    let mut predictors = [
        PredictorSpec::Bimodal { log2_entries: 12 }.build(),
        PredictorSpec::GShare { log2_entries: 12, history_bits: 12 }.build(),
    ];
    let mut stats = [AccuracyStats::default(); 2];
    while let Some(chunk) = reader.next_chunk().expect("streamed decode") {
        for inst in chunk {
            if let Some(taken) = inst.taken() {
                for (p, s) in predictors.iter_mut().zip(&mut stats) {
                    s.record(p.predict_and_train(inst.ip, taken) == taken);
                }
            }
        }
    }
    assert_eq!(reader.records_read(), n, "stream must yield every record");
    for s in &stats {
        assert_eq!(s.total, n, "every record is a conditional branch");
        // The workload is two-thirds predictable; any working predictor
        // clears 50%. Guards against decode corrupting the bit stream.
        assert!(s.accuracy() > 0.5, "implausible accuracy {}", s.accuracy());
    }

    let grown_kb = peak_rss_kb() - before_kb;
    assert!(
        grown_kb < rss_budget_kb,
        "round trip of {n} records grew peak RSS by {grown_kb} kB (budget {rss_budget_kb} kB) — \
         something materialized the trace"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Fast tier-1 variant: 2M branches, ~128 MB materialized if buggy.
#[test]
fn two_million_branches_stream_with_flat_rss() {
    stream_round_trip(2_000_000, 96 * 1024);
}

/// The acceptance-scale run: 100M branches (6.4 GB if materialized)
/// under the same constant RSS budget as the 2M variant — peak memory is
/// independent of trace length. Run with:
/// `cargo test --release --test streaming_scale -- --ignored`
#[test]
#[ignore = "scale run; exercised by ci.sh from the release leg"]
fn hundred_million_branches_stream_with_flat_rss() {
    stream_round_trip(100_000_000, 96 * 1024);
}
