//! Robustness of the streaming replay path: a BPTR stream truncated
//! *mid-block* — after earlier blocks already decoded and fed the
//! consumer — must surface a structured [`ReadTraceError`] from
//! [`SweepReplay::prepare`] and [`sweep_flags`], never a panic
//! and never a silently short result.

use std::io::Cursor;

use bp_pipeline::{PipelineConfig, SweepReplay};
use bp_predictors::{sweep_flags, DirectionPredictor, PredictorSpec};
use bp_trace::{BptrReader, ReadTraceError, RetiredInst, Trace, TraceMeta, TraceReader, BLOCK_RECORDS};

/// A trace spanning more than one codec block, so a tail truncation still
/// leaves at least one fully decodable block in front of the tear.
fn multi_block_trace() -> Trace {
    let mut t = Trace::new(TraceMeta::new("robustness", 0));
    for i in 0..(BLOCK_RECORDS as u64 + BLOCK_RECORDS as u64 / 2) {
        let taken = (i * i) % 3 == 0;
        t.push(RetiredInst::cond_branch(0x40_0000 + (i % 97) * 4, taken, 0x80_0000, Some(1), None));
    }
    t
}

/// Serialized bytes of the trace, cut so the header and the first block
/// survive but the stream tears inside a later block.
fn torn_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    multi_block_trace().write_to(&mut bytes).expect("serialize");
    bytes.truncate(bytes.len() * 9 / 10);
    bytes
}

#[test]
fn torn_stream_decodes_leading_blocks_then_errors() {
    // Precondition for the tests below: the tear is genuinely
    // *mid-stream* — the reader hands out at least one chunk before
    // hitting it, so consumers are already holding partial state.
    let bytes = torn_bytes();
    let mut reader = BptrReader::new(Cursor::new(bytes.as_slice())).expect("header survives");
    let mut chunks = 0usize;
    let err = loop {
        match reader.next_chunk() {
            Ok(Some(_)) => chunks += 1,
            Ok(None) => panic!("torn stream must not end cleanly"),
            Err(e) => break e,
        }
    };
    assert!(chunks >= 1, "tear must land past the first block");
    assert!(
        matches!(err, ReadTraceError::Io(_) | ReadTraceError::ChecksumMismatch { .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn sweep_replay_prepare_surfaces_mid_stream_truncation() {
    let bytes = torn_bytes();
    let config = PipelineConfig::skylake();
    let reader = BptrReader::new(Cursor::new(bytes.as_slice())).expect("header survives");
    let err = match SweepReplay::prepare(reader, &config) {
        Ok(_) => panic!("torn stream must not prepare"),
        Err(e) => e,
    };
    assert!(
        matches!(err, ReadTraceError::Io(_) | ReadTraceError::ChecksumMismatch { .. }),
        "unexpected {err:?}"
    );

    // The same records in full still prepare fine — the failure above is
    // the truncation, not the replay machinery.
    let full = multi_block_trace();
    let replay = SweepReplay::new(&full, &config);
    assert_eq!(replay.cond_branch_count(), full.len());
}

#[test]
fn sweep_flags_surfaces_mid_stream_truncation() {
    let bytes = torn_bytes();
    let mut predictors: Vec<Box<dyn DirectionPredictor>> = ["gshare", "bimodal"]
        .iter()
        .map(|label| PredictorSpec::parse(label).expect("known predictor").build())
        .collect();
    let reader = BptrReader::new(Cursor::new(bytes.as_slice())).expect("header survives");
    let err = sweep_flags(&mut predictors, reader, None).expect_err("torn stream must not sweep");
    assert!(
        matches!(err, ReadTraceError::Io(_) | ReadTraceError::ChecksumMismatch { .. }),
        "unexpected {err:?}"
    );
}
