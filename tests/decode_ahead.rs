//! Stream-order guarantees of BPTR v3 decode-ahead, seen through the
//! public reader API: whatever thread verifies and decodes a block,
//! records come out in order, an error surfaces after exactly the blocks
//! before it, a failed reader stays failed, and dropping a reader
//! mid-stream returns promptly.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use branch_lab::trace::{
    BptrReader, InstClass, ReadTraceError, Reg, RetiredInst, Trace, TraceMeta, TraceReader,
    TraceWriter, BLOCK_RECORDS,
};

const BLOCK: u64 = BLOCK_RECORDS as u64;

/// A fresh private directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "branch-lab-ahead-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `n` records mixing ALU ops with values, strided loads and branches of
/// varying direction, so every payload stream is exercised.
fn records(n: u64) -> Trace {
    let mut t = Trace::new(TraceMeta::new("decode-ahead", 0));
    for i in 0..n {
        let ip = 0x40_0000 + (i % 29) * 4;
        t.push(match i % 4 {
            0 => RetiredInst::op(
                ip,
                InstClass::Alu,
                Some(Reg::new(1)),
                None,
                Some(Reg::new(2)),
                i * 7,
            ),
            1 => RetiredInst::mem(
                ip,
                InstClass::Load,
                0x8000 + i * 8,
                Some(Reg::new(2)),
                None,
                Some(Reg::new(3)),
                i,
            ),
            _ => RetiredInst::cond_branch(ip, (i * i) % 5 < 2, 0x40_0000, Some(3), None),
        });
    }
    t
}

/// v3 bytes of `t` (count declared) and the offset of each block's frame.
fn encode(t: &Trace) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    t.write_to(&mut bytes).expect("encode");
    let mut frames = Vec::new();
    let mut off = 4 + 2 + 2 + t.meta().name.len() + 4 + 8;
    loop {
        let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes")) as usize;
        if len == 0 {
            return (bytes, frames);
        }
        frames.push(off);
        off += 8 + len + 8;
    }
}

/// Drains `r`: the chunks delivered before it stopped, and how it stopped.
fn drain<R: std::io::Read>(r: &mut BptrReader<R>) -> (usize, Result<(), ReadTraceError>) {
    let mut chunks = 0;
    loop {
        match r.next_chunk() {
            Ok(Some(_)) => chunks += 1,
            Ok(None) => return (chunks, Ok(())),
            Err(e) => return (chunks, Err(e)),
        }
    }
}

#[test]
fn damage_in_block_k_surfaces_after_exactly_k_chunks() {
    let t = records(4 * BLOCK + BLOCK / 2);
    let (clean, frames) = encode(&t);
    assert_eq!(frames.len(), 5);
    for k in [0, 2, 4] {
        let frame = frames[k];
        let payload_len =
            u32::from_le_bytes(clean[frame + 4..frame + 8].try_into().expect("4 bytes")) as usize;

        // A payload bit flip fails block k's checksum.
        let mut flipped = clean.clone();
        flipped[frame + 8 + payload_len / 2] ^= 0x20;
        // A hostile frame is a framing error the reader sees ahead.
        let mut hostile = clean.clone();
        hostile[frame..frame + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // A stream torn inside block k.
        let torn = clean[..frame + 8 + payload_len / 2].to_vec();

        for (what, bytes) in
            [("bit flip", flipped), ("hostile frame", hostile), ("truncation", torn)]
        {
            let mut r = BptrReader::new(bytes.as_slice()).expect("header");
            let (chunks, end) = drain(&mut r);
            assert_eq!(chunks, k, "{what} in block {k}");
            assert_eq!(r.records_read(), k as u64 * BLOCK, "{what} in block {k}");
            let err = end.expect_err("damage must fail the stream");
            let expected = match what {
                "bit flip" => matches!(err, ReadTraceError::ChecksumMismatch { .. }),
                "hostile frame" => matches!(err, ReadTraceError::Corrupt("block record count")),
                _ => matches!(err, ReadTraceError::Io(_)),
            };
            assert!(expected, "{what} in block {k}: {err:?}");
        }
    }
}

#[test]
fn a_failed_reader_never_resumes() {
    // Count unknown, so nothing but the fuse stops a reader that skipped
    // the damaged block from reaching a clean-looking end.
    let t = records(3 * BLOCK);
    let mut w = TraceWriter::new(Vec::new(), t.meta(), None).expect("header");
    for inst in t.iter() {
        w.push(*inst).expect("push");
    }
    let mut bytes = w.finish().expect("finish");
    let (_, frames) = encode(&t);
    bytes[frames[1] + 8 + 5] ^= 0x01;

    let mut r = BptrReader::new(bytes.as_slice()).expect("header");
    assert_eq!(r.next_chunk().expect("block 0").map(<[RetiredInst]>::len), Some(BLOCK_RECORDS));
    for call in 2..=5 {
        let err = r
            .next_chunk()
            .map(|c| c.map(<[RetiredInst]>::len))
            .expect_err("every call after an error fails");
        assert!(matches!(err, ReadTraceError::ChecksumMismatch { .. }), "call {call}: {err:?}");
    }
    assert_eq!(r.records_read(), BLOCK);
}

#[test]
fn records_match_the_source_through_open_and_load() {
    let dir = scratch_dir("records");
    let ragged = records(3 * BLOCK + 1234);
    let streams = [
        ("one record", records(1), Some(1)),
        ("one full block", records(BLOCK), Some(BLOCK)),
        ("ragged", ragged.clone(), Some(ragged.len() as u64)),
        ("count unknown", ragged, None),
    ];
    for (what, t, count) in streams {
        let path = dir.join("stream.bptr");
        let file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
        let mut w = TraceWriter::new(file, t.meta(), count).expect("header");
        for inst in t.iter() {
            w.push(*inst).expect("push");
        }
        std::io::Write::flush(&mut w.finish().expect("finish")).expect("flush");

        let mut r = Trace::open(&path).expect("open");
        assert_eq!(r.len_hint(), count, "{what}");
        let mut back = Vec::new();
        while let Some(chunk) = r.next_chunk().expect("drain") {
            assert!(chunk.len() <= BLOCK_RECORDS, "{what}");
            back.extend_from_slice(chunk);
        }
        assert_eq!(back, t.insts(), "{what}: drained records");
        assert_eq!(r.records_read(), t.len() as u64, "{what}");
        assert!(r.next_chunk().expect("still ended").is_none(), "{what}");

        let loaded = Trace::load(&path).expect("load");
        assert_eq!(loaded.meta(), t.meta(), "{what}");
        assert_eq!(loaded.insts(), t.insts(), "{what}: loaded records");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropping_a_reader_mid_stream_returns_promptly() {
    let (bytes, frames) = encode(&records(10 * BLOCK));
    assert_eq!(frames.len(), 10);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut r = BptrReader::new(bytes.as_slice()).expect("header");
        assert!(r.next_chunk().expect("block 0").is_some());
        drop(r);
        tx.send(()).expect("report");
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("dropping a reader mid-stream must not hang");
}
