//! Streaming trace consumption: the [`TraceReader`] trait and the
//! `BPTR` v3 block decoder.
//!
//! Replaying a paper-scale trace (§V-B works with multi-billion
//! instruction streams) must not require materializing it: everything
//! downstream — `SweepReplay::prepare`, `sweep_flags`, profile
//! collection — consumes traces chunk-by-chunk through [`TraceReader`].
//! The in-memory [`Trace`] is just one implementation (a single-chunk
//! reader over its slice); [`BptrReader`] decodes v3 files with peak
//! memory bounded by a few blocks, independent of trace length.
//!
//! Chunk boundaries carry no meaning: a reader may split the stream
//! anywhere, and consumers must produce identical results for any
//! chunking of the same record sequence.

use std::io::{self, Read};
use std::sync::Arc;

use crate::ahead::{check_digest, Ahead, Block};
use crate::codec_v3::{BLOCK_RECORDS, COUNT_UNKNOWN, MAX_BLOCK_PAYLOAD};
use crate::record::RetiredInst;
use crate::serialize::{ReadTraceError, MAGIC, VERSION_V3};
use crate::trace::{Trace, TraceMeta};

/// A source of retired-instruction records, delivered in arbitrary-size
/// chunks until exhausted.
///
/// The contract is iterator-like: [`TraceReader::next_chunk`] yields
/// `Ok(Some(records))` zero or more times, then `Ok(None)` exactly once
/// at a *successfully verified* end of stream. Integrity failures
/// (checksums, framing, trailing bytes) surface as errors no later than
/// the final `next_chunk` call, so a consumer that drains the reader has
/// validated the whole stream.
///
/// A reader is fused on error: once `next_chunk` has returned an error,
/// every later call returns an error too — never a later chunk, and
/// never `Ok(None)`, so a stream that failed can never pass for one that
/// ended.
pub trait TraceReader {
    /// Workload metadata for the trace being read.
    fn meta(&self) -> &TraceMeta;

    /// Total record count, when the source declares one up-front. This
    /// is a *hint* from a possibly-untrusted header: use it to size
    /// estimates, never to pre-allocate unbounded memory.
    fn len_hint(&self) -> Option<u64>;

    /// Returns the next chunk of records, or `None` at a verified end
    /// of stream.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or any corruption
    /// detected in the underlying stream.
    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError>;
}

impl<T: TraceReader + ?Sized> TraceReader for &mut T {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }

    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        (**self).next_chunk()
    }
}

/// A [`TraceReader`] over a borrowed in-memory trace: yields the whole
/// record slice as one chunk. Obtained from [`Trace::reader`].
pub struct SliceReader<'a> {
    meta: &'a TraceMeta,
    insts: &'a [RetiredInst],
    consumed: bool,
}

impl TraceReader for SliceReader<'_> {
    fn meta(&self) -> &TraceMeta {
        self.meta
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.insts.len() as u64)
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        if self.consumed {
            return Ok(None);
        }
        self.consumed = true;
        Ok(Some(self.insts))
    }
}

/// A [`TraceReader`] that owns a shared in-memory trace (as handed out
/// by the workload trace store), yielding its records as one chunk.
pub struct SharedReader {
    trace: Arc<Trace>,
    consumed: bool,
}

impl SharedReader {
    /// Wraps a shared trace for streaming consumption.
    #[must_use]
    pub fn new(trace: Arc<Trace>) -> Self {
        SharedReader { trace, consumed: false }
    }
}

impl TraceReader for SharedReader {
    fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.len() as u64)
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        if self.consumed {
            return Ok(None);
        }
        self.consumed = true;
        Ok(Some(self.trace.insts()))
    }
}

impl Trace {
    /// A streaming view of this trace: one chunk covering every record.
    #[must_use]
    pub fn reader(&self) -> SliceReader<'_> {
        SliceReader { meta: self.meta(), insts: self.insts(), consumed: false }
    }
}

/// Streaming decoder for `BPTR` v3, the only supported version.
///
/// The header is parsed in [`BptrReader::new`]; records then stream out
/// one codec block per chunk, so peak memory is independent of trace
/// length. Integrity is verified incrementally (per-block FNV-1a
/// trailers) and the stream must end exactly where the format says it
/// does: leftover bytes are `Corrupt("trailing bytes")`, a missing end
/// is an I/O error.
///
/// Blocks decode ahead: while the consumer works on one block, up to two
/// more are verified and decoded on a helper thread the reader owns (one
/// per reader, only when more than one CPU is available), and when the
/// next block is not ready the calling thread decodes instead of
/// waiting. Records, their order and the errors are exactly those of
/// decoding one block at a time; see the `ahead` module for the
/// threading contract.
///
/// Decode is hostile-input hardened: no header or frame field can cause
/// an allocation beyond one block's caps ([`BLOCK_RECORDS`],
/// [`MAX_BLOCK_PAYLOAD`]), and every malformed byte is a structured
/// [`ReadTraceError`], never a panic. After the verified end or the
/// first error the reader holds no buffers and no thread.
pub struct BptrReader<R> {
    inner: R,
    meta: TraceMeta,
    /// Header-declared record total (`None`: "count unknown").
    declared: Option<u64>,
    produced: u64,
    /// Records in the blocks framed so far.
    framed: u64,
    /// The decode pipeline, until the stream ends or fails.
    ahead: Option<Ahead>,
    state: State,
}

/// Where a [`BptrReader`] stands.
enum State {
    Reading,
    /// `Ok(None)` has been returned: the end was verified.
    Ended,
    /// An error has been returned; every later call repeats it.
    Failed(ReadTraceError),
}

impl<R: Read> BptrReader<R> {
    /// Parses the `BPTR` header and prepares for block-wise decode.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, bad magic, any version
    /// other than 3 (`UnsupportedVersion`), or malformed metadata.
    pub fn new(mut inner: R) -> Result<Self, ReadTraceError> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ReadTraceError::BadMagic);
        }
        let mut b2 = [0u8; 2];
        inner.read_exact(&mut b2)?;
        let version = u16::from_le_bytes(b2);
        if version != VERSION_V3 {
            return Err(ReadTraceError::UnsupportedVersion(version));
        }
        inner.read_exact(&mut b2)?;
        let name_len = usize::from(u16::from_le_bytes(b2));
        let mut name = vec![0u8; name_len];
        inner.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| ReadTraceError::Corrupt("name"))?;
        let mut b4 = [0u8; 4];
        inner.read_exact(&mut b4)?;
        let input = u32::from_le_bytes(b4);
        let count = read_u64(&mut inner)?;
        Ok(BptrReader {
            inner,
            meta: TraceMeta { name, input },
            declared: (count != COUNT_UNKNOWN).then_some(count),
            produced: 0,
            framed: 0,
            ahead: Some(Ahead::new()),
            state: State::Reading,
        })
    }

    /// Records decoded (and integrity-verified) so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.produced
    }

    /// Ends or fails the stream: frees every buffer and joins the helper.
    fn stop(&mut self, state: State) {
        self.state = state;
        self.ahead = None;
    }

    /// Delivers the next block through the decode pipeline; `Ok(false)`
    /// at the verified end.
    fn next_block(&mut self) -> Result<bool, ReadTraceError> {
        let BptrReader { inner, declared, framed, ahead, .. } = self;
        let ahead = ahead.as_mut().expect("a reading reader owns its pipeline");
        let more = ahead.next_block(|block| frame_block(inner, *declared, framed, block))?;
        if more {
            self.produced += ahead.held().len() as u64;
        }
        Ok(more)
    }
}

/// Reads the next frame into `block`: the frame, its payload and its
/// trailer, with buffers sized here, on the reading thread, and only
/// after the caps and the count reconciliation passed. Returns
/// `Ok(false)` at a verified end marker (trailer, record total and end of
/// input all checked). `framed` counts the records framed so far.
fn frame_block<R: Read>(
    r: &mut R,
    declared: Option<u64>,
    framed: &mut u64,
    block: &mut Block,
) -> Result<bool, ReadTraceError> {
    let mut frame = [0u8; 8];
    r.read_exact(&mut frame)?;
    let n_records = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
    let payload_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as usize;

    if n_records == 0 {
        // End marker: zero frame, still checksummed.
        if payload_len != 0 {
            return Err(ReadTraceError::Corrupt("block header"));
        }
        check_digest(read_u64(r)?, &frame, &[])?;
        if declared.is_some_and(|d| d != *framed) {
            return Err(ReadTraceError::Corrupt("record count mismatch"));
        }
        expect_eof(r)?;
        return Ok(false);
    }
    if n_records > BLOCK_RECORDS {
        return Err(ReadTraceError::Corrupt("block record count"));
    }
    if payload_len == 0 || payload_len > MAX_BLOCK_PAYLOAD {
        return Err(ReadTraceError::Corrupt("block payload length"));
    }
    if declared.is_some_and(|d| d.wrapping_sub(*framed) < n_records as u64) {
        return Err(ReadTraceError::Corrupt("record count mismatch"));
    }
    block.payload.clear();
    block.payload.resize(payload_len, 0);
    r.read_exact(&mut block.payload)?;
    block.trailer = read_u64(r)?;
    block.frame = frame;
    block.n_records = n_records;
    block.records.clear();
    block.records.reserve(n_records);
    *framed += n_records as u64;
    Ok(true)
}

impl<R: Read> TraceReader for BptrReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn len_hint(&self) -> Option<u64> {
        self.declared
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        match &self.state {
            State::Reading => {}
            State::Ended => return Ok(None),
            State::Failed(e) => return Err(e.duplicate()),
        }
        match self.next_block() {
            Ok(true) => {
                let ahead = self
                    .ahead
                    .as_ref()
                    .expect("a reading reader owns its pipeline");
                Ok(Some(ahead.held()))
            }
            Ok(false) => {
                self.stop(State::Ended);
                Ok(None)
            }
            Err(e) => {
                self.stop(State::Failed(e.duplicate()));
                Err(e)
            }
        }
    }
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ReadTraceError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Requires the stream to be exhausted: any further byte is corruption.
fn expect_eof<R: Read>(r: &mut R) -> Result<(), ReadTraceError> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(()),
            Ok(_) => return Err(ReadTraceError::Corrupt("trailing bytes")),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RetiredInst;

    fn branchy(len: u64) -> Trace {
        let mut t = Trace::new(TraceMeta::new("reader", 1));
        for i in 0..len {
            t.push(RetiredInst::cond_branch(0x40 + (i % 97) * 4, i % 5 != 0, 0x400, Some(2), None));
        }
        t
    }

    #[test]
    fn slice_reader_yields_everything_once() {
        let t = branchy(100);
        let mut r = t.reader();
        assert_eq!(r.len_hint(), Some(100));
        assert_eq!(r.next_chunk().unwrap().unwrap(), t.insts());
        assert!(r.next_chunk().unwrap().is_none());
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn shared_reader_yields_everything_once() {
        let t = Arc::new(branchy(64));
        let mut r = SharedReader::new(Arc::clone(&t));
        assert_eq!(r.meta(), t.meta());
        assert_eq!(r.next_chunk().unwrap().unwrap(), t.insts());
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn bptr_reader_streams_v3_blocks() {
        let t = branchy(150_000);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let mut r = BptrReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.meta(), t.meta());
        assert_eq!(r.len_hint(), Some(150_000));
        let mut all = Vec::new();
        while let Some(chunk) = r.next_chunk().unwrap() {
            assert!(chunk.len() <= BLOCK_RECORDS);
            all.extend_from_slice(chunk);
        }
        assert_eq!(r.records_read(), 150_000);
        assert_eq!(all, t.insts());
    }

    #[test]
    fn v3_count_mismatch_is_detected() {
        let t = branchy(500);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        // Patch the header count (not covered by any block checksum) to
        // lie: the block/end-marker accounting must catch it.
        let count_off = 4 + 2 + 2 + t.meta().name.len() + 4;
        for lie in [499u64, 501, 1] {
            let mut b = bytes.clone();
            b[count_off..count_off + 8].copy_from_slice(&lie.to_le_bytes());
            let err = Trace::read_from(b.as_slice()).unwrap_err();
            assert!(
                matches!(err, ReadTraceError::Corrupt("record count mismatch")),
                "count={lie}: {err:?}"
            );
        }
    }

    #[test]
    fn v3_unknown_count_streams_fine() {
        use crate::codec_v3::TraceWriter;
        let t = branchy(70_000);
        let mut w = TraceWriter::new(Vec::new(), t.meta(), None).unwrap();
        for i in t.iter() {
            w.push(*i).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = BptrReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.len_hint(), None);
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.insts(), t.insts());
        while r.next_chunk().unwrap().is_some() {}
        assert_eq!(r.records_read(), 70_000);
    }

    #[test]
    fn oversized_block_frame_is_rejected_without_allocation() {
        let t = branchy(3);
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let frame_off = 4 + 2 + 2 + t.meta().name.len() + 4 + 8;
        // Hostile n_records.
        let mut b = bytes.clone();
        b[frame_off..frame_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Trace::read_from(b.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("block record count")), "{err:?}");
        // Hostile payload_len.
        let mut b = bytes;
        b[frame_off + 4..frame_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Trace::read_from(b.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("block payload length")), "{err:?}");
    }

    /// v3 bytes of `t`, and the offset of each block's payload.
    fn v3_blocks(t: &Trace) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let mut payloads = Vec::new();
        let mut off = 4 + 2 + 2 + t.meta().name.len() + 4 + 8;
        loop {
            let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as usize;
            if len == 0 {
                return (bytes, payloads);
            }
            payloads.push(off + 8);
            off += 8 + len + 8;
        }
    }

    /// A reader over `bytes` that decodes ahead on a helper thread even
    /// on a single-CPU host.
    fn with_helper(bytes: &[u8]) -> BptrReader<&[u8]> {
        let mut r = BptrReader::new(bytes).unwrap();
        r.ahead = Some(Ahead::with_helper(true));
        r
    }

    #[test]
    fn both_decode_paths_yield_the_same_chunks() {
        let t = branchy(3 * BLOCK_RECORDS as u64 + 1234);
        let (bytes, _) = v3_blocks(&t);
        for helper in [false, true] {
            let mut r = BptrReader::new(bytes.as_slice()).unwrap();
            r.ahead = Some(Ahead::with_helper(helper));
            let mut seen = 0;
            while let Some(chunk) = r.next_chunk().unwrap() {
                assert_eq!(chunk, &t.insts()[seen..seen + chunk.len()], "helper={helper}");
                assert!(chunk.len() == BLOCK_RECORDS || seen + chunk.len() == t.len());
                seen += chunk.len();
                let ahead = r.ahead.as_ref().unwrap();
                assert_eq!(ahead.has_helper(), helper);
                // The held block, plus at most the window in flight.
                assert!(ahead.blocks() <= if helper { 3 } else { 1 }, "{}", ahead.blocks());
            }
            assert_eq!(seen, t.len());
        }
    }

    #[test]
    fn verified_end_frees_every_buffer_and_joins_the_helper() {
        let t = branchy(4 * BLOCK_RECORDS as u64 + 17);
        let (bytes, _) = v3_blocks(&t);
        let mut r = with_helper(&bytes);
        r.next_chunk().unwrap().unwrap();
        let ahead = r.ahead.as_ref().unwrap();
        assert!(ahead.has_helper());
        let shared = ahead.shared_state();
        while r.next_chunk().unwrap().is_some() {}
        assert!(r.ahead.is_none());
        assert!(shared.upgrade().is_none(), "the helper still holds the queue");
        assert!(r.next_chunk().unwrap().is_none());
    }

    #[test]
    fn first_error_frees_every_buffer_and_joins_the_helper() {
        let t = branchy(4 * BLOCK_RECORDS as u64);
        let (mut bytes, payloads) = v3_blocks(&t);
        bytes[payloads[2] + 9] ^= 0x10;
        let mut r = with_helper(&bytes);
        r.next_chunk().unwrap().unwrap();
        let shared = r.ahead.as_ref().unwrap().shared_state();
        r.next_chunk().unwrap().unwrap();
        let err = r.next_chunk().unwrap_err();
        assert!(matches!(err, ReadTraceError::ChecksumMismatch { .. }), "{err:?}");
        assert!(r.ahead.is_none());
        assert!(shared.upgrade().is_none(), "the helper still holds the queue");
    }

    #[test]
    fn errors_fuse_the_reader() {
        // Count unknown, so no header total could stop a reader that
        // skipped the bad block from reaching a clean-looking end.
        use crate::codec_v3::TraceWriter;
        let t = branchy(3 * BLOCK_RECORDS as u64);
        let mut w = TraceWriter::new(Vec::new(), t.meta(), None).unwrap();
        for i in t.iter() {
            w.push(*i).unwrap();
        }
        let mut bytes = w.finish().unwrap();
        let first = 4 + 2 + 2 + t.meta().name.len() + 4 + 8;
        let len0 = u32::from_le_bytes(bytes[first + 4..first + 8].try_into().unwrap()) as usize;
        // A byte inside block 1's payload.
        bytes[first + 8 + len0 + 8 + 8 + 3] ^= 0x01;
        for helper in [false, true] {
            let mut r = BptrReader::new(bytes.as_slice()).unwrap();
            r.ahead = Some(Ahead::with_helper(helper));
            assert_eq!(r.next_chunk().unwrap().unwrap().len(), BLOCK_RECORDS);
            for call in 2..=4 {
                let err = r
                    .next_chunk()
                    .map(|c| c.map(<[RetiredInst]>::len))
                    .expect_err("a failed reader stays failed");
                assert!(
                    matches!(err, ReadTraceError::ChecksumMismatch { .. }),
                    "call {call}: {err:?}"
                );
            }
            assert_eq!(r.records_read(), BLOCK_RECORDS as u64);
        }
    }

    #[test]
    fn helper_panic_is_reraised_on_the_consumer() {
        let t = branchy(6 * BLOCK_RECORDS as u64);
        let (bytes, _) = v3_blocks(&t);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut r = with_helper(&bytes);
            r.ahead.as_ref().unwrap().inject_helper_panic();
            let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.next_chunk().unwrap();
                // The helper claims a block while the consumer is idle;
                // draining must reach that block and re-raise.
                r.ahead.as_ref().unwrap().wait_for_helper_panic();
                while r.next_chunk().unwrap().is_some() {}
            }));
            let payload = drained.expect_err("the helper's panic must reach the consumer");
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned());
            // Calling again after the panic fails instead of waiting.
            let again = r.next_chunk().map(|c| c.is_some());
            tx.send((msg, again.is_err())).unwrap();
        });
        let (msg, failed_after) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the consumer hung after the helper panicked");
        assert_eq!(msg.as_deref(), Some("injected decode-helper panic"));
        assert!(failed_after);
    }

    #[test]
    fn non_utf8_name_is_structured() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&3u16.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let Err(err) = BptrReader::new(bytes.as_slice()) else {
            panic!("non-UTF-8 name must be rejected");
        };
        assert!(matches!(err, ReadTraceError::Corrupt("name")), "{err:?}");
    }
}
