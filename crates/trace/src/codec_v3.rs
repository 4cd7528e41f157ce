//! The `BPTR` v4 block codec: bit-packed, delta-compressed, streaming.
//!
//! The paper's methodology replays multi-billion-instruction traces per
//! workload (§V-B); real Pin-based trace libraries spend 0.1–1.2 *bits*
//! per branch. A fixed 37-byte record per instruction, fully
//! materialized (the layout of the retired v1/v2 formats), cannot reach
//! that scale, so the block codec encodes the stream around the two
//! redundancies every retired-instruction trace has:
//!
//! * **Static locality** — the dynamic stream revisits a small set of
//!   static instructions. Each block builds a *dictionary* of unique
//!   static descriptors (ip, class, registers, branch kind, target) in
//!   first-appearance order; dynamic records are dictionary indices.
//!   Straight-line code makes the next index overwhelmingly predictable
//!   (`previous + 1`), so indices are emitted as a 1-bit hit/miss stream
//!   with explicit varint indices only on misses.
//! * **Payload sparsity** — `dst_value` and `mem_addr` are usually zero,
//!   and conditional-branch outcomes are a single bit. Non-zero values
//!   get presence bitmaps plus varints (memory addresses as zigzag
//!   deltas, which turn strided access patterns into one-byte codes);
//!   branch outcomes are a packed bitstream.
//!
//! A loop-dominated branch trace costs ~2–4 *bits* per instruction; the
//! worst case (random 64-bit `dst_value` every record) degrades to
//! roughly that fixed-layout cost, never beyond `MAX_BLOCK_PAYLOAD`.
//!
//! Records are grouped into blocks of [`BLOCK_RECORDS`]; every block is
//! independently decodable and carries its own checksum trailer, so a
//! torn or bit-rotted region is detected at (and localized to) the block
//! that holds it, and decode proceeds block-wise with bounded memory no
//! matter how long the trace is. [`TraceWriter`] streams records in
//! without materializing them; the matching block reader lives in
//! [`crate::reader`].
//!
//! v4 is laid out for decoding (v3 held the same streams):
//!
//! * **Four checksum lanes.** The trailer folds four FNV-1a chains, byte
//!   `i` of `frame ++ payload` feeding lane `i mod 4`, so verifying a
//!   block runs four independent multiply chains instead of one. Every
//!   step of a chain is a bijection of its state, so any single changed
//!   byte changes its lane and, through the rotations, the trailer.
//! * **One-pass records.** The payload leads with the block's branch
//!   count and the byte lengths of its miss-index and `dst_value`
//!   streams, so the decoder slices every stream up front, turns each
//!   dictionary entry once into a record template, and emits every
//!   record in one pass: its template with `dst_value`, `mem_addr` and
//!   `taken` patched in.
//!
//! On-disk layout (little-endian throughout):
//!
//! ```text
//! file   := header block* end-marker <eof>
//! header := "BPTR" u16(version=4) u16(name_len) name u32(input) u64(count)
//! block  := u32(n_records>0) u32(payload_len) payload u64(digest(frame ++ payload))
//! end    := u32(0) u32(0) u64(digest over the 8 zero bytes)
//! digest := h0 ^ rotl(h1,16) ^ rotl(h2,32) ^ rotl(h3,48),
//!           h_l = FNV-1a 64 over the bytes at offsets ≡ l (mod 4)
//! ```
//!
//! `count == u64::MAX` marks a streamed file whose length was unknown at
//! header time; any other value is validated against the blocks' total.
//! Trailing bytes after the end marker are rejected.
//!
//! ```text
//! payload := varint(n_br) varint(misses_len) varint(values_len)
//!            varint(n_dict) dict-entry{n_dict}
//!            pred_bits[⌈n/8⌉] dstv_bits[⌈n/8⌉] mem_bits[⌈n/8⌉]
//!            taken_bits[⌈n_br/8⌉]
//!            misses[misses_len]: varint{miss indices}
//!            values[values_len]: varint{dst_values}
//!            zigzag-varint{mem_addr deltas} (the rest of the payload)
//! dict-entry := flags(class|kind<<3) src1 src2 dst
//!               zigzag-varint(ip Δ prev entry)
//!               [zigzag-varint(target Δ ip) if kind != 0]
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::Write;

use crate::isa::BranchKind;
use crate::record::{BranchInfo, RetiredInst};
use crate::serialize::{
    class_code, decode_class, decode_kind, decode_reg, encode_reg, fnv1a, kind_code, write_header,
    ReadTraceError, WriteTraceError, FNV_OFFSET, FNV_PRIME,
};
use crate::trace::TraceMeta;

/// Records per block. Large enough that dictionary and bitstream
/// overheads amortize to fractions of a bit per record, small enough
/// that one block's decode buffer stays a few megabytes at worst.
pub const BLOCK_RECORDS: usize = 1 << 16;

/// Hard ceiling on one block's encoded payload. The encoder's worst case
/// (all-miss indices, 10-byte varints everywhere, a full dictionary) is
/// under 4 MiB; anything larger in a header is hostile or corrupt and is
/// rejected *before* any allocation of that size.
pub const MAX_BLOCK_PAYLOAD: usize = 1 << 23;

/// Header `count` sentinel: record total unknown at header-write time.
pub(crate) const COUNT_UNKNOWN: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// varints, zigzag deltas, bitstreams
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1–10 bytes).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a wrapping difference onto small varints for both directions.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `cur` relative to `prev` (wrapping, so every u64 is reachable).
fn put_delta(out: &mut Vec<u8>, prev: u64, cur: u64) {
    put_varint(out, zigzag(cur.wrapping_sub(prev) as i64));
}

/// A bitstream built LSB-first within each byte.
#[derive(Default)]
struct BitBuf {
    bytes: Vec<u8>,
    len: usize,
}

impl BitBuf {
    fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            *self.bytes.last_mut().expect("just pushed") |= 1 << (self.len % 8);
        }
        self.len += 1;
    }
}

/// Packs the low seven bits of each byte of `word` (little-endian) into
/// one 56-bit value, as a varint's groups combine.
fn pack7(word: u64) -> u64 {
    let v = word & 0x7f7f_7f7f_7f7f_7f7f;
    let v = (v & 0x007f_007f_007f_007f) | (v & 0x7f00_7f00_7f00_7f00) >> 1;
    let v = (v & 0x0000_3fff_0000_3fff) | (v & 0x3fff_0000_3fff_0000) >> 2;
    (v & 0x0000_0000_0fff_ffff) | (v & 0x0fff_ffff_0000_0000) >> 4
}

/// A bounds-checked cursor over one block payload. Every overrun is a
/// structured decode error, never a panic or an oversized allocation.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ReadTraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ReadTraceError::Corrupt("block payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// The unread rest of the buffer, which the cursor then holds consumed.
    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn varint(&mut self) -> Result<u64, ReadTraceError> {
        // Eight bytes read as one word: the varint ends at the first byte
        // with a clear high bit. Past them only a ninth and a tenth byte
        // can follow, and they are read without a loop.
        if let Some(word) = self.buf.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let ends = !word & 0x8080_8080_8080_8080;
            if ends != 0 {
                let len = (ends.trailing_zeros() + 1) / 8;
                self.pos += len as usize;
                return Ok(pack7(word & (u64::MAX >> (64 - 8 * len))));
            }
            if let Some(&[ninth, tenth]) = self.buf.get(self.pos + 8..self.pos + 10) {
                let ten = ninth >> 7;
                // The 10th byte may only contribute the final bit of a u64.
                if ten == 1 && tenth > 1 {
                    return Err(ReadTraceError::Corrupt("varint"));
                }
                self.pos += 9 + usize::from(ten);
                let top = u64::from(ninth & 0x7f) << 56 | u64::from(tenth & ten) << 63;
                return Ok(pack7(word) | top);
            }
        }
        // Near the end of the buffer: one byte at a time.
        let mut v = 0u64;
        for shift in 0..10 {
            let &byte = self
                .buf
                .get(self.pos)
                .ok_or(ReadTraceError::Corrupt("block payload truncated"))?;
            self.pos += 1;
            if shift == 9 && byte > 1 {
                return Err(ReadTraceError::Corrupt("varint"));
            }
            v |= u64::from(byte & 0x7f) << (shift * 7);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ReadTraceError::Corrupt("varint"))
    }

    /// A varint that counts something in the payload, as a `usize`.
    fn count(&mut self) -> Result<usize, ReadTraceError> {
        Ok(usize::try_from(self.varint()?).unwrap_or(usize::MAX))
    }

    fn delta(&mut self, prev: u64) -> Result<u64, ReadTraceError> {
        Ok(prev.wrapping_add(unzigzag(self.varint()?) as u64))
    }

    fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// the static-descriptor dictionary
// ---------------------------------------------------------------------------

/// One unique static descriptor: everything about a record except its
/// dynamic payload (`taken`, `dst_value`, `mem_addr`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct DictEntry {
    ip: u64,
    /// Branch target (0 for non-branch records, which never read it).
    target: u64,
    class: u8,
    /// `kind_code` of the branch info, or 0 when `branch` is `None`.
    kind: u8,
    src1: u8,
    src2: u8,
    dst: u8,
}

impl DictEntry {
    fn of(inst: &RetiredInst) -> Self {
        let (kind, target) = match inst.branch {
            Some(b) => (kind_code(b.kind), b.target),
            None => (0, 0),
        };
        DictEntry {
            ip: inst.ip,
            target,
            class: class_code(inst.class),
            kind,
            src1: encode_reg(inst.src1),
            src2: encode_reg(inst.src2),
            dst: encode_reg(inst.dst),
        }
    }
}

/// FNV-1a `Hasher` for the encoder's dictionary map: the keys are tiny
/// fixed-size structs, where SipHash's per-call setup dominates.
#[derive(Default)]
struct FnvState(Option<u64>);

impl Hasher for FnvState {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0.unwrap_or(FNV_OFFSET);
        fnv1a(&mut h, bytes);
        self.0 = Some(h);
    }

    fn finish(&self) -> u64 {
        self.0.unwrap_or(FNV_OFFSET)
    }
}

type DictMap = HashMap<DictEntry, u32, BuildHasherDefault<FnvState>>;

// ---------------------------------------------------------------------------
// the block checksum
// ---------------------------------------------------------------------------

/// The checksum of one block: four FNV-1a 64 lanes over `frame ++
/// payload`, byte `i` feeding lane `i mod 4`, folded as `h0 ^ rotl(h1,16)
/// ^ rotl(h2,32) ^ rotl(h3,48)`. The lanes are independent multiply
/// chains, so they run side by side; each lane step is a bijection of its
/// state, so a change to one byte always changes its lane and the fold.
/// The writer's trailers, the reader's check and the end marker all use
/// this one function.
pub(crate) fn block_digest(frame: &[u8; 8], payload: &[u8]) -> u64 {
    let mut h = [FNV_OFFSET; 4];
    let mut feed = |bytes: &[u8]| {
        for (lane, &b) in h.iter_mut().zip(bytes) {
            *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    };
    // The frame is two whole quads, so payload byte j lands in lane j mod 4.
    frame.chunks_exact(4).for_each(&mut feed);
    let mut quads = payload.chunks_exact(4);
    quads.by_ref().for_each(&mut feed);
    feed(quads.remainder());
    h[0] ^ h[1].rotate_left(16) ^ h[2].rotate_left(32) ^ h[3].rotate_left(48)
}

/// Checks a block's stored trailer against the digest of `frame ++
/// payload`.
pub(crate) fn check_digest(stored: u64, frame: &[u8; 8], payload: &[u8]) -> Result<(), ReadTraceError> {
    let computed = block_digest(frame, payload);
    if stored != computed {
        return Err(ReadTraceError::ChecksumMismatch { stored, computed });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// block encode
// ---------------------------------------------------------------------------

/// Encodes `records` (at most [`BLOCK_RECORDS`]) as one block payload
/// into `out` (cleared first). Scratch state lives in `enc` so a long
/// streaming write reuses its allocations across blocks.
pub(crate) fn encode_block(records: &[RetiredInst], enc: &mut BlockEncoder, out: &mut Vec<u8>) {
    debug_assert!(!records.is_empty() && records.len() <= BLOCK_RECORDS);
    out.clear();
    enc.reset();

    // Pass 1: dictionary in first-appearance order + per-record indices.
    for inst in records {
        let entry = DictEntry::of(inst);
        let next = enc.dict.len() as u32;
        let idx = *enc.map.entry(entry).or_insert(next);
        if idx == next {
            enc.dict.push(entry);
        }
        enc.indices.push(idx);
    }
    let n_dict = enc.dict.len() as u32;

    // Pass 2: bitstreams + value streams.
    let mut pred = 0u32;
    let mut prev_mem = 0u64;
    for (inst, &idx) in records.iter().zip(&enc.indices) {
        enc.pred_bits.push(idx == pred);
        if idx != pred {
            put_varint(&mut enc.misses, u64::from(idx));
        }
        pred = (idx + 1) % n_dict;
        enc.dstv_bits.push(inst.dst_value != 0);
        if inst.dst_value != 0 {
            put_varint(&mut enc.values, inst.dst_value);
        }
        enc.mem_bits.push(inst.mem_addr != 0);
        if inst.mem_addr != 0 {
            put_delta(&mut enc.mems, prev_mem, inst.mem_addr);
            prev_mem = inst.mem_addr;
        }
        if let Some(b) = inst.branch {
            enc.taken_bits.push(b.taken);
        }
    }

    // The lengths that let a decoder slice every stream up front.
    put_varint(out, enc.taken_bits.len as u64);
    put_varint(out, enc.misses.len() as u64);
    put_varint(out, enc.values.len() as u64);

    // Dictionary section.
    put_varint(out, u64::from(n_dict));
    let mut prev_ip = 0u64;
    for e in &enc.dict {
        out.push(e.class | e.kind << 3);
        out.extend_from_slice(&[e.src1, e.src2, e.dst]);
        put_delta(out, prev_ip, e.ip);
        prev_ip = e.ip;
        if e.kind != 0 {
            put_delta(out, e.ip, e.target);
        }
    }

    out.extend_from_slice(&enc.pred_bits.bytes);
    out.extend_from_slice(&enc.dstv_bits.bytes);
    out.extend_from_slice(&enc.mem_bits.bytes);
    out.extend_from_slice(&enc.taken_bits.bytes);
    out.extend_from_slice(&enc.misses);
    out.extend_from_slice(&enc.values);
    out.extend_from_slice(&enc.mems);
    debug_assert!(out.len() <= MAX_BLOCK_PAYLOAD, "payload {} over cap", out.len());
}

/// Reusable scratch buffers for [`encode_block`].
#[derive(Default)]
pub(crate) struct BlockEncoder {
    map: DictMap,
    dict: Vec<DictEntry>,
    indices: Vec<u32>,
    pred_bits: BitBuf,
    dstv_bits: BitBuf,
    mem_bits: BitBuf,
    taken_bits: BitBuf,
    misses: Vec<u8>,
    values: Vec<u8>,
    mems: Vec<u8>,
}

impl BlockEncoder {
    fn reset(&mut self) {
        self.map.clear();
        self.dict.clear();
        self.indices.clear();
        for bits in [
            &mut self.pred_bits,
            &mut self.dstv_bits,
            &mut self.mem_bits,
            &mut self.taken_bits,
        ] {
            bits.bytes.clear();
            bits.len = 0;
        }
        self.misses.clear();
        self.values.clear();
        self.mems.clear();
    }
}

// ---------------------------------------------------------------------------
// block decode
// ---------------------------------------------------------------------------

/// Decodes one block payload holding exactly `n_records` records,
/// appending them to `out`. `templates` is scratch: it ends up holding
/// one record per dictionary entry, the record every use of that entry
/// starts from. Every malformed input path returns a structured
/// [`ReadTraceError`]; allocations are bounded by `n_records` (already
/// validated against [`BLOCK_RECORDS`]) and the payload length
/// (validated against [`MAX_BLOCK_PAYLOAD`]).
pub(crate) fn decode_block(
    payload: &[u8],
    n_records: usize,
    templates: &mut Vec<RetiredInst>,
    out: &mut Vec<RetiredInst>,
) -> Result<(), ReadTraceError> {
    let mut cur = Cur::new(payload);
    let n_br = cur.count()?;
    if n_br > n_records {
        return Err(ReadTraceError::Corrupt("block branch count"));
    }
    // Checked against the payload by `Cur::bytes` when the streams are
    // sliced, before any of them is read.
    let misses_len = cur.count()?;
    let values_len = cur.count()?;

    // Each dictionary entry is checked and decoded once, into the record
    // its uses start from (`taken` is patched per use).
    let n_dict = cur.count()?;
    if n_dict == 0 || n_dict > n_records {
        return Err(ReadTraceError::Corrupt("dictionary size"));
    }
    templates.clear();
    let mut prev_ip = 0u64;
    for _ in 0..n_dict {
        let entry = cur.bytes(4)?;
        let flags = entry[0];
        if flags >> 6 != 0 {
            return Err(ReadTraceError::Corrupt("dictionary flags"));
        }
        let class = decode_class(flags & 0x7)?;
        let kind = flags >> 3 & 0x7;
        let kind = if kind == 0 { None } else { Some(decode_kind(kind)?) };
        let (src1, src2, dst) = (decode_reg(entry[1])?, decode_reg(entry[2])?, decode_reg(entry[3])?);
        let ip = cur.delta(prev_ip)?;
        prev_ip = ip;
        let branch = match kind {
            Some(kind) => Some(BranchInfo { kind, taken: true, target: cur.delta(ip)? }),
            None => None,
        };
        templates.push(RetiredInst { ip, dst_value: 0, mem_addr: 0, class, src1, src2, dst, branch });
    }

    let bitmap_len = n_records.div_ceil(8);
    let pred_bits = cur.bytes(bitmap_len)?;
    let dstv_bits = cur.bytes(bitmap_len)?;
    let mem_bits = cur.bytes(bitmap_len)?;
    let taken_bits = cur.bytes(n_br.div_ceil(8))?;
    let mut misses = Cur::new(cur.bytes(misses_len)?);
    let mut values = Cur::new(cur.bytes(values_len)?);
    let mut mems = Cur::new(cur.rest());

    // One pass: eight records per byte of each bitmap.
    let n_dict = n_dict as u32;
    let mut pred = 0u32;
    let mut prev_mem = 0u64;
    let mut br = 0usize;
    let bytes = pred_bits.iter().zip(dstv_bits).zip(mem_bits);
    for (i, ((&hit, &has_value), &has_mem)) in bytes.enumerate() {
        for b in 0..(n_records - i * 8).min(8) {
            let idx = if hit >> b & 1 != 0 {
                pred
            } else {
                let v = misses.varint()?;
                if v >= u64::from(n_dict) {
                    return Err(ReadTraceError::Corrupt("dictionary index"));
                }
                v as u32
            };
            pred = if idx + 1 == n_dict { 0 } else { idx + 1 };
            let mut rec = templates[idx as usize];
            if has_value >> b & 1 != 0 {
                let v = values.varint()?;
                if v == 0 {
                    return Err(ReadTraceError::Corrupt("zero in dst_value stream"));
                }
                rec.dst_value = v;
            }
            if has_mem >> b & 1 != 0 {
                prev_mem = mems.delta(prev_mem)?;
                rec.mem_addr = prev_mem;
            }
            if let Some(info) = &mut rec.branch {
                let Some(&taken) = taken_bits.get(br / 8) else {
                    return Err(ReadTraceError::Corrupt("block branch count"));
                };
                info.taken = taken >> (br % 8) & 1 != 0;
                br += 1;
                if !info.taken && info.kind != BranchKind::Conditional {
                    return Err(ReadTraceError::Corrupt("unconditional not-taken"));
                }
            }
            out.push(rec);
        }
    }

    if br != n_br {
        return Err(ReadTraceError::Corrupt("block branch count"));
    }
    if !(misses.is_done() && values.is_done() && mems.is_done()) {
        return Err(ReadTraceError::Corrupt("block payload size"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// the streaming writer
// ---------------------------------------------------------------------------

/// Streams retired instructions into a `BPTR` file without ever
/// materializing the trace: records are buffered one block at a time,
/// encoded, checksummed, and written out.
///
/// Pass the total record count to [`TraceWriter::new`] when it is known
/// (it is embedded in the header and verified on decode); pass `None`
/// for open-ended streams — the header then carries the
/// "count unknown" sentinel and readers trust the block structure,
/// which every block's own checksum trailer guards.
///
/// # Examples
///
/// ```
/// use bp_trace::{RetiredInst, Trace, TraceMeta, TraceWriter};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let meta = TraceMeta::new("streamed", 0);
/// let mut w = TraceWriter::new(Vec::new(), &meta, None)?;
/// for i in 0..100_000u64 {
///     w.push(RetiredInst::cond_branch(0x40 + (i % 32) * 4, i % 3 == 0, 0x100, Some(1), None))?;
/// }
/// let bytes = w.finish()?;
/// assert!(bytes.len() < 100_000); // under a byte per instruction
/// let back = Trace::read_from(bytes.as_slice())?;
/// assert_eq!(back.len(), 100_000);
/// # Ok(())
/// # }
/// ```
pub struct TraceWriter<W: Write> {
    inner: W,
    block: Vec<RetiredInst>,
    payload: Vec<u8>,
    enc: BlockEncoder,
    written: u64,
    declared: Option<u64>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the `BPTR` header for `meta` and prepares for streaming.
    /// `count` is the total number of records that will be pushed, if
    /// known up-front.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and rejects over-long workload names
    /// exactly like [`Trace::write_to`](crate::Trace::write_to).
    pub fn new(mut writer: W, meta: &TraceMeta, count: Option<u64>) -> Result<Self, WriteTraceError> {
        write_header(&mut writer, meta, count.unwrap_or(COUNT_UNKNOWN))?;
        Ok(TraceWriter {
            inner: writer,
            block: Vec::with_capacity(BLOCK_RECORDS.min(4096)),
            payload: Vec::new(),
            enc: BlockEncoder::default(),
            written: 0,
            declared: count,
        })
    }

    /// Appends one record, flushing a full block to the writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn push(&mut self, inst: RetiredInst) -> Result<(), WriteTraceError> {
        self.block.push(inst);
        self.written += 1;
        if self.block.len() == BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Records pushed so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.written
    }

    /// True when no record has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    fn flush_block(&mut self) -> Result<(), WriteTraceError> {
        if self.block.is_empty() {
            return Ok(());
        }
        encode_block(&self.block, &mut self.enc, &mut self.payload);
        let n = self.block.len() as u32;
        self.block.clear();
        write_framed_block(&mut self.inner, n, &self.payload)?;
        Ok(())
    }

    /// Flushes the final partial block, writes the end marker, flushes
    /// the writer, and returns it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if a total count was declared to [`TraceWriter::new`] and
    /// a different number of records was pushed — the header would lie.
    pub fn finish(mut self) -> Result<W, WriteTraceError> {
        if let Some(declared) = self.declared {
            assert_eq!(
                declared, self.written,
                "TraceWriter: header declared {declared} records but {} were pushed",
                self.written
            );
        }
        self.flush_block()?;
        write_framed_block(&mut self.inner, 0, &[])?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Writes one `[n_records][payload_len][payload][digest]` frame; the
/// all-zero frame (`n_records == 0`) is the end marker.
fn write_framed_block<W: Write>(w: &mut W, n_records: u32, payload: &[u8]) -> Result<(), WriteTraceError> {
    let mut frame = [0u8; 8];
    frame[0..4].copy_from_slice(&n_records.to_le_bytes());
    frame[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.write_all(payload)?;
    w.write_all(&block_digest(&frame, payload).to_le_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{InstClass, Reg};

    fn roundtrip_block(records: &[RetiredInst]) -> Vec<RetiredInst> {
        let mut payload = Vec::new();
        encode_block(records, &mut BlockEncoder::default(), &mut payload);
        let mut out = Vec::new();
        decode_block(&payload, records.len(), &mut Vec::new(), &mut out).expect("decode");
        out
    }

    #[test]
    fn loop_block_costs_under_half_a_byte_per_record() {
        // A tight 8-instruction loop: after the first iteration every
        // index is predicted, so the cost is the four bitstreams.
        let mut records = Vec::new();
        for i in 0..BLOCK_RECORDS as u64 {
            let slot = i % 8;
            if slot == 7 {
                records.push(RetiredInst::cond_branch(0x40 + slot * 4, i % 9 != 0, 0x40, Some(1), None));
            } else {
                records.push(RetiredInst::op(
                    0x40 + slot * 4,
                    InstClass::Alu,
                    Some(Reg::new(1)),
                    None,
                    None,
                    0,
                ));
            }
        }
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        assert!(
            payload.len() * 2 < records.len(),
            "{} bytes for {} records",
            payload.len(),
            records.len()
        );
        assert_eq!(roundtrip_block(&records), records);
    }

    #[test]
    fn hostile_field_values_roundtrip_exactly() {
        // Every corner the public `RetiredInst` fields allow: max deltas,
        // branch-classed non-branches, values on dst-less records.
        let records = vec![
            RetiredInst {
                ip: u64::MAX,
                dst_value: u64::MAX,
                mem_addr: u64::MAX,
                class: InstClass::Store,
                src1: Some(Reg::new(31)),
                src2: None,
                dst: None,
                branch: None,
            },
            RetiredInst {
                ip: 0,
                dst_value: 1,
                mem_addr: 1,
                class: InstClass::Branch,
                src1: None,
                src2: Some(Reg::new(0)),
                dst: Some(Reg::new(7)),
                branch: None,
            },
            RetiredInst {
                ip: 0x7fff_ffff_ffff_ffff,
                dst_value: 0,
                mem_addr: 0,
                class: InstClass::Nop,
                src1: None,
                src2: None,
                dst: None,
                branch: Some(BranchInfo { kind: BranchKind::Return, taken: true, target: 0 }),
            },
        ];
        assert_eq!(roundtrip_block(&records), records);
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        let mut cur = Cur::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert!(matches!(cur.varint(), Err(ReadTraceError::Corrupt("varint"))));
        let mut cur = Cur::new(&[0x80; 11]);
        assert!(matches!(cur.varint(), Err(ReadTraceError::Corrupt("varint"))));
        let mut cur = Cur::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(cur.varint().expect("max u64"), u64::MAX);
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_payload_is_structured_error() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(RetiredInst::cond_branch(i * 4, i % 2 == 0, 0x40, None, None));
        }
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        for cut in 0..payload.len() {
            let mut out = Vec::new();
            let err = decode_block(&payload[..cut], records.len(), &mut Vec::new(), &mut out)
                .expect_err("truncated payload must fail");
            assert!(matches!(err, ReadTraceError::Corrupt(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversized_payload_is_structured_error() {
        let records = vec![RetiredInst::cond_branch(4, true, 8, None, None)];
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        payload.push(0);
        let err = decode_block(&payload, 1, &mut Vec::new(), &mut Vec::new()).expect_err("extra byte");
        assert!(matches!(err, ReadTraceError::Corrupt("block payload size")));
    }

    /// A mixed record stream: conditional and unconditional branches,
    /// loads with strided and wild addresses, ALU results small and large.
    fn mixed(n: u64, seed: u64) -> Vec<RetiredInst> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let ip = 0x4000 + (i % 37) * 4;
                match state >> 60 {
                    0..=3 => RetiredInst::cond_branch(ip, state & 16 == 0, ip + 0x80, Some(1), Some(2)),
                    4 => RetiredInst::uncond_branch(ip, BranchKind::Call, ip + 0x1000),
                    5 => RetiredInst::uncond_branch(ip, BranchKind::Return, state >> 20),
                    6..=8 => RetiredInst::mem(
                        ip,
                        InstClass::Load,
                        if state & 1 == 0 { 0x9000 + i * 8 } else { state },
                        Some(Reg::new(3)),
                        None,
                        Some(Reg::new(4)),
                        state >> (state % 64),
                    ),
                    _ => RetiredInst::op(ip, InstClass::Alu, Some(Reg::new(5)), None, Some(Reg::new(6)), state),
                }
            })
            .collect()
    }

    /// `records` as a v4 file of blocks of `per_block` records, framed
    /// one by one (the writer fills whole [`BLOCK_RECORDS`] blocks), and
    /// the offset where its first block starts.
    fn small_blocks_file(records: &[RetiredInst], per_block: usize) -> (Vec<u8>, usize) {
        let mut bytes = Vec::new();
        write_header(&mut bytes, &TraceMeta::new("flips", 1), records.len() as u64).expect("header");
        let first_block = bytes.len();
        let (mut enc, mut payload) = (BlockEncoder::default(), Vec::new());
        for chunk in records.chunks(per_block) {
            encode_block(chunk, &mut enc, &mut payload);
            write_framed_block(&mut bytes, chunk.len() as u32, &payload).expect("block");
        }
        write_framed_block(&mut bytes, 0, &[]).expect("end marker");
        (bytes, first_block)
    }

    #[test]
    fn every_byte_flip_in_the_blocks_is_a_structured_error() {
        let records = mixed(300, 7);
        let (clean, first_block) = small_blocks_file(&records, 100);
        let back = crate::Trace::read_from(clean.as_slice()).expect("clean file");
        assert_eq!(back.insts(), records);
        // Frames, payloads, trailers and the end marker: every byte, once
        // with its low bit and once with all bits flipped.
        for pos in first_block..clean.len() {
            for mask in [0x01, 0xff] {
                let mut bytes = clean.clone();
                bytes[pos] ^= mask;
                let err = crate::Trace::read_from(bytes.as_slice())
                    .map(|t| t.len())
                    .expect_err(&format!("byte {pos} ^ {mask:#04x} decoded"));
                assert!(!err.to_string().is_empty(), "byte {pos}: {err:?}");
            }
        }
    }

    #[test]
    fn one_flipped_byte_in_any_lane_changes_the_digest() {
        let frame = [1, 0, 0, 0, 9, 0, 0, 0];
        let payload: Vec<u8> = (0..9u8).collect();
        let clean = block_digest(&frame, &payload);
        for i in 0..frame.len() + payload.len() {
            for mask in [0x01, 0x80, 0xff] {
                let (mut f, mut p) = (frame, payload.clone());
                if i < 8 {
                    f[i] ^= mask;
                } else {
                    p[i - 8] ^= mask;
                }
                assert_ne!(block_digest(&f, &p), clean, "byte {i} ^ {mask:#04x}");
            }
        }
    }

    #[test]
    fn seeded_hostile_records_roundtrip_across_blocks() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state ^ state >> 29
        };
        let kinds = [
            BranchKind::Conditional,
            BranchKind::DirectJump,
            BranchKind::IndirectJump,
            BranchKind::Call,
            BranchKind::Return,
        ];
        let classes = [
            InstClass::Alu,
            InstClass::Mul,
            InstClass::Load,
            InstClass::Store,
            InstClass::Branch,
            InstClass::Nop,
        ];
        let reg = |r: u64| (!r.is_multiple_of(3)).then(|| Reg::new((r % 32) as u8));
        let mut records = Vec::new();
        for i in 0..2 * BLOCK_RECORDS as u64 + 777 {
            let r = next();
            let in_miss_block = (BLOCK_RECORDS as u64..2 * BLOCK_RECORDS as u64).contains(&i);
            // The second block draws its records from a pool of 5,000
            // static descriptors at random, so nearly every index misses.
            let ip = match (in_miss_block, i % 4) {
                (true, _) => (r % 5000) * 4,
                (false, 0) => u64::MAX, // maximum ip and mem deltas
                (false, 1) => 0,
                _ => 0x1000 + (i % 61) * 4,
            };
            let branch = match r >> 61 {
                0..=2 => None,
                k => {
                    let kind = kinds[(k as usize - 3) % kinds.len()];
                    let taken = kind != BranchKind::Conditional || r & 2 == 0;
                    let target = if r & 4 == 0 { u64::MAX - ip } else { ip ^ r };
                    Some(BranchInfo { kind, taken, target })
                }
            };
            let dst = reg(r >> 8);
            records.push(RetiredInst {
                ip,
                // Values land on records without a destination register too.
                dst_value: match r >> 40 & 3 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => r,
                },
                mem_addr: match r >> 42 & 3 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => 1,
                    _ => r.rotate_left(17),
                },
                // Any class, so `Branch` records without branch info and
                // branches of other classes both occur.
                class: classes[(r >> 44) as usize % classes.len()],
                src1: reg(r >> 12),
                src2: reg(r >> 16),
                dst,
                branch,
            });
        }
        let meta = TraceMeta::new("hostile", 3);
        let mut w = TraceWriter::new(Vec::new(), &meta, Some(records.len() as u64)).expect("header");
        for r in &records {
            w.push(*r).expect("push");
        }
        let bytes = w.finish().expect("finish");
        let back = crate::Trace::read_from(bytes.as_slice()).expect("decode");
        assert_eq!(back.meta(), &meta);
        assert!(back.insts() == records.as_slice(), "hostile records changed in a round trip");
    }

    /// `payload` with its three leading counts (branch count, miss and
    /// value stream lengths) rewritten by `edit`.
    fn with_counts(payload: &[u8], edit: impl Fn(&mut [u64; 3])) -> Vec<u8> {
        let mut cur = Cur::new(payload);
        let mut counts = [0u64; 3];
        for c in &mut counts {
            *c = cur.varint().expect("count");
        }
        edit(&mut counts);
        let mut out = Vec::new();
        for c in counts {
            put_varint(&mut out, c);
        }
        out.extend_from_slice(cur.rest());
        out
    }

    #[test]
    fn leading_counts_are_checked_before_use() {
        let records = mixed(200, 3);
        let mut payload = Vec::new();
        encode_block(&records, &mut BlockEncoder::default(), &mut payload);
        let decode = |p: &[u8]| decode_block(p, records.len(), &mut Vec::new(), &mut Vec::new());
        type Edit = fn(&mut [u64; 3]);
        let cases: [(&str, Edit, &str); 5] = [
            ("branches beyond the records", |c| c[0] = 201, "block branch count"),
            ("one branch short", |c| c[0] -= 1, "block branch count"),
            ("one branch over", |c| c[0] += 1, "block branch count"),
            ("misses past the payload", |c| c[1] = 1 << 40, "block payload truncated"),
            ("values past the payload", |c| c[2] = u64::MAX, "block payload truncated"),
        ];
        for (what, edit, want) in cases {
            let err = decode(&with_counts(&payload, edit)).expect_err(what);
            assert!(matches!(err, ReadTraceError::Corrupt(w) if w == want), "{what}: {err:?}");
        }
        // A miss stream that swallows a byte of the value stream: the
        // streams no longer end where the payload says.
        let err = decode(&with_counts(&payload, |c| {
            c[1] += 1;
            c[2] -= 1;
        }))
        .expect_err("shifted stream boundary");
        assert!(matches!(err, ReadTraceError::Corrupt(_)), "{err:?}");
    }
}
