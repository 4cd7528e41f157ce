//! The `BPTR` v3 block codec: bit-packed, delta-compressed, streaming.
//!
//! The paper's methodology replays multi-billion-instruction traces per
//! workload (§V-B); real Pin-based trace libraries spend 0.1–1.2 *bits*
//! per branch. A fixed 37-byte record per instruction, fully
//! materialized (the layout of the retired v1/v2 formats), cannot reach
//! that scale, so v3 encodes the stream around the two redundancies
//! every retired-instruction trace has:
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
//! independently decodable and carries its own FNV-1a trailer, so a torn
//! or bit-rotted region is detected at (and localized to) the block that
//! holds it, and decode proceeds block-wise with bounded memory no
//! matter how long the trace is. [`TraceWriter`] streams records in
//! without materializing them; the matching block reader lives in
//! [`crate::reader`].
//!
//! On-disk layout (little-endian throughout):
//!
//! ```text
//! file   := header block* end-marker <eof>
//! header := "BPTR" u16(version=3) u16(name_len) name u32(input) u64(count)
//! block  := u32(n_records>0) u32(payload_len) payload u64(fnv1a(frame+payload))
//! end    := u32(0) u32(0) u64(fnv1a over the 8 zero bytes)
//! ```
//!
//! `count == u64::MAX` marks a streamed file whose length was unknown at
//! header time; any other value is validated against the blocks' total.
//! Trailing bytes after the end marker are rejected.
//!
//! ```text
//! payload := varint(n_dict) dict-entry{n_dict}
//!            pred_bits[⌈n/8⌉] dstv_bits[⌈n/8⌉] mem_bits[⌈n/8⌉]
//!            varint{misses} taken_bits[⌈n_br/8⌉]
//!            varint{dst_values} zigzag-varint{mem_addr deltas}
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
    ReadTraceError, WriteTraceError, FNV_OFFSET,
};
use crate::trace::TraceMeta;

/// Records per v3 block. Large enough that dictionary and bitstream
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

/// Reads bit `i` of an LSB-first bitstream.
fn bit(bits: &[u8], i: usize) -> bool {
    bits[i / 8] >> (i % 8) & 1 != 0
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

    fn varint(&mut self) -> Result<u64, ReadTraceError> {
        let mut v = 0u64;
        for shift in 0..10 {
            let &byte = self
                .buf
                .get(self.pos)
                .ok_or(ReadTraceError::Corrupt("block payload truncated"))?;
            self.pos += 1;
            // The 10th byte may only contribute the final bit of a u64.
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
// block encode
// ---------------------------------------------------------------------------

/// Encodes `records` (at most [`BLOCK_RECORDS`]) as one v3 block payload
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

    out.extend_from_slice(&enc.pred_bits.bytes);
    out.extend_from_slice(&enc.dstv_bits.bytes);
    out.extend_from_slice(&enc.mem_bits.bytes);
    out.extend_from_slice(&enc.misses);
    out.extend_from_slice(&enc.taken_bits.bytes);
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

/// Decodes one v3 block payload holding exactly `n_records` records,
/// appending them to `out`. Every malformed input path returns a
/// structured [`ReadTraceError`]; allocations are bounded by
/// `n_records` (already validated against [`BLOCK_RECORDS`]) and the
/// payload length (validated against [`MAX_BLOCK_PAYLOAD`]).
pub(crate) fn decode_block(
    payload: &[u8],
    n_records: usize,
    out: &mut Vec<RetiredInst>,
) -> Result<(), ReadTraceError> {
    let mut cur = Cur::new(payload);

    let n_dict = usize::try_from(cur.varint()?).unwrap_or(usize::MAX);
    if n_dict == 0 || n_dict > n_records {
        return Err(ReadTraceError::Corrupt("dictionary size"));
    }
    let mut dict = Vec::with_capacity(n_dict);
    let mut prev_ip = 0u64;
    for _ in 0..n_dict {
        let flags = cur.bytes(1)?[0];
        if flags >> 6 != 0 {
            return Err(ReadTraceError::Corrupt("dictionary flags"));
        }
        let class = flags & 0x7;
        let kind = flags >> 3 & 0x7;
        decode_class(class)?;
        if kind != 0 {
            decode_kind(kind)?;
        }
        let regs = cur.bytes(3)?;
        for &r in regs {
            decode_reg(r)?;
        }
        let ip = cur.delta(prev_ip)?;
        prev_ip = ip;
        let target = if kind != 0 { cur.delta(ip)? } else { 0 };
        dict.push(DictEntry {
            ip,
            target,
            class,
            kind,
            src1: regs[0],
            src2: regs[1],
            dst: regs[2],
        });
    }

    let bitmap_len = n_records.div_ceil(8);
    let pred_bits = cur.bytes(bitmap_len)?;
    let dstv_bits = cur.bytes(bitmap_len)?;
    let mem_bits = cur.bytes(bitmap_len)?;

    // Resolve dictionary indices (reading miss varints in stream order)
    // and count how many records draw from each value stream.
    let mut indices = Vec::with_capacity(n_records);
    let mut pred = 0u32;
    let mut n_br = 0usize;
    for i in 0..n_records {
        let idx = if bit(pred_bits, i) {
            pred
        } else {
            let v = cur.varint()?;
            if v >= n_dict as u64 {
                return Err(ReadTraceError::Corrupt("dictionary index"));
            }
            v as u32
        };
        n_br += usize::from(dict[idx as usize].kind != 0);
        pred = (idx + 1) % n_dict as u32;
        indices.push(idx);
    }

    let taken_bits = cur.bytes(n_br.div_ceil(8))?;

    // Value streams, in payload order: dst_values first, then mem deltas.
    let mut dst_values = Vec::with_capacity(n_records.min(1024));
    for i in 0..n_records {
        if bit(dstv_bits, i) {
            let v = cur.varint()?;
            if v == 0 {
                return Err(ReadTraceError::Corrupt("zero in dst_value stream"));
            }
            dst_values.push(v);
        } else {
            dst_values.push(0);
        }
    }
    let mut prev_mem = 0u64;
    let mut br_seen = 0usize;
    for (i, &idx) in indices.iter().enumerate() {
        let e = dict[idx as usize];
        let mem_addr = if bit(mem_bits, i) {
            prev_mem = cur.delta(prev_mem)?;
            prev_mem
        } else {
            0
        };
        let branch = if e.kind == 0 {
            None
        } else {
            let kind = decode_kind(e.kind)?;
            let taken = bit(taken_bits, br_seen);
            br_seen += 1;
            if !taken && kind != BranchKind::Conditional {
                return Err(ReadTraceError::Corrupt("unconditional not-taken"));
            }
            Some(BranchInfo { kind, taken, target: e.target })
        };
        out.push(RetiredInst {
            ip: e.ip,
            dst_value: dst_values[i],
            mem_addr,
            class: decode_class(e.class)?,
            src1: decode_reg(e.src1)?,
            src2: decode_reg(e.src2)?,
            dst: decode_reg(e.dst)?,
            branch,
        });
    }

    if !cur.is_done() {
        return Err(ReadTraceError::Corrupt("block payload size"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// the streaming writer
// ---------------------------------------------------------------------------

/// Streams retired instructions into a v3 `BPTR` file without ever
/// materializing the trace: records are buffered one block at a time,
/// encoded, checksummed, and written out.
///
/// Pass the total record count to [`TraceWriter::new`] when it is known
/// (it is embedded in the header and verified on decode); pass `None`
/// for open-ended streams — the header then carries the
/// "count unknown" sentinel and readers trust the block structure,
/// which every block's own FNV-1a trailer guards.
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
    /// Writes the v3 header for `meta` and prepares for streaming.
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

/// Writes one `[n_records][payload_len][payload][fnv]` frame; the
/// all-zero frame (`n_records == 0`) is the end marker.
fn write_framed_block<W: Write>(w: &mut W, n_records: u32, payload: &[u8]) -> Result<(), WriteTraceError> {
    let mut frame = [0u8; 8];
    frame[0..4].copy_from_slice(&n_records.to_le_bytes());
    frame[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &frame);
    fnv1a(&mut hash, payload);
    w.write_all(&frame)?;
    w.write_all(payload)?;
    w.write_all(&hash.to_le_bytes())?;
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
        decode_block(&payload, records.len(), &mut out).expect("decode");
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
            let err = decode_block(&payload[..cut], records.len(), &mut out)
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
        let err = decode_block(&payload, 1, &mut Vec::new()).expect_err("extra byte");
        assert!(matches!(err, ReadTraceError::Corrupt("block payload size")));
    }
}
