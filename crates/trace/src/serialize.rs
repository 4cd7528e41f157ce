//! Binary trace serialization: the `BPTR` container header, the codes
//! shared by its record encoding, and the error types.
//!
//! The paper's offline-training methodology (§V-B) rests on "collecting
//! multiple long-duration traces of an application" into a trace library.
//! This module gives [`Trace`] a compact, versioned binary format so trace
//! collections can be written once and re-analyzed many times.
//!
//! The header (little-endian) is magic `BPTR`, version u16, metadata
//! (name length u16 + UTF-8 bytes, input u32), and a record count u64.
//! Version 4 is the only one read or written: bit-packed,
//! delta-compressed blocks, each carrying its own four-lane FNV-1a
//! trailer so corruption is detected at (and localized to) the block
//! holding it; see [`crate::codec_v3`] for the layout. Any other
//! version, including the retired fixed-layout v1/v2 and the v3 block
//! codec, is [`ReadTraceError::UnsupportedVersion`].
//!
//! Files decode through the streaming block reader
//! ([`crate::reader::BptrReader`]); [`Trace::read_from`] simply drains it
//! into memory. Decode is hardened against hostile input: a corrupt
//! header cannot demand a large allocation (capacity is clamped and
//! grown as records actually arrive), every invalid field is a
//! structured [`ReadTraceError`], and trailing bytes after the end
//! marker are rejected instead of silently ignored.
//!
//! Writing a file crash-safely (a unique temporary file, fsynced and
//! renamed into place) is the trace store's job: it persists traces with
//! `bp_metrics::durable::write_atomic`, because this crate depends on no
//! other.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::codec_v3::TraceWriter;
use crate::isa::{BranchKind, InstClass, Reg, NUM_REGS};
use crate::reader::{BptrReader, TraceReader};
use crate::trace::{Trace, TraceMeta};

pub(crate) const MAGIC: &[u8; 4] = b"BPTR";
/// The one format version read and written: the v4 block codec.
pub(crate) const VERSION: u16 = 4;
pub(crate) const NO_REG: u8 = 0xFF;

/// Initial record-capacity clamp for decoding: headers are untrusted, so
/// a claimed record count only seeds capacity up to this bound — a
/// hostile 16-byte header can no longer demand a multi-GB allocation
/// before a single record has been read.
pub(crate) const DECODE_CAP_CLAMP: usize = 1 << 16;

// The register encoding reserves 0xFF for "no register"; a future ISA
// widening past that would silently alias real registers onto the
// sentinel, so refuse to compile instead.
const _: () = assert!(NUM_REGS < NO_REG as usize, "register encoding collides with NO_REG");

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 over a byte stream (one chain; the block
/// trailers interleave four, see `codec_v3::block_digest`).
pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Errors produced when decoding a serialized trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not begin with the trace magic.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// A field held an invalid value, the framing was malformed, or the
    /// stream carried bytes past its declared end.
    Corrupt(&'static str),
    /// A block's checksum did not match its frame and payload (or the
    /// end marker's did not match its zero frame): the file was torn
    /// mid-write or corrupted at rest.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the payload actually read.
        computed: u64,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadMagic => f.write_str("not a branch-lab trace (bad magic)"),
            ReadTraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            ReadTraceError::Corrupt(what) => write!(f, "corrupt trace: invalid {what}"),
            ReadTraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "corrupt trace: checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
        }
    }
}

impl ReadTraceError {
    /// The same error again, for a fused reader to repeat (an I/O error
    /// keeps its kind and message).
    pub(crate) fn duplicate(&self) -> ReadTraceError {
        match self {
            ReadTraceError::Io(e) => ReadTraceError::Io(io::Error::new(e.kind(), e.to_string())),
            ReadTraceError::BadMagic => ReadTraceError::BadMagic,
            ReadTraceError::UnsupportedVersion(v) => ReadTraceError::UnsupportedVersion(*v),
            ReadTraceError::Corrupt(what) => ReadTraceError::Corrupt(what),
            ReadTraceError::ChecksumMismatch { stored, computed } => {
                ReadTraceError::ChecksumMismatch { stored: *stored, computed: *computed }
            }
        }
    }
}

impl Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Errors produced when encoding a trace.
#[derive(Debug)]
pub enum WriteTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The workload name does not fit the format's u16 length field; the
    /// trace cannot be written without silently altering its metadata.
    NameTooLong(usize),
}

impl fmt::Display for WriteTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteTraceError::Io(e) => write!(f, "i/o error writing trace: {e}"),
            WriteTraceError::NameTooLong(len) => write!(
                f,
                "workload name is {len} bytes; the BPTR format caps names at {} bytes",
                u16::MAX
            ),
        }
    }
}

impl Error for WriteTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WriteTraceError::Io(e) => Some(e),
            WriteTraceError::NameTooLong(_) => None,
        }
    }
}

impl From<io::Error> for WriteTraceError {
    fn from(e: io::Error) -> Self {
        WriteTraceError::Io(e)
    }
}

pub(crate) fn encode_reg(r: Option<Reg>) -> u8 {
    r.map_or(NO_REG, |r| r.index() as u8)
}

pub(crate) fn decode_reg(b: u8) -> Result<Option<Reg>, ReadTraceError> {
    match b {
        NO_REG => Ok(None),
        i if (i as usize) < NUM_REGS => Ok(Some(Reg::new(i))),
        _ => Err(ReadTraceError::Corrupt("register")),
    }
}

pub(crate) fn class_code(c: InstClass) -> u8 {
    match c {
        InstClass::Alu => 0,
        InstClass::Mul => 1,
        InstClass::Load => 2,
        InstClass::Store => 3,
        InstClass::Branch => 4,
        InstClass::Nop => 5,
    }
}

pub(crate) fn decode_class(b: u8) -> Result<InstClass, ReadTraceError> {
    Ok(match b {
        0 => InstClass::Alu,
        1 => InstClass::Mul,
        2 => InstClass::Load,
        3 => InstClass::Store,
        4 => InstClass::Branch,
        5 => InstClass::Nop,
        _ => return Err(ReadTraceError::Corrupt("instruction class")),
    })
}

pub(crate) fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 1,
        BranchKind::DirectJump => 2,
        BranchKind::IndirectJump => 3,
        BranchKind::Call => 4,
        BranchKind::Return => 5,
    }
}

pub(crate) fn decode_kind(b: u8) -> Result<BranchKind, ReadTraceError> {
    Ok(match b {
        1 => BranchKind::Conditional,
        2 => BranchKind::DirectJump,
        3 => BranchKind::IndirectJump,
        4 => BranchKind::Call,
        5 => BranchKind::Return,
        _ => return Err(ReadTraceError::Corrupt("branch kind")),
    })
}

/// Writes the `BPTR` header.
pub(crate) fn write_header<W: Write>(
    writer: &mut W,
    meta: &TraceMeta,
    count: u64,
) -> Result<(), WriteTraceError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    let name = meta.name.as_bytes();
    let name_len =
        u16::try_from(name.len()).map_err(|_| WriteTraceError::NameTooLong(name.len()))?;
    writer.write_all(&name_len.to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&meta.input.to_le_bytes())?;
    writer.write_all(&count.to_le_bytes())?;
    Ok(())
}

impl Trace {
    /// Serializes the trace to `writer` in the `BPTR` v4 format
    /// (bit-packed delta-compressed blocks, each with its own checksum
    /// trailer; DESIGN.md documents the layout).
    ///
    /// A `&mut` reference can be passed for `writer` (e.g. `&mut file`).
    /// To serialize a stream of records without materializing a
    /// [`Trace`], use [`TraceWriter`] directly.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer, and returns
    /// [`WriteTraceError::NameTooLong`] when the workload name exceeds the
    /// format's u16 length field (truncating it would make a write/read
    /// round trip silently alter [`TraceMeta`]).
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), WriteTraceError> {
        let mut w = TraceWriter::new(writer, self.meta(), Some(self.len() as u64))?;
        for inst in self.iter() {
            w.push(*inst)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Deserializes a trace previously written with [`Trace::write_to`],
    /// materializing it fully in memory. For block-wise streaming decode, use
    /// [`Trace::open`] or [`BptrReader`] directly.
    ///
    /// A `&mut` reference can be passed for `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, bad magic, unsupported
    /// version, corrupt field values or framing, a checksum mismatch, or
    /// trailing bytes after the trace's declared end.
    ///
    /// # Examples
    ///
    /// ```
    /// use bp_trace::{RetiredInst, Trace, TraceMeta};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut t = Trace::new(TraceMeta::new("demo", 3));
    /// t.push(RetiredInst::cond_branch(0x40, true, 0x80, Some(1), None));
    /// let mut bytes = Vec::new();
    /// t.write_to(&mut bytes)?;
    /// let back = Trace::read_from(bytes.as_slice())?;
    /// assert_eq!(back.meta().name, "demo");
    /// assert_eq!(back.insts(), t.insts());
    /// # Ok(())
    /// # }
    /// ```
    pub fn read_from<R: Read>(reader: R) -> Result<Trace, ReadTraceError> {
        let mut r = BptrReader::new(reader)?;
        // The header's count is untrusted input: seed capacity with at
        // most DECODE_CAP_CLAMP records and let the vector grow as data
        // actually arrives.
        let cap = r
            .len_hint()
            .map_or(0, |n| usize::try_from(n).unwrap_or(usize::MAX))
            .min(DECODE_CAP_CLAMP);
        let mut trace = Trace::with_capacity(r.meta().clone(), cap);
        while let Some(chunk) = r.next_chunk()? {
            trace.extend(chunk.iter().copied());
        }
        Ok(trace)
    }

    /// Reads a trace from a file at `path` (see [`Trace::read_from`]),
    /// materializing it fully. Prefer [`Trace::open`] when the consumer
    /// can stream.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on open/read/decode failure.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Trace, ReadTraceError> {
        let file = std::fs::File::open(path)?;
        Trace::read_from(io::BufReader::new(file))
    }

    /// Opens the trace file at `path` for block-wise streaming decode:
    /// the header is parsed eagerly (so metadata is available), records
    /// are decoded one block at a time as the stream is consumed, and
    /// peak memory stays bounded by the block size regardless of trace
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on open failure or a malformed header.
    pub fn open(
        path: impl AsRef<std::path::Path>,
    ) -> Result<BptrReader<io::BufReader<std::fs::File>>, ReadTraceError> {
        let file = std::fs::File::open(path)?;
        BptrReader::new(io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RetiredInst;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A fresh per-process scratch directory: concurrent test runs (or a
    /// concurrently running second checkout) must never share paths.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bp_trace_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn sample() -> Trace {
        let mut t = Trace::new(TraceMeta::new("roundtrip", 7));
        t.push(RetiredInst::op(0x10, InstClass::Alu, Some(Reg::new(1)), None, Some(Reg::new(2)), 42));
        t.push(RetiredInst::mem(0x14, InstClass::Load, 0x800, Some(Reg::new(2)), None, Some(Reg::new(3)), 9));
        t.push(RetiredInst::cond_branch(0x18, false, 0x40, Some(3), Some(4)));
        t.push(RetiredInst::uncond_branch(0x1c, BranchKind::Call, 0x100));
        t.push(RetiredInst::uncond_branch(0x20, BranchKind::Return, 0x20));
        t
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.meta(), t.meta());
        assert_eq!(back.insts(), t.insts());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new(TraceMeta::new("empty", 1));
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.meta(), t.meta());
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut clean = Vec::new();
        sample().write_to(&mut clean).unwrap();
        // v1, v2 and v3 are retired like any unknown version: the header
        // is rejected before a single record is read.
        for version in [0u16, 1, 2, 3, 5, 99] {
            let mut bytes = clean.clone();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let err = Trace::read_from(bytes.as_slice()).unwrap_err();
            assert!(
                matches!(err, ReadTraceError::UnsupportedVersion(v) if v == version),
                "v{version}: {err:?}"
            );
        }
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Io(_)));
    }

    /// Every register value and the none-sentinel round-trip through the
    /// byte encoding; every other byte is rejected, never aliased.
    #[test]
    fn reg_encoding_is_exhaustive_and_injective() {
        assert_eq!(encode_reg(None), NO_REG);
        assert_eq!(decode_reg(NO_REG).unwrap(), None);
        for i in 0..=u8::MAX {
            match decode_reg(i) {
                Ok(None) => assert_eq!(i, NO_REG),
                Ok(Some(r)) => {
                    assert!((i as usize) < NUM_REGS);
                    assert_eq!(r.index(), i as usize);
                    assert_eq!(encode_reg(Some(r)), i);
                }
                Err(_) => assert!((i as usize) >= NUM_REGS && i != NO_REG),
            }
        }
    }

    #[test]
    fn file_save_load_roundtrip() {
        let t = sample();
        let dir = scratch_dir("roundtrip");
        let path = dir.join("sample.bptr");
        t.write_to(std::fs::File::create(&path).unwrap()).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(back.insts(), t.insts());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_streams_block_by_block() {
        let mut t = Trace::new(TraceMeta::new("streamed", 2));
        for i in 0..200_000u64 {
            t.push(RetiredInst::cond_branch(0x40 + (i % 64) * 4, i % 3 == 0, 0x80, Some(1), None));
        }
        let dir = scratch_dir("open");
        let path = dir.join("streamed.bptr");
        t.write_to(io::BufWriter::new(std::fs::File::create(&path).unwrap())).unwrap();
        let mut r = Trace::open(&path).unwrap();
        assert_eq!(r.meta(), t.meta());
        assert_eq!(r.len_hint(), Some(200_000));
        let mut seen = 0usize;
        let mut chunks = 0usize;
        while let Some(chunk) = r.next_chunk().unwrap() {
            assert_eq!(chunk, &t.insts()[seen..seen + chunk.len()]);
            seen += chunk.len();
            chunks += 1;
        }
        assert_eq!(seen, t.len());
        assert!(chunks >= 4, "expected multiple blocks, got {chunks}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn large_trace_roundtrip_is_compact() {
        let mut t = Trace::new(TraceMeta::new("big", 0));
        for i in 0..10_000u64 {
            t.push(RetiredInst::cond_branch(0x40 + (i % 64) * 4, i % 3 == 0, 0x80, Some(1), None));
        }
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        // The loopy branch stream must cost under a byte per record.
        assert!(bytes.len() < 10_000, "{} bytes for 10k records", bytes.len());
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.len(), 10_000);
        assert_eq!(back.insts(), t.insts());
    }

    #[test]
    fn v3_trailing_garbage_is_rejected() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        bytes.push(0);
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("trailing bytes")), "{err:?}");
    }

    #[test]
    fn concatenated_traces_are_rejected() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).unwrap();
        let copy = bytes.clone();
        bytes.extend_from_slice(&copy);
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("trailing bytes")), "{err:?}");
    }

    #[test]
    fn hostile_record_count_does_not_preallocate() {
        // A 22-byte header claiming u64::MAX records: decode must fail
        // with a structured error after bounded allocation, not attempt
        // a multi-GB Vec::with_capacity.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(b"hi");
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        // u64::MAX means "count unknown", and then no end marker follows.
        assert!(matches!(err, ReadTraceError::Io(_)), "{err:?}");
    }

    #[test]
    fn every_v3_payload_bit_flip_is_detected() {
        let t = sample();
        let mut clean = Vec::new();
        t.write_to(&mut clean).unwrap();
        // Flip one bit at every byte position in turn: the per-block
        // checksum (or a framing/field check) must reject each mutant —
        // a flip must never produce a successfully-decoded wrong trace.
        for pos in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x04;
            if let Ok(back) = Trace::read_from(bytes.as_slice()) {
                // The only byte a flip may go unnoticed in is the header
                // count sentinel interplay — which still must decode to
                // the same records or fail. Metadata bytes are not
                // checksummed (each block guards itself), so a
                // name/input flip yields different metadata but
                // identical records.
                assert_eq!(back.insts(), t.insts(), "undetected payload flip at byte {pos}");
            }
        }
    }
}
