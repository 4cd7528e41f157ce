//! Binary trace serialization: the `BPTR` container, v1/v2 legacy codec,
//! and the shared error types.
//!
//! The paper's offline-training methodology (§V-B) rests on "collecting
//! multiple long-duration traces of an application" into a trace library.
//! This module gives [`Trace`] a compact, versioned binary format so trace
//! collections can be written once and re-analyzed many times.
//!
//! Every version shares the header (little-endian): magic `BPTR`,
//! version u16, metadata (name length u16 + UTF-8 bytes, input u32), and
//! a record count u64. What follows depends on the version:
//!
//! * **v1** — one fixed 37-byte record per instruction, nothing else.
//! * **v2** — v1 plus a trailing FNV-1a 64-bit checksum over every
//!   preceding byte (magic and version included).
//! * **v3** — bit-packed, delta-compressed blocks, each carrying its own
//!   FNV-1a trailer so corruption is detected at (and localized to) the
//!   block holding it; see [`crate::codec_v3`] for the layout. This is
//!   the only version writers emit.
//!
//! All three versions decode through the same streaming block reader
//! ([`crate::reader::BptrReader`]); [`Trace::read_from`] simply drains it
//! into memory. Decode is hardened against hostile input: a corrupt
//! header cannot demand a large allocation (capacity is clamped and
//! grown as records actually arrive), every invalid field is a
//! structured [`ReadTraceError`], and trailing bytes after the final
//! record/trailer are rejected instead of silently ignored.
//!
//! [`Trace::save`] is crash-safe: it writes to a unique temporary file in
//! the destination directory and atomically renames it into place, so a
//! concurrent reader (or a `kill -9` mid-write) can never observe a
//! half-written trace at the final path.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec_v3::TraceWriter;
use crate::isa::{BranchKind, InstClass, Reg, NUM_REGS};
use crate::reader::{BptrReader, TraceReader};
use crate::record::{BranchInfo, RetiredInst};
use crate::trace::{Trace, TraceMeta};

pub(crate) const MAGIC: &[u8; 4] = b"BPTR";
/// Current write version: v3 block codec.
pub(crate) const VERSION_V3: u16 = 3;
/// The checksummed fat-record format (still readable, no longer written).
pub(crate) const VERSION_V2: u16 = 2;
/// Oldest version still accepted by [`Trace::read_from`].
pub(crate) const MIN_VERSION: u16 = 1;
pub(crate) const NO_REG: u8 = 0xFF;

/// Initial record-capacity clamp for decoding: headers are untrusted, so
/// a claimed record count only seeds capacity up to this bound — a
/// hostile 16-byte header can no longer demand a multi-GB allocation
/// before a single record has been read.
pub(crate) const DECODE_CAP_CLAMP: usize = 1 << 16;

/// Bytes of one fixed-layout v1/v2 record.
pub(crate) const V12_RECORD_BYTES: usize = 37;

// The register encoding reserves 0xFF for "no register"; a future ISA
// widening past that would silently alias real registers onto the
// sentinel, so refuse to compile instead.
const _: () = assert!(NUM_REGS < NO_REG as usize, "register encoding collides with NO_REG");

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 over a byte stream.
pub(crate) fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// A writer adapter that hashes everything written through it.
struct HashingWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> HashingWriter<W> {
    fn new(inner: W) -> Self {
        HashingWriter { inner, hash: FNV_OFFSET }
    }
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        fnv1a(&mut self.hash, &buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
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
    /// A checksum did not match its payload (the v2 whole-file trailer
    /// or a v3 per-block trailer): the file was torn mid-write or
    /// corrupted at rest.
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

/// Writes the version-independent `BPTR` header.
pub(crate) fn write_header<W: Write>(
    writer: &mut W,
    version: u16,
    meta: &TraceMeta,
    count: u64,
) -> Result<(), WriteTraceError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&version.to_le_bytes())?;
    let name = meta.name.as_bytes();
    let name_len =
        u16::try_from(name.len()).map_err(|_| WriteTraceError::NameTooLong(name.len()))?;
    writer.write_all(&name_len.to_le_bytes())?;
    writer.write_all(name)?;
    writer.write_all(&meta.input.to_le_bytes())?;
    writer.write_all(&count.to_le_bytes())?;
    Ok(())
}

/// Encodes one record in the fixed v1/v2 layout.
pub(crate) fn encode_record_v12(inst: &RetiredInst, buf: &mut [u8; V12_RECORD_BYTES]) {
    buf[0..8].copy_from_slice(&inst.ip.to_le_bytes());
    buf[8..16].copy_from_slice(&inst.dst_value.to_le_bytes());
    buf[16..24].copy_from_slice(&inst.mem_addr.to_le_bytes());
    buf[24] = class_code(inst.class);
    buf[25] = encode_reg(inst.src1);
    buf[26] = encode_reg(inst.src2);
    buf[27] = encode_reg(inst.dst);
    match inst.branch {
        Some(b) => {
            buf[28] = kind_code(b.kind) | (u8::from(b.taken) << 3);
            buf[29..37].copy_from_slice(&b.target.to_le_bytes());
        }
        None => {
            buf[28] = 0;
            buf[29..37].fill(0);
        }
    }
}

/// Decodes one record from the fixed v1/v2 layout.
pub(crate) fn decode_record_v12(buf: &[u8; V12_RECORD_BYTES]) -> Result<RetiredInst, ReadTraceError> {
    let branch = match buf[28] {
        0 => None,
        code => {
            let kind = decode_kind(code & 0x7)?;
            let taken = code & 0x8 != 0;
            if !taken && kind != BranchKind::Conditional {
                return Err(ReadTraceError::Corrupt("unconditional not-taken"));
            }
            Some(BranchInfo {
                kind,
                taken,
                target: u64::from_le_bytes(buf[29..37].try_into().expect("8 bytes")),
            })
        }
    };
    Ok(RetiredInst {
        ip: u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")),
        dst_value: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        mem_addr: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
        class: decode_class(buf[24])?,
        src1: decode_reg(buf[25])?,
        src2: decode_reg(buf[26])?,
        dst: decode_reg(buf[27])?,
        branch,
    })
}

impl Trace {
    /// Serializes the trace to `writer` in the `BPTR` v3 format
    /// (bit-packed delta-compressed blocks, each with its own FNV-1a
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
    /// format's u16 length field (truncating it would make a `save`/`load`
    /// round trip silently alter [`TraceMeta`]).
    pub fn write_to<W: Write>(&self, writer: W) -> Result<(), WriteTraceError> {
        let mut w = TraceWriter::new(writer, self.meta(), Some(self.len() as u64))?;
        for inst in self.iter() {
            w.push(*inst)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Serializes the trace in the legacy `BPTR` v2 format (fat 37-byte
    /// records, whole-file checksum trailer).
    ///
    /// Kept for compatibility testing and for tooling that needs the
    /// fixed-layout records; new code should use [`Trace::write_to`]
    /// (v3), which is both smaller and streamable.
    ///
    /// # Errors
    ///
    /// Same contract as [`Trace::write_to`].
    pub fn write_to_v2<W: Write>(&self, writer: W) -> Result<(), WriteTraceError> {
        let mut writer = HashingWriter::new(writer);
        write_header(&mut writer, VERSION_V2, self.meta(), self.len() as u64)?;
        let mut buf = [0u8; V12_RECORD_BYTES];
        for inst in self.iter() {
            encode_record_v12(inst, &mut buf);
            writer.write_all(&buf)?;
        }
        // The trailer is the digest of everything before it, so it is
        // written through the inner writer (hashing it would be circular).
        let digest = writer.hash;
        writer.inner.write_all(&digest.to_le_bytes())?;
        writer.inner.flush()?;
        Ok(())
    }

    /// Deserializes a trace previously written with [`Trace::write_to`]
    /// (any supported version: v1, v2, or v3), materializing it fully in
    /// memory. For block-wise streaming decode, use
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

    /// Writes the trace to a file at `path` (see [`Trace::write_to`]),
    /// atomically: bytes go to a unique temporary file in the same
    /// directory, which is fsynced and renamed over `path`. Readers (and
    /// concurrent savers racing on the same path) therefore only ever see
    /// either the old complete file or the new complete file; a crash
    /// mid-write leaves at worst an orphaned `.tmp` file, never a torn
    /// trace at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation, write, and rename errors, plus
    /// [`WriteTraceError::NameTooLong`] for oversized workload names. On
    /// error the temporary file is removed (best-effort).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), WriteTraceError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let base = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
        let tmp = dir.join(format!(
            ".{base}.{}.{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> Result<(), WriteTraceError> {
            let file = std::fs::File::create(&tmp)?;
            let mut writer = io::BufWriter::new(file);
            self.write_to(&mut writer)?;
            // BufWriter::into_inner flushes; sync so the rename cannot be
            // durable before the data it points at.
            let file = writer.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            Ok(())
        };
        write().inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
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
    use std::sync::atomic::AtomicU32;

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
    fn v2_roundtrip_preserves_everything() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to_v2(&mut bytes).unwrap();
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.meta(), t.meta());
        assert_eq!(back.insts(), t.insts());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new(TraceMeta::new("empty", 1));
        let encodings = [
            {
                let mut b = Vec::new();
                t.write_to(&mut b).unwrap();
                b
            },
            {
                let mut b = Vec::new();
                t.write_to_v2(&mut b).unwrap();
                b
            },
        ];
        for bytes in encodings {
            let back = Trace::read_from(bytes.as_slice()).unwrap();
            assert_eq!(back.meta(), t.meta());
            assert!(back.is_empty());
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Trace::read_from(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).unwrap();
        bytes[4] = 99; // version low byte
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() - 5);
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Io(_)));
    }

    #[test]
    fn corrupt_register_is_rejected_in_v2() {
        let mut bytes = Vec::new();
        sample().write_to_v2(&mut bytes).unwrap();
        // First record's src1 byte: header is 4+2+2+9+4+8 = 29 bytes
        // ("roundtrip" = 9 chars), record starts at 29, src1 at +25.
        bytes[29 + 25] = 200;
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("register")));
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
        t.save(&path).unwrap();
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
        t.save(&path).unwrap();
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
        // The loopy branch stream must cost under a byte per record —
        // v2 spent 37.
        assert!(bytes.len() < 10_000, "{} bytes for 10k records", bytes.len());
        let back = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(back.len(), 10_000);
        assert_eq!(back.insts(), t.insts());
    }

    /// Rewrites v2 `bytes` as the v1 format: drop the trailer, patch the
    /// version field. This is exactly what pre-checksum branch-lab wrote.
    fn downgrade_to_v1(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - 8);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        bytes
    }

    #[test]
    fn v1_files_without_checksum_still_load() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to_v2(&mut bytes).unwrap();
        let back = Trace::read_from(downgrade_to_v1(bytes).as_slice()).unwrap();
        assert_eq!(back.meta(), t.meta());
        assert_eq!(back.insts(), t.insts());
    }

    #[test]
    fn v1_trailing_garbage_is_rejected() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to_v2(&mut bytes).unwrap();
        let mut v1 = downgrade_to_v1(bytes);
        // A concatenated second trace (or any stray bytes) after the last
        // declared record must not be silently accepted.
        v1.push(0xAB);
        let err = Trace::read_from(v1.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("trailing bytes")), "{err:?}");
    }

    #[test]
    fn v2_trailing_garbage_is_rejected() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to_v2(&mut bytes).unwrap();
        bytes.extend_from_slice(b"junk");
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Corrupt("trailing bytes")), "{err:?}");
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
        // A 29-byte header claiming u64::MAX records: decode must fail
        // with a structured error after bounded allocation, not attempt
        // a multi-GB Vec::with_capacity.
        for version in [1u16, 2, 3] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(&2u16.to_le_bytes());
            bytes.extend_from_slice(b"hi");
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&u64::MAX.to_le_bytes());
            let err = Trace::read_from(bytes.as_slice()).unwrap_err();
            // v3 treats u64::MAX as "count unknown" and then finds no
            // end marker; v1/v2 hit EOF reading the first record.
            assert!(matches!(err, ReadTraceError::Io(_)), "v{version}: {err:?}");
        }
    }

    #[test]
    fn bit_flip_in_v2_payload_fails_the_checksum() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to_v2(&mut bytes).unwrap();
        // Flip one bit in the first record's dst_value — a field whose
        // every value decodes fine, so only the checksum can catch it.
        let dst_value_off = 4 + 2 + 2 + t.meta().name.len() + 4 + 8 + 8;
        bytes[dst_value_off] ^= 0x40;
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::ChecksumMismatch { .. }), "{err}");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn corrupt_v2_trailer_fails_the_checksum() {
        let t = sample();
        let mut bytes = Vec::new();
        t.write_to_v2(&mut bytes).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::ChecksumMismatch { .. }), "{err}");
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
                // checksummed in v3 (each block guards itself), so a
                // name/input flip yields different metadata but
                // identical records.
                assert_eq!(back.insts(), t.insts(), "undetected payload flip at byte {pos}");
            }
        }
    }

    #[test]
    fn save_leaves_no_temp_files_behind() {
        let t = sample();
        let dir = scratch_dir("atomic");
        let path = dir.join("atomic.bptr");
        t.save(&path).unwrap();
        t.save(&path).unwrap(); // overwrite is atomic too
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["atomic.bptr".to_string()], "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
