//! The one little-endian binary codec behind every byte-exact format in
//! the workspace: [`crate::checkpoint`] files, persisted replica results
//! and the fleet IPC frames.
//!
//! Field order *is* the format: an encoder and its decoder must visit
//! fields identically, which each format's round-trip tests pin down.
//! Floats travel as their `to_bits` pattern, so NaN payloads, signed
//! zeros and subnormals survive unchanged. The decoder bounds-checks
//! every read and accepts exactly the bytes the encoder can produce
//! (flags are 0 or 1, nothing else), so a decoded value always
//! re-encodes to its input and malformed bytes surface as a
//! [`DecodeError`], never a panic.

use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A writer with `n` bytes preallocated.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64`.
    pub fn size(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f32` as its bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// An `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A boolean as one byte, 0 or 1.
    pub fn flag(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// A length-prefixed `u32` slice.
    pub fn u32s(&mut self, xs: &[u32]) {
        self.size(xs.len());
        for &x in xs {
            self.u32(x);
        }
    }

    /// A length-prefixed `f32` slice.
    pub fn f32s(&mut self, xs: &[f32]) {
        self.size(xs.len());
        for &x in xs {
            self.f32(x);
        }
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.size(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes ended early, or a length prefix claims more than remain.
    Truncated,
    /// A flag byte other than 0 or 1.
    BadFlag(u8),
    /// A string field that is not UTF-8.
    BadUtf8,
    /// Decoding finished with this many bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::BadFlag(b) => write!(f, "bad flag byte {b}"),
            DecodeError::BadUtf8 => write!(f, "non-UTF-8 string"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Bounds-checked little-endian reader.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `usize` written by [`Enc::size`].
    pub fn size(&mut self) -> Result<usize, DecodeError> {
        Ok(self.u64()? as usize)
    }

    /// An `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A boolean byte: 0 or 1, nothing else.
    pub fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadFlag(b)),
        }
    }

    /// A length prefix of elements `elem_size` bytes wide, checked
    /// against the bytes that remain so a corrupt length cannot trigger a
    /// huge allocation.
    pub fn len(&mut self, elem_size: usize) -> Result<usize, DecodeError> {
        let n = self.size()?;
        if n.saturating_mul(elem_size.max(1)) > self.buf.len() - self.pos {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A slice written by [`Enc::u32s`].
    pub fn u32s(&mut self) -> Result<Vec<u32>, DecodeError> {
        let n = self.len(4)?;
        let bytes = self.take(4 * n)?.chunks_exact(4);
        Ok(bytes
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
            .collect())
    }

    /// A slice written by [`Enc::f32s`].
    pub fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        Ok(self.u32s()?.into_iter().map(f32::from_bits).collect())
    }

    /// A string written by [`Enc::str`].
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Ends decoding: every byte must have been consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

/// Writes `bytes` atomically (temp file + fsync + rename), so an
/// interrupt mid-write never leaves a half-written file where a reader
/// would look. Every durable artifact goes through here: checkpoints,
/// checkpoint-store cells and the JSON reports.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}
