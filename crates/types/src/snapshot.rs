//! Versioned, self-describing binary snapshot format.
//!
//! A snapshot holds the full mutable state of a `System` or an attack
//! run mid-run, RNG streams included, and restores it bit-identically
//! into a freshly built value of the same configuration. This module is
//! the wire format: a hand-rolled writer/reader pair with no external
//! dependencies, so the workspace stays dependency-free.
//!
//! Configuration is recorded once. Each DRAM device's section opens
//! with the device identity, the `Debug` form of its configuration
//! (engine and every mitigation parameter, geometry, checker, flip
//! plane, seed and channel), and restore compares it before loading
//! anything else. Every other section holds only mutable state and
//! never echoes configuration; the configuration also fixes which
//! optional sections are present. Lengths and indices read from the
//! stream are still bounds-checked, since they are input from outside
//! the program. Snapshots are restored only in-process by the same
//! build.
//!
//! # Layout
//!
//! ```text
//! magic  "MPSN"          4 bytes
//! version u32 LE         4 bytes
//! sections...            (tag u32 LE, body-len u64 LE, body bytes) — nestable
//! checksum u64 LE        checksum64 over everything before it
//! ```
//!
//! All integers are little-endian and fixed-width; `f64` values travel as
//! their IEEE-754 bit patterns so NaN payloads and signed zeros survive.
//! Section tags and the version word make a reader fail loudly, instead
//! of misinterpreting bytes, when the writer and reader disagree about
//! structure.
//!
//! # Examples
//!
//! ```
//! use mopac_types::snapshot::{SnapshotReader, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new();
//! w.begin_section(0x1001);
//! w.put_u64(42);
//! w.put_f64(1.5);
//! w.end_section();
//! let bytes = w.finish();
//!
//! let mut r = SnapshotReader::new(&bytes).unwrap();
//! r.begin_section(0x1001).unwrap();
//! assert_eq!(r.take_u64().unwrap(), 42);
//! assert_eq!(r.take_f64().unwrap(), 1.5);
//! r.end_section().unwrap();
//! ```

use crate::error::{MopacError, MopacResult};

/// File magic: `"MPSN"` (MoPAC SNapshot).
pub const MAGIC: [u8; 4] = *b"MPSN";

/// Current format version. Bump on any layout change; readers reject
/// mismatched versions rather than guessing.
pub const VERSION: u32 = 3;

/// The snapshot checksum: each 8-byte little-endian word (the tail
/// zero-padded) is folded in with `h = rotl((h ^ w) * K, 29)`, then the
/// length and the SplitMix64 finalizer. Every step is a bijection of
/// `h`, so equal-length inputs differing in one word always differ in
/// checksum. One multiply per 8 bytes, where FNV-1a needs one per byte.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(K).rotate_left(29);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(K).rotate_left(29);
    }
    h ^= bytes.len() as u64;
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// FNV-1a 64-bit hash — the digest of the campaign manifest and of the
/// bit-identity goldens. Small, dependency-free, and stable across
/// platforms; byte-serial, so the snapshot checksum is
/// [`checksum64`] instead.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Anything whose runtime-mutable state can be captured into a snapshot
/// section and later restored bit-identically.
///
/// The contract: `load_state` on a freshly constructed value (same
/// configuration) followed by any sequence of operations must behave
/// bit-identically to the original value under that same sequence.
/// Configuration is *not* serialized and not re-checked here: restore
/// always starts from a fresh construction, and the device identity
/// (see the module docs) has already matched the configuration.
pub trait Snapshottable {
    /// Appends this component's mutable state to the snapshot.
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restores this component's mutable state from the snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] when the snapshot bytes do not
    /// match what `save_state` wrote (wrong tag, truncated section, or a
    /// length or index out of bounds).
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> MopacResult<()>;
}

/// Serializer for the snapshot format. Append-only; call [`finish`] to
/// seal the buffer with its checksum.
///
/// [`finish`]: SnapshotWriter::finish
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// Byte offsets of the length fields of currently open sections.
    open: Vec<usize>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// Starts a snapshot: writes the magic and version header.
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        Self { buf, open: Vec::new() }
    }

    /// Opens a section tagged `tag`. Sections nest; every open section
    /// must be closed with [`end_section`](Self::end_section) before
    /// [`finish`](Self::finish).
    pub fn begin_section(&mut self, tag: u32) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.open.push(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Closes the most recently opened section, backpatching its length.
    ///
    /// # Panics
    ///
    /// Panics if no section is open — always a programming error in a
    /// `save_state` implementation, never a data-dependent condition.
    pub fn end_section(&mut self) {
        let len_at = self.open.pop().unwrap_or_else(|| {
            panic!("end_section with no open section");
        });
        let body_len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a placeholder `usize` for a count known only once the
    /// items it counts are written; returns its offset for
    /// [`Self::patch_usize`].
    pub fn reserve_usize(&mut self) -> usize {
        let at = self.buf.len();
        self.put_usize(0);
        at
    }

    /// Fills in a placeholder written by [`Self::reserve_usize`].
    pub fn patch_usize(&mut self, at: usize, v: usize) {
        self.buf[at..at + 8].copy_from_slice(&(v as u64).to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, so restore is
    /// bit-exact (NaN payloads and `-0.0` included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends `Some`/`None` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends `Some`/`None` as a presence byte plus the value.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u32(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Seals the snapshot: appends the [`checksum64`] checksum and
    /// returns the bytes.
    ///
    /// # Panics
    ///
    /// Panics if a section is still open (a `save_state` bug).
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        assert!(self.open.is_empty(), "finish with {} open section(s)", self.open.len());
        let sum = checksum64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Deserializer for the snapshot format. Verifies the magic, version,
/// and checksum up front, then replays sections in writer order.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// End offsets of currently open sections (innermost last).
    ends: Vec<usize>,
}

fn snap_err(message: impl Into<String>) -> MopacError {
    MopacError::Snapshot { message: message.into() }
}

impl<'a> SnapshotReader<'a> {
    /// Validates the header and checksum and positions the reader at the
    /// first section.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on a short buffer, bad magic,
    /// version mismatch, or checksum failure.
    pub fn new(bytes: &'a [u8]) -> MopacResult<Self> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(snap_err(format!("snapshot too short: {} bytes", bytes.len())));
        }
        if bytes[..4] != MAGIC {
            return Err(snap_err("bad snapshot magic"));
        }
        let body = &bytes[..bytes.len() - 8];
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[bytes.len() - 8..]);
        let expect = u64::from_le_bytes(sum);
        let got = checksum64(body);
        if got != expect {
            return Err(snap_err(format!(
                "snapshot checksum mismatch: stored {expect:#018x}, computed {got:#018x}"
            )));
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&bytes[4..8]);
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(snap_err(format!(
                "snapshot version {version} unsupported (reader speaks {VERSION})"
            )));
        }
        Ok(Self { buf: body, pos: 8, ends: Vec::new() })
    }

    fn take(&mut self, n: usize) -> MopacResult<&'a [u8]> {
        let limit = self.ends.last().copied().unwrap_or(self.buf.len());
        if self.pos + n > limit {
            return Err(snap_err(format!(
                "snapshot truncated: need {n} bytes at offset {}, section ends at {limit}",
                self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Opens the next section, verifying its tag is `tag`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on a tag mismatch or a section
    /// body that overruns its parent.
    pub fn begin_section(&mut self, tag: u32) -> MopacResult<()> {
        let raw = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(raw);
        let got = u32::from_le_bytes(b);
        if got != tag {
            return Err(snap_err(format!(
                "section tag mismatch: expected {tag:#010x}, found {got:#010x}"
            )));
        }
        let len = self.take_u64()? as usize;
        let limit = self.ends.last().copied().unwrap_or(self.buf.len());
        let end = self.pos.checked_add(len).filter(|&e| e <= limit).ok_or_else(|| {
            snap_err(format!("section {tag:#010x} length {len} overruns enclosing scope"))
        })?;
        self.ends.push(end);
        Ok(())
    }

    /// Closes the innermost section, verifying it was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] when bytes remain unread (a
    /// writer/reader shape mismatch) or no section is open.
    pub fn end_section(&mut self) -> MopacResult<()> {
        let end = self
            .ends
            .pop()
            .ok_or_else(|| snap_err("end_section with no open section"))?;
        if self.pos != end {
            return Err(snap_err(format!(
                "section not fully consumed: {} byte(s) left",
                end - self.pos
            )));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation.
    pub fn take_u8(&mut self) -> MopacResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation.
    pub fn take_u32(&mut self) -> MopacResult<u32> {
        let raw = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(raw);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation.
    pub fn take_u64(&mut self) -> MopacResult<u64> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` written with [`SnapshotWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation or a value that
    /// does not fit this platform's `usize`.
    pub fn take_usize(&mut self) -> MopacResult<usize> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| snap_err(format!("usize value {v} out of range")))
    }

    /// Reads a `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation or a byte that is
    /// neither 0 nor 1.
    pub fn take_bool(&mut self) -> MopacResult<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(snap_err(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation.
    pub fn take_f64(&mut self) -> MopacResult<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an `Option<u64>`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation or a bad presence
    /// byte.
    pub fn take_opt_u64(&mut self) -> MopacResult<Option<u64>> {
        if self.take_bool()? {
            Ok(Some(self.take_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an `Option<u32>`.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation or a bad presence
    /// byte.
    pub fn take_opt_u32(&mut self) -> MopacResult<Option<u32>> {
        if self.take_bool()? {
            Ok(Some(self.take_u32()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation.
    pub fn take_bytes(&mut self) -> MopacResult<&'a [u8]> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`MopacError::Snapshot`] on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> MopacResult<&'a str> {
        let raw = self.take_bytes()?;
        std::str::from_utf8(raw).map_err(|e| snap_err(format!("invalid UTF-8 in snapshot: {e}")))
    }

    /// True once every byte (checksum excluded) has been consumed and no
    /// section remains open.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.ends.is_empty() && self.pos == self.buf.len()
    }
}

/// Validates that a reader consumed its snapshot completely — the
/// end-of-restore check every `load_state` driver should make.
///
/// # Errors
///
/// Returns [`MopacError::Snapshot`] when trailing bytes remain.
pub fn expect_exhausted(r: &SnapshotReader<'_>) -> MopacResult<()> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(snap_err("snapshot has trailing unread bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = SnapshotWriter::new();
        w.begin_section(1);
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_opt_u64(Some(9));
        w.put_opt_u64(None);
        w.put_opt_u32(Some(3));
        w.put_str("héllo");
        w.end_section();
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_usize().unwrap(), 12345);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert_eq!(r.take_opt_u64().unwrap(), Some(9));
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_opt_u32().unwrap(), Some(3));
        assert_eq!(r.take_str().unwrap(), "héllo");
        r.end_section().unwrap();
        assert!(r.is_exhausted());
        expect_exhausted(&r).unwrap();
    }

    #[test]
    fn nested_sections() {
        let mut w = SnapshotWriter::new();
        w.begin_section(0xA);
        w.put_u64(1);
        w.begin_section(0xB);
        w.put_u64(2);
        w.end_section();
        w.put_u64(3);
        w.end_section();
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(0xA).unwrap();
        assert_eq!(r.take_u64().unwrap(), 1);
        r.begin_section(0xB).unwrap();
        assert_eq!(r.take_u64().unwrap(), 2);
        r.end_section().unwrap();
        assert_eq!(r.take_u64().unwrap(), 3);
        r.end_section().unwrap();
        assert!(r.is_exhausted());
    }

    #[test]
    fn corruption_is_detected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(5);
        w.put_u64(0x1234);
        w.end_section();
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = SnapshotReader::new(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(5);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = r.begin_section(6).unwrap_err();
        assert!(err.to_string().contains("tag mismatch"), "{err}");
    }

    #[test]
    fn underconsumed_section_is_detected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(5);
        w.put_u64(1);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(5).unwrap();
        let err = r.end_section().unwrap_err();
        assert!(err.to_string().contains("not fully consumed"), "{err}");
    }

    #[test]
    fn section_cannot_read_past_its_end() {
        let mut w = SnapshotWriter::new();
        w.begin_section(5);
        w.put_u32(1);
        w.end_section();
        w.begin_section(6);
        w.put_u64(2);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(5).unwrap();
        // The section holds only 4 bytes; a u64 read must fail instead of
        // bleeding into the next section.
        assert!(r.take_u64().is_err());
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(1);
        w.end_section();
        let mut bytes = w.finish();
        // Patch the version field and re-seal the checksum.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let sum = checksum64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = SnapshotReader::new(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn checksum_detects_any_single_word_change() {
        // Every step is a bijection of the running hash, so changing any
        // one word (or the zero-padded tail) must change the sum; the
        // length term separates inputs that differ only in trailing
        // zero bytes.
        let base: Vec<u8> = (0u8..45).collect();
        let sum = checksum64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut b = base.clone();
                b[i] ^= 1 << bit;
                assert_ne!(checksum64(&b), sum, "byte {i} bit {bit}");
            }
        }
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(checksum64(&padded), sum);
        assert_ne!(checksum64(b""), checksum64(&[0]));
        assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 16]));
    }

    #[test]
    fn fnv_reference_values() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
