//! Minimal binary codec shared by the engine's wire format and the serving
//! crate's snapshot/WAL encodings: LEB128 varints, fixed-width little-endian
//! scalars, and a CRC-32 frame check. Dependency-free by construction (the
//! build environment vendors no serde).
//!
//! The message fabric's wire format ([`crate::wire`]) and the persistence
//! layer (`spinner_serving`'s snapshot and WAL) share this one
//! implementation and import it from here.

use std::fmt;

/// Decoding failure: the byte stream is truncated or structurally invalid.
///
/// A `Corrupt` *tail* of a write-ahead log is expected after a crash and is
/// handled by truncating to the last whole record; corruption anywhere else
/// is surfaced to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptError {
    /// What the decoder was reading when the bytes ran out or mismatched.
    pub context: &'static str,
}

impl fmt::Display for CorruptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt or truncated encoding while reading {}", self.context)
    }
}

impl std::error::Error for CorruptError {}

/// Shorthand for codec results.
pub type Result<T> = std::result::Result<T, CorruptError>;

/// Append-only byte sink with varint primitives.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer appending to `buf` — lets callers recycle a drained buffer
    /// (e.g. a transport frame) so its capacity persists across encodes.
    pub fn wrap(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Appends `value` as an LEB128 varint (1–10 bytes).
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let byte = (value & 0x7F) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends an `f64` as its fixed 8-byte little-endian bit pattern
    /// (bit-exact round trip; varints would mangle NaN payloads and cost
    /// more for typical doubles anyway).
    pub fn put_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Appends one raw byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a fixed 4-byte little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a fixed 8-byte little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Forward-only reader over an encoded byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads an LEB128 varint appended by [`ByteWriter::put_varint`].
    pub fn varint(&mut self, context: &'static str) -> Result<u64> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = *self.buf.get(self.pos).ok_or(CorruptError { context })?;
            self.pos += 1;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CorruptError { context })
    }

    /// Reads a fixed 8-byte `f64` appended by [`ByteWriter::put_f64`].
    pub fn f64(&mut self, context: &'static str) -> Result<f64> {
        let end = self.pos.checked_add(8).ok_or(CorruptError { context })?;
        let bytes = self.buf.get(self.pos..end).ok_or(CorruptError { context })?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8 bytes"))))
    }

    /// Reads one raw byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        let byte = *self.buf.get(self.pos).ok_or(CorruptError { context })?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a fixed 4-byte little-endian `u32` appended by
    /// [`ByteWriter::put_u32`].
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let end = self.pos.checked_add(4).ok_or(CorruptError { context })?;
        let bytes = self.buf.get(self.pos..end).ok_or(CorruptError { context })?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a fixed 8-byte little-endian `u64` appended by
    /// [`ByteWriter::put_u64`].
    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        let end = self.pos.checked_add(8).ok_or(CorruptError { context })?;
        let bytes = self.buf.get(self.pos..end).ok_or(CorruptError { context })?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// CRC-32 (IEEE 802.3, reflected) slice-by-8 tables, built at compile
/// time: `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table reads fold
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data` — the frame check appended to every snapshot,
/// WAL record, and wire frame so a torn or bit-rotted tail is detected
/// before any of it is interpreted. Folds eight bytes per step (slice-by-8)
/// and the tail bytewise; the value is the bytewise CRC's.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_bytewise(crc, words.remainder())
}

/// Folds `data` into the running (inverted) CRC `crc` a byte at a time and
/// finishes it.
fn crc32_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let values =
            [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.varint("test").expect("decodes"), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn f64_round_trips_bit_exact() {
        let values = [0.0f64, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY, f64::NAN];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.f64("test").expect("decodes").to_bits(), v.to_bits());
        }
    }

    #[test]
    fn fixed_width_scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 12);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32("test").expect("decodes"), 0xDEAD_BEEF);
        assert_eq!(r.u64("test").expect("decodes"), u64::MAX - 7);
        assert!(r.is_exhausted());
        assert!(ByteReader::new(&bytes[..3]).u32("test").is_err());
    }

    #[test]
    fn wrap_keeps_the_buffer_capacity() {
        let mut buf = Vec::with_capacity(64);
        buf.clear();
        let cap = buf.capacity();
        let mut w = ByteWriter::wrap(buf);
        w.put_varint(5);
        let buf = w.into_bytes();
        assert_eq!(buf.capacity(), cap, "wrap/into_bytes must not reallocate");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_varint(1 << 40);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert!(r.varint("test").is_err());
        let mut r = ByteReader::new(&[0xFF; 11]);
        assert!(r.varint("test").is_err(), "over-long varint accepted");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The slice-by-8 kernel equals the bytewise loop on every length
        /// from 0 to 4096, from aligned and unaligned starts.
        #[test]
        fn slice_by_8_equals_the_bytewise_crc(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 4104),
            len in 0usize..=4096,
            start in 0usize..8,
        ) {
            let data = &bytes[start..start + len];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(!0, data));
        }
    }
}
