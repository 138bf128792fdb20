//! Compact wire format for message-record batches.
//!
//! A *frame* is the unit a [`crate::transport::Transport`] moves between two
//! workers: every record one worker's outbox holds for one destination
//! worker at the end of a compute phase, encoded into a single contiguous
//! byte buffer. Two encodings share the frame envelope:
//!
//! - [`WireFormat::Raw`] — 8-byte little-endian absolute ids plus
//!   fixed-width payloads ([`WirePayload::write_fixed`]). The verification
//!   arm: trivially correct, cap-free, byte-hungry.
//! - [`WireFormat::Compact`] — destination ids as LEB128 varints with
//!   delta encoding inside sorted unicast runs, and payload-width
//!   specialized value encoding ([`WirePayload::write_compact`]: varints
//!   for unsigned integers, zigzag varints for signed, fixed bit patterns
//!   for floats).
//!
//! # Frame layout
//!
//! ```text
//! [format: u8] [section]* [0x00 terminator] [varint unicast_logical] [crc32 LE u32]
//!
//! section := varint h = (record_count << 1) | broadcast_flag   (count ≥ 1 ⇒ h ≥ 2)
//!            ids (columnar)                                     payloads (columnar)
//!   Raw     ids: count × u64 LE                                 count × write_fixed
//!   Compact unicast ids:   varint first, then (count-1) varint deltas (≥ 0)
//!           broadcast ids: count × varint absolute               count × write_compact
//! ```
//!
//! The broadcast flag rides in the **section header** — the wire form of
//! the marks an in-memory batch keeps beside its records — so ids are full
//! `u64` on the wire.
//! The trailing `unicast_logical` varint carries the *pre-fold* logical
//! unicast record count, so receiver-side `recv_remote` accounting is
//! invariant under sender-side combiner folding. The CRC-32 covers every
//! preceding byte and is validated before anything is interpreted, so a
//! torn or corrupted frame yields a typed [`WireError`], never a panic.
//!
//! Encoders split a Compact unicast run defensively whenever the next id is
//! smaller than the previous one, so arbitrary (unsorted) batches still
//! round-trip bit-identically; the engine sorts runs by destination before
//! encoding, which both maximizes delta compression and makes same-
//! destination records adjacent for combiner folding.

use crate::codec::{crc32, ByteReader, ByteWriter, CorruptError};
use std::fmt;

/// Which record-batch encoding frames use on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Absolute 8-byte ids + fixed-width payloads (verification arm).
    Raw = 0,
    /// Delta/varint ids + width-specialized payloads (default).
    #[default]
    Compact = 1,
}

/// Typed decode failure: the frame is torn, corrupted, or structurally
/// invalid. Decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than the minimal envelope (format byte + terminator +
    /// logical count + CRC).
    Truncated,
    /// CRC-32 over the frame body does not match the stored check value.
    ChecksumMismatch,
    /// Unknown format discriminant in the frame header.
    UnknownFormat(u8),
    /// A field inside the (checksum-valid) body failed to parse.
    Corrupt(CorruptError),
    /// Bytes remain after the logical-count trailer — the body is longer
    /// than its own structure claims.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame shorter than the minimal envelope"),
            Self::ChecksumMismatch => write!(f, "frame CRC-32 mismatch"),
            Self::UnknownFormat(b) => write!(f, "unknown wire format discriminant {b}"),
            Self::Corrupt(e) => write!(f, "corrupt frame body: {e}"),
            Self::TrailingBytes => write!(f, "trailing bytes after frame body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CorruptError> for WireError {
    fn from(e: CorruptError) -> Self {
        Self::Corrupt(e)
    }
}

/// A message payload that knows how to serialize itself onto the wire.
///
/// Every engine message type ([`crate::Program::M`]) implements this.
/// `write_fixed`/`read_fixed` must round-trip bit-exactly in exactly
/// [`WIDTH`](Self::WIDTH) bytes; `write_compact`/`read_compact` may use a
/// variable-length encoding (they default to the fixed one) and must also
/// round-trip bit-exactly.
pub trait WirePayload: Sized {
    /// Encoded size in bytes under the fixed-width encoding.
    const WIDTH: usize;

    /// Appends the fixed-width encoding.
    fn write_fixed(&self, w: &mut ByteWriter);

    /// Reads a value appended by [`write_fixed`](Self::write_fixed).
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self>;

    /// Appends the width-specialized compact encoding (defaults to fixed).
    fn write_compact(&self, w: &mut ByteWriter) {
        self.write_fixed(w);
    }

    /// Reads a value appended by [`write_compact`](Self::write_compact).
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Self::read_fixed(r)
    }
}

impl WirePayload for () {
    const WIDTH: usize = 0;
    fn write_fixed(&self, _w: &mut ByteWriter) {}
    fn read_fixed(_r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(())
    }
}

impl WirePayload for u8 {
    const WIDTH: usize = 1;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.u8("u8 payload")
    }
}

impl WirePayload for u16 {
    const WIDTH: usize = 2;
    fn write_fixed(&self, w: &mut ByteWriter) {
        let b = self.to_le_bytes();
        w.put_u8(b[0]);
        w.put_u8(b[1]);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(u16::from_le_bytes([r.u8("u16 payload")?, r.u8("u16 payload")?]))
    }
    fn write_compact(&self, w: &mut ByteWriter) {
        w.put_varint(u64::from(*self));
    }
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        let v = r.varint("u16 payload")?;
        u16::try_from(v).map_err(|_| CorruptError { context: "u16 payload range" })
    }
}

impl WirePayload for u32 {
    const WIDTH: usize = 4;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.u32("u32 payload")
    }
    fn write_compact(&self, w: &mut ByteWriter) {
        w.put_varint(u64::from(*self));
    }
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        let v = r.varint("u32 payload")?;
        u32::try_from(v).map_err(|_| CorruptError { context: "u32 payload range" })
    }
}

impl WirePayload for u64 {
    const WIDTH: usize = 8;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.u64("u64 payload")
    }
    fn write_compact(&self, w: &mut ByteWriter) {
        w.put_varint(*self);
    }
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.varint("u64 payload")
    }
}

/// Zigzag-encodes a signed integer so small magnitudes get small varints.
fn zigzag64(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag64`].
fn unzigzag64(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

impl WirePayload for i32 {
    const WIDTH: usize = 4;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_u32(*self as u32);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(r.u32("i32 payload")? as i32)
    }
    fn write_compact(&self, w: &mut ByteWriter) {
        w.put_varint(zigzag64(i64::from(*self)));
    }
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        let v = unzigzag64(r.varint("i32 payload")?);
        i32::try_from(v).map_err(|_| CorruptError { context: "i32 payload range" })
    }
}

impl WirePayload for i64 {
    const WIDTH: usize = 8;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(r.u64("i64 payload")? as i64)
    }
    fn write_compact(&self, w: &mut ByteWriter) {
        w.put_varint(zigzag64(*self));
    }
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(unzigzag64(r.varint("i64 payload")?))
    }
}

impl WirePayload for f32 {
    const WIDTH: usize = 4;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_u32(self.to_bits());
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(f32::from_bits(r.u32("f32 payload")?))
    }
}

impl WirePayload for f64 {
    const WIDTH: usize = 8;
    fn write_fixed(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.f64("f64 payload")
    }
}

impl<A: WirePayload, B: WirePayload> WirePayload for (A, B) {
    const WIDTH: usize = A::WIDTH + B::WIDTH;
    fn write_fixed(&self, w: &mut ByteWriter) {
        self.0.write_fixed(w);
        self.1.write_fixed(w);
    }
    fn read_fixed(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok((A::read_fixed(r)?, B::read_fixed(r)?))
    }
    fn write_compact(&self, w: &mut ByteWriter) {
        self.0.write_compact(w);
        self.1.write_compact(w);
    }
    fn read_compact(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok((A::read_compact(r)?, B::read_compact(r)?))
    }
}

/// One decoded message record: destination (or sender, for broadcasts)
/// vertex id, broadcast flag, and payload.
///
/// `id` is a full `u64` on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRecord<M> {
    /// True when this record is a broadcast (id names the *sender*; the
    /// receiver expands it through its fan-out index).
    pub broadcast: bool,
    /// Destination vertex id (unicast) or global sender id (broadcast).
    pub id: u64,
    /// The message payload.
    pub msg: M,
}

/// Encodes `records` into a frame, appending to `buf` (which the caller
/// typically recycles via the transport so its capacity persists).
///
/// `unicast_logical` is the *pre-fold* count of logical unicast records the
/// batch represents; it rides in the frame trailer so receiver-side
/// accounting is invariant under sender-side folding. Records are split
/// into sections at every broadcast-flag change (and, for
/// [`WireFormat::Compact`], at any descending unicast id, so unsorted input
/// still round-trips).
pub fn encode_frame<M: WirePayload>(
    format: WireFormat,
    records: &[WireRecord<M>],
    unicast_logical: u64,
    buf: Vec<u8>,
) -> Vec<u8> {
    let mut w = ByteWriter::wrap(buf);
    w.put_u8(format as u8);
    let mut i = 0;
    while i < records.len() {
        let flag = records[i].broadcast;
        let mut j = i + 1;
        while j < records.len() && records[j].broadcast == flag {
            if format == WireFormat::Compact && !flag && records[j].id < records[j - 1].id {
                break;
            }
            j += 1;
        }
        let run = &records[i..j];
        w.put_varint(((run.len() as u64) << 1) | u64::from(flag));
        match format {
            WireFormat::Raw => {
                for r in run {
                    w.put_u64(r.id);
                }
            }
            WireFormat::Compact if !flag => {
                w.put_varint(run[0].id);
                for k in 1..run.len() {
                    w.put_varint(run[k].id - run[k - 1].id);
                }
            }
            WireFormat::Compact => {
                for r in run {
                    w.put_varint(r.id);
                }
            }
        }
        for r in run {
            match format {
                WireFormat::Raw => r.msg.write_fixed(&mut w),
                WireFormat::Compact => r.msg.write_compact(&mut w),
            }
        }
        i = j;
    }
    w.put_varint(0); // section terminator
    w.put_varint(unicast_logical);
    let crc = crc32(w.as_slice());
    w.put_u32(crc);
    w.into_bytes()
}

/// Smallest well-formed frame: format byte + section-terminator varint +
/// logical-count varint + 4-byte CRC. Transport decorators use this bound
/// to reject torn frames before structural decoding.
pub const MIN_FRAME_LEN: usize = 7;

/// Whether `bytes` ends with a valid frame CRC — the fast structural check
/// a transport reliability layer runs before accepting a frame, without
/// decoding any records. Equivalent to [`decode_frame`]'s first gate.
pub fn frame_checksum_ok(bytes: &[u8]) -> bool {
    if bytes.len() < MIN_FRAME_LEN {
        return false;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let expect = u32::from_le_bytes(tail.try_into().expect("4-byte CRC tail"));
    crc32(body) == expect
}

/// Decodes a frame produced by [`encode_frame`], appending the records to
/// `out` in their encoded order and returning the pre-fold logical unicast
/// count from the trailer.
///
/// The CRC is validated **first**, before any field is interpreted; torn,
/// truncated, or corrupted frames return a typed [`WireError`] and never
/// panic. `id_scratch` is working storage for a section's ids (kept by the
/// caller so steady-state decoding allocates nothing once warm).
pub fn decode_frame<M: WirePayload>(
    bytes: &[u8],
    id_scratch: &mut Vec<u64>,
    out: &mut Vec<WireRecord<M>>,
) -> Result<u64, WireError> {
    if bytes.len() < MIN_FRAME_LEN {
        return Err(WireError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let expect = u32::from_le_bytes(tail.try_into().expect("4-byte CRC tail"));
    if crc32(body) != expect {
        return Err(WireError::ChecksumMismatch);
    }
    let mut r = ByteReader::new(body);
    let format = match r.u8("wire format")? {
        0 => WireFormat::Raw,
        1 => WireFormat::Compact,
        b => return Err(WireError::UnknownFormat(b)),
    };
    loop {
        let h = r.varint("section header")?;
        if h == 0 {
            break;
        }
        if h == 1 {
            // count 0 with the broadcast flag set: structurally impossible
            // output of encode_frame.
            return Err(WireError::Corrupt(CorruptError { context: "empty section" }));
        }
        let broadcast = h & 1 == 1;
        let count = usize::try_from(h >> 1)
            .map_err(|_| WireError::Corrupt(CorruptError { context: "section count" }))?;
        // Every id costs at least one body byte, so a count beyond the
        // remaining bytes is corrupt; this also caps the reserve below.
        if count > r.remaining() {
            return Err(WireError::Corrupt(CorruptError { context: "section count" }));
        }
        id_scratch.clear();
        id_scratch.reserve(count);
        match format {
            WireFormat::Raw => {
                for _ in 0..count {
                    id_scratch.push(r.u64("record id")?);
                }
            }
            WireFormat::Compact if !broadcast => {
                let mut id = r.varint("record id")?;
                id_scratch.push(id);
                for _ in 1..count {
                    let delta = r.varint("record id delta")?;
                    id = id
                        .checked_add(delta)
                        .ok_or(WireError::Corrupt(CorruptError { context: "id overflow" }))?;
                    id_scratch.push(id);
                }
            }
            WireFormat::Compact => {
                for _ in 0..count {
                    id_scratch.push(r.varint("record id")?);
                }
            }
        }
        out.reserve(count);
        for &id in id_scratch.iter() {
            let msg = match format {
                WireFormat::Raw => M::read_fixed(&mut r)?,
                WireFormat::Compact => M::read_compact(&mut r)?,
            };
            out.push(WireRecord { broadcast, id, msg });
        }
    }
    let unicast_logical = r.varint("logical unicast count")?;
    if !r.is_exhausted() {
        return Err(WireError::TrailingBytes);
    }
    Ok(unicast_logical)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WirePayload + PartialEq + Copy + std::fmt::Debug>(
        format: WireFormat,
        records: &[WireRecord<M>],
        logical: u64,
    ) -> Vec<u8> {
        let frame = encode_frame(format, records, logical, Vec::new());
        let mut out = Vec::new();
        let got = decode_frame::<M>(&frame, &mut Vec::new(), &mut out).expect("decodes");
        assert_eq!(got, logical);
        assert_eq!(out, records);
        frame
    }

    #[test]
    fn empty_batch_round_trips() {
        for format in [WireFormat::Raw, WireFormat::Compact] {
            roundtrip::<u64>(format, &[], 0);
        }
    }

    #[test]
    fn mixed_batch_round_trips_in_order() {
        let records = [
            WireRecord { broadcast: false, id: 3, msg: 10u64 },
            WireRecord { broadcast: false, id: 3, msg: 11 },
            WireRecord { broadcast: false, id: 9, msg: 12 },
            WireRecord { broadcast: true, id: 4, msg: 13 },
            WireRecord { broadcast: true, id: 2, msg: 14 },
            WireRecord { broadcast: false, id: 7, msg: 15 },
        ];
        for format in [WireFormat::Raw, WireFormat::Compact] {
            roundtrip(format, &records, 4);
        }
    }

    #[test]
    fn ids_beyond_the_lane_cap_round_trip() {
        // The wire carries full u64 ids in both formats.
        let records = [
            WireRecord { broadcast: true, id: 1u64 << 31, msg: 1u32 },
            WireRecord { broadcast: true, id: u64::MAX, msg: 2 },
            WireRecord { broadcast: false, id: (1 << 31) + 5, msg: 3 },
            WireRecord { broadcast: false, id: u64::MAX - 1, msg: 4 },
        ];
        for format in [WireFormat::Raw, WireFormat::Compact] {
            roundtrip(format, &records, 2);
        }
    }

    #[test]
    fn unsorted_unicast_ids_still_round_trip_compact() {
        // Descending ids force the encoder's defensive section split.
        let records: Vec<WireRecord<u32>> = (0..20)
            .map(|i| WireRecord { broadcast: false, id: (19 - i) * 7, msg: i as u32 })
            .collect();
        roundtrip(WireFormat::Compact, &records, 20);
    }

    #[test]
    fn compact_is_smaller_on_sorted_runs() {
        let records: Vec<WireRecord<u32>> = (0..100)
            .map(|i| WireRecord { broadcast: false, id: 1000 + i, msg: 1u32 })
            .collect();
        let raw = encode_frame(WireFormat::Raw, &records, 100, Vec::new());
        let compact = encode_frame(WireFormat::Compact, &records, 100, Vec::new());
        assert!(
            compact.len() * 2 < raw.len(),
            "compact {} not 2x smaller than raw {}",
            compact.len(),
            raw.len()
        );
    }

    #[test]
    fn torn_and_corrupt_frames_are_typed_errors() {
        let records = [WireRecord { broadcast: false, id: 42, msg: 7u64 }];
        let frame = encode_frame(WireFormat::Compact, &records, 1, Vec::new());
        // Every proper prefix fails (truncation tears the CRC).
        for len in 0..frame.len() {
            let err = decode_frame::<u64>(&frame[..len], &mut Vec::new(), &mut Vec::new())
                .expect_err("truncated frame accepted");
            assert!(
                matches!(err, WireError::Truncated | WireError::ChecksumMismatch),
                "unexpected error {err:?} at prefix {len}"
            );
        }
        // Every single-bit flip fails the checksum or parses as corrupt.
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x01;
            assert!(
                decode_frame::<u64>(&bad, &mut Vec::new(), &mut Vec::new()).is_err(),
                "bit flip at byte {byte} accepted"
            );
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag64(zigzag64(v)), v);
        }
    }

    #[test]
    fn payload_impls_round_trip_both_encodings() {
        fn check<M: WirePayload + PartialEq + std::fmt::Debug>(v: M) {
            let mut w = ByteWriter::new();
            v.write_fixed(&mut w);
            assert_eq!(w.as_slice().len(), M::WIDTH);
            v.write_compact(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(M::read_fixed(&mut r).expect("fixed"), v);
            assert_eq!(M::read_compact(&mut r).expect("compact"), v);
            assert!(r.is_exhausted());
        }
        check(());
        check(0xABu8);
        check(0xABCDu16);
        check(0xDEAD_BEEFu32);
        check(u64::MAX - 3);
        check(-5i32);
        check(i64::MIN);
        check(1.5f32);
        check(-0.0f64);
        check((42u32, 7u32));
        check((u64::MAX, -1i64));
    }
}
