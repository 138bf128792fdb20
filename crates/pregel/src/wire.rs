//! Compact wire format for message-record batches.
//!
//! A *frame* is the unit a [`crate::transport::Transport`] moves between two
//! workers: every record one worker's outbox holds for one destination
//! worker at the end of a compute phase, encoded into a single contiguous
//! byte buffer. Destination ids are LEB128 varints with delta encoding
//! inside sorted unicast runs, and payloads use a width-specialized value
//! encoding ([`WirePayload::write`]: varints for unsigned integers, fixed
//! bit patterns for floats).
//!
//! # Frame layout
//!
//! ```text
//! [format: u8 = 1] [section]* [0x00 terminator] [varint unicast_logical] [crc32 LE u32]
//!
//! section := varint h = (record_count << 1) | broadcast_flag   (count ≥ 1 ⇒ h ≥ 2)
//!            ids (columnar)                                     payloads (columnar)
//!   unicast ids:   varint first, then (count-1) varint deltas (≥ 0)
//!   broadcast ids: count × varint absolute                     count × write
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
//! Encoders split a unicast run defensively whenever the next id is
//! smaller than the previous one, so arbitrary (unsorted) batches still
//! round-trip bit-identically; the engine sorts runs by destination before
//! encoding, which both maximizes delta compression and makes same-
//! destination records adjacent for combiner folding.

use crate::codec::{crc32, ByteReader, ByteWriter, CorruptError};
use std::fmt;

/// The frame encoding, written as each frame's first byte; a frame that
/// starts with any other byte decodes to [`WireError::UnknownFormat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Delta/varint ids + width-specialized payloads.
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
/// `write`/`read` must round-trip bit-exactly.
pub trait WirePayload: Sized {
    /// Appends the width-specialized encoding.
    fn write(&self, w: &mut ByteWriter);

    /// Reads a value appended by [`write`](Self::write).
    fn read(r: &mut ByteReader<'_>) -> crate::codec::Result<Self>;
}

impl WirePayload for () {
    fn write(&self, _w: &mut ByteWriter) {}
    fn read(_r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok(())
    }
}

impl WirePayload for u32 {
    fn write(&self, w: &mut ByteWriter) {
        w.put_varint(u64::from(*self));
    }
    fn read(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        let v = r.varint("u32 payload")?;
        u32::try_from(v).map_err(|_| CorruptError { context: "u32 payload range" })
    }
}

impl WirePayload for u64 {
    fn write(&self, w: &mut ByteWriter) {
        w.put_varint(*self);
    }
    fn read(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.varint("u64 payload")
    }
}

impl WirePayload for f64 {
    fn write(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn read(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        r.f64("f64 payload")
    }
}

impl<A: WirePayload, B: WirePayload> WirePayload for (A, B) {
    fn write(&self, w: &mut ByteWriter) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut ByteReader<'_>) -> crate::codec::Result<Self> {
        Ok((A::read(r)?, B::read(r)?))
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
/// into sections at every broadcast-flag change and at any descending
/// unicast id, so unsorted input still round-trips.
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
            if !flag && records[j].id < records[j - 1].id {
                break;
            }
            j += 1;
        }
        let run = &records[i..j];
        w.put_varint(((run.len() as u64) << 1) | u64::from(flag));
        if flag {
            for r in run {
                w.put_varint(r.id);
            }
        } else {
            w.put_varint(run[0].id);
            for k in 1..run.len() {
                w.put_varint(run[k].id - run[k - 1].id);
            }
        }
        for r in run {
            r.msg.write(&mut w);
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
    let format = r.u8("wire format")?;
    if format != WireFormat::Compact as u8 {
        return Err(WireError::UnknownFormat(format));
    }
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
        if broadcast {
            for _ in 0..count {
                id_scratch.push(r.varint("record id")?);
            }
        } else {
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
        out.reserve(count);
        for &id in id_scratch.iter() {
            out.push(WireRecord { broadcast, id, msg: M::read(&mut r)? });
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
        records: &[WireRecord<M>],
        logical: u64,
    ) -> Vec<u8> {
        let frame = encode_frame(WireFormat::Compact, records, logical, Vec::new());
        let mut out = Vec::new();
        let got = decode_frame::<M>(&frame, &mut Vec::new(), &mut out).expect("decodes");
        assert_eq!(got, logical);
        assert_eq!(out, records);
        frame
    }

    #[test]
    fn empty_batch_round_trips() {
        roundtrip::<u64>(&[], 0);
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
        roundtrip(&records, 4);
    }

    #[test]
    fn ids_beyond_the_lane_cap_round_trip() {
        // The wire carries full u64 ids.
        let records = [
            WireRecord { broadcast: true, id: 1u64 << 31, msg: 1u32 },
            WireRecord { broadcast: true, id: u64::MAX, msg: 2 },
            WireRecord { broadcast: false, id: (1 << 31) + 5, msg: 3 },
            WireRecord { broadcast: false, id: u64::MAX - 1, msg: 4 },
        ];
        roundtrip(&records, 2);
    }

    #[test]
    fn unsorted_unicast_ids_still_round_trip_compact() {
        // Descending ids force the encoder's defensive section split.
        let records: Vec<WireRecord<u32>> = (0..20)
            .map(|i| WireRecord { broadcast: false, id: (19 - i) * 7, msg: i as u32 })
            .collect();
        roundtrip(&records, 20);
    }

    #[test]
    fn compact_is_smaller_on_sorted_runs() {
        // A sorted unicast run costs one id-delta byte and one payload byte
        // per record, where fixed-width records would take 12.
        let records: Vec<WireRecord<u32>> = (0..100)
            .map(|i| WireRecord { broadcast: false, id: 1000 + i, msg: 1u32 })
            .collect();
        let frame = encode_frame(WireFormat::Compact, &records, 100, Vec::new());
        // format 1 + header 2 + first id 2 + 99 deltas + 100 payloads +
        // terminator 1 + logical count 1 + CRC 4.
        assert_eq!(frame.len(), 210);
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
    fn payload_impls_round_trip() {
        fn check<M: WirePayload + PartialEq + std::fmt::Debug>(v: M) {
            let mut w = ByteWriter::new();
            v.write(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(M::read(&mut r).expect("decodes"), v);
            assert!(r.is_exhausted());
        }
        check(());
        check(0xDEAD_BEEFu32);
        check(u64::MAX - 3);
        check(-0.0f64);
        check((42u32, 7u32));
        check((u64::MAX, u32::MAX));
    }
}
