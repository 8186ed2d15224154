//! Versioned record framing for WAL segments and checkpoint files.
//!
//! Every durable byte in the persist layer — WAL appends and checkpoint
//! snapshots alike — is one framed record:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        b"AWL1"
//!      4     1  version      (currently 1)
//!      5     1  kind         record type tag (see [`kind`])
//!      6     2  reserved     zero
//!      8     8  seq          u64 LE, monotone per journal
//!     16     8  time_us      u64 LE, virtual-time stamp in microseconds
//!     24     4  payload_len  u32 LE
//!     28     4  crc32        IEEE CRC32 over bytes 0..28 ++ payload
//!     32     …  payload
//! ```
//!
//! The CRC covers the header (minus itself) and the payload, so a bit flip
//! anywhere in a record is detected. Decoding distinguishes a *torn* tail
//! (not enough bytes for the frame it promises — the write was cut off) from
//! a *corrupt* record (bad magic/version/CRC or an absurd length): recovery
//! truncates both, but the distinction feeds telemetry and tests.

use crate::crc::Crc32;
use athena_types::{AthenaError, Result, SimTime};
use serde::{Deserialize, Serialize};

/// File magic for framed records ("Athena Write-ahead Log v1").
pub const MAGIC: [u8; 4] = *b"AWL1";
/// Current framing version.
pub const VERSION: u8 = 1;
/// Framed header length in bytes (payload follows).
pub const HEADER_LEN: usize = 32;
/// Upper bound on a single record payload; anything larger decodes as
/// corrupt rather than driving a giant allocation off a flipped length.
pub const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// Record type tags. One byte; stable across versions.
pub mod kind {
    /// A store collection operation (insert/update/delete/index).
    pub const STORE_OP: u8 = 1;
    /// A serialized trained detection model snapshot.
    pub const MODEL: u8 = 2;
    /// A controller mastership event.
    pub const MASTERSHIP: u8 = 3;
    /// A controller flow-rule install/removal.
    pub const FLOW_RULE: u8 = 4;
    /// A point-in-time checkpoint snapshot.
    pub const CHECKPOINT: u8 = 5;
}

/// A decoded framed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Record type tag (see [`kind`]).
    pub kind: u8,
    /// Journal sequence number.
    pub seq: u64,
    /// Virtual-time stamp.
    pub time: SimTime,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Outcome of decoding the front of a byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A valid record and the number of bytes it consumed.
    Record(Record, usize),
    /// The buffer ends mid-record — a torn write.
    Incomplete,
    /// The bytes are not a valid record — corruption.
    Corrupt,
}

/// Encodes one framed record.
pub fn encode(kind: u8, seq: u64, time: SimTime, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(kind);
    buf.extend_from_slice(&[0, 0]);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&time.as_micros().to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&buf);
    crc.update(payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes the record at the front of `buf`.
pub fn decode(buf: &[u8]) -> Decoded {
    if buf.is_empty() {
        return Decoded::Incomplete;
    }
    if buf.len() < HEADER_LEN {
        // A prefix of a valid header is a torn write; bytes that already
        // disagree with the magic are corruption.
        let n = buf.len().min(MAGIC.len());
        return if buf[..n] == MAGIC[..n] {
            Decoded::Incomplete
        } else {
            Decoded::Corrupt
        };
    }
    if buf[0..4] != MAGIC || buf[4] != VERSION {
        return Decoded::Corrupt;
    }
    let payload_len = le_u32(&buf[24..28]);
    if payload_len > MAX_PAYLOAD {
        return Decoded::Corrupt;
    }
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Decoded::Incomplete;
    }
    let stored_crc = le_u32(&buf[28..32]);
    let mut crc = Crc32::new();
    crc.update(&buf[..28]);
    crc.update(&buf[HEADER_LEN..total]);
    if crc.finish() != stored_crc {
        return Decoded::Corrupt;
    }
    let rec = Record {
        kind: buf[5],
        seq: le_u64(&buf[8..16]),
        time: SimTime::from_micros(le_u64(&buf[16..24])),
        payload: buf[HEADER_LEN..total].to_vec(),
    };
    Decoded::Record(rec, total)
}

/// A journal payload: the JSON of a record type's serde derive. The
/// object map is sorted by name, so one record always encodes to the
/// same bytes.
///
/// # Errors
///
/// Returns [`AthenaError::Persist`] if the record cannot be encoded.
pub fn to_payload<T: Serialize + ?Sized>(record: &T) -> Result<Vec<u8>> {
    serde_json::to_vec(record)
        .map_err(|e| AthenaError::Persist(format!("encode {}: {e}", std::any::type_name::<T>())))
}

/// The record a [`to_payload`] payload holds.
///
/// # Errors
///
/// Returns [`AthenaError::Persist`] for anything but that record's JSON:
/// a missing member, a member of the wrong type or out of range, or an
/// unknown variant is refused, never read as a default.
pub fn from_payload<T: Deserialize>(payload: &[u8]) -> Result<T> {
    serde_json::from_slice(payload)
        .map_err(|e| AthenaError::Persist(format!("decode {}: {e}", std::any::type_name::<T>())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode(kind::STORE_OP, 42, SimTime::from_secs(7), b"payload bytes")
    }

    #[test]
    fn round_trips() {
        let bytes = sample();
        match decode(&bytes) {
            Decoded::Record(rec, consumed) => {
                assert_eq!(consumed, bytes.len());
                assert_eq!(rec.kind, kind::STORE_OP);
                assert_eq!(rec.seq, 42);
                assert_eq!(rec.time, SimTime::from_secs(7));
                assert_eq!(rec.payload, b"payload bytes");
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_incomplete_not_corrupt() {
        let bytes = sample();
        for cut in 1..bytes.len() {
            match decode(&bytes[..cut]) {
                Decoded::Incomplete => {}
                other => panic!("cut at {cut}: expected incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let bytes = sample();
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 0x10;
            match decode(&flipped) {
                Decoded::Record(rec, _) => {
                    panic!("flip at byte {byte} yielded a record: {rec:?}")
                }
                Decoded::Incomplete | Decoded::Corrupt => {}
            }
        }
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut bytes = sample();
        bytes[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Decoded::Corrupt);
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode(kind::CHECKPOINT, 0, SimTime::ZERO, b"");
        assert!(matches!(decode(&bytes), Decoded::Record(r, 32) if r.payload.is_empty()));
    }
}
