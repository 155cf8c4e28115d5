//! The on-disk record grammar.
//!
//! ```text
//! offset  size  field
//! 0       4     record magic "ASR1"
//! 4       8     key digest: FNV-1a 64 of the key bytes (big-endian)
//! 12      4     key length k (big-endian u32)
//! 16      4     payload length n (big-endian u32)
//! 20      k     key bytes (the spec's canonical key)
//! 20+k    n     payload bytes (the canonical JobResult encoding)
//! 20+k+n  8     checksum: FNV-1a 64 over bytes [4, 20+k+n) (big-endian)
//! ```
//!
//! Everything after the magic — digest, lengths, key, payload — is
//! covered by the trailing checksum, so a record cut short at *any*
//! byte, or flipped anywhere, fails to verify and marks the torn tail.
//! The lengths come off disk before anything is verified, so they are
//! hostile until they pass the [`crate::limits`] ceilings; nothing here
//! sizes an allocation or does length arithmetic on an unchecked value.

use crate::error::RecordError;
use crate::{fnv1a64, limits};

/// The four bytes every record starts with.
pub const RECORD_MAGIC: [u8; 4] = *b"ASR1";

/// Fixed bytes before the key: magic + digest + two lengths.
pub const HEADER_BYTES: usize = 20;

/// Trailing checksum width.
pub const CHECKSUM_BYTES: usize = 8;

/// Fixed overhead of a record: header plus checksum.
pub const RECORD_OVERHEAD: usize = HEADER_BYTES + CHECKSUM_BYTES;

/// The raw, unverified record header. The lengths are exactly what the
/// disk claims — callers must not trust them past the ceilings
/// [`decode`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// The stored FNV-1a digest of the key bytes.
    pub key_digest: u64,
    /// Declared key length.
    pub key_len: usize,
    /// Declared payload length.
    pub payload_len: usize,
}

/// One verified record, borrowing from the segment bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The FNV-1a digest of `key` (verified against the stored digest).
    pub key_digest: u64,
    /// The spec's canonical key bytes.
    pub key: &'a [u8],
    /// The canonical result bytes.
    pub payload: &'a [u8],
}

fn be_u32(bytes: &[u8]) -> Option<u32> {
    <[u8; 4]>::try_from(bytes).ok().map(u32::from_be_bytes)
}

fn be_u64(bytes: &[u8]) -> Option<u64> {
    <[u8; 8]>::try_from(bytes).ok().map(u64::from_be_bytes)
}

fn field(bytes: &[u8], start: usize, len: usize) -> Result<&[u8], RecordError> {
    bytes
        .get(start..start.saturating_add(len))
        .ok_or(RecordError::Truncated { needed: start.saturating_add(len), have: bytes.len() })
}

/// Parses the fixed 20-byte header at the start of `bytes`. Only the
/// magic is verified; the returned lengths are disk-controlled and must
/// pass the [`crate::limits`] ceilings before use.
///
/// # Errors
///
/// [`RecordError::Truncated`] with fewer than [`HEADER_BYTES`] bytes,
/// [`RecordError::BadMagic`] when the magic does not match.
fn decode_header(bytes: &[u8]) -> Result<RecordHeader, RecordError> {
    if bytes.len() < HEADER_BYTES {
        return Err(RecordError::Truncated { needed: HEADER_BYTES, have: bytes.len() });
    }
    if field(bytes, 0, 4)? != RECORD_MAGIC {
        return Err(RecordError::BadMagic);
    }
    let key_digest = be_u64(field(bytes, 4, 8)?).ok_or(RecordError::BadMagic)?;
    let key_len = be_u32(field(bytes, 12, 4)?).ok_or(RecordError::BadMagic)?;
    let payload_len = be_u32(field(bytes, 16, 4)?).ok_or(RecordError::BadMagic)?;
    Ok(RecordHeader {
        key_digest,
        key_len: usize::try_from(key_len).unwrap_or(usize::MAX),
        payload_len: usize::try_from(payload_len).unwrap_or(usize::MAX),
    })
}

/// Decodes and fully verifies the record at the start of `bytes`,
/// returning it and the number of bytes it spans. Lengths are checked
/// against the [`crate::limits`] ceilings before any length arithmetic,
/// the stored digest is checked against the key bytes, and the trailing
/// checksum is checked against everything after the magic.
///
/// # Errors
///
/// Any [`RecordError`]; during recovery the caller treats every variant
/// as the torn tail.
pub fn decode(bytes: &[u8]) -> Result<(Record<'_>, usize), RecordError> {
    let header = decode_header(bytes)?;
    let key_len = header.key_len;
    let payload_len = header.payload_len;
    if key_len > limits::MAX_KEY_BYTES {
        return Err(RecordError::Oversized {
            what: "key",
            len: key_len,
            max: limits::MAX_KEY_BYTES,
        });
    }
    if payload_len > limits::MAX_PAYLOAD_BYTES {
        return Err(RecordError::Oversized {
            what: "payload",
            len: payload_len,
            max: limits::MAX_PAYLOAD_BYTES,
        });
    }
    let body_end = HEADER_BYTES + key_len + payload_len;
    let total = body_end + CHECKSUM_BYTES;
    if bytes.len() < total {
        return Err(RecordError::Truncated { needed: total, have: bytes.len() });
    }
    let key = field(bytes, HEADER_BYTES, key_len)?;
    let payload = field(bytes, HEADER_BYTES + key_len, payload_len)?;
    let stored = be_u64(field(bytes, body_end, CHECKSUM_BYTES)?).ok_or(RecordError::BadChecksum)?;
    if fnv1a64(field(bytes, 4, body_end - 4)?) != stored {
        return Err(RecordError::BadChecksum);
    }
    if fnv1a64(key) != header.key_digest {
        return Err(RecordError::KeyDigestMismatch);
    }
    Ok((Record { key_digest: header.key_digest, key, payload }, total))
}

/// Encodes one record.
///
/// # Errors
///
/// [`RecordError::Oversized`] when the key or payload exceeds its
/// ceiling; nothing oversized is ever written, so nothing oversized is
/// ever read back.
pub fn encode(key: &[u8], payload: &[u8]) -> Result<Vec<u8>, RecordError> {
    if key.len() > limits::MAX_KEY_BYTES {
        return Err(RecordError::Oversized {
            what: "key",
            len: key.len(),
            max: limits::MAX_KEY_BYTES,
        });
    }
    if payload.len() > limits::MAX_PAYLOAD_BYTES {
        return Err(RecordError::Oversized {
            what: "payload",
            len: payload.len(),
            max: limits::MAX_PAYLOAD_BYTES,
        });
    }
    let mut bytes = Vec::with_capacity(RECORD_OVERHEAD + key.len() + payload.len());
    bytes.extend_from_slice(&RECORD_MAGIC);
    bytes.extend_from_slice(&fnv1a64(key).to_be_bytes());
    bytes.extend_from_slice(&u32::try_from(key.len()).unwrap_or(u32::MAX).to_be_bytes());
    bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap_or(u32::MAX).to_be_bytes());
    bytes.extend_from_slice(key);
    bytes.extend_from_slice(payload);
    let checksum = fnv1a64(bytes.get(4..).unwrap_or_default());
    bytes.extend_from_slice(&checksum.to_be_bytes());
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_key_and_payload() {
        let bytes = encode(b"spec-key", b"result payload").expect("encode");
        assert_eq!(bytes.len(), RECORD_OVERHEAD + 8 + 14);
        let (record, used) = decode(&bytes).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(record.key, b"spec-key");
        assert_eq!(record.payload, b"result payload");
        assert_eq!(record.key_digest, fnv1a64(b"spec-key"));
    }

    #[test]
    fn every_truncation_prefix_is_rejected() {
        let bytes = encode(b"k", b"v").expect("encode");
        for cut in 0..bytes.len() {
            let torn = &bytes[..cut];
            assert!(decode(torn).is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn any_flipped_byte_fails_the_checksum() {
        let good = encode(b"key", b"payload").expect("encode");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} must not verify");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_sizing_anything() {
        let mut bytes = encode(b"key", b"payload").expect("encode");
        // Claim a 16 MiB payload in a 40-ish byte record: the ceiling
        // check must fire before the length is believed.
        bytes[16..20].copy_from_slice(&0x0100_0000_u32.to_be_bytes());
        assert!(matches!(decode(&bytes), Err(RecordError::Oversized { what: "payload", .. })));
        let mut bytes = encode(b"key", b"payload").expect("encode");
        bytes[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode(&bytes), Err(RecordError::Oversized { what: "key", .. })));
    }

    #[test]
    fn oversized_inputs_are_never_encoded() {
        let big = vec![0u8; limits::MAX_KEY_BYTES + 1];
        assert!(matches!(encode(&big, b"v"), Err(RecordError::Oversized { what: "key", .. })));
        let big = vec![0u8; limits::MAX_PAYLOAD_BYTES + 1];
        assert!(matches!(encode(b"k", &big), Err(RecordError::Oversized { what: "payload", .. })));
    }

    #[test]
    fn a_mismatched_key_digest_is_rejected() {
        let mut bytes = encode(b"key", b"payload").expect("encode");
        // Swap in a digest for different bytes and re-seal the checksum:
        // the digest/key cross-check must still catch it.
        bytes[4..12].copy_from_slice(&fnv1a64(b"other").to_be_bytes());
        let body_end = bytes.len() - CHECKSUM_BYTES;
        let reseal = fnv1a64(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&reseal.to_be_bytes());
        assert_eq!(decode(&bytes), Err(RecordError::KeyDigestMismatch));
    }
}
