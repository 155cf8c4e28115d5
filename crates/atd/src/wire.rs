//! THP/2 — the test-head protocol's length-prefixed binary framing.
//!
//! Every message travels as one frame carrying a client-chosen
//! correlation id and a flags byte, so responses can arrive out of order
//! and in parts:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "THP2"
//! 4       1     version (2)
//! 5       1     message type code
//! 6       1     flags (exactly one of FINAL=0x01, CHUNK=0x02)
//! 7       1     reserved, must be zero
//! 8       8     correlation id (big-endian u64)
//! 16      4     payload length in bytes (big-endian u32)
//! 20      n     payload
//! ```
//!
//! The magic and version byte together name the revision; a stream is
//! judged as soon as those five bytes have arrived, so a peer speaking
//! another protocol is answered without waiting for a whole header.
//!
//! All multi-byte integers on the wire are big-endian. Decoding is total:
//! malformed input of any shape maps to a typed [`FrameError`], never a
//! panic — the daemon must survive arbitrary bytes from the network.
//!
//! This module owns the frame envelope and the primitive field codecs
//! ([`Writer`]/[`Reader`]); message semantics live in [`crate::proto`].

use core::fmt;

/// The four magic bytes opening every THP/2 frame.
pub const MAGIC2: [u8; 4] = *b"THP2";

/// The pipelined protocol revision.
pub const VERSION2: u8 = 2;

/// THP/2 frame header size in bytes.
pub const HEADER2_LEN: usize = 20;

/// Leading header bytes that name the protocol revision: the magic plus
/// the version byte.
pub(crate) const REVISION_LEN: usize = 5;

/// THP/2 header flag bits. Every frame carries exactly one of these: a
/// `CHUNK` frame is one slice of a streamed result, a `FINAL` frame
/// terminates its correlation id (the summary of a stream, or the whole
/// response for unary exchanges).
pub mod flag {
    /// Terminal frame for its correlation id.
    pub const FINAL: u8 = 0x01;
    /// A partial-result slice; more frames follow for this correlation.
    pub const CHUNK: u8 = 0x02;
    /// Every bit a THP/2 frame may set.
    pub const MASK: u8 = FINAL | CHUNK;
}

/// Hard ceiling on payload size: a frame larger than this is rejected at
/// the header, before any allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Typed decode failures. Every way a frame can be malformed has its own
/// variant, so transports and tests can tell them apart.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// Fewer bytes than the grammar requires at this position.
    Truncated {
        /// Bytes the current field needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not `THP2`.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The version byte names a protocol revision this build cannot speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The reserved header field was not zero.
    ReservedNonZero {
        /// The value found.
        found: u16,
    },
    /// A length exceeded its ceiling: a declared payload beyond
    /// [`MAX_PAYLOAD`], a payload being encoded that cannot fit a frame,
    /// or a sequence count beyond u32. `len` is the actual offending
    /// length and `max` the ceiling it broke, so diagnostics and golden
    /// tests see real magnitudes.
    Oversized {
        /// The offending length (saturated into u64 if it exceeds even
        /// that).
        len: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// The message-type code is not part of the protocol, or not part of
    /// the direction being decoded.
    UnknownType {
        /// The code found.
        code: u8,
    },
    /// Bytes remained after the grammar was fully consumed.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A payload field held a value outside its domain.
    BadPayload {
        /// Which field was malformed.
        context: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            FrameError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported THP version {found} (this build speaks {VERSION2})")
            }
            FrameError::ReservedNonZero { found } => {
                write!(f, "reserved header field must be zero, found {found:#06x}")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "declared payload of {len} bytes exceeds the {max}-byte ceiling")
            }
            FrameError::UnknownType { code } => write!(f, "unknown message type {code:#04x}"),
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message body")
            }
            FrameError::BadPayload { context } => write!(f, "malformed payload: {context}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A validated THP/2 frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header2 {
    /// Message type code.
    pub msg_type: u8,
    /// Flag byte — exactly one of [`flag::FINAL`] / [`flag::CHUNK`].
    pub flags: u8,
    /// The client-chosen correlation id this frame belongs to.
    pub correlation: u64,
    /// Declared payload length.
    pub payload_len: usize,
}

fn check_flags(flags: u8) -> Result<(), FrameError> {
    if flags == flag::FINAL || flags == flag::CHUNK {
        Ok(())
    } else {
        Err(FrameError::BadPayload { context: "flags must be exactly FINAL or CHUNK" })
    }
}

/// Encodes one THP/2 frame: header plus payload.
///
/// # Errors
///
/// [`FrameError::Oversized`] if `payload` exceeds [`MAX_PAYLOAD`];
/// [`FrameError::BadPayload`] if `flags` is not exactly one of
/// [`flag::FINAL`] / [`flag::CHUNK`].
pub fn encode_frame2(
    msg_type: u8,
    flags: u8,
    correlation: u64,
    payload: &[u8],
) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(HEADER2_LEN + payload.len());
    encode_frame2_into(&mut out, msg_type, flags, correlation, &[payload])?;
    Ok(out)
}

/// Appends one THP/2 frame to `out`, with the payload given as
/// concatenated `parts` — the streaming path writes frames straight into
/// a connection's outbox without an intermediate allocation per frame.
///
/// On error nothing is appended.
///
/// # Errors
///
/// Same contract as [`encode_frame2`].
pub fn encode_frame2_into(
    out: &mut Vec<u8>,
    msg_type: u8,
    flags: u8,
    correlation: u64,
    parts: &[&[u8]],
) -> Result<(), FrameError> {
    check_flags(flags)?;
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let len =
        u32::try_from(total).ok().filter(|l| *l <= MAX_PAYLOAD).ok_or(FrameError::Oversized {
            len: u64::try_from(total).unwrap_or(u64::MAX),
            max: u64::from(MAX_PAYLOAD),
        })?;
    out.reserve(HEADER2_LEN + total);
    out.extend_from_slice(&MAGIC2);
    out.push(VERSION2);
    out.push(msg_type);
    out.push(flags);
    out.push(0);
    out.extend_from_slice(&correlation.to_be_bytes());
    out.extend_from_slice(&len.to_be_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    Ok(())
}

/// Validates a 20-byte THP/2 header.
///
/// # Errors
///
/// Any header-level [`FrameError`]; flag bytes that are not exactly one
/// of `FINAL`/`CHUNK` are [`FrameError::BadPayload`].
pub fn decode_header2(header: &[u8]) -> Result<Header2, FrameError> {
    if header.len() < HEADER2_LEN {
        return Err(FrameError::Truncated { needed: HEADER2_LEN, have: header.len() });
    }
    check_revision(header)?;
    let msg_type = *header.get(5).ok_or(FrameError::Truncated { needed: 6, have: header.len() })?;
    let flags = *header.get(6).ok_or(FrameError::Truncated { needed: 7, have: header.len() })?;
    check_flags(flags)?;
    let reserved = *header.get(7).ok_or(FrameError::Truncated { needed: 8, have: header.len() })?;
    if reserved != 0 {
        return Err(FrameError::ReservedNonZero { found: u16::from(reserved) });
    }
    let correlation = u64::from_be_bytes(read8(header, 8)?);
    let len = u32::from_be_bytes(read4(header, 16)?);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized { len: u64::from(len), max: u64::from(MAX_PAYLOAD) });
    }
    let payload_len = usize::try_from(len).map_err(|_| FrameError::BadPayload {
        context: "frame length exceeds the address space",
    })?;
    Ok(Header2 { msg_type, flags, correlation, payload_len })
}

/// Decodes exactly one in-memory THP/2 frame into `(header, payload)`.
///
/// # Errors
///
/// Any [`FrameError`]; trailing bytes after the declared payload are
/// rejected with [`FrameError::TrailingBytes`].
pub fn decode_frame2(bytes: &[u8]) -> Result<(Header2, &[u8]), FrameError> {
    let header = decode_header2(bytes)?;
    let body = bytes.get(HEADER2_LEN..).unwrap_or(&[]);
    if body.len() < header.payload_len {
        return Err(FrameError::Truncated { needed: header.payload_len, have: body.len() });
    }
    if body.len() > header.payload_len {
        return Err(FrameError::TrailingBytes { extra: body.len() - header.payload_len });
    }
    Ok((header, body))
}

/// Checks the revision bytes — magic and version — that open a frame.
/// A streaming reader calls this once [`REVISION_LEN`] bytes are in, to
/// reject a foreign protocol before the rest of its header arrives.
///
/// # Errors
///
/// [`FrameError::Truncated`] below [`REVISION_LEN`] bytes,
/// [`FrameError::BadMagic`] for any magic but `THP2`,
/// [`FrameError::UnsupportedVersion`] for any version but
/// [`VERSION2`].
pub(crate) fn check_revision(bytes: &[u8]) -> Result<(), FrameError> {
    let magic = read4(bytes, 0)?;
    if magic != MAGIC2 {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version =
        *bytes.get(4).ok_or(FrameError::Truncated { needed: REVISION_LEN, have: bytes.len() })?;
    if version != VERSION2 {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    Ok(())
}

fn read4(bytes: &[u8], at: usize) -> Result<[u8; 4], FrameError> {
    let slice =
        bytes.get(at..at + 4).ok_or(FrameError::Truncated { needed: at + 4, have: bytes.len() })?;
    <[u8; 4]>::try_from(slice).map_err(|_| FrameError::BadPayload { context: "4-byte field" })
}

fn read8(bytes: &[u8], at: usize) -> Result<[u8; 8], FrameError> {
    let slice =
        bytes.get(at..at + 8).ok_or(FrameError::Truncated { needed: at + 8, have: bytes.len() })?;
    <[u8; 8]>::try_from(slice).map_err(|_| FrameError::BadPayload { context: "8-byte field" })
}

/// Canonical payload writer: every field type has exactly one encoding,
/// so a message's byte image is a pure function of its value — the
/// property both the golden-vector tests and the content-addressed cache
/// key depend on.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty payload.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn position(&self) -> usize {
        self.buf.len()
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian i32 (two's complement).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian i64 (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern (big-endian) — exact,
    /// so byte identity equals value identity.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends raw bytes verbatim, no length prefix — for fields whose
    /// length is "the rest of the payload" (chunk bodies), mirroring
    /// [`Reader::take_rest`].
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed (u32) count for a following sequence.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the count does not fit in u32.
    pub fn count(&mut self, n: usize) -> Result<(), FrameError> {
        let n = u32::try_from(n).map_err(|_| FrameError::Oversized {
            len: u64::try_from(n).unwrap_or(u64::MAX),
            max: u64::from(u32::MAX),
        })?;
        self.u32(n);
        Ok(())
    }

    /// Appends a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the byte length does not fit in u32.
    pub fn str(&mut self, s: &str) -> Result<(), FrameError> {
        self.count(s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Payload reader mirroring [`Writer`], with typed errors for every
/// short read or out-of-domain value.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Reader { rest: payload }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Fails unless every byte was consumed.
    ///
    /// # Errors
    ///
    /// [`FrameError::TrailingBytes`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), FrameError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(FrameError::TrailingBytes { extra: self.rest.len() })
        }
    }

    /// Consumes and returns every remaining byte — the codec for fields
    /// whose length is "the rest of the payload" (chunk bodies).
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = self.rest;
        self.rest = &[];
        rest
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or(FrameError::Truncated { needed: n, have: self.rest.len() })?;
        self.rest = tail;
        Ok(head)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a big-endian u16.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        let raw = <[u8; 2]>::try_from(self.take(2)?)
            .map_err(|_| FrameError::BadPayload { context: "u16 field" })?;
        Ok(u16::from_be_bytes(raw))
    }

    /// Reads a big-endian u32.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        let raw = <[u8; 4]>::try_from(self.take(4)?)
            .map_err(|_| FrameError::BadPayload { context: "u32 field" })?;
        Ok(u32::from_be_bytes(raw))
    }

    /// Reads a big-endian u64.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        let raw = <[u8; 8]>::try_from(self.take(8)?)
            .map_err(|_| FrameError::BadPayload { context: "u64 field" })?;
        Ok(u64::from_be_bytes(raw))
    }

    /// Reads a big-endian i32.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn i32(&mut self) -> Result<i32, FrameError> {
        let raw = <[u8; 4]>::try_from(self.take(4)?)
            .map_err(|_| FrameError::BadPayload { context: "i32 field" })?;
        Ok(i32::from_be_bytes(raw))
    }

    /// Reads a big-endian i64.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn i64(&mut self) -> Result<i64, FrameError> {
        let raw = <[u8; 8]>::try_from(self.take(8)?)
            .map_err(|_| FrameError::BadPayload { context: "i64 field" })?;
        Ok(i64::from_be_bytes(raw))
    }

    /// Reads an f64 from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] on a short payload.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte; values other than 0/1 are malformed.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] on a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload { context: "bool byte must be 0 or 1" }),
        }
    }

    /// Reads a u32 sequence count, bounded by what the remaining payload
    /// could possibly hold (`min_item_bytes` per element) so a hostile
    /// count cannot force a huge allocation.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] when the declared count cannot fit.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, FrameError> {
        let n = usize::try_from(self.u32()?)
            .map_err(|_| FrameError::BadPayload { context: "count exceeds the address space" })?;
        let floor = n.saturating_mul(min_item_bytes.max(1));
        if floor > self.rest.len() {
            return Err(FrameError::Truncated { needed: floor, have: self.rest.len() });
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`] / [`FrameError::BadPayload`] on short or
    /// non-UTF-8 bytes.
    pub fn str(&mut self) -> Result<String, FrameError> {
        let n = self.count(1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| FrameError::BadPayload { context: "string field is not UTF-8" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_errors_carry_the_actual_length() {
        // A payload one byte past the ceiling: the error names its real
        // size, not a sentinel.
        let payload = vec![0u8; usize::try_from(MAX_PAYLOAD).unwrap() + 1];
        assert_eq!(
            encode_frame2(0x01, flag::FINAL, 1, &payload),
            Err(FrameError::Oversized {
                len: u64::from(MAX_PAYLOAD) + 1,
                max: u64::from(MAX_PAYLOAD),
            })
        );

        // A sequence count past u32: the ceiling reported is the count
        // ceiling (u32::MAX), not the payload ceiling.
        #[cfg(target_pointer_width = "64")]
        {
            let n = usize::try_from(u64::from(u32::MAX) + 7).unwrap();
            let mut w = Writer::new();
            assert_eq!(
                w.count(n),
                Err(FrameError::Oversized {
                    len: u64::from(u32::MAX) + 7,
                    max: u64::from(u32::MAX),
                })
            );
        }
    }

    #[test]
    fn writer_reader_mirror_each_other() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0x1234);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i32(-44);
        w.i64(i64::MIN + 3);
        w.f64(-0.125);
        w.bool(true);
        w.str("thp/2 ☂").unwrap();
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -44);
        assert_eq!(r.i64().unwrap(), i64::MIN + 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "thp/2 ☂");
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_bad_values() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(FrameError::BadPayload { .. })));

        // A count promising more elements than bytes remain.
        let mut w = Writer::new();
        w.u32(1_000_000);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.count(8), Err(FrameError::Truncated { .. })));

        // Non-UTF8 string bytes.
        let mut w = Writer::new();
        w.u32(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(FrameError::BadPayload { .. })));

        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(FrameError::Truncated { .. })));
        let r = Reader::new(&[1]);
        assert_eq!(r.expect_end(), Err(FrameError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn frame2_round_trip() {
        let frame = encode_frame2(0x88, flag::CHUNK, 0xDEAD_BEEF_0000_0007, b"slice").unwrap();
        assert_eq!(frame.len(), HEADER2_LEN + 5);
        let (header, payload) = decode_frame2(&frame).unwrap();
        assert_eq!(
            header,
            Header2 {
                msg_type: 0x88,
                flags: flag::CHUNK,
                correlation: 0xDEAD_BEEF_0000_0007,
                payload_len: 5,
            }
        );
        assert_eq!(payload, b"slice");
    }

    #[test]
    fn frame2_rejects_malformed_headers() {
        let good = encode_frame2(0x01, flag::FINAL, 9, b"abcd1234").unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame2(&bad), Err(FrameError::BadMagic { .. })));

        let mut bad = good.clone();
        bad[4] = 1; // a THP2 magic with a v1 version byte
        assert_eq!(decode_frame2(&bad), Err(FrameError::UnsupportedVersion { found: 1 }));

        // Both flag bits, no flag bits, and an unknown bit are all malformed.
        for flags in [0x00, 0x03, 0x04, 0xFF] {
            let mut bad = good.clone();
            bad[6] = flags;
            assert!(matches!(decode_frame2(&bad), Err(FrameError::BadPayload { .. })), "{flags}");
            assert!(encode_frame2(0x01, flags, 9, b"").is_err(), "{flags}");
        }

        let mut bad = good.clone();
        bad[7] = 0x5A;
        assert_eq!(decode_frame2(&bad), Err(FrameError::ReservedNonZero { found: 0x5A }));

        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert!(matches!(decode_frame2(&bad), Err(FrameError::Oversized { .. })));

        let mut long = good.clone();
        long.push(0xFF);
        assert_eq!(decode_frame2(&long), Err(FrameError::TrailingBytes { extra: 1 }));

        assert!(matches!(decode_frame2(&good[..9]), Err(FrameError::Truncated { .. })));
    }

    #[test]
    fn header_rejections_are_typed() {
        assert_eq!(check_revision(b"THP2\x02"), Ok(()));
        assert_eq!(check_revision(b"THP2\x02rest-ignored"), Ok(()));
        assert!(matches!(check_revision(b"THP2"), Err(FrameError::Truncated { .. })));
        assert_eq!(check_revision(b"THP2\x01"), Err(FrameError::UnsupportedVersion { found: 1 }));
        assert_eq!(check_revision(b"HTTP/1.1 "), Err(FrameError::BadMagic { found: *b"HTTP" }));
        // A whole header reports the revision error before any later field.
        let mut bad = encode_frame2(0x01, flag::FINAL, 1, b"").unwrap();
        bad[4] = 9;
        bad[6] = 0xFF;
        assert_eq!(decode_header2(&bad), Err(FrameError::UnsupportedVersion { found: 9 }));
    }

    /// A payload given in parts encodes exactly like the same bytes in
    /// one slice, and a failed encode appends nothing.
    #[test]
    fn frame_round_trip() {
        let mut out = b"prefix".to_vec();
        encode_frame2_into(&mut out, 0x88, flag::CHUNK, 3, &[b"sl", b"", b"ice"]).unwrap();
        let (head, frame) = out.split_at(6);
        assert_eq!(head, b"prefix");
        assert_eq!(frame, encode_frame2(0x88, flag::CHUNK, 3, b"slice").unwrap());
        let (header, payload) = decode_frame2(frame).unwrap();
        assert_eq!(header.payload_len, 5);
        assert_eq!(payload, b"slice");
        let before = out.len();
        assert!(encode_frame2_into(&mut out, 0x88, 0, 3, &[b"x"]).is_err());
        assert_eq!(out.len(), before);
    }

    #[test]
    fn take_rest_drains_the_reader() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.take_rest(), &[2, 3]);
        assert_eq!(r.remaining(), 0);
        r.expect_end().unwrap();
    }

    #[test]
    fn display_covers_every_variant() {
        for (err, needle) in [
            (FrameError::Truncated { needed: 4, have: 1 }, "truncated"),
            (FrameError::BadMagic { found: [0; 4] }, "magic"),
            (FrameError::UnsupportedVersion { found: 3 }, "version 3"),
            (FrameError::ReservedNonZero { found: 7 }, "reserved"),
            (FrameError::Oversized { len: 9, max: 1 }, "ceiling"),
            (FrameError::UnknownType { code: 0x66 }, "0x66"),
            (FrameError::TrailingBytes { extra: 2 }, "trailing"),
            (FrameError::BadPayload { context: "x" }, "malformed"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
