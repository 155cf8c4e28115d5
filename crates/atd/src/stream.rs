//! Streaming results: the shared [`Answer`] the daemon streams, and the
//! client side that reassembles and verifies a stream.
//!
//! An answer cuts a [`JobResult`]'s canonical encoding at the natural
//! boundaries of each workload — shmoo pass-map rows, wafer-map stripes,
//! eye-scan strobe columns, bathtub segments — so a live client can render
//! progress as slices land. The invariant the whole streaming design
//! rests on: concatenating a stream's chunks in `seq` order is
//! **byte-identical** to the monolithic [`JobResult::encoded`] bytes, at
//! any thread count and any chunk interleaving. The terminal
//! [`crate::Response::Summary`] carries the chunk count, total byte
//! count, and a [`StreamDigest`], so a [`Reassembler`] proves the identity
//! before decoding anything. [`Answer::push_stream`] is the one encoder of
//! that framing.

use std::ops::Deref;
use std::sync::OnceLock;

use crate::proto::{msg, JobResult, Provenance, Response, ServiceStats};
use crate::wire::{self, FrameError, Reader, Writer, MAX_PAYLOAD};

/// Incremental 64-bit digest over a chunk stream's bytes.
///
/// The summary digest guards reassembly, so it is computed once by the
/// daemon and once by every client — a byte-at-a-time hash (FNV's
/// dependent multiply chain runs ~4 cycles per byte) would dominate the
/// streaming path's CPU on multi-kilobyte results. This construction
/// mixes the stream as little-endian u64 words instead, buffering
/// partial words across [`StreamDigest::absorb`] calls, and folds the
/// tail and total length into the final state. The digest is a function
/// of the byte *sequence* only: any split of the same bytes across
/// absorb calls produces the same value.
#[derive(Debug, Clone, Copy)]
pub struct StreamDigest {
    state: u64,
    /// Partial little-endian word carried across absorb calls.
    tail: u64,
    /// Bytes currently held in `tail` (0..8).
    tail_len: u32,
    /// Total bytes absorbed.
    len: u64,
}

/// Initial state (the splitmix64 increment).
const DIGEST_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Odd multiplier (from the splitmix64 finalizer).
const DIGEST_PRIME: u64 = 0xff51_afd7_ed55_8ccd;

impl Default for StreamDigest {
    fn default() -> Self {
        StreamDigest::new()
    }
}

impl StreamDigest {
    /// A digest over the empty stream.
    pub fn new() -> Self {
        StreamDigest { state: DIGEST_SEED, tail: 0, tail_len: 0, len: 0 }
    }

    fn mix(state: u64, word: u64) -> u64 {
        (state ^ word).wrapping_mul(DIGEST_PRIME).rotate_left(29)
    }

    /// Feeds `bytes` into the digest.
    pub fn absorb(&mut self, bytes: &[u8]) {
        self.len = self.len.wrapping_add(u64::try_from(bytes.len()).unwrap_or(u64::MAX));
        let mut rest = bytes;
        if self.tail_len > 0 {
            let need = usize::try_from(8u32.saturating_sub(self.tail_len)).unwrap_or(0);
            let take = need.min(rest.len());
            let (head, remainder) = rest.split_at(take);
            for b in head {
                self.tail |= u64::from(*b) << (8 * self.tail_len);
                self.tail_len += 1;
            }
            rest = remainder;
            if self.tail_len < 8 {
                return;
            }
            self.state = Self::mix(self.state, self.tail);
            self.tail = 0;
            self.tail_len = 0;
        }
        let mut words = rest.chunks_exact(8);
        for w in words.by_ref() {
            let word = u64::from_le_bytes(<[u8; 8]>::try_from(w).unwrap_or([0; 8]));
            self.state = Self::mix(self.state, word);
        }
        for b in words.remainder() {
            self.tail |= u64::from(*b) << (8 * self.tail_len);
            self.tail_len += 1;
        }
    }

    /// The digest of everything absorbed so far (does not consume the
    /// accumulator; absorbing more bytes and finishing again is valid).
    pub fn finish(&self) -> u64 {
        // The tail is padded with its own length in the top byte so
        // "ends in 0x00" and "ends one byte short" cannot collide; the
        // total length is mixed last for the same reason.
        let mut s = Self::mix(self.state, self.tail ^ (u64::from(self.tail_len) << 56));
        s = Self::mix(s, self.len);
        s ^= s >> 33;
        s = s.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        s ^ (s >> 29)
    }
}

/// One-shot [`StreamDigest`] over a contiguous byte slice.
pub fn stream_digest(bytes: &[u8]) -> u64 {
    let mut d = StreamDigest::new();
    d.absorb(bytes);
    d.finish()
}

/// Wafer records per stripe chunk.
pub const WAFER_STRIPE_RECORDS: usize = 64;
/// Eye-scan strobe points per column chunk.
pub const EYE_COLUMN_POINTS: usize = 64;
/// Bathtub `(phase, BER)` pairs per segment chunk.
pub const BATHTUB_SEGMENT_PAIRS: usize = 256;

/// Bytes of a `CHUNK` frame's payload ahead of its slice: the `seq`.
const CHUNK_SEQ_BYTES: u64 = 4;

/// One job result, answered: its canonical bytes, the semantic chunk
/// cuts of those bytes, and their [`StreamDigest`], built once and then
/// shared (behind an `Arc`) by every tier that serves the result again.
///
/// The daemon streams an answer by slicing its bytes at its cuts, so a
/// cache hit or a coalesced copy re-derives nothing. The cuts come from
/// the codec itself: encoding a result, or decoding one, reports every
/// chunk boundary as it passes it, so they are defined in one place.
/// An answer's bytes are always exactly one canonical [`JobResult`], and
/// a result whose bytes cannot be cut into frames has no answer at all.
///
/// The decoded result is available through [`Deref`], decoded from the
/// bytes on first use, so only one copy of the bulk data stays resident
/// while nothing asks for the structure.
#[derive(Debug)]
pub struct Answer {
    bytes: Vec<u8>,
    /// End offset of every chunk in `bytes`, strictly ascending; the
    /// last one is `bytes.len()`.
    ends: Vec<usize>,
    digest: u64,
    decoded: OnceLock<JobResult>,
}

impl Answer {
    /// The answer to `result`: one encode, which also yields the cuts.
    ///
    /// # Errors
    ///
    /// [`FrameError`] if the result does not encode or a chunk is too
    /// large for one frame.
    pub fn new(result: &JobResult) -> Result<Self, FrameError> {
        let (bytes, ends) = encode_cut(result)?;
        Ok(Answer::digested(bytes, ends))
    }

    /// The answer whose canonical bytes are `bytes` — a stored payload,
    /// say: one validating decode, which also yields the cuts.
    ///
    /// # Errors
    ///
    /// [`FrameError`] unless `bytes` is exactly one result's canonical
    /// encoding whose chunks each fit one frame.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, FrameError> {
        let mut ends = Vec::new();
        let mut r = Reader::new(&bytes);
        JobResult::decode_marked(&mut r, |end| ends.push(end))?;
        r.expect_end()?;
        fit_frames(&ends)?;
        Ok(Answer::digested(bytes, ends))
    }

    fn digested(bytes: Vec<u8>, ends: Vec<usize>) -> Self {
        let digest = stream_digest(&bytes);
        Answer { bytes, ends, digest, decoded: OnceLock::new() }
    }

    /// The canonical encoding, [`JobResult::encoded`] byte for byte.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The [`StreamDigest`] of [`Answer::bytes`].
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The chunk slices, in stream order; they concatenate to
    /// [`Answer::bytes`].
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> + '_ {
        slices(&self.bytes, &self.ends)
    }

    /// Appends this answer to `out` as the reply to submission
    /// `correlation`: one `CHUNK` frame per slice, then the `FINAL`
    /// [`Response::Summary`] carrying the count, bytes and digest a client
    /// verifies reassembly against. Every server — the event loop, the
    /// in-process loopback and the farm front end — answers a submission
    /// this way.
    ///
    /// On error nothing is appended, so the caller can answer `Failed`
    /// instead of leaving half a stream on the wire.
    ///
    /// # Errors
    ///
    /// [`FrameError`] if a frame cannot be encoded.
    pub fn push_stream(
        &self,
        out: &mut Vec<u8>,
        correlation: u64,
        ticket: u64,
        provenance: Provenance,
    ) -> Result<(), FrameError> {
        let start = out.len();
        let pushed = self.push_frames(out, correlation, ticket, provenance);
        if pushed.is_err() {
            out.truncate(start);
        }
        pushed
    }

    fn push_frames(
        &self,
        out: &mut Vec<u8>,
        correlation: u64,
        ticket: u64,
        provenance: Provenance,
    ) -> Result<(), FrameError> {
        let mut seq: u32 = 0;
        for chunk in self.chunks() {
            // A chunk frame's payload is `seq` (u32 BE) followed by the
            // raw slice, encoded straight into the outbox.
            wire::encode_frame2_into(
                out,
                msg::CHUNK,
                wire::flag::CHUNK,
                correlation,
                &[&seq.to_be_bytes(), chunk],
            )?;
            seq = seq.wrapping_add(1);
        }
        let summary = Response::Summary {
            ticket,
            provenance,
            chunks: seq,
            total_bytes: u64::try_from(self.bytes.len()).unwrap_or(u64::MAX),
            digest: self.digest,
        };
        out.extend_from_slice(&summary.to_frame2(correlation)?);
        Ok(())
    }
}

impl Deref for Answer {
    type Target = JobResult;

    fn deref(&self) -> &JobResult {
        self.decoded.get_or_init(|| {
            // The bytes are one canonical result: `from_bytes` decoded
            // them, and `encode` writes only what `decode` accepts. The
            // fallback is never taken.
            decode_exact(&self.bytes)
                .unwrap_or(JobResult::Bathtub { pairs: Vec::new(), rendered: String::new() })
        })
    }
}

/// Decodes `bytes` as exactly one result, with no trailing bytes.
fn decode_exact(bytes: &[u8]) -> Result<JobResult, FrameError> {
    let mut r = Reader::new(bytes);
    let result = JobResult::decode(&mut r)?;
    r.expect_end()?;
    Ok(result)
}

/// `result`'s canonical encoding and the end offset of every chunk in
/// it (see [`JobResult::encode_marked`] for where the cuts fall).
///
/// # Errors
///
/// [`FrameError`] if the result does not encode or a chunk is too large
/// for one frame.
fn encode_cut(result: &JobResult) -> Result<(Vec<u8>, Vec<usize>), FrameError> {
    let mut w = Writer::new();
    let mut ends = Vec::new();
    result.encode_marked(&mut w, |end| ends.push(end))?;
    fit_frames(&ends)?;
    Ok((w.finish(), ends))
}

/// Fails unless every chunk ending at `ends` fits one `CHUNK` frame.
fn fit_frames(ends: &[usize]) -> Result<(), FrameError> {
    let mut start = 0;
    for &end in ends {
        let frame = u64::try_from(end - start).unwrap_or(u64::MAX).saturating_add(CHUNK_SEQ_BYTES);
        if frame > u64::from(MAX_PAYLOAD) {
            return Err(FrameError::Oversized { len: frame, max: u64::from(MAX_PAYLOAD) });
        }
        start = end;
    }
    Ok(())
}

/// `bytes` cut at `ends`.
fn slices<'a>(bytes: &'a [u8], ends: &'a [usize]) -> impl Iterator<Item = &'a [u8]> + 'a {
    let starts = std::iter::once(0).chain(ends.iter().copied());
    starts.zip(ends).map(move |(start, &end)| bytes.get(start..end).unwrap_or(&[]))
}

/// Splits `result`'s canonical encoding into the semantic slices of its
/// [`Answer`], whose concatenation reproduces [`JobResult::encoded`] byte
/// for byte.
///
/// # Errors
///
/// [`FrameError`] if the result does not encode or a slice is too large
/// for one frame.
pub fn chunk_result(result: &JobResult) -> Result<Vec<Vec<u8>>, FrameError> {
    let (bytes, ends) = encode_cut(result)?;
    Ok(slices(&bytes, &ends).map(<[u8]>::to_vec).collect())
}

/// Appends `result` to `out` as the answer to submission `correlation`;
/// see [`Answer::push_stream`].
///
/// # Errors
///
/// [`FrameError`] if `result` has no [`Answer`] or a frame cannot be
/// encoded.
pub fn push_stream(
    out: &mut Vec<u8>,
    correlation: u64,
    ticket: u64,
    provenance: Provenance,
    result: &JobResult,
) -> Result<(), FrameError> {
    Answer::new(result)?.push_stream(out, correlation, ticket, provenance)
}

/// Client-side accumulator for one correlation id's chunk stream.
///
/// Chunks must arrive in `seq` order within their correlation (the
/// daemon emits them that way; interleaving happens only *across*
/// correlations). [`Reassembler::finish`] verifies the summary's chunk
/// count, byte count, and digest against what actually arrived, then
/// decodes the job result from the concatenated bytes.
#[derive(Debug, Default)]
pub struct Reassembler {
    bytes: Vec<u8>,
    chunks: u32,
}

impl Reassembler {
    /// An empty stream.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Chunks received so far.
    pub fn chunks(&self) -> u32 {
        self.chunks
    }

    /// Appends one chunk.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] if `seq` is not the next expected
    /// position, distinguishing a replay (`seq` already consumed —
    /// a duplicate or late reordered chunk) from a gap (`seq` beyond
    /// the next slot — a lost or early reordered chunk), so transcripts
    /// name the hostile pattern they rejected.
    pub fn push(&mut self, seq: u32, bytes: &[u8]) -> Result<(), FrameError> {
        if seq < self.chunks {
            return Err(FrameError::BadPayload { context: "duplicate or replayed chunk seq" });
        }
        if seq > self.chunks {
            return Err(FrameError::BadPayload { context: "chunk seq gap" });
        }
        self.bytes.extend_from_slice(bytes);
        self.chunks = self.chunks.wrapping_add(1);
        Ok(())
    }

    /// Verifies the stream against its summary and decodes the result.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] on a chunk-count, byte-count, or digest
    /// mismatch; any [`FrameError`] from decoding the reassembled bytes.
    pub fn finish(
        self,
        chunks: u32,
        total_bytes: u64,
        digest: u64,
    ) -> Result<JobResult, FrameError> {
        if self.chunks != chunks {
            return Err(FrameError::BadPayload { context: "summary chunk count mismatch" });
        }
        if u64::try_from(self.bytes.len()).unwrap_or(u64::MAX) != total_bytes {
            return Err(FrameError::BadPayload { context: "summary byte count mismatch" });
        }
        if stream_digest(&self.bytes) != digest {
            return Err(FrameError::BadPayload { context: "summary digest mismatch" });
        }
        decode_exact(&self.bytes)
    }
}

/// One event from a pipelined session, tagged with the correlation
/// id the client chose at submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A partial-result slice landed (already folded into the stream's
    /// [`Reassembler`]; carried here so callers can render live).
    Chunk {
        /// The submission this slice belongs to.
        correlation: u64,
        /// Position in the stream.
        seq: u32,
        /// The slice's bytes.
        bytes: Vec<u8>,
    },
    /// A submission finished; the reassembled result passed summary
    /// verification.
    Done {
        /// The submission this result answers.
        correlation: u64,
        /// Admission ticket.
        ticket: u64,
        /// How the result was produced.
        provenance: Provenance,
        /// The stream's digest, already verified against the
        /// reassembled bytes — callers comparing results across runs can
        /// use it without rehashing.
        digest: u64,
        /// The verified, decoded result.
        result: JobResult,
    },
    /// The daemon shed the submission (queue or pipeline-depth cap).
    Busy {
        /// The submission that was shed.
        correlation: u64,
        /// Jobs queued at the service.
        queue_depth: u32,
        /// The service's queue capacity.
        queue_capacity: u32,
    },
    /// The submission was admitted but failed, or the daemon rejected
    /// the frame itself (then `correlation` is [`crate::proto::FAILURE_ID`]).
    Failed {
        /// The submission that failed.
        correlation: u64,
        /// Admission ticket, or [`crate::proto::FAILURE_ID`].
        ticket: u64,
        /// The failure, rendered.
        message: String,
    },
    /// Reply to a pipelined ping.
    Pong {
        /// The probe's correlation.
        correlation: u64,
        /// The echoed token.
        token: u64,
    },
    /// Reply to a pipelined stats poll.
    Stats {
        /// The poll's correlation.
        correlation: u64,
        /// The counters.
        stats: ServiceStats,
    },
    /// The daemon acknowledged shutdown.
    Goodbye {
        /// The shutdown request's correlation.
        correlation: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireDieRecord;
    use crate::wire::Writer;

    fn samples() -> Vec<JobResult> {
        vec![
            JobResult::Shmoo {
                thresholds_mv: vec![-1400, -1300, -1200],
                phases_fs: vec![0, 10_000_000, 20_000_000],
                pass: vec![true, false, true, true, false, false, true, true, true],
                rendered: "shmoo 3x3".to_string(),
            },
            JobResult::Shmoo {
                thresholds_mv: Vec::new(),
                phases_fs: Vec::new(),
                pass: Vec::new(),
                rendered: "empty".to_string(),
            },
            JobResult::Wafer {
                records: (0..150)
                    .map(|i| WireDieRecord {
                        die: i,
                        bin: u8::try_from(i % 3).unwrap_or(0),
                        bist_errors: i * 7,
                        eye_ui: if i % 2 == 0 { Some(0.5 + f64::from(i) / 1000.0) } else { None },
                    })
                    .collect(),
                touchdowns: 12,
                injected_hard: 3,
                injected_marginal: 5,
                rendered: "wafer map".to_string(),
            },
            JobResult::Eye {
                points: (0..130)
                    .map(|i| (i64::from(i) * 10_000, 256, u32::from(i % 5 == 0)))
                    .collect(),
                step_fs: 10_000,
                rendered: "eye tub".to_string(),
            },
            JobResult::Bathtub {
                pairs: (0..600).map(|i| (f64::from(i) / 600.0, 1e-12 * f64::from(i))).collect(),
                rendered: "bathtub sweep: 600 points".to_string(),
            },
        ]
    }

    /// Results whose shapes the workloads never produce but the codec
    /// accepts: a pass map that is not a whole number of rows, a pass map
    /// with no phases, empty bulk of every kind, empty renderings.
    fn irregular() -> Vec<JobResult> {
        vec![
            JobResult::Shmoo {
                thresholds_mv: vec![-1400, -1300, -1200],
                phases_fs: vec![0, 10_000_000, 20_000_000],
                pass: vec![true, false, true, true, false, false, true],
                rendered: String::new(),
            },
            JobResult::Shmoo {
                thresholds_mv: vec![-1400],
                phases_fs: Vec::new(),
                pass: vec![true, false, true],
                rendered: "no phases".to_string(),
            },
            JobResult::Wafer {
                records: Vec::new(),
                touchdowns: 0,
                injected_hard: 0,
                injected_marginal: 0,
                rendered: String::new(),
            },
            JobResult::Eye { points: Vec::new(), step_fs: 0, rendered: String::new() },
            JobResult::Bathtub { pairs: Vec::new(), rendered: String::new() },
            JobResult::Bathtub {
                pairs: (0..256).map(|i| (f64::from(i), 0.5)).collect(),
                rendered: String::new(),
            },
        ]
    }

    /// The chunker as it stood before answers existed — every slice
    /// encoded on its own — kept as the oracle the cuts must match.
    fn reference_chunks(result: &JobResult) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        let mut w = Writer::new();
        match result {
            JobResult::Shmoo { thresholds_mv, phases_fs, pass, rendered } => {
                w.u8(1);
                w.count(thresholds_mv.len()).unwrap();
                thresholds_mv.iter().for_each(|v| w.i32(*v));
                w.count(phases_fs.len()).unwrap();
                phases_fs.iter().for_each(|p| w.i64(*p));
                w.count(pass.len()).unwrap();
                chunks.push(std::mem::take(&mut w).finish());
                for row in pass.chunks(phases_fs.len().max(1)) {
                    row.iter().for_each(|b| w.bool(*b));
                    chunks.push(std::mem::take(&mut w).finish());
                }
                w.str(rendered).unwrap();
            }
            JobResult::Wafer {
                records,
                touchdowns,
                injected_hard,
                injected_marginal,
                rendered,
            } => {
                w.u8(2);
                w.count(records.len()).unwrap();
                chunks.push(std::mem::take(&mut w).finish());
                for stripe in records.chunks(WAFER_STRIPE_RECORDS) {
                    for rec in stripe {
                        w.u32(rec.die);
                        w.u8(rec.bin);
                        w.u32(rec.bist_errors);
                        w.bool(rec.eye_ui.is_some());
                        rec.eye_ui.iter().for_each(|ui| w.f64(*ui));
                    }
                    chunks.push(std::mem::take(&mut w).finish());
                }
                w.u32(*touchdowns);
                w.u32(*injected_hard);
                w.u32(*injected_marginal);
                w.str(rendered).unwrap();
            }
            JobResult::Eye { points, step_fs, rendered } => {
                w.u8(3);
                w.count(points.len()).unwrap();
                chunks.push(std::mem::take(&mut w).finish());
                for column in points.chunks(EYE_COLUMN_POINTS) {
                    for (phase, compared, errors) in column {
                        w.i64(*phase);
                        w.u32(*compared);
                        w.u32(*errors);
                    }
                    chunks.push(std::mem::take(&mut w).finish());
                }
                w.i64(*step_fs);
                w.str(rendered).unwrap();
            }
            JobResult::Bathtub { pairs, rendered } => {
                w.u8(4);
                w.count(pairs.len()).unwrap();
                chunks.push(std::mem::take(&mut w).finish());
                for segment in pairs.chunks(BATHTUB_SEGMENT_PAIRS) {
                    for (phase, ber) in segment {
                        w.f64(*phase);
                        w.f64(*ber);
                    }
                    chunks.push(std::mem::take(&mut w).finish());
                }
                w.str(rendered).unwrap();
            }
        }
        chunks.push(w.finish());
        chunks.retain(|c| !c.is_empty());
        chunks
    }

    /// The stream framing as it stood before answers existed: one
    /// `Response::Chunk` frame per slice, digested slice by slice, then
    /// the summary.
    fn reference_frames(chunks: &[Vec<u8>], correlation: u64, ticket: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut digest = StreamDigest::new();
        for (seq, bytes) in (0u32..).zip(chunks) {
            digest.absorb(bytes);
            let chunk = Response::Chunk { seq, bytes: bytes.clone() };
            out.extend_from_slice(&chunk.to_frame2(correlation).unwrap());
        }
        let summary = Response::Summary {
            ticket,
            provenance: Provenance::Batched,
            chunks: u32::try_from(chunks.len()).unwrap(),
            total_bytes: chunks.iter().map(|c| c.len() as u64).sum(),
            digest: digest.finish(),
        };
        out.extend_from_slice(&summary.to_frame2(correlation).unwrap());
        out
    }

    /// An answer — built from the result or from its stored bytes — cuts,
    /// digests and frames exactly as the per-slice chunker did, for every
    /// result kind and every irregular shape.
    #[test]
    fn answers_match_the_reference_chunker_and_framing() {
        for result in samples().into_iter().chain(irregular()) {
            let encoded = result.encoded().unwrap();
            let reference = reference_chunks(&result);
            let frames = reference_frames(&reference, 9, 42);
            for answer in
                [Answer::new(&result).unwrap(), Answer::from_bytes(encoded.clone()).unwrap()]
            {
                let cuts: Vec<Vec<u8>> = answer.chunks().map(<[u8]>::to_vec).collect();
                assert_eq!(cuts, reference, "{result:?}");
                assert_eq!(answer.bytes(), &encoded[..]);
                assert_eq!(cuts.concat(), encoded);
                assert_eq!(answer.digest(), stream_digest(&encoded));
                let mut out = Vec::new();
                answer.push_stream(&mut out, 9, 42, Provenance::Batched).unwrap();
                assert_eq!(out, frames, "{result:?}");
                assert_eq!(*answer, result);
            }
            assert_eq!(chunk_result(&result).unwrap(), reference);
            let mut out = Vec::new();
            push_stream(&mut out, 9, 42, Provenance::Batched, &result).unwrap();
            assert_eq!(out, frames);
        }
    }

    /// Stored bytes become an answer only if they are exactly one
    /// canonical result.
    #[test]
    fn answers_from_bytes_reject_anything_but_one_canonical_result() {
        let encoded = samples()[0].encoded().unwrap();
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(Answer::from_bytes(trailing).is_err());
        assert!(Answer::from_bytes(encoded[..encoded.len() - 1].to_vec()).is_err());
        assert!(Answer::from_bytes(Vec::new()).is_err());
        let mut bad_tag = encoded.clone();
        bad_tag[0] = 9;
        assert!(Answer::from_bytes(bad_tag).is_err());
        // The first pass-map cell of the 3x3 shmoo: a bool must be 0 or 1.
        let mut bad_bool = encoded;
        bad_bool[1 + 4 + 12 + 4 + 24 + 4] = 2;
        assert!(Answer::from_bytes(bad_bool).is_err());
    }

    /// A result whose slice cannot fit one frame has no answer, and
    /// `push_stream` appends nothing for it.
    #[test]
    fn an_unframeable_result_has_no_answer() {
        let result = JobResult::Bathtub { pairs: Vec::new(), rendered: "x".repeat(1 << 20) };
        assert!(matches!(Answer::new(&result), Err(FrameError::Oversized { .. })));
        assert!(chunk_result(&result).is_err());
        let mut out = vec![7u8];
        assert!(push_stream(&mut out, 1, 1, Provenance::Computed, &result).is_err());
        assert_eq!(out, vec![7u8]);
    }

    /// A result the decoder would reject does not encode, so it has no
    /// answer either: an answer's bytes always decode.
    #[test]
    fn a_result_that_would_not_decode_has_no_answer() {
        let result = JobResult::Wafer {
            records: vec![WireDieRecord { die: 0, bin: 3, bist_errors: 0, eye_ui: None }],
            touchdowns: 1,
            injected_hard: 0,
            injected_marginal: 0,
            rendered: String::new(),
        };
        let bin_code = FrameError::BadPayload { context: "bin code" };
        assert_eq!(result.encoded(), Err(bin_code.clone()));
        assert_eq!(Answer::new(&result).err(), Some(bin_code));
        assert!(chunk_result(&result).is_err());
    }

    /// The digest is a function of the byte sequence alone — any split
    /// across absorb calls, including empty and sub-word slices, yields
    /// the one-shot value.
    #[test]
    fn stream_digest_is_split_invariant() {
        let data: Vec<u8> = (0u32..1000).map(|i| u8::try_from(i % 251).unwrap_or(0)).collect();
        let oneshot = stream_digest(&data);
        for split in [0usize, 1, 3, 7, 8, 9, 64, 500, 999, 1000] {
            let mut d = StreamDigest::new();
            let (a, b) = data.split_at(split);
            d.absorb(a);
            d.absorb(&[]);
            d.absorb(b);
            assert_eq!(d.finish(), oneshot, "split at {split}");
        }
        let mut byte_at_a_time = StreamDigest::new();
        for b in &data {
            byte_at_a_time.absorb(&[*b]);
        }
        assert_eq!(byte_at_a_time.finish(), oneshot);
    }

    /// Length is part of the digest: trailing zeros and prefixes do not
    /// collide, and distinct byte sequences differ.
    #[test]
    fn stream_digest_separates_lengths_and_contents() {
        assert_ne!(stream_digest(b""), stream_digest(b"\0"));
        assert_ne!(stream_digest(b"\0"), stream_digest(b"\0\0"));
        assert_ne!(stream_digest(b"12345678"), stream_digest(b"1234567"));
        assert_ne!(stream_digest(b"12345678"), stream_digest(b"12345679"));
        assert_ne!(stream_digest(b"abcdefgh12345678"), stream_digest(b"abcdefgh12345679"));
        // Same value every call: pure function, no hidden state.
        assert_eq!(stream_digest(b"abc"), stream_digest(b"abc"));
    }

    /// The load-bearing invariant: concatenated chunks are byte-identical
    /// to the monolithic encoding, for every result shape.
    #[test]
    fn chunk_concatenation_is_the_monolithic_encoding() {
        for result in samples() {
            let monolithic = result.encoded().unwrap();
            let chunks = chunk_result(&result).unwrap();
            assert!(chunks.len() >= 2, "preamble + footer at minimum");
            assert!(chunks.iter().all(|c| !c.is_empty()));
            let concat: Vec<u8> = chunks.iter().flatten().copied().collect();
            assert_eq!(concat, monolithic, "{result:?}");
        }
    }

    #[test]
    fn bulk_payloads_split_at_semantic_boundaries() {
        let results = samples();
        // 3x3 shmoo: preamble + 3 rows + footer.
        assert_eq!(chunk_result(&results[0]).unwrap().len(), 5);
        // 150 records at 64/stripe: preamble + 3 stripes + footer.
        assert_eq!(chunk_result(&results[2]).unwrap().len(), 5);
        // 130 points at 64/column: preamble + 3 columns + footer.
        assert_eq!(chunk_result(&results[3]).unwrap().len(), 5);
        // 600 pairs at 256/segment: preamble + 3 segments + footer.
        assert_eq!(chunk_result(&results[4]).unwrap().len(), 5);
    }

    #[test]
    fn reassembler_round_trips_and_verifies() {
        for result in samples() {
            let chunks = chunk_result(&result).unwrap();
            let concat: Vec<u8> = chunks.iter().flatten().copied().collect();
            let mut asm = Reassembler::new();
            for (seq, chunk) in chunks.iter().enumerate() {
                asm.push(u32::try_from(seq).unwrap_or(u32::MAX), chunk).unwrap();
            }
            let n = asm.chunks();
            let back = asm
                .finish(n, u64::try_from(concat.len()).unwrap_or(0), stream_digest(&concat))
                .unwrap();
            assert_eq!(back, result);
        }
    }

    #[test]
    fn reassembler_rejects_reordering_and_bad_summaries() {
        let result = samples().remove(0);
        let chunks = chunk_result(&result).unwrap();
        let concat: Vec<u8> = chunks.iter().flatten().copied().collect();
        let total = u64::try_from(concat.len()).unwrap_or(0);
        let digest = stream_digest(&concat);
        let n = u32::try_from(chunks.len()).unwrap_or(0);

        // A skipped seq is rejected at push time.
        let mut asm = Reassembler::new();
        asm.push(0, &chunks[0]).unwrap();
        assert!(asm.push(2, &chunks[2]).is_err());

        let assemble = || {
            let mut asm = Reassembler::new();
            for (seq, chunk) in chunks.iter().enumerate() {
                asm.push(u32::try_from(seq).unwrap_or(u32::MAX), chunk).unwrap();
            }
            asm
        };
        // Wrong chunk count, byte count, or digest each fail verification.
        assert!(assemble().finish(n + 1, total, digest).is_err());
        assert!(assemble().finish(n, total + 1, digest).is_err());
        assert!(assemble().finish(n, total, digest ^ 1).is_err());
        assert!(assemble().finish(n, total, digest).is_ok());
    }
}
