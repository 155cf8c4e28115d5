//! Streaming partial results: splitting a [`JobResult`]'s canonical
//! encoding into semantic slices, and reassembling + verifying them on
//! the client side.
//!
//! The chunker cuts at the natural boundaries of each workload — shmoo
//! pass-map rows, wafer-map stripes, eye-scan strobe columns, bathtub
//! segments — so a live client can render progress as slices land. The
//! invariant the whole streaming design rests on: concatenating a
//! stream's chunks in `seq` order is **byte-identical** to the monolithic
//! [`JobResult::encoded`] bytes, at any thread count and any chunk
//! interleaving. The terminal [`crate::Response::Summary`] carries the
//! chunk count, total byte count, and a [`StreamDigest`], so a
//! [`Reassembler`] proves the identity before decoding anything.
//! [`push_stream`] is the one encoder of that framing.

use crate::proto::{msg, JobResult, Provenance, Response, ServiceStats};
use crate::wire::{self, FrameError, Reader, Writer};

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

const RESULT_SHMOO: u8 = 1;
const RESULT_WAFER: u8 = 2;
const RESULT_EYE: u8 = 3;
const RESULT_BATHTUB: u8 = 4;

/// Splits `result`'s canonical encoding into semantic slices whose
/// concatenation reproduces [`JobResult::encoded`] byte for byte. Every
/// result yields at least a preamble (dimensions) and a footer (trailing
/// scalars plus the rendering), with the bulk payload sliced between
/// them: one chunk per shmoo pass-row, per [`WAFER_STRIPE_RECORDS`]-die
/// wafer stripe, per [`EYE_COLUMN_POINTS`]-strobe eye column, per
/// [`BATHTUB_SEGMENT_PAIRS`]-pair bathtub segment.
///
/// # Errors
///
/// [`FrameError::Oversized`] if a sequence length exceeds u32.
pub fn chunk_result(result: &JobResult) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut chunks = Vec::new();
    match result {
        JobResult::Shmoo { thresholds_mv, phases_fs, pass, rendered } => {
            let mut w = Writer::new();
            w.u8(RESULT_SHMOO);
            w.count(thresholds_mv.len())?;
            for v in thresholds_mv {
                w.i32(*v);
            }
            w.count(phases_fs.len())?;
            for p in phases_fs {
                w.i64(*p);
            }
            w.count(pass.len())?;
            chunks.push(w.finish());
            // One chunk per pass-map row (a full strobe sweep at one
            // threshold). Hand-built results whose pass length is not a
            // multiple of the phase count still chunk exactly — the last
            // slice is simply short.
            for row in pass.chunks(phases_fs.len().max(1)) {
                let mut w = Writer::new();
                for b in row {
                    w.bool(*b);
                }
                chunks.push(w.finish());
            }
            let mut w = Writer::new();
            w.str(rendered)?;
            chunks.push(w.finish());
        }
        JobResult::Wafer { records, touchdowns, injected_hard, injected_marginal, rendered } => {
            let mut w = Writer::new();
            w.u8(RESULT_WAFER);
            w.count(records.len())?;
            chunks.push(w.finish());
            for stripe in records.chunks(WAFER_STRIPE_RECORDS) {
                let mut w = Writer::new();
                for rec in stripe {
                    w.u32(rec.die);
                    w.u8(rec.bin);
                    w.u32(rec.bist_errors);
                    match rec.eye_ui {
                        Some(ui) => {
                            w.bool(true);
                            w.f64(ui);
                        }
                        None => w.bool(false),
                    }
                }
                chunks.push(w.finish());
            }
            let mut w = Writer::new();
            w.u32(*touchdowns);
            w.u32(*injected_hard);
            w.u32(*injected_marginal);
            w.str(rendered)?;
            chunks.push(w.finish());
        }
        JobResult::Eye { points, step_fs, rendered } => {
            let mut w = Writer::new();
            w.u8(RESULT_EYE);
            w.count(points.len())?;
            chunks.push(w.finish());
            for column in points.chunks(EYE_COLUMN_POINTS) {
                let mut w = Writer::new();
                for (phase, compared, errors) in column {
                    w.i64(*phase);
                    w.u32(*compared);
                    w.u32(*errors);
                }
                chunks.push(w.finish());
            }
            let mut w = Writer::new();
            w.i64(*step_fs);
            w.str(rendered)?;
            chunks.push(w.finish());
        }
        JobResult::Bathtub { pairs, rendered } => {
            let mut w = Writer::new();
            w.u8(RESULT_BATHTUB);
            w.count(pairs.len())?;
            chunks.push(w.finish());
            for segment in pairs.chunks(BATHTUB_SEGMENT_PAIRS) {
                let mut w = Writer::new();
                for (phase, ber) in segment {
                    w.f64(*phase);
                    w.f64(*ber);
                }
                chunks.push(w.finish());
            }
            let mut w = Writer::new();
            w.str(rendered)?;
            chunks.push(w.finish());
        }
    }
    chunks.retain(|c| !c.is_empty());
    Ok(chunks)
}

/// Appends `result` to `out` as the answer to submission `correlation`:
/// one `CHUNK` frame per semantic slice, then the `FINAL`
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
/// [`FrameError::Oversized`] if a sequence or a slice exceeds its
/// ceiling.
pub fn push_stream(
    out: &mut Vec<u8>,
    correlation: u64,
    ticket: u64,
    provenance: Provenance,
    result: &JobResult,
) -> Result<(), FrameError> {
    let start = out.len();
    let pushed = push_frames(out, correlation, ticket, provenance, result);
    if pushed.is_err() {
        out.truncate(start);
    }
    pushed
}

fn push_frames(
    out: &mut Vec<u8>,
    correlation: u64,
    ticket: u64,
    provenance: Provenance,
    result: &JobResult,
) -> Result<(), FrameError> {
    let chunks = chunk_result(result)?;
    let mut total: u64 = 0;
    let mut digest = StreamDigest::new();
    let mut seq: u32 = 0;
    for chunk in &chunks {
        total = total.saturating_add(u64::try_from(chunk.len()).unwrap_or(u64::MAX));
        digest.absorb(chunk);
        // Encoded straight into the outbox: a chunk frame's payload is
        // `seq` (u32 BE) followed by the raw slice, so the hot streaming
        // path skips the per-frame Response allocation round trip.
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
        total_bytes: total,
        digest: digest.finish(),
    };
    out.extend_from_slice(&summary.to_frame2(correlation)?);
    Ok(())
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
        let mut r = Reader::new(&self.bytes);
        let result = JobResult::decode(&mut r)?;
        r.expect_end()?;
        Ok(result)
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
