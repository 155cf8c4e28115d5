//! Golden wire vectors for THP/2, the one wire protocol.
//!
//! These byte sequences are frozen: a failure here means the wire format
//! changed, which breaks every deployed client/daemon pair. Bump
//! [`atd::wire::VERSION2`] instead of editing a vector.

use atd::cache::fnv1a64;
use atd::proto::msg;
use atd::stream::{chunk_result, stream_digest};
use atd::wire::{self, flag, FrameError, HEADER2_LEN, MAGIC2, MAX_PAYLOAD, VERSION2};
use atd::{JobResult, JobSpec, Provenance, Request, Response, ServiceStats};
use pstime::{DataRate, Duration};

/// `Ping { token: 0x0123_4567_89AB_CDEF }` under correlation 17.
const PING2_FRAME: [u8; 28] = [
    0x54, 0x48, 0x50, 0x32, // magic "THP2"
    0x02, // version 2
    0x01, // PING
    0x01, // flags: FINAL
    0x00, // reserved
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, // correlation 17, big-endian
    0x00, 0x00, 0x00, 0x08, // payload length 8
    0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, // token, big-endian
];

/// `Submit { session: 7, spec: bathtub(3 ps, 20 ps, 2.5 Gb/s, 0.5, 101) }`
/// under correlation 0xDEAD_BEEF.
const SUBMIT2_BATHTUB_FRAME: [u8; 61] = [
    0x54, 0x48, 0x50, 0x32, // magic
    0x02, // version
    0x03, // SUBMIT
    0x01, // flags: FINAL (requests never stream)
    0x00, // reserved
    0x00, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, // correlation
    0x00, 0x00, 0x00, 0x29, // payload length 41
    0x00, 0x00, 0x00, 0x07, // session 7
    0x04, // spec tag: bathtub
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B, 0xB8, // rj_rms = 3_000 fs
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4E, 0x20, // dj_pp = 20_000 fs
    0x00, 0x00, 0x00, 0x00, 0x95, 0x02, 0xF9, 0x00, // rate = 2_500_000_000 bps
    0x3F, 0xE0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // transition density 0.5
    0x00, 0x00, 0x00, 0x65, // points 101
];

/// `Chunk { seq: 2, bytes: [0xAB, 0x00, 0xCD] }` under correlation 5 —
/// the only CHUNK-flagged frame in the vocabulary.
const CHUNK_FRAME: [u8; 27] = [
    0x54, 0x48, 0x50, 0x32, // magic
    0x02, // version
    0x88, // CHUNK
    0x02, // flags: CHUNK (mid-stream)
    0x00, // reserved
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // correlation 5
    0x00, 0x00, 0x00, 0x07, // payload length 7
    0x00, 0x00, 0x00, 0x02, // seq 2
    0xAB, 0x00, 0xCD, // raw slice
];

/// `Summary { ticket: 9, provenance: Computed, chunks: 3, total_bytes: 7,
/// digest: 0x1122_3344_5566_7788 }` under correlation 5 — the terminal
/// FINAL frame closing a chunk stream.
const SUMMARY_FRAME: [u8; 49] = [
    0x54, 0x48, 0x50, 0x32, // magic
    0x02, // version
    0x89, // SUMMARY
    0x01, // flags: FINAL (terminal)
    0x00, // reserved
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // correlation 5
    0x00, 0x00, 0x00, 0x1D, // payload length 29
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, // ticket 9
    0x00, // provenance: Computed
    0x00, 0x00, 0x00, 0x03, // chunks 3
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // total_bytes 7
    0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, // digest
];

/// `StatsReport` with every counter distinct under correlation 0x42 —
/// pins the order of the 112-byte counters block, including the
/// connection opened/closed pair and the persistent-store trio.
const STATS_REPORT2_FRAME: [u8; 132] = [
    0x54, 0x48, 0x50, 0x32, // magic "THP2"
    0x02, // version 2
    0x82, // STATS_REPORT
    0x01, // flags: FINAL
    0x00, // reserved
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x42, // correlation 0x42
    0x00, 0x00, 0x00, 0x70, // payload length 112
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // submitted 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, // completed 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // cache_hits 3
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, // batched 4
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, // shed 5
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, // failed 6
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // connections_opened 7
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, // connections_closed 8
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, // connections_failed 9
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0A, // frames_rejected 10
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B, // store_hits 11
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, // store_misses 12
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0D, // store_recovered 13
    0x00, 0x00, 0x01, 0x00, // queue_capacity 256
    0x00, 0x00, 0x00, 0x40, // cache_capacity 64
];

fn golden_ping() -> Request {
    Request::Ping { token: 0x0123_4567_89AB_CDEF }
}

fn golden_submit() -> Request {
    Request::Submit {
        session: 7,
        spec: JobSpec::bathtub(
            Duration::from_ps(3),
            Duration::from_ps(20),
            DataRate::from_gbps(2.5),
            0.5,
            101,
        ),
    }
}

fn golden_submit_spec() -> JobSpec {
    let Request::Submit { spec, .. } = golden_submit() else { unreachable!() };
    spec
}

fn golden_stats() -> Response {
    Response::StatsReport(ServiceStats {
        submitted: 1,
        completed: 2,
        cache_hits: 3,
        batched: 4,
        shed: 5,
        failed: 6,
        connections_opened: 7,
        connections_closed: 8,
        connections_failed: 9,
        frames_rejected: 10,
        store_hits: 11,
        store_misses: 12,
        store_recovered: 13,
        queue_capacity: 256,
        cache_capacity: 64,
    })
}

fn golden_chunk() -> Response {
    Response::Chunk { seq: 2, bytes: vec![0xAB, 0x00, 0xCD] }
}

fn golden_summary() -> Response {
    Response::Summary {
        ticket: 9,
        provenance: Provenance::Computed,
        chunks: 3,
        total_bytes: 7,
        digest: 0x1122_3344_5566_7788,
    }
}

fn decode_response2(frame: &[u8]) -> Result<(wire::Header2, Response), FrameError> {
    let (h, payload) = wire::decode_frame2(frame)?;
    Ok((h, Response::from_parts(h.msg_type, payload)?))
}

fn decode_request2(frame: &[u8]) -> Result<Request, FrameError> {
    let (h, payload) = wire::decode_frame2(frame)?;
    Request::from_parts(h.msg_type, payload)
}

#[test]
fn ping_frame_matches_golden_bytes() {
    assert_eq!(golden_ping().to_frame2(0x11).unwrap(), PING2_FRAME);
    let (h, payload) = wire::decode_frame2(&PING2_FRAME).unwrap();
    assert_eq!(h.correlation, 0x11);
    assert_eq!(h.flags, flag::FINAL);
    assert_eq!(Request::from_parts(h.msg_type, payload).unwrap(), golden_ping());
}

#[test]
fn submit_frame_matches_golden_bytes() {
    assert_eq!(golden_submit().to_frame2(0xDEAD_BEEF).unwrap(), SUBMIT2_BATHTUB_FRAME);
    let (h, payload) = wire::decode_frame2(&SUBMIT2_BATHTUB_FRAME).unwrap();
    assert_eq!(h.correlation, 0xDEAD_BEEF);
    assert_eq!(Request::from_parts(h.msg_type, payload).unwrap(), golden_submit());
}

#[test]
fn stats_report_frame_matches_golden_bytes() {
    assert_eq!(STATS_REPORT2_FRAME[5], msg::STATS_REPORT);
    assert_eq!(golden_stats().to_frame2(0x42).unwrap(), STATS_REPORT2_FRAME);
    let (h, response) = decode_response2(&STATS_REPORT2_FRAME).unwrap();
    assert_eq!(h.correlation, 0x42);
    assert_eq!(response, golden_stats());
}

/// Every remaining type code in the vocabulary is frozen: it travels at
/// header offset 5 and round-trips under its constant.
#[test]
fn remaining_type_codes_are_frozen() {
    let requests = [
        (golden_ping(), msg::PING, 0x01),
        (Request::GetStats, msg::GET_STATS, 0x02),
        (golden_submit(), msg::SUBMIT, 0x03),
        (Request::Shutdown, msg::SHUTDOWN, 0x05),
    ];
    for (request, code, frozen) in requests {
        assert_eq!(code, frozen, "{request:?}");
        let frame = request.to_frame2(1).unwrap();
        assert_eq!(frame[5], code, "{request:?}");
        assert_eq!(decode_request2(&frame).unwrap(), request);
    }
    let responses = [
        (Response::Pong { token: 3 }, msg::PONG, 0x81),
        (Response::Busy { queue_depth: 1, queue_capacity: 8 }, msg::BUSY, 0x84),
        (
            Response::Failed { ticket: 2, message: "eye completely closed".to_string() },
            msg::FAILED,
            0x85,
        ),
        (Response::Goodbye, msg::GOODBYE, 0x87),
    ];
    for (response, code, frozen) in responses {
        assert_eq!(code, frozen, "{response:?}");
        let frame = response.to_frame2(1).unwrap();
        assert_eq!(frame[5], code, "{response:?}");
        assert_eq!(decode_response2(&frame).unwrap().1, response);
    }
}

/// The retired batch and monolithic-result codes (`SUBMIT_BATCH` 0x04,
/// `JOB_DONE` 0x83, `BATCH_DONE` 0x86) are unknown in both directions.
#[test]
fn retired_codes_are_unknown_types() {
    for code in [0x04u8, 0x83, 0x86] {
        let frame = wire::encode_frame2(code, flag::FINAL, 1, &[]).unwrap();
        assert_eq!(decode_request2(&frame), Err(FrameError::UnknownType { code }));
        assert_eq!(decode_response2(&frame).err(), Some(FrameError::UnknownType { code }));
    }
}

/// The cache key is the spec's canonical bytes; its FNV-1a digest is part
/// of the deployed contract (canary output prints it).
#[test]
fn bathtub_cache_key_is_frozen() {
    let key = golden_submit_spec().key_bytes();
    // The key is the submit payload after the 4-byte session id.
    assert_eq!(key, &SUBMIT2_BATHTUB_FRAME[HEADER2_LEN + 4..]);
    assert_eq!(fnv1a64(&key), 0x6B67_8C1A_D11E_E228);
}

/// One spec of each of the seven kinds (three of them shard variants)
/// with the length and FNV-1a digest of its canonical bytes. These bytes
/// are the LRU key, the store key and the farm's route key, so no codec
/// change may move one of them.
fn frozen_spec_keys() -> [(JobSpec, usize, u64); 7] {
    let shmoo = JobSpec::Shmoo {
        rate_bps: 2_500_000_000,
        bits: 256,
        stim_seed: 17,
        phase_step_fs: 10_000,
        v_start_mv: -1650,
        v_end_mv: -950,
        v_step_mv: 50,
        seed: 5,
    };
    let wafer = JobSpec::Wafer {
        columns: 8,
        dies: 64,
        sites: 16,
        hard_defect_rate: 0.06,
        marginal_rate: 0.08,
        rate_bps: 5_000_000_000,
        test_bits: 512,
        seed: 1,
    };
    let eye = JobSpec::Eye { rate_bps: 2_500_000_000, bits: 512, stim_seed: 21, seed: 9 };
    let slice = |spec: JobSpec, start, count| spec.slice(start, count).expect("in-range slice");
    [
        (shmoo, 49, 0x38A5_C5D3_EDAB_32EF),
        (wafer, 49, 0xEF36_D6E1_6F49_E28A),
        (eye, 29, 0x4A4B_98F0_42A5_8532),
        (golden_submit_spec(), 37, 0x6B67_8C1A_D11E_E228),
        (slice(shmoo, 3, 4), 57, 0x05E3_03CD_EDA0_8A6A),
        (slice(wafer, 10, 6), 57, 0x1DBE_C172_C768_9492),
        (slice(eye, 7, 20), 37, 0x6E53_CE0B_FBE6_72B3),
    ]
}

/// Every spec kind's cache key is frozen: its length and digest are
/// pinned, it decodes back to the spec, and every strict prefix of it is
/// rejected as truncated.
#[test]
fn every_spec_kind_cache_key_is_frozen() {
    for (spec, len, digest) in frozen_spec_keys() {
        let key = spec.key_bytes();
        assert_eq!((key.len(), fnv1a64(&key)), (len, digest), "{spec:?}");
        let mut r = wire::Reader::new(&key);
        assert_eq!(JobSpec::decode(&mut r), Ok(spec));
        assert_eq!(r.expect_end(), Ok(()), "{spec:?}");
        for cut in 0..key.len() {
            let err = JobSpec::decode(&mut wire::Reader::new(&key[..cut]))
                .expect_err("a strict prefix of a key decoded");
            assert!(matches!(err, FrameError::Truncated { .. }), "{spec:?} cut {cut}: {err:?}");
        }
    }
}

/// Payload-free control messages are a bare 20-byte header.
#[test]
fn control_frames_are_bare_headers() {
    let frames = [
        (Request::GetStats.to_frame2(9).unwrap(), msg::GET_STATS),
        (Request::Shutdown.to_frame2(9).unwrap(), msg::SHUTDOWN),
        (Response::Goodbye.to_frame2(9).unwrap(), msg::GOODBYE),
    ];
    for (frame, code) in frames {
        assert_eq!(frame.len(), HEADER2_LEN);
        assert_eq!(&frame[..4], &MAGIC2);
        assert_eq!(frame[4], VERSION2);
        assert_eq!(frame[5], code);
        assert_eq!(frame[6], flag::FINAL);
        assert_eq!(&frame[7..16], &[0, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(&frame[16..], &[0, 0, 0, 0]);
    }
}

#[test]
fn chunk_frame_matches_golden_bytes() {
    assert_eq!(golden_chunk().to_frame2(5).unwrap(), CHUNK_FRAME);
    let (h, response) = decode_response2(&CHUNK_FRAME).unwrap();
    assert_eq!(h.msg_type, msg::CHUNK);
    assert_eq!(h.flags, flag::CHUNK);
    assert_eq!(h.correlation, 5);
    assert_eq!(response, golden_chunk());
}

#[test]
fn summary_frame_matches_golden_bytes() {
    assert_eq!(golden_summary().to_frame2(5).unwrap(), SUMMARY_FRAME);
    let (h, response) = decode_response2(&SUMMARY_FRAME).unwrap();
    assert_eq!(h.msg_type, msg::SUMMARY);
    assert_eq!(h.flags, flag::FINAL);
    assert_eq!(response, golden_summary());
}

/// Every strict prefix of a valid v2 frame is rejected with exact
/// truncation counts — no partial decode ever succeeds.
#[test]
fn every_truncation_is_rejected() {
    for cut in 0..SUBMIT2_BATHTUB_FRAME.len() {
        let err = wire::decode_frame2(&SUBMIT2_BATHTUB_FRAME[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes decoded"));
        if cut < HEADER2_LEN {
            assert_eq!(err, FrameError::Truncated { needed: HEADER2_LEN, have: cut }, "cut {cut}");
        } else {
            assert_eq!(
                err,
                FrameError::Truncated { needed: 41, have: cut - HEADER2_LEN },
                "cut {cut}"
            );
        }
    }
}

/// The flag byte must be exactly one of FINAL / CHUNK: neither, both, and
/// unknown bits are all rejected.
#[test]
fn flag_violations_are_rejected() {
    for bad in [0x00u8, 0x03, 0x04, 0x05, 0x80] {
        let mut frame = PING2_FRAME;
        frame[6] = bad;
        assert_eq!(
            wire::decode_frame2(&frame),
            Err(FrameError::BadPayload { context: "flags must be exactly FINAL or CHUNK" }),
            "flags {bad:#04x}"
        );
    }
}

#[test]
fn reserved_byte_must_be_zero() {
    let mut frame = PING2_FRAME;
    frame[7] = 0x5A;
    assert_eq!(wire::decode_frame2(&frame), Err(FrameError::ReservedNonZero { found: 0x5A }));
}

/// Magic and version byte must agree: a THP2 magic carrying any version
/// but 2 is rejected.
#[test]
fn cross_version_mismatches_are_rejected() {
    for version in [0u8, 1, 3, 9] {
        let mut frame = PING2_FRAME;
        frame[4] = version;
        assert_eq!(
            wire::decode_frame2(&frame),
            Err(FrameError::UnsupportedVersion { found: version })
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut frame = PING2_FRAME;
    frame[0] = b'X';
    assert_eq!(wire::decode_frame2(&frame), Err(FrameError::BadMagic { found: *b"XHP2" }));
}

#[test]
fn unknown_message_type_is_rejected() {
    let frame = wire::encode_frame2(0x7F, flag::FINAL, 1, &[]).unwrap();
    assert_eq!(decode_request2(&frame), Err(FrameError::UnknownType { code: 0x7F }));
    assert_eq!(decode_response2(&frame).err(), Some(FrameError::UnknownType { code: 0x7F }));
}

/// Response-only codes are not requests, and vice versa: the two decoders
/// reject each other's vocabulary.
#[test]
fn decoders_reject_the_other_direction() {
    let pong = wire::encode_frame2(msg::PONG, flag::FINAL, 1, &[0; 8]).unwrap();
    assert_eq!(decode_request2(&pong), Err(FrameError::UnknownType { code: msg::PONG }));
    assert_eq!(
        decode_response2(&PING2_FRAME).err(),
        Some(FrameError::UnknownType { code: msg::PING })
    );
}

/// An out-of-domain field decodes as `BadPayload`, not a panic and not a
/// spec: a bathtub with transition density 0 is rejected at the wire.
#[test]
fn out_of_domain_spec_is_rejected_at_decode() {
    let mut frame = SUBMIT2_BATHTUB_FRAME;
    // Zero the transition-density f64 (bytes 49..57 of the frame).
    for byte in &mut frame[49..57] {
        *byte = 0;
    }
    assert_eq!(
        decode_request2(&frame),
        Err(FrameError::BadPayload { context: "transition density must be in (0, 1]" })
    );
}

/// Encode → decode → encode is the identity on bytes for a representative
/// message of every type code.
#[test]
fn re_encoding_is_byte_stable() {
    let requests = vec![
        golden_ping(),
        Request::GetStats,
        golden_submit(),
        Request::Submit { session: 2, spec: JobSpec::eye(DataRate::from_gbps(2.5), 128, 3, 9) },
        Request::Shutdown,
    ];
    for request in requests {
        let frame = request.to_frame2(5).unwrap();
        let again = decode_request2(&frame).unwrap().to_frame2(5).unwrap();
        assert_eq!(frame, again, "{request:?}");
    }
    let responses = vec![
        golden_stats(),
        Response::Busy { queue_depth: 1, queue_capacity: 8 },
        Response::Failed { ticket: 2, message: "eye completely closed".to_string() },
        golden_chunk(),
        golden_summary(),
    ];
    for response in responses {
        let frame = response.to_frame2(5).unwrap();
        let again = decode_response2(&frame).unwrap().1.to_frame2(5).unwrap();
        assert_eq!(frame, again, "{response:?}");
    }
}

#[test]
fn oversized_declared_length_is_rejected() {
    let mut frame = PING2_FRAME.to_vec();
    let too_big = MAX_PAYLOAD + 1;
    frame[16..20].copy_from_slice(&too_big.to_be_bytes());
    assert_eq!(
        wire::decode_header2(&frame),
        Err(FrameError::Oversized { len: u64::from(too_big), max: u64::from(MAX_PAYLOAD) })
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    // After the declared payload length.
    let mut frame = PING2_FRAME.to_vec();
    frame.push(0xAA);
    assert_eq!(wire::decode_frame2(&frame), Err(FrameError::TrailingBytes { extra: 1 }));

    // Inside the payload: length says 9 but the grammar consumes 8.
    let padded = wire::encode_frame2(msg::PING, flag::FINAL, 1, &[0x01; 9]).unwrap();
    assert_eq!(decode_request2(&padded), Err(FrameError::TrailingBytes { extra: 1 }));
}

/// Requests may not claim the reserved failure correlation.
#[test]
fn failure_id_is_not_a_valid_request_correlation() {
    assert_eq!(
        golden_ping().to_frame2(atd::FAILURE_ID),
        Err(FrameError::BadPayload {
            context: "correlation id collides with the reserved failure id"
        })
    );
}

/// The chunk-identity contract, frozen: this golden bathtub's canonical
/// encoding, its chunk boundaries, and its stream digest. A digest
/// change here breaks summary verification between deployed revisions.
#[test]
fn golden_stream_identity_is_frozen() {
    let result = JobResult::Bathtub {
        pairs: vec![(0.25, 1e-9), (0.5, 1e-12), (0.75, 1e-9)],
        rendered: "bathtub sweep: 3 points".to_string(),
    };
    let monolithic = result.encoded().unwrap();
    let chunks = chunk_result(&result).unwrap();
    // Preamble (tag + count), one 3-pair segment, footer (rendering).
    assert_eq!(chunks.len(), 3);
    let concat: Vec<u8> = chunks.iter().flatten().copied().collect();
    assert_eq!(concat, monolithic);
    assert_eq!(stream_digest(&concat), 0x53DB_0FF4_1927_BA00);
}

/// The digest function itself is frozen with raw vectors: deployed
/// daemons and clients must agree on these values forever.
#[test]
fn stream_digest_vectors_are_frozen() {
    assert_eq!(stream_digest(b""), 0xFA59_107A_9911_8A2B);
    assert_eq!(stream_digest(b"a"), 0xCBED_6C9D_AFD3_A03C);
    assert_eq!(stream_digest(b"gigatest"), 0x3CB9_9E5A_468D_382D);
    assert_eq!(stream_digest(b"gigatest-atd THP/2"), 0x6B7A_A6BC_70C1_006D);
}
