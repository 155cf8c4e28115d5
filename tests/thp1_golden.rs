//! Frozen THP/1 frames, kept after the revision was retired.
//!
//! The daemon speaks THP/2 only, so a THP/1 client's bytes are now hostile
//! input. These vectors pin two things: the payload grammar THP/2
//! inherited unchanged (a THP/1 payload is still a THP/2 payload), and
//! that every THP/1 frame — whole, cut short or mangled — is rejected by
//! the THP/2 decoder with a typed error and answered by the daemon's own
//! session with a THP/2 `Failed` under the reserved failure id.

use std::io::{Read, Write};

use atd::proto::msg;
use atd::wire::{self, flag, FrameError, HEADER2_LEN, MAX_PAYLOAD, VERSION2};
use atd::{JobSpec, Loopback, Request, Response, Scheduler, Service, FAILURE_ID};
use exec::ExecPool;
use pstime::{DataRate, Duration};

/// Length of the retired THP/1 header: magic, version, type, two reserved
/// bytes, big-endian u32 payload length.
const THP1_HEADER_LEN: usize = 12;

/// `Ping { token: 0x0123_4567_89AB_CDEF }` as THP/1 put it on the wire.
const PING_FRAME: [u8; 20] = [
    0x54, 0x48, 0x50, 0x31, // magic "THP1"
    0x01, // version 1
    0x01, // PING
    0x00, 0x00, // reserved
    0x00, 0x00, 0x00, 0x08, // payload length 8
    0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, // token, big-endian
];

/// `Submit { session: 7, spec: bathtub(3 ps, 20 ps, 2.5 Gb/s, 0.5, 101) }`
/// as THP/1 put it on the wire.
const SUBMIT_BATHTUB_FRAME: [u8; 53] = [
    0x54, 0x48, 0x50, 0x31, // magic
    0x01, // version
    0x03, // SUBMIT
    0x00, 0x00, // reserved
    0x00, 0x00, 0x00, 0x29, // payload length 41
    0x00, 0x00, 0x00, 0x07, // session 7
    0x04, // spec tag: bathtub
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0B, 0xB8, // rj_rms = 3_000 fs
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4E, 0x20, // dj_pp = 20_000 fs
    0x00, 0x00, 0x00, 0x00, 0x95, 0x02, 0xF9, 0x00, // rate = 2_500_000_000 bps
    0x3F, 0xE0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // transition density 0.5
    0x00, 0x00, 0x00, 0x65, // points 101
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

/// Feeds `bytes` to a fresh in-process daemon session and returns every
/// byte it answers with before ending the stream.
fn daemon_reply(bytes: &[u8]) -> Vec<u8> {
    let service = Service::new(ExecPool::serial(), Scheduler::new(4, 8));
    let mut link = Loopback::new(service);
    link.write_all(bytes).unwrap();
    let mut reply = Vec::new();
    link.read_to_end(&mut reply).unwrap();
    reply
}

/// Asserts the daemon answers `bytes` with exactly one THP/2 `Failed`
/// frame under the reserved failure id.
fn assert_daemon_rejects(bytes: &[u8]) {
    let reply = daemon_reply(bytes);
    let (header, payload) = wire::decode_frame2(&reply)
        .unwrap_or_else(|e| panic!("reply to {bytes:02x?} is not one THP/2 frame: {e}"));
    assert_eq!(header.correlation, FAILURE_ID, "{bytes:02x?}");
    match Response::from_parts(header.msg_type, payload).unwrap() {
        Response::Failed { ticket, .. } => assert_eq!(ticket, FAILURE_ID, "{bytes:02x?}"),
        other => panic!("a THP/1 frame earns a Failed reply, got {other:?}"),
    }
}

/// The THP/1 payload is byte for byte the THP/2 payload of the same
/// message, while the THP/1 frame itself is refused by magic.
fn assert_payload_carried_over(frame: &[u8], request: &Request) {
    let payload = &frame[THP1_HEADER_LEN..];
    assert_eq!(Request::from_parts(frame[5], payload).unwrap(), *request);
    let thp2 = request.to_frame2(1).unwrap();
    assert_eq!(&thp2[HEADER2_LEN..], payload);
    assert_eq!(thp2[5], frame[5], "type codes carried over");
    assert_eq!(wire::decode_frame2(frame), Err(FrameError::BadMagic { found: *b"THP1" }));
    assert_daemon_rejects(frame);
}

#[test]
fn ping_frame_matches_golden_bytes() {
    assert_eq!(PING_FRAME[5], msg::PING);
    assert_payload_carried_over(&PING_FRAME, &golden_ping());
}

#[test]
fn submit_frame_matches_golden_bytes() {
    assert_eq!(SUBMIT_BATHTUB_FRAME[5], msg::SUBMIT);
    assert_payload_carried_over(&SUBMIT_BATHTUB_FRAME, &golden_submit());
}

/// Every prefix of a THP/1 frame is rejected by the THP/2 decoder, and
/// the daemon answers as soon as the five revision bytes are in — before
/// that it owes nothing and says nothing.
#[test]
fn every_truncation_is_rejected() {
    for cut in 0..=SUBMIT_BATHTUB_FRAME.len() {
        let prefix = &SUBMIT_BATHTUB_FRAME[..cut];
        let err = wire::decode_frame2(prefix)
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes decoded"));
        if cut < HEADER2_LEN {
            assert_eq!(err, FrameError::Truncated { needed: HEADER2_LEN, have: cut }, "cut {cut}");
        } else {
            assert_eq!(err, FrameError::BadMagic { found: *b"THP1" }, "cut {cut}");
        }
        if cut < 5 {
            assert!(daemon_reply(prefix).is_empty(), "cut {cut}");
        } else {
            assert_daemon_rejects(prefix);
        }
    }
}

/// A client that updated its magic but not its version byte is refused
/// by version, whatever follows.
#[test]
fn wrong_version_is_rejected() {
    let mut frame = PING_FRAME;
    frame[3] = b'2'; // "THP2", still version 1
    assert_eq!(wire::decode_frame2(&frame), Err(FrameError::UnsupportedVersion { found: 1 }));
    assert_daemon_rejects(&frame);

    let mut thp2 = golden_ping().to_frame2(1).unwrap();
    thp2[4] = PING_FRAME[4];
    assert_eq!(wire::decode_frame2(&thp2), Err(FrameError::UnsupportedVersion { found: 1 }));
    assert_daemon_rejects(&thp2);
}

/// THP/1's two zero reserved bytes sit where THP/2 keeps its flag byte
/// and its one reserved byte: relabelled as THP/2, a THP/1 header fails
/// the flag check, and a non-zero reserved byte is still refused.
#[test]
fn reserved_bytes_must_be_zero() {
    let mut relabelled = PING_FRAME.to_vec();
    relabelled[3] = b'2';
    relabelled[4] = VERSION2;
    relabelled.resize(HEADER2_LEN, 0);
    assert_eq!(
        wire::decode_header2(&relabelled),
        Err(FrameError::BadPayload { context: "flags must be exactly FINAL or CHUNK" })
    );
    assert_daemon_rejects(&relabelled);

    let mut frame = golden_ping().to_frame2(1).unwrap();
    frame[7] = 0xFF;
    assert_eq!(wire::decode_frame2(&frame), Err(FrameError::ReservedNonZero { found: 0xFF }));
    assert_daemon_rejects(&frame);
}

/// A THP/1 header declaring more than [`MAX_PAYLOAD`] bytes is refused by
/// its revision bytes before its length is ever read; the same length in
/// a THP/2 header is refused as oversized.
#[test]
fn oversized_declared_length_is_rejected() {
    let too_big = MAX_PAYLOAD + 1;
    let mut frame = PING_FRAME.to_vec();
    frame[8..12].copy_from_slice(&too_big.to_be_bytes());
    assert_eq!(wire::decode_header2(&frame), Err(FrameError::BadMagic { found: *b"THP1" }));
    assert_daemon_rejects(&frame[..THP1_HEADER_LEN]);

    let mut thp2 = golden_ping().to_frame2(1).unwrap();
    thp2[16..20].copy_from_slice(&too_big.to_be_bytes());
    assert_eq!(
        wire::decode_header2(&thp2),
        Err(FrameError::Oversized { len: u64::from(too_big), max: u64::from(MAX_PAYLOAD) })
    );
    assert_daemon_rejects(&thp2[..HEADER2_LEN]);
}

#[test]
fn trailing_bytes_are_rejected() {
    // After the frame: still refused by magic, never read as a payload.
    let mut frame = PING_FRAME.to_vec();
    frame.push(0xAA);
    assert_eq!(wire::decode_frame2(&frame), Err(FrameError::BadMagic { found: *b"THP1" }));
    assert_daemon_rejects(&frame);

    // Inside the carried-over payload: length says 9 but the grammar
    // consumes 8.
    let mut padded = PING_FRAME[THP1_HEADER_LEN..].to_vec();
    padded.push(0xAA);
    assert_eq!(
        Request::from_parts(msg::PING, &padded),
        Err(FrameError::TrailingBytes { extra: 1 })
    );
    let thp2 = wire::encode_frame2(msg::PING, flag::FINAL, 1, &padded).unwrap();
    assert_daemon_rejects(&thp2);
}
