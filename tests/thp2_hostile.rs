//! Hostile-transport tests for the event-loop daemon: slow-loris
//! dribblers, truncated frames, and mid-pipeline disconnects must cost
//! one connection each — never the daemon, and never another session.
//!
//! Everything here is deterministic in outcome (counters and survival),
//! not in timing: the loops poll service counters with a bounded retry
//! budget instead of sleeping fixed wall-clock amounts.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use atd::scheduler::Scheduler;
use atd::{
    serve_with, JobSpec, PipelinedClient, Response, ServerConfig, Service, ServiceStats, FAILURE_ID,
};
use exec::ExecPool;
use pstime::{DataRate, Duration};

/// Retry cadence for counter polls.
const POLL: core::time::Duration = core::time::Duration::from_millis(10);
/// Bounded patience: 10 ms × 1000 = ten seconds worst case.
const POLL_BUDGET: usize = 1000;

fn bathtub(points: u32) -> JobSpec {
    JobSpec::bathtub(
        Duration::from_ps_f64(3.2),
        Duration::from_ps(20),
        DataRate::from_gbps(2.5),
        0.5,
        points,
    )
}

/// Boots a daemon with an aggressive idle budget so stalled connections
/// are evicted within test patience.
fn boot(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        let service = Service::new(ExecPool::serial(), Scheduler::new(64, 64));
        serve_with(&listener, service, config).unwrap();
    });
    (addr, daemon)
}

/// Polls `stats` through a healthy THP/2 session until `done` approves
/// or patience runs out; returns the last counters either way.
fn poll_stats(admin: &mut PipelinedClient, done: impl Fn(&ServiceStats) -> bool) -> ServiceStats {
    let mut last = admin.stats().unwrap();
    for _ in 0..POLL_BUDGET {
        if done(&last) {
            break;
        }
        std::thread::sleep(POLL);
        last = admin.stats().unwrap();
    }
    last
}

/// A slow-loris peer dribbles half a header and stalls forever. The
/// daemon must evict it on the idle budget while a healthy session keeps
/// getting answers, and must count the eviction.
#[test]
fn slow_loris_is_evicted_while_healthy_sessions_are_served() {
    let (addr, daemon) = boot(ServerConfig { pipeline_depth: 8, idle_budget: 50 });

    let mut loris = TcpStream::connect(addr).unwrap();
    // Seven bytes of a THP/2 ping header — enough to pin version 2, not
    // enough to parse a frame — then silence.
    loris.write_all(&[0x54, 0x48, 0x50, 0x32, 0x02, 0x01, 0x01]).unwrap();
    loris.flush().unwrap();

    let mut healthy = PipelinedClient::connect(addr).unwrap();
    // The healthy session stays live through the entire eviction window.
    for token in 0..20 {
        assert_eq!(healthy.ping(token).unwrap(), token);
    }
    let stats = poll_stats(&mut healthy, |s| s.connections_failed >= 1);
    assert_eq!(stats.connections_failed, 1, "loris eviction must be counted");

    // The evicted socket is actually dead: the peer observes EOF/reset.
    loris.set_read_timeout(Some(core::time::Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    match loris.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("evicted loris read {n} bytes"),
    }

    // Still a working daemon afterwards.
    assert_eq!(healthy.ping(99).unwrap(), 99);
    healthy.shutdown().unwrap();
    daemon.join().unwrap();
}

/// A peer that sends a frame prefix and hangs up mid-frame: the partial
/// frame is counted as rejected, the connection as failed, and the
/// daemon keeps serving.
#[test]
fn truncated_frame_then_disconnect_is_counted_not_fatal() {
    let (addr, daemon) = boot(ServerConfig { pipeline_depth: 8, idle_budget: 10_000 });

    {
        let mut rude = TcpStream::connect(addr).unwrap();
        let frame = atd::Request::Ping { token: 7 }.to_frame2(1).unwrap();
        rude.write_all(&frame[..frame.len() / 2]).unwrap();
        rude.flush().unwrap();
        // Drop: FIN arrives with half a frame buffered daemon-side.
    }

    let mut admin = PipelinedClient::connect(addr).unwrap();
    let stats = poll_stats(&mut admin, |s| s.frames_rejected >= 1 && s.connections_failed >= 1);
    assert_eq!(stats.frames_rejected, 1, "the half frame is a rejected frame");
    assert_eq!(stats.connections_failed, 1, "the hangup is a failed connection");

    assert_eq!(admin.ping(3).unwrap(), 3);
    admin.shutdown().unwrap();
    daemon.join().unwrap();
}

/// A pipelined session vanishes with a full window in flight. Every
/// admitted job still completes (counters balance), the orphaned routes
/// resolve to no-ops, and fresh sessions are served as if nothing
/// happened.
#[test]
fn mid_pipeline_disconnect_sheds_the_session_and_leaks_nothing() {
    let (addr, daemon) = boot(ServerConfig { pipeline_depth: 16, idle_budget: 10_000 });

    let jobs = 8u64;
    {
        let mut doomed = std::net::TcpStream::connect(addr).unwrap();
        let mut burst = Vec::new();
        for i in 0..jobs {
            let points = 101 + u32::try_from(i).unwrap();
            let request = atd::Request::Submit { session: 1, spec: bathtub(points) };
            burst.extend_from_slice(&request.to_frame2(i + 1).unwrap());
        }
        // A half frame after the full window pins the failure path: the
        // hangup arrives with undecodable bytes buffered daemon-side, so
        // the eviction is deterministic regardless of how fast the eight
        // admitted jobs complete.
        let partial = atd::Request::Ping { token: 0 }.to_frame2(jobs + 1).unwrap();
        burst.extend_from_slice(&partial[..partial.len() / 2]);
        doomed.write_all(&burst).unwrap();
        doomed.flush().unwrap();
        // Drop without reading a single reply: the daemon now owes eight
        // streams to a connection that no longer exists.
    }

    let mut admin = PipelinedClient::connect(addr).unwrap();
    let stats = poll_stats(&mut admin, |s| s.completed >= jobs && s.connections_failed >= 1);
    assert_eq!(stats.submitted, jobs, "all eight were admitted");
    assert_eq!(stats.completed, jobs, "orphaned jobs still complete");
    assert_eq!(stats.connections_failed, 1);
    assert_eq!(stats.frames_rejected, 1, "the trailing half frame is rejected");

    // The daemon is fully functional: the same spec now comes from the
    // cache, proving the orphaned results landed and were retained.
    let before = stats.cache_hits;
    let mut client = PipelinedClient::connect(addr).unwrap();
    let corr = client.submit_pipelined(2, bathtub(101)).unwrap();
    loop {
        if let atd::Event::Done { correlation, .. } = client.next_event().unwrap() {
            assert_eq!(correlation, corr);
            break;
        }
    }
    let after = admin.stats().unwrap();
    assert_eq!(after.cache_hits, before + 1, "replay of an orphaned spec is a cache hit");

    admin.shutdown().unwrap();
    daemon.join().unwrap();
}

/// Replayed and gapped CHUNK sequence numbers are rejected with typed
/// errors that name the hostile pattern, and a rejection never corrupts
/// the stream: the next in-order chunk is still accepted.
#[test]
fn reassembler_names_replayed_and_gapped_chunk_sequences() {
    use atd::wire::FrameError;
    use atd::Reassembler;

    // A duplicate of an already-consumed seq is a replay.
    let mut r = Reassembler::new();
    r.push(0, b"head").unwrap();
    assert_eq!(
        r.push(0, b"head").unwrap_err(),
        FrameError::BadPayload { context: "duplicate or replayed chunk seq" }
    );

    // Out-of-order delivery: seq 1 before seq 0 is a gap at slot 0, and
    // the rejected chunk is not consumed.
    let mut early = Reassembler::new();
    assert_eq!(
        early.push(1, b"tail").unwrap_err(),
        FrameError::BadPayload { context: "chunk seq gap" }
    );
    assert_eq!(early.chunks(), 0);

    // A skipped slot mid-stream is also a gap, and rejecting it leaves
    // the reassembler able to take the real next chunk.
    assert_eq!(
        r.push(2, b"tail").unwrap_err(),
        FrameError::BadPayload { context: "chunk seq gap" }
    );
    r.push(1, b"tail").unwrap();
    assert_eq!(r.chunks(), 2);
}

/// Every strict prefix of each magic word followed by a hangup is one
/// rejected frame and one failed connection — and once the probes are
/// reaped, opened and closed balance to exactly the one live admin
/// session.
#[test]
fn magic_prefix_probes_balance_the_connection_counters() {
    let (addr, daemon) = boot(ServerConfig { pipeline_depth: 8, idle_budget: 10_000 });

    let mut probes = 0u64;
    for magic in [*b"THP1", *b"THP2"] {
        for cut in 1..=4 {
            let mut probe = TcpStream::connect(addr).unwrap();
            probe.write_all(&magic[..cut]).unwrap();
            probe.flush().unwrap();
            probes += 1;
            // Drop: EOF lands with a partial magic buffered daemon-side.
        }
    }

    let mut admin = PipelinedClient::connect(addr).unwrap();
    let stats = poll_stats(&mut admin, |s| {
        s.connections_failed >= probes && s.connections_closed >= probes
    });
    assert_eq!(stats.frames_rejected, probes, "each prefix probe is one rejected frame");
    assert_eq!(stats.connections_failed, probes, "each hangup is one failed connection");
    assert_eq!(stats.connections_opened, probes + 1, "eight probes plus the admin session");
    assert_eq!(stats.connections_closed, probes, "every probe is reaped; only the admin is live");

    assert_eq!(admin.ping(1).unwrap(), 1);
    admin.shutdown().unwrap();
    daemon.join().unwrap();
}

/// Foreign and mixed revision bytes — the retired THP1 magic, a THP2
/// magic with a wrong version — and a first frame with bad flags are
/// rejected as frames and answered with a THP/2 `Failed` reply under
/// the reserved failure id before a clean close: rejections count,
/// connection failures do not, and the counters still balance.
#[test]
fn mixed_magic_and_version_bytes_are_rejected_with_a_reply() {
    let (addr, daemon) = boot(ServerConfig { pipeline_depth: 8, idle_budget: 10_000 });

    let mut hellos: Vec<Vec<u8>> = [(*b"THP1", 2u8), (*b"THP2", 1), (*b"THP1", 9), (*b"THP2", 0)]
        .into_iter()
        .map(|(magic, version)| [&magic[..], &[version]].concat())
        .collect();
    // A whole, well-revisioned first frame whose flags are not FINAL.
    let mut bad_flags = atd::Request::Ping { token: 1 }.to_frame2(1).unwrap();
    bad_flags[6] = 0x03;
    hellos.push(bad_flags);
    for hello in &hellos {
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(hello).unwrap();
        probe.flush().unwrap();
        // The daemon answers `Failed` and closes; drain to EOF so the
        // close is clean on both sides.
        probe.set_read_timeout(Some(core::time::Duration::from_secs(10))).unwrap();
        let mut reply = Vec::new();
        probe.read_to_end(&mut reply).unwrap();
        let (header, payload) = atd::wire::decode_frame2(&reply).unwrap();
        assert_eq!(header.correlation, FAILURE_ID, "{hello:02x?}");
        match Response::from_parts(header.msg_type, payload).unwrap() {
            Response::Failed { ticket, .. } => assert_eq!(ticket, FAILURE_ID, "{hello:02x?}"),
            other => panic!("a rejected hello earns a Failed reply, got {other:?}"),
        }
    }

    let total = u64::try_from(hellos.len()).unwrap();
    let mut admin = PipelinedClient::connect(addr).unwrap();
    let stats = poll_stats(&mut admin, |s| s.connections_closed >= total);
    assert_eq!(stats.frames_rejected, total, "each rejected hello is one rejected frame");
    assert_eq!(stats.connections_failed, 0, "a rejected hello closes cleanly, not as a failure");
    assert_eq!(stats.connections_opened, total + 1);
    assert_eq!(stats.connections_closed, total);

    admin.shutdown().unwrap();
    daemon.join().unwrap();
}
