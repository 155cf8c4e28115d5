//! The TCP front end: a hand-rolled nonblocking readiness loop over
//! `std::net`, serving many connections concurrently with pipelined
//! correlation IDs and streamed partial results — no third-party
//! event library, matching the workspace's zero-dependency discipline.
//!
//! Each pass of the loop accepts new connections, gives every connection
//! one bounded read (fair round-robin — no peer can monopolise a pass),
//! parses as many complete frames as the per-session pipeline-depth cap
//! admits (partial frames resume on the next pass), runs one scheduler
//! drain that routes completions straight into per-connection outboxes,
//! and flushes whatever each socket will take (partial writes resume
//! too). Liveness is policed by a logical-tick idle budget: a connection
//! that sits on a half-sent frame or an unread outbox for a whole budget
//! of passes is evicted (the slow-loris defence), while idle-but-clean
//! connections are left alone indefinitely.
//!
//! The protocol itself lives in one `Session` per connection, which
//! knows nothing about sockets; this module only moves bytes between
//! each session and its `TcpStream`, routes completions back to the
//! session that admitted them, and polices liveness. Protocol errors
//! never take the daemon down: the session answers them and closes.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::error::AtdError;
use crate::service::Service;
use crate::session::Session;

/// Environment override for the per-session pipeline-depth cap.
pub const ATD_PIPELINE_DEPTH_ENV: &str = "ATD_PIPELINE_DEPTH";

/// Environment override for the idle budget, in event-loop passes.
pub const ATD_IDLE_TICKS_ENV: &str = "ATD_IDLE_TICKS";

/// Default correlations a THP/2 session may have in flight. Deep enough
/// that a load generator's window never drains into a client-daemon
/// handoff stall on a single-core box; shallow enough that one session
/// cannot monopolise the admission queue.
pub const DEFAULT_PIPELINE_DEPTH: usize = 64;

/// Default idle budget: passes a connection may sit on a partial frame
/// or an unread outbox before eviction.
pub const DEFAULT_IDLE_BUDGET: u64 = 50_000;

/// Most bytes one connection may read per loop pass (fairness bound).
const READ_CHUNK: usize = 64 * 1024;

/// Most frames one connection may dispatch per loop pass (fairness
/// bound; pings are cheap but not free).
const MAX_FRAMES_PER_PASS: usize = 128;

/// Tuning for the event loop, env-configurable like every other knob.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Correlations one session may have in flight; submissions
    /// beyond the cap are shed with a typed `Busy`.
    pub pipeline_depth: usize,
    /// Loop passes a stalled connection survives before eviction.
    pub idle_budget: u64,
}

impl ServerConfig {
    /// Reads `ATD_PIPELINE_DEPTH` / `ATD_IDLE_TICKS`, falling back to the
    /// defaults with the workspace's lenient parse-or-default idiom.
    pub fn from_env() -> Self {
        let depth = exec::env::positive_usize_or(ATD_PIPELINE_DEPTH_ENV, DEFAULT_PIPELINE_DEPTH);
        let budget = exec::env::positive_usize_or(
            ATD_IDLE_TICKS_ENV,
            usize::try_from(DEFAULT_IDLE_BUDGET).unwrap_or(usize::MAX),
        );
        ServerConfig {
            pipeline_depth: depth.max(1),
            idle_budget: u64::try_from(budget).unwrap_or(u64::MAX),
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { pipeline_depth: DEFAULT_PIPELINE_DEPTH, idle_budget: DEFAULT_IDLE_BUDGET }
    }
}

/// One connection: its socket, its protocol session, and liveness
/// accounting.
#[derive(Debug)]
struct Conn {
    id: u64,
    stream: TcpStream,
    session: Session,
    /// Consecutive passes without progress on this connection.
    idle_ticks: u64,
    /// Made progress this pass (resets the idle counter in `reap`).
    touched: bool,
}

struct EventLoop {
    service: Service,
    config: ServerConfig,
    conns: Vec<Conn>,
    next_conn: u64,
    /// Which connection each admitted ticket answers to.
    routes: BTreeMap<u64, u64>,
}

/// Serves the protocol on `listener` until a client requests
/// shutdown, then returns the service (so callers can inspect its final
/// counters). Configuration comes from the environment; see
/// [`serve_with`].
///
/// # Errors
///
/// [`AtdError::Io`] if the listener cannot be polled for connections.
pub fn serve(listener: &TcpListener, service: Service) -> Result<Service, AtdError> {
    serve_with(listener, service, ServerConfig::from_env())
}

/// [`serve`] with explicit tuning: the event loop described in the
/// module docs.
///
/// Per-connection failures (a peer vanishing mid-frame, a stalled
/// socket, a malformed frame) end that connection, bump the
/// `connections_failed` / `frames_rejected` counters, and the daemon
/// keeps serving; only listener-level failures are fatal.
///
/// # Errors
///
/// [`AtdError::Io`] if the listener cannot be polled for connections.
pub fn serve_with(
    listener: &TcpListener,
    service: Service,
    config: ServerConfig,
) -> Result<Service, AtdError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| AtdError::Io { op: "set listener nonblocking", message: e.to_string() })?;
    let mut el =
        EventLoop { service, config, conns: Vec::new(), next_conn: 1, routes: BTreeMap::new() };
    // Two yields before sleeping: enough to hand the core to a peer that
    // is mid-burst (measured best on a 1-CPU box), without burning the
    // core in a yield storm once the connection set goes quiet.
    const YIELD_PASSES: usize = 2;
    let mut idle_passes: usize = 0;
    loop {
        let mut progress = el.accept_ready(listener)?;
        progress |= el.read_ready();
        progress |= el.parse_and_dispatch();
        progress |= el.drain_completions();
        progress |= el.flush_ready();
        el.reap();
        if el.service.shutdown_requested() && el.conns.iter().all(|c| c.session.output().is_empty())
        {
            return Ok(el.service);
        }
        if progress {
            idle_passes = 0;
        } else {
            // Nothing moved: yield the core to whoever is producing our
            // next bytes, and only fall back to a real sleep once the
            // lull looks like genuine idleness. The sleep is a poll
            // interval, not a timing source — nothing downstream
            // observes it.
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes < YIELD_PASSES {
                std::thread::yield_now();
            } else {
                // xlint::allow(event-loop-blocking, bounded 200us idle backoff that only runs after YIELD_PASSES empty polls with no readable connection)
                std::thread::sleep(core::time::Duration::from_micros(200));
            }
        }
    }
}

impl EventLoop {
    /// Accepts every connection the listener has ready.
    fn accept_ready(&mut self, listener: &TcpListener) -> Result<bool, AtdError> {
        let mut progress = false;
        while !self.service.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Per-connection socket failures degrade to a failed
                    // conn, never a dead daemon.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.service.note_connection_failed();
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.service.note_connection_opened();
                    self.conns.push(Conn {
                        id,
                        stream,
                        session: Session::new(self.config.pipeline_depth),
                        idle_ticks: 0,
                        touched: true,
                    });
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => break,
                Err(e) => return Err(AtdError::Io { op: "accept", message: e.to_string() }),
            }
        }
        Ok(progress)
    }

    /// One bounded read per connection — the fairness unit.
    fn read_ready(&mut self) -> bool {
        let mut progress = false;
        let mut buf = [0u8; READ_CHUNK];
        for conn in &mut self.conns {
            if conn.session.is_closing() {
                continue;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.session.peer_closed(&mut self.service);
                    progress = true;
                }
                Ok(n) => {
                    conn.session.receive(buf.get(..n).unwrap_or(&[]));
                    conn.touched = true;
                    progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.session.fail();
                    progress = true;
                }
            }
        }
        progress
    }

    /// Lets every session act on the frames it holds; partial frames
    /// stay buffered for the next pass.
    fn parse_and_dispatch(&mut self) -> bool {
        let mut progress = false;
        let EventLoop { service, conns, routes, .. } = self;
        for conn in conns.iter_mut() {
            let id = conn.id;
            let moved = conn.session.dispatch(service, MAX_FRAMES_PER_PASS, &mut |ticket| {
                routes.insert(ticket, id);
            });
            if moved {
                conn.touched = true;
                progress = true;
            }
        }
        progress
    }

    /// One scheduler drain, routing each completion into its session's
    /// outbox the moment it lands. A ticket whose connection is gone
    /// (dropped mid-pipeline) is a no-op: the scheduler already recorded
    /// the job, the bytes just have nowhere to go.
    fn drain_completions(&mut self) -> bool {
        if self.service.queue_depth() == 0 {
            return false;
        }
        let EventLoop { service, conns, routes, .. } = self;
        service.drain_each(&mut |completion| {
            let Some(id) = routes.remove(&completion.ticket) else { return };
            if let Some(conn) = conns.iter_mut().find(|c| c.id == id && !c.session.is_failed()) {
                conn.session.complete(completion);
                conn.touched = true;
            }
        });
        true
    }

    /// Writes whatever each socket will take; partial writes resume next
    /// pass.
    fn flush_ready(&mut self) -> bool {
        let mut progress = false;
        for conn in &mut self.conns {
            while !conn.session.is_failed() && !conn.session.output().is_empty() {
                match conn.stream.write(conn.session.output()) {
                    Ok(0) => conn.session.fail(),
                    Ok(n) => {
                        conn.session.consume_output(n);
                        conn.touched = true;
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => conn.session.fail(),
                }
            }
        }
        progress
    }

    /// Advances idle clocks, evicts stalled connections, drops finished
    /// ones. Orphaned routes (tickets owed to a dropped connection)
    /// resolve at the next drain, where the missing connection makes the
    /// completion a no-op — nothing leaks.
    fn reap(&mut self) {
        let EventLoop { service, config, conns, .. } = self;
        conns.retain_mut(|conn| {
            if conn.touched {
                conn.idle_ticks = 0;
            } else {
                conn.idle_ticks = conn.idle_ticks.saturating_add(1);
            }
            conn.touched = false;
            // Stalled: sitting on a half-received frame or an outbox the
            // peer will not read. Idle-but-clean connections live
            // forever.
            if conn.session.is_stalled() && conn.idle_ticks > config.idle_budget {
                conn.session.fail();
            }
            if conn.session.is_failed() {
                service.note_connection_failed();
                service.note_connection_closed();
                return false;
            }
            let done = conn.session.is_done();
            if done {
                service.note_connection_closed();
            }
            !done
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelinedClient;
    use crate::proto::{JobSpec, Provenance, Response, FAILURE_ID};
    use crate::scheduler::Scheduler;
    use crate::stream::Event;
    use crate::wire;
    use exec::ExecPool;
    use pstime::{DataRate, Duration};

    fn bathtub(points: u32) -> JobSpec {
        JobSpec::bathtub(
            Duration::from_ps_f64(3.2),
            Duration::from_ps(20),
            DataRate::from_gbps(2.5),
            0.5,
            points,
        )
    }

    fn provenance(event: Event) -> Provenance {
        match event {
            Event::Done { provenance, .. } => provenance,
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let service = Service::new(ExecPool::serial(), Scheduler::new(8, 8));
            serve(&listener, service)
        });

        let mut client = PipelinedClient::connect(addr).unwrap();
        assert_eq!(client.ping(7).unwrap(), 7);
        assert_eq!(provenance(client.submit(1, bathtub(91)).unwrap()), Provenance::Computed);

        // A second connection sees the same service state (cache hit).
        drop(client);
        let mut client = PipelinedClient::connect(addr).unwrap();
        assert_eq!(provenance(client.submit(2, bathtub(91)).unwrap()), Provenance::Cache);
        client.shutdown().unwrap();

        let service = daemon.join().unwrap().unwrap();
        assert_eq!(service.stats().cache_hits, 1);
        assert!(service.shutdown_requested());
    }

    #[test]
    fn concurrent_connections_are_served_together() {
        // The old server held connection 2 hostage until connection 1
        // finished; the event loop must interleave them.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let service = Service::new(ExecPool::serial(), Scheduler::new(32, 8));
            serve(&listener, service)
        });

        let mut a = PipelinedClient::connect(addr).unwrap();
        let mut b = PipelinedClient::connect(addr).unwrap();
        // Interleave requests across both open connections.
        for round in 0..3u32 {
            assert_eq!(a.ping(u64::from(round)).unwrap(), u64::from(round));
            assert!(matches!(b.submit(2, bathtub(80 + round)).unwrap(), Event::Done { .. }));
            assert_eq!(provenance(a.submit(1, bathtub(80 + round)).unwrap()), Provenance::Cache);
        }
        drop(b);
        a.shutdown().unwrap();
        let service = daemon.join().unwrap().unwrap();
        assert_eq!(service.stats().cache_hits, 3);
    }

    #[test]
    fn malformed_frame_gets_failed_reply_not_a_crash() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let service = Service::new(ExecPool::serial(), Scheduler::new(8, 8));
            serve(&listener, service)
        });

        // Hand-build a frame with a response-only type code: decodes as a
        // header but not as a request.
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let bogus = Response::Goodbye.to_frame2(3).unwrap();
        stream.write_all(&bogus).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let (header, payload) = wire::decode_frame2(&reply).unwrap();
        assert_eq!(header.correlation, FAILURE_ID);
        match Response::from_parts(header.msg_type, payload).unwrap() {
            Response::Failed { ticket, message } => {
                assert_eq!(ticket, FAILURE_ID, "protocol failures use the reserved id");
                assert!(message.contains("unknown message type"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }

        // The daemon is still alive: a fresh connection works, and the
        // rejected frame is visible in the counters.
        let mut client = PipelinedClient::connect(addr).unwrap();
        assert_eq!(client.ping(3).unwrap(), 3);
        let stats = client.stats().unwrap();
        assert_eq!(stats.frames_rejected, 1);
        client.shutdown().unwrap();
        daemon.join().unwrap().unwrap();
    }
}
