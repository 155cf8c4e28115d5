//! One connection's protocol state, independent of what carries its
//! bytes.
//!
//! A [`Session`] takes the bytes a peer sent, cuts them into frames,
//! answers control requests, admits submissions to the [`Service`] under
//! the pipeline-depth cap, and writes each completion into its outbox as
//! a chunk stream plus summary. It owns no socket: the TCP event loop
//! ([`crate::server`]) wraps one around each `TcpStream`, and
//! [`crate::Loopback`] wraps one around in-memory buffers, so an
//! in-process client runs the daemon's own request path byte for byte.
//!
//! Protocol errors never reach the carrier: a malformed frame is counted,
//! answered with a typed `Failed` reply under the reserved
//! [`FAILURE_ID`], and the session closes after that reply (the stream
//! offset cannot be trusted after a bad frame).

use std::collections::{BTreeMap, BTreeSet};

use crate::proto::{Request, Response, FAILURE_ID};
use crate::scheduler::{Admission, Completion};
use crate::service::Service;
use crate::wire::{self, FrameError, Header2};

/// The protocol state of one connection.
#[derive(Debug)]
pub struct Session {
    /// Bytes received but not yet cut into frames.
    rbuf: Vec<u8>,
    /// The outbox: frames queued for the peer.
    out: Vec<u8>,
    /// How much of `out` the carrier has already taken.
    opos: usize,
    /// Correlation ids awaiting their terminal frame.
    active: BTreeSet<u64>,
    /// Admitted tickets and the correlation each one answers.
    tickets: BTreeMap<u64, u64>,
    /// Most correlations that may be in flight at once.
    depth: usize,
    /// Answer what is owed, then end.
    closing: bool,
    /// End now: the peer broke the exchange.
    failed: bool,
}

/// What the front of the read buffer holds.
enum Cut {
    /// Not a whole frame yet.
    Wait,
    /// One whole frame of `len` bytes: its header and decoded request.
    Frame { header: Header2, len: usize, request: Result<Request, FrameError> },
}

/// Cuts one frame off the front of `unread`. The revision bytes are
/// judged as soon as they arrive; the rest of the header once it is
/// whole.
fn cut(unread: &[u8]) -> Result<Cut, FrameError> {
    if unread.len() < wire::HEADER2_LEN {
        if unread.len() >= wire::REVISION_LEN {
            wire::check_revision(unread)?;
        }
        return Ok(Cut::Wait);
    }
    let header = wire::decode_header2(unread)?;
    if header.flags != wire::flag::FINAL {
        return Err(FrameError::BadPayload { context: "request frames must be FINAL" });
    }
    let len = wire::HEADER2_LEN.saturating_add(header.payload_len);
    Ok(match unread.get(wire::HEADER2_LEN..len) {
        Some(payload) => {
            Cut::Frame { header, len, request: Request::from_parts(header.msg_type, payload) }
        }
        None => Cut::Wait,
    })
}

impl Session {
    /// A fresh session allowing `depth` correlations in flight.
    pub fn new(depth: usize) -> Self {
        Session {
            rbuf: Vec::new(),
            out: Vec::new(),
            opos: 0,
            active: BTreeSet::new(),
            tickets: BTreeMap::new(),
            depth: depth.max(1),
            closing: false,
            failed: false,
        }
    }

    /// Appends bytes the peer sent.
    pub fn receive(&mut self, bytes: &[u8]) {
        self.rbuf.extend_from_slice(bytes);
    }

    /// Cuts up to `max_frames` whole frames off the read buffer and acts
    /// on each. `on_admit` learns every ticket admitted to `service`, so
    /// a carrier serving many sessions can route its completion back
    /// here. Returns whether any frame was consumed.
    pub fn dispatch(
        &mut self,
        service: &mut Service,
        max_frames: usize,
        on_admit: &mut dyn FnMut(u64),
    ) -> bool {
        let mut rpos = 0usize;
        for _ in 0..max_frames {
            if self.closing || self.failed {
                break;
            }
            match cut(self.rbuf.get(rpos..).unwrap_or(&[])) {
                Ok(Cut::Wait) => break,
                Ok(Cut::Frame { header, len, request }) => {
                    rpos += len;
                    match request {
                        Ok(request) => self.act(service, header.correlation, request, on_admit),
                        Err(e) => self.reject(service, e),
                    }
                }
                Err(e) => self.reject(service, e),
            }
        }
        // Trimmed once per call, not per frame (which would be quadratic
        // in frames per read).
        if self.closing || self.failed {
            self.rbuf.clear();
        } else {
            self.rbuf.drain(..rpos.min(self.rbuf.len()));
        }
        rpos > 0
    }

    /// Acts on one decoded request.
    fn act(
        &mut self,
        service: &mut Service,
        correlation: u64,
        request: Request,
        on_admit: &mut dyn FnMut(u64),
    ) {
        let reply = match request {
            Request::Ping { token } => Response::Pong { token },
            Request::GetStats => Response::StatsReport(service.stats()),
            Request::Shutdown => {
                service.request_shutdown();
                Response::Goodbye
            }
            Request::Submit { session, spec } => {
                if correlation == FAILURE_ID || self.active.contains(&correlation) {
                    // A reserved or still-in-flight correlation id is a
                    // protocol violation, not a schedulable request.
                    self.reject(
                        service,
                        FrameError::BadPayload {
                            context: "correlation id reserved or already in flight",
                        },
                    );
                    return;
                }
                if self.active.len() >= self.depth {
                    service.note_shed(1);
                    busy(service)
                } else {
                    match service.admit(session, &[spec]) {
                        Admission::Accepted(tickets) => {
                            for ticket in tickets {
                                self.tickets.insert(ticket, correlation);
                                self.active.insert(correlation);
                                on_admit(ticket);
                            }
                            return;
                        }
                        Admission::Shed { .. } => busy(service),
                    }
                }
            }
        };
        self.push(reply.to_frame2(correlation));
    }

    /// Counts a malformed frame, replies `Failed` under the reserved
    /// [`FAILURE_ID`], and closes after the reply.
    fn reject(&mut self, service: &mut Service, error: FrameError) {
        service.note_frame_rejected();
        let reply = Response::Failed { ticket: FAILURE_ID, message: error.to_string() };
        self.push(reply.to_frame2(FAILURE_ID));
        self.closing = true;
    }

    fn push(&mut self, frame: Result<Vec<u8>, FrameError>) {
        match frame {
            Ok(bytes) => self.out.extend_from_slice(&bytes),
            // An unencodable reply is a daemon-side defect; the stream
            // cannot be re-synced, so fail rather than drop a reply.
            Err(_) => self.failed = true,
        }
    }

    /// Writes one completion into the outbox: the answer's chunk stream
    /// plus summary on success, `Failed` otherwise. A ticket this session did
    /// not admit is ignored.
    pub fn complete(&mut self, completion: Completion) {
        let Some(correlation) = self.tickets.remove(&completion.ticket) else { return };
        self.active.remove(&correlation);
        let failure = match completion.outcome {
            Ok(answer) => {
                match answer.push_stream(
                    &mut self.out,
                    correlation,
                    completion.ticket,
                    completion.provenance,
                ) {
                    Ok(()) => return,
                    Err(e) => e.to_string(),
                }
            }
            Err(e) => e.to_string(),
        };
        let reply = Response::Failed { ticket: completion.ticket, message: failure };
        self.push(reply.to_frame2(correlation));
    }

    /// The peer closed its side. A peer that vanishes holding a partial
    /// frame or owed answers failed mid-exchange (a partial frame also
    /// counts as rejected); one that closes between frames is done.
    pub fn peer_closed(&mut self, service: &mut Service) {
        if !self.rbuf.is_empty() {
            service.note_frame_rejected();
            self.failed = true;
        } else if !self.tickets.is_empty() {
            self.failed = true;
        } else {
            self.closing = true;
        }
    }

    /// Marks the exchange broken (a carrier-level failure).
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Outbox bytes the carrier has not taken yet.
    pub fn output(&self) -> &[u8] {
        self.out.get(self.opos..).unwrap_or(&[])
    }

    /// Marks the first `n` bytes of [`Session::output`] as delivered.
    pub fn consume_output(&mut self, n: usize) {
        self.opos = self.opos.saturating_add(n);
        if self.opos >= self.out.len() {
            self.out.clear();
            self.opos = 0;
        }
    }

    /// Whether the exchange broke and the carrier should drop it now.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Whether the session takes no more requests.
    pub fn is_closing(&self) -> bool {
        self.closing || self.failed
    }

    /// Whether a closing session has nothing left to say: no answers
    /// owed and the outbox delivered.
    pub fn is_done(&self) -> bool {
        self.closing && self.tickets.is_empty() && self.output().is_empty()
    }

    /// Whether the session is mid-exchange at the byte level: a partial
    /// frame received or output not yet delivered. The carrier's idle
    /// budget applies only then.
    pub fn is_stalled(&self) -> bool {
        !self.rbuf.is_empty() || !self.output().is_empty()
    }
}

fn busy(service: &Service) -> Response {
    Response::Busy {
        queue_depth: u32::try_from(service.queue_depth()).unwrap_or(u32::MAX),
        queue_capacity: u32::try_from(service.queue_capacity()).unwrap_or(u32::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobSpec;
    use crate::scheduler::Scheduler;
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

    fn small_service() -> Service {
        Service::new(ExecPool::serial(), Scheduler::new(4, 8))
    }

    /// Feeds `requests` under correlations 1, 2, ... and decodes every
    /// reply the session wrote.
    fn exchange(
        service: &mut Service,
        session: &mut Session,
        requests: &[Request],
    ) -> Vec<(u64, Response)> {
        for (corr, request) in (1u64..).zip(requests) {
            session.receive(&request.to_frame2(corr).unwrap());
        }
        session.dispatch(service, usize::MAX, &mut |_| {});
        let mut replies = Vec::new();
        let mut rest = session.output();
        while !rest.is_empty() {
            let header = wire::decode_header2(rest).unwrap();
            let (frame, tail) = rest.split_at(wire::HEADER2_LEN + header.payload_len);
            let (h, payload) = wire::decode_frame2(frame).unwrap();
            replies.push((h.correlation, Response::from_parts(h.msg_type, payload).unwrap()));
            rest = tail;
        }
        let n = session.output().len();
        session.consume_output(n);
        replies
    }

    #[test]
    fn ping_stats_shutdown() {
        let mut service = small_service();
        let mut session = Session::new(8);
        let replies = exchange(
            &mut service,
            &mut session,
            &[Request::Ping { token: 99 }, Request::GetStats, Request::Shutdown],
        );
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], (1, Response::Pong { token: 99 }));
        assert!(
            matches!(replies[1], (2, Response::StatsReport(stats)) if stats.submitted == 0),
            "{replies:?}"
        );
        assert_eq!(replies[2], (3, Response::Goodbye));
        assert!(service.shutdown_requested());
    }

    #[test]
    fn depth_cap_sheds_with_busy_and_reused_correlation_is_rejected() {
        let mut service = small_service();
        let mut session = Session::new(1);
        for corr in [1u64, 2] {
            let request = Request::Submit { session: 1, spec: bathtub(61) };
            session.receive(&request.to_frame2(corr).unwrap());
        }
        session.dispatch(&mut service, usize::MAX, &mut |_| {});
        let (h, payload) = wire::decode_frame2(session.output()).unwrap();
        assert_eq!(h.correlation, 2);
        assert!(matches!(Response::from_parts(h.msg_type, payload), Ok(Response::Busy { .. })));
        assert_eq!(service.stats().shed, 1);
        let n = session.output().len();
        session.consume_output(n);

        // Correlation 1 is still in flight: reusing it is a protocol error.
        let request = Request::Submit { session: 1, spec: bathtub(62) };
        session.receive(&request.to_frame2(1).unwrap());
        session.dispatch(&mut service, usize::MAX, &mut |_| {});
        let (h, payload) = wire::decode_frame2(session.output()).unwrap();
        assert_eq!(h.correlation, FAILURE_ID);
        assert!(matches!(
            Response::from_parts(h.msg_type, payload),
            Ok(Response::Failed { ticket: FAILURE_ID, .. })
        ));
        assert!(session.is_closing());
        assert_eq!(service.stats().frames_rejected, 1);
    }
}
