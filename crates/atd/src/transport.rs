//! The in-memory loopback: a byte stream to a [`Service`] that runs the
//! daemon's own per-connection session over buffers instead of a socket.
//!
//! The loopback is not a shortcut around the protocol. Whatever a
//! [`crate::Client`] writes is cut into frames, admitted, scheduled,
//! streamed back as chunks plus a summary, and reassembled exactly as
//! over TCP — so a loopback test exercises the same codec and request
//! path as the daemon, byte for byte.

use std::io::{self, Read, Write};

use crate::server::DEFAULT_PIPELINE_DEPTH;
use crate::service::Service;
use crate::session::Session;

/// An in-process connection to an owned [`Service`]. Writes deliver
/// frames to the session; a read runs the daemon's pass (dispatch, then
/// drain) until the session has bytes to answer with, and reports end of
/// stream once nothing more is owed.
#[derive(Debug)]
pub struct Loopback {
    service: Service,
    session: Session,
}

impl Loopback {
    /// Wraps a service; the session allows the daemon's default pipeline
    /// depth.
    pub fn new(service: Service) -> Self {
        Loopback { service, session: Session::new(DEFAULT_PIPELINE_DEPTH) }
    }
}

impl Write for Loopback {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.session.receive(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for Loopback {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Loopback { service, session } = self;
        loop {
            let pending = session.output();
            if !pending.is_empty() {
                let n = pending.len().min(buf.len());
                if let (Some(dst), Some(src)) = (buf.get_mut(..n), pending.get(..n)) {
                    dst.copy_from_slice(src);
                }
                session.consume_output(n);
                return Ok(n);
            }
            let moved = session.dispatch(service, usize::MAX, &mut |_| {});
            if service.queue_depth() > 0 {
                service.drain_each(&mut |completion| session.complete(completion));
            } else if !moved && session.output().is_empty() {
                // Nothing owed and nothing to act on: the peer would
                // block forever on a socket, so end the stream instead.
                // (A rejected frame consumes nothing but leaves its
                // `Failed` reply in the outbox, which is sent first.)
                return Ok(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Client;
    use crate::proto::{JobSpec, Provenance, FAILURE_ID};
    use crate::scheduler::Scheduler;
    use crate::stream::Event;
    use crate::AtdError;
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

    #[test]
    fn loopback_speaks_the_full_protocol() {
        let service = Service::new(ExecPool::serial(), Scheduler::new(4, 8));
        let mut client = Client::new(Loopback::new(service));
        assert_eq!(client.ping(12345).unwrap(), 12345);
        assert_eq!(client.stats().unwrap().submitted, 0);

        let Event::Done { provenance, result, .. } = client.submit(1, bathtub(81)).unwrap() else {
            panic!("expected Done");
        };
        assert_eq!(provenance, Provenance::Computed);
        let Event::Done { provenance: p2, result: r2, .. } = client.submit(2, bathtub(81)).unwrap()
        else {
            panic!("expected Done");
        };
        assert_eq!(p2, Provenance::Cache);
        assert_eq!(result.encoded().unwrap(), r2.encoded().unwrap());

        // Two identical submissions in one window coalesce in the drain.
        let first = client.submit_pipelined(1, bathtub(82)).unwrap();
        let second = client.submit_pipelined(1, bathtub(82)).unwrap();
        let mut provenances = Vec::new();
        while client.in_flight() > 0 {
            if let Event::Done { correlation, provenance, .. } = client.next_event().unwrap() {
                provenances.push((correlation, provenance));
            }
        }
        assert_eq!(provenances, vec![(first, Provenance::Computed), (second, Provenance::Batched)]);

        // Overflow the 4-deep queue: the fifth submission is shed.
        for _ in 0..5 {
            client.submit_pipelined(1, bathtub(83)).unwrap();
        }
        let mut busy = 0;
        while client.in_flight() > 0 {
            if let Event::Busy { queue_capacity: 4, .. } = client.next_event().unwrap() {
                busy += 1;
            }
        }
        assert_eq!(busy, 1);

        client.shutdown().unwrap();
        // Nothing is owed any more: the stream ends instead of blocking.
        assert!(matches!(client.next_event(), Err(AtdError::Io { .. })));

        // A spec outside the service's domain never becomes a job: the
        // decode refuses it with a protocol-level failure, and the
        // session closes after that reply.
        let service = Service::new(ExecPool::serial(), Scheduler::new(4, 8));
        let mut client = Client::new(Loopback::new(service));
        let failed = client.submit(1, bathtub(1)).unwrap();
        assert!(matches!(failed, Event::Failed { ticket: FAILURE_ID, .. }), "{failed:?}");
        assert!(matches!(client.next_event(), Err(AtdError::Io { .. })));
    }
}
