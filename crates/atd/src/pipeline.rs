//! The client: a depth-K window of correlated submissions over one byte
//! stream, with streamed partial results reassembled and verified per
//! correlation.
//!
//! A [`Client`] fires submissions without waiting and then pulls a
//! stream of [`Event`]s: `Chunk` slices as the daemon finishes each
//! semantic piece, and a terminal `Done` / `Failed` / `Busy` per
//! correlation. Responses may interleave across correlations — the
//! client keeps one [`Reassembler`] per in-flight id and verifies every
//! stream against its summary (count, bytes, stream digest) before
//! handing the caller a decoded result. At depth 1 ([`Client::submit`])
//! this is the serial protocol: one request, one answer.
//!
//! The byte stream is anything `Read + Write`: a [`TcpStream`] to a
//! daemon ([`PipelinedClient`]) or an in-process [`crate::Loopback`].

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::error::AtdError;
use crate::proto::{msg, JobSpec, Request, Response, ServiceStats, FAILURE_ID};
use crate::stream::{Event, Reassembler};
use crate::wire;

fn io_err(op: &'static str, e: &std::io::Error) -> AtdError {
    AtdError::Io { op, message: e.to_string() }
}

/// How many buffered submission bytes force an early flush.
const OUT_HIGH_WATER: usize = 32 * 1024;

/// Read granularity for the buffered receive path.
const READ_CHUNK: usize = 64 * 1024;

/// A session holding many correlated submissions in flight over the
/// byte stream `L`.
///
/// Writes are buffered: submissions accumulate in an outbox that is
/// flushed in one syscall when the client turns to read events (or when
/// the outbox crosses a high-water mark). Reads are buffered
/// symmetrically, so a burst of interleaved chunk frames costs one
/// syscall, not two per frame.
#[derive(Debug)]
pub struct Client<L> {
    link: L,
    /// Encoded frames not yet written to the stream.
    out: Vec<u8>,
    /// Bytes read from the stream, consumed from `rpos`.
    rbuf: Vec<u8>,
    rpos: usize,
    next_correlation: u64,
    /// Reassembly state per in-flight submission.
    streams: BTreeMap<u64, Reassembler>,
    /// Submissions awaiting their terminal event.
    outstanding: usize,
    /// Events decoded while waiting for a specific reply (helpers like
    /// [`Client::ping`] buffer everything else here).
    pending: VecDeque<Event>,
}

/// The client over a TCP connection to a daemon.
pub type PipelinedClient = Client<TcpStream>;

impl Client<TcpStream> {
    /// Connects a session to a daemon.
    ///
    /// # Errors
    ///
    /// [`AtdError::Io`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, AtdError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", &e))?;
        stream.set_nodelay(true).map_err(|e| io_err("set nodelay", &e))?;
        Ok(Client::new(stream))
    }
}

impl<L: Read + Write> Client<L> {
    /// A session over an already-open byte stream.
    pub fn new(link: L) -> Self {
        Client {
            link,
            out: Vec::new(),
            rbuf: Vec::new(),
            rpos: 0,
            next_correlation: 1,
            streams: BTreeMap::new(),
            outstanding: 0,
            pending: VecDeque::new(),
        }
    }

    /// Submissions that have not yet seen their terminal event.
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    fn fresh_correlation(&mut self) -> u64 {
        let corr = self.next_correlation;
        // Monotonic from 1; FAILURE_ID (u64::MAX) is unreachable in any
        // realistic session, but skip it anyway for totality.
        self.next_correlation = match self.next_correlation.wrapping_add(1) {
            FAILURE_ID => 1,
            next => next,
        };
        corr
    }

    fn send(&mut self, request: &Request, correlation: u64) -> Result<(), AtdError> {
        let frame = request.to_frame2(correlation)?;
        self.out.extend_from_slice(&frame);
        if self.out.len() >= OUT_HIGH_WATER {
            self.flush_out()?;
        }
        Ok(())
    }

    /// Pushes every buffered submission onto the wire.
    ///
    /// # Errors
    ///
    /// [`AtdError::Io`] on a failed write.
    fn flush_out(&mut self) -> Result<(), AtdError> {
        if !self.out.is_empty() {
            self.link.write_all(&self.out).map_err(|e| io_err("write frames", &e))?;
            self.link.flush().map_err(|e| io_err("flush frames", &e))?;
            self.out.clear();
        }
        Ok(())
    }

    /// Ensures `need` unconsumed bytes are buffered.
    fn fill(&mut self, need: usize) -> Result<(), AtdError> {
        let mut tmp = [0u8; READ_CHUNK];
        while self.rbuf.len().saturating_sub(self.rpos) < need {
            let n = self.link.read(&mut tmp).map_err(|e| io_err("read frames", &e))?;
            if n == 0 {
                return Err(AtdError::Io {
                    op: "read frames",
                    message: "connection closed mid-stream".to_string(),
                });
            }
            self.rbuf.extend_from_slice(tmp.get(..n).unwrap_or(&[]));
        }
        Ok(())
    }

    /// Fires one submission into the pipeline and returns its
    /// correlation id; the result arrives later as `Chunk` events
    /// followed by a terminal `Done` (or `Failed` / `Busy`).
    ///
    /// # Errors
    ///
    /// I/O and codec failures only — scheduling outcomes arrive as
    /// events.
    pub fn submit_pipelined(&mut self, session: u32, spec: JobSpec) -> Result<u64, AtdError> {
        let correlation = self.fresh_correlation();
        self.send(&Request::Submit { session, spec }, correlation)?;
        self.outstanding += 1;
        Ok(correlation)
    }

    /// The next event from the daemon, in arrival order: buffered events
    /// first, then a blocking read.
    ///
    /// # Errors
    ///
    /// [`AtdError::Io`] if the connection dies, [`AtdError::Frame`] on a
    /// malformed frame or a failed stream verification.
    pub fn next_event(&mut self) -> Result<Event, AtdError> {
        if let Some(event) = self.pending.pop_front() {
            return Ok(event);
        }
        self.read_event()
    }

    fn read_event(&mut self) -> Result<Event, AtdError> {
        // Reading is the signal that the caller now wants replies, so any
        // buffered submissions must reach the daemon first.
        self.flush_out()?;
        self.fill(wire::HEADER2_LEN)?;
        let h = {
            let header = self.rbuf.get(self.rpos..self.rpos + wire::HEADER2_LEN).unwrap_or(&[]);
            wire::decode_header2(header)?
        };
        self.rpos += wire::HEADER2_LEN;
        self.fill(h.payload_len)?;
        let start = self.rpos;
        self.rpos += h.payload_len;
        let event = if h.msg_type == msg::CHUNK {
            // The hot frame on a pipelined session: `seq` (u32 BE) plus
            // the raw slice, fed to the reassembler straight from the
            // receive buffer — no intermediate `Response` round trip.
            let payload = self.rbuf.get(start..start + h.payload_len).unwrap_or(&[]);
            let mut r = wire::Reader::new(payload);
            let seq = r.u32()?;
            let bytes = r.take_rest().to_vec();
            self.streams.entry(h.correlation).or_default().push(seq, &bytes)?;
            Ok(Event::Chunk { correlation: h.correlation, seq, bytes })
        } else {
            let response = {
                let payload = self.rbuf.get(start..start + h.payload_len).unwrap_or(&[]);
                Response::from_parts(h.msg_type, payload)?
            };
            self.translate(h.correlation, response)
        };
        if self.rpos >= self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos >= READ_CHUNK {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
        event
    }

    fn translate(&mut self, correlation: u64, response: Response) -> Result<Event, AtdError> {
        match response {
            Response::Chunk { seq, bytes } => {
                let asm = self.streams.entry(correlation).or_default();
                asm.push(seq, &bytes)?;
                Ok(Event::Chunk { correlation, seq, bytes })
            }
            Response::Summary { ticket, provenance, chunks, total_bytes, digest } => {
                let asm = self.streams.remove(&correlation).unwrap_or_default();
                let result = asm.finish(chunks, total_bytes, digest)?;
                self.outstanding = self.outstanding.saturating_sub(1);
                Ok(Event::Done { correlation, ticket, provenance, digest, result })
            }
            Response::Failed { ticket, message } => {
                self.streams.remove(&correlation);
                if correlation != FAILURE_ID {
                    self.outstanding = self.outstanding.saturating_sub(1);
                }
                Ok(Event::Failed { correlation, ticket, message })
            }
            Response::Busy { queue_depth, queue_capacity } => {
                self.outstanding = self.outstanding.saturating_sub(1);
                Ok(Event::Busy { correlation, queue_depth, queue_capacity })
            }
            Response::Pong { token } => Ok(Event::Pong { correlation, token }),
            Response::StatsReport(stats) => Ok(Event::Stats { correlation, stats }),
            Response::Goodbye => Ok(Event::Goodbye { correlation }),
        }
    }

    /// Submits one job and blocks until its terminal event — `Done`,
    /// `Busy`, or `Failed` (including a protocol failure under
    /// [`FAILURE_ID`]). The submission's own chunks are folded into the
    /// `Done` result; events for other correlations are kept for
    /// [`Client::next_event`].
    ///
    /// # Errors
    ///
    /// I/O and codec failures, including a failed stream
    /// verification.
    pub fn submit(&mut self, session: u32, spec: JobSpec) -> Result<Event, AtdError> {
        let wanted = self.submit_pipelined(session, spec)?;
        loop {
            let event = self.read_event()?;
            match &event {
                Event::Chunk { correlation, .. } if *correlation == wanted => {}
                Event::Done { correlation, .. }
                | Event::Busy { correlation, .. }
                | Event::Failed { correlation, .. }
                    if *correlation == wanted || *correlation == FAILURE_ID =>
                {
                    return Ok(event);
                }
                _ => self.pending.push_back(event),
            }
        }
    }

    /// Reads events until `stop` returns `Some`, buffering everything
    /// else for [`Client::next_event`].
    fn wait_for<T>(&mut self, mut stop: impl FnMut(&Event) -> Option<T>) -> Result<T, AtdError> {
        loop {
            let event = self.read_event()?;
            match stop(&event) {
                Some(value) => return Ok(value),
                None => self.pending.push_back(event),
            }
        }
    }

    /// Pings through the pipeline; returns the echoed token. Events for
    /// other correlations arriving first are buffered, not lost.
    ///
    /// # Errors
    ///
    /// I/O and codec failures.
    pub fn ping(&mut self, token: u64) -> Result<u64, AtdError> {
        let correlation = self.fresh_correlation();
        self.send(&Request::Ping { token }, correlation)?;
        self.wait_for(|event| match event {
            Event::Pong { correlation: c, token } if *c == correlation => Some(*token),
            _ => None,
        })
    }

    /// Fetches the service counters through the pipeline.
    ///
    /// # Errors
    ///
    /// I/O and codec failures.
    pub fn stats(&mut self) -> Result<ServiceStats, AtdError> {
        let correlation = self.fresh_correlation();
        self.send(&Request::GetStats, correlation)?;
        self.wait_for(|event| match event {
            Event::Stats { correlation: c, stats } if *c == correlation => Some(*stats),
            _ => None,
        })
    }

    /// Asks the daemon to stop serving.
    ///
    /// # Errors
    ///
    /// I/O and codec failures.
    pub fn shutdown(&mut self) -> Result<(), AtdError> {
        let correlation = self.fresh_correlation();
        self.send(&Request::Shutdown, correlation)?;
        self.wait_for(|event| match event {
            Event::Goodbye { correlation: c } if *c == correlation => Some(()),
            _ => None,
        })
    }
}
