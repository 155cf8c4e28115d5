//! Closed-loop clients: each keeps a fixed number of submissions in
//! flight and sends the next only when an answer has come back.

use std::collections::BTreeMap;
use std::time::Instant;

use atd::{Client, Event, JobSpec, Loopback, PipelinedClient, StreamDigest, FAILURE_ID};
use atd_farm::Farm;

use crate::gen::{self, FleetEvent};
use crate::measure::Meter;
use crate::rig::{ctx, fingerprint, Fingerprint};
use crate::trace::Tracer;

/// The farm the benchmark drives: in-process heads, each over its own store.
pub type LocalFarm = Farm<Client<Loopback>>;

/// When a closed-loop client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until<'a> {
    /// At the first multiple of `every` requests sent at or after `at`,
    /// so a timed phase covers whole cycles of its request pattern.
    Deadline {
        /// When the phase is over.
        at: Instant,
        /// The request pattern's cycle length.
        every: u64,
        /// Where every client of the phase counts its completions.
        meter: &'a Meter,
    },
    /// After this many requests.
    Count(u64),
}

impl Until<'_> {
    fn open(&self, sent: u64) -> bool {
        match *self {
            Until::Deadline { at, every, .. } => {
                !sent.is_multiple_of(every.max(1)) || Instant::now() < at
            }
            Until::Count(n) => sent < n,
        }
    }

    /// Counts, in a timed phase, a completion at `at` of a request sent
    /// at `sent`.
    fn completed(&self, sent: Instant, at: Instant) {
        if let Until::Deadline { meter, .. } = self {
            meter.completed(sent, at);
        }
    }
}

/// How a connection checks its answers.
#[derive(Debug, Clone, Copy)]
pub enum Check<'a> {
    /// Compare every streamed chunk in place against these reference
    /// bytes, indexed as the requests name them.
    Against(&'a [Vec<u8>]),
    /// Keep each answer's [`Fingerprint`], to be checked after the timed
    /// phase.
    Retain,
}

/// What a closed-loop client saw. Its memory does not grow with the
/// bytes answered, so peak RSS does not rise with throughput.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub requests: u64,
    /// Answers that passed their check (or were kept for one).
    pub ok: u64,
    /// Wrong answers, sheds and failures.
    pub failed: u64,
    /// Answers kept under [`Check::Retain`]: request index and fingerprint.
    pub kept: Vec<(usize, Fingerprint)>,
}

impl Tally {
    /// Adds `other` into this tally.
    pub fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.failed += other.failed;
        self.kept.extend(other.kept);
    }
}

struct Flight {
    index: usize,
    sent: Instant,
    root: u32,
    offset: usize,
    digest: StreamDigest,
    intact: bool,
}

/// Drives one THP/2 session closed-loop with `depth` submissions in
/// flight. `next(p)` names the session's `p`-th request: the index its
/// answer is checked under, and its spec. With a tracer, every request
/// gets an `e2e.request` span with a `server.submit` child and a
/// `server.next_event` child for the read of its final frame.
pub fn connection(
    client: &mut PipelinedClient,
    session: u32,
    depth: usize,
    until: Until<'_>,
    next: &dyn Fn(u64) -> (usize, JobSpec),
    check: Check<'_>,
    mut trace: Option<&mut Tracer>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut flights: BTreeMap<u64, Flight> = BTreeMap::new();
    loop {
        while flights.len() < depth && until.open(tally.requests) {
            let (index, spec) = next(tally.requests);
            tally.requests += 1;
            let sent = Instant::now();
            let correlation = client.submit_pipelined(session, spec).map_err(ctx("submit"))?;
            let root = match trace.as_deref_mut() {
                Some(t) => {
                    let root = t.open("e2e.request", 0, correlation);
                    t.record("server.submit", root, correlation, sent, Instant::now());
                    root
                }
                None => 0,
            };
            let digest = StreamDigest::new();
            let flight = Flight { index, sent, root, offset: 0, digest, intact: true };
            flights.insert(correlation, flight);
        }
        if flights.is_empty() {
            return Ok(tally);
        }
        let waited = Instant::now();
        let event = client.next_event().map_err(ctx("read answer"))?;
        let arrived = Instant::now();
        let correlation = match &event {
            Event::Chunk { correlation, .. }
            | Event::Done { correlation, .. }
            | Event::Failed { correlation, .. }
            | Event::Busy { correlation, .. } => *correlation,
            other => return Err(format!("unexpected event {other:?}")),
        };
        if correlation == FAILURE_ID {
            return Err("the daemon rejected a frame".to_string());
        }
        let flight = flights.get_mut(&correlation).ok_or("an answer for no request in flight")?;
        if let (Some(t), false) = (trace.as_deref_mut(), matches!(event, Event::Chunk { .. })) {
            t.record("server.next_event", flight.root, correlation, waited, arrived);
        }
        match event {
            Event::Chunk { bytes, .. } => match check {
                Check::Against(refs) => {
                    let end = flight.offset + bytes.len();
                    let want = refs.get(flight.index).and_then(|r| r.get(flight.offset..end));
                    flight.intact &= want == Some(&bytes[..]);
                    flight.offset = end;
                }
                Check::Retain => {
                    flight.digest.absorb(&bytes);
                    flight.offset += bytes.len();
                }
            },
            Event::Done { .. } => {
                let Some(flight) = flights.remove(&correlation) else { continue };
                let verified = match check {
                    Check::Against(refs) => {
                        flight.intact && refs.get(flight.index).map(Vec::len) == Some(flight.offset)
                    }
                    Check::Retain => {
                        tally.kept.push((flight.index, (flight.offset, flight.digest.finish())));
                        true
                    }
                };
                let done = Instant::now();
                if verified {
                    tally.ok += 1;
                } else {
                    tally.failed += 1;
                }
                until.completed(flight.sent, done);
                if let Some(t) = trace.as_deref_mut() {
                    t.close(flight.root, done);
                }
            }
            // A failed or shed submission.
            _ => {
                flights.remove(&correlation);
                tally.failed += 1;
            }
        }
    }
}

/// Applies the fleet change due before farm request `i`.
pub fn fleet_event(farm: &mut LocalFarm, i: u64) {
    match gen::farm_event(i) {
        Some(FleetEvent::Kill(head)) => {
            farm.kill(head);
        }
        Some(FleetEvent::Readmit(head)) => {
            farm.readmit(head);
        }
        None => {}
    }
}

/// Drives the farm campaign closed-loop from request `first`. The
/// fingerprint of the first answer to each fresh spec is kept in `seen`
/// (with its answer count) for checking after the timed phase; every
/// repeat must match it.
pub fn farm(
    farm: &mut LocalFarm,
    seed: u64,
    first: u64,
    until: Until<'_>,
    seen: &mut BTreeMap<u64, (Fingerprint, u64)>,
    mut trace: Option<&mut Tracer>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    while until.open(tally.requests) {
        let i = first + tally.requests;
        tally.requests += 1;
        fleet_event(farm, i);
        let f = gen::farm_request(i);
        let sent = Instant::now();
        let outcome = farm.submit(1, gen::farm_fresh(seed, f));
        let returned = Instant::now();
        let answer = outcome
            .map_err(|e| e.to_string())
            .and_then(|done| done.result.encoded().map_err(|e| e.to_string()))
            .map(|bytes| fingerprint(&bytes));
        match (answer, seen.get_mut(&f)) {
            (Ok(answer), Some((first_answer, answers))) if *first_answer == answer => {
                *answers += 1;
                tally.ok += 1;
            }
            (Ok(answer), None) => {
                seen.insert(f, (answer, 1));
                tally.ok += 1;
            }
            _ => tally.failed += 1,
        }
        let done = Instant::now();
        until.completed(sent, done);
        if let Some(t) = trace.as_deref_mut() {
            let root = t.record("e2e.request", 0, i, sent, done);
            t.record("e2e.farm_submit", root, i, sent, returned);
        }
    }
    Ok(tally)
}
