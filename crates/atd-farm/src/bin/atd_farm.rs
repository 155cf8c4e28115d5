//! The farm daemon: a THP/2 front end over an in-process head fleet.
//!
//! ```text
//! cargo run --release -p gigatest-atd-farm --bin atd-farm -- --addr 127.0.0.1:4816 --heads 3
//! ```
//!
//! Speaks the same protocol as a single `atd` daemon — clients cannot
//! tell a farm from a head, except that composite jobs shard across the
//! fleet. Connections are served one at a time, each request answered
//! before the next is read; a submission's answer is the same chunk
//! stream plus summary a head sends ([`atd::push_stream`]). `--heads`
//! (or `ATD_FARM_HEADS`) sizes the fleet, `ATD_FARM_RETRIES` bounds
//! re-shard rounds, and the usual service knobs (`EXEC_THREADS`,
//! `ATD_QUEUE_DEPTH`, `ATD_CACHE_ENTRIES`) configure each head. The bound
//! address is printed on stdout as `atd-farm listening on <addr>` so
//! wrappers can bind port 0 and discover the ephemeral port.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use atd::wire::{self, FrameError, Header2};
use atd::{Client, Loopback, Request, Response, ServiceStats, FAILURE_ID};
use atd_farm::{heads_from_env, Farm, FarmError};

type LocalFarm = Farm<Client<Loopback>>;

const DEFAULT_ADDR: &str = "127.0.0.1:4816";

struct Options {
    addr: String,
    heads: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut options = Options { addr: DEFAULT_ADDR.to_string(), heads: heads_from_env() };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => options.addr = a,
                None => return Err("--addr requires a value".to_string()),
            },
            "--heads" => match args.next() {
                Some(n) => {
                    options.heads = n
                        .trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n > 0)
                        .ok_or_else(|| format!("--heads requires a positive integer, got {n:?}"))?;
                }
                None => return Err("--heads requires a value".to_string()),
            },
            "--help" | "-h" => {
                return Err(format!(
                    "usage: atd-farm [--addr HOST:PORT] [--heads N]   (default {DEFAULT_ADDR}, heads from ATD_FARM_HEADS)"
                ))
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(options)
}

/// Fleet-wide counters: the sum of every head's stats, capacities
/// included, so `submitted`/`cache_hits` describe the whole farm.
fn aggregate_stats(farm: &mut LocalFarm) -> ServiceStats {
    let mut total = ServiceStats::default();
    for stats in farm.head_stats().into_iter().flatten() {
        total.submitted += stats.submitted;
        total.completed += stats.completed;
        total.cache_hits += stats.cache_hits;
        total.batched += stats.batched;
        total.shed += stats.shed;
        total.failed += stats.failed;
        total.connections_opened += stats.connections_opened;
        total.connections_closed += stats.connections_closed;
        total.connections_failed += stats.connections_failed;
        total.frames_rejected += stats.frames_rejected;
        total.store_hits += stats.store_hits;
        total.store_misses += stats.store_misses;
        total.store_recovered += stats.store_recovered;
        total.queue_capacity = total.queue_capacity.saturating_add(stats.queue_capacity);
        total.cache_capacity = total.cache_capacity.saturating_add(stats.cache_capacity);
    }
    total
}

/// Reads one request frame. `Ok(None)` means the peer closed between
/// frames (or mid-frame: nothing to answer either way).
fn read_request(stream: &mut TcpStream) -> Result<Option<(Header2, Request)>, FrameError> {
    let mut header = [0u8; wire::HEADER2_LEN];
    if stream.read_exact(&mut header).is_err() {
        return Ok(None);
    }
    let header = wire::decode_header2(&header)?;
    if header.flags != wire::flag::FINAL {
        return Err(FrameError::BadPayload { context: "request frames must be FINAL" });
    }
    let mut payload = Vec::new();
    let want = u64::try_from(header.payload_len).unwrap_or(u64::MAX);
    if stream.take(want).read_to_end(&mut payload).is_err() || payload.len() != header.payload_len {
        return Ok(None);
    }
    Ok(Some((header, Request::from_parts(header.msg_type, &payload)?)))
}

/// Serves one connection; returns whether a shutdown was requested.
fn serve_connection(stream: &mut TcpStream, farm: &mut LocalFarm, ticket: &mut u64) -> bool {
    let mut out = Vec::new();
    loop {
        out.clear();
        let (header, request) = match read_request(stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return false,
            Err(e) => {
                // A malformed frame poisons the connection's framing:
                // answer under the reserved id, drop the peer, keep the
                // daemon.
                let reply = Response::Failed { ticket: FAILURE_ID, message: e.to_string() };
                if let Ok(frame) = reply.to_frame2(FAILURE_ID) {
                    let _ = stream.write_all(&frame);
                }
                return false;
            }
        };
        let correlation = header.correlation;
        // A submission's answer is a chunk stream written straight into
        // `out`; everything else is one reply frame.
        let reply = match request {
            Request::Ping { token } => Some(Response::Pong { token }),
            Request::GetStats => Some(Response::StatsReport(aggregate_stats(farm))),
            Request::Shutdown => Some(Response::Goodbye),
            Request::Submit { session, spec } => {
                *ticket += 1;
                let streamed =
                    farm.submit(session, spec).map_err(|e| e.to_string()).and_then(|done| {
                        let (provenance, result) = (done.provenance, &done.result);
                        atd::push_stream(&mut out, correlation, *ticket, provenance, result)
                            .map_err(|e| e.to_string())
                    });
                streamed.err().map(|message| Response::Failed { ticket: *ticket, message })
            }
        };
        if let Some(reply) = &reply {
            let Ok(frame) = reply.to_frame2(correlation) else {
                return false;
            };
            out.extend_from_slice(&frame);
        }
        if stream.write_all(&out).is_err() {
            return false;
        }
        if reply == Some(Response::Goodbye) {
            return true;
        }
    }
}

fn run() -> Result<(), String> {
    let options = parse_args()?;
    let mut farm = Farm::in_proc(options.heads).map_err(|e: FarmError| e.to_string())?;
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let local = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    println!("atd-farm listening on {local} ({} heads)", farm.heads());

    let mut ticket = 0u64;
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        if serve_connection(&mut stream, &mut farm, &mut ticket) {
            break;
        }
    }
    let stats = farm.stats();
    eprintln!(
        "atd-farm: {} specs ({} sub-specs, {} merged, {} rerouted, {} retry rounds)",
        stats.specs, stats.sub_specs, stats.merged, stats.rerouted, stats.retry_rounds
    );
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("atd-farm: {message}");
        std::process::exit(2);
    }
}
