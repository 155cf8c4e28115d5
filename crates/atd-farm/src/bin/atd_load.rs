//! Deterministic canary table for the ATE daemon and the test farm.
//!
//! ```text
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- loopback
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- tcp
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- farm 3
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- restart
//! ```
//!
//! Each row drives requests over the one fixed spec table through one
//! topology, folds every answer into one byte-identity ledger, and
//! prints only deterministic bytes: a per-spec digest table (kind,
//! spec-key digest, result digest) and order-independent counters. Every repeated spec's result is checked against its first
//! occurrence, and a row fails on any protocol error or mismatch. CI runs
//! each row under `EXEC_THREADS=1` and `=4`, diffs the outputs, and diffs
//! every row's digest table against the loopback row's. Nothing here
//! reads a clock: timing lives in `headbench` (see `BENCHMARK.json`).
//!
//! * `loopback` — one in-memory client running the daemon's own session
//!   code: single submits, three-spec pipelined bursts, pings and stats
//!   polls.
//! * `tcp` — one connection to an in-process TCP daemon, keeping a
//!   depth-64 window of submissions striped over two session lanes, with
//!   every result arriving as a verified chunk stream.
//! * `farm N` — an in-process fleet of N heads behind the `atd-farm`
//!   coordinator; composite specs shard across the fleet and the
//!   *merged* digests print, so the table is the same at any fleet size.
//! * `restart` — a store-backed daemon is killed after half the stream,
//!   a torn record tail is appended to its newest segment (a crash
//!   mid-`put`), and a fresh daemon reboots over the same directory,
//!   truncates the tear, rehydrates, and serves the full stream.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};

use atd::cache::fnv1a64;
use atd::store::record::RECORD_MAGIC;
use atd::{Client, Event, JobResult, JobSpec, Loopback, PipelinedClient, Provenance, Service};
use pstime::{DataRate, Duration};

/// Requests per row (the `restart` row runs half before its crash).
const REQUESTS: u64 = 200;
/// The `tcp` row's window: the daemon's default per-session cap, the
/// deepest window that is never shed.
const DEPTH: usize = 64;
/// Session lanes the `tcp` row stripes its submissions over.
const LANES: u64 = 2;

const USAGE: &str = "usage: atd-load loopback | tcp | farm N | restart";

/// The fixed workload table: small variants of all four job kinds, sized
/// so a full mixed run stays in seconds while still exercising every
/// wire encoding and the batching/caching machinery.
fn spec_table() -> Vec<JobSpec> {
    let rate = DataRate::from_gbps(2.5);
    let mut specs = Vec::new();
    // Shmoo: a narrow 3-row band around the PECL midpoint.
    for (stim_seed, seed) in [(17, 5), (17, 6), (18, 5), (18, 6)] {
        specs.push(JobSpec::Shmoo {
            rate_bps: rate.as_bps(),
            bits: 256,
            stim_seed,
            phase_step_fs: Duration::from_ps(10).as_fs(),
            v_start_mv: -1400,
            v_end_mv: -1200,
            v_step_mv: 100,
            seed,
        });
    }
    // Wafer: four dies, two sites, modest defect rates.
    for seed in [1, 2, 3, 4] {
        specs.push(JobSpec::Wafer {
            columns: 2,
            dies: 4,
            sites: 2,
            hard_defect_rate: 0.25,
            marginal_rate: 0.0,
            rate_bps: rate.as_bps(),
            test_bits: 256,
            seed,
        });
    }
    // Eye scans over two stimuli.
    for (stim_seed, seed) in [(21, 9), (21, 10), (22, 9), (22, 10)] {
        specs.push(JobSpec::eye(rate, 256, stim_seed, seed));
    }
    // Bathtub sweeps across two jitter budgets.
    for (rj_ps, points) in [(3, 2001), (3, 1001), (5, 2001), (5, 1001)] {
        specs.push(JobSpec::bathtub(
            Duration::from_ps(rj_ps),
            Duration::from_ps(20),
            rate,
            0.5,
            points,
        ));
    }
    specs
}

/// The spec request `i` submits: round-robin over the table.
fn slot(specs: &[JobSpec], i: u64) -> Option<JobSpec> {
    specs.get(usize::try_from(i).unwrap_or(0) % specs.len().max(1)).copied()
}

/// The one fold every row shares: running counters plus the
/// byte-identity ledger.
#[derive(Debug, Default)]
struct Tally {
    jobs: u64,
    computed: u64,
    cached: u64,
    batched: u64,
    busy: u64,
    protocol_errors: u64,
    mismatches: u64,
    chunk_frames: u64,
    /// Per spec key: the stream digest of the first result seen — every
    /// later result must match it — and the FNV-1a digest of that
    /// result's bytes, the column every row prints.
    first_seen: BTreeMap<Vec<u8>, (u64, u64)>,
}

impl Tally {
    /// Folds one answered result for `spec`, checked by its stream digest
    /// against the first occurrence.
    fn done(&mut self, spec: &JobSpec, provenance: Provenance, digest: u64, result: &JobResult) {
        self.jobs += 1;
        match provenance {
            Provenance::Computed => self.computed += 1,
            Provenance::Cache => self.cached += 1,
            Provenance::Batched => self.batched += 1,
        }
        match self.first_seen.entry(spec.key_bytes()) {
            Entry::Occupied(first) if first.get().0 != digest => self.mismatches += 1,
            Entry::Occupied(_) => {}
            Entry::Vacant(first) => {
                first.insert((digest, fnv1a64(&result.encoded().unwrap_or_default())));
            }
        }
    }

    /// Folds one terminal event for `spec`.
    fn event(&mut self, spec: &JobSpec, event: &Event) {
        match event {
            // `digest` is the stream digest the reassembler already
            // verified against the chunk bytes.
            Event::Done { provenance, digest, result, .. } => {
                self.done(spec, *provenance, *digest, result);
            }
            Event::Busy { .. } => self.busy += 1,
            _ => self.protocol_errors += 1,
        }
    }

    /// The counter line of the single-client rows, whose cache-vs-batch
    /// split is deterministic.
    fn provenance_line(&self) -> String {
        format!(
            "jobs {} computed {} cached {} batched {} busy {} mismatches {}",
            self.jobs, self.computed, self.cached, self.batched, self.busy, self.mismatches
        )
    }

    /// Reads one event off a pipelined window and folds it: a chunk is
    /// counted, a terminal event settles the spec its correlation was
    /// submitted with.
    fn settle_one<L: Read + Write>(
        &mut self,
        client: &mut Client<L>,
        pending: &mut BTreeMap<u64, JobSpec>,
    ) -> Result<(), String> {
        let event = client.next_event().map_err(|e| format!("event read failed: {e}"))?;
        match &event {
            Event::Chunk { .. } => self.chunk_frames += 1,
            Event::Done { correlation, .. }
            | Event::Busy { correlation, .. }
            | Event::Failed { correlation, .. } => match pending.remove(correlation) {
                Some(spec) => self.event(&spec, &event),
                None => self.protocol_errors += 1,
            },
            _ => self.protocol_errors += 1,
        }
        Ok(())
    }
}

/// One finished row: its banner, the fold, and the counter lines printed
/// under the digest table.
struct Row {
    title: &'static str,
    tally: Tally,
    counters: Vec<String>,
}

impl Row {
    /// Prints the row — banner, digest table, counters — and fails it on
    /// any mismatch or protocol error.
    fn print(&self, specs: &[JobSpec]) -> Result<(), String> {
        println!("== atd {} ==", self.title);
        for spec in specs {
            let key = spec.key_bytes();
            let digest = self.tally.first_seen.get(&key).map(|(_, fnv)| *fnv).unwrap_or_default();
            println!("{:8} {:016x} {:016x}", spec.kind(), fnv1a64(&key), digest);
        }
        for line in &self.counters {
            println!("{line}");
        }
        if self.tally.mismatches > 0 || self.tally.protocol_errors > 0 {
            return Err(format!(
                "{} saw {} mismatches, {} protocol errors",
                self.title, self.tally.mismatches, self.tally.protocol_errors
            ));
        }
        Ok(())
    }
}

/// Drives request `i` of the mixed stream against `client`.
fn drive_one<L: Read + Write>(
    client: &mut Client<L>,
    specs: &[JobSpec],
    i: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let fail = |e: atd::AtdError| format!("request {i} failed: {e}");
    let session = u32::try_from(i % 4).unwrap_or(0);
    if i % 97 == 13 {
        let token = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if client.ping(token).map_err(fail)? != token {
            tally.protocol_errors += 1;
        }
        return Ok(());
    }
    if i % 131 == 7 {
        client.stats().map_err(fail)?;
        return Ok(());
    }
    if i % 50 == 49 {
        // Three consecutive table entries (wrapping) in flight at once.
        let mut pending = BTreeMap::new();
        for spec in (i..i + 3).filter_map(|k| slot(specs, k)) {
            pending.insert(client.submit_pipelined(session, spec).map_err(fail)?, spec);
        }
        while client.in_flight() > 0 {
            tally.settle_one(client, &mut pending)?;
        }
        return Ok(());
    }
    if let Some(spec) = slot(specs, i) {
        tally.event(&spec, &client.submit(session, spec).map_err(fail)?);
    }
    Ok(())
}

/// In-memory loopback: the mixed stream through the daemon's own
/// session code.
fn loopback(specs: &[JobSpec]) -> Result<Row, String> {
    let mut client = Client::new(Loopback::new(Service::from_env()));
    let mut tally = Tally::default();
    for i in 0..REQUESTS {
        drive_one(&mut client, specs, i, &mut tally)?;
    }
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    let counters = vec![
        tally.provenance_line(),
        format!(
            "service: submitted {} completed {} cache_hits {} batched {} shed {} failed {} frames_rejected {} connections_failed {}",
            stats.submitted,
            stats.completed,
            stats.cache_hits,
            stats.batched,
            stats.shed,
            stats.failed,
            stats.frames_rejected,
            stats.connections_failed
        ),
    ];
    Ok(Row { title: "canary", tally, counters })
}

/// One connection to an in-process TCP daemon keeping a depth-`DEPTH`
/// window in flight: submission `i` carries session lane `i % LANES` and
/// spec `i % table-size`. Cache-vs-batch provenance depends on how
/// submissions group into drain cycles (a socket-timing artefact), so
/// only `computed` and the merged reuse count are printed — both
/// invariant.
fn tcp(specs: &[JobSpec]) -> Result<Row, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind daemon: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    let daemon = std::thread::spawn(move || atd::serve(&listener, Service::from_env()));

    let mut client =
        PipelinedClient::connect(addr).map_err(|e| format!("cannot connect pipeline: {e}"))?;
    let mut tally = Tally::default();
    let mut pending = BTreeMap::new();
    let mut submitted: u64 = 0;
    // Refill one-for-one: top the window back up before every event read.
    while submitted < REQUESTS || client.in_flight() > 0 {
        while submitted < REQUESTS && client.in_flight() < DEPTH {
            let spec = slot(specs, submitted).ok_or("empty spec table")?;
            let lane = u32::try_from(submitted % LANES).unwrap_or(0);
            let correlation = client
                .submit_pipelined(lane, spec)
                .map_err(|e| format!("submission {submitted} failed: {e}"))?;
            pending.insert(correlation, spec);
            submitted += 1;
        }
        tally.settle_one(&mut client, &mut pending)?;
    }

    let mut admin =
        PipelinedClient::connect(addr).map_err(|e| format!("cannot connect admin: {e}"))?;
    let stats = admin.stats().map_err(|e| format!("stats failed: {e}"))?;
    admin.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon failed: {e}"))?;

    let counters = vec![
        format!(
            "jobs {} computed {} reused {} busy {} mismatches {} chunk_frames {}",
            tally.jobs,
            tally.computed,
            tally.cached + tally.batched,
            tally.busy,
            tally.mismatches,
            tally.chunk_frames
        ),
        format!(
            "service: submitted {} completed {} shed {} failed {} frames_rejected {} connections_failed {}",
            stats.submitted,
            stats.completed,
            stats.shed,
            stats.failed,
            stats.frames_rejected,
            stats.connections_failed
        ),
    ];
    Ok(Row { title: "pipelined canary", tally, counters })
}

/// An in-process fleet of `heads`: every composite spec shards across it
/// and merges back. A merged digest can only match the one-head digest if
/// every band landed and concatenated correctly, so the table proves the
/// whole plan → route → drain → merge path. Fleet-shape-dependent
/// counters (sub-specs, per-head loads) deliberately stay out.
fn farm(specs: &[JobSpec], heads: usize) -> Result<Row, String> {
    let mut farm = atd_farm::Farm::in_proc(heads).map_err(|e| format!("cannot boot farm: {e}"))?;
    let mut tally = Tally::default();
    for i in 0..REQUESTS {
        let Some(spec) = slot(specs, i) else { continue };
        let session = u32::try_from(i % 4).unwrap_or(0);
        let done = farm.submit(session, spec).map_err(|e| format!("submission {i} failed: {e}"))?;
        let digest = atd::stream_digest(&done.result.encoded().unwrap_or_default());
        tally.done(&spec, done.provenance, digest, &done.result);
    }
    let counters = vec![format!(
        "jobs {} computed {} reused {} mismatches {}",
        tally.jobs,
        tally.computed,
        tally.cached + tally.batched,
        tally.mismatches
    )];
    Ok(Row { title: "farm canary", tally, counters })
}

/// Simulates a crash mid-`put`: appends the first bytes of a record
/// (valid magic, torn header) to the newest segment file, exactly the
/// tail a power cut leaves behind. The reopened store must truncate it.
fn tear_newest_segment(dir: &Path) -> Result<(), String> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot list store dir: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "atds"))
        .collect();
    segments.sort();
    let newest = segments.pop().ok_or("store left no segment files")?;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&newest)
        .map_err(|e| format!("cannot reopen segment: {e}"))?;
    file.write_all(&[&RECORD_MAGIC[..], &[0; 3]].concat())
        .map_err(|e| format!("cannot tear the segment tail: {e}"))
}

/// A hostile restart in a scratch directory that is wiped before and
/// after: half the stream against a store-backed daemon, kill it, tear
/// the newest segment's tail, reboot over the same directory, then the
/// full stream. One ledger spans both daemons, so any byte drift across
/// the crash/recover boundary is a hard failure.
fn restart(specs: &[JobSpec]) -> Result<Row, String> {
    let dir = std::env::temp_dir().join(format!("atd-load-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = restart_in(specs, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn restart_in(specs: &[JobSpec], dir: &Path) -> Result<Row, String> {
    let mut tally = Tally::default();
    let mut client =
        atd_farm::local_head_with_store(dir).map_err(|e| format!("cannot open store: {e}"))?;
    for i in 0..REQUESTS / 2 {
        drive_one(&mut client, specs, i, &mut tally)?;
    }
    drop(client);
    tear_newest_segment(dir)?;

    let mut client =
        atd_farm::local_head_with_store(dir).map_err(|e| format!("cannot reopen store: {e}"))?;
    for i in 0..REQUESTS {
        drive_one(&mut client, specs, i, &mut tally)?;
    }
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    if stats.store_recovered == 0 {
        return Err("the restarted daemon rehydrated nothing".to_string());
    }
    let counters = vec![
        tally.provenance_line(),
        format!(
            "service: submitted {} completed {} cache_hits {} failed {} store_hits {} store_misses {} store_recovered {}",
            stats.submitted,
            stats.completed,
            stats.cache_hits,
            stats.failed,
            stats.store_hits,
            stats.store_misses,
            stats.store_recovered
        ),
    ];
    Ok(Row { title: "store canary", tally, counters })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs = spec_table();
    let row = match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["loopback"] => loopback(&specs),
        ["tcp"] => tcp(&specs),
        ["farm", heads] => match heads.parse::<usize>() {
            Ok(heads) if heads > 0 => farm(&specs, heads),
            _ => Err(format!("bad fleet size {heads:?}; {USAGE}")),
        },
        ["restart"] => restart(&specs),
        _ => Err(USAGE.to_string()),
    };
    if let Err(message) = row.and_then(|row| row.print(&specs)) {
        eprintln!("atd-load: {message}");
        std::process::exit(2);
    }
}
