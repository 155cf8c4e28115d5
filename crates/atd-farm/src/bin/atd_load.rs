//! Closed-loop load generator for the ATE daemon and the test farm.
//!
//! ```text
//! cargo run --release -p gigatest-atd-farm --bin atd-load                  # timed, TCP, depth 1
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --requests 2000
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --canary     # deterministic
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --pipeline 2 --depth 64
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --pipeline --canary
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --farm 3     # sharded fleet
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --farm 3 --canary
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --restart    # durable store
//! cargo run --release -p gigatest-atd-farm --bin atd-load -- --restart --canary
//! ```
//!
//! Every mode speaks THP/2 through the one `atd::Client`, over TCP to an
//! in-process daemon or over the in-memory loopback.
//!
//! The default mode boots an in-process `atd` daemon on an ephemeral TCP
//! port and drives it over one connection at depth 1 — the serial
//! protocol: each submission's answer arrives before the next is sent.
//! It reports throughput, latency, and cache hit rate to
//! `BENCH_atd.json`. Every repeated spec's result is checked against its
//! first occurrence — the load test doubles as a cache-identity audit —
//! and the run fails on any protocol error or mismatch.
//!
//! `--pipeline N` runs N concurrent sessions instead, each its own
//! connection keeping a depth-K window (`--depth K`) of correlated
//! submissions in flight, with every result arriving as a verified chunk
//! stream. The per-submission latency (submit to terminal event) feeds
//! the same p50/p99 report.
//!
//! `--canary` skips clocks: it drives a fixed mix (submits, three-spec
//! pipelined bursts, pings, stats polls) through the loopback and prints
//! only deterministic bytes (result digests and order-independent
//! counters). CI runs it under `EXEC_THREADS=1` and `=4` and diffs the
//! output — with and without `--pipeline` (TCP) — extending the
//! workspace's thread-count invariance proof through the wire protocol,
//! scheduler, chunker, and cache; it also diffs the loopback digest
//! table against the TCP one.
//!
//! `--restart` exercises the persistent result store: a store-backed
//! in-process daemon runs one full campaign cold, is dropped, and a
//! fresh daemon is rebooted over the same directory — the reboot is
//! timed (rehydration wall time, segment scan plus index rebuild) and
//! the repeated campaign's warm hit rate and store counters land in
//! `BENCH_store.json`. With `--canary` the restart is made hostile: the
//! first daemon is killed after half the stream, a torn record tail is
//! appended to the newest segment (a crash mid-`put`), and the reopened
//! daemon must truncate the tear, rehydrate, and serve the full stream
//! byte-identically — the per-spec digest table must match the plain
//! canary's exactly, which CI enforces by diffing the two.
//!
//! `--farm N` drives an in-process fleet of N heads through the
//! `atd-farm` coordinator: composite specs shard across the fleet and
//! merge back, a head is killed halfway through the timed run to
//! exercise the re-shard path, and the report lands in `BENCH_farm.json`
//! (throughput, latency quantiles, per-head cache-hit rates, re-shard
//! count). `--farm N --canary` prints the *merged* per-spec digests —
//! output that must be identical at any fleet size, which CI enforces by
//! diffing 1 head against 3.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant; // xlint::allow(no-wall-clock, load-generator harness: wall time is the measurand here and never feeds back into results)

use atd::cache::fnv1a64;
use atd::{
    AtdError, Client, Event, JobResult, JobSpec, Loopback, PipelinedClient, Provenance, Service,
};
use pstime::{DataRate, Duration};

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

/// Running tallies across the request stream.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    jobs: u64,
    computed: u64,
    cached: u64,
    batched: u64,
    busy: u64,
    protocol_errors: u64,
    mismatches: u64,
}

impl Tally {
    fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            to_f64(self.cached + self.batched) / to_f64(self.jobs)
        }
    }
}

fn to_f64(n: u64) -> f64 {
    u32::try_from(n).map(f64::from).unwrap_or(f64::MAX)
}

/// Byte-identity ledger: per spec key, the stream digest of the first
/// result seen — every later result must match it — and the FNV-1a
/// digest of that result's bytes, the column every canary prints.
#[derive(Debug, Default)]
struct Ledger {
    first_seen: BTreeMap<Vec<u8>, (u64, u64)>,
}

impl Ledger {
    /// Records a result for `spec` by its stream digest; returns false on
    /// a mismatch with the first occurrence.
    fn check(&mut self, spec: &JobSpec, digest: u64, result: &JobResult) -> bool {
        match self.first_seen.entry(spec.key_bytes()) {
            Entry::Occupied(first) => first.get().0 == digest,
            Entry::Vacant(slot) => {
                slot.insert((digest, fnv1a64(&result.encoded().unwrap_or_default())));
                true
            }
        }
    }

    /// Prints the digest table: kind, spec-key digest, result digest.
    fn print(&self, specs: &[JobSpec]) {
        for spec in specs {
            let key = spec.key_bytes();
            let digest = self.first_seen.get(&key).map(|(_, fnv)| *fnv).unwrap_or_default();
            println!("{:8} {:016x} {:016x}", spec.kind(), fnv1a64(&key), digest);
        }
    }
}

fn note_submitted(tally: &mut Tally, provenance: Provenance) {
    tally.jobs += 1;
    match provenance {
        Provenance::Computed => tally.computed += 1,
        Provenance::Cache => tally.cached += 1,
        Provenance::Batched => tally.batched += 1,
    }
}

/// Folds one terminal event for `spec` into the tallies.
fn note_event(event: &Event, spec: &JobSpec, tally: &mut Tally, ledger: &mut Ledger) {
    match event {
        Event::Done { provenance, digest, result, .. } => {
            note_submitted(tally, *provenance);
            if !ledger.check(spec, *digest, result) {
                tally.mismatches += 1;
            }
        }
        Event::Busy { .. } => tally.busy += 1,
        _ => tally.protocol_errors += 1,
    }
}

/// Drives one request of the mixed stream against `client`.
fn drive_one<L: Read + Write>(
    client: &mut Client<L>,
    specs: &[JobSpec],
    i: u64,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Result<(), AtdError> {
    tally.requests += 1;
    let session = u32::try_from(i % 4).unwrap_or(0);
    if i % 97 == 13 {
        let token = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if client.ping(token)? != token {
            tally.protocol_errors += 1;
        }
        return Ok(());
    }
    if i % 131 == 7 {
        client.stats()?;
        return Ok(());
    }
    let slot = usize::try_from(i).unwrap_or(0) % specs.len().max(1);
    if i % 50 == 49 {
        // Three consecutive table entries (wrapping) in flight at once.
        let mut burst = Vec::new();
        for k in 0..3 {
            if let Some(spec) = specs.get((slot + k) % specs.len().max(1)) {
                burst.push((client.submit_pipelined(session, *spec)?, *spec));
            }
        }
        while client.in_flight() > 0 {
            let event = client.next_event()?;
            let (Event::Done { correlation, .. }
            | Event::Busy { correlation, .. }
            | Event::Failed { correlation, .. }) = &event
            else {
                continue;
            };
            if let Some((_, spec)) = burst.iter().find(|(c, _)| c == correlation) {
                note_event(&event, spec, tally, ledger);
            }
        }
        return Ok(());
    }
    if let Some(spec) = specs.get(slot) {
        note_event(&client.submit(session, *spec)?, spec, tally, ledger);
    }
    Ok(())
}

/// Deterministic loopback run: prints per-spec result digests and the
/// final counters — nothing wall-clock-dependent.
fn canary(requests: u64) -> Result<(), String> {
    let specs = spec_table();
    let mut client = Client::new(Loopback::new(Service::from_env()));
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    for i in 0..requests {
        drive_one(&mut client, &specs, i, &mut tally, &mut ledger)
            .map_err(|e| format!("request {i} failed: {e}"))?;
    }
    println!("== atd canary ==");
    ledger.print(&specs);
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    println!(
        "jobs {} computed {} cached {} batched {} busy {} mismatches {}",
        tally.jobs, tally.computed, tally.cached, tally.batched, tally.busy, tally.mismatches
    );
    println!(
        "service: submitted {} completed {} cache_hits {} batched {} shed {} failed {} frames_rejected {} connections_failed {}",
        stats.submitted,
        stats.completed,
        stats.cache_hits,
        stats.batched,
        stats.shed,
        stats.failed,
        stats.frames_rejected,
        stats.connections_failed
    );
    if tally.mismatches > 0 || tally.protocol_errors > 0 {
        return Err(format!(
            "canary run saw {} mismatches, {} protocol errors",
            tally.mismatches, tally.protocol_errors
        ));
    }
    Ok(())
}

/// One pipelined session's results.
#[derive(Debug, Default)]
struct PipeReport {
    tally: Tally,
    ledger: Ledger,
    latencies_s: Vec<f64>,
    chunk_frames: u64,
}

/// Drives `requests` submissions through one connection, keeping a
/// depth-`depth` window in flight. Submission `i` carries session id
/// `session_base + (i % session_stride)` and spec `i % table-size` — a
/// deterministic sliding window over the spec table. Latencies are
/// recorded per correlation (submit to terminal event) when asked.
fn run_pipeline(
    addr: std::net::SocketAddr,
    specs: &[JobSpec],
    session_base: u32,
    session_stride: u32,
    depth: usize,
    requests: u64,
    record_latency: bool,
) -> Result<PipeReport, String> {
    let mut client =
        PipelinedClient::connect(addr).map_err(|e| format!("cannot connect pipeline: {e}"))?;
    let mut report = PipeReport::default();
    let mut pending: BTreeMap<u64, (usize, Instant)> = BTreeMap::new();
    let mut submitted: u64 = 0;
    // Refill one-for-one: top the window back to `depth` before every
    // event read. Kernel socket buffering already batches the submissions
    // into few syscalls, and measured throughput beats a half-depth
    // hysteresis refill — a drained window leaves the daemon idle for a
    // full client-daemon handoff on this 1-CPU box.
    while submitted < requests || client.in_flight() > 0 {
        while submitted < requests && client.in_flight() < depth.max(1) {
            let slot = usize::try_from(submitted).unwrap_or(0) % specs.len().max(1);
            let Some(spec) = specs.get(slot) else {
                return Err("empty spec table".to_string());
            };
            let lane = u32::try_from(submitted % u64::from(session_stride.max(1))).unwrap_or(0);
            let correlation = client
                .submit_pipelined(session_base.wrapping_add(lane), *spec)
                .map_err(|e| format!("submission {submitted} failed: {e}"))?;
            report.tally.requests += 1;
            pending.insert(correlation, (slot, Instant::now()));
            submitted += 1;
        }
        match client.next_event().map_err(|e| format!("pipeline event failed: {e}"))? {
            Event::Chunk { .. } => {
                report.chunk_frames += 1;
            }
            Event::Done { correlation, provenance, digest, result, .. } => {
                note_submitted(&mut report.tally, provenance);
                match pending.remove(&correlation) {
                    Some((slot, t0)) => {
                        if record_latency {
                            report.latencies_s.push(t0.elapsed().as_secs_f64());
                        }
                        // `digest` is the stream digest the reassembler
                        // already verified against the chunk bytes; the
                        // ledger cross-checks it against every other run
                        // of the same spec.
                        let ok = specs
                            .get(slot)
                            .map(|spec| report.ledger.check(spec, digest, &result))
                            .unwrap_or(false);
                        if !ok {
                            report.tally.mismatches += 1;
                        }
                    }
                    None => report.tally.protocol_errors += 1,
                }
            }
            Event::Busy { correlation, .. } => {
                pending.remove(&correlation);
                report.tally.busy += 1;
            }
            Event::Failed { correlation, .. } => {
                pending.remove(&correlation);
                report.tally.protocol_errors += 1;
            }
            Event::Pong { .. } | Event::Stats { .. } | Event::Goodbye { .. } => {
                report.tally.protocol_errors += 1;
            }
        }
    }
    Ok(report)
}

/// Boots a daemon and returns its listener address plus join handle.
fn boot_daemon(
) -> Result<(std::net::SocketAddr, std::thread::JoinHandle<Result<Service, AtdError>>), String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind daemon: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    let daemon = std::thread::spawn(move || atd::serve(&listener, Service::from_env()));
    Ok((addr, daemon))
}

/// Fetches final counters and stops the daemon over a fresh session.
fn finish_daemon(
    addr: std::net::SocketAddr,
    daemon: std::thread::JoinHandle<Result<Service, AtdError>>,
) -> Result<atd::ServiceStats, String> {
    let mut admin =
        PipelinedClient::connect(addr).map_err(|e| format!("cannot connect admin: {e}"))?;
    let stats = admin.stats().map_err(|e| format!("stats failed: {e}"))?;
    admin.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon failed: {e}"))?;
    Ok(stats)
}

/// Deterministic pipelined run: one connection against a real daemon,
/// printing per-spec digests and order-independent counters.
/// Cache-vs-batch provenance depends on how submissions group into drain
/// cycles (a socket-timing artefact), so only `computed` and the merged
/// reuse count are printed — both invariant.
fn pipelined_canary(sessions: u32, depth: usize, requests: u64) -> Result<(), String> {
    let specs = spec_table();
    let (addr, daemon) = boot_daemon()?;
    let report = run_pipeline(addr, &specs, 0, sessions, depth, requests, false)?;
    let stats = finish_daemon(addr, daemon)?;

    println!("== atd pipelined canary ==");
    report.ledger.print(&specs);
    println!(
        "jobs {} computed {} reused {} busy {} mismatches {} chunk_frames {}",
        report.tally.jobs,
        report.tally.computed,
        report.tally.cached + report.tally.batched,
        report.tally.busy,
        report.tally.mismatches,
        report.chunk_frames
    );
    println!(
        "service: submitted {} completed {} shed {} failed {} frames_rejected {} connections_failed {}",
        stats.submitted,
        stats.completed,
        stats.shed,
        stats.failed,
        stats.frames_rejected,
        stats.connections_failed
    );
    if report.tally.mismatches > 0 || report.tally.protocol_errors > 0 {
        return Err(format!(
            "pipelined canary saw {} mismatches, {} protocol errors",
            report.tally.mismatches, report.tally.protocol_errors
        ));
    }
    Ok(())
}

/// Timed pipelined run: `sessions` worker threads, each its own
/// connection and depth-K window; writes `BENCH_atd.json`. One session
/// at depth 1 is the serial protocol.
fn pipelined_bench(sessions: u32, depth: usize, requests: u64) -> Result<(), String> {
    let (addr, daemon) = boot_daemon()?;
    eprintln!(
        "atd-load: daemon on {addr}, {requests} pipelined submissions across {sessions} sessions (depth {depth})"
    );
    let specs = spec_table();

    let t0 = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..sessions.max(1) {
        let specs = specs.clone();
        let share = requests / u64::from(sessions.max(1))
            + u64::from(u64::from(worker) < requests % u64::from(sessions.max(1)));
        handles.push(std::thread::spawn(move || {
            run_pipeline(addr, &specs, worker, 1, depth, share, true)
        }));
    }
    let mut reports = Vec::new();
    for handle in handles {
        reports.push(handle.join().map_err(|_| "worker thread panicked".to_string())??);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let stats = finish_daemon(addr, daemon)?;

    // Merge the per-session reports and cross-check the ledgers: every
    // session must have seen byte-identical results per spec.
    let mut tally = Tally::default();
    let mut latencies_s = Vec::new();
    let mut chunk_frames: u64 = 0;
    let mut merged = Ledger::default();
    for report in reports {
        tally.requests += report.tally.requests;
        tally.jobs += report.tally.jobs;
        tally.computed += report.tally.computed;
        tally.cached += report.tally.cached;
        tally.batched += report.tally.batched;
        tally.busy += report.tally.busy;
        tally.protocol_errors += report.tally.protocol_errors;
        tally.mismatches += report.tally.mismatches;
        chunk_frames += report.chunk_frames;
        latencies_s.extend(report.latencies_s);
        for (key, digest) in report.ledger.first_seen {
            match merged.first_seen.get(&key) {
                Some(first) if first.0 != digest.0 => tally.mismatches += 1,
                Some(_) => {}
                None => {
                    merged.first_seen.insert(key, digest);
                }
            }
        }
    }

    let json =
        render_json(&tally, &stats, &latencies_s, elapsed_s, (sessions, depth, chunk_frames));
    match std::fs::write("BENCH_atd.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_atd.json"),
        Err(e) => return Err(format!("failed to write BENCH_atd.json: {e}")),
    }
    print!("{json}");

    if tally.protocol_errors > 0 || tally.mismatches > 0 {
        return Err(format!(
            "pipelined run saw {} protocol errors, {} result mismatches",
            tally.protocol_errors, tally.mismatches
        ));
    }
    Ok(())
}

/// Renders the benchmark report.
fn render_json(
    tally: &Tally,
    stats: &atd::ServiceStats,
    latencies_s: &[f64],
    elapsed_s: f64,
    (sessions, depth, chunk_frames): (u32, usize, u64),
) -> String {
    let (mean_s, p50_s, p99_s) = latency_summary(latencies_s);
    let rps = if elapsed_s > 0.0 { to_f64(tally.requests) / elapsed_s } else { 0.0 };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"mode\": \"pipelined\",\n");
    json.push_str(&format!(
        "  \"pipeline\": {{ \"sessions\": {sessions}, \"depth\": {depth} }},\n"
    ));
    json.push_str(&format!("  \"chunk_frames\": {chunk_frames},\n"));
    json.push_str(&format!("  \"requests\": {},\n", tally.requests));
    json.push_str(&format!("  \"jobs\": {},\n", tally.jobs));
    json.push_str(&format!("  \"elapsed_s\": {elapsed_s:.6},\n"));
    json.push_str(&format!("  \"requests_per_s\": {rps:.1},\n"));
    json.push_str(&format!("  \"latency_mean_s\": {mean_s:.6},\n"));
    json.push_str(&format!("  \"latency_p50_s\": {p50_s:.6},\n"));
    json.push_str(&format!("  \"latency_p99_s\": {p99_s:.6},\n"));
    json.push_str(&format!("  \"cache_hit_rate\": {:.4},\n", tally.hit_rate()));
    json.push_str(&format!(
        "  \"provenance\": {{ \"computed\": {}, \"cached\": {}, \"batched\": {} }},\n",
        tally.computed, tally.cached, tally.batched
    ));
    json.push_str(&format!("  \"busy\": {},\n", tally.busy));
    json.push_str(&format!("  \"protocol_errors\": {},\n", tally.protocol_errors));
    json.push_str(&format!("  \"result_mismatches\": {},\n", tally.mismatches));
    json.push_str(&format!("  \"service\": {}\n", service_json(stats)));
    json.push_str("}\n");
    json
}

/// The service-counter block, shared by every bench schema — single-head
/// and farm reports must stay field-for-field comparable.
fn service_json(stats: &atd::ServiceStats) -> String {
    format!(
        "{{ \"submitted\": {}, \"completed\": {}, \"cache_hits\": {}, \"batched\": {}, \"shed\": {}, \"failed\": {}, \"connections_opened\": {}, \"connections_closed\": {}, \"frames_rejected\": {}, \"connections_failed\": {}, \"store_hits\": {}, \"store_misses\": {}, \"store_recovered\": {} }}",
        stats.submitted,
        stats.completed,
        stats.cache_hits,
        stats.batched,
        stats.shed,
        stats.failed,
        stats.connections_opened,
        stats.connections_closed,
        stats.frames_rejected,
        stats.connections_failed,
        stats.store_hits,
        stats.store_misses,
        stats.store_recovered
    )
}

/// Mean, p50, and p99 of a latency sample (seconds).
fn latency_summary(latencies_s: &[f64]) -> (f64, f64, f64) {
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |q_permille: u64| -> f64 {
        let Some(last) = sorted.len().checked_sub(1) else {
            return 0.0;
        };
        let idx = (u64::try_from(last).unwrap_or(0) * q_permille + 500) / 1000;
        let idx = usize::try_from(idx).unwrap_or(0).min(last);
        sorted.get(idx).copied().unwrap_or(0.0)
    };
    let mean_s = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().sum::<f64>() / to_f64(u64::try_from(sorted.len()).unwrap_or(1))
    };
    (mean_s, quantile(500), quantile(990))
}

/// Drives one submission of the farm stream: round-robin over the spec
/// table, sessions striped 0..4 like the single-head stream.
fn drive_farm_one(
    farm: &mut atd_farm::Farm<Client<Loopback>>,
    specs: &[JobSpec],
    i: u64,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> Result<(), atd_farm::FarmError> {
    tally.requests += 1;
    let session = u32::try_from(i % 4).unwrap_or(0);
    let slot = usize::try_from(i).unwrap_or(0) % specs.len().max(1);
    let Some(spec) = specs.get(slot) else {
        return Ok(());
    };
    let done = farm.submit(session, *spec)?;
    note_submitted(tally, done.provenance);
    let digest = atd::stream_digest(&done.result.encoded().unwrap_or_default());
    if !ledger.check(spec, digest, &done.result) {
        tally.mismatches += 1;
    }
    Ok(())
}

/// Deterministic farm run: shards every composite spec across an
/// in-process fleet and prints per-spec *merged* digests plus
/// head-count-invariant counters. CI diffs this output at 1 head vs 3
/// heads (and across `EXEC_THREADS`) — the byte-identity proof for the
/// whole plan → route → drain → merge path, since a merged digest can
/// only match the one-head digest if every band landed and concatenated
/// correctly. Fleet-shape-dependent counters (sub-specs, per-head loads)
/// deliberately stay out of this output.
fn farm_canary(heads: usize, requests: u64) -> Result<(), String> {
    let specs = spec_table();
    let mut farm = atd_farm::Farm::in_proc(heads).map_err(|e| format!("cannot boot farm: {e}"))?;
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    for i in 0..requests {
        drive_farm_one(&mut farm, &specs, i, &mut tally, &mut ledger)
            .map_err(|e| format!("submission {i} failed: {e}"))?;
    }
    println!("== atd farm canary ==");
    ledger.print(&specs);
    println!(
        "jobs {} computed {} reused {} mismatches {}",
        tally.jobs,
        tally.computed,
        tally.cached + tally.batched,
        tally.mismatches
    );
    if tally.mismatches > 0 {
        return Err(format!("farm canary saw {} result mismatches", tally.mismatches));
    }
    Ok(())
}

/// Timed farm run: drives the in-process fleet end to end, kills a head
/// halfway through to exercise the re-shard path, and writes
/// `BENCH_farm.json` with throughput, latency quantiles, per-head
/// cache-hit rates, and the re-shard count.
fn farm_bench(heads: usize, requests: u64) -> Result<(), String> {
    let specs = spec_table();
    let mut farm = atd_farm::Farm::in_proc(heads).map_err(|e| format!("cannot boot farm: {e}"))?;
    eprintln!("atd-load: in-proc farm of {heads} heads, {requests} submissions");
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();
    let mut latencies_s = Vec::with_capacity(usize::try_from(requests).unwrap_or(0));
    let kill_at = requests / 2;
    let mut killed: Option<usize> = None;

    let t0 = Instant::now();
    for i in 0..requests {
        if i == kill_at && heads > 1 {
            // Inject the failure the farm is built for: take down the
            // first up head mid-campaign and leave it down, so the back
            // half of the run measures the re-sharded fleet.
            killed = (0..heads).find(|h| farm.is_up(*h));
            if let Some(victim) = killed {
                farm.kill(victim);
            }
        }
        let t = Instant::now();
        drive_farm_one(&mut farm, &specs, i, &mut tally, &mut ledger)
            .map_err(|e| format!("submission {i} failed: {e}"))?;
        latencies_s.push(t.elapsed().as_secs_f64());
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    let head_stats = farm.head_stats();
    let json = render_farm_json(&tally, &farm, &head_stats, &latencies_s, elapsed_s, killed);
    match std::fs::write("BENCH_farm.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_farm.json"),
        Err(e) => return Err(format!("failed to write BENCH_farm.json: {e}")),
    }
    print!("{json}");

    if tally.mismatches > 0 {
        return Err(format!("farm run saw {} result mismatches", tally.mismatches));
    }
    Ok(())
}

/// Renders the farm benchmark report. The `service` block aggregates all
/// heads with the same schema as `BENCH_atd.json`; `per_head` breaks out
/// each head's submission and cache-hit tallies; `farm.reshards` is the
/// number of sub-spec routings that diverged from their all-up home after
/// the injected kill.
fn render_farm_json(
    tally: &Tally,
    farm: &atd_farm::Farm<Client<Loopback>>,
    head_stats: &[Result<atd::ServiceStats, AtdError>],
    latencies_s: &[f64],
    elapsed_s: f64,
    killed: Option<usize>,
) -> String {
    let (mean_s, p50_s, p99_s) = latency_summary(latencies_s);
    let rps = if elapsed_s > 0.0 { to_f64(tally.requests) / elapsed_s } else { 0.0 };
    let stats = farm.stats();

    let mut aggregate = atd::ServiceStats::default();
    let mut per_head = String::new();
    for (head, outcome) in head_stats.iter().enumerate() {
        let comma = if head == 0 { "" } else { ",\n" };
        match outcome {
            Ok(s) => {
                aggregate.submitted += s.submitted;
                aggregate.completed += s.completed;
                aggregate.cache_hits += s.cache_hits;
                aggregate.batched += s.batched;
                aggregate.shed += s.shed;
                aggregate.failed += s.failed;
                aggregate.connections_opened += s.connections_opened;
                aggregate.connections_closed += s.connections_closed;
                aggregate.connections_failed += s.connections_failed;
                aggregate.frames_rejected += s.frames_rejected;
                aggregate.store_hits += s.store_hits;
                aggregate.store_misses += s.store_misses;
                aggregate.store_recovered += s.store_recovered;
                aggregate.queue_capacity =
                    aggregate.queue_capacity.saturating_add(s.queue_capacity);
                aggregate.cache_capacity =
                    aggregate.cache_capacity.saturating_add(s.cache_capacity);
                let hit_rate =
                    if s.submitted == 0 { 0.0 } else { to_f64(s.cache_hits) / to_f64(s.submitted) };
                per_head.push_str(&format!(
                    "{comma}    {{ \"head\": {head}, \"up\": {}, \"submitted\": {}, \"completed\": {}, \"cache_hits\": {}, \"cache_hit_rate\": {hit_rate:.4} }}",
                    farm.is_up(head),
                    s.submitted,
                    s.completed,
                    s.cache_hits
                ));
            }
            Err(e) => {
                per_head.push_str(&format!(
                    "{comma}    {{ \"head\": {head}, \"up\": {}, \"error\": {:?} }}",
                    farm.is_up(head),
                    e.to_string()
                ));
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"mode\": \"farm\",\n");
    json.push_str(&format!(
        "  \"farm\": {{ \"heads\": {}, \"killed_head\": {}, \"reshards\": {}, \"retry_rounds\": {}, \"heads_down\": {}, \"sub_specs\": {}, \"merged\": {}, \"pass_through\": {} }},\n",
        farm.heads(),
        killed.map(|h| h.to_string()).unwrap_or_else(|| "null".to_string()),
        stats.rerouted,
        stats.retry_rounds,
        stats.heads_down,
        stats.sub_specs,
        stats.merged,
        stats.pass_through
    ));
    json.push_str(&format!("  \"requests\": {},\n", tally.requests));
    json.push_str(&format!("  \"jobs\": {},\n", tally.jobs));
    json.push_str(&format!("  \"elapsed_s\": {elapsed_s:.6},\n"));
    json.push_str(&format!("  \"requests_per_s\": {rps:.1},\n"));
    json.push_str(&format!("  \"latency_mean_s\": {mean_s:.6},\n"));
    json.push_str(&format!("  \"latency_p50_s\": {p50_s:.6},\n"));
    json.push_str(&format!("  \"latency_p99_s\": {p99_s:.6},\n"));
    json.push_str(&format!("  \"cache_hit_rate\": {:.4},\n", tally.hit_rate()));
    json.push_str(&format!(
        "  \"provenance\": {{ \"computed\": {}, \"cached\": {}, \"batched\": {} }},\n",
        tally.computed, tally.cached, tally.batched
    ));
    json.push_str(&format!("  \"result_mismatches\": {},\n", tally.mismatches));
    json.push_str("  \"per_head\": [\n");
    json.push_str(&per_head);
    json.push_str("\n  ],\n");
    json.push_str(&format!("  \"service\": {}\n", service_json(&aggregate)));
    json.push_str("}\n");
    json
}

/// Scratch directory for a store-backed run: deterministic per process,
/// wiped before and after so a stale tree never pollutes a measurement.
fn store_scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atd-load-store-{}-{tag}", std::process::id()))
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
    std::io::Write::write_all(&mut file, b"ASR1\x00\x00\x00")
        .map_err(|e| format!("cannot tear the segment tail: {e}"))
}

/// Timed store run: one campaign cold against a store-backed daemon,
/// drop it, time the reboot over the same directory (segment scan +
/// index rebuild), then the same campaign warm. Writes
/// `BENCH_store.json`: per-phase throughput and latency, rehydration
/// wall time, and the warm-restart hit rate.
fn store_restart_bench(requests: u64) -> Result<(), String> {
    let dir = store_scratch("bench");
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = store_restart_bench_in(&dir, requests);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn store_restart_bench_in(dir: &Path, requests: u64) -> Result<(), String> {
    let specs = spec_table();
    let mut client =
        atd_farm::local_head_with_store(dir).map_err(|e| format!("cannot open store: {e}"))?;
    eprintln!("atd-load: store-backed daemon in {}, {requests} requests per phase", dir.display());
    // One ledger across both phases: the restarted daemon must serve the
    // exact bytes the first daemon computed.
    let mut ledger = Ledger::default();

    let mut cold = Tally::default();
    let mut cold_lat = Vec::with_capacity(usize::try_from(requests).unwrap_or(0));
    let t0 = Instant::now();
    for i in 0..requests {
        let t = Instant::now();
        drive_one(&mut client, &specs, i, &mut cold, &mut ledger)
            .map_err(|e| format!("cold request {i} failed: {e}"))?;
        cold_lat.push(t.elapsed().as_secs_f64());
    }
    let cold_s = t0.elapsed().as_secs_f64();
    drop(client);

    let t1 = Instant::now();
    let mut client =
        atd_farm::local_head_with_store(dir).map_err(|e| format!("cannot reopen store: {e}"))?;
    let rehydrate_s = t1.elapsed().as_secs_f64();

    let mut warm = Tally::default();
    let mut warm_lat = Vec::with_capacity(usize::try_from(requests).unwrap_or(0));
    let t2 = Instant::now();
    for i in 0..requests {
        let t = Instant::now();
        drive_one(&mut client, &specs, i, &mut warm, &mut ledger)
            .map_err(|e| format!("warm request {i} failed: {e}"))?;
        warm_lat.push(t.elapsed().as_secs_f64());
    }
    let warm_s = t2.elapsed().as_secs_f64();
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;

    let json = render_store_json(
        (&cold, cold_s, &cold_lat),
        (&warm, warm_s, &warm_lat),
        rehydrate_s,
        &stats,
    );
    match std::fs::write("BENCH_store.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_store.json"),
        Err(e) => return Err(format!("failed to write BENCH_store.json: {e}")),
    }
    print!("{json}");

    let errors = cold.protocol_errors + warm.protocol_errors;
    let mismatches = cold.mismatches + warm.mismatches;
    if errors > 0 || mismatches > 0 {
        return Err(format!(
            "store run saw {errors} protocol errors, {mismatches} result mismatches"
        ));
    }
    Ok(())
}

/// Renders the store benchmark report: the shared `service` schema plus
/// a per-phase block, so cold-vs-warm is one `jq` away. Each phase is
/// `(tally, elapsed seconds, per-request latencies)`.
fn render_store_json(
    cold: (&Tally, f64, &[f64]),
    warm: (&Tally, f64, &[f64]),
    rehydrate_s: f64,
    stats: &atd::ServiceStats,
) -> String {
    let phase = |(tally, elapsed_s, lats): (&Tally, f64, &[f64])| {
        let (mean_s, p50_s, p99_s) = latency_summary(lats);
        let rps = if elapsed_s > 0.0 { to_f64(tally.requests) / elapsed_s } else { 0.0 };
        format!(
            "{{ \"requests\": {}, \"jobs\": {}, \"elapsed_s\": {elapsed_s:.6}, \"requests_per_s\": {rps:.1}, \"latency_mean_s\": {mean_s:.6}, \"latency_p50_s\": {p50_s:.6}, \"latency_p99_s\": {p99_s:.6}, \"cache_hit_rate\": {:.4} }}",
            tally.requests,
            tally.jobs,
            tally.hit_rate()
        )
    };
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"mode\": \"store-restart\",\n");
    json.push_str(&format!("  \"cold\": {},\n", phase(cold)));
    json.push_str(&format!("  \"rehydrate_s\": {rehydrate_s:.6},\n"));
    json.push_str(&format!("  \"rehydrated_records\": {},\n", stats.store_recovered));
    json.push_str(&format!("  \"warm\": {},\n", phase(warm)));
    json.push_str(&format!("  \"warm_hit_rate\": {:.4},\n", warm.0.hit_rate()));
    json.push_str(&format!(
        "  \"result_mismatches\": {},\n",
        cold.0.mismatches + warm.0.mismatches
    ));
    json.push_str(&format!("  \"service\": {}\n", service_json(stats)));
    json.push_str("}\n");
    json
}

/// Deterministic store run with a hostile restart: half the stream
/// against a store-backed daemon, kill it, tear the newest segment's
/// tail (a crash mid-`put`), reboot over the same directory, then the
/// full stream. One ledger spans both daemons, so any byte drift across
/// the crash/recover boundary is a hard failure — and the digest table
/// is printed in the plain canary's format so CI can diff the two.
fn store_restart_canary(requests: u64) -> Result<(), String> {
    let dir = store_scratch("canary");
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = store_restart_canary_in(&dir, requests);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn store_restart_canary_in(dir: &Path, requests: u64) -> Result<(), String> {
    let specs = spec_table();
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();

    let mut client =
        atd_farm::local_head_with_store(dir).map_err(|e| format!("cannot open store: {e}"))?;
    for i in 0..requests / 2 {
        drive_one(&mut client, &specs, i, &mut tally, &mut ledger)
            .map_err(|e| format!("request {i} failed before the crash: {e}"))?;
    }
    drop(client);
    tear_newest_segment(dir)?;

    let mut client =
        atd_farm::local_head_with_store(dir).map_err(|e| format!("cannot reopen store: {e}"))?;
    for i in 0..requests {
        drive_one(&mut client, &specs, i, &mut tally, &mut ledger)
            .map_err(|e| format!("request {i} failed after the restart: {e}"))?;
    }
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;

    println!("== atd store canary ==");
    ledger.print(&specs);
    println!(
        "jobs {} computed {} cached {} batched {} busy {} mismatches {}",
        tally.jobs, tally.computed, tally.cached, tally.batched, tally.busy, tally.mismatches
    );
    println!(
        "service: submitted {} completed {} cache_hits {} failed {} store_hits {} store_misses {} store_recovered {}",
        stats.submitted,
        stats.completed,
        stats.cache_hits,
        stats.failed,
        stats.store_hits,
        stats.store_misses,
        stats.store_recovered
    );
    if tally.mismatches > 0 || tally.protocol_errors > 0 {
        return Err(format!(
            "store canary saw {} mismatches, {} protocol errors",
            tally.mismatches, tally.protocol_errors
        ));
    }
    if stats.store_recovered == 0 {
        return Err("the restarted daemon rehydrated nothing".to_string());
    }
    Ok(())
}

/// Parsed command line.
#[derive(Debug)]
struct Options {
    canary_mode: bool,
    /// `Some(sessions)` when `--pipeline` was given.
    pipeline: Option<u32>,
    /// `Some(heads)` when `--farm` was given.
    farm: Option<usize>,
    /// `--restart`: drive a store-backed daemon through a kill/reboot.
    restart: bool,
    depth: usize,
    requests: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut canary_mode = false;
    let mut pipeline: Option<u32> = None;
    let mut farm: Option<usize> = None;
    let mut restart = false;
    // Matches the daemon's default per-session cap: the deepest window
    // that is never shed, and the measured throughput sweet spot.
    let mut depth: usize = 64;
    let mut requests: Option<u64> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--canary" => canary_mode = true,
            "--restart" => restart = true,
            "--pipeline" => {
                // Optional session count: `--pipeline 8` or bare `--pipeline`.
                let sessions = match args.peek().map(|next| next.parse::<u32>()) {
                    Some(Ok(n)) => {
                        args.next();
                        n.max(1)
                    }
                    _ => 2,
                };
                pipeline = Some(sessions);
            }
            "--farm" => {
                // Optional fleet size: `--farm 3` or bare `--farm`
                // (then `ATD_FARM_HEADS`, default 2).
                let heads = match args.peek().map(|next| next.parse::<usize>()) {
                    Some(Ok(n)) => {
                        args.next();
                        n.max(1)
                    }
                    _ => atd_farm::heads_from_env(),
                };
                farm = Some(heads);
            }
            "--depth" => {
                let value = args.next().ok_or("--depth requires a value")?;
                let parsed: usize =
                    value.parse().map_err(|_| format!("bad pipeline depth {value:?}"))?;
                depth = parsed.max(1);
            }
            "--requests" => {
                let value = args.next().ok_or("--requests requires a value")?;
                requests = Some(value.parse().map_err(|_| format!("bad request count {value:?}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: atd-load [--canary] [--pipeline [N]] [--farm [N]] [--restart] [--depth K] [--requests N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    if farm.is_some() && pipeline.is_some() {
        return Err("--farm and --pipeline are mutually exclusive".to_string());
    }
    if restart && (farm.is_some() || pipeline.is_some()) {
        return Err("--restart drives the loopback path only".to_string());
    }
    // Canary defaults are small (CI diffs them twice); the timed serial
    // default is 1000 depth-1 submissions, and the pipelined timed
    // default is larger so the measurement amortises daemon start-up.
    // Farm submissions are whole campaigns (a merged composite each), so
    // the timed default is smaller again.
    let requests = requests.unwrap_or(match (canary_mode, pipeline.is_some(), farm.is_some()) {
        (true, _, _) => 200,
        (false, true, _) => 20_000,
        (false, false, true) => 400,
        (false, false, false) => 1000,
    });
    Ok(Options { canary_mode, pipeline, farm, restart, depth, requests })
}

fn main() {
    let result = parse_args().and_then(|opts| match (opts.canary_mode, opts.pipeline, opts.farm) {
        (true, _, Some(heads)) => farm_canary(heads, opts.requests),
        (false, _, Some(heads)) => farm_bench(heads, opts.requests),
        (true, Some(sessions), None) => pipelined_canary(sessions, opts.depth, opts.requests),
        (false, Some(sessions), None) => pipelined_bench(sessions, opts.depth, opts.requests),
        (true, None, None) if opts.restart => store_restart_canary(opts.requests),
        (false, None, None) if opts.restart => store_restart_bench(opts.requests),
        (true, None, None) => canary(opts.requests),
        (false, None, None) => pipelined_bench(1, 1, opts.requests),
    });
    if let Err(message) = result {
        eprintln!("atd-load: {message}");
        std::process::exit(2);
    }
}
