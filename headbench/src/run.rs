//! One benchmark run: set-up, the timed closed loop, answer checks and,
//! in traced mode, the layered replay and the per-layer figures.

use std::collections::BTreeMap;
use std::sync::Once;
use std::time::{Duration, Instant};

use atd::{JobSpec, PipelinedClient};

use crate::calib::Calibration;
use crate::drive::{self, Check, LocalFarm, Tally, Until};
use crate::gen::{self, Kind, Workload};
use crate::measure::{self, ratio, Meter, Metered, Metric, Outcome};
use crate::replay::{self, Counts, Dirs};
use crate::rig::{self, ctx, Daemon, Relay, RunDir};
use crate::trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median. A traced run
/// sets up once.
pub const SETUPS: usize = 9;

/// Pings timed for `server.ping_rtt_us`.
const PINGS: u64 = 200;

/// Seconds between calibration bursts in a timed phase. A segment runs
/// on to the end of its request-pattern cycle.
const SEGMENT_S: f64 = 0.25;

/// How one run is carried out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload seed.
    pub seed: u64,
    /// Length of the timed phase; a traced run splits it between an
    /// untraced and a traced half.
    pub seconds: f64,
    /// Traced mode: per-layer figures instead of end-to-end ones.
    pub trace: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct Run {
    /// The result line.
    pub outcome: Outcome,
    /// The layered replay's exact counts, in traced mode.
    pub counts: Option<Counts>,
    /// For a traced `warm_replay`: the bytes the replay's frames predict
    /// for one request of every working-set spec, and the bytes a relay
    /// counted between a client and the daemon for the same requests.
    /// Equal while the replay frames results as the daemon does.
    pub wire_check: Option<(u64, u64)>,
}

/// One timed phase.
#[derive(Debug, Default)]
struct Phase {
    tally: Tally,
    seconds: f64,
    /// Completions per window.
    window: u64,
    metered: Metered,
}

impl Phase {
    /// Each window's throughput.
    fn window_rates(&self) -> Vec<f64> {
        self.metered.windows.iter().map(|w| ratio(self.window as f64, w.seconds)).collect()
    }

    /// Verified jobs per second: the median over windows, so a stall
    /// that hits part of the phase moves it no more than the windows it
    /// hits. A phase too short for three windows, or with a failure,
    /// reports its overall rate.
    fn jobs_per_s(&self) -> f64 {
        let rates = self.window_rates();
        if rates.len() < 3 || self.tally.failed > 0 {
            ratio(self.tally.ok as f64, self.seconds)
        } else {
            measure::median(&rates)
        }
    }

    /// Process CPU per job: the interquartile mean over windows, which
    /// is as deaf to a stall as the median but, unlike it, does not stick
    /// to a few levels when the kernel counts CPU time in 10 ms ticks.
    fn cpu_ms_per_job(&self) -> f64 {
        let per_job: Vec<f64> =
            self.metered.windows.iter().map(|w| ratio(w.cpu_s * 1e3, self.window as f64)).collect();
        measure::interquartile_mean(&per_job)
    }

    fn ms_per_job(&self) -> f64 {
        ratio(self.seconds * 1e3, self.tally.ok as f64)
    }

    /// Moves `bad` answers, found wrong after the phase, to the failures.
    fn settle(&mut self, bad: u64) {
        self.tally.ok = self.tally.ok.saturating_sub(bad);
        self.tally.failed += bad;
    }
}

/// How a workload's timed phases are cut: the request-pattern cycle each
/// segment ends on, and the completions per window (whole cycles, so
/// every window holds the same mix; for the farm, one kill-and-readmit
/// cycle).
fn cadence(w: Workload) -> (u64, u64) {
    match w {
        Workload::ColdCampaign => (gen::COLD_MIX.len() as u64, 10 * gen::COLD_MIX.len() as u64),
        Workload::WarmReplay => (4, 8000),
        Workload::FarmCampaign => (gen::FARM_FRESH.len() as u64, gen::FARM_BLOCK),
    }
}

/// Runs a timed phase of about `seconds` as segments of about
/// [`SEGMENT_S`]. Each call of `segment` drives the next one and returns
/// with nothing in flight; a calibration burst follows it, outside the
/// phase's time.
fn timed(
    w: Workload,
    seconds: f64,
    calibration: &mut Calibration,
    mut segment: impl FnMut(Until<'_>) -> Result<Tally, String>,
) -> Result<Phase, String> {
    let (every, window) = cadence(w);
    let meter = Meter::start(window)?;
    let start = Instant::now();
    let mut outside = Duration::ZERO;
    let mut tally = Tally::default();
    loop {
        let left = seconds - (start.elapsed() - outside).as_secs_f64();
        if left <= 0.0 {
            break;
        }
        let at = Instant::now() + Duration::from_secs_f64(left.min(SEGMENT_S));
        tally.merge(segment(Until::Deadline { at, every, meter: &meter })?);
        let took = calibration.burst();
        meter.exclude(took);
        outside += took;
    }
    let seconds = (start.elapsed() - outside).as_secs_f64();
    Ok(Phase { tally, seconds, window, metered: meter.finish()? })
}

/// What a workload's half of the run hands back.
#[derive(Debug, Default)]
struct Report {
    setups: Vec<f64>,
    /// Untimed requests (warm-up passes, the wire check) and their failures.
    untimed: (u64, u64),
    untraced: Phase,
    traced: Option<Phase>,
    /// Sheds the heads counted.
    shed: u64,
    counts: Option<Counts>,
    wire_check: Option<(u64, u64)>,
    /// Bursts timed before each set-up and after each timed segment.
    calibration: Calibration,
}

/// Pins what every head reads from the environment: a two-thread pool,
/// and the default queue, LRU, pipeline, idle and retry settings. The
/// environment is written once per process, before any run reads it.
fn configure_process() {
    static CONFIGURED: Once = Once::new();
    CONFIGURED.call_once(|| {
        std::env::set_var(exec::EXEC_THREADS_ENV, rig::POOL_THREADS.to_string());
        for knob in [
            "ATD_QUEUE_DEPTH",
            "ATD_CACHE_ENTRIES",
            "ATD_PIPELINE_DEPTH",
            "ATD_IDLE_TICKS",
            "ATD_STORE_DIR",
            "ATD_FARM_HEADS",
            "ATD_FARM_RETRIES",
        ] {
            std::env::remove_var(knob);
        }
    });
}

/// Runs `workload` once.
pub fn run(workload: Workload, opts: &Options) -> Result<Run, String> {
    configure_process();
    let dir = RunDir::create(workload.name())?;
    let mut tracer = opts.trace.then(Tracer::new);
    let report = match workload {
        Workload::FarmCampaign => farm_run(opts, &dir, tracer.as_mut())?,
        w => head_run(w, opts, &dir, tracer.as_mut())?,
    };
    let name = workload.name();
    let u = &report.untraced;
    println!(
        "{name} seed {}: {} jobs verified in {:.3} s ({:.1}/s), p50 {:.3} ms, p95 {:.3} ms, \
         {:.3} CPU ms/job; set-up median {:.4} s of {} (measured seconds)",
        opts.seed,
        u.tally.ok,
        u.seconds,
        u.jobs_per_s(),
        u.metered.latency.quantile(0.5),
        u.metered.latency.quantile(0.95),
        u.cpu_ms_per_job(),
        measure::median(&report.setups),
        report.setups.len(),
    );
    let c = &report.calibration;
    println!(
        "machine speed: {} calibration bursts, p10 {:.3} p25 {:.3} p50 {:.3} p75 {:.3} ms; \
         slowdown {:.4}, by which the result line divides every time",
        c.bursts(),
        c.burst_ms(0.1),
        c.burst_ms(0.25),
        c.burst_ms(0.5),
        c.burst_ms(0.75),
        c.slowdown(),
    );
    let rates = u.window_rates();
    println!(
        "{} windows of {} jobs; throughput min {:.1} max {:.1} /s",
        rates.len(),
        u.window,
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        rates.iter().copied().fold(0.0, f64::max),
    );
    let mut attempted = report.untimed.0 + u.tally.requests;
    let mut failed = report.untimed.1 + u.tally.failed;
    if let Some(traced) = &report.traced {
        attempted += traced.tally.requests;
        failed += traced.tally.failed;
    }
    let metrics = match (&tracer, &report.counts, &report.traced) {
        (Some(tracer), Some(counts), Some(traced)) => {
            attempted += counts.jobs;
            failed += counts.failed;
            print_guard(name, opts.seed, counts);
            let metrics = layer_metrics(tracer, counts, u, traced, report.shed);
            let path = rig::scratch_root().join(format!("spans-{name}-seed{}.tsv", opts.seed));
            tracer.write_tsv(&path).map_err(ctx("write spans"))?;
            println!("spans: {} ({} spans)", path.display(), tracer.spans().len());
            metrics
        }
        _ => end_to_end(&report)?,
    };
    if let Some((predicted, written)) = report.wire_check {
        println!(
            "wire check: the replay's frames predict {predicted} bytes for the working set; \
             the daemon connection carried {written}"
        );
    }
    let outcome = Outcome { attempted, failed, metrics };
    Ok(Run { outcome, counts: report.counts, wire_check: report.wire_check })
}

/// The end-to-end figures, every time in reference seconds.
fn end_to_end(r: &Report) -> Result<Vec<Metric>, String> {
    let u = &r.untraced;
    let slowdown = r.calibration.slowdown();
    let reference = |measured: f64| ratio(measured, slowdown);
    Ok(vec![
        Metric::new("jobs_per_s", u.jobs_per_s() * slowdown, "1/s"),
        Metric::new("latency_p50_ms", reference(u.metered.latency.quantile(0.5)), "ms"),
        Metric::new("latency_p95_ms", reference(u.metered.latency.quantile(0.95)), "ms"),
        Metric::new("cpu_ms_per_job", reference(u.cpu_ms_per_job()), "ms"),
        Metric::new("setup_s", reference(measure::median(&r.setups)), "s"),
        Metric::new("peak_rss_mb", measure::peak_rss_mb()?, "MB"),
    ])
}

/// `cold_campaign` and `warm_replay`: one head behind the TCP daemon.
fn head_run(
    w: Workload,
    opts: &Options,
    dir: &RunDir,
    mut tracer: Option<&mut Tracer>,
) -> Result<Report, String> {
    let seed = opts.seed;
    let warm = w == Workload::WarmReplay;
    // The warm working set and its references come first: the seeded
    // store holds them, beside the fixed history.
    let ws = if warm { gen::warm_working_set(seed) } else { Vec::new() };
    let refs = rig::references(&ws)?;
    let extra: Vec<(Vec<u8>, &[u8])> =
        ws.iter().zip(&refs).map(|(s, r)| (s.key_bytes(), r.as_slice())).collect();
    let seed_dir = dir.join("seed");
    rig::seed_store(&seed_dir, &rig::history()?, &extra)?;
    let warmup = gen::cold_warmup(seed);
    let conns = if warm { gen::WARM_CONNS } else { 1 };
    let setups = if opts.trace { 1 } else { SETUPS };

    let mut report = Report::default();
    let mut warmup_kept = Vec::new();
    let mut live = None;
    for rep in 0..setups {
        let rep_dir = dir.join(&format!("head-{rep}"));
        rig::copy_dir(&seed_dir, &rep_dir)?;
        report.calibration.burst();
        let start = Instant::now();
        let store = match tracer.as_deref_mut() {
            Some(t) => t.time("store.open", 0, 0, || rig::open_store(&rep_dir)).0,
            None => rig::open_store(&rep_dir),
        }?;
        let daemon = Daemon::boot(store)?;
        let mut clients = (0..conns).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
        let client = clients.first_mut().ok_or("no connection")?;
        let pass = if warm {
            let order = gen::warm_warmup_order();
            let next = |p: u64| {
                let i = order[p as usize];
                (i, ws[i])
            };
            let count = Until::Count(order.len() as u64);
            drive::connection(
                client,
                1,
                gen::WARM_DEPTH,
                count,
                &next,
                Check::Against(&refs),
                None,
            )?
        } else {
            let next = |p: u64| (p as usize, warmup[p as usize]);
            let count = Until::Count(warmup.len() as u64);
            drive::connection(client, 1, 1, count, &next, Check::Retain, None)?
        };
        report.setups.push(start.elapsed().as_secs_f64());
        let s = client.stats().map_err(ctx("read head counters"))?;
        println!(
            "set-up {rep}: {:.4} s; head after warm-up: computed {} lru {} store hits {} \
             misses {} rehydrated {}",
            report.setups[rep],
            replay::computed(&s),
            s.cache_hits,
            s.store_hits,
            s.store_misses,
            s.store_recovered
        );
        report.untimed.0 += pass.requests;
        report.untimed.1 += pass.failed;
        warmup_kept.extend(pass.kept);
        if rep + 1 < setups {
            drop(clients);
            daemon.stop()?;
            let _ = std::fs::remove_dir_all(&rep_dir);
        } else {
            live = Some((daemon, clients));
        }
    }
    let (daemon, mut clients) = live.ok_or("no set-up ran")?;

    let half = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    // Requests each connection has sent. Every segment, traced or not,
    // continues its connection's sequence, so cold specs stay unique.
    let mut sent = vec![0; conns];
    report.untraced = timed(w, half, &mut report.calibration, |until| {
        head_phase(w, seed, &mut clients, &mut sent, until, (&ws, &refs), None)
    })?;
    let mut carried = 0;
    if let Some(t) = tracer.as_deref_mut() {
        report.traced = Some(timed(w, half, &mut report.calibration, |until| {
            head_phase(w, seed, &mut clients, &mut sent, until, (&ws, &refs), Some(&mut *t))
        })?);
        let client = clients.first_mut().ok_or("no connection")?;
        for k in 0..PINGS {
            let (pong, _) = t.time("server.ping", 0, k, || client.ping(k));
            pong.map_err(ctx("ping"))?;
        }
        if warm {
            // Every working-set spec once, through a relay that counts
            // the bytes on the wire.
            let relay = Relay::start(daemon.addr())?;
            let mut client = PipelinedClient::connect(relay.addr()).map_err(ctx("connect"))?;
            let next = |p: u64| (p as usize, ws[p as usize]);
            let count = Until::Count(ws.len() as u64);
            let pass =
                drive::connection(&mut client, 1, 1, count, &next, Check::Against(&refs), None)?;
            drop(client);
            carried = relay.finish()?;
            report.untimed.0 += pass.requests;
            report.untimed.1 += pass.failed;
        }
    }
    drop(clients);
    report.shed = daemon.stop()?.shed;

    // The cold campaign's answers were kept; check them now.
    if !warm {
        let cold = |i: usize| gen::cold_spec(seed, i as u64);
        let bad = rig::mismatched(&report.untraced.tally.kept, cold)?;
        report.untraced.settle(bad);
        if let Some(traced) = report.traced.as_mut() {
            let bad = rig::mismatched(&traced.tally.kept, cold)?;
            traced.settle(bad);
        }
        report.untimed.1 += rig::mismatched(&warmup_kept, |j| warmup[j])?;
    }

    if let Some(t) = tracer {
        let (work, probe) = (dir.join("replay"), dir.join("probe"));
        let dirs = Dirs { seed: &seed_dir, work: &work, probe: &probe };
        let counts = replay::single(w, seed, w.replay_jobs(), &dirs, &ws, &refs, t)?;
        if warm {
            let predicted = counts.wire_bytes_by_index.values().sum();
            report.wire_check = Some((predicted, carried));
        }
        report.counts = Some(counts);
    }
    Ok(report)
}

/// One segment of a single-head workload's timed phase. Each connection
/// goes on from the request `sent` counts for it, and the count grows by
/// what it sends. The warm replay runs one thread per connection.
fn head_phase(
    w: Workload,
    seed: u64,
    clients: &mut [PipelinedClient],
    sent: &mut [u64],
    until: Until<'_>,
    (ws, refs): (&[JobSpec], &[Vec<u8>]),
    trace: Option<&mut Tracer>,
) -> Result<Tally, String> {
    if w != Workload::WarmReplay {
        let (client, sent) = clients.first_mut().zip(sent.first_mut()).ok_or("no connection")?;
        let first = *sent;
        let next = |p: u64| ((first + p) as usize, gen::cold_spec(seed, first + p));
        let tally = drive::connection(client, 1, 1, until, &next, Check::Retain, trace)?;
        *sent += tally.requests;
        return Ok(tally);
    }
    let traced = trace.is_some();
    let results: Vec<Result<(Tally, Option<Tracer>), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(sent.iter().copied())
            .enumerate()
            .map(|(c, (client, first))| {
                s.spawn(move || {
                    let mut local = traced.then(Tracer::new);
                    let next = |p: u64| {
                        let i = gen::warm_request(c, first + p);
                        (i, ws[i])
                    };
                    let session = c as u32 + 1;
                    let tally = drive::connection(
                        client,
                        session,
                        gen::WARM_DEPTH,
                        until,
                        &next,
                        Check::Against(refs),
                        local.as_mut(),
                    )?;
                    Ok((tally, local))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let mut tally = Tally::default();
    let mut trace = trace;
    for (result, sent) in results.into_iter().zip(sent.iter_mut()) {
        let (part, local) = result?;
        *sent += part.requests;
        tally.merge(part);
        if let (Some(t), Some(local)) = (trace.as_deref_mut(), local) {
            t.absorb(local);
        }
    }
    Ok(tally)
}

/// `farm_campaign`: the coordinator over three in-process heads.
fn farm_run(
    opts: &Options,
    dir: &RunDir,
    mut tracer: Option<&mut Tracer>,
) -> Result<Report, String> {
    let seed = opts.seed;
    let seed_dir = dir.join("seed");
    let history = rig::history()?;
    for head in 0..gen::FARM_HEADS {
        rig::seed_store(&seed_dir.join(format!("head-{head}")), &history, &[])?;
    }
    let warmup = gen::farm_warmup(seed);
    let setups = if opts.trace { 1 } else { SETUPS };

    let mut report = Report::default();
    let mut warmup_kept = Vec::new();
    let mut live = None;
    for rep in 0..setups {
        let rep_dir = dir.join(&format!("farm-{rep}"));
        rig::copy_dir(&seed_dir, &rep_dir)?;
        report.calibration.burst();
        let start = Instant::now();
        let mut farm =
            LocalFarm::in_proc_with_store(gen::FARM_HEADS, &rep_dir).map_err(ctx("boot farm"))?;
        for (j, spec) in warmup.iter().enumerate() {
            report.untimed.0 += 1;
            let answer = farm.submit(1, *spec).map_err(|e| e.to_string());
            match answer.and_then(|d| d.result.encoded().map_err(|e| e.to_string())) {
                Ok(bytes) => warmup_kept.push((j, rig::fingerprint(&bytes))),
                Err(_) => report.untimed.1 += 1,
            }
        }
        report.setups.push(start.elapsed().as_secs_f64());
        let f = farm.stats();
        println!(
            "set-up {rep}: {:.4} s; farm after warm-up: specs {} sub-specs {} rerouted {}",
            report.setups[rep], f.specs, f.sub_specs, f.rerouted
        );
        if rep + 1 < setups {
            let _ = farm.shutdown();
            drop(farm);
            let _ = std::fs::remove_dir_all(&rep_dir);
        } else {
            live = Some(farm);
        }
    }
    let mut farm = live.ok_or("no set-up ran")?;

    // The first answer to each fresh spec, and how many answers it had.
    let mut seen: BTreeMap<u64, (rig::Fingerprint, u64)> = BTreeMap::new();
    let half = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let w = Workload::FarmCampaign;
    // Requests sent: every segment, traced or not, goes on from there.
    let mut sent = 0;
    report.untraced = timed(w, half, &mut report.calibration, |until| {
        let tally = drive::farm(&mut farm, seed, sent, until, &mut seen, None)?;
        sent += tally.requests;
        Ok(tally)
    })?;
    if let Some(t) = tracer.as_deref_mut() {
        report.traced = Some(timed(w, half, &mut report.calibration, |until| {
            let tally = drive::farm(&mut farm, seed, sent, until, &mut seen, Some(&mut *t))?;
            sent += tally.requests;
            Ok(tally)
        })?);
    }
    report.shed = farm.head_stats().into_iter().flatten().map(|s| s.shed).sum();
    let _ = farm.shutdown();
    drop(farm);

    // Repeats were matched against the first answer as they came; check
    // every first answer against its reference now.
    let (kept, answers): (Vec<(usize, rig::Fingerprint)>, Vec<u64>) =
        seen.into_iter().map(|(f, (answer, n))| ((f as usize, answer), n)).unzip();
    let flags = rig::mismatch_flags(&kept, |f| gen::farm_fresh(seed, f as u64))?;
    let bad = flags.iter().zip(&answers).filter(|(wrong, _)| **wrong).map(|(_, n)| n).sum();
    report.untraced.settle(bad);
    report.untimed.1 += rig::mismatched(&warmup_kept, |j| warmup[j])?;

    if let Some(t) = tracer {
        let (work, probe) = (dir.join("replay"), dir.join("probe"));
        let dirs = Dirs { seed: &seed_dir, work: &work, probe: &probe };
        let jobs = Workload::FarmCampaign.replay_jobs();
        report.counts = Some(replay::farm(seed, jobs, &dirs, t)?);
    }
    Ok(report)
}

fn print_guard(name: &str, seed: u64, c: &Counts) {
    println!(
        "guard {name} seed {seed}: jobs {} computed {} cache {} (lru {} store {}) batched {} \
         store_misses {} rehydrated {} kernel_calls {} farm sub_specs {} reshards {} \
         retry_rounds {}",
        c.jobs,
        c.computed,
        c.lru_hits + c.store_hits,
        c.lru_hits,
        c.store_hits,
        c.batched,
        c.store_misses,
        c.rehydrated,
        c.kernel_calls,
        c.farm_sub_specs,
        c.farm_reshards,
        c.farm_retry_rounds
    );
}

/// The per-layer figures of a traced run.
fn layer_metrics(
    t: &Tracer,
    c: &Counts,
    untraced: &Phase,
    traced: &Phase,
    head_shed: u64,
) -> Vec<Metric> {
    let median_ns = |name: &str| measure::median(&t.durations_ns(name));
    let ms = |name: &str| median_ns(name) / 1e6;
    let us = |name: &str| median_ns(name) / 1e3;
    let mb_per_s = |name: &str| {
        let s = t.totals(name);
        ratio(s.bytes as f64 * 1e3, s.ns as f64)
    };
    let us_per_item = |name: &str| {
        let s = t.totals(name);
        ratio(s.ns as f64 / 1e3, s.items as f64)
    };
    let n = |v: u64| v as f64;
    let jobs = n(c.jobs);
    let head_jobs = n(c.computed + c.lru_hits + c.store_hits + c.batched);
    let (path_ns, kernel_ns) = t.path_ns("request", "kernels.");
    let layer_ms = ratio(n(path_ns) / 1e6, jobs);
    let e2e_ms = untraced.ms_per_job();
    let leftover = ratio(e2e_ms - layer_ms, e2e_ms);
    let overhead = 1.0 - ratio(traced.jobs_per_s(), untraced.jobs_per_s());
    let chunks = t.totals("stream.chunk");
    let farm_total: u64 = c.farm_head_submitted.iter().sum();
    let farm_max = c.farm_head_submitted.iter().copied().max().unwrap_or(0);
    let farm_hits =
        if c.farm_specs > 0 { ratio(n(c.lru_hits + c.store_hits), head_jobs) } else { 0.0 };
    println!(
        "attribution: layers {layer_ms:.4} ms/job vs end-to-end {e2e_ms:.4} ms/job, leftover \
         {:.1}%; kernels {:.1}% of layer time; trace overhead {:.1}%",
        leftover * 100.0,
        ratio(n(kernel_ns), n(path_ns)) * 100.0,
        overhead * 100.0
    );

    let mut m: Vec<Metric> = Kind::ALL
        .iter()
        .map(|&kind| {
            let name = format!("kernels.{}_ms", kind.name());
            Metric::new(&name, ms(replay::kernel_span(kind)), "ms")
        })
        .collect();
    m.extend([
        Metric::new("kernels.share", ratio(n(kernel_ns), n(path_ns)), "ratio"),
        Metric::new("codec.result_encode_mb_per_s", mb_per_s("codec.result_encode"), "MB/s"),
        Metric::new("codec.result_decode_mb_per_s", mb_per_s("codec.result_decode"), "MB/s"),
        Metric::new("codec.frame_encode_us", us_per_item("codec.frame_encode"), "us"),
        Metric::new("codec.frame_decode_us", us_per_item("codec.frame_decode"), "us"),
        Metric::new("codec.result_bytes", ratio(n(c.result_bytes), jobs), "B"),
        Metric::new("stream.chunk_us", us("stream.chunk"), "us"),
        Metric::new("stream.digest_mb_per_s", mb_per_s("stream.digest"), "MB/s"),
        Metric::new("stream.reassemble_us", us("stream.reassemble"), "us"),
        Metric::new("stream.chunks_per_result", ratio(n(chunks.items), n(chunks.count)), "count"),
        Metric::new("scheduler.admit_us", us("scheduler.admit"), "us"),
        Metric::new("scheduler.lru_hit_us", us("scheduler.lru_hit"), "us"),
        Metric::new("scheduler.store_hit_us", us("scheduler.store_hit"), "us"),
        Metric::new("scheduler.batched_us", us("scheduler.batched"), "us"),
        Metric::new("scheduler.computed_ms", ms("scheduler.computed"), "ms"),
        Metric::new("scheduler.lru_hit_ratio", ratio(n(c.lru_hits), head_jobs), "ratio"),
        Metric::new("scheduler.store_hit_ratio", ratio(n(c.store_hits), head_jobs), "ratio"),
        Metric::new("scheduler.batched_ratio", ratio(n(c.batched), head_jobs), "ratio"),
        Metric::new("scheduler.shed", n(c.shed + head_shed), "count"),
        Metric::new("store.open_ms", ms("store.open"), "ms"),
        Metric::new("store.records_rehydrated", n(c.rehydrated), "count"),
        Metric::new("store.get_us", us("store.get"), "us"),
        Metric::new("store.put_us", us("store.put"), "us"),
        Metric::new("store.bytes_written_per_job", ratio(n(c.store_bytes_written), jobs), "B"),
        Metric::new("store.evicted", n(c.store_evicted), "count"),
        Metric::new("server.ping_rtt_us", us("server.ping"), "us"),
        Metric::new("server.wire_bytes_per_job", ratio(n(c.wire_bytes), jobs), "B"),
        Metric::new("server.frames_per_job", ratio(n(c.frames), jobs), "count"),
        Metric::new("farm.plan_us", us("farm.plan"), "us"),
        Metric::new("farm.route_us", us("farm.route"), "us"),
        Metric::new("farm.merge_us", us("farm.merge"), "us"),
        Metric::new(
            "farm.sub_specs_per_spec",
            ratio(n(c.farm_sub_specs), n(c.farm_specs)),
            "count",
        ),
        Metric::new("farm.reshards", n(c.farm_reshards), "count"),
        Metric::new("farm.retry_rounds", n(c.farm_retry_rounds), "count"),
        Metric::new("farm.head_hit_ratio", farm_hits, "ratio"),
        Metric::new("farm.head_share_max", ratio(n(farm_max), n(farm_total)), "ratio"),
        Metric::new("guard.jobs", jobs, "count"),
        Metric::new("guard.computed", n(c.computed), "count"),
        Metric::new("guard.cache", n(c.lru_hits + c.store_hits), "count"),
        Metric::new("guard.batched", n(c.batched), "count"),
        Metric::new("guard.store_hits", n(c.store_hits), "count"),
        Metric::new("guard.store_misses", n(c.store_misses), "count"),
        Metric::new("guard.store_rehydrated", n(c.rehydrated), "count"),
        Metric::new("guard.kernel_calls", n(c.kernel_calls), "count"),
        Metric::new("guard.farm_sub_specs", n(c.farm_sub_specs), "count"),
        Metric::new("guard.farm_reshards", n(c.farm_reshards), "count"),
        Metric::new("guard.farm_retry_rounds", n(c.farm_retry_rounds), "count"),
        Metric::new("attribution.layer_ms_per_job", layer_ms, "ms"),
        Metric::new("attribution.e2e_ms_per_job", e2e_ms, "ms"),
        Metric::new("attribution.leftover_share", leftover, "ratio"),
        Metric::new("trace.overhead_share", overhead, "ratio"),
        Metric::new("trace.spans", n(t.spans().len() as u64), "count"),
    ]);
    m
}
