//! The traced run's layered replay.
//!
//! The head's work for each request is done here step by step, through
//! each layer's public functions, with a span around every call. For a
//! single head: the client encodes the request frame and the head decodes
//! it (`codec`), admits and drains it (`scheduler`, with `kernels` inside
//! a computed completion and the `store` inside a read-through), cuts and
//! digests the result stream (`stream`) and frames it (`codec`); the
//! client then decodes the frames (`codec`) and reassembles them
//! (`stream`). For the farm, spans wrap `Farm::submit`, the planner, the
//! router and the merger. Every step runs in process on one thread over a
//! fixed prefix of the workload's inputs, so the counts repeat exactly
//! for a given seed.
//!
//! A `kernels` span re-runs its spec through `atd::workload::execute`
//! right after the call that computed it, and is filed under that call:
//! the caller's self time is then its cost without the kernel.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

use atd::proto::msg;
use atd::stream::{chunk_result, Reassembler, StreamDigest};
use atd::wire::{self, FrameError, Reader};
use atd::{Admission, Completion, JobResult, JobSpec, Provenance, Request, Response, ServiceStats};
use exec::ExecPool;

use crate::drive::{self, LocalFarm};
use crate::gen::{self, Kind, Workload};
use crate::rig::{self, ctx};
use crate::trace::Tracer;

/// Results the store probes write and read back.
const STORE_PROBES: usize = 32;

/// The counters of one replay. For a given seed every one repeats exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests replayed.
    pub jobs: u64,
    /// Replayed requests that failed.
    pub failed: u64,
    /// Head completions that ran the kernels.
    pub computed: u64,
    /// Head completions served from the LRU.
    pub lru_hits: u64,
    /// Head completions served from the store.
    pub store_hits: u64,
    /// Head completions coalesced with an identical spec in one drain.
    pub batched: u64,
    /// Store lookups that missed.
    pub store_misses: u64,
    /// Records the head stores rehydrated at boot.
    pub rehydrated: u64,
    /// Kernel runs the replay re-timed: one per computed completion.
    pub kernel_calls: u64,
    /// Submissions shed at admission.
    pub shed: u64,
    /// THP/2 frames the replayed requests put on the wire, both ways.
    pub frames: u64,
    /// Bytes of those frames.
    pub wire_bytes: u64,
    /// Frame bytes, both ways, of one request for each input index the
    /// single-head replay served.
    pub wire_bytes_by_index: BTreeMap<usize, u64>,
    /// Canonical result bytes answered.
    pub result_bytes: u64,
    /// Bytes the replay added to the head stores.
    pub store_bytes_written: u64,
    /// Records the head stores evicted to respect their bound.
    pub store_evicted: u64,
    /// Specs the farm took.
    pub farm_specs: u64,
    /// Sub-specs it planned.
    pub farm_sub_specs: u64,
    /// Sub-specs it routed away from their home head.
    pub farm_reshards: u64,
    /// Extra submission rounds forced by head failures.
    pub farm_retry_rounds: u64,
    /// Sub-specs each head took.
    pub farm_head_submitted: Vec<u64>,
}

/// Where a replay keeps its files.
#[derive(Debug, Clone, Copy)]
pub struct Dirs<'a> {
    /// The seeded store(s) the head boots from; copied, never written.
    pub seed: &'a Path,
    /// The replay's own copy of the store(s).
    pub work: &'a Path,
    /// A scratch store for the put and get probes.
    pub probe: &'a Path,
}

/// The span name of a kernel run of `kind`.
pub fn kernel_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Shmoo => "kernels.shmoo",
        Kind::Wafer => "kernels.wafer",
        Kind::Eye => "kernels.eye",
        Kind::Bathtub => "kernels.bathtub",
    }
}

/// Completions the head computed, as its counters tell it.
pub fn computed(s: &ServiceStats) -> u64 {
    s.completed.saturating_sub(s.cache_hits + s.batched + s.store_hits)
}

fn add_head_deltas(c: &mut Counts, before: &ServiceStats, after: &ServiceStats) {
    c.computed += computed(after).saturating_sub(computed(before));
    c.lru_hits += after.cache_hits.saturating_sub(before.cache_hits);
    c.store_hits += after.store_hits.saturating_sub(before.store_hits);
    c.batched += after.batched.saturating_sub(before.batched);
    c.store_misses += after.store_misses.saturating_sub(before.store_misses);
    c.shed += after.shed.saturating_sub(before.shed);
}

/// One replayed request of a single-head workload.
#[derive(Debug)]
struct Req {
    id: u64,
    session: u32,
    index: usize,
    spec: JobSpec,
}

/// The replay's requests, grouped into drains: one per drain for the
/// depth-1 cold campaign, one from each connection in lock step for the
/// warm replay.
fn drains(w: Workload, seed: u64, jobs: u64, ws: &[JobSpec]) -> Vec<Vec<Req>> {
    if w != Workload::WarmReplay {
        return (0..jobs)
            .map(|p| {
                vec![Req { id: p, session: 1, index: p as usize, spec: gen::cold_spec(seed, p) }]
            })
            .collect();
    }
    let conns = gen::WARM_CONNS as u64;
    (0..jobs / conns)
        .map(|p| {
            (0..gen::WARM_CONNS)
                .map(|c| {
                    let index = gen::warm_request(c, p);
                    Req { id: p * conns + c as u64, session: c as u32 + 1, index, spec: ws[index] }
                })
                .collect()
        })
        .collect()
}

/// The single-head warm-up pass, in process: the same specs, grouped as
/// they travel over the wire.
fn warm_up(w: Workload, seed: u64, svc: &mut atd::Service, ws: &[JobSpec]) -> u64 {
    let groups: Vec<Vec<JobSpec>> = match w {
        Workload::WarmReplay => gen::warm_warmup_order()
            .chunks(gen::WARM_DEPTH)
            .map(|group| group.iter().map(|&i| ws[i]).collect())
            .collect(),
        _ => gen::cold_warmup(seed).into_iter().map(|s| vec![s]).collect(),
    };
    let mut failed = 0;
    for group in groups {
        if let Admission::Shed { .. } = svc.admit(1, &group) {
            failed += group.len() as u64;
            continue;
        }
        svc.drain_each(&mut |c| {
            if c.outcome.is_err() {
                failed += 1;
            }
        });
    }
    failed
}

/// Replays the first `jobs` requests of a single-head workload. `ws`
/// and `refs` are the warm working set and its references (empty for the
/// cold campaign, whose references are computed here).
pub fn single(
    w: Workload,
    seed: u64,
    jobs: u64,
    dirs: &Dirs<'_>,
    ws: &[JobSpec],
    refs: &[Vec<u8>],
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let drains = drains(w, seed, jobs, ws);
    let cold_refs = if w == Workload::WarmReplay {
        Vec::new()
    } else {
        rig::references(&drains.iter().flatten().map(|r| r.spec).collect::<Vec<_>>())?
    };
    let refs = if w == Workload::WarmReplay { refs } else { &cold_refs };

    rig::copy_dir(dirs.seed, dirs.work)?;
    let (store, _) = tracer.time("store.open", 0, 0, || rig::open_store(dirs.work));
    let store = store?;
    let mut counts = Counts { jobs, rehydrated: store.len() as u64, ..Counts::default() };
    let mut svc = rig::head_service(store);
    counts.failed += warm_up(w, seed, &mut svc, ws);
    let before = svc.stats();
    let disk_before = rig::dir_bytes(dirs.work);
    let pool = ExecPool::new(rig::POOL_THREADS);
    let mut probes = Vec::new();

    for drain in &drains {
        let first = drain.first().map_or(0, |r| r.id);
        let root = tracer.open("request", 0, first);
        let mut tickets: BTreeMap<u64, (&Req, u64)> = BTreeMap::new();
        for req in drain {
            let submit = Request::Submit { session: req.session, spec: req.spec };
            let (frame, span) =
                tracer.time("codec.frame_encode", root, req.id, || submit.to_frame2(req.id));
            let frame = frame.map_err(ctx("encode request frame"))?;
            tracer.annotate(span, frame.len(), 1);
            let request_bytes = frame.len() as u64;
            counts.frames += 1;
            counts.wire_bytes += request_bytes;
            let (request, span) = tracer.time("codec.frame_decode", root, req.id, || {
                let (header, payload) = wire::decode_frame2(&frame)?;
                Request::from_parts(header.msg_type, payload)
            });
            tracer.annotate(span, frame.len(), 1);
            let Request::Submit { session, spec } = request.map_err(ctx("decode request frame"))?
            else {
                return Err("a submit frame decoded as another request".to_string());
            };
            let (admission, _) =
                tracer.time("scheduler.admit", root, req.id, || svc.admit(session, &[spec]));
            match admission {
                Admission::Accepted(granted) => {
                    for ticket in granted {
                        tickets.insert(ticket, (req, request_bytes));
                    }
                }
                Admission::Shed { .. } => counts.failed += 1,
            }
        }

        let store_hits_before = svc.stats().store_hits;
        let drain_span = tracer.open("scheduler.drain", root, first);
        let mut landed: Vec<(Completion, Instant, Instant)> = Vec::new();
        let mut last = Instant::now();
        svc.drain_each(&mut |c| {
            let now = Instant::now();
            landed.push((c, last, now));
            last = now;
        });
        tracer.close(drain_span, Instant::now());
        // A drain's store hits are its slowest Cache completions. This is
        // exact whenever a drain's Cache completions are all one class,
        // which the lock-step drains make the normal case.
        let store_hits = svc.stats().store_hits.saturating_sub(store_hits_before);
        let mut cache: Vec<(usize, Duration)> = landed
            .iter()
            .enumerate()
            .filter(|(_, (c, _, _))| c.provenance == Provenance::Cache)
            .map(|(i, (_, began, ended))| (i, ended.saturating_duration_since(*began)))
            .collect();
        cache.sort_by_key(|&(_, gap)| std::cmp::Reverse(gap));
        let from_store: BTreeSet<usize> =
            cache.iter().take(store_hits as usize).map(|(i, _)| *i).collect();

        for (i, (completion, began, ended)) in landed.into_iter().enumerate() {
            let (req, request_bytes) =
                *tickets.get(&completion.ticket).ok_or("a completion for no request")?;
            let class = match completion.provenance {
                Provenance::Computed => "scheduler.computed",
                Provenance::Batched => "scheduler.batched",
                Provenance::Cache if from_store.contains(&i) => "scheduler.store_hit",
                Provenance::Cache => "scheduler.lru_hit",
            };
            let done = tracer.record(class, drain_span, req.id, began, ended);
            let Ok(result) = completion.outcome else {
                counts.failed += 1;
                continue;
            };
            if completion.provenance == Provenance::Computed {
                let kind = Kind::of(&req.spec);
                let (rerun, _) = tracer.time(kernel_span(kind), done, req.id, || {
                    atd::workload::execute(&req.spec, &pool)
                });
                rerun.map_err(ctx("re-run kernel"))?;
                counts.kernel_calls += 1;
            }
            let wire_before = counts.wire_bytes;
            let bytes = stream_round_trip(
                tracer,
                root,
                req.id,
                (completion.ticket, completion.provenance),
                &result,
                &mut counts,
            )?;
            let wire = request_bytes + counts.wire_bytes - wire_before;
            counts.wire_bytes_by_index.insert(req.index, wire);
            if refs.get(req.index) != Some(&bytes) {
                counts.failed += 1;
            }
            counts.result_bytes += bytes.len() as u64;
            codec_probes(tracer, req.id, &result, &bytes)?;
            if probes.len() < STORE_PROBES {
                probes.push((req.spec.key_bytes(), bytes));
            }
        }
        tracer.close(root, Instant::now());
    }

    let after = svc.stats();
    add_head_deltas(&mut counts, &before, &after);
    let expected_live = counts.rehydrated + computed(&after);
    drop(svc);
    counts.store_bytes_written = rig::dir_bytes(dirs.work).saturating_sub(disk_before);
    let live = rig::open_store(dirs.work)?.len() as u64;
    counts.store_evicted = expected_live.saturating_sub(live);
    store_probes(tracer, dirs.probe, &probes)?;
    Ok(counts)
}

/// The daemon's result stream (chunk, digest, frame) and the client's
/// (decode, reassemble, verify), each as its own span. Returns the
/// reassembled bytes. The daemon's half mirrors the private
/// `atd::server::push_stream`; a traced `warm_replay` checks that its
/// frames add up to the bytes the daemon really sends.
fn stream_round_trip(
    tracer: &mut Tracer,
    parent: u32,
    req: u64,
    (ticket, provenance): (u64, Provenance),
    result: &JobResult,
    counts: &mut Counts,
) -> Result<Vec<u8>, String> {
    let (chunks, span) = tracer.time("stream.chunk", parent, req, || chunk_result(result));
    let chunks = chunks.map_err(ctx("chunk result"))?;
    let total: usize = chunks.iter().map(Vec::len).sum();
    tracer.annotate(span, total, chunks.len());
    let (digest, span) = tracer.time("stream.digest", parent, req, || {
        let mut digest = StreamDigest::new();
        for chunk in &chunks {
            digest.absorb(chunk);
        }
        digest.finish()
    });
    tracer.annotate(span, total, chunks.len());
    let summary = Response::Summary {
        ticket,
        provenance,
        chunks: u32::try_from(chunks.len()).unwrap_or(u32::MAX),
        total_bytes: total as u64,
        digest,
    };
    let (out, span) = tracer.time("codec.frame_encode", parent, req, || {
        let mut out = Vec::new();
        for (seq, chunk) in (0u32..).zip(&chunks) {
            let parts: [&[u8]; 2] = [&seq.to_be_bytes(), chunk];
            wire::encode_frame2_into(&mut out, msg::CHUNK, wire::flag::CHUNK, req, &parts)?;
        }
        out.extend_from_slice(&summary.to_frame2(req)?);
        Ok::<_, FrameError>(out)
    });
    let out = out.map_err(ctx("encode result frames"))?;
    let frames = chunks.len() + 1;
    tracer.annotate(span, out.len(), frames);
    counts.frames += frames as u64;
    counts.wire_bytes += out.len() as u64;

    let (parsed, span) = tracer.time("codec.frame_decode", parent, req, || split_frames(&out));
    let (pieces, (count, total_bytes, digest)) = parsed.map_err(ctx("decode result frames"))?;
    tracer.annotate(span, out.len(), frames);
    let (reassembled, _) = tracer.time("stream.reassemble", parent, req, || {
        let mut asm = Reassembler::new();
        for (seq, bytes) in &pieces {
            asm.push(*seq, bytes)?;
        }
        asm.finish(count, total_bytes, digest)
    });
    reassembled.map_err(ctx("reassemble result"))?;
    Ok(pieces.iter().flat_map(|(_, bytes)| bytes.iter().copied()).collect())
}

/// Cuts a result's frames into chunk slices and the summary's
/// (chunks, bytes, digest).
#[allow(clippy::type_complexity)]
fn split_frames(mut buf: &[u8]) -> Result<(Vec<(u32, &[u8])>, (u32, u64, u64)), FrameError> {
    let mut pieces = Vec::new();
    loop {
        let header = wire::decode_header2(buf)?;
        let end = wire::HEADER2_LEN + header.payload_len;
        let payload = buf
            .get(wire::HEADER2_LEN..end)
            .ok_or(FrameError::Truncated { needed: end, have: buf.len() })?;
        buf = buf.get(end..).unwrap_or(&[]);
        if header.msg_type == msg::CHUNK {
            let mut r = Reader::new(payload);
            let seq = r.u32()?;
            pieces.push((seq, r.take_rest()));
            continue;
        }
        return match Response::from_parts(header.msg_type, payload)? {
            Response::Summary { chunks, total_bytes, digest, .. } => {
                Ok((pieces, (chunks, total_bytes, digest)))
            }
            _ => Err(FrameError::BadPayload { context: "expected a summary frame" }),
        };
    }
}

/// Whole-result encode and decode, timed off the request path.
fn codec_probes(
    tracer: &mut Tracer,
    req: u64,
    result: &JobResult,
    bytes: &[u8],
) -> Result<(), String> {
    let (encoded, span) = tracer.time("codec.result_encode", 0, req, || result.encoded());
    let encoded = encoded.map_err(ctx("encode result"))?;
    tracer.annotate(span, encoded.len(), 1);
    let (decoded, span) =
        tracer.time("codec.result_decode", 0, req, || JobResult::decode(&mut Reader::new(bytes)));
    decoded.map_err(ctx("decode result"))?;
    tracer.annotate(span, bytes.len(), 1);
    if encoded != bytes {
        return Err("a result re-encoded to different bytes".to_string());
    }
    Ok(())
}

/// `Store::put` and `Store::get` at the workload's key and payload sizes,
/// on a scratch store.
fn store_probes(
    tracer: &mut Tracer,
    dir: &Path,
    records: &[(Vec<u8>, Vec<u8>)],
) -> Result<(), String> {
    let mut store = rig::open_store(dir)?;
    for (key, payload) in records {
        let (put, span) = tracer.time("store.put", 0, 0, || store.put(key, payload));
        put.map_err(ctx("store probe put"))?;
        tracer.annotate(span, payload.len(), 1);
    }
    for (key, payload) in records {
        let (got, span) = tracer.time("store.get", 0, 0, || store.get(key));
        if got.map_err(ctx("store probe get"))?.as_ref() != Some(payload) {
            return Err("a store probe read back different bytes".to_string());
        }
        tracer.annotate(span, payload.len(), 1);
    }
    Ok(())
}

fn head_stats(farm: &mut LocalFarm) -> Result<Vec<ServiceStats>, String> {
    farm.head_stats().into_iter().map(|s| s.map_err(|e| format!("head counters: {e}"))).collect()
}

/// Replays the first `jobs` requests of the farm campaign, kills and
/// readmits included.
pub fn farm(seed: u64, jobs: u64, dirs: &Dirs<'_>, tracer: &mut Tracer) -> Result<Counts, String> {
    let fresh: Vec<u64> =
        (0..jobs).map(gen::farm_request).collect::<BTreeSet<_>>().into_iter().collect();
    let specs: Vec<JobSpec> = fresh.iter().map(|&f| gen::farm_fresh(seed, f)).collect();
    let refs: BTreeMap<u64, Vec<u8>> = fresh.into_iter().zip(rig::references(&specs)?).collect();

    rig::copy_dir(dirs.seed, dirs.work)?;
    let mut counts = Counts { jobs, ..Counts::default() };
    let mut rehydrated = Vec::new();
    for head in 0..gen::FARM_HEADS {
        let dir = dirs.work.join(format!("head-{head}"));
        let (store, _) = tracer.time("store.open", 0, 0, || rig::open_store(&dir));
        rehydrated.push(store?.len() as u64);
    }
    counts.rehydrated = rehydrated.iter().sum();
    let mut farm =
        LocalFarm::in_proc_with_store(gen::FARM_HEADS, dirs.work).map_err(ctx("boot farm"))?;
    for spec in gen::farm_warmup(seed) {
        if farm.submit(1, spec).is_err() {
            counts.failed += 1;
        }
    }
    let farm_before = farm.stats().clone();
    let heads_before = head_stats(&mut farm)?;
    let disk_before = rig::dir_bytes(dirs.work);
    let pool = ExecPool::new(rig::POOL_THREADS);
    let mut bands: BTreeMap<Vec<u8>, JobResult> = BTreeMap::new();
    let mut probes = Vec::new();

    for i in 0..jobs {
        drive::fleet_event(&mut farm, i);
        let f = gen::farm_request(i);
        let spec = gen::farm_fresh(seed, f);
        let before = head_stats(&mut farm)?;
        let root = tracer.open("request", 0, i);
        let submit = tracer.open("farm.submit", root, i);
        let answer = farm.submit(1, spec);
        tracer.close(submit, Instant::now());
        let after = head_stats(&mut farm)?;

        let (subs, _) =
            tracer.time("farm.plan", submit, i, || atd_farm::plan(&spec, gen::FARM_HEADS));
        let subs = subs.map_err(ctx("plan"))?;
        let mut homes = Vec::with_capacity(subs.len());
        for sub in &subs {
            let (home, _) = tracer.time("farm.route", submit, i, || farm.route(sub));
            homes.push(home);
        }
        // A head computed as many of the bands routed to it, in plan
        // order, as its computed count grew by.
        let mut owed: Vec<u64> = before
            .iter()
            .zip(&after)
            .map(|(b, a)| computed(a).saturating_sub(computed(b)))
            .collect();
        for (sub, home) in subs.iter().zip(&homes) {
            let charged = home.and_then(|h| owed.get_mut(h)).is_some_and(|n| {
                let due = *n > 0;
                *n = n.saturating_sub(1);
                due
            });
            let key = sub.key_bytes();
            if charged {
                let (band, _) = tracer.time(kernel_span(Kind::of(sub)), submit, i, || {
                    atd::workload::execute(sub, &pool)
                });
                bands.insert(key, band.map_err(ctx("re-run kernel"))?);
                counts.kernel_calls += 1;
            } else if let Entry::Vacant(slot) = bands.entry(key) {
                slot.insert(atd::workload::execute(sub, &pool).map_err(ctx("re-run band"))?);
            }
        }
        let parts: Vec<JobResult> =
            subs.iter().filter_map(|s| bands.get(&s.key_bytes()).cloned()).collect();
        let (merged, _) = tracer.time("farm.merge", submit, i, || atd_farm::merge(&spec, &parts));
        tracer.close(root, Instant::now());
        let merged = merged.map_err(ctx("merge"))?.encoded().map_err(ctx("encode merge"))?;

        let Ok(done) = answer else {
            counts.failed += 1;
            continue;
        };
        let bytes = done.result.encoded().map_err(ctx("encode farm answer"))?;
        if refs.get(&f) != Some(&bytes) || merged != bytes {
            counts.failed += 1;
        }
        counts.result_bytes += bytes.len() as u64;
        codec_probes(tracer, i, &done.result, &bytes)?;
        if probes.len() < STORE_PROBES {
            probes.push((spec.key_bytes(), bytes));
        }
    }

    let farm_after = farm.stats().clone();
    let heads_after = head_stats(&mut farm)?;
    for (before, after) in heads_before.iter().zip(&heads_after) {
        add_head_deltas(&mut counts, before, after);
    }
    counts.farm_specs = farm_after.specs - farm_before.specs;
    counts.farm_sub_specs = farm_after.sub_specs - farm_before.sub_specs;
    counts.farm_reshards = farm_after.rerouted - farm_before.rerouted;
    counts.farm_retry_rounds = farm_after.retry_rounds - farm_before.retry_rounds;
    counts.farm_head_submitted = farm_after
        .per_head
        .iter()
        .zip(&farm_before.per_head)
        .map(|(a, b)| a.submitted - b.submitted)
        .collect();
    let expected_live: Vec<u64> =
        rehydrated.iter().zip(&heads_after).map(|(r, s)| r + computed(s)).collect();
    let _ = farm.shutdown();
    drop(farm);
    counts.store_bytes_written = rig::dir_bytes(dirs.work).saturating_sub(disk_before);
    for (head, want) in expected_live.iter().enumerate() {
        let live = rig::open_store(&dirs.work.join(format!("head-{head}")))?.len() as u64;
        counts.store_evicted += want.saturating_sub(live);
    }
    store_probes(tracer, dirs.probe, &probes)?;
    Ok(counts)
}
