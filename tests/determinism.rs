//! Cross-layer determinism guarantees of the seed-tree refactor.
//!
//! Every stochastic model in the stack draws from a named substream of one
//! master seed, so a run is a pure function of its inputs: same seed in, the
//! same bits out — across the ATE facade, the optical testbed, and the
//! mini-tester wafer flow. These tests pin that contract end to end.

use ate::{SystemKind, TestProgram, TestSystem};
use exec::PoolJob;
use minitester::multisite::WaferRunConfig;
use pstime::DataRate;
use testbed::e2e::{self, E2eConfig};

/// Same seed, same program, same system kind: the full `ProgramResult` is
/// bit-identical — the rendered analog waveform, the driven pattern, and the
/// measured eye opening.
#[test]
fn program_results_are_bit_identical_for_equal_seeds() {
    let program = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 2_048);
    let build = |kind: SystemKind| match kind {
        SystemKind::OpticalTestbed => TestSystem::optical_testbed(),
        SystemKind::MiniTester => TestSystem::mini_tester(),
    };
    for kind in [SystemKind::OpticalTestbed, SystemKind::MiniTester] {
        for seed in [0u64, 3, 0xDEAD_BEEF] {
            let a = build(kind).unwrap().run(&program, seed).unwrap();
            let b = build(kind).unwrap().run(&program, seed).unwrap();
            assert_eq!(a.waveform, b.waveform, "{kind:?} seed={seed}");
            assert_eq!(a.driven_bits, b.driven_bits, "{kind:?} seed={seed}");
            assert_eq!(
                a.eye.opening_ui().value().to_bits(),
                b.eye.opening_ui().value().to_bits(),
                "{kind:?} seed={seed}"
            );
        }
    }
}

/// Different master seeds draw a different jitter realization, so the
/// rendered waveforms differ (while the driven pattern — program content,
/// not noise — stays fixed).
#[test]
fn different_seeds_change_the_noise_but_not_the_pattern() {
    let program = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 2_048);
    let mut system = TestSystem::optical_testbed().unwrap();
    let a = system.run(&program, 1).unwrap();
    let b = system.run(&program, 2).unwrap();
    assert_eq!(a.driven_bits, b.driven_bits, "pattern memory must not depend on the run seed");
    assert_ne!(a.waveform, b.waveform, "distinct seeds must yield distinct jitter realizations");
}

/// The testbed's packet path — framing, PECL transmit, optical link, fabric,
/// receive — reproduces the same report for the same seed, and both e2e
/// entry points are individually deterministic.
#[test]
fn testbed_e2e_reports_are_reproducible() {
    let config = E2eConfig { packets: 12, seed: 41, ..E2eConfig::default() };
    assert_eq!(e2e::run(&config).unwrap(), e2e::run(&config).unwrap());
    assert_eq!(e2e::run_stream(&config).unwrap(), e2e::run_stream(&config).unwrap());

    let other = E2eConfig { seed: 42, ..config };
    // The seed reaches the payload generator, so distinct seeds offer
    // distinct traffic (same volume, though).
    let a = e2e::run(&config).unwrap();
    let b = e2e::run(&other).unwrap();
    assert_eq!(a.sent, b.sent);
}

/// The multisite wafer flow — defect injection, per-die BIST, margin scans —
/// bins every die identically given the same seed, and reshuffles defects
/// under a different one.
#[test]
fn wafer_runs_are_reproducible() {
    let config = WaferRunConfig { seed: 7, ..WaferRunConfig::default() };
    let pool = exec::ExecPool::from_env();
    let a = config.run_on(&pool).unwrap();
    let b = config.run_on(&pool).unwrap();
    assert_eq!(a, b);

    let c = WaferRunConfig { seed: 8, ..config }.run_on(&pool).unwrap();
    assert_eq!(c.touchdowns(), a.touchdowns(), "wafer geometry is seed-independent");
    assert_ne!(a.records(), c.records(), "distinct seeds must draw a distinct defect population");
}

/// Thread-count invariance across every exec-powered sweep: shmoo grids,
/// wafer runs, and eye scans produce byte-identical outputs on pools of 1,
/// 2, and 8 workers. Parallelism decides who computes a slot, never what
/// lands in it.
#[test]
fn sweeps_are_thread_count_invariant() {
    use exec::ExecPool;
    use minitester::{EtCapture, EyeScanJob, MiniTesterDatapath, ShmooConfig, ShmooJob};

    let rate = DataRate::from_gbps(2.5);
    let mut path = MiniTesterDatapath::new().unwrap();
    let pattern = path.prbs_pattern(rate, 512).unwrap();
    let wave = path.render(&pattern, 17).unwrap();

    // Three workers split a 40-phase eye band unevenly.
    let pools = [ExecPool::new(1), ExecPool::new(2), ExecPool::new(3), ExecPool::new(8)];

    let (wave, expected) = (&wave, pattern.bits());
    let shmoo = ShmooJob { wave, rate, expected, config: ShmooConfig::pecl(), seed: 3 };
    let shmoos: Vec<_> = pools.iter().map(|p| shmoo.run_on(p).unwrap()).collect();
    assert_eq!(shmoos[0], shmoos[1], "shmoo differs between 1 and 2 threads");
    assert_eq!(shmoos[0], shmoos[2], "shmoo differs between 1 and 3 threads");
    assert_eq!(shmoos[0], shmoos[3], "shmoo differs between 1 and 8 threads");
    assert_eq!(shmoos[0].to_string(), shmoos[3].to_string());

    let wafer_config = WaferRunConfig {
        dies: 12,
        columns: 4,
        sites: 4,
        test_bits: 256,
        seed: 7,
        ..WaferRunConfig::default()
    };
    let wafers: Vec<_> = pools.iter().map(|p| wafer_config.run_on(p).unwrap()).collect();
    assert_eq!(wafers[0], wafers[1], "wafer differs between 1 and 2 threads");
    assert_eq!(wafers[0], wafers[2], "wafer differs between 1 and 3 threads");
    assert_eq!(wafers[0], wafers[3], "wafer differs between 1 and 8 threads");
    assert_eq!(wafers[0].to_string(), wafers[3].to_string());

    let capture = EtCapture::new();
    let eye = EyeScanJob { capture: &capture, wave, rate, expected, seed: 5 };
    let eyes: Vec<_> = pools.iter().map(|p| eye.run_on(p).unwrap()).collect();
    assert_eq!(eyes[0], eyes[1], "eye scan differs between 1 and 2 threads");
    assert_eq!(eyes[0], eyes[2], "eye scan differs between 1 and 3 threads");
    assert_eq!(eyes[0], eyes[3], "eye scan differs between 1 and 8 threads");
    assert_eq!(eyes[0].to_string(), eyes[3].to_string());
}

/// Substreams honor domain separation at the application layer: the streams
/// the refactor named for unrelated subsystems never collide, and sibling
/// channel streams are pairwise decorrelated.
#[test]
fn application_streams_are_domain_separated() {
    use rng::SeedTree;

    let master = 0x5EED;
    let tree = SeedTree::new(master);
    let seeds = [
        tree.derive(signal::jitter::RJ_STREAM).seed(),
        tree.derive(pecl::sampler::SAMPLER_STREAM).seed(),
        tree.derive(vortex::traffic::TRAFFIC_STREAM).seed(),
        tree.derive(testbed::optics::RX_NOISE_STREAM).seed(),
        tree.derive(ate::PRBS_LANE_STREAM).seed(),
    ];
    for (i, a) in seeds.iter().enumerate() {
        for b in &seeds[i + 1..] {
            assert_ne!(a, b, "named streams must never alias");
        }
    }

    // Sibling channels of one stream stay decorrelated: correlate the first
    // bit of many channel seeds against the next channel's.
    let lanes = tree.derive(ate::PRBS_LANE_STREAM);
    let mut agree = 0u32;
    const PAIRS: u32 = 4_096;
    for ch in 0..PAIRS {
        let x = lanes.channel(u64::from(ch)).seed() & 1;
        let y = lanes.channel(u64::from(ch) + 1).seed() & 1;
        agree += u32::from(x == y);
    }
    let ratio = f64::from(agree) / f64::from(PAIRS);
    assert!((ratio - 0.5).abs() < 0.05, "channel seeds correlated: agree ratio {ratio}");
}

/// The service layer preserves the determinism contract end to end: a
/// shmoo submitted through the loopback (encode → decode → schedule →
/// execute → chunk → reassemble → decode) is byte-identical to the same
/// shmoo run directly on a pool, and the round trip itself is invariant
/// to the daemon's worker count.
#[test]
fn loopback_submitted_shmoo_matches_direct_run_at_any_thread_count() {
    use atd::scheduler::Scheduler;
    use atd::{Client, Event, JobResult, JobSpec, Loopback, Provenance, Service};
    use exec::ExecPool;
    use minitester::{MiniTesterDatapath, ShmooConfig, ShmooJob};

    let rate = DataRate::from_gbps(2.5);
    let config = ShmooConfig::pecl();
    let spec = JobSpec::shmoo(rate, 256, 17, &config, 5);

    // Direct run, no service in the path.
    let mut path = MiniTesterDatapath::new().unwrap();
    let pattern = path.prbs_pattern(rate, 256).unwrap();
    let wave = path.render(&pattern, 17).unwrap();
    let pool = ExecPool::new(2);
    let (wave, expected) = (&wave, pattern.bits());
    let plot = ShmooJob { wave, rate, expected, config, seed: 5 }.run_on(&pool).unwrap();
    let direct = JobResult::from_shmoo(&plot).unwrap().encoded().unwrap();

    // The same spec through the wire protocol, on daemons of width 1 and 4.
    let mut submitted = Vec::new();
    for threads in [1, 4] {
        let service = Service::new(ExecPool::new(threads), Scheduler::new(8, 8));
        let mut client = Client::new(Loopback::new(service));
        let done = client.submit(1, spec).unwrap();
        let Event::Done { provenance, result, .. } = done else {
            panic!("expected Done, got {done:?}");
        };
        assert_eq!(provenance, Provenance::Computed);
        submitted.push(result.encoded().unwrap());
    }

    assert_eq!(submitted[0], direct, "1-thread daemon differs from the direct run");
    assert_eq!(submitted[1], direct, "4-thread daemon differs from the direct run");
    let mut reader = atd::wire::Reader::new(&submitted[0]);
    let decoded = JobResult::decode(&mut reader).unwrap();
    assert_eq!(plot.to_string(), decoded.rendered(), "rendered plot must survive the wire");
}

/// Sharding a campaign across a farm changes who computes what, never the
/// bytes: for every composite workload — shmoo grid, wafer run, eye scan —
/// a farm of 1, 2, or 4 heads merges to a result byte-identical to one
/// head running the spec whole, rendered text included, and a hot
/// resubmission is served entirely from the heads' caches.
#[test]
fn farm_merges_are_byte_identical_to_a_single_head_at_any_fleet_size() {
    use atd::{JobSpec, Provenance};
    use atd_farm::Farm;
    use minitester::{ShmooConfig, WaferRunConfig};

    let rate = DataRate::from_gbps(2.5);
    let specs = [
        JobSpec::shmoo(rate, 256, 17, &ShmooConfig::pecl(), 5),
        JobSpec::wafer(&WaferRunConfig {
            dies: 12,
            columns: 4,
            sites: 4,
            test_bits: 256,
            seed: 7,
            ..WaferRunConfig::default()
        }),
        JobSpec::eye(rate, 256, 17, 5),
    ];

    for spec in specs {
        let mut single = Farm::in_proc(1).unwrap();
        let baseline = single.submit(1, spec).unwrap();
        assert_eq!(baseline.shards, 1, "a one-head farm must pass the spec through");
        let reference = baseline.result.encoded().unwrap();

        for heads in [2usize, 4] {
            let mut farm = Farm::in_proc(heads).unwrap();
            let merged = farm.submit(1, spec).unwrap();
            assert!(merged.shards > 1, "{} must shard on {heads} heads", spec.kind());
            assert_eq!(
                merged.result.encoded().unwrap(),
                reference,
                "{} differs between 1 and {heads} heads",
                spec.kind()
            );
            assert_eq!(merged.result.rendered(), baseline.result.rendered());

            let again = farm.submit(1, spec).unwrap();
            assert_eq!(again.result.encoded().unwrap(), reference);
            assert_eq!(
                again.provenance,
                Provenance::Cache,
                "{} resubmission must be cache-served on every head",
                spec.kind()
            );
        }
    }
}

/// The durable store is invisible in the bytes: a store-backed daemon
/// serves a mixed campaign byte-identical to an in-memory daemon on 1-
/// and 4-thread pools — and stays identical when the store-backed daemon
/// is killed mid-campaign and a fresh one reboots over the same
/// directory, with the finished half then replayed straight off the
/// rehydrated store — also when the kill tore a record half-way through
/// the newest segment's tail.
#[test]
fn store_backed_daemon_matches_in_memory_across_a_kill_and_restart() {
    use atd::scheduler::Scheduler;
    use atd::store::record::RECORD_MAGIC;
    use atd::store::{Store, StoreConfig};
    use atd::{Client, Event, JobSpec, Loopback, Provenance, Service};
    use exec::ExecPool;
    use minitester::{ShmooConfig, WaferRunConfig};
    use pstime::Duration;
    use std::io::Write;

    let rate = DataRate::from_gbps(2.5);
    let campaign = [
        JobSpec::shmoo(rate, 256, 17, &ShmooConfig::pecl(), 3),
        JobSpec::wafer(&WaferRunConfig {
            dies: 8,
            columns: 4,
            sites: 2,
            test_bits: 256,
            seed: 7,
            ..WaferRunConfig::default()
        }),
        JobSpec::eye(rate, 256, 17, 3),
        JobSpec::bathtub(Duration::from_ps(3), Duration::from_ps(20), rate, 0.5, 101),
    ];

    fn submit(client: &mut Client<Loopback>, spec: JobSpec) -> (Provenance, Vec<u8>) {
        match client.submit(1, spec).unwrap() {
            Event::Done { provenance, result, .. } => (provenance, result.encoded().unwrap()),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    let durable_daemon = |dir: &std::path::Path, threads: usize| {
        let store = Store::open(StoreConfig::new(dir)).unwrap();
        let scheduler = Scheduler::new(8, 64).with_store(store);
        Client::new(Loopback::new(Service::new(ExecPool::new(threads), scheduler)))
    };

    for threads in [1usize, 4] {
        // In-memory reference bytes.
        let service = Service::new(ExecPool::new(threads), Scheduler::new(8, 64));
        let mut memory = Client::new(Loopback::new(service));
        let reference: Vec<Vec<u8>> =
            campaign.iter().map(|spec| submit(&mut memory, *spec).1).collect();

        // A store-backed daemon, campaign uninterrupted.
        let dir = std::env::temp_dir()
            .join(format!("atd-determinism-store-{}-t{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = durable_daemon(&dir, threads);
        let whole: Vec<Vec<u8>> =
            campaign.iter().map(|spec| submit(&mut durable, *spec).1).collect();
        assert_eq!(
            whole, reference,
            "the store must be invisible in the bytes ({threads} threads)"
        );
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);

        // Killed after two specs, restarted over the same directory; the
        // torn case first appends a record cut off inside its header, the
        // tail a crash mid-`put` leaves, which the reboot must recover past
        // with both finished records intact.
        for torn in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "atd-determinism-restart-{}-t{threads}-torn{torn}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut durable = durable_daemon(&dir, threads);
            let mut observed: Vec<Vec<u8>> =
                campaign[..2].iter().map(|spec| submit(&mut durable, *spec).1).collect();
            drop(durable); // the kill
            if torn {
                let mut segments: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|entry| entry.unwrap().path())
                    .filter(|path| path.extension().is_some_and(|ext| ext == "atds"))
                    .collect();
                segments.sort();
                let newest = segments.last().expect("the kill left a segment");
                let mut file = std::fs::OpenOptions::new().append(true).open(newest).unwrap();
                file.write_all(&[&RECORD_MAGIC[..], &[0; 3]].concat()).unwrap();
            }
            let mut durable = durable_daemon(&dir, threads);
            observed.extend(campaign[2..].iter().map(|spec| submit(&mut durable, *spec).1));
            assert_eq!(
                observed, reference,
                "a kill/restart mid-campaign must not change a byte ({threads} threads, torn {torn})"
            );

            // The half finished before the kill replays off the rehydrated
            // store: cache provenance, identical bytes, no recompute.
            for (spec, want) in campaign[..2].iter().zip(&reference) {
                let (provenance, bytes) = submit(&mut durable, *spec);
                assert_eq!(provenance, Provenance::Cache, "{} must be store-served", spec.kind());
                assert_eq!(&bytes, want);
            }
            assert_eq!(durable.stats().unwrap().store_recovered, 2, "torn {torn}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The loopback runs the daemon's own request path: a shmoo submitted
/// through `Client<Loopback>` streams the same chunks, with the same
/// verified digest, as over TCP to event-loop daemons backed by 1-thread
/// and 4-thread pools — and their concatenation is byte-identical to the
/// direct pool run.
#[test]
fn loopback_chunk_stream_matches_tcp_at_any_thread_count() {
    use atd::scheduler::Scheduler;
    use atd::{
        serve_with, Client, Event, JobResult, JobSpec, Loopback, PipelinedClient, ServerConfig,
        Service,
    };
    use exec::ExecPool;
    use minitester::{MiniTesterDatapath, ShmooConfig, ShmooJob};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    let rate = DataRate::from_gbps(2.5);
    let config = ShmooConfig::pecl();
    let spec = JobSpec::shmoo(rate, 256, 17, &config, 5);

    // Direct run, no service in the path.
    let mut path = MiniTesterDatapath::new().unwrap();
    let pattern = path.prbs_pattern(rate, 256).unwrap();
    let wave = path.render(&pattern, 17).unwrap();
    let pool = ExecPool::new(2);
    let (wave, expected) = (&wave, pattern.bits());
    let plot = ShmooJob { wave, rate, expected, config, seed: 5 }.run_on(&pool).unwrap();
    let direct = JobResult::from_shmoo(&plot).unwrap().encoded().unwrap();

    /// Submits `spec` and collects its chunks, in order, plus the
    /// verified stream digest.
    fn stream<L: Read + Write>(client: &mut Client<L>, spec: JobSpec) -> (Vec<Vec<u8>>, u64) {
        let corr = client.submit_pipelined(1, spec).unwrap();
        let mut chunks = Vec::new();
        loop {
            match client.next_event().unwrap() {
                Event::Chunk { correlation, bytes, .. } => {
                    assert_eq!(correlation, corr);
                    chunks.push(bytes);
                }
                Event::Done { correlation, digest, result, .. } => {
                    assert_eq!(correlation, corr);
                    assert_eq!(result.encoded().unwrap(), chunks.concat());
                    return (chunks, digest);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    let service = Service::new(ExecPool::new(1), Scheduler::new(8, 8));
    let (loopback, loopback_digest) = stream(&mut Client::new(Loopback::new(service)), spec);
    assert_eq!(loopback.concat(), direct, "loopback chunks differ from the direct run");
    assert_eq!(
        loopback_digest,
        atd::stream_digest(&direct),
        "the verified stream digest must be a pure function of the bytes"
    );

    for threads in [1usize, 4] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = std::thread::spawn(move || {
            let service = Service::new(ExecPool::new(threads), Scheduler::new(8, 8));
            serve_with(&listener, service, ServerConfig::default()).unwrap();
        });
        let mut client = PipelinedClient::connect(addr).unwrap();
        let (tcp, tcp_digest) = stream(&mut client, spec);
        client.shutdown().unwrap();
        daemon.join().unwrap();

        assert_eq!(tcp, loopback, "{threads}-thread daemon chunks differ from the loopback's");
        assert_eq!(tcp_digest, loopback_digest, "{threads}-thread daemon digest differs");
    }
}

/// One spec answered four ways — computed, from the LRU, coalesced in
/// one drain, and from the store after a daemon restart — streams the
/// same frames through `Client<Loopback>` on 1- and 4-thread pools:
/// byte-identical apart from the summary's provenance byte. Each way is
/// the second submission on a fresh daemon, so correlation and ticket
/// agree too.
#[test]
fn every_answer_tier_streams_identical_frames_apart_from_provenance() {
    use atd::proto::msg;
    use atd::scheduler::Scheduler;
    use atd::store::{Store, StoreConfig};
    use atd::{wire, Client, Event, JobSpec, Loopback, Provenance, Response, Service};
    use exec::ExecPool;
    use minitester::ShmooConfig;
    use pstime::Duration;
    use std::cell::RefCell;
    use std::io::{self, Read, Write};
    use std::rc::Rc;

    /// The loopback, keeping a copy of every byte the daemon sends.
    struct Tap {
        link: Loopback,
        seen: Rc<RefCell<Vec<u8>>>,
    }
    impl Read for Tap {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.link.read(buf)?;
            self.seen.borrow_mut().extend_from_slice(&buf[..n]);
            Ok(n)
        }
    }
    impl Write for Tap {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.link.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.link.flush()
        }
    }

    /// The frames sent under correlation 2, the summary's provenance
    /// byte zeroed, and the provenance it held.
    fn second_stream(seen: &[u8]) -> (Vec<Vec<u8>>, Provenance) {
        let mut frames = Vec::new();
        let mut provenance = None;
        let mut rest = seen;
        while !rest.is_empty() {
            let header = wire::decode_header2(rest).unwrap();
            let (frame, tail) = rest.split_at(wire::HEADER2_LEN + header.payload_len);
            rest = tail;
            if header.correlation != 2 {
                continue;
            }
            let mut frame = frame.to_vec();
            if header.msg_type == msg::SUMMARY {
                let payload = &frame[wire::HEADER2_LEN..];
                match Response::from_parts(header.msg_type, payload).unwrap() {
                    Response::Summary { provenance: p, .. } => provenance = Some(p),
                    other => panic!("expected a summary, got {other:?}"),
                }
                // The summary payload opens with the u64 ticket.
                frame[wire::HEADER2_LEN + 8] = 0;
            }
            frames.push(frame);
        }
        (frames, provenance.expect("a summary under correlation 2"))
    }

    let rate = DataRate::from_gbps(2.5);
    let spec = JobSpec::shmoo(rate, 256, 17, &ShmooConfig::pecl(), 3);
    let other = JobSpec::bathtub(Duration::from_ps(3), Duration::from_ps(20), rate, 0.5, 301);

    let mut by_threads = Vec::new();
    for threads in [1usize, 4] {
        let daemon = |store: Option<Store>| {
            let scheduler = Scheduler::new(8, 64);
            let scheduler = match store {
                Some(store) => scheduler.with_store(store),
                None => scheduler,
            };
            let seen = Rc::new(RefCell::new(Vec::new()));
            let link = Loopback::new(Service::new(ExecPool::new(threads), scheduler));
            (Client::new(Tap { link, seen: Rc::clone(&seen) }), seen)
        };
        let done = |client: &mut Client<Tap>, spec: JobSpec| match client.submit(1, spec).unwrap() {
            Event::Done { provenance, .. } => provenance,
            other => panic!("expected Done, got {other:?}"),
        };
        let dir = std::env::temp_dir()
            .join(format!("atd-determinism-tiers-{}-t{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ways = Vec::new();

        // Computed, by a store-backed daemon.
        let (mut client, seen) = daemon(Some(Store::open(StoreConfig::new(&dir)).unwrap()));
        assert_eq!(done(&mut client, other), Provenance::Computed);
        assert_eq!(done(&mut client, spec), Provenance::Computed);
        ways.push(second_stream(&seen.borrow()));
        drop(client);

        // An LRU hit.
        let (mut client, seen) = daemon(None);
        assert_eq!(done(&mut client, spec), Provenance::Computed);
        assert_eq!(done(&mut client, spec), Provenance::Cache);
        assert_eq!(client.stats().unwrap().cache_hits, 1);
        ways.push(second_stream(&seen.borrow()));

        // A coalesced copy: both submissions land in one drain.
        let (mut client, seen) = daemon(None);
        client.submit_pipelined(1, spec).unwrap();
        client.submit_pipelined(1, spec).unwrap();
        let mut finished = 0;
        while finished < 2 {
            if let Event::Done { .. } = client.next_event().unwrap() {
                finished += 1;
            }
        }
        assert_eq!(client.stats().unwrap().batched, 1);
        ways.push(second_stream(&seen.borrow()));

        // A store hit, after the computing daemon's restart.
        let (mut client, seen) = daemon(Some(Store::open(StoreConfig::new(&dir)).unwrap()));
        assert_eq!(done(&mut client, other), Provenance::Cache);
        assert_eq!(done(&mut client, spec), Provenance::Cache);
        assert_eq!(client.stats().unwrap().store_hits, 2);
        ways.push(second_stream(&seen.borrow()));
        let _ = std::fs::remove_dir_all(&dir);

        let provenances: Vec<Provenance> = ways.iter().map(|(_, p)| *p).collect();
        assert_eq!(
            provenances,
            [Provenance::Computed, Provenance::Cache, Provenance::Batched, Provenance::Cache]
        );
        let (computed, _) = &ways[0];
        assert!(computed.len() > 2, "a shmoo streams several chunks");
        for (frames, provenance) in &ways[1..] {
            assert_eq!(frames, computed, "{provenance:?} at {threads} threads");
        }
        by_threads.push(ways.swap_remove(0).0);
    }
    assert_eq!(by_threads[0], by_threads[1], "1- and 4-thread pools stream different frames");
}

/// Result bytes pinned against an earlier commit, not against the tree
/// itself: FNV-1a digests frozen from the sampled kernels, from the
/// canonical wire bytes of a fixed spec table, and from the rendered
/// paper report. Every other determinism test compares two runs of the
/// same code; this one fails when a kernel rewrite changes a single bit.
///
/// Job results are discrete (pass maps, bins, error counts), so part (a)
/// hashes the raw `f64` samples: that is the part that catches a
/// last-place drift in the waveform arithmetic.
#[test]
fn kernel_outputs_match_frozen_digests() {
    const FROZEN: [(&str, u64); 21] = [
        ("jittered", 0xc4a3_c90c_ef7c_c824),
        ("asymmetric", 0xbffa_c6c0_cc79_9bc7),
        ("isi-5g", 0x2601_1ae0_9033_bb2f),
        ("shmoo", 0xf0ba_82d4_fd3e_4bc3),
        ("shmoo-rows", 0xd8ca_e0d8_1f41_f965),
        ("wafer", 0xf454_25d9_98d9_b5a4),
        ("wafer-dies", 0x8905_8949_bb6d_15f8),
        ("eye", 0x4cc1_6ae8_e71a_e366),
        ("eye-range", 0x11ce_777c_0a7b_4c9c),
        ("bathtub", 0x2a80_f668_760f_8a96),
        ("shmoo-5g", 0xe580_39b9_b15c_4344),
        ("wafer-marginal", 0x786b_eed9_d819_ed16),
        ("eye-1g", 0x1f53_9198_9dc6_3b43),
        ("shmoo-mid", 0x09e8_9bfd_32b3_59ef),
        ("shmoo-mid-rows", 0x459f_9563_dcbf_08d0),
        ("wafer-5g", 0x4f59_fda6_80ac_0477),
        ("wafer-5g-dies", 0xbc2c_aedf_58c5_3341),
        ("eye-5g", 0xc4ef_4cb7_3046_9efe),
        ("eye-5g-range", 0xcbce_b531_ec15_5e44),
        ("eye-marginal", 0xddf6_545c_191b_adeb),
        ("full_report", 0xcdd1_3851_8c28_be92),
    ];
    use atd::cache::fnv1a64;
    use atd::JobSpec;
    use exec::ExecPool;
    use minitester::{ShmooConfig, WaferRunConfig};
    use pstime::Duration;
    use rng::SeedTree;
    use signal::jitter::{JitterBudget, NoJitter};
    use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};

    // (a) Raw samples over fixed waveforms, from before the start to past
    // the end, on a grid that is not a divisor of the unit interval.
    let mut rng = SeedTree::new(0x601D).stream("determinism.golden").rng();
    let bits = BitStream::from_fn(512, |_| rng.bool());
    let rate = DataRate::from_gbps(2.5);
    let jitter = JitterBudget::new().with_rj_rms_ps(3.0).with_dcd_ps(12.0);
    let waves = [
        (
            "jittered",
            AnalogWaveform::new(
                DigitalWaveform::from_bits(&bits, rate, &jitter, 11),
                LevelSet::pecl(),
                EdgeShape::default(),
            ),
        ),
        (
            "asymmetric",
            AnalogWaveform::new(
                DigitalWaveform::from_bits(&bits, rate, &jitter, 12),
                LevelSet::pecl().with_swing(pstime::Millivolts::new(650)),
                EdgeShape::from_rise_fall_2080_ps(58.0, 97.0),
            ),
        ),
        (
            "isi-5g",
            AnalogWaveform::new(
                DigitalWaveform::from_bits(&bits, DataRate::from_gbps(5.0), &NoJitter, 0),
                LevelSet::pecl(),
                EdgeShape::from_rise_2080_ps(120.0),
            ),
        ),
    ];
    let sample_digests: Vec<(&str, u64)> = waves
        .iter()
        .map(|(name, wave)| {
            let t0 = wave.digital().start() - Duration::from_ps(1_500);
            let dt = Duration::from_fs(1_337);
            let span = wave.digital().span() + Duration::from_ps(3_000);
            let n = usize::try_from(span.as_fs() / dt.as_fs()).unwrap();
            let samples = wave.sample_uniform(t0, dt, n);
            assert!(t0 + dt * (i64::try_from(n).unwrap() - 1) > wave.digital().end());
            let bytes: Vec<u8> = samples.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            (*name, fnv1a64(&bytes))
        })
        .collect();

    // (b) Canonical encoded results of a fixed spec table, whole and
    // sliced. The last three are the regimes where a strobe most often
    // lands near the threshold: a 5 Gbps shmoo (ISI-compressed swing), a
    // wafer of degraded channels only, and a 1 Gbps eye (slow edges
    // relative to the scan's 10 ps steps). The mid-swing shmoo steps its
    // threshold by 10 mV across −1400…−1200 mV, where many rows sit inside
    // a strobe's bound and need their own decision or the exact path.
    // The 5 Gbps wafer mixes hard and marginal dies: its eyes are narrow,
    // so many strobe phases of each margin scan sit near the eye walls.
    // The 5 Gbps eye is narrow too, so many of its phases count errors
    // across the whole pattern; its band has an odd width.
    let wafer = JobSpec::wafer(&WaferRunConfig {
        dies: 12,
        columns: 4,
        sites: 4,
        test_bits: 256,
        seed: 7,
        ..WaferRunConfig::default()
    });
    let shmoo = JobSpec::shmoo(rate, 256, 17, &ShmooConfig::pecl(), 5);
    let eye = JobSpec::eye(rate, 256, 17, 5);
    let mid_swing = JobSpec::shmoo(
        rate,
        256,
        17,
        &ShmooConfig {
            v_start: pstime::Millivolts::new(-1400),
            v_end: pstime::Millivolts::new(-1200),
            v_step: pstime::Millivolts::new(10),
            ..ShmooConfig::pecl()
        },
        5,
    );
    let wafer_5g = JobSpec::wafer(&WaferRunConfig {
        dies: 12,
        columns: 4,
        sites: 4,
        hard_defect_rate: 0.25,
        marginal_rate: 0.5,
        rate: DataRate::from_gbps(5.0),
        test_bits: 256,
        seed: 13,
    });
    let eye_5g = JobSpec::eye(DataRate::from_gbps(5.0), 256, 17, 5);
    let specs = [
        ("shmoo", shmoo),
        ("shmoo-rows", shmoo.slice(3, 4).unwrap()),
        ("wafer", wafer),
        ("wafer-dies", wafer.slice(5, 3).unwrap()),
        ("eye", eye),
        ("eye-range", eye.slice(10, 12).unwrap()),
        ("bathtub", JobSpec::bathtub(Duration::from_ps(3), Duration::from_ps(20), rate, 0.5, 101)),
        ("shmoo-5g", JobSpec::shmoo(DataRate::from_gbps(5.0), 256, 17, &ShmooConfig::pecl(), 5)),
        (
            "wafer-marginal",
            JobSpec::wafer(&WaferRunConfig {
                dies: 8,
                columns: 4,
                sites: 4,
                hard_defect_rate: 0.0,
                marginal_rate: 1.0,
                test_bits: 256,
                seed: 9,
                ..WaferRunConfig::default()
            }),
        ),
        ("eye-1g", JobSpec::eye(DataRate::from_gbps(1.0), 256, 17, 5)),
        ("shmoo-mid", mid_swing),
        ("shmoo-mid-rows", mid_swing.slice(6, 9).unwrap()),
        ("wafer-5g", wafer_5g),
        ("wafer-5g-dies", wafer_5g.slice(3, 6).unwrap()),
        ("eye-5g", eye_5g),
        ("eye-5g-range", eye_5g.slice(3, 7).unwrap()),
    ];
    let pool = ExecPool::from_env();
    let result_digests: Vec<(&str, u64)> = specs
        .iter()
        .map(|(name, spec)| {
            let result = atd::workload::execute(spec, &pool).unwrap();
            (*name, fnv1a64(&result.encoded().unwrap()))
        })
        .collect();

    // (c) An eye scan of a degraded channel's 5 Gbps loopback, as the
    // mini-tester's at-speed margin test returns it: a narrow eye whose
    // walls many phases straddle. Each point's (phase, compared, errors)
    // is folded in.
    let marginal_digest = {
        use minitester::{EtCapture, EyeScanJob, MiniTesterDatapath, WlpChannel, WlpDut};
        let rate = DataRate::from_gbps(5.0);
        let mut path = MiniTesterDatapath::new().unwrap();
        let pattern = path.prbs_pattern(rate, 2_048).unwrap();
        let stimulus = path.render(&pattern, 4).unwrap();
        let returned = WlpDut::good(WlpChannel::degraded()).loopback(&stimulus, rate, 2_048, 4);
        let capture = EtCapture::new();
        let expected = pattern.bits();
        let job = EyeScanJob { capture: &capture, wave: &returned, rate, expected, seed: 4 };
        let scan = job.run_on(&pool).unwrap();
        let points = scan.points();
        assert!(points.iter().any(|p| p.errors == 0) && points.iter().any(|p| p.errors > 0));
        let bytes: Vec<u8> = scan
            .points()
            .iter()
            .flat_map(|p| {
                [
                    p.phase.as_fs().to_le_bytes(),
                    (p.compared as u64).to_le_bytes(),
                    (p.errors as u64).to_le_bytes(),
                ]
            })
            .flatten()
            .collect();
        ("eye-marginal", fnv1a64(&bytes))
    };

    // (d) The rendered paper report.
    let report = bench_support::full_report(2005).unwrap().to_string();
    let report_digest = ("full_report", fnv1a64(report.as_bytes()));

    let got: Vec<(&str, u64)> = sample_digests
        .into_iter()
        .chain(result_digests)
        .chain([marginal_digest, report_digest])
        .collect();
    for ((name, digest), (frozen_name, frozen)) in got.iter().zip(FROZEN) {
        assert_eq!(*name, frozen_name);
        assert_eq!(*digest, frozen, "{name}: digest {digest:016x} drifted from {frozen:016x}");
    }
    assert_eq!(got.len(), FROZEN.len());
}
