//! Cross-layer determinism guarantees of the seed-tree refactor.
//!
//! Every stochastic model in the stack draws from a named substream of one
//! master seed, so a run is a pure function of its inputs: same seed in, the
//! same bits out — across the ATE facade, the optical testbed, and the
//! mini-tester wafer flow. These tests pin that contract end to end.

use ate::{SystemKind, TestProgram, TestSystem};
use minitester::multisite::{run_wafer, WaferRunConfig};
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
    let a = run_wafer(&config).unwrap();
    let b = run_wafer(&config).unwrap();
    assert_eq!(a, b);

    let c = run_wafer(&WaferRunConfig { seed: 8, ..config }).unwrap();
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
    use minitester::multisite::run_wafer_with_pool;
    use minitester::{EtCapture, MiniTesterDatapath, ShmooConfig, ShmooPlot};

    let rate = DataRate::from_gbps(2.5);
    let mut path = MiniTesterDatapath::new().unwrap();
    let expected = path.expected_prbs(rate, 512).unwrap();
    let mut path2 = MiniTesterDatapath::new().unwrap();
    let wave = path2.prbs_stimulus(rate, 512, 17).unwrap();

    let pools = [ExecPool::new(1), ExecPool::new(2), ExecPool::new(8)];

    let shmoos: Vec<_> = pools
        .iter()
        .map(|p| ShmooPlot::run_with_pool(&wave, rate, &expected, &ShmooConfig::pecl(), 3, p))
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(shmoos[0], shmoos[1], "shmoo differs between 1 and 2 threads");
    assert_eq!(shmoos[0], shmoos[2], "shmoo differs between 1 and 8 threads");
    assert_eq!(shmoos[0].to_string(), shmoos[2].to_string());

    let wafer_config = WaferRunConfig {
        dies: 12,
        columns: 4,
        sites: 4,
        test_bits: 256,
        seed: 7,
        ..WaferRunConfig::default()
    };
    let wafers: Vec<_> =
        pools.iter().map(|p| run_wafer_with_pool(&wafer_config, p).unwrap()).collect();
    assert_eq!(wafers[0], wafers[1], "wafer differs between 1 and 2 threads");
    assert_eq!(wafers[0], wafers[2], "wafer differs between 1 and 8 threads");
    assert_eq!(wafers[0].to_string(), wafers[2].to_string());

    let cap = EtCapture::new();
    let eyes: Vec<_> = pools
        .iter()
        .map(|p| cap.eye_scan_with_pool(&wave, rate, &expected, 5, p).unwrap())
        .collect();
    assert_eq!(eyes[0], eyes[1], "eye scan differs between 1 and 2 threads");
    assert_eq!(eyes[0], eyes[2], "eye scan differs between 1 and 8 threads");
    assert_eq!(eyes[0].to_string(), eyes[2].to_string());
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
    use minitester::{MiniTesterDatapath, ShmooConfig, ShmooPlot};

    let rate = DataRate::from_gbps(2.5);
    let config = ShmooConfig::pecl();
    let spec = JobSpec::shmoo(rate, 256, 17, &config, 5);

    // Direct run, no service in the path.
    let mut path = MiniTesterDatapath::new().unwrap();
    let expected = path.expected_prbs(rate, 256).unwrap();
    let mut stim = MiniTesterDatapath::new().unwrap();
    let wave = stim.prbs_stimulus(rate, 256, 17).unwrap();
    let pool = ExecPool::new(2);
    let plot = ShmooPlot::run_with_pool(&wave, rate, &expected, &config, 5, &pool).unwrap();
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
/// rehydrated store.
#[test]
fn store_backed_daemon_matches_in_memory_across_a_kill_and_restart() {
    use atd::scheduler::Scheduler;
    use atd::store::{Store, StoreConfig};
    use atd::{Client, Event, JobSpec, Loopback, Provenance, Service};
    use exec::ExecPool;
    use minitester::{ShmooConfig, WaferRunConfig};
    use pstime::Duration;

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

        // Killed after two specs, restarted over the same directory.
        let dir = std::env::temp_dir()
            .join(format!("atd-determinism-restart-{}-t{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = durable_daemon(&dir, threads);
        let mut observed: Vec<Vec<u8>> =
            campaign[..2].iter().map(|spec| submit(&mut durable, *spec).1).collect();
        drop(durable); // the kill
        let mut durable = durable_daemon(&dir, threads);
        observed.extend(campaign[2..].iter().map(|spec| submit(&mut durable, *spec).1));
        assert_eq!(
            observed, reference,
            "a kill/restart mid-campaign must not change a byte ({threads} threads)"
        );

        // The half finished before the kill replays off the rehydrated
        // store: cache provenance, identical bytes, no recompute.
        for (spec, want) in campaign[..2].iter().zip(&reference) {
            let (provenance, bytes) = submit(&mut durable, *spec);
            assert_eq!(provenance, Provenance::Cache, "{} must be store-served", spec.kind());
            assert_eq!(&bytes, want);
        }
        let _ = std::fs::remove_dir_all(&dir);
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
    use minitester::{MiniTesterDatapath, ShmooConfig, ShmooPlot};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    let rate = DataRate::from_gbps(2.5);
    let config = ShmooConfig::pecl();
    let spec = JobSpec::shmoo(rate, 256, 17, &config, 5);

    // Direct run, no service in the path.
    let mut path = MiniTesterDatapath::new().unwrap();
    let expected = path.expected_prbs(rate, 256).unwrap();
    let mut stim = MiniTesterDatapath::new().unwrap();
    let wave = stim.prbs_stimulus(rate, 256, 17).unwrap();
    let pool = ExecPool::new(2);
    let plot = ShmooPlot::run_with_pool(&wave, rate, &expected, &config, 5, &pool).unwrap();
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
