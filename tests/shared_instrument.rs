//! The process's one booted mini-tester serves every job like a fresh
//! one.
//!
//! `atd::workload::execute` runs every shmoo, eye and wafer spec on
//! [`MiniTester::shared`], whose datapath keeps at most
//! [`PATTERN_MEMO_ENTRIES`] lane patterns. These tests drive more
//! (rate, bits) keys than that through it, interleaved so that patterns
//! are evicted and rebuilt, from two threads at once on pools of 1 and 4
//! workers. Every encoded result must equal the one a freshly booted
//! datapath (or tester, for a wafer) computes in the test itself, and
//! the memo must never hold more than its bound.

use std::sync::Barrier;
use std::thread;

use atd::workload::execute;
use atd::{JobResult, JobSpec};
use exec::{ExecPool, PoolJob};
use minitester::datapath::PATTERN_MEMO_ENTRIES;
use minitester::multisite::{WAFER_DEFECT_STREAM, WAFER_DIE_STREAM};
use minitester::{
    Bin, Defect, DieRecord, EtCapture, EyeScanJob, MiniTester, MiniTesterDatapath, ProbeArray,
    ShmooConfig, ShmooJob, TestPlan, WaferReport, WaferRunConfig, WlpChannel, WlpDut,
};
use pstime::{DataRate, Duration, Millivolts};
use rng::SeedTree;

const RATES_GBPS: [f64; 6] = [1.25, 2.0, 2.5, 3.2, 4.0, 5.0];
const BITS: [u32; 3] = [64, 96, 128];

/// A spec, with the parent spec and band it runs (no band for a parent).
type Case = (JobSpec, JobSpec, Option<(usize, usize)>);

/// One spec per (rate, bits) key, the kind cycling through shmoo, eye and
/// wafer, each followed by a shard variant of itself, which hits the
/// pattern its parent just built. Keys come in a stride-7 order, so
/// consecutive keys differ in rate and bits.
fn campaign() -> Vec<Case> {
    let keys = RATES_GBPS.len() * BITS.len();
    assert!(keys > PATTERN_MEMO_ENTRIES, "the campaign must overflow the memo");
    let shmoo = ShmooConfig {
        phase_step: Duration::from_ps(40),
        v_start: Millivolts::new(-1500),
        v_end: Millivolts::new(-1100),
        v_step: Millivolts::new(100),
    };
    let mut specs = Vec::new();
    for i in (0..keys).map(|k| k * 7 % keys) {
        let rate = DataRate::from_gbps(RATES_GBPS[i / BITS.len()]);
        let bits = BITS[i % BITS.len()];
        let seed = i as u64;
        let spec = match i % 3 {
            0 => JobSpec::shmoo(rate, bits, 17 + seed, &shmoo, seed),
            1 => JobSpec::eye(rate, bits, 21 + seed, seed),
            _ => JobSpec::wafer(&WaferRunConfig {
                columns: 2,
                dies: 4,
                sites: 2,
                hard_defect_rate: 0.25,
                marginal_rate: 0.25,
                rate,
                test_bits: bits as usize,
                seed,
            }),
        };
        let extent = spec.shard_extent().expect("shardable");
        let tail = spec.slice(1, extent - 1).expect("tail band");
        specs.push((spec, spec, None));
        specs.push((tail, spec, Some((1, extent as usize - 1))));
    }
    specs
}

/// The encoded result of `parent` (or of its `band`), computed on a
/// freshly booted datapath (or tester) on a serial pool.
fn reference(&(_, parent, band): &Case) -> Vec<u8> {
    let pool = ExecPool::serial();
    let result = match parent {
        JobSpec::Shmoo {
            rate_bps,
            bits,
            stim_seed,
            phase_step_fs,
            v_start_mv,
            v_end_mv,
            v_step_mv,
            seed,
        } => {
            let rate = DataRate::from_bps(rate_bps);
            let mut path = MiniTesterDatapath::new().unwrap();
            let pattern = path.prbs_pattern(rate, bits as usize).unwrap();
            let wave = path.render(&pattern, stim_seed).unwrap();
            let config = ShmooConfig {
                phase_step: Duration::from_fs(phase_step_fs),
                v_start: Millivolts::new(v_start_mv),
                v_end: Millivolts::new(v_end_mv),
                v_step: Millivolts::new(v_step_mv),
            };
            let job = ShmooJob { wave: &wave, rate, expected: pattern.bits(), config, seed };
            let plot = match band {
                Some((start, count)) => job.run_rows_on(&pool, start, count),
                None => job.run_on(&pool),
            };
            JobResult::from_shmoo(&plot.unwrap()).unwrap()
        }
        JobSpec::Eye { rate_bps, bits, stim_seed, seed } => {
            let rate = DataRate::from_bps(rate_bps);
            let mut path = MiniTesterDatapath::new().unwrap();
            let pattern = path.prbs_pattern(rate, bits as usize).unwrap();
            let wave = path.render(&pattern, stim_seed).unwrap();
            let capture = EtCapture::new();
            let job =
                EyeScanJob { capture: &capture, wave: &wave, rate, expected: pattern.bits(), seed };
            let scan = match band {
                Some((start, count)) => job.run_range_on(&pool, start, count),
                None => job.run_on(&pool),
            };
            JobResult::from_eye(&scan.unwrap()).unwrap()
        }
        JobSpec::Wafer {
            columns,
            dies,
            sites,
            hard_defect_rate,
            marginal_rate,
            rate_bps,
            test_bits,
            seed,
        } => {
            let config = WaferRunConfig {
                columns: columns as usize,
                dies: dies as usize,
                sites: sites as usize,
                hard_defect_rate,
                marginal_rate,
                rate: DataRate::from_bps(rate_bps),
                test_bits: test_bits as usize,
                seed,
            };
            let (start, count) = band.unwrap_or((0, config.dies));
            JobResult::from_wafer(&wafer_reference(&config, start, count)).unwrap()
        }
        other => panic!("not a parent spec: {other:?}"),
    };
    result.encoded().unwrap()
}

/// Probes dies `[start, start + count)` one by one on a freshly booted
/// tester, from the same die-indexed substreams a wafer run uses.
fn wafer_reference(config: &WaferRunConfig, start: usize, count: usize) -> WaferReport {
    let mut tester = MiniTester::new().unwrap();
    let tree = SeedTree::new(config.seed);
    let defects = tree.derive(WAFER_DEFECT_STREAM);
    let dies = tree.derive(WAFER_DIE_STREAM);
    let bist_plan = TestPlan::prbs_bist(config.rate, config.test_bits);
    let margin_plan =
        TestPlan { min_eye_ui: 0.8, ..TestPlan::prbs_loopback(config.rate, config.test_bits) };
    let (mut hard, mut marginal) = (0, 0);
    let mut records = Vec::new();
    for die in start..start + count {
        let mut rng = defects.channel(die as u64).rng();
        let roll = rng.f64();
        let dut = if roll < config.hard_defect_rate {
            hard += 1;
            WlpDut::good(WlpChannel::interposer())
                .with_defect(Defect::StuckInput { level: rng.bool() })
        } else if roll < config.hard_defect_rate + config.marginal_rate {
            marginal += 1;
            WlpDut::good(WlpChannel::degraded())
        } else {
            WlpDut::good(WlpChannel::interposer())
        };
        tester.insert_dut(dut);
        let per_die = dies.channel(die as u64);
        let bist = tester.run(&bist_plan, per_die.stream("bist").seed()).unwrap();
        let (bin, eye_ui) = if !bist.passed() {
            (Bin::FailBist, None)
        } else {
            let margin = tester.run(&margin_plan, per_die.stream("margin").seed()).unwrap();
            let bin = if margin.passed() { Bin::Good } else { Bin::FailMargin };
            (bin, margin.eye_ui.map(|u| u.value()))
        };
        records.push(DieRecord { die, bin, bist_errors: bist.errors, eye_ui });
    }
    let touchdowns = ProbeArray::new(config.sites).touchdowns(config.dies);
    WaferReport::from_parts(records, config.columns, touchdowns, hard, marginal)
}

fn kept_patterns() -> usize {
    MiniTester::shared().unwrap().datapath().kept_patterns()
}

/// Runs `specs` through the shared instrument on a pool of `threads`
/// workers once every caller of `start` is ready, checking the memo's
/// bound after every job.
fn run_shared(specs: &[JobSpec], threads: usize, start: &Barrier) -> Vec<Vec<u8>> {
    let pool = ExecPool::new(threads);
    start.wait();
    specs
        .iter()
        .map(|spec| {
            let bytes = execute(spec, &pool).unwrap().encoded().unwrap();
            assert!(kept_patterns() <= PATTERN_MEMO_ENTRIES, "memo past its bound");
            bytes
        })
        .collect()
}

#[test]
fn the_shared_instrument_matches_fresh_boots_across_evictions_and_threads() {
    let cases = campaign();
    let want: Vec<Vec<u8>> = cases.iter().map(reference).collect();
    let specs: Vec<JobSpec> = cases.iter().map(|(spec, ..)| *spec).collect();
    // Each thread runs the campaign twice, so its second pass finds the
    // first keys evicted; the other thread runs it in reverse order.
    let twice: Vec<JobSpec> = specs.iter().chain(&specs).copied().collect();
    let reversed: Vec<JobSpec> = twice.iter().rev().copied().collect();
    let start = Barrier::new(2);
    let (forward, backward) = thread::scope(|scope| {
        let forward = scope.spawn(|| run_shared(&twice, 1, &start));
        let backward = scope.spawn(|| run_shared(&reversed, 4, &start));
        (forward.join().unwrap(), backward.join().unwrap())
    });
    for (i, spec) in twice.iter().enumerate() {
        let want = &want[i % specs.len()];
        assert_eq!(&forward[i], want, "pool of 1: {spec:?}");
        assert_eq!(&backward[twice.len() - 1 - i], want, "pool of 4: {spec:?}");
    }
    assert_eq!(kept_patterns(), PATTERN_MEMO_ENTRIES, "more keys than the bound fill the memo");
}
