//! Executes decoded job specs against the native workload crates.
//!
//! This is the bridge between the wire vocabulary ([`JobSpec`] /
//! [`JobResult`]) and the pool-parameterized entry points
//! ([`exec::PoolJob`]) the workloads expose: every spec reconstructs the
//! exact argument set a local caller would build, runs it on the supplied
//! pool, and converts the outcome back to wire form. Specs are validated
//! before any native constructor runs, so out-of-domain fields surface as
//! typed errors.

use exec::{ExecPool, PoolJob};
use pstime::{DataRate, Duration, Millivolts};

use crate::error::AtdError;
use crate::proto::{JobResult, JobSpec};
use crate::wire::FrameError;

fn to_usize(v: u32) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Runs one job spec on `pool`, returning its wire-form result.
///
/// Identical specs produce byte-identical results at any pool width: the
/// workloads derive all randomness from spec-carried seeds through
/// index-addressed substreams. Every shmoo, eye and wafer spec runs on the
/// process's one booted instrument ([`minitester::MiniTester::shared`]):
/// its PRBS pattern comes from the datapath's memo, built on this thread
/// before any pool job runs, and the stimulus rendered from that pattern
/// is checked against the pattern's own bits.
///
/// # Errors
///
/// [`AtdError::Frame`] for a spec outside the service's domain or the
/// instrument's envelope ([`JobSpec::validate`]), returned before the
/// instrument is touched; the instrument's boot error, and workload and
/// execution errors otherwise.
pub fn execute(spec: &JobSpec, pool: &ExecPool) -> Result<JobResult, AtdError> {
    spec.validate()?;
    // A shard variant runs its parent's workload through the band entry
    // point, so every cell/die/point seeds from its global substream: the
    // sub-result is byte-for-byte the band a full run would have produced.
    let (spec, band) = match spec.split() {
        Some((parent, start, count)) => (parent, Some((to_usize(start), to_usize(count)))),
        None => (*spec, None),
    };
    match spec {
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
            let path = minitester::MiniTester::shared()?.datapath();
            let pattern = path.pattern(rate, to_usize(bits))?;
            let wave = path.render(&pattern, stim_seed)?;
            let config = minitester::ShmooConfig {
                phase_step: Duration::from_fs(phase_step_fs),
                v_start: Millivolts::new(v_start_mv),
                v_end: Millivolts::new(v_end_mv),
                v_step: Millivolts::new(v_step_mv),
            };
            let job =
                minitester::ShmooJob { wave: &wave, rate, expected: pattern.bits(), config, seed };
            let plot = match band {
                Some((start, count)) => job.run_rows_on(pool, start, count)?,
                None => job.run_on(pool)?,
            };
            Ok(JobResult::from_shmoo(&plot)?)
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
            let config = minitester::WaferRunConfig {
                columns: to_usize(columns),
                dies: to_usize(dies),
                sites: to_usize(sites),
                hard_defect_rate,
                marginal_rate,
                rate: DataRate::from_bps(rate_bps),
                test_bits: to_usize(test_bits),
                seed,
            };
            let report = match band {
                Some((start, count)) => config.run_dies_on(pool, start, count)?,
                None => config.run_on(pool)?,
            };
            Ok(JobResult::from_wafer(&report)?)
        }
        JobSpec::Eye { rate_bps, bits, stim_seed, seed } => {
            let rate = DataRate::from_bps(rate_bps);
            let tester = minitester::MiniTester::shared()?;
            let pattern = tester.datapath().pattern(rate, to_usize(bits))?;
            let wave = tester.datapath().render(&pattern, stim_seed)?;
            let job = minitester::EyeScanJob {
                capture: tester.capture(),
                wave: &wave,
                rate,
                expected: pattern.bits(),
                seed,
            };
            let scan = match band {
                Some((start, count)) => job.run_range_on(pool, start, count)?,
                None => job.run_on(pool)?,
            };
            Ok(JobResult::from_eye(&scan)?)
        }
        JobSpec::Bathtub { rj_rms_fs, dj_pp_fs, rate_bps, transition_density, points } => {
            let curve = signal::BathtubCurve::new(
                Duration::from_fs(rj_rms_fs),
                Duration::from_fs(dj_pp_fs),
                DataRate::from_bps(rate_bps),
                transition_density,
            );
            let pairs =
                signal::BathtubSweep { curve: &curve, points: to_usize(points) }.run_on(pool)?;
            Ok(JobResult::from_bathtub(pairs))
        }
        // `split` never yields a shard variant as a parent.
        JobSpec::ShmooRows { .. } | JobSpec::WaferDies { .. } | JobSpec::EyeRange { .. } => {
            Err(FrameError::BadPayload { context: "shard variant without a parent spec" }.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shmoo_spec_matches_direct_run() {
        let pool = ExecPool::new(2);
        let rate = DataRate::from_gbps(2.5);
        let config = minitester::ShmooConfig::pecl();
        let spec = JobSpec::shmoo(rate, 256, 17, &config, 5);
        let remote = execute(&spec, &pool).unwrap();

        let mut path = minitester::MiniTesterDatapath::new().unwrap();
        let pattern = path.prbs_pattern(rate, 256).unwrap();
        let wave = path.render(&pattern, 17).unwrap();
        let expected = pattern.bits();
        let plot = minitester::ShmooJob { wave: &wave, rate, expected, config, seed: 5 }
            .run_on(&pool)
            .unwrap();
        assert_eq!(remote, JobResult::from_shmoo(&plot).unwrap());
        assert_eq!(remote.rendered(), plot.to_string());
    }

    #[test]
    fn bathtub_spec_matches_direct_sweep() {
        let pool = ExecPool::new(3);
        let rj = Duration::from_ps_f64(3.2);
        let dj = Duration::from_ps(20);
        let rate = DataRate::from_gbps(2.5);
        let spec = JobSpec::bathtub(rj, dj, rate, 0.5, 101);
        let remote = execute(&spec, &pool).unwrap();
        let curve = signal::BathtubCurve::new(rj, dj, rate, 0.5);
        let pairs = signal::BathtubSweep { curve: &curve, points: 101 }
            .run_on(&ExecPool::serial())
            .unwrap();
        assert_eq!(remote, JobResult::from_bathtub(pairs));
    }

    #[test]
    fn shard_specs_reproduce_slices_of_the_parent_result() {
        let pool = ExecPool::new(2);
        let specs = [
            JobSpec::shmoo(DataRate::from_gbps(2.5), 256, 17, &minitester::ShmooConfig::pecl(), 5),
            JobSpec::wafer(&minitester::WaferRunConfig {
                dies: 8,
                columns: 4,
                sites: 4,
                test_bits: 256,
                ..minitester::WaferRunConfig::default()
            }),
            JobSpec::eye(DataRate::from_gbps(2.5), 256, 21, 9),
        ];
        for spec in specs {
            let full = execute(&spec, &pool).unwrap();
            let extent = spec.shard_extent().unwrap();
            let head = execute(&spec.slice(0, 1).unwrap(), &pool).unwrap();
            let tail = execute(&spec.slice(1, extent - 1).unwrap(), &pool).unwrap();
            // Spot-check each shard against the parent's data rows.
            match (&full, &head, &tail) {
                (
                    JobResult::Shmoo { pass, phases_fs, .. },
                    JobResult::Shmoo { pass: head_pass, .. },
                    JobResult::Shmoo { pass: tail_pass, .. },
                ) => {
                    assert_eq!(head_pass.as_slice(), &pass[..phases_fs.len()]);
                    assert_eq!(tail_pass.as_slice(), &pass[phases_fs.len()..]);
                }
                (
                    JobResult::Wafer { records, touchdowns, .. },
                    JobResult::Wafer { records: head_recs, touchdowns: head_td, .. },
                    JobResult::Wafer { records: tail_recs, .. },
                ) => {
                    assert_eq!(head_recs.as_slice(), &records[..1]);
                    assert_eq!(tail_recs.as_slice(), &records[1..]);
                    assert_eq!(head_td, touchdowns, "geometry, not content");
                }
                (
                    JobResult::Eye { points, .. },
                    JobResult::Eye { points: head_pts, .. },
                    JobResult::Eye { points: tail_pts, .. },
                ) => {
                    assert_eq!(head_pts.as_slice(), &points[..1]);
                    assert_eq!(tail_pts.as_slice(), &points[1..]);
                }
                other => panic!("mismatched result kinds: {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_spec_is_a_typed_error() {
        let pool = ExecPool::serial();
        let spec = JobSpec::Eye { rate_bps: 0, bits: 16, stim_seed: 0, seed: 0 };
        assert!(matches!(execute(&spec, &pool), Err(AtdError::Frame(_))));
    }

    #[test]
    fn stimulus_lengths_that_do_not_fill_the_16_lanes_are_typed_errors() {
        // Unchecked, 0, 1 and 15 bits would pass an eye over 0 compared
        // bits, and 100 bits would compare only 96. Spec validation
        // rejects them, so execute never boots a datapath for them.
        let pool = ExecPool::serial();
        let rate = DataRate::from_gbps(2.5);
        for bits in [0, 1, 15, 100] {
            for spec in [
                JobSpec::eye(rate, bits, 21, 9),
                JobSpec::shmoo(rate, bits, 17, &minitester::ShmooConfig::pecl(), 5),
            ] {
                assert!(spec.validate().is_err(), "{spec:?}");
                let got = execute(&spec, &pool);
                assert!(matches!(got, Err(AtdError::Frame(_))), "{bits} bits: {got:?}");
            }
        }
    }

    #[test]
    fn failing_workload_propagates_its_error() {
        // A one-point bathtub would fail inside the sweep, which needs
        // both crossovers. Spec validation applies the sweep's own rule,
        // so execute returns the Frame error before any work runs.
        let pool = ExecPool::serial();
        let bathtub = |points| JobSpec::Bathtub {
            rj_rms_fs: 3_200,
            dj_pp_fs: 20_000,
            rate_bps: DataRate::from_gbps(2.5).as_bps(),
            transition_density: 0.5,
            points,
        };
        assert!(bathtub(1).validate().is_err());
        assert!(matches!(execute(&bathtub(1), &pool), Err(AtdError::Frame(_))));
        assert!(execute(&bathtub(2), &pool).is_ok());
    }

    #[test]
    fn hostile_spec_is_shed_before_any_workload_runs() {
        // An inverted voltage sweep is now rejected by JobSpec::validate
        // (a Frame error), never reaching the shmoo constructor.
        let pool = ExecPool::serial();
        let spec = JobSpec::Shmoo {
            rate_bps: DataRate::from_gbps(2.5).as_bps(),
            bits: 64,
            stim_seed: 1,
            phase_step_fs: 10_000_000,
            v_start_mv: -900,
            v_end_mv: -1700,
            v_step_mv: 50,
            seed: 1,
        };
        assert!(matches!(execute(&spec, &pool), Err(AtdError::Frame(_))));
    }
}
