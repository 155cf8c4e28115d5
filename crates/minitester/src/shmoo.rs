//! Shmoo plots: the classic ATE pass/fail map over timing × voltage.
//!
//! The mini-tester's 10 ps strobe vernier and programmable comparator
//! threshold make the standard two-dimensional margin plot possible
//! entirely on the probe card: sweep strobe phase on one axis and decision
//! threshold on the other, run the pattern at each point, and mark
//! pass/fail.

use core::fmt;

use pstime::{DataRate, Duration, Millivolts};
use signal::{AnalogWaveform, BitStream};

use crate::capture::EtCapture;
use crate::Result;

/// Configuration of a shmoo sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmooConfig {
    /// Strobe-phase step (defaults to the 10 ps vernier step).
    pub phase_step: Duration,
    /// Threshold sweep start.
    pub v_start: Millivolts,
    /// Threshold sweep end (inclusive).
    pub v_end: Millivolts,
    /// Threshold step.
    pub v_step: Millivolts,
}

impl ShmooConfig {
    /// The standard PECL shmoo: thresholds from −1650 to −950 mV in 50 mV
    /// steps, strobe in 10 ps steps.
    pub fn pecl() -> Self {
        ShmooConfig {
            phase_step: Duration::from_ps(10),
            v_start: Millivolts::new(-1650),
            v_end: Millivolts::new(-950),
            v_step: Millivolts::new(50),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.phase_step <= Duration::ZERO {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "phase step must be positive",
            });
        }
        if self.v_step <= Millivolts::ZERO || self.v_end < self.v_start {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "voltage sweep must be ascending with positive step",
            });
        }
        Ok(())
    }

    fn voltage_points(&self) -> Vec<Millivolts> {
        let mut v = self.v_start;
        let mut points = Vec::new();
        while v <= self.v_end {
            points.push(v);
            // A sweep ending near i32::MAX would overflow `v + v_step`
            // (panic under overflow-checks, an endless wrap-around loop in
            // release); past the representable range the sweep is over.
            match v.as_mv().checked_add(self.v_step.as_mv()) {
                Some(next) => v = Millivolts::new(next),
                None => break,
            }
        }
        points
    }
}

/// A shmoo sweep described as a value: the one entry point
/// ([`exec::PoolJob::run_on`]) shared by in-process callers and the `atd`
/// service layer. For each (threshold, phase) point it captures the
/// pattern and marks pass (zero errors) or fail.
///
/// Phase columns are fanned out over the pool, one job per column
/// covering every threshold row: the rows strobe the same instants, so a
/// column is one pass-only capture
/// ([`pecl::StrobedSampler::capture_passes`]) that stops each row at its
/// first mismatch. Every cell still draws its randomness from its own
/// `tree.index(row).index(col)` substream, as when each cell ran alone, so
/// the plot is bit-identical for every thread count.
#[derive(Debug, Clone, Copy)]
pub struct ShmooJob<'a> {
    /// The stimulus waveform presented to the sampler.
    pub wave: &'a AnalogWaveform,
    /// The data rate under test.
    pub rate: DataRate,
    /// The expected pattern at each capture point.
    pub expected: &'a BitStream,
    /// Sweep configuration (axes and steps).
    pub config: ShmooConfig,
    /// Master seed for the sweep's capture substreams.
    pub seed: u64,
}

impl exec::PoolJob for ShmooJob<'_> {
    type Output = ShmooPlot;
    type Error = crate::MiniTesterError;

    fn run_on(&self, pool: &exec::ExecPool) -> Result<ShmooPlot> {
        self.run_band(pool, 0, None)
    }
}

impl ShmooJob<'_> {
    /// Runs only the threshold rows `[row_start, row_start + row_count)`
    /// of the full sweep.
    ///
    /// The phase columns and the complete threshold axis are still derived
    /// from the whole [`ShmooConfig`], and every cell seeds from its
    /// *global* `(row, col)` substream — so the band reproduces exactly
    /// the rows a full sweep would have produced, and contiguous bands
    /// concatenate (via [`ShmooPlot::from_parts`]) into a plot
    /// byte-identical to one full run. This is the shard entry point used
    /// by the `atd-farm` coordinator.
    ///
    /// # Errors
    ///
    /// [`crate::MiniTesterError::BadTestPlan`] if the band is empty or
    /// overruns the threshold axis; otherwise as
    /// [`exec::PoolJob::run_on`].
    pub fn run_rows_on(
        &self,
        pool: &exec::ExecPool,
        row_start: usize,
        row_count: usize,
    ) -> Result<ShmooPlot> {
        self.run_band(pool, row_start, Some(row_count))
    }

    /// Shared body of the full sweep and the banded sweep: `row_count` of
    /// `None` means "every row".
    fn run_band(
        &self,
        pool: &exec::ExecPool,
        row_start: usize,
        row_count: Option<usize>,
    ) -> Result<ShmooPlot> {
        self.config.validate()?;
        let ui = self.rate.unit_interval();
        let step_fs = self.config.phase_step.as_fs();
        // Ceiling division without the `ui + step - 1` intermediate, which
        // overflows i64 for a step near i64::MAX.
        let n_phases =
            (ui.as_fs() / step_fs + i64::from(ui.as_fs() % step_fs != 0)).max(1) as usize;
        let phases: Vec<Duration> =
            (0..n_phases).map(|k| self.config.phase_step * k as i64).collect();
        let all_thresholds = self.config.voltage_points();
        let rows = row_count.unwrap_or(all_thresholds.len());
        if rows == 0 || row_start.checked_add(rows).is_none_or(|end| end > all_thresholds.len()) {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "shmoo row band empty or past the threshold axis",
            });
        }
        let thresholds: Vec<Millivolts> =
            all_thresholds.iter().skip(row_start).take(rows).copied().collect();

        let tree = rng::SeedTree::new(self.seed).stream("minitester.shmoo");
        let capture = EtCapture::new();
        // One job per phase column, covering every row of the band: the
        // rows strobe the same instants, so one pass-only capture decides
        // them together. Each cell still seeds from its *global* (row, col)
        // substream — `row_start` offsets the seed row so a band
        // reproduces the full sweep's cells bit-for-bit.
        let outcome = pool.run(phases.len(), |col| {
            let (_, strobe) = capture.programmed(phases[col])?;
            let rows: Vec<(Duration, Millivolts, u64)> = thresholds
                .iter()
                .enumerate()
                .map(|(r, v)| {
                    (strobe, *v, tree.index((row_start + r) as u64).index(col as u64).seed())
                })
                .collect();
            Ok(capture.sampler().capture_passes(self.wave, self.rate, self.expected, &rows))
        })?;
        let columns = outcome.results.into_iter().collect::<Result<Vec<_>>>()?;
        // Row-major, as the plot stores it.
        let pass = (0..thresholds.len())
            .flat_map(|row| columns.iter().map(move |column| column[row]))
            .collect();
        Ok(ShmooPlot { thresholds, phases, pass })
    }
}

/// A completed shmoo: pass/fail over (threshold row, strobe-phase column).
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooPlot {
    thresholds: Vec<Millivolts>,
    phases: Vec<Duration>,
    pass: Vec<bool>, // row-major
}

impl ShmooPlot {
    /// Reassembles a plot from its raw axes and row-major pass map — the
    /// inverse of the accessors, used by coordinators (the `atd-farm`
    /// merge layer) that concatenate row bands produced by
    /// [`ShmooJob::run_rows_on`] back into one plot.
    ///
    /// # Errors
    ///
    /// [`crate::MiniTesterError::BadTestPlan`] if the pass map's length is
    /// not `thresholds.len() * phases.len()`.
    pub fn from_parts(
        thresholds: Vec<Millivolts>,
        phases: Vec<Duration>,
        pass: Vec<bool>,
    ) -> Result<ShmooPlot> {
        if pass.len() != thresholds.len() * phases.len() {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "shmoo pass map does not cover the grid",
            });
        }
        Ok(ShmooPlot { thresholds, phases, pass })
    }

    /// Threshold rows (ascending).
    pub fn thresholds(&self) -> &[Millivolts] {
        &self.thresholds
    }

    /// Strobe-phase columns.
    pub fn phases(&self) -> &[Duration] {
        &self.phases
    }

    /// Pass/fail at (threshold row, phase column).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn passed(&self, row: usize, col: usize) -> bool {
        assert!(row < self.thresholds.len() && col < self.phases.len());
        self.pass[row * self.phases.len() + col]
    }

    /// The widest contiguous passing phase run at any threshold, with the
    /// threshold where it occurs: the operating point a production test
    /// would pick.
    pub fn best_operating_point(&self) -> Option<(Millivolts, Duration)> {
        let cols = self.phases.len();
        let mut best: Option<(usize, usize, usize)> = None; // (len, row, start)
        for row in 0..self.thresholds.len() {
            let mut run = 0usize;
            for i in 0..2 * cols {
                if self.pass[row * cols + i % cols] {
                    run += 1;
                    let capped = run.min(cols);
                    if best.is_none_or(|(l, _, _)| capped > l) {
                        best = Some((capped, row, i + 1 - run));
                    }
                } else {
                    run = 0;
                }
            }
        }
        best.filter(|(len, _, _)| *len > 0).map(|(len, row, start)| {
            let centre = (start + len / 2) % cols;
            (self.thresholds[row], self.phases[centre])
        })
    }
}

impl fmt::Display for ShmooPlot {
    /// Classic shmoo rendering: one row per threshold (highest first),
    /// `*` = pass, `.` = fail.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (row, v) in self.thresholds.iter().enumerate().rev() {
            write!(f, "{:>8} |", v.to_string())?;
            for col in 0..self.phases.len() {
                f.write_str(if self.passed(row, col) { "*" } else { "." })?;
            }
            writeln!(f)?;
        }
        writeln!(f, "{:>8} +{}", "", "-".repeat(self.phases.len()))?;
        write!(
            f,
            "{:>8}  phase 0..{}",
            "",
            self.phases.last().map(|p| p.to_string()).unwrap_or_default()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::MiniTesterDatapath;
    use exec::PoolJob;

    /// Fraction of the plot's points that pass.
    fn pass_ratio(plot: &ShmooPlot) -> f64 {
        plot.pass.iter().filter(|p| **p).count() as f64 / plot.pass.len() as f64
    }

    fn prbs_setup(gbps: f64) -> (AnalogWaveform, DataRate, BitStream) {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(gbps);
        let expected = path.expected_prbs(rate, 512).unwrap();
        let mut path2 = MiniTesterDatapath::new().unwrap();
        let wave = path2.prbs_stimulus(rate, 512, 17).unwrap();
        (wave, rate, expected)
    }

    /// A full sweep on the default pool, as an outermost caller runs it.
    fn run(
        wave: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        config: &ShmooConfig,
        seed: u64,
    ) -> Result<ShmooPlot> {
        ShmooJob { wave, rate, expected, config: *config, seed }.run_on(&exec::ExecPool::from_env())
    }

    #[test]
    fn shmoo_shows_an_open_region() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let plot = run(&wave, rate, &expected, &ShmooConfig::pecl(), 1).unwrap();
        assert_eq!(plot.thresholds().len(), 15);
        assert_eq!(plot.phases().len(), 40);
        let ratio = pass_ratio(&plot);
        assert!(ratio > 0.2 && ratio < 0.95, "pass ratio {ratio}");
        // The mid-threshold row must have a healthy pass band.
        let mid_row = plot.thresholds().iter().position(|v| *v == Millivolts::new(-1300));
        let mid_row = mid_row.expect("mid threshold present");
        let passes: usize = (0..40).filter(|c| plot.passed(mid_row, *c)).count();
        assert!(passes >= 25, "mid-row passes {passes}");
    }

    #[test]
    fn best_operating_point_is_sane() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let plot = run(&wave, rate, &expected, &ShmooConfig::pecl(), 2).unwrap();
        let (v, phase) = plot.best_operating_point().expect("open region exists");
        // Threshold near mid-PECL, phase mid-UI.
        assert!((-1500..=-1100).contains(&v.as_mv()), "threshold {v}");
        let ps = phase.as_ps_f64();
        assert!((80.0..=320.0).contains(&ps), "phase {ps} ps");
    }

    #[test]
    fn rendering_looks_like_a_shmoo() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let plot = run(&wave, rate, &expected, &ShmooConfig::pecl(), 3).unwrap();
        let text = plot.to_string();
        assert!(text.contains('*'));
        assert!(text.contains('.'));
        assert!(text.contains("-1300 mV"));
        assert!(text.lines().count() >= 16);
    }

    #[test]
    fn extreme_thresholds_fail_everywhere() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let config = ShmooConfig {
            v_start: Millivolts::new(-500),
            v_end: Millivolts::new(-400),
            ..ShmooConfig::pecl()
        };
        let plot = run(&wave, rate, &expected, &config, 4).unwrap();
        assert_eq!(pass_ratio(&plot), 0.0);
        assert!(plot.best_operating_point().is_none());
    }

    #[test]
    fn voltage_sweep_near_i32_max_terminates() {
        // Overflow in the `v += v_step` walk used to panic (debug) or loop
        // forever (release); the sweep now ends at the representable edge.
        let config = ShmooConfig {
            v_start: Millivolts::new(i32::MAX - 10),
            v_end: Millivolts::new(i32::MAX),
            v_step: Millivolts::new(3),
            ..ShmooConfig::pecl()
        };
        let points = config.voltage_points();
        assert_eq!(points.len(), 4);
        assert_eq!(points.first().map(|v| v.as_mv()), Some(i32::MAX - 10));
        assert_eq!(points.last().map(|v| v.as_mv()), Some(i32::MAX - 1));
    }

    #[test]
    fn huge_phase_step_collapses_to_one_column() {
        // A step near i64::MAX used to overflow the ceiling division's
        // `ui + step - 1` intermediate; it must mean "one strobe column".
        let (wave, rate, expected) = prbs_setup(2.5);
        let config = ShmooConfig { phase_step: Duration::from_fs(i64::MAX), ..ShmooConfig::pecl() };
        let plot = run(&wave, rate, &expected, &config, 1).unwrap();
        assert_eq!(plot.phases().len(), 1);
    }

    #[test]
    fn row_bands_concatenate_to_the_full_sweep() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let job = ShmooJob {
            wave: &wave,
            rate,
            expected: &expected,
            config: ShmooConfig::pecl(),
            seed: 9,
        };
        let pool = exec::ExecPool::new(2);
        let full = job.run_on(&pool).unwrap();
        let rows = full.thresholds().len();
        for split in [1, rows / 2, rows - 1] {
            let lo = job.run_rows_on(&pool, 0, split).unwrap();
            let hi = job.run_rows_on(&pool, split, rows - split).unwrap();
            let mut thresholds = lo.thresholds().to_vec();
            thresholds.extend_from_slice(hi.thresholds());
            let mut pass = lo.pass.clone();
            pass.extend_from_slice(&hi.pass);
            let merged = ShmooPlot::from_parts(thresholds, lo.phases().to_vec(), pass).unwrap();
            assert_eq!(merged, full, "split at {split}");
            assert_eq!(merged.to_string(), full.to_string());
        }
    }

    #[test]
    fn out_of_range_row_bands_rejected() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let job = ShmooJob {
            wave: &wave,
            rate,
            expected: &expected,
            config: ShmooConfig::pecl(),
            seed: 9,
        };
        let pool = exec::ExecPool::new(1);
        let rows = job.run_on(&pool).unwrap().thresholds().len();
        assert!(job.run_rows_on(&pool, 0, 0).is_err());
        assert!(job.run_rows_on(&pool, rows, 1).is_err());
        assert!(job.run_rows_on(&pool, usize::MAX, 2).is_err());
    }

    #[test]
    fn from_parts_checks_grid_coverage() {
        let plot = ShmooPlot::from_parts(
            vec![Millivolts::new(-1300)],
            vec![Duration::from_ps(0), Duration::from_ps(10)],
            vec![true, false],
        )
        .unwrap();
        assert_eq!(pass_ratio(&plot), 0.5);
        assert!(ShmooPlot::from_parts(
            vec![Millivolts::new(-1300)],
            vec![Duration::from_ps(0)],
            vec![true, false],
        )
        .is_err());
    }

    #[test]
    fn bad_configs_rejected() {
        let (wave, rate, expected) = prbs_setup(2.5);
        let bad_phase = ShmooConfig { phase_step: Duration::ZERO, ..ShmooConfig::pecl() };
        assert!(run(&wave, rate, &expected, &bad_phase, 0).is_err());
        let bad_v = ShmooConfig {
            v_start: Millivolts::new(-900),
            v_end: Millivolts::new(-1700),
            ..ShmooConfig::pecl()
        };
        assert!(run(&wave, rate, &expected, &bad_v, 0).is_err());
    }
}
