//! Multi-site wafer runs: real testers over a simulated wafer map.
//!
//! [`crate::array`] models the *throughput arithmetic* of Fig. 13; this
//! module runs the actual test content: a wafer of dies with a seeded
//! defect distribution, probed touchdown by touchdown by an array of
//! [`MiniTester`]s, producing a wafer map and binning summary — what the
//! production floor actually sees.

use core::fmt;

use pstime::DataRate;
use rng::{SeedTree, StreamId};

use crate::array::ProbeArray;
use crate::channel::WlpChannel;
use crate::dut::{Defect, WlpDut};
use crate::tester::{MiniTester, PreparedPlan, TestPlan};
use crate::Result;

/// Substream identity for defect-injection rolls across the wafer.
pub const WAFER_DEFECT_STREAM: StreamId = StreamId::named("minitester.multisite.defects");

/// Substream identity for per-die test-content seeds.
pub const WAFER_DIE_STREAM: StreamId = StreamId::named("minitester.multisite.die");

/// Hard bin assigned to a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bin {
    /// Passed every test.
    Good,
    /// Failed the BIST error-count limit.
    FailBist,
    /// Failed the at-speed eye-margin limit.
    FailMargin,
}

impl Bin {
    fn glyph(self) -> char {
        match self {
            Bin::Good => '.',
            Bin::FailBist => 'X',
            Bin::FailMargin => 'm',
        }
    }
}

/// Configuration of a wafer run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferRunConfig {
    /// Dies per wafer-map row (the map is square-ish).
    pub columns: usize,
    /// Total dies.
    pub dies: usize,
    /// Parallel tester sites.
    pub sites: usize,
    /// Fraction of dies with a hard defect (stuck input).
    pub hard_defect_rate: f64,
    /// Fraction of dies with a marginal channel (speed-dependent).
    pub marginal_rate: f64,
    /// Test rate.
    pub rate: DataRate,
    /// PRBS bits per test (keep modest: each die runs a real tester).
    pub test_bits: usize,
    /// Run seed.
    pub seed: u64,
}

impl Default for WaferRunConfig {
    /// A small demonstration wafer: 8 × 8 dies, 16 sites, realistic yield.
    fn default() -> Self {
        WaferRunConfig {
            columns: 8,
            dies: 64,
            sites: 16,
            hard_defect_rate: 0.06,
            marginal_rate: 0.08,
            rate: DataRate::from_gbps(2.5),
            test_bits: 512,
            seed: 1,
        }
    }
}

/// Per-die measurement record from a wafer run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieRecord {
    /// Die index on the wafer map.
    pub die: usize,
    /// Assigned bin.
    pub bin: Bin,
    /// BIST error count.
    pub bist_errors: usize,
    /// Loopback eye opening (UI), when the margin test ran.
    pub eye_ui: Option<f64>,
}

/// The outcome of a wafer run.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferReport {
    bins: Vec<Bin>,
    records: Vec<DieRecord>,
    columns: usize,
    touchdowns: usize,
    injected_hard: usize,
    injected_marginal: usize,
}

impl WaferReport {
    /// Reassembles a report from per-die records plus the run-level
    /// figures — the inverse of the accessors, used by coordinators (the
    /// `atd-farm` merge layer) that concatenate die ranges produced by
    /// [`WaferRunConfig::run_dies_on`] back into one report. Bins are
    /// derived from the records; `columns` and `touchdowns` are the full
    /// wafer's geometry, and the injected counts must already be summed
    /// over the merged ranges.
    pub fn from_parts(
        records: Vec<DieRecord>,
        columns: usize,
        touchdowns: usize,
        injected_hard: usize,
        injected_marginal: usize,
    ) -> WaferReport {
        let bins = records.iter().map(|r| r.bin).collect();
        WaferReport {
            bins,
            records,
            columns: columns.max(1),
            touchdowns,
            injected_hard,
            injected_marginal,
        }
    }

    /// Per-die bins in die order.
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Per-die measurement records in die order.
    pub fn records(&self) -> &[DieRecord] {
        &self.records
    }

    /// Touchdowns the array needed.
    pub fn touchdowns(&self) -> usize {
        self.touchdowns
    }

    /// Wafer yield (fraction binned [`Bin::Good`]).
    fn yield_ratio(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        self.bins.iter().filter(|b| **b == Bin::Good).count() as f64 / self.bins.len() as f64
    }

    /// Number of dies in a bin.
    pub fn count(&self, bin: Bin) -> usize {
        self.bins.iter().filter(|b| **b == bin).count()
    }

    /// Defects injected by the simulation (ground truth for escape
    /// analysis).
    pub fn injected_defects(&self) -> (usize, usize) {
        (self.injected_hard, self.injected_marginal)
    }
}

impl fmt::Display for WaferReport {
    /// The wafer map: `.` good, `X` hard fail, `m` margin fail.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in self.bins.chunks(self.columns) {
            for bin in row {
                write!(f, "{} ", bin.glyph())?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "yield {:.1}% ({} good / {} dies, {} hard, {} margin, {} touchdowns)",
            100.0 * self.yield_ratio(),
            self.count(Bin::Good),
            self.bins.len(),
            self.count(Bin::FailBist),
            self.count(Bin::FailMargin),
            self.touchdowns
        )
    }
}

/// Everything one die job produces; aggregated in die order afterwards.
struct DieOutcome {
    record: DieRecord,
    injected_hard: bool,
    injected_marginal: bool,
}

impl exec::PoolJob for WaferRunConfig {
    type Output = WaferReport;
    type Error = crate::MiniTesterError;

    /// Runs a full wafer through an array of real mini-testers: the one
    /// entry point for a wafer run.
    ///
    /// Each die gets a BIST pass/fail and, if it passes, an at-speed
    /// loopback margin test. Defects are injected per the configured rates
    /// (seeded, reproducible). Dies are fanned out over `pool`, one job per
    /// die; every die derives both its defect roll and its test-content
    /// seeds from die-indexed substreams, so the report is bit-identical
    /// for every thread count.
    fn run_on(&self, pool: &exec::ExecPool) -> Result<WaferReport> {
        run_wafer_inner(self, pool, 0, self.dies)
    }
}

impl WaferRunConfig {
    /// Probes only the dies `[die_start, die_start + die_count)` of the
    /// configured wafer.
    ///
    /// Defect rolls and test-content seeds are keyed on the *global* die
    /// index, so a range reproduces exactly the dies a full run would
    /// have produced; contiguous ranges concatenate (via
    /// [`WaferReport::from_parts`]) into a report byte-identical to one
    /// full run. The returned report's touchdown count is the full
    /// wafer's figure (it is geometry, not content), while the injected
    /// counts cover only the probed range. This is the shard entry point
    /// used by the `atd-farm` coordinator.
    ///
    /// # Errors
    ///
    /// [`crate::MiniTesterError::BadTestPlan`] if the range is empty or
    /// overruns the wafer; otherwise as [`exec::PoolJob::run_on`].
    pub fn run_dies_on(
        &self,
        pool: &exec::ExecPool,
        die_start: usize,
        die_count: usize,
    ) -> Result<WaferReport> {
        if die_count == 0 || die_start.checked_add(die_count).is_none_or(|end| end > self.dies) {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "wafer die range empty or past the wafer",
            });
        }
        run_wafer_inner(self, pool, die_start, die_count)
    }
}

fn run_wafer_inner(
    config: &WaferRunConfig,
    pool: &exec::ExecPool,
    die_start: usize,
    die_count: usize,
) -> Result<WaferReport> {
    let tree = SeedTree::new(config.seed);
    let defect_tree = tree.derive(WAFER_DEFECT_STREAM);
    let die_tree = tree.derive(WAFER_DIE_STREAM);
    let array = ProbeArray::new(config.sites);

    // One tester and one PRBS pattern serve every die and both plans (the
    // margin plan keeps the BIST plan's validated rate and length); each
    // die renders its own stimulus from the pattern with its own seed.
    let mut tester = MiniTester::new()?;
    let bist_plan = tester.prepare(&TestPlan::prbs_bist(config.rate, config.test_bits))?;
    let margin =
        TestPlan { min_eye_ui: 0.8, ..TestPlan::prbs_loopback(config.rate, config.test_bits) };
    let margin_plan = PreparedPlan { plan: margin, pattern: bist_plan.pattern.clone() };
    let tester = &tester;

    let outcome = pool.run(die_count, |job| -> Result<DieOutcome> {
        // Substreams key on the global die index, so a die range
        // reproduces the full run's dies bit-for-bit.
        let die = die_start + job;
        let die_id = die as u64; // xlint::allow(no-lossy-cast, die index widens losslessly to u64)

        // Build this die. Defect rolls come from a die-indexed substream
        // (not one sequential stream) so injection is order-free.
        let mut rng = defect_tree.channel(die_id).rng();
        let roll: f64 = rng.f64();
        let mut injected_hard = false;
        let mut injected_marginal = false;
        let dut = if roll < config.hard_defect_rate {
            injected_hard = true;
            WlpDut::good(WlpChannel::interposer())
                .with_defect(Defect::StuckInput { level: rng.bool() })
        } else if roll < config.hard_defect_rate + config.marginal_rate {
            injected_marginal = true;
            WlpDut::good(WlpChannel::degraded())
        } else {
            WlpDut::good(WlpChannel::interposer())
        };

        let per_die = die_tree.channel(die_id);
        let bist = tester.run_prepared(&dut, &bist_plan, per_die.stream("bist").seed())?;
        let (bin, eye_ui) = if !bist.passed() {
            (Bin::FailBist, None)
        } else {
            let margin =
                tester.run_prepared(&dut, &margin_plan, per_die.stream("margin").seed())?;
            let eye = margin.eye_ui.map(|u| u.value());
            if margin.passed() {
                (Bin::Good, eye)
            } else {
                (Bin::FailMargin, eye)
            }
        };
        Ok(DieOutcome {
            record: DieRecord { die, bin, bist_errors: bist.errors, eye_ui },
            injected_hard,
            injected_marginal,
        })
    })?;

    let mut bins = Vec::with_capacity(die_count);
    let mut records = Vec::with_capacity(die_count);
    let mut injected_hard = 0usize;
    let mut injected_marginal = 0usize;
    for die in outcome.results {
        let die = die?;
        injected_hard += usize::from(die.injected_hard);
        injected_marginal += usize::from(die.injected_marginal);
        bins.push(die.record.bin);
        records.push(die.record);
    }

    Ok(WaferReport {
        bins,
        records,
        columns: config.columns.max(1),
        touchdowns: array.touchdowns(config.dies),
        injected_hard,
        injected_marginal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::PoolJob;

    #[test]
    fn clean_wafer_yields_everything() {
        let config = WaferRunConfig {
            dies: 8,
            columns: 4,
            sites: 4,
            hard_defect_rate: 0.0,
            marginal_rate: 0.0,
            test_bits: 256,
            ..WaferRunConfig::default()
        };
        let report = config.run_on(&exec::ExecPool::from_env()).unwrap();
        assert_eq!(report.bins().len(), 8);
        assert_eq!(report.yield_ratio(), 1.0);
        assert_eq!(report.touchdowns(), 2);
        assert_eq!(report.injected_defects(), (0, 0));
    }

    #[test]
    fn defective_dies_are_binned_out() {
        let config = WaferRunConfig {
            dies: 12,
            columns: 4,
            sites: 4,
            hard_defect_rate: 0.5,
            marginal_rate: 0.0,
            test_bits: 256,
            seed: 5,
            ..WaferRunConfig::default()
        };
        let report = config.run_on(&exec::ExecPool::from_env()).unwrap();
        let (hard, _) = report.injected_defects();
        assert!(hard > 0, "the seed should inject some defects");
        assert_eq!(report.count(Bin::FailBist), hard, "every stuck die caught");
        assert!(report.yield_ratio() < 1.0);
    }

    #[test]
    fn marginal_dies_fail_the_margin_test_at_speed() {
        let config = WaferRunConfig {
            dies: 8,
            columns: 4,
            sites: 2,
            hard_defect_rate: 0.0,
            marginal_rate: 1.0, // every die marginal
            rate: DataRate::from_gbps(5.0),
            test_bits: 512,
            seed: 7,
        };
        let report = config.run_on(&exec::ExecPool::from_env()).unwrap();
        assert_eq!(report.count(Bin::Good), 0, "{report}");
        assert!(report.count(Bin::FailMargin) + report.count(Bin::FailBist) == 8);
    }

    #[test]
    fn wafer_map_renders() {
        let config = WaferRunConfig {
            dies: 16,
            columns: 4,
            sites: 8,
            hard_defect_rate: 0.3,
            test_bits: 256,
            seed: 11,
            ..WaferRunConfig::default()
        };
        let report = config.run_on(&exec::ExecPool::from_env()).unwrap();
        let map = report.to_string();
        assert!(map.contains("yield"));
        assert_eq!(map.lines().count(), 5); // 4 rows + summary
        assert!(map.contains('.') || map.contains('X'));
    }

    #[test]
    fn die_ranges_concatenate_to_the_full_wafer() {
        let config = WaferRunConfig {
            dies: 12,
            columns: 4,
            sites: 4,
            hard_defect_rate: 0.3,
            marginal_rate: 0.2,
            test_bits: 256,
            seed: 21,
            ..WaferRunConfig::default()
        };
        let pool = exec::ExecPool::new(2);
        let full = config.run_on(&pool).unwrap();
        for split in [1, 5, 11] {
            let lo = config.run_dies_on(&pool, 0, split).unwrap();
            let hi = config.run_dies_on(&pool, split, config.dies - split).unwrap();
            assert_eq!(lo.touchdowns(), full.touchdowns(), "geometry, not content");
            let mut records = lo.records().to_vec();
            records.extend_from_slice(hi.records());
            let (lo_hard, lo_marg) = lo.injected_defects();
            let (hi_hard, hi_marg) = hi.injected_defects();
            let merged = WaferReport::from_parts(
                records,
                config.columns,
                lo.touchdowns(),
                lo_hard + hi_hard,
                lo_marg + hi_marg,
            );
            assert_eq!(merged, full, "split at {split}");
            assert_eq!(merged.to_string(), full.to_string());
        }
    }

    #[test]
    fn out_of_range_die_ranges_rejected() {
        let config =
            WaferRunConfig { dies: 8, sites: 4, test_bits: 256, ..WaferRunConfig::default() };
        let pool = exec::ExecPool::new(1);
        assert!(config.run_dies_on(&pool, 0, 0).is_err());
        assert!(config.run_dies_on(&pool, 8, 1).is_err());
        assert!(config.run_dies_on(&pool, usize::MAX, 2).is_err());
    }

    #[test]
    fn reproducible_given_seed() {
        let config =
            WaferRunConfig { dies: 8, sites: 4, test_bits: 256, ..WaferRunConfig::default() };
        let a = config.run_on(&exec::ExecPool::from_env()).unwrap();
        let b = config.run_on(&exec::ExecPool::from_env()).unwrap();
        assert_eq!(a, b);
    }
}
