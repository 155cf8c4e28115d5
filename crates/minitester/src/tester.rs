//! The assembled mini-tester: datapath + DUT + capture, driven by a test
//! plan.
//!
//! This is the façade a production flow uses: describe a test (pattern,
//! rate, BIST mode, limits) and run it against a device; get back a
//! pass/fail with margins.

use core::fmt;

use pstime::{DataRate, UnitInterval};

use crate::capture::{EtCapture, EyeScanJob};
use crate::channel::WlpChannel;
use crate::datapath::{LanePattern, MiniTesterDatapath};
use crate::dut::{BistMode, WlpDut};
use crate::{MiniTesterError, Result};

/// A declarative test plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TestPlan {
    /// Stimulus rate.
    pub rate: DataRate,
    /// Pattern length in bits.
    pub n_bits: usize,
    /// BIST mode to exercise.
    pub mode: BistMode,
    /// Maximum acceptable bit errors.
    pub max_errors: usize,
    /// Minimum acceptable eye opening (only checked in loopback mode).
    pub min_eye_ui: f64,
}

impl TestPlan {
    /// A PRBS loopback plan at `rate`: zero errors allowed, eye ≥ 0.4 UI.
    pub fn prbs_loopback(rate: DataRate, n_bits: usize) -> Self {
        TestPlan { rate, n_bits, mode: BistMode::Loopback, max_errors: 0, min_eye_ui: 0.4 }
    }

    /// A PRBS on-die-checker plan at `rate`: zero errors allowed.
    pub fn prbs_bist(rate: DataRate, n_bits: usize) -> Self {
        TestPlan { rate, n_bits, mode: BistMode::PrbsChecker, max_errors: 0, min_eye_ui: 0.0 }
    }

    /// Checks, without booting anything, that a tester can run this plan:
    /// the plan's own limits, then
    /// [`MiniTesterDatapath::check_stimulus`] for its rate and length.
    ///
    /// # Errors
    ///
    /// [`MiniTesterError::BadTestPlan`] for fewer than 64 bits or an eye
    /// limit outside [0, 1] UI; otherwise as
    /// [`MiniTesterDatapath::check_stimulus`].
    pub fn validate(&self) -> Result<()> {
        if self.n_bits < 64 {
            return Err(MiniTesterError::BadTestPlan { reason: "need at least 64 bits" });
        }
        if !(0.0..=1.0).contains(&self.min_eye_ui) {
            return Err(MiniTesterError::BadTestPlan { reason: "eye limit must be in [0, 1] UI" });
        }
        MiniTesterDatapath::check_stimulus(self.rate, self.n_bits)
    }
}

/// The verdict and measurements of one plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TestOutcome {
    /// Bit errors observed.
    pub errors: usize,
    /// Bits compared.
    pub compared: usize,
    /// Measured eye opening (loopback mode only).
    pub eye_ui: Option<UnitInterval>,
    /// The plan's error limit.
    pub max_errors: usize,
    /// The plan's eye limit.
    pub min_eye_ui: f64,
}

impl TestOutcome {
    /// Whether the device met every limit.
    pub fn passed(&self) -> bool {
        if self.errors > self.max_errors {
            return false;
        }
        match self.eye_ui {
            Some(eye) => eye.value() >= self.min_eye_ui,
            None => true,
        }
    }
}

impl fmt::Display for TestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} errors / {} bits",
            if self.passed() { "PASS" } else { "FAIL" },
            self.errors,
            self.compared
        )?;
        if let Some(eye) = self.eye_ui {
            write!(f, ", eye {eye}")?;
        }
        Ok(())
    }
}

/// A complete mini-tester with a device in its probe socket.
///
/// # Examples
///
/// ```
/// use minitester::{Defect, MiniTester, TestPlan, WlpChannel, WlpDut};
/// use pstime::DataRate;
///
/// let mut tester = MiniTester::new()?;
/// tester.insert_dut(WlpDut::good(WlpChannel::interposer())
///     .with_defect(Defect::StuckInput { level: false }));
/// let outcome = tester.run(&TestPlan::prbs_bist(DataRate::from_gbps(2.5), 1_024), 5)?;
/// assert!(!outcome.passed()); // the defect is caught
/// # Ok::<(), minitester::MiniTesterError>(())
/// ```
#[derive(Debug)]
pub struct MiniTester {
    datapath: MiniTesterDatapath,
    capture: EtCapture,
    dut: WlpDut,
}

impl MiniTester {
    /// Boots a mini-tester with a good die behind a healthy interposer in
    /// the socket.
    ///
    /// # Errors
    ///
    /// Propagates DLC boot failures.
    pub fn new() -> Result<Self> {
        Ok(MiniTester {
            datapath: MiniTesterDatapath::new()?,
            capture: EtCapture::new(),
            dut: WlpDut::good(WlpChannel::interposer()),
        })
    }

    /// Replaces the device in the socket.
    pub fn insert_dut(&mut self, dut: WlpDut) {
        self.dut = dut;
    }

    /// The current DUT.
    pub fn dut(&self) -> &WlpDut {
        &self.dut
    }

    /// Runs one plan against the socketed device: [`prepare`](Self::prepare)
    /// then [`run_prepared`](Self::run_prepared).
    ///
    /// # Errors
    ///
    /// Propagates plan validation, datapath, and capture errors.
    pub fn run(&mut self, plan: &TestPlan, seed: u64) -> Result<TestOutcome> {
        let prepared = self.prepare(plan)?;
        self.run_prepared(&self.dut, &prepared, seed)
    }

    /// Validates `plan` and has the DLC generate its PRBS pattern. The
    /// pattern depends only on the plan's rate and length, so one
    /// prepared plan serves every die a wafer run probes.
    ///
    /// # Errors
    ///
    /// Propagates plan validation and DLC errors.
    pub fn prepare(&mut self, plan: &TestPlan) -> Result<PreparedPlan> {
        plan.validate()?;
        let pattern = self.datapath.prbs_pattern(plan.rate, plan.n_bits)?;
        Ok(PreparedPlan { plan: plan.clone(), pattern })
    }

    /// Runs a prepared plan against `dut`: renders the stimulus from the
    /// plan's pattern with `seed`, then checks the die in the plan's BIST
    /// mode. Needs no DLC state, so dies can share one tester.
    ///
    /// # Errors
    ///
    /// Propagates PECL rendering and capture errors.
    pub fn run_prepared(
        &self,
        dut: &WlpDut,
        prepared: &PreparedPlan,
        seed: u64,
    ) -> Result<TestOutcome> {
        let PreparedPlan { plan, pattern } = prepared;
        let stimulus = self.datapath.render(pattern, seed)?;
        let expected = pattern.bits();

        match plan.mode {
            BistMode::PrbsChecker => {
                let errors = dut.bist_check(&stimulus, plan.rate, expected, seed);
                Ok(TestOutcome {
                    errors,
                    compared: expected.len(),
                    eye_ui: None,
                    max_errors: plan.max_errors,
                    min_eye_ui: plan.min_eye_ui,
                })
            }
            BistMode::Loopback => {
                let returned = dut.loopback(&stimulus, plan.rate, plan.n_bits, seed);
                // The margin scan reads only which phases are clean. It
                // runs on this thread: a wafer run fans dies out over the
                // pool, and this scan runs inside one die's job.
                let scan = EyeScanJob {
                    capture: &self.capture,
                    wave: &returned,
                    rate: plan.rate,
                    expected,
                    seed,
                }
                .clean_phases()?;
                let eye = scan.opening_ui().ok();
                let errors = match scan.best_phase() {
                    Ok(phase) => {
                        let best =
                            rng::SeedTree::new(seed).stream("minitester.tester.best-phase").seed();
                        self.capture.capture_at(&returned, plan.rate, expected, phase, best)?.errors
                    }
                    Err(_) => expected.len(),
                };
                Ok(TestOutcome {
                    errors,
                    compared: expected.len(),
                    eye_ui: Some(eye.unwrap_or(UnitInterval::ZERO)),
                    max_errors: plan.max_errors,
                    min_eye_ui: plan.min_eye_ui,
                })
            }
        }
    }
}

/// A [`TestPlan`] with its PRBS pattern generated, from
/// [`MiniTester::prepare`].
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedPlan {
    pub(crate) plan: TestPlan,
    pub(crate) pattern: LanePattern,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dut::Defect;

    #[test]
    fn good_die_passes_loopback() {
        let mut tester = MiniTester::new().unwrap();
        let outcome =
            tester.run(&TestPlan::prbs_loopback(DataRate::from_gbps(2.5), 2_048), 1).unwrap();
        assert!(outcome.passed(), "{outcome}");
        assert_eq!(outcome.errors, 0);
        assert!(outcome.eye_ui.unwrap().value() > 0.4);
        assert!(outcome.to_string().starts_with("PASS"));
    }

    #[test]
    fn good_die_passes_bist_at_5gbps() {
        let mut tester = MiniTester::new().unwrap();
        let outcome = tester.run(&TestPlan::prbs_bist(DataRate::from_gbps(5.0), 2_048), 2).unwrap();
        assert!(outcome.passed(), "{outcome}");
        assert!(outcome.eye_ui.is_none());
    }

    #[test]
    fn stuck_input_is_caught() {
        let mut tester = MiniTester::new().unwrap();
        tester.insert_dut(
            WlpDut::good(WlpChannel::interposer()).with_defect(Defect::StuckInput { level: true }),
        );
        let outcome = tester.run(&TestPlan::prbs_bist(DataRate::from_gbps(2.5), 1_024), 3).unwrap();
        assert!(!outcome.passed());
        assert!(outcome.errors > 100);
        assert!(outcome.to_string().starts_with("FAIL"));
    }

    #[test]
    fn degraded_channel_fails_loopback_at_speed() {
        let mut tester = MiniTester::new().unwrap();
        tester.insert_dut(WlpDut::good(WlpChannel::degraded()));
        // At-speed margin test: require a 0.8 UI eye at 5 Gbps (the healthy
        // path delivers ~0.9 UI through loopback).
        let mut plan = TestPlan::prbs_loopback(DataRate::from_gbps(5.0), 2_048);
        plan.min_eye_ui = 0.8;
        let at_speed = tester.run(&plan, 4).unwrap();
        // The degraded path (double pass) either errors or closes the eye
        // below the 0.4 UI limit.
        assert!(!at_speed.passed(), "degraded channel passed?! {at_speed}");
        // At a gentle rate the same die passes: the defect is speed-related.
        let slow =
            tester.run(&TestPlan::prbs_loopback(DataRate::from_gbps(1.0), 2_048), 4).unwrap();
        assert!(slow.passed(), "slow retest failed: {slow}");
        assert_eq!(tester.dut().channel(), &WlpChannel::degraded());
    }

    #[test]
    fn plans_are_validated() {
        let mut tester = MiniTester::new().unwrap();
        let too_short =
            TestPlan { n_bits: 32, ..TestPlan::prbs_bist(DataRate::from_gbps(1.0), 32) };
        assert!(tester.run(&too_short, 0).is_err());
        let unaligned =
            TestPlan { n_bits: 100, ..TestPlan::prbs_bist(DataRate::from_gbps(1.0), 100) };
        assert!(tester.run(&unaligned, 0).is_err());
        let bad_eye = TestPlan {
            min_eye_ui: 2.0,
            ..TestPlan::prbs_loopback(DataRate::from_gbps(1.0), 1_024)
        };
        assert!(tester.run(&bad_eye, 0).is_err());
    }

    #[test]
    fn datapath_access_for_level_experiments() {
        let mut tester = MiniTester::new().unwrap();
        tester
            .datapath
            .set_levels(signal::LevelSet::pecl().with_swing(pstime::Millivolts::new(600)));
        let outcome =
            tester.run(&TestPlan::prbs_loopback(DataRate::from_gbps(2.5), 1_024), 6).unwrap();
        // Reduced swing still passes through a healthy channel.
        assert!(outcome.passed(), "{outcome}");
    }
}
