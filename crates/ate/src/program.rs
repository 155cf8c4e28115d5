//! Test programs: the classic ATE pattern / timing / levels triad.
//!
//! Conventional ATE organizes a test as a pattern (what bits), a timing set
//! (where edges and strobes go within the period), and a level set (what
//! voltages). The DLC+PECL system supports the same decomposition, which is
//! what lets it substitute for the big iron.

use pstime::{DataRate, Duration, Millivolts};
use signal::BitStream;

use crate::{AteError, Result};

/// The pattern portion of a test program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PatternPlan {
    /// PRBS-15 from the DLC LFSRs (`n_bits` total at the serial rate).
    Prbs {
        /// Total serialized bits.
        n_bits: usize,
    },
    /// A fixed serial pattern, repeated as needed.
    Fixed(BitStream),
    /// A `1010…` clock pattern.
    Clock {
        /// Total serialized bits.
        n_bits: usize,
    },
}

/// The timing portion: serial rate, strobe placement, and edge offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingPlan {
    /// The serial data rate.
    pub rate: DataRate,
    /// Receive-strobe offset into the bit period.
    pub strobe_offset: Duration,
    /// Additional programmed launch delay (through the verniers).
    pub launch_delay: Duration,
}

impl TimingPlan {
    /// Mid-bit strobing at `rate` with no extra launch delay.
    fn centered(rate: DataRate) -> Self {
        TimingPlan { rate, strobe_offset: rate.unit_interval() / 2, launch_delay: Duration::ZERO }
    }
}

/// The level portion: driver levels and comparator threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelPlan {
    /// Driver output levels.
    pub drive: signal::LevelSet,
    /// Receive comparator threshold.
    pub compare_threshold: Millivolts,
}

impl LevelPlan {
    /// Standard PECL levels with a mid-swing threshold.
    pub fn pecl() -> Self {
        let drive = signal::LevelSet::pecl();
        LevelPlan { compare_threshold: drive.mid(), drive }
    }
}

/// A complete test program.
///
/// # Examples
///
/// ```
/// use ate::TestProgram;
/// use pstime::DataRate;
///
/// let program = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 2_048);
/// assert!(program.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TestProgram {
    /// The pattern plan.
    pub pattern: PatternPlan,
    /// The timing plan.
    pub timing: TimingPlan,
    /// The level plan.
    pub levels: LevelPlan,
}

impl TestProgram {
    /// The paper's eye-measurement program: PRBS at `rate`, centered
    /// strobes, nominal PECL levels.
    pub fn prbs_eye(rate: DataRate, n_bits: usize) -> Self {
        TestProgram {
            pattern: PatternPlan::Prbs { n_bits },
            timing: TimingPlan::centered(rate),
            levels: LevelPlan::pecl(),
        }
    }

    /// A fixed-pattern program (e.g. the Fig. 6 word transmissions).
    pub fn fixed(pattern: BitStream, rate: DataRate) -> Self {
        TestProgram {
            pattern: PatternPlan::Fixed(pattern),
            timing: TimingPlan::centered(rate),
            levels: LevelPlan::pecl(),
        }
    }

    /// A clock-pattern program (used for level sweeps, Figs. 10–11).
    pub fn clock(rate: DataRate, n_bits: usize) -> Self {
        TestProgram {
            pattern: PatternPlan::Clock { n_bits },
            timing: TimingPlan::centered(rate),
            levels: LevelPlan::pecl(),
        }
    }

    /// Number of serialized bits the program produces.
    pub fn n_bits(&self) -> usize {
        match &self.pattern {
            PatternPlan::Prbs { n_bits } | PatternPlan::Clock { n_bits } => *n_bits,
            PatternPlan::Fixed(bits) => bits.len(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`AteError::BadProgram`] on empty patterns, strobes outside the bit
    /// period, or thresholds outside the drive swing.
    pub fn validate(&self) -> Result<()> {
        if self.n_bits() == 0 {
            return Err(AteError::BadProgram { reason: "empty pattern" });
        }
        let ui = self.timing.rate.unit_interval();
        if self.timing.strobe_offset.is_negative() || self.timing.strobe_offset >= ui {
            return Err(AteError::BadProgram { reason: "strobe outside the bit period" });
        }
        if self.timing.launch_delay.is_negative() {
            return Err(AteError::BadProgram { reason: "negative launch delay" });
        }
        let th = self.levels.compare_threshold;
        if th <= self.levels.drive.vol() || th >= self.levels.drive.voh() {
            return Err(AteError::BadProgram { reason: "threshold outside the drive swing" });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(TestProgram::prbs_eye(DataRate::from_gbps(2.5), 1024).validate().is_ok());
        assert!(TestProgram::clock(DataRate::from_gbps(1.25), 64).validate().is_ok());
        let fixed = TestProgram::fixed(BitStream::from_str_bits("1100"), DataRate::from_gbps(4.0));
        assert!(fixed.validate().is_ok());
        assert_eq!(fixed.n_bits(), 4);
    }

    #[test]
    fn invalid_programs_rejected() {
        let mut p = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 0);
        assert!(matches!(p.validate(), Err(AteError::BadProgram { reason: "empty pattern" })));
        p = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 64);
        p.timing.strobe_offset = Duration::from_ps(400);
        assert!(p.validate().is_err());
        p.timing.strobe_offset = Duration::from_ps(-1);
        assert!(p.validate().is_err());
        p = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 64);
        p.timing.launch_delay = Duration::from_ps(-5);
        assert!(p.validate().is_err());
        p = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 64);
        p.levels.compare_threshold = Millivolts::new(0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn centered_timing() {
        let t = TimingPlan::centered(DataRate::from_gbps(5.0));
        assert_eq!(t.strobe_offset, Duration::from_ps(100));
        assert_eq!(t.launch_delay, Duration::ZERO);
    }

    #[test]
    fn pecl_level_plan() {
        let l = LevelPlan::pecl();
        assert_eq!(l.compare_threshold, Millivolts::new(-1300));
        assert_eq!(l.drive.swing(), Millivolts::new(800));
    }

    #[test]
    fn n_bits_by_variant() {
        assert_eq!(TestProgram::prbs_eye(DataRate::from_gbps(1.0), 77).n_bits(), 77);
        assert_eq!(TestProgram::clock(DataRate::from_gbps(1.0), 12).n_bits(), 12);
    }
}
