//! RF clock source and fanout distribution.
//!
//! "An RF clock source (usually an external instrument) provides a low-jitter
//! (picosecond) timing reference. This serves as both a master clock … and as
//! a reference for all timing-critical signals" (§1). The fanout buffer then
//! distributes it to the mux tree with per-output skew — the skew the
//! calibration layer in `ate` must null out.

use pstime::{Duration, Frequency};
use signal::jitter::JitterBudget;
use signal::{BitStream, DigitalWaveform};

/// A low-jitter RF reference clock (the external instrument in Fig. 1).
///
/// # Examples
///
/// ```
/// use pecl::RfClockSource;
/// use pstime::{Duration, Frequency};
///
/// let rf = RfClockSource::new(Frequency::from_ghz(1.25), Duration::from_ps_f64(1.0));
/// let clk = rf.generate(16, 0);
/// assert_eq!(clk.num_edges(), 31); // 16 cycles = 32 half-periods
/// ```
#[derive(Debug)]
pub struct RfClockSource {
    freq: Frequency,
    rj_rms: Duration,
}

impl RfClockSource {
    /// Creates a reference at `freq` with Gaussian phase jitter `rj_rms`.
    ///
    /// # Panics
    ///
    /// Panics if `rj_rms` is negative.
    pub fn new(freq: Frequency, rj_rms: Duration) -> Self {
        assert!(!rj_rms.is_negative(), "clock jitter must be nonnegative");
        RfClockSource { freq, rj_rms }
    }

    /// The output frequency.
    pub fn frequency(&self) -> Frequency {
        self.freq
    }

    /// The phase-jitter rms.
    pub fn rj_rms(&self) -> Duration {
        self.rj_rms
    }

    /// Generates `cycles` clock cycles as a digital waveform starting at
    /// [`pstime::Instant::ZERO`], with phase jitter applied per edge.
    pub fn generate(&self, cycles: usize, seed: u64) -> DigitalWaveform {
        // A clock is an alternating bit pattern at twice the frequency.
        let bits = BitStream::alternating(cycles * 2);
        let half_rate = pstime::DataRate::from_bps(self.freq.as_hz() * 2);
        let budget = JitterBudget::new().with_model(signal::jitter::RandomJitter::new(self.rj_rms));
        DigitalWaveform::from_bits(&bits, half_rate, &budget, seed)
    }

    /// The jitter model this source contributes to a chain budget.
    pub fn jitter_budget(&self) -> JitterBudget {
        JitterBudget::new().with_model(signal::jitter::RandomJitter::new(self.rj_rms))
    }
}

/// A clock fanout/distribution buffer: N copies of the input, each with a
/// fixed skew and a small additive random jitter.
///
/// # Examples
///
/// ```
/// use pecl::{ClockFanout, RfClockSource};
/// use pstime::{Duration, Frequency};
///
/// let fanout = ClockFanout::new(4, Duration::from_ps_f64(0.5));
/// assert_eq!(fanout.outputs(), 4);
/// // Output 2 inherits its calibrated skew.
/// let skew = fanout.skew(2);
/// assert!(skew.abs() <= Duration::from_ps(30));
/// ```
#[derive(Debug, Clone)]
pub struct ClockFanout {
    skews: Vec<Duration>,
    added_rj: Duration,
}

impl ClockFanout {
    /// Creates a fanout with `outputs` legs and per-leg additive jitter
    /// `added_rj`. Leg skews default to a deterministic spread of ±25 ps —
    /// the uncalibrated part-to-part variation the paper's ±25 ps accuracy
    /// figure is about.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is zero or `added_rj` negative.
    pub fn new(outputs: usize, added_rj: Duration) -> Self {
        assert!(outputs > 0, "fanout needs at least one output");
        assert!(!added_rj.is_negative(), "added jitter must be nonnegative");
        // Deterministic pseudo-random skews in [-25, +25] ps.
        let skews = (0..outputs)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                let frac = (h % 51) as i64 - 25; // -25..=25
                Duration::from_ps(frac)
            })
            .collect();
        ClockFanout { skews, added_rj }
    }

    /// Number of output legs.
    pub fn outputs(&self) -> usize {
        self.skews.len()
    }

    /// The skew of output `leg`.
    ///
    /// # Panics
    ///
    /// Panics if `leg` is out of range.
    pub fn skew(&self, leg: usize) -> Duration {
        self.skews[leg]
    }

    /// Overrides the skew of output `leg` (what deskew calibration does via
    /// the delay verniers upstream).
    ///
    /// # Panics
    ///
    /// Panics if `leg` is out of range.
    pub fn set_skew(&mut self, leg: usize, skew: Duration) {
        self.skews[leg] = skew;
    }

    /// The additive per-leg random jitter.
    pub fn added_rj(&self) -> Duration {
        self.added_rj
    }

    /// Distributes `clock` to output `leg`: skewed copy (jitter is
    /// accounted in the chain budget rather than re-sampled per edge, which
    /// is the standard budgeting treatment for distribution buffers).
    ///
    /// # Panics
    ///
    /// Panics if `leg` is out of range.
    pub fn distribute(&self, clock: &DigitalWaveform, leg: usize) -> DigitalWaveform {
        clock.delayed(self.skews[leg])
    }

    /// Worst-case leg-to-leg skew.
    pub fn max_skew_spread(&self) -> Duration {
        let min = self.skews.iter().copied().min().unwrap_or(Duration::ZERO);
        let max = self.skews.iter().copied().max().unwrap_or(Duration::ZERO);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::Instant;

    /// The mean period of a clock waveform, from its rising edges.
    fn measure_period(clock: &DigitalWaveform) -> Option<Duration> {
        let rising: Vec<Instant> = clock
            .edges()
            .iter()
            .filter(|e| e.polarity == signal::EdgePolarity::Rising)
            .map(|e| e.at)
            .collect();
        if rising.len() < 2 {
            return None;
        }
        let total = rising[rising.len() - 1] - rising[0];
        Some(total / (rising.len() as i64 - 1))
    }

    #[test]
    fn clock_generation_period() {
        let rf = RfClockSource::new(Frequency::from_ghz(1.25), Duration::ZERO);
        let clk = rf.generate(64, 0);
        assert_eq!(clk.num_edges(), 127);
        let period = measure_period(&clk).unwrap();
        assert_eq!(period, Duration::from_ps(800));
        assert_eq!(rf.frequency(), Frequency::from_ghz(1.25));
    }

    #[test]
    fn clock_jitter_applied() {
        let rf = RfClockSource::new(Frequency::from_ghz(2.5), Duration::from_ps(1));
        assert_eq!(rf.rj_rms(), Duration::from_ps(1));
        let clk = rf.generate(1000, 3);
        // Mean period still correct.
        let period = measure_period(&clk).unwrap();
        assert!((period - Duration::from_ps(400)).abs() < Duration::from_ps(1));
        // But edges deviate from the ideal grid.
        let off_grid = clk.edges().iter().filter(|e| e.at.as_fs() % 200_000 != 0).count();
        assert!(off_grid > clk.num_edges() / 2);
    }

    #[test]
    fn clock_is_seed_deterministic() {
        let rf = RfClockSource::new(Frequency::from_ghz(1.25), Duration::from_ps(1));
        assert_eq!(rf.generate(32, 5), rf.generate(32, 5));
        assert_ne!(rf.generate(32, 5), rf.generate(32, 6));
    }

    #[test]
    fn fanout_skews_are_bounded_and_deterministic() {
        let f = ClockFanout::new(8, Duration::from_ps_f64(0.5));
        assert_eq!(f.outputs(), 8);
        for leg in 0..8 {
            assert!(f.skew(leg).abs() <= Duration::from_ps(25));
        }
        let f2 = ClockFanout::new(8, Duration::from_ps_f64(0.5));
        for leg in 0..8 {
            assert_eq!(f.skew(leg), f2.skew(leg));
        }
        assert!(f.max_skew_spread() <= Duration::from_ps(50));
        assert_eq!(f.added_rj(), Duration::from_ps_f64(0.5));
    }

    #[test]
    fn distribute_applies_skew() {
        let rf = RfClockSource::new(Frequency::from_ghz(1.25), Duration::ZERO);
        let clk = rf.generate(4, 0);
        let mut fanout = ClockFanout::new(2, Duration::ZERO);
        fanout.set_skew(1, Duration::from_ps(30));
        let leg = fanout.distribute(&clk, 1);
        assert_eq!(leg.edges()[0].at - clk.edges()[0].at, Duration::from_ps(30));
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn zero_outputs_panics() {
        let _ = ClockFanout::new(0, Duration::ZERO);
    }
}
