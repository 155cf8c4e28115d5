//! Programmable delay verniers: 10 ps resolution over a 10 ns range.
//!
//! "The relative timing for leading and trailing edges … must be controlled
//! with 10 ps resolution in the Optical Test Bed. A 10 ns range for the
//! placement of these edges is also required" (§3). The mini-tester's
//! strobe placement uses the same parts (§4).
//!
//! Real delay lines are not perfectly linear; the model includes a
//! deterministic integral-nonlinearity (INL) curve so the calibration layer
//! in `ate` has something real to calibrate out.

use pstime::Duration;
use signal::DigitalWaveform;

use crate::{PeclError, Result};

/// A programmable delay line: `codes` settings of `step` each, with a
/// sinusoidal INL of `inl_peak`.
///
/// # Examples
///
/// ```
/// use pecl::ProgrammableDelayLine;
/// use pstime::Duration;
///
/// let mut delay = ProgrammableDelayLine::standard();
/// assert_eq!(delay.step(), Duration::from_ps(10));
/// assert_eq!(delay.range(), Duration::from_ps(10_240));
/// delay.set_code(40)?;
/// // 40 steps of 10 ps, within the ±2 ps INL band.
/// let actual = delay.actual_delay();
/// assert!((actual - Duration::from_ps(400)).abs() <= Duration::from_ps(2));
/// # Ok::<(), pecl::PeclError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProgrammableDelayLine {
    step: Duration,
    codes: u32,
    code: u32,
    inl_peak: Duration,
    insertion_delay: Duration,
}

impl ProgrammableDelayLine {
    /// Creates a delay line.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive, `codes` is zero, or `inl_peak` is
    /// negative.
    pub fn new(step: Duration, codes: u32, inl_peak: Duration, insertion_delay: Duration) -> Self {
        assert!(step > Duration::ZERO, "delay step must be positive");
        assert!(codes > 0, "delay line needs at least one code");
        assert!(!inl_peak.is_negative(), "INL peak must be nonnegative");
        ProgrammableDelayLine { step, codes, code: 0, inl_peak, insertion_delay }
    }

    /// The paper's vernier: 10 ps steps, 1024 codes (10.24 ns > the 10 ns
    /// requirement), ±2 ps INL, 1.2 ns insertion delay.
    pub fn standard() -> Self {
        ProgrammableDelayLine::new(
            Duration::from_ps(10),
            1024,
            Duration::from_ps(2),
            Duration::from_ps(1200),
        )
    }

    /// The programmed step size.
    pub fn step(&self) -> Duration {
        self.step
    }

    /// Number of valid codes.
    pub fn codes(&self) -> u32 {
        self.codes
    }

    /// Full programmable range (`codes × step`).
    pub fn range(&self) -> Duration {
        self.step * self.codes as i64 // xlint::allow(no-lossy-cast, u32 code count widens losslessly into i64)
    }

    /// The current code.
    pub fn code(&self) -> u32 {
        self.code
    }

    /// The fixed insertion delay (code 0 latency).
    pub fn insertion_delay(&self) -> Duration {
        self.insertion_delay
    }

    /// Programs a raw code.
    ///
    /// # Errors
    ///
    /// [`PeclError::DelayCodeOutOfRange`] beyond the last code.
    pub fn set_code(&mut self, code: u32) -> Result<()> {
        if code >= self.codes {
            return Err(PeclError::DelayCodeOutOfRange { code, codes: self.codes });
        }
        self.code = code;
        Ok(())
    }

    /// Programs the nearest code to a requested delay (relative to the
    /// insertion delay).
    ///
    /// Returns the code chosen.
    ///
    /// # Errors
    ///
    /// [`PeclError::DelayOutOfRange`] if the request exceeds the range.
    pub fn set_delay(&mut self, delay: Duration) -> Result<u32> {
        if delay.is_negative() || delay > self.range() {
            return Err(PeclError::DelayOutOfRange {
                requested_ps: delay.as_ps_f64(),
                range_ps: self.range().as_ps_f64(),
            });
        }
        let code = (delay.as_fs() + self.step.as_fs() / 2) / self.step.as_fs();
        let code = (code as u32).min(self.codes - 1); // xlint::allow(no-lossy-cast, code is a nonnegative fs quotient already clamped below self.codes)
        self.code = code;
        Ok(code)
    }

    /// The ideal (linear) delay of the current code, excluding insertion
    /// delay.
    pub fn nominal_delay(&self) -> Duration {
        self.step * self.code as i64 // xlint::allow(no-lossy-cast, u32 code widens losslessly into i64)
    }

    /// The *actual* delay of the current code: nominal + INL, excluding
    /// insertion delay. The INL is a fixed sinusoid over the code range —
    /// deterministic per part, as in real verniers.
    pub fn actual_delay(&self) -> Duration {
        self.nominal_delay() + self.inl_at(self.code)
    }

    /// The INL error at a given code.
    fn inl_at(&self, code: u32) -> Duration {
        let phase = 2.0 * core::f64::consts::PI * code as f64 / self.codes as f64; // xlint::allow(no-lossy-cast, u32 code and count convert exactly to f64)
        self.inl_peak.mul_f64(phase.sin())
    }

    /// Applies the current setting to a waveform: insertion + actual delay.
    pub fn apply(&self, wave: &DigitalWaveform) -> DigitalWaveform {
        wave.delayed(self.insertion_delay + self.actual_delay())
    }
}

impl Default for ProgrammableDelayLine {
    fn default() -> Self {
        ProgrammableDelayLine::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::{DataRate, Instant};
    use signal::jitter::NoJitter;
    use signal::BitStream;

    #[test]
    fn standard_meets_paper_spec() {
        let d = ProgrammableDelayLine::standard();
        assert_eq!(d.step(), Duration::from_ps(10));
        assert!(d.range() >= Duration::from_ns(10), "range {} >= 10 ns", d.range());
        assert_eq!(d.codes(), 1024);
        let max_inl = (0..d.codes()).map(|c| d.inl_at(c).abs()).max().unwrap();
        assert!(max_inl <= Duration::from_ps(2));
        assert_eq!(d.insertion_delay(), Duration::from_ps(1200));
        assert_eq!(ProgrammableDelayLine::default(), d);
    }

    #[test]
    fn code_programming() {
        let mut d = ProgrammableDelayLine::standard();
        d.set_code(100).unwrap();
        assert_eq!(d.code(), 100);
        assert_eq!(d.nominal_delay(), Duration::from_ps(1000));
        assert!(matches!(
            d.set_code(1024),
            Err(PeclError::DelayCodeOutOfRange { code: 1024, codes: 1024 })
        ));
    }

    #[test]
    fn delay_programming_rounds_to_step() {
        let mut d = ProgrammableDelayLine::standard();
        let code = d.set_delay(Duration::from_ps(404)).unwrap();
        assert_eq!(code, 40);
        let code = d.set_delay(Duration::from_ps(406)).unwrap();
        assert_eq!(code, 41);
        assert!(d.set_delay(Duration::from_ns(11)).is_err());
        assert!(d.set_delay(Duration::from_ps(-10)).is_err());
        // Full-range request maps to the top code.
        let code = d.set_delay(d.range()).unwrap();
        assert_eq!(code, 1023);
    }

    #[test]
    fn inl_is_bounded_and_repeatable() {
        let d = ProgrammableDelayLine::standard();
        for code in [0u32, 17, 255, 256, 511, 767, 1023] {
            assert!(d.inl_at(code).abs() <= Duration::from_ps(2));
        }
        // Deterministic per part.
        let d2 = ProgrammableDelayLine::standard();
        assert_eq!(d.inl_at(300), d2.inl_at(300));
        // Peak near quarter range.
        assert!(d.inl_at(256).abs() >= Duration::from_ps(1));
    }

    #[test]
    fn dnl_is_small() {
        let d = ProgrammableDelayLine::standard();
        for code in 1..1024 {
            let dnl = (d.inl_at(code) - d.inl_at(code - 1)).abs();
            assert!(dnl < Duration::from_ps(1), "DNL at {code}");
        }
    }

    #[test]
    fn monotonicity() {
        // INL of ±2 ps on 10 ps steps can never reorder codes.
        let d = ProgrammableDelayLine::standard();
        let mut prev = Duration::from_ps(-1);
        for code in 0..1024 {
            let mut probe = d.clone();
            probe.set_code(code).unwrap();
            let delay = probe.actual_delay();
            assert!(delay > prev, "non-monotonic at code {code}");
            prev = delay;
        }
    }

    #[test]
    fn apply_shifts_waveform() {
        let rate = DataRate::from_gbps(2.5);
        let w = DigitalWaveform::from_bits(&BitStream::from_str_bits("10"), rate, &NoJitter, 0);
        let mut d = ProgrammableDelayLine::new(
            Duration::from_ps(10),
            100,
            Duration::ZERO,
            Duration::from_ps(1000),
        );
        d.set_code(5).unwrap();
        let shifted = d.apply(&w);
        assert_eq!(shifted.edges()[0].at, Instant::from_ps(400 + 1000 + 50));
    }

    #[test]
    fn edge_placement_resolution_experiment() {
        // The SUMMARY experiment: sweep codes, confirm 10 ps placement with
        // <= 2 ps INL error — i.e. ±25 ps accuracy claim holds trivially.
        let mut d = ProgrammableDelayLine::standard();
        let mut worst = Duration::ZERO;
        for code in 0..1024 {
            d.set_code(code).unwrap();
            let err = (d.actual_delay() - d.nominal_delay()).abs();
            worst = worst.max(err);
        }
        assert!(worst <= Duration::from_ps(2));
    }
}
