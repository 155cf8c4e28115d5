//! Electro-optic and opto-electronic conversion.
//!
//! The test bed's electrical signals "control laser drivers which converted
//! the signals to light pulses of differing wavelengths. The optical
//! signals are combined at the transmitting end, and optically split at the
//! receiving end" (§1, §3). The models here carry the impairments that
//! matter to the receiver's eye: finite extinction ratio, insertion loss,
//! receiver responsivity, and additive receiver noise.

use pstime::{Instant, Millivolts};
use rng::{Rng, SeedTree, StreamId};
use signal::AnalogWaveform;
use vortex::Wavelength;

/// An optical on-off-keyed signal on one wavelength: power as a function of
/// time, derived from the driving electrical waveform.
///
/// Power is expressed in microwatts; the mapping is linear between the
/// "off" power (set by the extinction ratio) and the "on" power.
#[derive(Debug, Clone)]
pub struct OpticalSignal {
    electrical: AnalogWaveform,
    wavelength: Wavelength,
    p_on_uw: f64,
    p_off_uw: f64,
}

impl OpticalSignal {
    /// Modulates `electrical` onto `wavelength` with peak power `p_on_uw`
    /// (µW) and extinction ratio `er` (linear, > 1).
    ///
    /// # Panics
    ///
    /// Panics if `p_on_uw` is not positive or `er <= 1`.
    pub fn modulate(
        electrical: AnalogWaveform,
        wavelength: Wavelength,
        p_on_uw: f64,
        er: f64,
    ) -> Self {
        assert!(p_on_uw > 0.0, "on power must be positive");
        assert!(er > 1.0, "extinction ratio must exceed 1");
        OpticalSignal { electrical, wavelength, p_on_uw, p_off_uw: p_on_uw / er }
    }

    /// The carrier wavelength.
    pub fn wavelength(&self) -> Wavelength {
        self.wavelength
    }

    /// Peak ("on") power in µW.
    pub fn p_on_uw(&self) -> f64 {
        self.p_on_uw
    }

    /// Residual ("off") power in µW.
    fn p_off_uw(&self) -> f64 {
        self.p_off_uw
    }

    /// Extinction ratio (linear).
    pub fn extinction_ratio(&self) -> f64 {
        self.p_on_uw / self.p_off_uw
    }

    /// Instantaneous optical power (µW) at `t`.
    fn power_at(&self, t: Instant) -> f64 {
        let levels = self.electrical.levels();
        let lo = levels.vol().as_f64();
        let hi = levels.voh().as_f64();
        let v = self.electrical.value_at(t);
        let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        self.p_off_uw + frac * (self.p_on_uw - self.p_off_uw)
    }

    /// Applies an insertion loss (linear factor `0 < loss ≤ 1`) — a
    /// splitter, combiner, or fiber segment.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `(0, 1]`.
    #[must_use]
    pub fn attenuated(&self, loss: f64) -> OpticalSignal {
        assert!(loss > 0.0 && loss <= 1.0, "loss factor must be in (0, 1]");
        OpticalSignal {
            electrical: self.electrical.clone(),
            wavelength: self.wavelength,
            p_on_uw: self.p_on_uw * loss,
            p_off_uw: self.p_off_uw * loss,
        }
    }

    /// The driving electrical waveform (for timing reference).
    pub fn electrical(&self) -> &AnalogWaveform {
        &self.electrical
    }
}

/// A WDM link: multiple wavelengths sharing one fiber, with per-element
/// insertion losses for the combiner and splitter.
#[derive(Debug, Clone)]
pub struct WdmLink {
    channels: Vec<OpticalSignal>,
    combiner_loss: f64,
    splitter_loss: f64,
}

impl WdmLink {
    /// Builds a link from per-wavelength signals with the given combiner
    /// and splitter losses (linear factors).
    ///
    /// # Panics
    ///
    /// Panics if any loss is outside `(0, 1]` or wavelengths collide.
    pub fn new(channels: Vec<OpticalSignal>, combiner_loss: f64, splitter_loss: f64) -> Self {
        assert!(combiner_loss > 0.0 && combiner_loss <= 1.0, "combiner loss in (0, 1]");
        assert!(splitter_loss > 0.0 && splitter_loss <= 1.0, "splitter loss in (0, 1]");
        let mut seen = std::collections::BTreeSet::new();
        for ch in &channels {
            assert!(seen.insert(ch.wavelength()), "duplicate wavelength {}", ch.wavelength());
        }
        WdmLink { channels, combiner_loss, splitter_loss }
    }

    /// Number of wavelength channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Demultiplexes one wavelength at the receiving end, including the
    /// combiner and splitter losses.
    ///
    /// Returns `None` for an absent wavelength.
    pub fn drop_channel(&self, wavelength: Wavelength) -> Option<OpticalSignal> {
        self.channels
            .iter()
            .find(|c| c.wavelength() == wavelength)
            .map(|c| c.attenuated(self.combiner_loss * self.splitter_loss))
    }
}

/// A photodetector + transimpedance receiver: converts optical power back
/// to an electrical level with responsivity and additive Gaussian noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Photodetector {
    responsivity_mv_per_uw: f64,
    noise_rms_mv: f64,
    threshold: Millivolts,
}

impl Photodetector {
    /// Creates a detector with `responsivity_mv_per_uw` (electrical mV out
    /// per optical µW in) and `noise_rms_mv` additive noise.
    ///
    /// # Panics
    ///
    /// Panics if responsivity is not positive or noise is negative.
    pub fn new(responsivity_mv_per_uw: f64, noise_rms_mv: f64) -> Self {
        assert!(responsivity_mv_per_uw > 0.0, "responsivity must be positive");
        assert!(noise_rms_mv >= 0.0, "noise must be nonnegative");
        Photodetector { responsivity_mv_per_uw, noise_rms_mv, threshold: Millivolts::ZERO }
    }

    /// A typical test-bed receiver: 2 mV/µW, 4 mV rms noise.
    pub fn testbed() -> Self {
        Photodetector::new(2.0, 4.0)
    }

    /// Sets the decision threshold (mV of detected signal).
    pub fn set_threshold(&mut self, threshold: Millivolts) {
        self.threshold = threshold;
    }

    /// The decision threshold.
    pub fn threshold(&self) -> Millivolts {
        self.threshold
    }

    /// The detected electrical level (mV) for an optical signal at `t`,
    /// noise-free.
    fn detect_mv(&self, signal: &OpticalSignal, t: Instant) -> f64 {
        signal.power_at(t) * self.responsivity_mv_per_uw
    }

    /// Hard decision at `t` with noise drawn from `rng`.
    pub fn decide(&self, signal: &OpticalSignal, t: Instant, rng: &mut Rng) -> bool {
        let noise = if self.noise_rms_mv == 0.0 { 0.0 } else { rng.gaussian() * self.noise_rms_mv };
        self.detect_mv(signal, t) + noise >= self.threshold.as_f64()
    }

    /// Chooses the optimal threshold for an OOK signal: midway between the
    /// detected on and off levels.
    pub fn auto_threshold(&mut self, signal: &OpticalSignal) {
        let hi = signal.p_on_uw() * self.responsivity_mv_per_uw;
        let lo = signal.p_off_uw() * self.responsivity_mv_per_uw;
        self.threshold = Millivolts::new(((hi + lo) / 2.0).round() as i32);
    }
}

/// Substream identity for receiver/photodetector noise.
pub const RX_NOISE_STREAM: StreamId = StreamId::named("testbed.optics.rx-noise");

/// Deterministic seeded RNG for receiver noise.
pub fn noise_rng(seed: u64) -> Rng {
    SeedTree::new(seed).derive(RX_NOISE_STREAM).rng()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::{DataRate, Duration};
    use signal::jitter::NoJitter;
    use signal::{BitStream, DigitalWaveform, EdgeShape, LevelSet};

    /// An optical signal around a settled electrical level: a constant
    /// waveform at VOH or VOL.
    fn constant_optical(level_high: bool, wavelength: Wavelength) -> OpticalSignal {
        let d = DigitalWaveform::constant(
            level_high,
            Instant::ZERO,
            Instant::ZERO + Duration::from_ns(100),
        );
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        OpticalSignal::modulate(a, wavelength, 500.0, 10.0)
    }

    fn electrical(bits: &str) -> AnalogWaveform {
        AnalogWaveform::new(
            DigitalWaveform::from_bits(
                &BitStream::from_str_bits(bits),
                DataRate::from_gbps(2.5),
                &NoJitter,
                0,
            ),
            LevelSet::pecl(),
            EdgeShape::default(),
        )
    }

    #[test]
    fn modulation_maps_levels_to_power() {
        let sig = OpticalSignal::modulate(electrical("0011"), Wavelength(2), 500.0, 10.0);
        assert_eq!(sig.wavelength(), Wavelength(2));
        assert!((sig.extinction_ratio() - 10.0).abs() < 1e-9);
        // Settled low -> off power; settled high -> on power.
        assert!((sig.power_at(Instant::from_ps(200)) - 50.0).abs() < 1.0);
        assert!((sig.power_at(Instant::from_ps(1400)) - 500.0).abs() < 1.0);
        assert!(sig.electrical().levels().swing().as_mv() > 0);
    }

    #[test]
    fn attenuation_scales_power() {
        let sig = OpticalSignal::modulate(electrical("1"), Wavelength(0), 400.0, 8.0);
        let half = sig.attenuated(0.5);
        assert!((half.p_on_uw() - 200.0).abs() < 1e-9);
        assert!((half.p_off_uw() - 25.0).abs() < 1e-9);
        // ER preserved.
        assert!((half.extinction_ratio() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn wdm_link_combines_and_drops() {
        let a = OpticalSignal::modulate(electrical("1111"), Wavelength(0), 500.0, 10.0);
        let b = OpticalSignal::modulate(electrical("0000"), Wavelength(1), 500.0, 10.0);
        let link = WdmLink::new(vec![a, b], 0.8, 0.5);
        assert_eq!(link.num_channels(), 2);
        // Dropping λ0 applies both losses: 500 * 0.8 * 0.5 = 200.
        let dropped = link.drop_channel(Wavelength(0)).unwrap();
        assert!((dropped.p_on_uw() - 200.0).abs() < 1e-9);
        assert!(link.drop_channel(Wavelength(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate wavelength")]
    fn duplicate_wavelengths_panic() {
        let a = constant_optical(true, Wavelength(0));
        let b = constant_optical(false, Wavelength(0));
        let _ = WdmLink::new(vec![a, b], 1.0, 1.0);
    }

    #[test]
    fn photodetection_and_decisions() {
        let sig = OpticalSignal::modulate(electrical("0011"), Wavelength(0), 500.0, 10.0);
        let mut pd = Photodetector::testbed();
        pd.auto_threshold(&sig);
        // Threshold midway between 1000 mV (on) and 100 mV (off).
        assert_eq!(pd.threshold(), Millivolts::new(550));
        let mut rng = noise_rng(1);
        assert!(!pd.decide(&sig, Instant::from_ps(200), &mut rng));
        assert!(pd.decide(&sig, Instant::from_ps(1400), &mut rng));
        // Detected level follows responsivity.
        assert!((pd.detect_mv(&sig, Instant::from_ps(1400)) - 1000.0).abs() < 2.0);
    }

    #[test]
    fn noisy_decisions_flip_near_threshold() {
        // Off-level power detected right at the threshold: noise decides.
        let sig = OpticalSignal::modulate(electrical("0000"), Wavelength(0), 500.0, 10.0);
        let mut pd = Photodetector::new(2.0, 10.0);
        pd.set_threshold(Millivolts::new(100)); // exactly the off level
        let mut rng = noise_rng(3);
        let decisions: Vec<bool> =
            (0..100).map(|_| pd.decide(&sig, Instant::from_ps(600), &mut rng)).collect();
        let highs = decisions.iter().filter(|d| **d).count();
        assert!(highs > 20 && highs < 80, "expected ~50/50 split, got {highs}");
    }

    #[test]
    #[should_panic(expected = "extinction ratio must exceed 1")]
    fn bad_er_panics() {
        let _ = OpticalSignal::modulate(electrical("0"), Wavelength(0), 100.0, 1.0);
    }
}
