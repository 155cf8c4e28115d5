//! The strobed picosecond sampling circuit.
//!
//! "A high-speed PECL sampling circuit is designed to capture the returned
//! signal, also with 10 ps resolution" (§1, §4). The sampler compares the
//! input against a programmable threshold at strobe instants placed by a
//! delay vernier; sweeping the strobe across the bit period reconstructs
//! the eye in equivalent time — exactly how the mini-tester measures a DUT
//! without a bench oscilloscope.

use pstime::{DataRate, Duration, Instant, Millivolts};
use rng::{GaussPair, Rng, SeedTree, StreamId};
use signal::{AnalogWaveform, BitStream};

/// Substream identity for capture aperture-jitter draws.
pub const SAMPLER_STREAM: StreamId = StreamId::named("pecl.sampler");

/// A strobed comparator sampler with programmable threshold and aperture
/// jitter.
///
/// # Examples
///
/// ```
/// use pecl::StrobedSampler;
/// use pstime::{DataRate, Duration, Instant, Millivolts};
/// use signal::jitter::NoJitter;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::from_str_bits("1011");
/// let wave = AnalogWaveform::new(
///     DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0),
///     LevelSet::pecl(),
///     EdgeShape::default(),
/// );
/// let sampler = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
/// let captured = sampler.capture(&wave, rate, Duration::from_ps(200), 4, 1);
/// assert_eq!(captured, bits);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrobedSampler {
    threshold: Millivolts,
    aperture_rj: Duration,
    input_offset: Millivolts,
}

impl StrobedSampler {
    /// Creates a sampler with a decision threshold and Gaussian aperture
    /// jitter.
    ///
    /// # Panics
    ///
    /// Panics if `aperture_rj` is negative.
    pub fn new(threshold: Millivolts, aperture_rj: Duration) -> Self {
        assert!(!aperture_rj.is_negative(), "aperture jitter must be nonnegative");
        StrobedSampler { threshold, aperture_rj, input_offset: Millivolts::ZERO }
    }

    /// The mini-tester's capture comparator: mid-PECL threshold, 2 ps
    /// aperture jitter.
    pub fn minitester() -> Self {
        StrobedSampler::new(Millivolts::new(-1300), Duration::from_ps(2))
    }

    /// The decision threshold.
    pub fn threshold(&self) -> Millivolts {
        self.threshold
    }

    /// Reprograms the decision threshold (the vertical axis of a shmoo).
    pub fn set_threshold(&mut self, threshold: Millivolts) {
        self.threshold = threshold;
    }

    /// The aperture jitter rms.
    pub fn aperture_rj(&self) -> Duration {
        self.aperture_rj
    }

    /// Comparator input-referred offset (defaults to zero; settable for
    /// fault-injection studies).
    pub fn input_offset(&self) -> Millivolts {
        self.input_offset
    }

    /// Sets the comparator offset.
    pub fn set_input_offset(&mut self, offset: Millivolts) {
        self.input_offset = offset;
    }

    /// Samples the waveform once at `strobe` (with aperture jitter drawn
    /// from `rng`).
    pub fn sample_at(&self, wave: &AnalogWaveform, strobe: Instant, rng: &mut Rng) -> bool {
        let z = if self.aperture_rj.is_zero() { 0.0 } else { rng.gaussian() };
        self.slice(strobe, z, |t| wave.value_at(t))
    }

    /// The one exact comparison: moves `strobe` by the aperture deviate
    /// `z` (in sigmas), evaluates the input there with `value_at`, and
    /// slices it against the threshold.
    fn slice(&self, strobe: Instant, z: f64, value_at: impl FnOnce(Instant) -> f64) -> bool {
        value_at(strobe + aperture_offset(z, self.aperture_rj)) >= self.decision_level()
    }

    fn decision_level(&self) -> f64 {
        (self.threshold + self.input_offset).as_f64()
    }

    /// Captures `n` bits: one strobe per unit interval at phase offset
    /// `strobe_phase` into each bit, starting from the waveform start.
    ///
    /// Most strobes never evaluate the waveform: the pair's
    /// [`radius_bound`](rng::GaussPair::radius_bound) confines the
    /// jittered instant to a span around the strobe, and
    /// [`WaveCursor::decide`](signal::WaveCursor::decide) settles the bit
    /// over that whole span when it can. Only the undecided strobes take
    /// the exact path, so every bit is the one the exact path stores.
    pub fn capture(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        strobe_phase: Duration,
        n: usize,
        seed: u64,
    ) -> BitStream {
        let ui = rate.unit_interval();
        let start = wave.digital().start();
        let mut rng = SeedTree::new(seed).derive(SAMPLER_STREAM).rng();
        let level = self.decision_level();
        // xlint::allow(no-lossy-cast, aperture jitter in fs stays far below 2^53, as in aperture_offset)
        let sigma_fs = self.aperture_rj.as_fs() as f64;
        // Strobes run forward one UI at a time, so a cursor follows them.
        let mut cursor = wave.cursor();
        // Strobe 2k takes the first deviate of the k-th Box–Muller pair and
        // strobe 2k + 1 the second, the order `Rng::gaussian` hands them
        // out in. A zero aperture draws pairs it never reads, which the
        // discarded generator makes harmless.
        let mut held: Option<GaussPair> = None;
        BitStream::from_fn(n, |i| {
            let strobe = start + ui * i as i64 + strobe_phase;
            let (pair, second) = match held.take() {
                Some(pair) => (pair, true),
                None => {
                    let pair = rng.gauss_pair();
                    held = Some(pair);
                    (pair, false)
                }
            };
            // |z|·σ ≤ bound·σ, whose rounding is at most its truncation
            // plus 1 fs; one more fs spares it.
            let slack = Duration::from_fs((pair.radius_bound() * sigma_fs) as i64 + 2); // xlint::allow(no-lossy-cast, a nonnegative product of a few sigmas in fs; truncation stays below its ceiling)
            cursor.decide(strobe - slack, strobe + slack, level, 0.0).unwrap_or_else(|| {
                let z = if second { pair.second() } else { pair.first() };
                self.slice(strobe, z, |t| cursor.value_at(t))
            })
        })
    }

    /// Equivalent-time scan: sweeps the strobe phase across one UI in
    /// `steps` increments, capturing `n` bits at each phase, and returns
    /// the per-phase error count against `expected`.
    ///
    /// This is the mini-tester's software-scope mode: the pass band of the
    /// resulting curve *is* the horizontal eye opening.
    pub fn phase_scan(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        steps: usize,
        seed: u64,
    ) -> Vec<(Duration, usize)> {
        let ui = rate.unit_interval();
        let n = expected.len();
        let tree = SeedTree::new(seed).stream("pecl.sampler.phase-scan");
        (0..steps)
            .map(|k| {
                let phase = ui.mul_f64(k as f64 / steps as f64);
                let captured = self.capture(wave, rate, phase, n, tree.index(k as u64).seed());
                let (errors, _) = captured.hamming_distance(expected);
                (phase, errors)
            })
            .collect()
    }
}

/// The aperture offset of a standard normal deviate `z` at rms `sigma`,
/// rounded to the femtosecond; zero whenever `sigma` is.
fn aperture_offset(z: f64, sigma: Duration) -> Duration {
    Duration::from_fs((z * sigma.as_fs() as f64).round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::jitter::{JitterBudget, NoJitter};
    use signal::{DigitalWaveform, EdgeShape, LevelSet};

    fn wave(bits: &str, gbps: f64) -> (AnalogWaveform, DataRate, BitStream) {
        let rate = DataRate::from_gbps(gbps);
        let bs = BitStream::from_str_bits(bits);
        let w = AnalogWaveform::new(
            DigitalWaveform::from_bits(&bs, rate, &NoJitter, 0),
            LevelSet::pecl(),
            EdgeShape::default(),
        );
        (w, rate, bs)
    }

    #[test]
    fn clean_capture_recovers_bits() {
        let (w, rate, bits) = wave("1011001110001010", 2.5);
        let sampler = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
        let captured = sampler.capture(&w, rate, Duration::from_ps(200), bits.len(), 0);
        assert_eq!(captured, bits);
    }

    #[test]
    fn minitester_defaults() {
        let s = StrobedSampler::minitester();
        assert_eq!(s.threshold(), Millivolts::new(-1300));
        assert_eq!(s.aperture_rj(), Duration::from_ps(2));
        assert_eq!(s.input_offset(), Millivolts::ZERO);
    }

    #[test]
    fn threshold_programming_affects_decisions() {
        let (w, _rate, _) = wave("1111", 2.5);
        let mut s = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
        let mut rng = Rng::seed_from_u64(0);
        assert!(s.sample_at(&w, Instant::from_ps(600), &mut rng));
        // Raise the threshold above VOH: everything reads low.
        s.set_threshold(Millivolts::new(-800));
        assert!(!s.sample_at(&w, Instant::from_ps(600), &mut rng));
        // Comparator offset shifts the effective threshold.
        s.set_threshold(Millivolts::new(-1300));
        s.set_input_offset(Millivolts::new(500));
        assert!(!s.sample_at(&w, Instant::from_ps(600), &mut rng));
        assert_eq!(s.input_offset(), Millivolts::new(500));
    }

    #[test]
    fn strobing_near_an_edge_is_unreliable_with_aperture_jitter() {
        let (w, rate, _) = wave("10101010101010101010", 2.5);
        let s = StrobedSampler::new(Millivolts::new(-1300), Duration::from_ps(20));
        // Strobe exactly on the transitions: decisions flip randomly.
        let captured = s.capture(&w, rate, Duration::ZERO, 20, 7);
        let ones = captured.count_ones();
        assert!(ones > 0 && ones < 20, "expected metastable-ish capture, got {captured}");
    }

    #[test]
    fn capture_is_seed_deterministic() {
        let (w, rate, _) = wave("1010110010", 2.5);
        let s = StrobedSampler::minitester();
        let a = s.capture(&w, rate, Duration::from_ps(200), 10, 3);
        let b = s.capture(&w, rate, Duration::from_ps(200), 10, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn phase_scan_shows_open_eye() {
        // A clean 2.5 Gbps signal: errors at the crossover phases, none at
        // the eye centre.
        let rate = DataRate::from_gbps(2.5);
        let bits = BitStream::alternating(64);
        let w = AnalogWaveform::new(
            DigitalWaveform::from_bits(&bits, rate, &JitterBudget::new().with_rj_rms_ps(3.0), 5),
            LevelSet::pecl(),
            EdgeShape::default(),
        );
        let s = StrobedSampler::minitester();
        let scan = s.phase_scan(&w, rate, &bits, 40, 11);
        assert_eq!(scan.len(), 40);
        // Eye centre (phase ~UI/2) must be clean.
        let centre = &scan[20];
        assert_eq!(centre.1, 0, "errors at centre phase {}", centre.0);
        // Crossover (phase ~0) must not be clean.
        assert!(scan[0].1 > 0, "expected errors at the crossover");
    }

    #[test]
    #[should_panic(expected = "aperture jitter must be nonnegative")]
    fn negative_aperture_panics() {
        let _ = StrobedSampler::new(Millivolts::ZERO, Duration::from_ps(-1));
    }
}
