//! Jitter models: random, duty-cycle, periodic, and data-dependent.
//!
//! The paper decomposes its timing error the way ATE engineers do:
//!
//! * **Random jitter (RJ)** — Gaussian, quoted as an rms value. Fig. 9
//!   measures 3.2 ps rms on a single repeated edge.
//! * **Deterministic jitter (DJ)** — bounded, quoted peak-to-peak. The
//!   dominant contributors in the paper's signal path are duty-cycle
//!   distortion (DCD) in the 2:1 PECL muxes, data-dependent / inter-symbol
//!   interference (ISI) from bandwidth limits, and periodic jitter (PJ)
//!   coupled from supplies.
//!
//! Each impairment is a [`JitterModel`]; [`JitterBudget`] composes them and
//! reports the analytic RJ (root-sum-square) and DJ (linear sum) totals so a
//! signal-path budget can be checked against measured eyes.
//!
//! All randomness flows through a caller-provided seed, so simulations are
//! reproducible bit-for-bit.

use pstime::{Duration, Frequency, Instant};
use rng::{Rng, SeedTree, StreamId};

use crate::digital::EdgePolarity;

/// Substream identity for Gaussian random-jitter samplers.
pub const RJ_STREAM: StreamId = StreamId::named("signal.jitter.rj");

/// Everything a jitter model may condition an edge displacement on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeContext {
    /// Sequential index of this edge within the waveform.
    pub index: u64,
    /// The ideal (jitter-free) transition instant.
    pub ideal: Instant,
    /// Transition direction.
    pub polarity: EdgePolarity,
    /// Number of identical bits immediately preceding the transition
    /// (run length at the previous level) — what ISI depends on.
    pub run_length: usize,
}

/// A stateful per-waveform jitter sampler produced by a [`JitterModel`].
pub trait JitterSampler {
    /// The displacement to add to one edge's ideal time.
    fn displacement(&mut self, ctx: &EdgeContext) -> Duration;
}

/// A timing-impairment model that can be applied to a waveform's edges.
///
/// Implementations provide a stateful [`JitterSampler`] (seeded for
/// reproducibility) plus their analytic contribution to the RJ/DJ budget.
pub trait JitterModel {
    /// Creates a sampler for one waveform realization.
    fn sampler(&self, seed: u64) -> Box<dyn JitterSampler + '_>;

    /// Analytic rms of the model's Gaussian (unbounded) component.
    fn rj_rms(&self) -> Duration {
        Duration::ZERO
    }

    /// Analytic peak-to-peak bound of the model's deterministic component.
    fn dj_pp(&self) -> Duration {
        Duration::ZERO
    }

    /// Estimated total peak-to-peak jitter at a population of `n` edges:
    /// `DJ + 2·Q(n)·RJ`, where `Q(n)` is the expected Gaussian extreme for
    /// `n` samples. This is what a scope's "p-p over N acquisitions"
    /// readout converges to.
    fn total_pp_estimate(&self, n: u64) -> Duration {
        let q = gaussian_extreme_q(n);
        self.dj_pp() + self.rj_rms().mul_f64(2.0 * q)
    }
}

/// Expected half-width (in σ) of the extreme spread of `n` Gaussian samples.
///
/// For n = 10⁴ this is ≈ 3.7 σ; the paper's "24 ps p-p / 3.2 ps rms"
/// single-edge measurement (Fig. 9) matches a ±3.75 σ excursion.
pub fn gaussian_extreme_q(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    // Asymptotic expected maximum of n standard normals.
    let ln_n = (n as f64).ln(); // xlint::allow(no-lossy-cast, edge count converts exactly to f64 below 2^53)
    (2.0 * ln_n).sqrt()
        - ((ln_n.ln()) + (4.0 * core::f64::consts::PI).ln()) / (2.0 * (2.0 * ln_n).sqrt())
}

/// The absence of jitter: every edge lands exactly on its ideal instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoJitter;

struct NoJitterSampler;

impl JitterSampler for NoJitterSampler {
    fn displacement(&mut self, _ctx: &EdgeContext) -> Duration {
        Duration::ZERO
    }
}

impl JitterModel for NoJitter {
    fn sampler(&self, _seed: u64) -> Box<dyn JitterSampler + '_> {
        Box::new(NoJitterSampler)
    }
}

/// Gaussian random jitter with a given rms value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomJitter {
    sigma: Duration,
}

impl RandomJitter {
    /// Creates Gaussian jitter with rms `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(sigma: Duration) -> Self {
        assert!(!sigma.is_negative(), "jitter sigma must be nonnegative");
        RandomJitter { sigma }
    }

    /// Creates Gaussian jitter from an rms value in picoseconds.
    fn from_rms_ps(ps: f64) -> Self {
        RandomJitter::new(Duration::from_ps_f64(ps))
    }
}

struct RandomJitterSampler {
    sigma_fs: f64,
    rng: Rng,
}

impl JitterSampler for RandomJitterSampler {
    fn displacement(&mut self, _ctx: &EdgeContext) -> Duration {
        Duration::from_fs((self.rng.gaussian() * self.sigma_fs).round() as i64) // xlint::allow(no-lossy-cast, rounded gaussian displacement in fs fits i64)
    }
}

impl JitterModel for RandomJitter {
    fn sampler(&self, seed: u64) -> Box<dyn JitterSampler + '_> {
        Box::new(RandomJitterSampler {
            sigma_fs: self.sigma.as_fs() as f64, // xlint::allow(no-lossy-cast, sigma in fs converts exactly to f64 below 2^53)
            rng: SeedTree::new(seed).derive(RJ_STREAM).rng(),
        })
    }

    fn rj_rms(&self) -> Duration {
        self.sigma
    }
}

/// Duty-cycle distortion: rising edges displaced `+pp/2`, falling `−pp/2`.
///
/// A 2:1 PECL mux whose select clock has asymmetric half-periods produces
/// exactly this signature; it is usually the largest single DJ term in a
/// mux-tree serializer like the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleDistortion {
    pp: Duration,
}

impl DutyCycleDistortion {
    /// Creates DCD with the given peak-to-peak magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `pp` is negative.
    pub fn new(pp: Duration) -> Self {
        assert!(!pp.is_negative(), "DCD peak-to-peak must be nonnegative");
        DutyCycleDistortion { pp }
    }

    /// Creates DCD from a peak-to-peak value in picoseconds.
    fn from_pp_ps(ps: f64) -> Self {
        DutyCycleDistortion::new(Duration::from_ps_f64(ps))
    }
}

struct DcdSampler {
    half: Duration,
}

impl JitterSampler for DcdSampler {
    fn displacement(&mut self, ctx: &EdgeContext) -> Duration {
        match ctx.polarity {
            EdgePolarity::Rising => self.half,
            EdgePolarity::Falling => -self.half,
        }
    }
}

impl JitterModel for DutyCycleDistortion {
    fn sampler(&self, _seed: u64) -> Box<dyn JitterSampler + '_> {
        Box::new(DcdSampler { half: self.pp / 2 })
    }

    fn dj_pp(&self) -> Duration {
        self.pp
    }
}

/// Sinusoidal periodic jitter (e.g. supply ripple coupling into a delay
/// line): displacement `A·sin(2π·f·t + φ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicJitter {
    amplitude: Duration,
    freq: Frequency,
    phase: f64,
}

impl PeriodicJitter {
    /// Creates periodic jitter with peak `amplitude`, frequency `freq`, and
    /// phase offset `phase` (radians).
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or `phase` is not finite.
    pub fn new(amplitude: Duration, freq: Frequency, phase: f64) -> Self {
        assert!(!amplitude.is_negative(), "PJ amplitude must be nonnegative");
        assert!(phase.is_finite(), "PJ phase must be finite");
        PeriodicJitter { amplitude, freq, phase }
    }
}

struct PjSampler {
    amp_fs: f64,
    omega_per_fs: f64,
    phase: f64,
}

impl JitterSampler for PjSampler {
    fn displacement(&mut self, ctx: &EdgeContext) -> Duration {
        let arg = self.omega_per_fs * ctx.ideal.as_fs() as f64 + self.phase; // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
        Duration::from_fs((self.amp_fs * arg.sin()).round() as i64)
    }
}

impl JitterModel for PeriodicJitter {
    fn sampler(&self, _seed: u64) -> Box<dyn JitterSampler + '_> {
        Box::new(PjSampler {
            amp_fs: self.amplitude.as_fs() as f64, // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
            omega_per_fs: 2.0 * core::f64::consts::PI * self.freq.as_hz() as f64 / 1e15,
            phase: self.phase,
        })
    }

    fn dj_pp(&self) -> Duration {
        self.amplitude * 2
    }
}

/// Data-dependent (inter-symbol interference) jitter: an edge following a
/// run of `r` identical bits is displaced late by
/// `max_shift · (1 − e^{−(r−1)/τ})`.
///
/// After a long run the line has settled further from the switching
/// threshold, so the next transition crosses it later — the classic
/// bandwidth-limited ISI signature. `tau_bits` is the channel's settling
/// constant in bit periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsiJitter {
    max_shift: Duration,
    tau_bits: f64,
}

impl IsiJitter {
    /// Creates ISI jitter with asymptotic displacement `max_shift` and
    /// settling constant `tau_bits` (in bit periods).
    ///
    /// # Panics
    ///
    /// Panics if `max_shift` is negative or `tau_bits` is not positive.
    pub fn new(max_shift: Duration, tau_bits: f64) -> Self {
        assert!(!max_shift.is_negative(), "ISI max shift must be nonnegative");
        assert!(tau_bits.is_finite() && tau_bits > 0.0, "ISI settling constant must be positive");
        IsiJitter { max_shift, tau_bits }
    }
}

struct IsiSampler {
    max_fs: f64,
    tau: f64,
}

impl JitterSampler for IsiSampler {
    fn displacement(&mut self, ctx: &EdgeContext) -> Duration {
        let r = ctx.run_length.max(1) as f64; // xlint::allow(no-lossy-cast, run length is a small positive count; exact in f64)
        let frac = 1.0 - (-(r - 1.0) / self.tau).exp();
        Duration::from_fs((self.max_fs * frac).round() as i64) // xlint::allow(no-lossy-cast, rounded ISI shift in fs fits i64)
    }
}

impl JitterModel for IsiJitter {
    fn sampler(&self, _seed: u64) -> Box<dyn JitterSampler + '_> {
        // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
        Box::new(IsiSampler { max_fs: self.max_shift.as_fs() as f64, tau: self.tau_bits })
    }

    fn dj_pp(&self) -> Duration {
        self.max_shift
    }
}

/// A composite jitter budget: RJ + DCD + PJ + ISI, composed the way the
/// paper's signal chain composes them (each mux/buffer stage contributes).
///
/// The builder-style constructors cover the common case; arbitrary models
/// can be added with [`JitterBudget::with_model`].
///
/// # Examples
///
/// ```
/// use pstime::Duration;
/// use signal::jitter::{IsiJitter, JitterBudget, JitterModel};
///
/// // The paper's test-bed output stage: 3.2 ps rms RJ, ~10 ps DCD,
/// // a hair of ISI from the output network.
/// let budget = JitterBudget::new()
///     .with_rj_rms_ps(3.2)
///     .with_dcd_ps(10.0)
///     .with_model(IsiJitter::new(Duration::from_ps(12), 1.0));
/// assert_eq!(budget.rj_rms(), Duration::from_ps_f64(3.2));
/// assert_eq!(budget.dj_pp(), Duration::from_ps(22));
/// ```
#[derive(Default)]
pub struct JitterBudget {
    models: Vec<Box<dyn JitterModel + Send + Sync>>,
}

impl JitterBudget {
    /// Creates an empty (jitter-free) budget.
    pub fn new() -> Self {
        JitterBudget { models: Vec::new() }
    }

    /// Adds Gaussian random jitter with rms `ps` picoseconds.
    #[must_use]
    pub fn with_rj_rms_ps(mut self, ps: f64) -> Self {
        self.models.push(Box::new(RandomJitter::from_rms_ps(ps)));
        self
    }

    /// Adds duty-cycle distortion with peak-to-peak `ps` picoseconds.
    #[must_use]
    pub fn with_dcd_ps(mut self, ps: f64) -> Self {
        self.models.push(Box::new(DutyCycleDistortion::from_pp_ps(ps)));
        self
    }

    /// Adds an arbitrary jitter model.
    #[must_use]
    pub fn with_model(mut self, model: impl JitterModel + Send + Sync + 'static) -> Self {
        self.models.push(Box::new(model));
        self
    }

    /// Number of component models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the budget is empty (jitter-free).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

impl core::fmt::Debug for JitterBudget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JitterBudget")
            .field("models", &self.models.len())
            .field("rj_rms", &self.rj_rms())
            .field("dj_pp", &self.dj_pp())
            .finish()
    }
}

struct BudgetSampler<'a> {
    samplers: Vec<Box<dyn JitterSampler + 'a>>,
}

impl JitterSampler for BudgetSampler<'_> {
    fn displacement(&mut self, ctx: &EdgeContext) -> Duration {
        self.samplers.iter_mut().map(|s| s.displacement(ctx)).sum()
    }
}

impl JitterModel for JitterBudget {
    fn sampler(&self, seed: u64) -> Box<dyn JitterSampler + '_> {
        // Each component model gets its own numbered substream so adding a
        // model to the budget never perturbs the draws of the others.
        let tree = SeedTree::new(seed).stream("signal.jitter.budget");
        Box::new(BudgetSampler {
            samplers: self
                .models
                .iter()
                .enumerate()
                .map(|(i, m)| m.sampler(tree.index(i as u64).seed())) // xlint::allow(no-lossy-cast, model index widens losslessly into u64)
                .collect(),
        })
    }

    /// Component RJ values sum in quadrature (independent Gaussians).
    fn rj_rms(&self) -> Duration {
        let sum_sq: f64 = self
            .models
            .iter()
            .map(|m| {
                let fs = m.rj_rms().as_fs() as f64; // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
                fs * fs
            })
            .sum();
        Duration::from_fs(sum_sq.sqrt().round() as i64) // xlint::allow(no-lossy-cast, rounded quadrature sum in fs fits i64)
    }

    /// Component DJ bounds add linearly (worst-case alignment).
    fn dj_pp(&self) -> Duration {
        self.models.iter().map(|m| m.dj_pp()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(index: u64, ps: i64, polarity: EdgePolarity, run: usize) -> EdgeContext {
        EdgeContext { index, ideal: Instant::from_ps(ps), polarity, run_length: run }
    }

    #[test]
    fn no_jitter_is_zero() {
        let mut s = NoJitter.sampler(1);
        assert_eq!(s.displacement(&ctx(0, 100, EdgePolarity::Rising, 1)), Duration::ZERO);
        assert_eq!(NoJitter.rj_rms(), Duration::ZERO);
        assert_eq!(NoJitter.dj_pp(), Duration::ZERO);
    }

    #[test]
    fn random_jitter_statistics() {
        let rj = RandomJitter::from_rms_ps(3.2);
        let mut s = rj.sampler(42);
        let mut stats = crate::RunningStats::new();
        for i in 0..20_000 {
            let d = s.displacement(&ctx(i, i as i64 * 400, EdgePolarity::Rising, 1));
            stats.push(d.as_ps_f64());
        }
        assert!(stats.mean().abs() < 0.1, "mean {} should be ~0", stats.mean());
        assert!((stats.std_dev() - 3.2).abs() < 0.15, "rms {} should be ~3.2 ps", stats.std_dev());
        // p-p over 2e4 samples should be near 2*3.8 sigma = ~24 ps (Fig. 9).
        assert!(stats.peak_to_peak() > 20.0 && stats.peak_to_peak() < 30.0);
    }

    #[test]
    fn random_jitter_is_reproducible() {
        let rj = RandomJitter::from_rms_ps(5.0);
        let run = |seed| {
            let mut s = rj.sampler(seed);
            (0..10)
                .map(|i| s.displacement(&ctx(i, 0, EdgePolarity::Rising, 1)).as_fs())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn dcd_splits_by_polarity() {
        let dcd = DutyCycleDistortion::from_pp_ps(10.0);
        let mut s = dcd.sampler(0);
        assert_eq!(s.displacement(&ctx(0, 0, EdgePolarity::Rising, 1)), Duration::from_ps(5));
        assert_eq!(s.displacement(&ctx(1, 0, EdgePolarity::Falling, 1)), Duration::from_ps(-5));
        assert_eq!(dcd.dj_pp(), Duration::from_ps(10));
    }

    #[test]
    fn periodic_jitter_is_sinusoidal() {
        let freq = Frequency::from_mhz(100); // 10 ns period
        let pj = PeriodicJitter::new(Duration::from_ps(8), freq, 0.0);
        let mut s = pj.sampler(0);
        assert_eq!(s.displacement(&ctx(0, 0, EdgePolarity::Rising, 1)), Duration::ZERO);
        // Quarter period -> peak amplitude.
        assert_eq!(s.displacement(&ctx(1, 2_500, EdgePolarity::Rising, 1)), Duration::from_ps(8));
        // Half period -> zero again.
        assert!(
            s.displacement(&ctx(2, 5_000, EdgePolarity::Rising, 1)).abs() < Duration::from_fs(10)
        );
        assert_eq!(pj.dj_pp(), Duration::from_ps(16));
    }

    #[test]
    fn isi_grows_with_run_length() {
        let isi = IsiJitter::new(Duration::from_ps(12), 1.0);
        let mut s = isi.sampler(0);
        let d1 = s.displacement(&ctx(0, 0, EdgePolarity::Rising, 1));
        let d2 = s.displacement(&ctx(1, 0, EdgePolarity::Rising, 2));
        let d5 = s.displacement(&ctx(2, 0, EdgePolarity::Rising, 5));
        assert_eq!(d1, Duration::ZERO);
        assert!(d2 > d1);
        assert!(d5 > d2);
        assert!(d5 <= Duration::from_ps(12));
        assert_eq!(isi.dj_pp(), Duration::from_ps(12));
    }

    #[test]
    fn budget_composes() {
        let b = JitterBudget::new()
            .with_rj_rms_ps(3.0)
            .with_rj_rms_ps(4.0)
            .with_dcd_ps(10.0)
            .with_model(IsiJitter::new(Duration::from_ps(6), 1.0));
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        // 3 and 4 in quadrature = 5.
        assert_eq!(b.rj_rms(), Duration::from_ps(5));
        assert_eq!(b.dj_pp(), Duration::from_ps(16));
        let dbg = format!("{b:?}");
        assert!(dbg.contains("JitterBudget"));
    }

    #[test]
    fn budget_sampler_sums_components() {
        let b = JitterBudget::new()
            .with_dcd_ps(10.0)
            .with_model(IsiJitter::new(Duration::from_ps(12), 1.0));
        let mut s = b.sampler(0);
        // Rising edge after a very long run: +5 (DCD) + ~12 (ISI saturated).
        let d = s.displacement(&ctx(0, 0, EdgePolarity::Rising, 50));
        assert!(d > Duration::from_ps(16) && d <= Duration::from_ps(17));
    }

    #[test]
    fn total_pp_estimate_matches_fig9() {
        // 3.2 ps rms, no DJ, 1e4 acquisitions -> ~24 ps p-p.
        let b = JitterBudget::new().with_rj_rms_ps(3.2);
        let pp = b.total_pp_estimate(10_000);
        let ps = pp.as_ps_f64();
        assert!(ps > 20.0 && ps < 27.0, "estimated p-p {ps} ps should be ~24 ps");
    }

    #[test]
    fn gaussian_extreme_grows_slowly() {
        assert_eq!(gaussian_extreme_q(1), 0.0);
        let q4 = gaussian_extreme_q(10_000);
        let q6 = gaussian_extreme_q(1_000_000);
        assert!(q4 > 3.0 && q4 < 4.2, "q(1e4) = {q4}");
        assert!(q6 > q4 && q6 < 5.2, "q(1e6) = {q6}");
    }

    #[test]
    #[should_panic(expected = "sigma must be nonnegative")]
    fn negative_sigma_panics() {
        let _ = RandomJitter::new(Duration::from_ps(-1));
    }

    #[test]
    #[should_panic(expected = "settling constant must be positive")]
    fn bad_isi_tau_panics() {
        let _ = IsiJitter::new(Duration::from_ps(1), 0.0);
    }
}
