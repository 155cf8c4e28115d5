//! Equivalent-time capture: the mini-tester's software oscilloscope.
//!
//! The receive path is a strobed comparator whose strobe is placed by a
//! **10 ps** delay vernier (§1: "a high-speed PECL sampling circuit is
//! designed to capture the returned signal, also with 10 ps resolution").
//! Sweeping the strobe across the unit interval while the pattern repeats
//! reconstructs the eye in equivalent time — no bench instrument needed on
//! the probe card.

use core::fmt;

use pecl::{ProgrammableDelayLine, StrobedSampler};
use pstime::{DataRate, Duration, UnitInterval};
use signal::{AnalogWaveform, BitStream};

use crate::{MiniTesterError, Result};

/// One strobe-phase point of an eye scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPoint {
    /// Strobe offset into the bit period (quantized to the vernier step).
    pub phase: Duration,
    /// Bits compared at this phase.
    pub compared: usize,
    /// Bit errors at this phase.
    pub errors: usize,
}

impl ScanPoint {
    /// Error ratio at this phase.
    pub fn error_ratio(&self) -> f64 {
        if self.compared == 0 {
            0.0
        } else {
            self.errors as f64 / self.compared as f64
        }
    }
}

/// The result of a full equivalent-time eye scan.
#[derive(Debug, Clone, PartialEq)]
pub struct EyeScan {
    points: Vec<ScanPoint>,
    rate: DataRate,
    step: Duration,
}

impl EyeScan {
    /// Reassembles a scan from its raw points — the inverse of the
    /// accessors, used by coordinators (the `atd-farm` merge layer) that
    /// concatenate strobe ranges produced by [`EyeScanJob::run_range_on`]
    /// back into one scan. `rate` and `step` must be the original scan's
    /// figures; the points must already be in strobe order.
    pub fn from_parts(points: Vec<ScanPoint>, rate: DataRate, step: Duration) -> EyeScan {
        EyeScan { points, rate, step }
    }

    /// The per-phase results.
    pub fn points(&self) -> &[ScanPoint] {
        &self.points
    }

    /// The strobe step used (10 ps for the paper's vernier).
    pub fn step(&self) -> Duration {
        self.step
    }

    /// The widest contiguous run of error-free phases, as an eye opening in
    /// UI. The scan wraps around the bit period (the eye may straddle the
    /// fold boundary).
    ///
    /// # Errors
    ///
    /// [`MiniTesterError::EyeClosed`] when no phase is error-free.
    pub fn opening_ui(&self) -> Result<UnitInterval> {
        let n = self.points.len();
        let pass: Vec<bool> = self.points.iter().map(|p| p.errors == 0).collect();
        if !pass.iter().any(|p| *p) {
            return Err(MiniTesterError::EyeClosed);
        }
        if pass.iter().all(|p| *p) {
            return Ok(UnitInterval::ONE);
        }
        // Longest circular run of passes.
        let mut best = 0usize;
        let mut run = 0usize;
        for i in 0..2 * n {
            if pass[i % n] {
                run += 1;
                best = best.max(run.min(n));
            } else {
                run = 0;
            }
        }
        let opening = self.step * best as i64;
        Ok(UnitInterval::from_duration(opening, self.rate).clamp_unit())
    }

    /// The error-ratio bathtub: `(phase as a UI fraction, error ratio)`
    /// per scan point — the curve whose walls define the usable eye, as in
    /// [`signal::BathtubCurve`] but *measured* rather than modeled.
    pub fn bathtub(&self) -> Vec<(f64, f64)> {
        let ui = self.rate.unit_interval();
        self.points.iter().map(|p| (p.phase.ratio(ui), p.error_ratio())).collect()
    }

    /// The best strobe phase: the centre of the widest passing run.
    ///
    /// # Errors
    ///
    /// [`MiniTesterError::EyeClosed`] when no phase passes.
    pub fn best_phase(&self) -> Result<Duration> {
        let n = self.points.len();
        let pass: Vec<bool> = self.points.iter().map(|p| p.errors == 0).collect();
        if !pass.iter().any(|p| *p) {
            return Err(MiniTesterError::EyeClosed);
        }
        let mut best = (0usize, 0usize); // (length, start)
        let mut run = 0usize;
        for i in 0..2 * n {
            if pass[i % n] {
                run += 1;
                if run > best.0 {
                    best = (run.min(n), i + 1 - run);
                }
            } else {
                run = 0;
            }
        }
        let centre = (best.1 + best.0 / 2) % n;
        Ok(self.points[centre].phase)
    }
}

impl fmt::Display for EyeScan {
    /// Renders a one-line tub: `.` for clean phases, `#` for errored ones.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for p in &self.points {
            f.write_str(if p.errors == 0 { "." } else { "#" })?;
        }
        write!(f, "] step {}", self.step)
    }
}

/// The equivalent-time capture engine: sampler + strobe vernier.
///
/// # Examples
///
/// ```
/// use exec::{ExecPool, PoolJob};
/// use minitester::{EtCapture, EyeScanJob, MiniTesterDatapath};
/// use pstime::DataRate;
///
/// let mut path = MiniTesterDatapath::new()?;
/// let rate = DataRate::from_gbps(2.5);
/// let expected = path.expected_prbs(rate, 512)?;
/// let wave = path.prbs_stimulus(rate, 512, 3)?;
/// let capture = EtCapture::new();
/// let job = EyeScanJob { capture: &capture, wave: &wave, rate, expected: &expected, seed: 11 };
/// let scan = job.run_on(&ExecPool::serial())?;
/// assert!(scan.opening_ui()?.value() > 0.7);
/// # Ok::<(), minitester::MiniTesterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EtCapture {
    sampler: StrobedSampler,
    vernier: ProgrammableDelayLine,
}

impl EtCapture {
    /// The paper's capture path: mid-PECL threshold sampler with 2 ps
    /// aperture jitter, 10 ps / 1024-code strobe vernier.
    pub fn new() -> Self {
        EtCapture {
            sampler: StrobedSampler::minitester(),
            vernier: ProgrammableDelayLine::standard(),
        }
    }

    /// The sampler (threshold programming for shmoo sweeps).
    pub fn sampler_mut(&mut self) -> &mut StrobedSampler {
        &mut self.sampler
    }

    /// Borrow of the sampler.
    pub fn sampler(&self) -> &StrobedSampler {
        &self.sampler
    }

    /// The strobe vernier.
    pub fn vernier(&self) -> &ProgrammableDelayLine {
        &self.vernier
    }

    /// Captures `expected.len()` bits at one strobe phase (quantized to the
    /// vernier's 10 ps grid) and counts errors.
    ///
    /// # Errors
    ///
    /// Propagates vernier range errors.
    pub fn capture_at(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        phase: Duration,
        seed: u64,
    ) -> Result<ScanPoint> {
        let mut vernier = self.vernier.clone();
        vernier.set_delay(phase)?;
        let actual_phase = vernier.actual_delay();
        let got = self.sampler.capture(wave, rate, actual_phase, expected.len(), seed);
        let (errors, compared) = got.hamming_distance(expected);
        Ok(ScanPoint { phase: vernier.nominal_delay(), compared, errors })
    }
}

/// An equivalent-time eye scan described as a value: the one entry point
/// ([`exec::PoolJob::run_on`]) that sweeps the strobe across one unit
/// interval in vernier steps, reconstructing the horizontal eye, and the
/// scheduling surface the `atd` service layer drives.
///
/// One job per strobe phase, each drawing from its own `tree.index(k)`
/// substream, so the scan is bit-identical for every thread count. A scan
/// that runs inside a job already fanned out, such as the one
/// [`crate::MiniTester`] runs for each wafer die, passes
/// [`exec::ExecPool::serial`], so thread counts compose instead of
/// multiplying.
#[derive(Debug, Clone, Copy)]
pub struct EyeScanJob<'a> {
    /// The capture head (sampler threshold + strobe vernier).
    pub capture: &'a EtCapture,
    /// The waveform under test.
    pub wave: &'a AnalogWaveform,
    /// The data rate under test.
    pub rate: DataRate,
    /// The expected pattern at each strobe phase.
    pub expected: &'a BitStream,
    /// Master seed for the per-phase capture substreams.
    pub seed: u64,
}

impl exec::PoolJob for EyeScanJob<'_> {
    type Output = EyeScan;
    type Error = crate::MiniTesterError;

    fn run_on(&self, pool: &exec::ExecPool) -> Result<EyeScan> {
        self.run_band(pool, 0, None)
    }
}

impl EyeScanJob<'_> {
    /// Captures only the strobe steps `[phase_start, phase_start +
    /// phase_count)` of the full scan.
    ///
    /// Every point seeds from its *global* step substream, so a range
    /// reproduces exactly the points a full scan would have produced;
    /// contiguous ranges concatenate (via [`EyeScan::from_parts`]) into a
    /// scan byte-identical to one full run. This is the shard entry point
    /// used by the `atd-farm` coordinator.
    ///
    /// # Errors
    ///
    /// [`crate::MiniTesterError::BadTestPlan`] if the range is empty or
    /// overruns the unit interval; otherwise as
    /// [`exec::PoolJob::run_on`].
    pub fn run_range_on(
        &self,
        pool: &exec::ExecPool,
        phase_start: usize,
        phase_count: usize,
    ) -> Result<EyeScan> {
        self.run_band(pool, phase_start, Some(phase_count))
    }

    /// Shared body of the full scan and the banded scan: `phase_count` of
    /// `None` means "every strobe step in one unit interval".
    fn run_band(
        &self,
        pool: &exec::ExecPool,
        phase_start: usize,
        phase_count: Option<usize>,
    ) -> Result<EyeScan> {
        let ui = self.rate.unit_interval();
        let step = self.capture.vernier.step();
        let steps = ((ui.as_fs() + step.as_fs() - 1) / step.as_fs()).max(1);
        let tree = rng::SeedTree::new(self.seed).stream("minitester.capture.eye-scan");
        let steps_usize = usize::try_from(steps).unwrap_or(0);
        let count = phase_count.unwrap_or(steps_usize);
        if count == 0 || phase_start.checked_add(count).is_none_or(|end| end > steps_usize) {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "eye-scan strobe range empty or past the unit interval",
            });
        }
        let outcome = pool.run(count, |job| {
            // Substreams key on the global step index, so a strobe range
            // reproduces the full scan's points bit-for-bit.
            let k = (phase_start + job) as i64; // xlint::allow(no-lossy-cast, k < steps which fits i64 by construction)
            let cell = tree.index(k as u64);
            self.capture.capture_at(self.wave, self.rate, self.expected, step * k, cell.seed())
        })?;
        let points = outcome.results.into_iter().collect::<Result<Vec<_>>>()?;
        Ok(EyeScan { points, rate: self.rate, step })
    }
}

impl Default for EtCapture {
    fn default() -> Self {
        EtCapture::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::MiniTesterDatapath;
    use exec::PoolJob;

    fn prbs_setup(gbps: f64, bits: usize) -> (AnalogWaveform, DataRate, BitStream) {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(gbps);
        let expected = path.expected_prbs(rate, bits).unwrap();
        let mut path2 = MiniTesterDatapath::new().unwrap();
        let wave = path2.prbs_stimulus(rate, bits, 21).unwrap();
        (wave, rate, expected)
    }

    /// A serial scan with a fresh capture head.
    fn serial_scan(
        wave: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        seed: u64,
    ) -> Result<EyeScan> {
        let capture = EtCapture::new();
        EyeScanJob { capture: &capture, wave, rate, expected, seed }
            .run_on(&exec::ExecPool::serial())
    }

    #[test]
    fn scan_reconstructs_the_paper_eye_at_2g5() {
        let (wave, rate, expected) = prbs_setup(2.5, 1024);
        let scan = serial_scan(&wave, rate, &expected, 5).unwrap();
        // 400 ps UI / 10 ps steps = 40 points.
        assert_eq!(scan.points().len(), 40);
        assert_eq!(scan.step(), Duration::from_ps(10));
        let opening = scan.opening_ui().unwrap().value();
        // The 10 ps quantized scan under-resolves slightly vs the analytic
        // eye (0.87): accept the coarse band.
        assert!((0.75..=0.95).contains(&opening), "opening {opening}");
        let tub = scan.to_string();
        assert!(tub.contains('#') && tub.contains('.'));
    }

    #[test]
    fn five_gbps_eye_is_narrower() {
        let (w2, r2, e2) = prbs_setup(2.5, 1024);
        let (w5, r5, e5) = prbs_setup(5.0, 1024);
        let s2 = serial_scan(&w2, r2, &e2, 1).unwrap().opening_ui().unwrap();
        let s5 = serial_scan(&w5, r5, &e5, 1).unwrap().opening_ui().unwrap();
        assert!(s5.value() < s2.value(), "5G {} !< 2.5G {}", s5, s2);
        assert!(s5.value() > 0.5);
    }

    #[test]
    fn best_phase_is_mid_eye() {
        let (wave, rate, expected) = prbs_setup(2.5, 512);
        let scan = serial_scan(&wave, rate, &expected, 2).unwrap();
        let best = scan.best_phase().unwrap();
        // Somewhere near the middle of the 400 ps UI, away from edges.
        let ps = best.as_ps_f64();
        assert!((100.0..=300.0).contains(&ps), "best phase {ps} ps");
    }

    #[test]
    fn closed_eye_reports_error() {
        // Expected bits uncorrelated with the waveform: every phase errors.
        let (wave, rate, _) = prbs_setup(2.5, 512);
        let garbage = BitStream::alternating(512);
        let scan = serial_scan(&wave, rate, &garbage, 3).unwrap();
        assert!(matches!(scan.opening_ui(), Err(MiniTesterError::EyeClosed)));
        assert!(matches!(scan.best_phase(), Err(MiniTesterError::EyeClosed)));
    }

    #[test]
    fn strobe_ranges_concatenate_to_the_full_scan() {
        let (wave, rate, expected) = prbs_setup(2.5, 512);
        let capture = EtCapture::new();
        let job = EyeScanJob { capture: &capture, wave: &wave, rate, expected: &expected, seed: 5 };
        let pool = exec::ExecPool::new(2);
        let full = job.run_on(&pool).unwrap();
        let steps = full.points().len();
        for split in [1, steps / 2, steps - 1] {
            let lo = job.run_range_on(&pool, 0, split).unwrap();
            let hi = job.run_range_on(&pool, split, steps - split).unwrap();
            let mut points = lo.points().to_vec();
            points.extend_from_slice(hi.points());
            let merged = EyeScan::from_parts(points, rate, full.step());
            assert_eq!(merged, full, "split at {split}");
            assert_eq!(merged.to_string(), full.to_string());
        }
    }

    #[test]
    fn out_of_range_strobe_ranges_rejected() {
        let (wave, rate, expected) = prbs_setup(2.5, 512);
        let capture = EtCapture::new();
        let job = EyeScanJob { capture: &capture, wave: &wave, rate, expected: &expected, seed: 5 };
        let pool = exec::ExecPool::new(1);
        let steps = job.run_on(&pool).unwrap().points().len();
        assert!(job.run_range_on(&pool, 0, 0).is_err());
        assert!(job.run_range_on(&pool, steps, 1).is_err());
        assert!(job.run_range_on(&pool, usize::MAX, 2).is_err());
    }

    #[test]
    fn capture_at_specific_phase() {
        let (wave, rate, expected) = prbs_setup(1.0, 512);
        let cap = EtCapture::new();
        // Mid-bit: clean.
        let mid = cap.capture_at(&wave, rate, &expected, Duration::from_ps(500), 4).unwrap();
        assert_eq!(mid.errors, 0);
        assert_eq!(mid.compared, 512);
        assert_eq!(mid.error_ratio(), 0.0);
        // On the transition: errors.
        let edge = cap.capture_at(&wave, rate, &expected, Duration::ZERO, 4).unwrap();
        assert!(edge.errors > 0);
        assert!(edge.error_ratio() > 0.0);
    }

    #[test]
    fn accessors() {
        let mut cap = EtCapture::default();
        assert_eq!(cap.vernier().step(), Duration::from_ps(10));
        assert_eq!(cap.sampler().aperture_rj(), Duration::from_ps(2));
        cap.sampler_mut().set_threshold(pstime::Millivolts::new(-1200));
        assert_eq!(cap.sampler().threshold(), pstime::Millivolts::new(-1200));
    }
}

#[cfg(test)]
mod bathtub_tests {
    use super::*;
    use crate::datapath::MiniTesterDatapath;
    use pstime::DataRate;

    #[test]
    fn measured_bathtub_has_walls_and_a_floor() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(2.5);
        let expected = path.expected_prbs(rate, 1_024).unwrap();
        let mut path2 = MiniTesterDatapath::new().unwrap();
        let wave = path2.prbs_stimulus(rate, 1_024, 31).unwrap();
        let capture = EtCapture::new();
        let job = EyeScanJob { capture: &capture, wave: &wave, rate, expected: &expected, seed: 7 };
        let scan = exec::PoolJob::run_on(&job, &exec::ExecPool::serial()).unwrap();
        let tub = scan.bathtub();
        assert_eq!(tub.len(), 40);
        // Phases span one UI.
        assert!(tub.first().unwrap().0 < 0.05);
        assert!(tub.last().unwrap().0 > 0.9);
        // Walls: errors near the crossover; floor: clean mid-eye.
        let wall: f64 = tub.iter().filter(|(p, _)| *p < 0.1 || *p > 0.9).map(|(_, e)| e).sum();
        let floor: f64 = tub.iter().filter(|(p, _)| (0.4..0.6).contains(p)).map(|(_, e)| e).sum();
        assert!(wall > 0.0, "bathtub needs walls");
        assert_eq!(floor, 0.0, "bathtub floor must be clean");
        // The measured bathtub matches the modeled one qualitatively: the
        // dual-Dirac model with the chain budget predicts a clean centre.
        let chain = pecl::SignalChain::minitester_datapath();
        let model = signal::BathtubCurve::new(chain.rj_rms(), chain.dj_pp(), rate, 0.5);
        assert!(model.ber_at_ui(0.5) < 1e-12);
        assert!(model.ber_at_ui(0.02) > 1e-3);
    }
}

/// An equivalent-time reconstructed trace: the probability of sampling
/// "high" at each 10 ps strobe offset across a repeating pattern — what the
/// mini-tester shows instead of a bench scope photo (the paper's Fig. 18
/// bit-pattern display).
#[derive(Debug, Clone, PartialEq)]
pub struct EtTrace {
    offsets: Vec<Duration>,
    p_high: Vec<f64>,
}

impl EtTrace {
    /// Strobe offsets from the waveform start.
    pub fn offsets(&self) -> &[Duration] {
        &self.offsets
    }

    /// Probability of reading high at each offset (0.0 settled low,
    /// 1.0 settled high, in between on transitions/noise).
    pub fn p_high(&self) -> &[f64] {
        &self.p_high
    }

    /// Renders the trace as an ASCII strip: `_` low, `▔`-substitute `~`
    /// high, `/` indeterminate (transition region).
    pub fn render(&self) -> String {
        self.p_high
            .iter()
            .map(|p| {
                if *p >= 0.9 {
                    '~'
                } else if *p <= 0.1 {
                    '_'
                } else {
                    '/'
                }
            })
            .collect()
    }
}

impl EtCapture {
    /// Reconstructs `n_ui` unit intervals of the waveform in equivalent
    /// time: every 10 ps strobe offset is sampled `acquisitions` times
    /// (aperture jitter makes transition regions probabilistic) and
    /// averaged.
    pub fn reconstruct_trace(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        n_ui: usize,
        acquisitions: usize,
        seed: u64,
    ) -> EtTrace {
        let step = self.vernier.step();
        let span = rate.unit_interval() * n_ui as i64;
        let n_points = (span.as_fs() / step.as_fs()).max(1) as usize;
        let start = wave.digital().start();
        let mut offsets = Vec::with_capacity(n_points);
        let mut p_high = Vec::with_capacity(n_points);
        let mut rng = rng::SeedTree::new(seed).stream("minitester.capture.et").rng();
        for k in 0..n_points {
            let offset = step * k as i64;
            let highs = (0..acquisitions.max(1))
                .filter(|_| self.sampler.sample_at(wave, start + offset, &mut rng))
                .count();
            offsets.push(offset);
            p_high.push(highs as f64 / acquisitions.max(1) as f64);
        }
        EtTrace { offsets, p_high }
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use pstime::DataRate;
    use signal::jitter::NoJitter;
    use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};

    #[test]
    fn reconstruction_recovers_the_pattern() {
        let rate = DataRate::from_gbps(1.0);
        let bits = BitStream::from_str_bits("11001010");
        let wave = AnalogWaveform::new(
            DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0),
            LevelSet::pecl(),
            EdgeShape::from_rise_2080_ps(120.0),
        );
        let trace = EtCapture::new().reconstruct_trace(&wave, rate, 8, 16, 3);
        // 8 UI x 1000 ps / 10 ps = 800 points.
        assert_eq!(trace.offsets().len(), 800);
        assert_eq!(trace.p_high().len(), 800);
        // Sample the middle of each bit from the trace: it matches.
        for (i, bit) in bits.iter().enumerate() {
            let mid_idx = i * 100 + 50;
            let p = trace.p_high()[mid_idx];
            if bit {
                assert!(p > 0.9, "bit {i} p_high {p}");
            } else {
                assert!(p < 0.1, "bit {i} p_high {p}");
            }
        }
        // The render shows both rails and the transitions.
        let strip = trace.render();
        assert!(strip.contains('~'));
        assert!(strip.contains('_'));
        assert!(strip.contains('/'));
    }

    #[test]
    fn transition_regions_are_probabilistic_with_jitter() {
        use signal::jitter::JitterBudget;
        let rate = DataRate::from_gbps(2.5);
        let bits = BitStream::alternating(64);
        let wave = AnalogWaveform::new(
            DigitalWaveform::from_bits(&bits, rate, &JitterBudget::new().with_rj_rms_ps(5.0), 7),
            LevelSet::pecl(),
            EdgeShape::default(),
        );
        let trace = EtCapture::new().reconstruct_trace(&wave, rate, 16, 32, 9);
        // Some points sit genuinely between the rails.
        let fuzzy = trace.p_high().iter().filter(|p| (0.2..0.8).contains(*p)).count();
        assert!(fuzzy > 4, "expected probabilistic transition points, got {fuzzy}");
    }
}
