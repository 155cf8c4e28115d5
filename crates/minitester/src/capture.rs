//! Equivalent-time capture: the mini-tester's software oscilloscope.
//!
//! The receive path is a strobed comparator whose strobe is placed by a
//! **10 ps** delay vernier (§1: "a high-speed PECL sampling circuit is
//! designed to capture the returned signal, also with 10 ps resolution").
//! Sweeping the strobe across the unit interval while the pattern repeats
//! reconstructs the eye in equivalent time — no bench instrument needed on
//! the probe card.

use core::fmt;
use core::ops::Range;

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
        let (len, _) = self.widest_run()?;
        if len == self.points.len() {
            return Ok(UnitInterval::ONE);
        }
        let opening = self.step * len as i64;
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
        let (len, start) = self.widest_run()?;
        Ok(self.points[(start + len / 2) % self.points.len()].phase)
    }

    /// The widest circular run of error-free phases, as (length, start):
    /// the first of the widest in scan order, the whole scan from 0 when
    /// every phase is clean.
    fn widest_run(&self) -> Result<(usize, usize)> {
        let n = self.points.len();
        if !self.points.iter().any(|p| p.errors == 0) {
            return Err(MiniTesterError::EyeClosed);
        }
        let mut best = (0usize, 0usize); // (length, start)
        let mut run = 0usize;
        for i in 0..2 * n {
            if self.points[i % n].errors == 0 {
                run += 1;
                if run > best.0 {
                    best = (run.min(n), i + 1 - run);
                }
            } else {
                run = 0;
            }
        }
        Ok(best)
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
/// let pattern = path.prbs_pattern(rate, 512)?;
/// let wave = path.render(&pattern, 3)?;
/// let capture = EtCapture::new();
/// let job = EyeScanJob { capture: &capture, wave: &wave, rate, expected: pattern.bits(), seed: 11 };
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
    /// vernier's 10 ps grid) and counts errors: one uncapped
    /// [`StrobedSampler::capture_errors`] row.
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
        let (nominal, actual) = self.programmed(phase)?;
        let row = (actual, self.sampler.threshold(), seed);
        let errors = self.sampler.capture_errors(wave, rate, expected, &[row], expected.len());
        Ok(ScanPoint { phase: nominal, compared: expected.len(), errors: errors[0] })
    }

    /// The vernier's (nominal, actual) delay when programmed to `phase`:
    /// the phase a point is filed under, and the one its strobes take.
    ///
    /// # Errors
    ///
    /// Propagates vernier range errors.
    pub(crate) fn programmed(&self, phase: Duration) -> Result<(Duration, Duration)> {
        let mut vernier = self.vernier.clone();
        vernier.set_delay(phase)?;
        Ok((vernier.nominal_delay(), vernier.actual_delay()))
    }
}

/// An equivalent-time eye scan described as a value: the one entry point
/// ([`exec::PoolJob::run_on`]) that sweeps the strobe across one unit
/// interval in vernier steps, reconstructing the horizontal eye, and the
/// scheduling surface the `atd` service layer drives.
///
/// Each strobe phase is one row of [`StrobedSampler::capture_errors`],
/// drawing from its own `tree.index(k)` substream, and the band makes one
/// kernel call per pool worker on a contiguous slice, where adjacent
/// phases share waveform bounds. No count depends on the split, so the
/// scan is bit-identical for every thread count. A scan that runs inside a
/// job already fanned out passes [`exec::ExecPool::serial`], so thread
/// counts compose instead of multiplying. The margin scan
/// [`crate::MiniTester`] runs for each wafer die makes the same call with
/// a cap of 1 on the calling thread, reading only which phases are clean.
#[derive(Debug, Clone, Copy)]
pub struct EyeScanJob<'a> {
    /// The capture head (sampler threshold + strobe vernier).
    pub capture: &'a EtCapture,
    /// The waveform under test.
    pub wave: &'a AnalogWaveform,
    /// The data rate under test.
    pub rate: DataRate,
    /// The expected pattern at each strobe phase: the bits of the
    /// [`LanePattern`](crate::LanePattern) whose stimulus produced `wave`.
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

    /// Which phases of the full scan capture every bit, on the calling
    /// thread: the pass-only form of [`run_on`](exec::PoolJob::run_on),
    /// for a caller that reads only the opening and the best phase. It is
    /// the full scan with each point's errors capped at 1, so each row
    /// stops at its first error and both agree phase by phase.
    ///
    /// # Errors
    ///
    /// As [`exec::PoolJob::run_on`].
    pub(crate) fn clean_phases(&self) -> Result<EyeScan> {
        self.sweep(&exec::ExecPool::serial(), 0..self.steps().1, 1)
    }

    /// The points of the strobe steps in `band`, their errors capped at
    /// `cap`. Step `k` is one [`StrobedSampler::capture_errors`] row: the
    /// vernier's actual delay for `k` steps, the sampler's threshold and
    /// the seed of `tree.index(k)`, so a band's points are the full
    /// scan's. The band splits into one contiguous slice per pool worker,
    /// one kernel call each.
    fn sweep(&self, pool: &exec::ExecPool, band: Range<usize>, cap: usize) -> Result<EyeScan> {
        let (step, _) = self.steps();
        let tree = self.seeds();
        let threshold = self.capture.sampler.threshold();
        let (phases, rows): (Vec<_>, Vec<_>) = band
            .map(|k| {
                let k = k as i64; // xlint::allow(no-lossy-cast, k < steps which fits i64 by construction)
                let seed = tree.index(k as u64).seed();
                let (nominal, actual) = self.capture.programmed(step * k)?;
                Ok((nominal, (actual, threshold, seed)))
            })
            .collect::<Result<_>>()?;
        let (n, slices) = (rows.len(), pool.threads().min(rows.len()));
        let outcome = pool.run(slices, |s| {
            let slice = &rows[s * n / slices..(s + 1) * n / slices];
            self.capture.sampler.capture_errors(self.wave, self.rate, self.expected, slice, cap)
        })?;
        let compared = self.expected.len();
        let points = phases
            .into_iter()
            .zip(outcome.results.concat())
            .map(|(phase, errors)| ScanPoint { phase, compared, errors })
            .collect();
        Ok(EyeScan { points, rate: self.rate, step })
    }

    /// The vernier step and the number of steps in one unit interval.
    fn steps(&self) -> (Duration, usize) {
        let ui = self.rate.unit_interval();
        let step = self.capture.vernier.step();
        let steps = ((ui.as_fs() + step.as_fs() - 1) / step.as_fs()).max(1);
        (step, usize::try_from(steps).unwrap_or(0))
    }

    /// The tree whose `index(k)` seeds strobe step `k`.
    fn seeds(&self) -> rng::SeedTree {
        rng::SeedTree::new(self.seed).stream("minitester.capture.eye-scan")
    }

    /// Shared body of the full scan and the banded scan: `phase_count` of
    /// `None` means "every strobe step in one unit interval".
    fn run_band(
        &self,
        pool: &exec::ExecPool,
        phase_start: usize,
        phase_count: Option<usize>,
    ) -> Result<EyeScan> {
        let (_, steps) = self.steps();
        let count = phase_count.unwrap_or(steps);
        if count == 0 || phase_start.checked_add(count).is_none_or(|end| end > steps) {
            return Err(crate::MiniTesterError::BadTestPlan {
                reason: "eye-scan strobe range empty or past the unit interval",
            });
        }
        self.sweep(pool, phase_start..phase_start + count, self.expected.len())
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
        let pattern = path.prbs_pattern(rate, bits).unwrap();
        (path.render(&pattern, 21).unwrap(), rate, pattern.bits().clone())
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
    fn scan_is_clean_at_mid_ui_and_errors_at_the_crossover() {
        // A clean 2.5 Gbps signal with 3 ps of random jitter: the eye
        // centre (step 20 of 40, UI/2) captures every bit, the crossover
        // (step 0) does not.
        let rate = DataRate::from_gbps(2.5);
        let bits = BitStream::alternating(64);
        let wave = AnalogWaveform::new(
            signal::DigitalWaveform::from_bits(
                &bits,
                rate,
                &signal::jitter::JitterBudget::new().with_rj_rms_ps(3.0),
                5,
            ),
            signal::LevelSet::pecl(),
            signal::EdgeShape::default(),
        );
        let scan = serial_scan(&wave, rate, &bits, 11).unwrap();
        assert_eq!(scan.points().len(), 40);
        let centre = scan.points()[20];
        assert_eq!(centre.phase, Duration::from_ps(200));
        assert_eq!(centre.errors, 0, "errors at centre phase {}", centre.phase);
        assert!(scan.points()[0].errors > 0, "expected errors at the crossover");
    }

    #[test]
    fn clean_phases_agree_with_the_full_scan() {
        let check = |wave: &AnalogWaveform, rate, expected: &BitStream, seed, what: &str| {
            let capture = EtCapture::new();
            let job = EyeScanJob { capture: &capture, wave, rate, expected, seed };
            let scan = job.run_on(&exec::ExecPool::serial()).unwrap();
            let clean = job.clean_phases().unwrap();
            let want: Vec<bool> = scan.points().iter().map(|p| p.errors == 0).collect();
            let got: Vec<bool> = clean.points().iter().map(|p| p.errors == 0).collect();
            assert_eq!(got, want, "{what}");
            for (c, p) in clean.points().iter().zip(scan.points()) {
                assert_eq!((c.phase, c.compared, c.errors), (p.phase, p.compared, p.errors.min(1)));
            }
            assert_eq!(clean.opening_ui().ok(), scan.opening_ui().ok());
            assert_eq!(clean.best_phase().ok(), scan.best_phase().ok());
            want
        };
        for (gbps, seed) in [(2.5, 4), (5.0, 8), (1.0, 2)] {
            let (wave, rate, expected) = prbs_setup(gbps, 512);
            check(&wave, rate, &expected, seed, &format!("{gbps} Gbps"));
        }
        // A 5 Gbps loopback through a degraded channel: a narrow eye, so
        // many phases sit near its walls.
        let (stimulus, rate, expected) = prbs_setup(5.0, 512);
        let dut = crate::WlpDut::good(crate::WlpChannel::degraded());
        let returned = dut.loopback(&stimulus, rate, expected.len(), 6);
        let clean = check(&returned, rate, &expected, 6, "degraded 5 Gbps loopback");
        assert!(clean.contains(&true) && clean.contains(&false), "{clean:?}");
        // A closed eye closes both ways.
        let (wave, rate, _) = prbs_setup(2.5, 512);
        let garbage = BitStream::alternating(512);
        let capture = EtCapture::new();
        let job = EyeScanJob { capture: &capture, wave: &wave, rate, expected: &garbage, seed: 3 };
        let clean = job.clean_phases().unwrap();
        assert!(matches!(clean.opening_ui(), Err(MiniTesterError::EyeClosed)));
        assert!(matches!(clean.best_phase(), Err(MiniTesterError::EyeClosed)));
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
        let pattern = path.prbs_pattern(rate, 1_024).unwrap();
        let wave = path.render(&pattern, 31).unwrap();
        let capture = EtCapture::new();
        let job =
            EyeScanJob { capture: &capture, wave: &wave, rate, expected: pattern.bits(), seed: 7 };
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
