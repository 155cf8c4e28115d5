//! Eye-diagram construction and crossover-jitter analysis.

use core::fmt;

use pstime::{DataRate, Duration, Instant, UnitInterval};

use crate::analog::AnalogWaveform;
use crate::stats::RunningStats;

/// The result of folding a waveform into an eye diagram and measuring it at
/// the crossover point — the virtual equivalent of the sampling-oscilloscope
/// screens in the paper's Figs. 7, 8, 16, 17, and 19.
///
/// The analysis locates every threshold crossing analytically (femtosecond
/// bisection), folds the crossings into one unit interval, and reports:
///
/// * **peak-to-peak jitter** at the crossover (the paper quotes 46.7 ps at
///   2.5 Gbps),
/// * **rms jitter**,
/// * **horizontal eye opening** in UI (`1 − TJpp/UI`, the paper's 0.88 UI),
/// * **vertical eye height** at the eye center, and
/// * the measured amplitude extremes.
///
/// # Examples
///
/// ```
/// use pstime::DataRate;
/// use signal::jitter::JitterBudget;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, EyeDiagram, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::alternating(500);
/// let d = DigitalWaveform::from_bits(&bits, rate, &JitterBudget::new().with_rj_rms_ps(3.2), 1);
/// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
/// let eye = EyeDiagram::analyze(&a, rate)?;
/// assert!(eye.opening_ui().value() > 0.9);
/// # Ok::<(), signal::SignalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EyeDiagram {
    rate: DataRate,
    crossings: usize,
    jitter_pp: Duration,
    jitter_rms: Duration,
    opening_ui: UnitInterval,
    eye_height_mv: f64,
    phases_fs: Vec<i64>,
}

impl EyeDiagram {
    /// Folds `wave` at `rate` and measures the eye.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SignalError::InsufficientTransitions`] if the
    /// waveform has fewer than two threshold crossings.
    pub fn analyze(wave: &AnalogWaveform, rate: DataRate) -> crate::Result<EyeDiagram> {
        let ui = rate.unit_interval();
        let threshold = wave.levels().mid().as_f64();
        let digital = wave.digital();

        // 1. Locate all threshold crossings analytically.
        let mut crossings: Vec<Instant> = Vec::with_capacity(digital.num_edges());
        let half = ui / 2;
        for e in digital.edges() {
            if let Ok(t) = wave.find_crossing(threshold, e.at - half, e.at + half) {
                crossings.push(t);
            }
        }
        if crossings.len() < 2 {
            return Err(crate::SignalError::InsufficientTransitions {
                found: crossings.len(),
                required: 2,
            });
        }

        // 2. Fold into one UI, unwrapping around the circular boundary.
        //    Use the first crossing's phase as the provisional center and
        //    map every phase into (center - UI/2, center + UI/2].
        let ref_phase = crossings[0].phase_in(ui);
        let mut stats = RunningStats::new();
        let mut phases_fs: Vec<i64> = Vec::with_capacity(crossings.len());
        for t in &crossings {
            let p = t.phase_in(ui);
            let mut delta = p - ref_phase;
            if delta > half {
                delta -= ui;
            } else if delta < -half {
                delta += ui;
            }
            let unwrapped = ref_phase + delta;
            phases_fs.push(unwrapped.as_fs());
            stats.push(unwrapped.as_fs_f64());
        }

        let jitter_pp = Duration::from_fs_f64(stats.max() - stats.min());
        let jitter_rms = Duration::from_fs_f64(stats.std_dev());
        let crossover_phase = Duration::from_fs_f64(stats.mean()).rem_euclid(ui);

        // 3. Horizontal opening: the jitter-free span of the UI.
        let opening_ui =
            (UnitInterval::ONE - UnitInterval::from_duration(jitter_pp, rate)).clamp_unit();

        // 4. Vertical eye height at the eye center (crossover + UI/2):
        //    worst-case high sample minus worst-case low sample.
        let center_phase = (crossover_phase + half).rem_euclid(ui);
        let n_bits = digital.span() / ui;
        let mut low_max = f64::NEG_INFINITY;
        let mut high_min = f64::INFINITY;
        let mut cursor = wave.cursor();
        for i in 0..n_bits {
            let t = digital.start() + ui * i + center_phase;
            if t >= digital.end() {
                break;
            }
            let v = cursor.value_at(t);
            if v >= threshold {
                high_min = high_min.min(v);
            } else {
                low_max = low_max.max(v);
            }
        }
        let eye_height_mv = if high_min.is_finite() && low_max.is_finite() {
            (high_min - low_max).max(0.0)
        } else {
            // Single-level stream: no vertical eye to speak of.
            0.0
        };

        Ok(EyeDiagram {
            rate,
            crossings: crossings.len(),
            jitter_pp,
            jitter_rms,
            opening_ui,
            eye_height_mv,
            phases_fs,
        })
    }

    /// The data rate the eye was folded at.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// Peak-to-peak jitter at the crossover point.
    pub fn jitter_pp(&self) -> Duration {
        self.jitter_pp
    }

    /// The unwrapped crossing phases (picoseconds, absolute within the
    /// fold) — the raw population behind the jitter statistics, used by
    /// [`crate::decompose`] for RJ/DJ separation.
    pub fn crossing_phases_ps(&self) -> Vec<f64> {
        self.phases_fs.iter().map(|fs| Duration::from_fs(*fs).as_ps_f64()).collect()
    }

    /// Horizontal eye opening as a fraction of the unit interval.
    pub fn opening_ui(&self) -> UnitInterval {
        self.opening_ui
    }

    /// Vertical eye height (mV) at the eye center.
    pub fn eye_height_mv(&self) -> f64 {
        self.eye_height_mv
    }

    /// Builds a 2-UI persistence raster of the eye for rendering.
    pub fn raster(wave: &AnalogWaveform, rate: DataRate, cols: usize, rows: usize) -> EyeRaster {
        EyeRaster::build(wave, rate, cols, rows)
    }
}

impl fmt::Display for EyeDiagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "eye @ {}: opening {}, jitter {} p-p / {} rms, height {:.0} mV ({} crossings)",
            self.rate,
            self.opening_ui,
            self.jitter_pp,
            self.jitter_rms,
            self.eye_height_mv,
            self.crossings
        )
    }
}

/// A 2-UI persistence raster (density grid) of an eye diagram, for ASCII or
/// external rendering. Columns span two unit intervals; rows span the
/// voltage range with a 10 % margin.
#[derive(Debug, Clone, PartialEq)]
pub struct EyeRaster {
    cols: usize,
    rows: usize,
    counts: Vec<u32>,
    v_lo: f64,
    v_hi: f64,
    ui: Duration,
}

impl EyeRaster {
    /// Samples `wave` densely and folds samples into a `cols × rows` grid
    /// spanning two UIs horizontally.
    ///
    /// # Panics
    ///
    /// Panics if `cols` or `rows` is zero.
    pub fn build(wave: &AnalogWaveform, rate: DataRate, cols: usize, rows: usize) -> EyeRaster {
        assert!(cols > 0 && rows > 0, "raster must have nonzero dimensions");
        let ui = rate.unit_interval();
        let span = ui * 2;
        let digital = wave.digital();
        let swing = wave.levels().swing().as_f64();
        let v_lo = wave.levels().vol().as_f64() - 0.1 * swing;
        let v_hi = wave.levels().voh().as_f64() + 0.1 * swing;
        let mut counts = vec![0u32; cols * rows];
        // 4 samples per column per UI pass is plenty for a persistence plot.
        let dt = span / i64::try_from(cols * 4).unwrap_or(i64::MAX);
        let dt = if dt.is_zero() { Duration::from_fs(1) } else { dt };
        let mut cursor = wave.cursor();
        let mut t = digital.start();
        while t < digital.end() {
            let v = cursor.value_at(t);
            let phase = t.phase_in(span);
            let scaled = u128::try_from(phase.as_fs()).unwrap_or(0)
                * u128::try_from(cols).unwrap_or(u128::MAX)
                / u128::try_from(span.as_fs()).unwrap_or(u128::MAX);
            let col = usize::try_from(scaled).unwrap_or(usize::MAX).min(cols - 1);
            let frac = ((v - v_lo) / (v_hi - v_lo)).clamp(0.0, 1.0);
            let row =
                crate::quant::round_idx((1.0 - frac) * crate::quant::count_f64(rows - 1), rows - 1);
            counts[row * cols + col] += 1;
            t += dt;
        }
        EyeRaster { cols, rows, counts, v_lo, v_hi, ui }
    }

    /// Grid width in columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height in rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Hit count at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn count(&self, row: usize, col: usize) -> u32 {
        assert!(row < self.rows && col < self.cols, "raster index out of range");
        self.counts[row * self.cols + col]
    }

    /// Voltage range spanned by the rows (mV).
    pub fn voltage_range(&self) -> (f64, f64) {
        (self.v_lo, self.v_hi)
    }

    /// The unit interval the raster was folded at.
    pub fn unit_interval(&self) -> Duration {
        self.ui
    }

    /// Largest hit count in the grid.
    pub fn peak_count(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::{JitterBudget, NoJitter};
    use crate::{BitStream, DigitalWaveform, EdgeShape, LevelSet};

    fn eye_of(bits: BitStream, gbps: f64, budget: &JitterBudget, seed: u64) -> EyeDiagram {
        let rate = DataRate::from_gbps(gbps);
        let d = DigitalWaveform::from_bits(&bits, rate, budget, seed);
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        EyeDiagram::analyze(&a, rate).expect("analyzable eye")
    }

    #[test]
    fn clean_eye_is_wide_open() {
        let eye = eye_of(BitStream::alternating(400), 2.5, &JitterBudget::new(), 0);
        assert!(eye.opening_ui().value() > 0.99, "opening {}", eye.opening_ui());
        assert!(eye.jitter_pp() < Duration::from_ps(1));
        // Full PECL swing visible.
        assert!(eye.eye_height_mv() > 700.0, "height {}", eye.eye_height_mv());
    }

    #[test]
    fn jitter_closes_the_eye() {
        let budget = JitterBudget::new().with_rj_rms_ps(3.2).with_dcd_ps(20.0);
        let eye = eye_of(BitStream::alternating(2000), 2.5, &budget, 3);
        // DCD alone gives 20 ps; RJ adds tails.
        let pp = eye.jitter_pp().as_ps_f64();
        assert!(pp > 25.0 && pp < 60.0, "pp jitter {pp}");
        assert!(eye.opening_ui().value() < 0.95);
    }

    #[test]
    fn opening_accounts_for_rate() {
        // Same absolute jitter is proportionally worse at 5 Gbps than 1 Gbps.
        let budget = JitterBudget::new().with_dcd_ps(40.0);
        let eye1 = eye_of(BitStream::alternating(600), 1.0, &budget, 1);
        let eye5 = eye_of(BitStream::alternating(600), 5.0, &budget, 1);
        assert!(eye1.opening_ui().value() > eye5.opening_ui().value());
        assert!((eye1.opening_ui().value() - (1.0 - 0.04)).abs() < 0.02);
        assert!((eye5.opening_ui().value() - (1.0 - 0.2)).abs() < 0.03);
    }

    #[test]
    fn prbs_like_pattern_measures() {
        // A mixed pattern with runs exercises the unwrap logic.
        let bits = BitStream::from_str_bits("1100010110011101000011111010");
        let eye = eye_of(bits.repeat(40), 2.5, &JitterBudget::new().with_rj_rms_ps(2.0), 9);
        assert!(eye.opening_ui().value() > 0.9);
    }

    #[test]
    fn insufficient_transitions_error() {
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&BitStream::ones(100), rate, &NoJitter, 0);
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        let err = EyeDiagram::analyze(&a, rate).unwrap_err();
        assert!(matches!(err, crate::SignalError::InsufficientTransitions { .. }));
    }

    #[test]
    fn display_contains_key_metrics() {
        let eye = eye_of(BitStream::alternating(100), 2.5, &JitterBudget::new(), 0);
        let s = eye.to_string();
        assert!(s.contains("opening"));
        assert!(s.contains("p-p"));
        assert!(eye.rate() == DataRate::from_gbps(2.5));
    }

    #[test]
    fn raster_builds_and_is_dense() {
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&BitStream::alternating(64), rate, &NoJitter, 0);
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        let raster = EyeDiagram::raster(&a, rate, 64, 20);
        assert_eq!(raster.cols(), 64);
        assert_eq!(raster.rows(), 20);
        assert!(raster.peak_count() > 0);
        let (lo, hi) = raster.voltage_range();
        assert!(lo < -1700.0 && hi > -900.0);
        assert_eq!(raster.unit_interval(), Duration::from_ps(400));
        // The settled rails sit just inside the 10 % margin (row ~2 of 20).
        let total: u32 = (0..64).map(|c| raster.count(2, c)).sum();
        assert!(total > 0);
    }

    #[test]
    #[should_panic(expected = "raster index out of range")]
    fn raster_bad_index_panics() {
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&BitStream::alternating(8), rate, &NoJitter, 0);
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        let raster = EyeRaster::build(&a, rate, 4, 4);
        let _ = raster.count(4, 0);
    }
}
