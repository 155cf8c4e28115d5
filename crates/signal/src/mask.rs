//! Eye-mask compliance testing.
//!
//! Serial-link specifications define a keep-out polygon in the middle of
//! the eye; a part complies when no trajectory enters it. The paper's eye
//! photographs (Figs. 7, 8, 16, 17, 19) are exactly what an engineer holds
//! a mask against, so the virtual instrument gets the same tool: a
//! hexagonal mask placed at the eye centre, scanned against the folded
//! waveform, with hit counting.

use pstime::DataRate;

use crate::analog::AnalogWaveform;
use crate::{Result, SignalError};

/// A hexagonal eye mask, symmetric about the eye centre:
///
/// ```text
///        x1    x2
///     ___________        ^
///    /           \       | height/2
///   <             >      + centre (0 V differential, mid-UI)
///    \___________/       | height/2
///                        v
/// ```
///
/// `x1`/`x2` are UI offsets from the eye centre where the mask reaches
/// full height and where it ends (0 < x1 ≤ x2 < 0.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeMask {
    half_width_full: f64,
    half_width_tip: f64,
    half_height_mv: f64,
}

impl EyeMask {
    /// Creates a mask: full height over `±half_width_full` UI, tapering to
    /// points at `±half_width_tip` UI, `height_mv` tall in total.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < half_width_full ≤ half_width_tip < 0.5` and
    /// `height_mv > 0`.
    pub fn hexagon(half_width_full: f64, half_width_tip: f64, height_mv: f64) -> Self {
        assert!(
            half_width_full > 0.0 && half_width_full <= half_width_tip && half_width_tip < 0.5,
            "mask widths must satisfy 0 < full <= tip < 0.5 UI"
        );
        assert!(height_mv > 0.0, "mask height must be positive");
        EyeMask { half_width_full, half_width_tip, half_height_mv: height_mv / 2.0 }
    }

    /// A mask sized for the paper's measured eyes: 0.3 UI of full-height
    /// opening tapering to 0.38 UI tips, 400 mV tall (half the PECL swing).
    pub fn paper_pecl() -> Self {
        EyeMask::hexagon(0.15, 0.19, 400.0)
    }

    /// The mask's total height (mV).
    pub fn height_mv(&self) -> f64 {
        2.0 * self.half_height_mv
    }

    /// The mask's full-height width (UI).
    pub fn full_width_ui(&self) -> f64 {
        2.0 * self.half_width_full
    }

    /// Whether the point `(phase_from_centre_ui, v_from_centre_mv)` falls
    /// inside the keep-out region.
    pub fn contains(&self, phase_from_centre_ui: f64, v_from_centre_mv: f64) -> bool {
        let x = phase_from_centre_ui.abs();
        let y = v_from_centre_mv.abs();
        if x >= self.half_width_tip || y >= self.half_height_mv {
            return false;
        }
        if x <= self.half_width_full {
            return true;
        }
        // Tapered region: height shrinks linearly to zero at the tip.
        let frac = (self.half_width_tip - x) / (self.half_width_tip - self.half_width_full);
        y < self.half_height_mv * frac
    }
}

/// The result of scanning a waveform against a mask.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskTest {
    /// Samples scanned.
    pub samples: usize,
    /// Samples inside the keep-out region.
    pub violations: usize,
    /// The worst violation's position (UI from centre, mV from centre).
    pub worst: Option<(f64, f64)>,
}

impl MaskTest {
    /// Whether the eye is mask-compliant.
    pub fn passed(&self) -> bool {
        self.violations == 0
    }

    /// Violation ratio.
    pub fn violation_ratio(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.violations as f64 / self.samples as f64
        }
    }
}

/// Scans `wave` (folded at `rate`) against `mask`, sampling
/// `samples_per_ui` points per unit interval across the whole waveform.
/// The mask centre is placed at the nominal eye centre: mid-UI, mid-swing.
///
/// # Errors
///
/// [`SignalError::EmptyWaveform`] for a waveform shorter than one UI.
pub fn mask_test(
    wave: &AnalogWaveform,
    rate: DataRate,
    mask: &EyeMask,
    samples_per_ui: usize,
) -> Result<MaskTest> {
    let ui = rate.unit_interval();
    let digital = wave.digital();
    let n_ui = (digital.span() / ui) as usize;
    if n_ui == 0 {
        return Err(SignalError::EmptyWaveform { context: "mask testing" });
    }
    let samples_per_ui = samples_per_ui.max(2);
    let dt = ui / samples_per_ui as i64;
    let centre_v = wave.levels().mid().as_f64();

    let mut samples = 0usize;
    let mut violations = 0usize;
    let mut worst: Option<(f64, f64, f64)> = None; // (margin, x, y)
    let mut cursor = wave.cursor();
    let mut t = digital.start();
    while t < digital.end() {
        let phase = t.phase_in(ui);
        let x = phase.ratio(ui) - 0.5;
        let y = cursor.value_at(t) - centre_v;
        samples += 1;
        if mask.contains(x, y) {
            violations += 1;
            // Depth into the mask: distance from the nearest edge,
            // approximated by the smaller of the normalized margins.
            let depth =
                (1.0 - x.abs() / mask.half_width_tip).min(1.0 - y.abs() / mask.half_height_mv);
            if worst.is_none_or(|(d, _, _)| depth > d) {
                worst = Some((depth, x, y));
            }
        }
        t += dt;
    }
    Ok(MaskTest { samples, violations, worst: worst.map(|(_, x, y)| (x, y)) })
}

/// The largest mask (of the [`EyeMask::hexagon`] family with the given
/// aspect) that still passes, found by bisection on a scale factor — the
/// measured "mask margin" figure of merit.
///
/// Returns the passing scale in `(0, 1]` relative to `mask`, or 0.0 if even
/// a vanishing mask fails (an eye crossing dead centre).
///
/// # Errors
///
/// Propagates [`mask_test`] errors.
pub fn mask_margin(
    wave: &AnalogWaveform,
    rate: DataRate,
    mask: &EyeMask,
    samples_per_ui: usize,
) -> Result<f64> {
    let scaled = |s: f64| {
        EyeMask::hexagon(
            (mask.half_width_full * s).max(1e-6),
            (mask.half_width_tip * s).max(2e-6),
            (mask.half_height_mv * 2.0 * s).max(1e-6),
        )
    };
    if mask_test(wave, rate, mask, samples_per_ui)?.passed() {
        return Ok(1.0);
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..20 {
        let mid = 0.5 * (lo + hi);
        if mid <= 1e-6 {
            break;
        }
        if mask_test(wave, rate, &scaled(mid), samples_per_ui)?.passed() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::{JitterBudget, NoJitter};
    use crate::{BitStream, DigitalWaveform, EdgeShape, LevelSet};

    fn wave(budget: &JitterBudget, gbps: f64, n: usize, seed: u64) -> (AnalogWaveform, DataRate) {
        let rate = DataRate::from_gbps(gbps);
        let d = DigitalWaveform::from_bits(&BitStream::alternating(n), rate, budget, seed);
        (AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default()), rate)
    }

    #[test]
    fn mask_geometry() {
        let m = EyeMask::hexagon(0.1, 0.2, 300.0);
        assert_eq!(m.height_mv(), 300.0);
        assert!((m.full_width_ui() - 0.2).abs() < 1e-12);
        // Centre is inside.
        assert!(m.contains(0.0, 0.0));
        // Full-height corners.
        assert!(m.contains(0.09, 149.0));
        assert!(!m.contains(0.09, 151.0));
        // Taper: at x = 0.15 (halfway to tip) height halves.
        assert!(m.contains(0.15, 74.0));
        assert!(!m.contains(0.15, 76.0));
        // Outside the tips.
        assert!(!m.contains(0.21, 0.0));
        assert!(!m.contains(-0.25, 10.0));
        // Symmetry.
        assert_eq!(m.contains(-0.09, -149.0), m.contains(0.09, 149.0));
    }

    #[test]
    #[should_panic(expected = "mask widths")]
    fn bad_mask_panics() {
        let _ = EyeMask::hexagon(0.3, 0.2, 100.0);
    }

    #[test]
    fn clean_eye_passes_the_paper_mask() {
        let (w, rate) = wave(&JitterBudget::new().with_rj_rms_ps(3.2), 2.5, 512, 1);
        let result = mask_test(&w, rate, &EyeMask::paper_pecl(), 32).unwrap();
        assert!(result.passed(), "violations {:?}", result.worst);
        assert!(result.samples > 10_000);
        assert_eq!(result.violation_ratio(), 0.0);
    }

    #[test]
    fn heavy_jitter_violates_a_wide_mask() {
        // 150 ps p-p DCD at 2.5 Gbps moves the crossings 0.31 UI from the
        // eye centre: transitions enter a mask whose tips reach 0.45 UI,
        // while the paper-sized mask (tips at 0.19 UI) still clears.
        let budget = JitterBudget::new().with_dcd_ps(150.0).with_rj_rms_ps(5.0);
        let (w, rate) = wave(&budget, 2.5, 512, 3);
        let wide = EyeMask::hexagon(0.25, 0.45, 500.0);
        let result = mask_test(&w, rate, &wide, 32).unwrap();
        assert!(!result.passed());
        assert!(result.violations > 10);
        let (x, _y) = result.worst.unwrap();
        assert!(x.abs() < 0.5);
        // The small mask survives the same jitter.
        assert!(mask_test(&w, rate, &EyeMask::paper_pecl(), 32).unwrap().passed());
    }

    #[test]
    fn mask_margin_orders_eyes() {
        let (clean, rate) = wave(&JitterBudget::new().with_rj_rms_ps(2.0), 2.5, 512, 5);
        let (dirty, _) =
            wave(&JitterBudget::new().with_dcd_ps(100.0).with_rj_rms_ps(5.0), 2.5, 512, 5);
        let big = EyeMask::hexagon(0.3, 0.4, 700.0);
        let m_clean = mask_margin(&clean, rate, &big, 24).unwrap();
        let m_dirty = mask_margin(&dirty, rate, &big, 24).unwrap();
        assert!(m_clean > m_dirty, "clean {m_clean} !> dirty {m_dirty}");
        assert!(m_clean > 0.5);
    }

    #[test]
    fn passing_mask_has_margin_one() {
        let (w, rate) = wave(&JitterBudget::new(), 2.5, 128, 0);
        let margin = mask_margin(&w, rate, &EyeMask::paper_pecl(), 16).unwrap();
        assert_eq!(margin, 1.0);
    }

    #[test]
    fn five_gbps_eye_still_passes_a_scaled_mask() {
        // The paper's 0.75 UI eye at 5 Gbps: a mask scaled to the smaller
        // UI still fits (that's what "usable eye opening" means).
        let budget = JitterBudget::new().with_rj_rms_ps(3.4).with_dcd_ps(12.0);
        let (w, rate) = wave(&budget, 5.0, 1_024, 9);
        let mask = EyeMask::hexagon(0.12, 0.16, 250.0);
        let result = mask_test(&w, rate, &mask, 32).unwrap();
        assert!(result.passed(), "violations: {}", result.violations);
    }

    #[test]
    fn empty_waveform_rejected() {
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&BitStream::new(), rate, &NoJitter, 0);
        let w = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        assert!(matches!(
            mask_test(&w, rate, &EyeMask::paper_pecl(), 16),
            Err(SignalError::EmptyWaveform { .. })
        ));
    }
}
