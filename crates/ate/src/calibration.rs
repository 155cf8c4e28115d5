//! Channel deskew and the ±25 ps timing-accuracy audit.
//!
//! The paper's summary claim: "We have demonstrated timing accuracy control
//! to about ±25 ps." In a multi-channel PECL system the accuracy budget is
//! dominated by uncalibrated channel-to-channel skew (fanout buffers, trace
//! mismatch); the 10 ps verniers exist to null it. This module implements
//! that calibration loop — measure each channel's skew against a reference,
//! program the verniers to cancel it, and verify the residual — plus the
//! delay-line linearity audit that bounds the post-calibration error.

use pecl::{ClockFanout, ProgrammableDelayLine};
use pstime::{DataRate, Duration, Instant};
use signal::measure::measure_skew;
use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};

use crate::{AteError, Result};

/// The result of deskewing one multi-channel group.
#[derive(Debug, Clone, PartialEq)]
pub struct DeskewResult {
    /// Programmed vernier code per channel.
    pub codes: Vec<u32>,
    /// Residual skew per channel after calibration.
    pub residuals: Vec<Duration>,
    /// Worst-case |residual|.
    pub worst_residual: Duration,
}

impl DeskewResult {
    /// Whether every channel meets the accuracy target.
    fn meets(&self, target: Duration) -> bool {
        self.worst_residual <= target
    }
}

/// The paper's accuracy target: ±25 ps.
pub fn paper_accuracy_target() -> Duration {
    Duration::from_ps(25)
}

/// Calibrates a channel group: measures each leg's skew off `fanout`
/// against leg 0 and programs per-channel verniers to align all edges.
///
/// The measurement loop is physical: each leg transmits an edge, the
/// mid-level crossing is measured (as the sampling circuit would), and the
/// vernier is programmed with the complementary delay. Because verniers can
/// only add delay, every channel is aligned to the *latest* leg.
///
/// # Errors
///
/// [`AteError::CalibrationFailed`] if the residual exceeds `target`;
/// propagates measurement errors.
pub fn deskew_channels(
    fanout: &ClockFanout,
    rate: DataRate,
    target: Duration,
) -> Result<DeskewResult> {
    let n = fanout.outputs();
    let shape = EdgeShape::from_rise_2080_ps(72.0);
    let levels = LevelSet::pecl();
    let reference_bits = BitStream::from_str_bits("0011");
    let base = DigitalWaveform::from_bits(&reference_bits, rate, &signal::jitter::NoJitter, 0);

    // Step 1: measure raw skew of every leg against leg 0.
    let leg_wave = |leg: usize| AnalogWaveform::new(fanout.distribute(&base, leg), levels, shape);
    let reference = leg_wave(0);
    let near = Instant::from_ps(800); // the 0->1 edge of "0011" at 2.5 Gbps
    let mut skews = Vec::with_capacity(n);
    for leg in 0..n {
        let wave = leg_wave(leg);
        let skew = measure_skew(&wave, &reference, near, rate)?;
        skews.push(skew);
    }

    // Step 2: align to the latest leg by adding delay everywhere else.
    let latest = skews.iter().copied().max().unwrap_or(Duration::ZERO);
    let mut codes = Vec::with_capacity(n);
    let mut corrected: Vec<AnalogWaveform> = Vec::with_capacity(n);
    for (leg, skew) in skews.iter().enumerate() {
        let needed = latest - *skew;
        let mut vernier = ProgrammableDelayLine::standard();
        let code = vernier.set_delay(needed)?;
        codes.push(code);
        corrected.push(AnalogWaveform::new(
            vernier.apply(&fanout.distribute(&base, leg)),
            levels,
            shape,
        ));
    }

    // Step 3: verify — re-measure every channel against corrected leg 0.
    // Channel-to-channel skew is the only observable (and the only thing
    // that matters); absolute delay is common-mode.
    let insertion = ProgrammableDelayLine::standard().insertion_delay();
    let verify_near = near + insertion + latest;
    let mut residuals = Vec::with_capacity(n);
    let mut worst = Duration::ZERO;
    for wave in &corrected {
        let residual = measure_skew(wave, &corrected[0], verify_near, rate)?;
        worst = worst.max(residual.abs());
        residuals.push(residual);
    }

    let result = DeskewResult { codes, residuals, worst_residual: worst };
    if !result.meets(target) {
        return Err(AteError::CalibrationFailed {
            residual_ps: worst.as_ps_f64(),
            target_ps: target.as_ps_f64(),
        });
    }
    Ok(result)
}

/// One row of the edge-placement linearity audit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementPoint {
    /// Requested edge placement.
    pub requested: Duration,
    /// Achieved placement (nominal code delay + INL).
    pub achieved: Duration,
}

impl PlacementPoint {
    /// Placement error.
    pub fn error(&self) -> Duration {
        self.achieved - self.requested
    }
}

/// Sweeps requested edge placements across `range` in `step` increments and
/// reports achieved placement — quantization plus INL. The worst-case error
/// bounds the system's edge-placement accuracy (the SUMMARY experiment).
///
/// Each requested placement `step × k` is an independent vernier
/// programming fanned out over `pool`, so the audit is bit-identical for
/// every thread count.
///
/// # Errors
///
/// Propagates vernier range and execution errors; [`AteError::BadProgram`]
/// for a non-positive step.
pub fn placement_audit(
    range: Duration,
    step: Duration,
    pool: &exec::ExecPool,
) -> Result<Vec<PlacementPoint>> {
    if step <= Duration::ZERO {
        return Err(AteError::BadProgram { reason: "placement audit step must be positive" });
    }
    if range < Duration::ZERO {
        return Ok(Vec::new());
    }
    // requested = step * k for k = 0 ..= floor(range / step): the same
    // points the serial accumulation loop visits, computed directly so
    // each is an independent job.
    let count = usize::try_from(range.as_fs() / step.as_fs()).unwrap_or(0) + 1;
    let outcome = pool.run(count, |k| -> Result<PlacementPoint> {
        let requested = step * k as i64; // xlint::allow(no-lossy-cast, k <= range/step which fits i64)
        let mut vernier = ProgrammableDelayLine::standard();
        vernier.set_delay(requested)?;
        Ok(PlacementPoint { requested, achieved: vernier.actual_delay() })
    })?;
    outcome.results.into_iter().collect()
}

/// Worst-case absolute placement error in an audit.
pub fn worst_placement_error(points: &[PlacementPoint]) -> Duration {
    points.iter().map(|p| p.error().abs()).max().unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deskew_meets_the_paper_target() {
        // The fanout ships with ±25 ps of leg skew; calibration must bring
        // the group within the ±25 ps system target (it lands ≤ ~7 ps:
        // half a vernier step + INL).
        let fanout = ClockFanout::new(8, Duration::from_ps(1));
        let result =
            deskew_channels(&fanout, DataRate::from_gbps(2.5), paper_accuracy_target()).unwrap();
        assert_eq!(result.codes.len(), 8);
        assert!(
            result.worst_residual <= Duration::from_ps(8),
            "residual {}",
            result.worst_residual
        );
        assert!(result.meets(paper_accuracy_target()));
        // Calibration dominates: the uncalibrated spread (~47 ps) is more
        // than three times the residual (~5 ps).
        assert!(
            fanout.max_skew_spread() > result.worst_residual * 3,
            "raw {} vs residual {}",
            fanout.max_skew_spread(),
            result.worst_residual
        );
    }

    #[test]
    fn deskew_fails_an_unreachable_target() {
        let fanout = ClockFanout::new(4, Duration::from_ps(1));
        let err =
            deskew_channels(&fanout, DataRate::from_gbps(2.5), Duration::from_fs(100)).unwrap_err();
        assert!(matches!(err, AteError::CalibrationFailed { .. }));
    }

    #[test]
    fn deskew_handles_manual_skews() {
        let mut fanout = ClockFanout::new(3, Duration::ZERO);
        fanout.set_skew(0, Duration::ZERO);
        fanout.set_skew(1, Duration::from_ps(100));
        fanout.set_skew(2, Duration::from_ps(-100));
        let result =
            deskew_channels(&fanout, DataRate::from_gbps(2.5), paper_accuracy_target()).unwrap();
        // Leg 1 is latest; leg 2 needs 200 ps = code 20, leg 0 needs 100 ps.
        assert_eq!(result.codes[1], 0);
        assert_eq!(result.codes[0], 10);
        assert_eq!(result.codes[2], 20);
    }

    #[test]
    fn placement_audit_bounds_error() {
        // Sweep the full 10 ns range in 137 ps requests (odd step exercises
        // quantization).
        let serial = exec::ExecPool::serial();
        let points =
            placement_audit(Duration::from_ns(10), Duration::from_ps(137), &serial).unwrap();
        assert!(points.len() > 70);
        let worst = worst_placement_error(&points);
        // Half a 10 ps step + 2 ps INL = 7 ps, far inside ±25 ps.
        assert!(worst <= Duration::from_ps(7), "worst {worst}");
        assert!(worst <= paper_accuracy_target());
        // Errors are signed and both directions occur.
        assert!(points.iter().any(|p| p.error() > Duration::ZERO));
        assert!(points.iter().any(|p| p.error() < Duration::ZERO));
    }

    #[test]
    fn exact_requests_have_only_inl_error() {
        let serial = exec::ExecPool::serial();
        let points = placement_audit(Duration::from_ns(5), Duration::from_ps(10), &serial).unwrap();
        let worst = worst_placement_error(&points);
        assert!(worst <= Duration::from_ps(2), "worst {worst}");
    }

    #[test]
    fn empty_audit() {
        assert_eq!(worst_placement_error(&[]), Duration::ZERO);
    }

    #[test]
    fn audit_is_thread_count_invariant() {
        let range = Duration::from_ns(10);
        let step = Duration::from_ps(137);
        let serial = placement_audit(range, step, &exec::ExecPool::serial()).unwrap();
        for threads in [2, 8] {
            let parallel = placement_audit(range, step, &exec::ExecPool::new(threads)).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn audit_rejects_nonpositive_step() {
        let serial = exec::ExecPool::serial();
        let err = placement_audit(Duration::from_ns(1), Duration::ZERO, &serial).unwrap_err();
        assert!(matches!(err, AteError::BadProgram { .. }));
        let empty = placement_audit(Duration::from_ns(-1), Duration::from_ps(10), &serial).unwrap();
        assert!(empty.is_empty());
    }
}
