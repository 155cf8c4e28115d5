//! Bit-error-rate estimation: Q-scale conversions and dual-Dirac bathtub
//! curves.
//!
//! The paper reports eye openings rather than BER directly, but a "usable
//! eye opening" is defined by where the bathtub curve rises above the
//! acceptable error rate. This module provides the standard dual-Dirac
//! machinery to connect the two: given the RJ/DJ decomposition measured by
//! [`crate::EyeDiagram`], it predicts BER versus sampling phase and the
//! total jitter at any target BER.

use pstime::{DataRate, Duration};

use crate::stats::erfc;

const SQRT_2: f64 = core::f64::consts::SQRT_2;

/// Converts a Gaussian Q factor to a bit error rate: `BER = ½·erfc(Q/√2)`.
fn ber_from_q(q: f64) -> f64 {
    0.5 * erfc(q / SQRT_2)
}

/// Inverts `BER = ½·erfc(Q/√2)` by bisection.
///
/// # Panics
///
/// Panics if `ber` is not in `(0, 0.5]`.
pub fn q_from_ber(ber: f64) -> f64 {
    assert!(ber > 0.0 && ber <= 0.5, "BER must be in (0, 0.5]");
    let (mut lo, mut hi) = (0.0f64, 40.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if ber_from_q(mid) > ber {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A vertical-eye BER estimate from eye height and additive noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerEstimate {
    /// The Q factor (eye half-height over noise rms).
    pub q: f64,
    /// The estimated bit error rate.
    pub ber: f64,
}

impl BerEstimate {}

/// A dual-Dirac timing bathtub: BER as a function of sampling phase for a
/// signal with Gaussian RJ (rms σ) and bounded DJ (peak-to-peak W).
///
/// The two eye "walls" are at phase 0 and phase UI; each wall contributes
/// `ρ·½·erfc((x − W/2)/(σ√2))` where `ρ` is the transition density.
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Duration};
/// use signal::BathtubCurve;
///
/// let tub = BathtubCurve::new(
///     Duration::from_ps_f64(3.2),  // RJ rms
///     Duration::from_ps(20),       // DJ p-p
///     DataRate::from_gbps(2.5),
///     0.5,
/// );
/// // Dead center of the eye is essentially error-free.
/// assert!(tub.ber_at_ui(0.5) < 1e-30);
/// // Hugging the crossover is hopeless.
/// assert!(tub.ber_at_ui(0.01) > 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BathtubCurve {
    rj_rms: Duration,
    dj_pp: Duration,
    rate: DataRate,
    transition_density: f64,
}

impl BathtubCurve {
    /// Creates a bathtub from an RJ/DJ decomposition at a data rate.
    ///
    /// # Panics
    ///
    /// Panics if `rj_rms` is negative, `dj_pp` is negative, or
    /// `transition_density` is outside `(0, 1]`.
    pub fn new(rj_rms: Duration, dj_pp: Duration, rate: DataRate, transition_density: f64) -> Self {
        assert!(!rj_rms.is_negative(), "RJ rms must be nonnegative");
        assert!(!dj_pp.is_negative(), "DJ p-p must be nonnegative");
        assert!(
            transition_density > 0.0 && transition_density <= 1.0,
            "transition density must be in (0, 1]"
        );
        BathtubCurve { rj_rms, dj_pp, rate, transition_density }
    }

    /// BER when sampling at `phase` UI into the bit (0 = left crossover,
    /// 0.5 = eye center).
    pub fn ber_at_ui(&self, phase: f64) -> f64 {
        let ui_fs = self.rate.unit_interval().as_fs() as f64;
        let x = phase * ui_fs;
        let sigma = (self.rj_rms.as_fs() as f64).max(1e-3);
        let w2 = self.dj_pp.as_fs() as f64 / 2.0;
        let left = 0.5 * erfc((x - w2) / (sigma * SQRT_2));
        let right = 0.5 * erfc(((ui_fs - x) - w2) / (sigma * SQRT_2));
        (self.transition_density * (left + right)).min(1.0)
    }

    /// Total jitter at a target BER (dual-Dirac).
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `(0, 0.5]`.
    pub fn total_jitter_at_ber(&self, ber: f64) -> Duration {
        let q = q_from_ber(ber / self.transition_density.min(1.0));
        self.dj_pp + self.rj_rms.mul_f64(2.0 * q)
    }

    /// The RJ rms this curve was built from.
    pub fn rj_rms(&self) -> Duration {
        self.rj_rms
    }

    /// The DJ peak-to-peak this curve was built from.
    pub fn dj_pp(&self) -> Duration {
        self.dj_pp
    }
}

/// A bathtub sweep described as a value: the one entry point
/// ([`exec::PoolJob::run_on`]) that evaluates a [`BathtubCurve`] at
/// `points` evenly spaced phases across one unit interval (inclusive of
/// both crossovers), returning `(phase in UI, BER)` pairs — the curve a
/// plotting or margining tool consumes — and the scheduling surface the
/// `atd` service layer drives.
///
/// Each phase is an independent pure evaluation, so the sweep is
/// bit-identical for every thread count.
///
/// # Errors
///
/// [`crate::SignalError::InvalidParameter`] from `run_on` if
/// `points < 2`; execution errors propagate.
#[derive(Debug, Clone, Copy)]
pub struct BathtubSweep<'a> {
    /// The modeled curve to evaluate.
    pub curve: &'a BathtubCurve,
    /// Number of evenly spaced phases across one UI (both crossovers
    /// inclusive); must be at least 2.
    pub points: usize,
}

impl BathtubSweep<'_> {
    /// Checks, without a curve, that a sweep of `points` phases can run:
    /// it needs both crossovers.
    ///
    /// # Errors
    ///
    /// [`crate::SignalError::InvalidParameter`] if `points < 2`.
    pub fn check_points(points: usize) -> crate::Result<()> {
        if points < 2 {
            return Err(crate::SignalError::InvalidParameter {
                name: "points",
                constraint: "a sweep needs at least both crossovers (points >= 2)",
            });
        }
        Ok(())
    }
}

impl exec::PoolJob for BathtubSweep<'_> {
    type Output = Vec<(f64, f64)>;
    type Error = crate::SignalError;

    fn run_on(&self, pool: &exec::ExecPool) -> crate::Result<Vec<(f64, f64)>> {
        BathtubSweep::check_points(self.points)?;
        let denom = (self.points - 1) as f64; // xlint::allow(no-lossy-cast, point counts stay far below 2^53 so the f64 conversion is exact)
        let outcome = pool.run(self.points, |k| {
            let phase = k as f64 / denom; // xlint::allow(no-lossy-cast, k < points which converts exactly)
            (phase, self.curve.ber_at_ui(phase))
        })?;
        Ok(outcome.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::PoolJob;

    #[test]
    fn q_ber_round_trip() {
        for q in [3.0, 5.0, 7.0, 8.5] {
            let ber = ber_from_q(q);
            let back = q_from_ber(ber);
            assert!((back - q).abs() < 1e-6, "q {q} -> ber {ber} -> {back}");
        }
    }

    #[test]
    fn known_q_values() {
        // Q = 6 -> ~1e-9; Q = 7 -> ~1.28e-12.
        assert!((ber_from_q(6.0) / 9.87e-10 - 1.0).abs() < 0.05);
        assert!((ber_from_q(7.0) / 1.28e-12 - 1.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "BER must be in")]
    fn q_from_bad_ber_panics() {
        let _ = q_from_ber(0.0);
    }

    #[test]
    fn bathtub_shape() {
        let tub = BathtubCurve::new(
            Duration::from_ps_f64(3.2),
            Duration::from_ps(20),
            DataRate::from_gbps(2.5),
            0.5,
        );
        // Symmetric about the eye center.
        assert!((tub.ber_at_ui(0.2).ln() - tub.ber_at_ui(0.8).ln()).abs() < 0.2);
        // Monotone into the center.
        assert!(tub.ber_at_ui(0.1) > tub.ber_at_ui(0.3));
        assert!(tub.ber_at_ui(0.3) > tub.ber_at_ui(0.5));
        // Crossover itself is ~transition-density/2.
        assert!(tub.ber_at_ui(0.0) > 0.1);
    }

    #[test]
    fn opening_matches_paper_arithmetic() {
        // Build a curve whose TJ at 1e-12 is ~46.7 ps and check opening
        // ~0.88 UI at 2.5 Gbps (Fig. 7's numbers).
        let rate = DataRate::from_gbps(2.5);
        // TJ = DJ + 2*Q*sigma; choose DJ=24.3 ps, sigma=1.6 ps, Q(2e-12)≈7.
        let tub =
            BathtubCurve::new(Duration::from_ps_f64(1.6), Duration::from_ps_f64(24.3), rate, 0.5);
        let tj = tub.total_jitter_at_ber(1e-12);
        assert!((tj.as_ps_f64() - 46.7).abs() < 2.0, "TJ {} ps, expected ~46.7", tj.as_ps_f64());
    }

    #[test]
    fn sweep_matches_pointwise_evaluation_for_any_pool() {
        let tub = BathtubCurve::new(
            Duration::from_ps_f64(3.2),
            Duration::from_ps(20),
            DataRate::from_gbps(2.5),
            0.5,
        );
        let sweep =
            |points, pool: &exec::ExecPool| BathtubSweep { curve: &tub, points }.run_on(pool);
        let serial = sweep(101, &exec::ExecPool::serial()).unwrap();
        assert_eq!(serial.len(), 101);
        assert_eq!(serial[0].0, 0.0);
        assert_eq!(serial[100].0, 1.0);
        for (phase, ber) in &serial {
            assert_eq!(*ber, tub.ber_at_ui(*phase));
        }
        for threads in [2, 8] {
            let parallel = sweep(101, &exec::ExecPool::new(threads)).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
        }
        assert!(sweep(1, &exec::ExecPool::serial()).is_err());
    }

    #[test]
    fn zero_rj_bathtub_is_step_like() {
        let tub = BathtubCurve::new(
            Duration::ZERO,
            Duration::from_ps(100),
            DataRate::from_gbps(2.5),
            0.5,
        );
        assert!(tub.ber_at_ui(0.5) < 1e-30);
        assert!(tub.ber_at_ui(0.05) > 0.2); // inside the DJ wall
    }
}
