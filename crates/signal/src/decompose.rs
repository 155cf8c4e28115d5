//! RJ/DJ jitter decomposition from measured crossing populations.
//!
//! The paper quotes its jitter the way instruments report it: a Gaussian
//! **random** component (rms) and a bounded **deterministic** component
//! (peak-to-peak). Given only a population of measured crossing times, the
//! standard way to separate the two is the **dual-Dirac tail fit**: the
//! deterministic jitter collapses to two Dirac impulses separated by
//! `DJ(δδ)`, each convolved with the same Gaussian of width σ, so the
//! extreme quantiles of the distribution are linear on the Q-scale with
//! slope σ and intercepts at the two Dirac positions.
//!
//! This module implements that fit, so the virtual oscilloscope can report
//! "RJ = 3.2 ps rms, DJ = 23 ps" from raw data — and the calibrated chain
//! budgets in `pecl` can be *verified* rather than assumed.

use core::fmt;

use pstime::Duration;

use crate::stats::erfc;
use crate::{Result, SignalError};

/// Result of a dual-Dirac RJ/DJ separation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterDecomposition {
    /// Estimated Gaussian (random) jitter, rms.
    pub rj_rms: Duration,
    /// Estimated dual-Dirac deterministic jitter, peak-to-peak.
    pub dj_pp: Duration,
    /// Observed total peak-to-peak of the population.
    pub total_pp: Duration,
    /// Population size.
    pub samples: usize,
}

impl JitterDecomposition {
    /// Separates RJ and DJ from a population of crossing displacements
    /// (picoseconds; any common offset is removed internally).
    ///
    /// Uses tail quantile pairs at 0.5 % and 5 % of the total population.
    /// In the dual-Dirac model each tail carries half the samples, so a
    /// total-population quantile `p` sits at `2p` of its own Dirac's
    /// Gaussian: `σ ≈ (x(5%) − x(0.5%)) / (z(1%) − z(10%))`, and the two
    /// Dirac positions follow by extrapolating each tail to Q = 0.
    ///
    /// # Errors
    ///
    /// [`SignalError::InsufficientTransitions`] with fewer than 400
    /// samples (the 0.5 % quantile needs at least a couple of points).
    fn from_displacements_ps(samples: &[f64]) -> Result<JitterDecomposition> {
        const MIN_SAMPLES: usize = 400;
        if samples.len() < MIN_SAMPLES {
            return Err(SignalError::InsufficientTransitions {
                found: samples.len(),
                required: MIN_SAMPLES,
            });
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let q = |p: f64| -> f64 {
            let idx = ((n as f64 - 1.0) * p).round() as usize;
            sorted[idx.min(n - 1)]
        };

        let (p1, p2) = (0.005, 0.05);
        // Each Dirac carries half the population: total-quantile p maps to
        // 2p within its own Gaussian.
        let (z1, z2) = (normal_quantile(1.0 - 2.0 * p1), normal_quantile(1.0 - 2.0 * p2));

        // Left tail: x(p) ≈ mu_l − z(1−p)·σ.
        let sigma_left = (q(p2) - q(p1)) / (z1 - z2);
        // Right tail: x(1−p) ≈ mu_r + z(1−p)·σ.
        let sigma_right = (q(1.0 - p1) - q(1.0 - p2)) / (z1 - z2);
        let sigma = (0.5 * (sigma_left + sigma_right)).max(0.0);

        // Extrapolate each tail to its Dirac position.
        let mu_left = q(p1) + z1 * sigma;
        let mu_right = q(1.0 - p1) - z1 * sigma;
        let mut dj = (mu_right - mu_left).max(0.0);
        let mut sigma = sigma;

        // Degenerate case: when the fitted Diracs overlap within ~1.5σ
        // the population is indistinguishable from a single Gaussian (the
        // 2p tail mapping then reports a spurious DJ ≈ σ). Refit with the
        // single-Gaussian quantile mapping and call DJ zero.
        if dj <= 1.5 * sigma {
            let (g1, g2) = (normal_quantile(1.0 - p1), normal_quantile(1.0 - p2));
            let s_left = (q(p2) - q(p1)) / (g1 - g2);
            let s_right = (q(1.0 - p1) - q(1.0 - p2)) / (g1 - g2);
            sigma = (0.5 * (s_left + s_right)).max(0.0);
            dj = 0.0;
        }

        Ok(JitterDecomposition {
            rj_rms: Duration::from_ps_f64(sigma),
            dj_pp: Duration::from_ps_f64(dj),
            total_pp: Duration::from_ps_f64(sorted[n - 1] - sorted[0]),
            samples: n,
        })
    }

    /// Decomposes the crossing population of a measured eye.
    ///
    /// # Errors
    ///
    /// [`SignalError::InsufficientTransitions`] with fewer than 400
    /// crossings.
    pub fn from_eye(eye: &crate::EyeDiagram) -> Result<JitterDecomposition> {
        Self::from_displacements_ps(&eye.crossing_phases_ps())
    }

    /// Total jitter at a BER via dual-Dirac: `DJ + 2·Q(BER)·RJ`.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is not in `(0, 0.5]`.
    pub fn total_jitter_at_ber(&self, ber: f64) -> Duration {
        let qv = crate::ber::q_from_ber(ber);
        self.dj_pp + self.rj_rms.mul_f64(2.0 * qv)
    }
}

impl fmt::Display for JitterDecomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RJ {} rms, DJ(δδ) {} p-p (total {} p-p over {} crossings)",
            self.rj_rms, self.dj_pp, self.total_pp, self.samples
        )
    }
}

/// Inverse standard-normal CDF (quantile function), by bisection on the
/// [`erfc`]-based CDF. Accurate to ~1e-9 over the range jitter fits use.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0, 1)");
    let cdf = |x: f64| 0.5 * erfc(-x / core::f64::consts::SQRT_2);
    let (mut lo, mut hi) = (-9.0f64, 9.0f64);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::SeedTree;

    /// Synthesizes a dual-Dirac + Gaussian population.
    fn population(rj: f64, dj: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SeedTree::new(seed).stream("signal.decompose.population").rng();
        (0..n)
            .map(|i| {
                let dirac = if i % 2 == 0 { -dj / 2.0 } else { dj / 2.0 };
                dirac + rj * rng.gaussian()
            })
            .collect()
    }

    #[test]
    fn normal_quantile_reference_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-5);
        assert!((normal_quantile(0.8413447) - 1.0).abs() < 1e-4);
        assert!((normal_quantile(0.9772499) - 2.0).abs() < 1e-4);
        assert!((normal_quantile(0.0227501) + 2.0).abs() < 1e-4);
        // Symmetry (limited by the erfc approximation's 1e-7 accuracy).
        for p in [0.01, 0.1, 0.3] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "quantile probability")]
    fn bad_quantile_panics() {
        let _ = normal_quantile(0.0);
    }

    #[test]
    fn recovers_known_rj_dj_mixture() {
        // The paper's budget: 3.2 ps rms RJ + ~23 ps DJ.
        let pop = population(3.2, 23.0, 20_000, 42);
        let d = JitterDecomposition::from_displacements_ps(&pop).unwrap();
        let rj = d.rj_rms.as_ps_f64();
        let dj = d.dj_pp.as_ps_f64();
        assert!((rj - 3.2).abs() < 0.5, "RJ {rj}, want ~3.2");
        assert!((dj - 23.0).abs() < 3.0, "DJ {dj}, want ~23");
        assert_eq!(d.samples, 20_000);
        assert!(d.total_pp.as_ps_f64() > 40.0);
        assert!(d.to_string().contains("RJ"));
    }

    #[test]
    fn pure_gaussian_has_negligible_dj() {
        let pop = population(5.0, 0.0, 20_000, 7);
        let d = JitterDecomposition::from_displacements_ps(&pop).unwrap();
        assert!((d.rj_rms.as_ps_f64() - 5.0).abs() < 0.6, "RJ {}", d.rj_rms);
        assert_eq!(d.dj_pp.as_ps_f64(), 0.0, "DJ {} should be 0", d.dj_pp);
    }

    #[test]
    fn pure_dj_has_negligible_rj() {
        let pop = population(0.05, 30.0, 10_000, 9);
        let d = JitterDecomposition::from_displacements_ps(&pop).unwrap();
        assert!(d.rj_rms.as_ps_f64() < 1.0, "RJ {}", d.rj_rms);
        assert!((d.dj_pp.as_ps_f64() - 30.0).abs() < 2.0, "DJ {}", d.dj_pp);
    }

    #[test]
    fn needs_enough_samples() {
        let pop = population(1.0, 0.0, 100, 3);
        assert!(matches!(
            JitterDecomposition::from_displacements_ps(&pop),
            Err(SignalError::InsufficientTransitions { .. })
        ));
    }

    #[test]
    fn offset_invariance() {
        let base = population(2.0, 10.0, 8_000, 11);
        let shifted: Vec<f64> = base.iter().map(|x| x + 1234.5).collect();
        let a = JitterDecomposition::from_displacements_ps(&base).unwrap();
        let b = JitterDecomposition::from_displacements_ps(&shifted).unwrap();
        assert!((a.rj_rms.as_ps_f64() - b.rj_rms.as_ps_f64()).abs() < 1e-9);
        assert!((a.dj_pp.as_ps_f64() - b.dj_pp.as_ps_f64()).abs() < 1e-9);
    }

    #[test]
    fn tj_extrapolation_exceeds_observed_pp() {
        let pop = population(3.0, 20.0, 5_000, 5);
        let d = JitterDecomposition::from_displacements_ps(&pop).unwrap();
        // At BER 1e-12 the extrapolated TJ must exceed what 5k samples saw.
        assert!(d.total_jitter_at_ber(1e-12) > d.total_pp);
    }

    #[test]
    fn decomposes_a_measured_eye() {
        use crate::jitter::JitterBudget;
        use crate::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, EyeDiagram, LevelSet};
        use pstime::DataRate;

        let rate = DataRate::from_gbps(2.5);
        // DCD is the deterministic part here: 20 ps p-p.
        let budget = JitterBudget::new().with_rj_rms_ps(3.0).with_dcd_ps(20.0);
        let bits = BitStream::alternating(6_000);
        let d = DigitalWaveform::from_bits(&bits, rate, &budget, 13);
        let wave = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        let eye = EyeDiagram::analyze(&wave, rate).unwrap();
        let dec = JitterDecomposition::from_eye(&eye).unwrap();
        let rj = dec.rj_rms.as_ps_f64();
        let dj = dec.dj_pp.as_ps_f64();
        assert!((rj - 3.0).abs() < 0.6, "RJ {rj}");
        assert!((dj - 20.0).abs() < 3.0, "DJ {dj}");
    }
}
