//! Small statistics toolkit: running moments, histograms, and `erfc`.

use core::fmt;

/// Streaming min/max/mean/rms accumulator (Welford's algorithm).
///
/// Used for jitter statistics: feed it edge displacements and read back the
/// peak-to-peak and rms values the paper quotes (e.g. Fig. 9's 24 ps p-p /
/// 3.2 ps rms edge jitter).
///
/// # Examples
///
/// ```
/// use signal::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// assert!((s.peak_to_peak() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for RunningStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 with fewer than 2 observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if no observations have been pushed.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min of empty RunningStats");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics if no observations have been pushed.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max of empty RunningStats");
        self.max
    }

    /// `max − min` (0 when empty).
    pub fn peak_to_peak(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max - self.min
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A fixed-range histogram with uniform bins.
///
/// Edge-jitter measurements accumulate crossing times here; the paper's
/// Fig. 9 is exactly such a histogram rendered by a sampling oscilloscope.
///
/// # Examples
///
/// ```
/// use signal::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.push(0.5);
/// h.push(9.5);
/// h.push(9.6);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.mode_bin(), Some(9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be nonempty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram { lo, hi, bins: vec![0; bins] }
    }

    /// Adds an observation; values outside the range are not binned.
    pub fn push(&mut self, x: f64) {
        if x < self.lo || x >= self.hi {
            return;
        }
        let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
        let idx = idx.min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Center value of bin `i`.
    fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// Total observations inside the range.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Index of the fullest bin (`None` when empty).
    pub fn mode_bin(&self) -> Option<usize> {
        if self.total() == 0 {
            return None;
        }
        self.bins.iter().enumerate().max_by_key(|(_, c)| **c).map(|(i, _)| i)
    }

    /// Iterates over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.bins.len()).map(|i| (self.bin_center(i), self.bins[i]))
    }
}

impl fmt::Display for Histogram {
    /// Renders a compact vertical-bar histogram, one row per bin.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (center, count) in self.iter() {
            let width = (count * 50 / peak) as usize;
            writeln!(f, "{center:>10.2} | {:<50} {count}", "#".repeat(width))?;
        }
        Ok(())
    }
}

/// Complementary error function, `erfc(x) = 1 - erf(x)`.
///
/// Implemented with the Chebyshev-fitted rational approximation from
/// *Numerical Recipes* (relative error < 1.2 × 10⁻⁷ everywhere), which keeps
/// proportional accuracy in the deep tail — exactly where BER arithmetic
/// lives (BER 10⁻¹² ⇔ Q ≈ 7).
///
/// # Examples
///
/// ```
/// use signal::erfc;
///
/// assert!((erfc(0.0) - 1.0).abs() < 1e-7);
/// assert!(erfc(3.0) < 3e-5);
/// ```
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.peak_to_peak(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.peak_to_peak(), 7.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut whole = RunningStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-12);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());

        // Merging into/with empty.
        let mut e = RunningStats::new();
        e.merge(&whole);
        assert_eq!(e.count(), whole.count());
        let mut w2 = whole.clone();
        w2.merge(&RunningStats::new());
        assert_eq!(w2.count(), whole.count());
    }

    #[test]
    #[should_panic(expected = "min of empty")]
    fn empty_min_panics() {
        let _ = RunningStats::new().min();
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 5.5, 9.999, -1.0, 10.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.iter().map(|(_, c)| c).collect::<Vec<_>>(), vec![2, 1, 1, 0, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.mode_bin(), Some(0));
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert_eq!(h.iter().count(), 5);
        let text = h.to_string();
        assert!(text.contains('#'));
    }

    #[test]
    fn histogram_empty_mode() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert_eq!(h.mode_bin(), None);
        let _ = h.to_string(); // must not panic on empty
    }

    #[test]
    fn erfc_reference_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (2.0, 0.0046777),
            (3.0, 2.209e-5),
            (-1.0, 1.8427008),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                (got - want).abs() / want.abs().max(1e-30) < 1e-4,
                "erfc({x}) = {got}, want {want}"
            );
        }
        // Deep tail keeps relative accuracy: erfc(5) ~ 1.537e-12.
        let tail = erfc(5.0);
        assert!((tail - 1.537e-12).abs() / 1.537e-12 < 1e-3, "erfc(5) = {tail}");
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.7, 1.3, 2.9] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-12);
        }
    }
}
