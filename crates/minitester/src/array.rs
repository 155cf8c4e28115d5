//! Parallel multi-site wafer probing (the paper's Fig. 13).
//!
//! "When WLP compliant leads are available on all die sites, the miniature
//! tester may be replicated in array form … Functional testing can then be
//! done in parallel, increasing production throughput by an order of
//! magnitude" (§4). This module provides the throughput arithmetic of an
//! array of mini-testers over a wafer map.

use core::fmt;

use pstime::Duration;

/// Timing model of one test insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTiming {
    /// Mechanical step + settle time per touchdown.
    pub step_time: Duration,
    /// Electrical test time per die.
    pub test_time: Duration,
}

impl ProbeTiming {
    /// A representative production insertion: 200 ms step, 150 ms of
    /// at-speed BIST per die.
    fn production() -> Self {
        ProbeTiming { step_time: Duration::from_ms(200), test_time: Duration::from_ms(150) }
    }

    /// Time for one touchdown testing `sites` dies in parallel: the step
    /// plus one (shared) test time.
    fn touchdown_time(&self) -> Duration {
        self.step_time + self.test_time
    }
}

/// An array of replicated mini-testers probing a wafer.
///
/// # Examples
///
/// ```
/// use minitester::ProbeArray;
///
/// let serial = ProbeArray::new(1);
/// let parallel = ProbeArray::new(16);
/// let speedup = parallel.throughput_speedup(&serial, 256);
/// assert!(speedup > 10.0); // the paper's "order of magnitude"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeArray {
    sites: usize,
    timing: ProbeTiming,
}

impl ProbeArray {
    /// Creates an array of `sites` mini-testers with production timing.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is zero.
    pub fn new(sites: usize) -> Self {
        assert!(sites > 0, "array needs at least one site");
        ProbeArray { sites, timing: ProbeTiming::production() }
    }

    /// Number of parallel sites.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Touchdowns needed for a wafer of `dies` dies.
    pub fn touchdowns(&self, dies: usize) -> usize {
        dies.div_ceil(self.sites)
    }

    /// Total probing time for a wafer of `dies` dies.
    fn wafer_time(&self, dies: usize) -> Duration {
        self.timing.touchdown_time() * self.touchdowns(dies) as i64
    }

    /// Throughput ratio of this array versus `other` on the same wafer.
    pub fn throughput_speedup(&self, other: &ProbeArray, dies: usize) -> f64 {
        other.wafer_time(dies).as_secs_f64() / self.wafer_time(dies).as_secs_f64()
    }
}

impl fmt::Display for ProbeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-site probe array ({} per touchdown)",
            self.sites,
            self.timing.touchdown_time()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touchdown_arithmetic() {
        let array = ProbeArray::new(16);
        assert_eq!(array.sites(), 16);
        assert_eq!(array.touchdowns(256), 16);
        assert_eq!(array.touchdowns(257), 17);
        assert_eq!(array.touchdowns(1), 1);
        let serial = ProbeArray::new(1);
        assert_eq!(serial.touchdowns(256), 256);
    }

    #[test]
    fn order_of_magnitude_speedup() {
        // The paper's Fig. 13 claim: array probing gains ~an order of
        // magnitude on a full wafer.
        let serial = ProbeArray::new(1);
        let array16 = ProbeArray::new(16);
        let speedup = array16.throughput_speedup(&serial, 256);
        assert!((speedup - 16.0).abs() < 1e-9, "speedup {speedup}");
        assert!(speedup >= 10.0);
    }

    #[test]
    fn wafer_time_scales_with_touchdowns() {
        let timing =
            ProbeTiming { step_time: Duration::from_ms(100), test_time: Duration::from_ms(100) };
        let array = ProbeArray { sites: 4, timing };
        // 8 dies / 4 sites = 2 touchdowns x 200 ms.
        assert_eq!(array.wafer_time(8), Duration::from_ms(400));
        assert_eq!(timing.touchdown_time(), Duration::from_ms(200));
    }

    #[test]
    fn display() {
        let array = ProbeArray::new(8);
        assert!(array.to_string().contains("8-site"));
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_panics() {
        let _ = ProbeArray::new(0);
    }
}
