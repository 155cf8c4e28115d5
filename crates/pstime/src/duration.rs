//! Signed femtosecond time spans.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

use crate::{FS_PER_MS, FS_PER_NS, FS_PER_PS, FS_PER_S, FS_PER_US};

/// A signed span of simulated time, stored as an exact femtosecond count.
///
/// `Duration` is the workhorse unit of the Gigatest simulator: delay-line
/// steps (10 ps), unit intervals (400 ps at 2.5 Gbps), rise times (70 ps),
/// and packet slots (25.6 ns) are all exact multiples of 1 fs, so arithmetic
/// on them is free of rounding error.
///
/// Unlike [`std::time::Duration`], this type is signed: skews, jitter
/// displacements, and calibration offsets are naturally negative half the
/// time.
///
/// # Examples
///
/// ```
/// use pstime::Duration;
///
/// let ui = Duration::from_ps(400);
/// let step = Duration::from_ps(10);
/// assert_eq!(ui / step, 40);
/// assert_eq!(ui - step * 3, Duration::from_ps(370));
/// assert_eq!(format!("{}", ui), "400 ps");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(i64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Largest representable span (~9223 s).
    pub const MAX: Duration = Duration(i64::MAX);
    /// Most negative representable span.
    pub const MIN: Duration = Duration(i64::MIN);

    /// Creates a duration from an exact femtosecond count.
    #[inline]
    pub const fn from_fs(fs: i64) -> Self {
        Duration(fs)
    }

    /// Creates a duration from an exact picosecond count.
    #[inline]
    pub const fn from_ps(ps: i64) -> Self {
        Duration(ps * FS_PER_PS)
    }

    /// Creates a duration from an exact nanosecond count.
    #[inline]
    pub const fn from_ns(ns: i64) -> Self {
        Duration(ns * FS_PER_NS)
    }

    /// Creates a duration from an exact millisecond count.
    #[inline]
    pub const fn from_ms(ms: i64) -> Self {
        Duration(ms * FS_PER_MS)
    }

    /// Creates a duration from fractional picoseconds, rounding to the
    /// nearest femtosecond.
    ///
    /// Use this at the boundary between analytic models (Gaussian jitter,
    /// filter group delay) and the exact integer timeline.
    #[inline]
    pub fn from_ps_f64(ps: f64) -> Self {
        Duration((ps * FS_PER_PS as f64).round() as i64) // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest femtosecond.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        Duration((ns * FS_PER_NS as f64).round() as i64) // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// femtosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s * FS_PER_S as f64).round() as i64) // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Creates a duration from a fractional femtosecond count, rounding
    /// to the nearest exact femtosecond.
    ///
    /// Use this where a statistic computed in float femtoseconds (jitter
    /// spreads, mean crossing phases) re-enters the exact timeline.
    #[inline]
    pub fn from_fs_f64(fs: f64) -> Self {
        Duration(fs.round() as i64) // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Returns the exact femtosecond count.
    #[inline]
    pub const fn as_fs(self) -> i64 {
        self.0
    }

    /// Approximate `f64` view of the femtosecond count, for statistics.
    #[inline]
    pub fn as_fs_f64(self) -> f64 {
        self.0 as f64 // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Returns the span as fractional picoseconds.
    #[inline]
    pub fn as_ps_f64(self) -> f64 {
        self.0 as f64 / FS_PER_PS as f64 // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Returns the span as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64 // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Returns the span as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / FS_PER_S as f64 // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Returns the magnitude of the span.
    #[inline]
    pub const fn abs(self) -> Duration {
        Duration(self.0.abs())
    }

    /// Returns `true` if the span is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if the span is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on overflow.
    #[inline]
    pub const fn checked_sub(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Scales the span by a real factor, rounding to the nearest femtosecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration((self.0 as f64 * factor).round() as i64) // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Returns the exact ratio of two spans as a float.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn ratio(self, rhs: Duration) -> f64 {
        assert!(!rhs.is_zero(), "division of Duration by zero Duration");
        self.0 as f64 / rhs.0 as f64 // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }

    /// Euclidean remainder: the result is always in `[ZERO, rhs.abs())`.
    ///
    /// Used to fold absolute timestamps into one unit interval when building
    /// eye diagrams.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    pub const fn rem_euclid(self, rhs: Duration) -> Duration {
        Duration(self.0.rem_euclid(rhs.0))
    }

    /// Rounds to the nearest multiple of `step` (ties away from zero).
    ///
    /// This is how a 10 ps-resolution delay vernier quantizes a requested
    /// edge placement.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or negative.
    pub fn round_to(self, step: Duration) -> Duration {
        assert!(step.0 > 0, "rounding step must be positive");
        let half = step.0 / 2;
        let adj = if self.0 >= 0 { self.0 + half } else { self.0 - half };
        Duration((adj / step.0) * step.0)
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Clamps the span into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Duration, hi: Duration) -> Duration {
        assert!(lo <= hi, "Duration::clamp requires lo <= hi");
        Duration(self.0.clamp(lo.0, hi.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Neg for Duration {
    type Output = Duration;
    #[inline]
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for i64 {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: Duration) -> Duration {
        Duration(self * rhs.0)
    }
}

/// Integer division of one span by another yields a dimensionless count
/// (truncated toward zero): "how many 10 ps steps fit in 400 ps" = 40.
impl Div<Duration> for Duration {
    type Output = i64;
    #[inline]
    fn div(self, rhs: Duration) -> i64 {
        self.0 / rhs.0
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Duration> for Duration {
    fn sum<I: Iterator<Item = &'a Duration>>(iter: I) -> Duration {
        iter.copied().sum()
    }
}

impl fmt::Display for Duration {
    /// Formats with an auto-selected engineering unit: `3 fs`, `24 ps`,
    /// `25.6 ns`, `1.2 us`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fs = self.0;
        let afs = fs.abs();
        if afs < FS_PER_PS {
            write!(f, "{fs} fs")
        } else if afs < FS_PER_NS {
            format_scaled(f, fs, FS_PER_PS, "ps")
        } else if afs < FS_PER_US {
            format_scaled(f, fs, FS_PER_NS, "ns")
        } else if afs < FS_PER_MS {
            format_scaled(f, fs, FS_PER_US, "us")
        } else if afs < FS_PER_S {
            format_scaled(f, fs, FS_PER_MS, "ms")
        } else {
            format_scaled(f, fs, FS_PER_S, "s")
        }
    }
}

fn format_scaled(f: &mut fmt::Formatter<'_>, fs: i64, unit: i64, suffix: &str) -> fmt::Result {
    if fs % unit == 0 {
        write!(f, "{} {suffix}", fs / unit)
    } else {
        write!(f, "{:.3} {suffix}", fs as f64 / unit as f64) // xlint::allow(no-lossy-cast, fs counts stay far below 2^53 so the f64 round-trip is exact at this documented float boundary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_exact() {
        assert_eq!(Duration::from_ps(400).as_fs(), 400_000);
        assert_eq!(Duration::from_ns(25).as_fs(), 25_000_000);
        assert_eq!(Duration::from_ms(2).as_fs(), 2 * FS_PER_MS);
        assert_eq!(Duration::from_ps_f64(0.5).as_fs(), 500);
        assert_eq!(Duration::from_secs_f64(1e-12), Duration::from_ps(1));
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_ps(400);
        let b = Duration::from_ps(10);
        assert_eq!(a + b, Duration::from_ps(410));
        assert_eq!(a - b, Duration::from_ps(390));
        assert_eq!(a * 64, Duration::from_ns_f64(25.6));
        assert_eq!(a / b, 40);
        assert_eq!(a / 4, Duration::from_ps(100));
        assert_eq!(-a, Duration::from_ps(-400));
        assert_eq!(a % Duration::from_ps(150), Duration::from_ps(100));
    }

    #[test]
    fn rem_euclid_is_nonnegative() {
        let ui = Duration::from_ps(400);
        assert_eq!(Duration::from_ps(-10).rem_euclid(ui), Duration::from_ps(390));
        assert_eq!(Duration::from_ps(810).rem_euclid(ui), Duration::from_ps(10));
    }

    #[test]
    fn round_to_delay_step() {
        let step = Duration::from_ps(10);
        assert_eq!(Duration::from_ps_f64(13.0).round_to(step), Duration::from_ps(10));
        assert_eq!(Duration::from_ps_f64(15.0).round_to(step), Duration::from_ps(20));
        assert_eq!(Duration::from_ps_f64(-13.0).round_to(step), Duration::from_ps(-10));
        assert_eq!(Duration::from_ps_f64(-15.0).round_to(step), Duration::from_ps(-20));
    }

    #[test]
    fn checked_ops() {
        assert_eq!(Duration::MAX.checked_add(Duration::from_fs(1)), None);
        assert_eq!(Duration::MIN.checked_sub(Duration::from_fs(1)), None);
        assert_eq!(
            Duration::from_ps(5).checked_add(Duration::from_ps(5)),
            Some(Duration::from_ps(10))
        );
        assert_eq!(Duration::MAX.saturating_add(Duration::from_fs(1)), Duration::MAX);
    }

    #[test]
    fn float_conversions_round_trip() {
        let d = Duration::from_ps(123);
        assert!((d.as_ps_f64() - 123.0).abs() < 1e-12);
        assert!((d.as_ns_f64() - 0.123).abs() < 1e-12);
        assert_eq!(Duration::from_ps_f64(d.as_ps_f64()), d);
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(Duration::from_ps(100).mul_f64(0.5), Duration::from_ps(50));
        assert_eq!(Duration::from_fs(3).mul_f64(0.5), Duration::from_fs(2)); // 1.5 rounds to 2
    }

    #[test]
    fn display_engineering_units() {
        assert_eq!(Duration::from_fs(3).to_string(), "3 fs");
        assert_eq!(Duration::from_ps(24).to_string(), "24 ps");
        assert_eq!(Duration::from_ns_f64(25.6).to_string(), "25.600 ns");
        assert_eq!(Duration::from_ns(7).to_string(), "7 ns");
        assert_eq!(Duration::from_ps(-400).to_string(), "-400 ps");
        assert_eq!(Duration::from_ns(3_000).to_string(), "3 us");
        assert_eq!(Duration::from_ms(3).to_string(), "3 ms");
    }

    #[test]
    fn ordering_and_clamp() {
        let a = Duration::from_ps(1);
        let b = Duration::from_ps(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(Duration::from_ps(5).clamp(a, b), b);
        assert_eq!(Duration::from_ps(-5).clamp(a, b), a);
    }

    #[test]
    fn sum_iterator() {
        let total: Duration = (1..=4).map(Duration::from_ps).sum();
        assert_eq!(total, Duration::from_ps(10));
        let refs = [Duration::from_ps(1), Duration::from_ps(2)];
        let total: Duration = refs.iter().sum();
        assert_eq!(total, Duration::from_ps(3));
    }

    #[test]
    fn abs_and_signs() {
        assert_eq!(Duration::from_ps(-7).abs(), Duration::from_ps(7));
        assert!(Duration::from_ps(-7).is_negative());
        assert!(!Duration::ZERO.is_negative());
        assert!(Duration::ZERO.is_zero());
    }

    #[test]
    fn ratio() {
        assert!((Duration::from_ps(100).ratio(Duration::from_ps(400)) - 0.25).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "division of Duration by zero")]
    fn ratio_by_zero_panics() {
        let _ = Duration::from_ps(1).ratio(Duration::ZERO);
    }
}
