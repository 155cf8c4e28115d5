//! Exact millivolt voltage levels.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact voltage in integer millivolts.
///
/// The paper tunes PECL output levels in 100 mV and 200 mV steps (Figs. 10
/// and 11), so integer millivolts represent every programmable level exactly.
/// Analog waveform *samples* use `f64` millivolts; this type is for the
/// programmed levels, thresholds, and DAC codes.
///
/// # Examples
///
/// ```
/// use pstime::Millivolts;
///
/// let voh = Millivolts::new(-900);
/// let vol = Millivolts::new(-1700);
/// assert_eq!(voh - vol, Millivolts::new(800)); // PECL swing
/// assert_eq!(voh.midpoint(vol), Millivolts::new(-1300));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millivolts(i32);

impl Millivolts {
    /// Zero volts.
    pub const ZERO: Millivolts = Millivolts(0);

    /// Creates a level from an exact millivolt count.
    #[inline]
    pub const fn new(mv: i32) -> Self {
        Millivolts(mv)
    }

    /// The exact millivolt count.
    #[inline]
    pub const fn as_mv(self) -> i32 {
        self.0
    }

    /// The level as fractional millivolts (for analog math).
    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// The midpoint between two levels (rounded toward negative infinity).
    #[inline]
    pub const fn midpoint(self, other: Millivolts) -> Millivolts {
        Millivolts((self.0 + other.0).div_euclid(2))
    }

    /// Magnitude of the level.
    #[inline]
    pub const fn abs(self) -> Millivolts {
        Millivolts(self.0.abs())
    }

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Millivolts, hi: Millivolts) -> Millivolts {
        assert!(lo <= hi, "Millivolts::clamp requires lo <= hi");
        Millivolts(self.0.clamp(lo.0, hi.0))
    }
}

impl Add for Millivolts {
    type Output = Millivolts;
    #[inline]
    fn add(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 + rhs.0)
    }
}

impl AddAssign for Millivolts {
    #[inline]
    fn add_assign(&mut self, rhs: Millivolts) {
        self.0 += rhs.0;
    }
}

impl Sub for Millivolts {
    type Output = Millivolts;
    #[inline]
    fn sub(self, rhs: Millivolts) -> Millivolts {
        Millivolts(self.0 - rhs.0)
    }
}

impl SubAssign for Millivolts {
    #[inline]
    fn sub_assign(&mut self, rhs: Millivolts) {
        self.0 -= rhs.0;
    }
}

impl Neg for Millivolts {
    type Output = Millivolts;
    #[inline]
    fn neg(self) -> Millivolts {
        Millivolts(-self.0)
    }
}

impl Mul<i32> for Millivolts {
    type Output = Millivolts;
    #[inline]
    fn mul(self, rhs: i32) -> Millivolts {
        Millivolts(self.0 * rhs)
    }
}

impl Div<i32> for Millivolts {
    type Output = Millivolts;
    #[inline]
    fn div(self, rhs: i32) -> Millivolts {
        Millivolts(self.0 / rhs)
    }
}

impl Sum for Millivolts {
    fn sum<I: Iterator<Item = Millivolts>>(iter: I) -> Millivolts {
        iter.fold(Millivolts::ZERO, Add::add)
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pecl_levels() {
        // Classic PECL referenced to VCC = 0.
        let voh = Millivolts::new(-900);
        let vol = Millivolts::new(-1700);
        assert_eq!(voh - vol, Millivolts::new(800));
        assert_eq!(voh.midpoint(vol), Millivolts::new(-1300));
    }

    #[test]
    fn dac_steps() {
        // Fig. 10: VOH lowered in 100 mV steps.
        let step = Millivolts::new(100);
        let voh = Millivolts::new(-900);
        let levels: Vec<Millivolts> = (0..4).map(|i| voh - step * i).collect();
        assert_eq!(levels[3], Millivolts::new(-1200));
    }

    #[test]
    fn conversions() {
        assert!((Millivolts::new(250).as_f64() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let mut v = Millivolts::new(100);
        v += Millivolts::new(50);
        assert_eq!(v, Millivolts::new(150));
        v -= Millivolts::new(200);
        assert_eq!(v, Millivolts::new(-50));
        assert_eq!(-v, Millivolts::new(50));
        assert_eq!(v.abs(), Millivolts::new(50));
        assert_eq!(Millivolts::new(10) / 4, Millivolts::new(2));
        let total: Millivolts = [Millivolts::new(1), Millivolts::new(2)].into_iter().sum();
        assert_eq!(total, Millivolts::new(3));
    }

    #[test]
    fn clamp_and_display() {
        let lo = Millivolts::new(-1700);
        let hi = Millivolts::new(-900);
        assert_eq!(Millivolts::new(0).clamp(lo, hi), hi);
        assert_eq!(Millivolts::new(-2000).clamp(lo, hi), lo);
        assert_eq!(Millivolts::new(-900).to_string(), "-900 mV");
    }

    #[test]
    fn midpoint_rounds_consistently() {
        assert_eq!(Millivolts::new(1).midpoint(Millivolts::new(2)), Millivolts::new(1));
        assert_eq!(Millivolts::new(-1).midpoint(Millivolts::new(-2)), Millivolts::new(-2));
    }
}
