//! Exact frequencies and data rates.

use core::fmt;

use crate::{Duration, FS_PER_S};

/// Unsigned twin of [`FS_PER_S`] for period math on `u64` rates.
const FS_PER_S_U64: u64 = 1_000_000_000_000_000;
const _: () = assert!(FS_PER_S == 1_000_000_000_000_000);

/// Rounds an asserted-positive, finite hertz/bps value to an exact count.
fn round_to_u64(x: f64) -> u64 {
    x.round() as u64 // xlint::allow(no-lossy-cast, callers assert the value is positive and finite and the saturating float cast is the intended rounding)
}

/// Approximate `f64` view of an exact count, for display and ratio math.
fn approx_f64(n: u64) -> f64 {
    n as f64 // xlint::allow(no-lossy-cast, approximate read-only view; exact below 2^53 which covers every rate in the paper)
}

/// An exact frequency in hertz.
///
/// All clock rates in the reproduced paper (12 MHz crystal, 0.5–2.5 GHz RF
/// reference, 1.25 GHz mini-tester clock) divide 10¹⁵ evenly, so their
/// periods are exact femtosecond counts.
///
/// # Examples
///
/// ```
/// use pstime::{Duration, Frequency};
///
/// let rf = Frequency::from_ghz(1.25);
/// assert_eq!(rf.period(), Duration::from_ps(800));
/// assert_eq!(rf.to_string(), "1.250 GHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from exact hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    #[inline]
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be nonzero");
        Frequency(hz)
    }

    /// Creates a frequency from exact megahertz.
    #[inline]
    pub fn from_mhz(mhz: u64) -> Self {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from fractional gigahertz, rounded to 1 Hz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not positive and finite.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Frequency::from_hz(round_to_u64(ghz * 1e9))
    }

    /// The frequency in exact hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The period, rounded to the nearest femtosecond.
    ///
    /// Exact (no rounding) whenever the frequency divides 10¹⁵ Hz·fs, which
    /// holds for every clock in the paper.
    #[inline]
    pub fn period(self) -> Duration {
        let hz = self.0;
        let fs = (FS_PER_S_U64 + hz / 2) / hz;
        Duration::from_fs(i64::try_from(fs).unwrap_or(i64::MAX))
    }

    /// Frequency divided by an integer (a clock divider), rounded to 1 Hz.
    ///
    /// # Panics
    ///
    /// Panics if `div` is zero or the result would round to 0 Hz.
    #[inline]
    pub fn divide(self, div: u64) -> Frequency {
        assert!(div > 0, "clock divider must be nonzero");
        Frequency::from_hz(self.0 / div)
    }

    /// Frequency multiplied by an integer (a PLL multiplier).
    #[inline]
    pub fn multiply(self, mult: u64) -> Frequency {
        Frequency::from_hz(self.0 * mult)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hz = self.0;
        if hz >= 1_000_000_000 {
            write!(f, "{:.3} GHz", approx_f64(hz) / 1e9)
        } else if hz >= 1_000_000 {
            write!(f, "{:.3} MHz", approx_f64(hz) / 1e6)
        } else if hz >= 1_000 {
            write!(f, "{:.3} kHz", approx_f64(hz) / 1e3)
        } else {
            write!(f, "{hz} Hz")
        }
    }
}

/// An exact serial data rate in bits per second.
///
/// Distinct from [`Frequency`] because a bit rate and a clock rate differ by
/// the DDR factor: the paper's 2.5 Gbps streams are clocked by a 1.25 GHz RF
/// reference (both edges carry data through the final PECL mux).
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Duration};
///
/// let r = DataRate::from_gbps(5.0);
/// assert_eq!(r.unit_interval(), Duration::from_ps(200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataRate(u64);

impl DataRate {
    /// Creates a data rate from exact bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero.
    #[inline]
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "data rate must be nonzero");
        DataRate(bps)
    }

    /// Creates a data rate from exact megabits per second.
    #[inline]
    pub fn from_mbps(mbps: u64) -> Self {
        DataRate::from_bps(mbps * 1_000_000)
    }

    /// Creates a data rate from fractional gigabits per second, rounded to
    /// 1 bps.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not positive and finite.
    #[inline]
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps > 0.0, "data rate must be positive");
        DataRate::from_bps(round_to_u64(gbps * 1e9))
    }

    /// The rate in exact bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate as fractional gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        approx_f64(self.0) / 1e9
    }

    /// The unit interval (one bit period), rounded to the nearest
    /// femtosecond.
    #[inline]
    pub fn unit_interval(self) -> Duration {
        let fs = (FS_PER_S_U64 + self.0 / 2) / self.0;
        Duration::from_fs(i64::try_from(fs).unwrap_or(i64::MAX))
    }

    /// The per-lane rate when this stream is demultiplexed `ways` ways — the
    /// rate each FPGA I/O pin must sustain before the PECL mux tree.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    #[inline]
    pub fn demux(self, ways: u64) -> DataRate {
        assert!(ways > 0, "demux ways must be nonzero");
        DataRate::from_bps(self.0 / ways)
    }

    /// The aggregate rate of `lanes` parallel streams at this rate.
    #[inline]
    pub fn aggregate(self, lanes: u64) -> DataRate {
        DataRate::from_bps(self.0 * lanes)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bps = self.0;
        if bps >= 1_000_000_000_000 {
            write!(f, "{:.3} Tbps", approx_f64(bps) / 1e12)
        } else if bps >= 1_000_000_000 {
            write!(f, "{:.3} Gbps", approx_f64(bps) / 1e9)
        } else if bps >= 1_000_000 {
            write!(f, "{:.1} Mbps", approx_f64(bps) / 1e6)
        } else {
            write!(f, "{bps} bps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clock_periods_are_exact() {
        assert_eq!(Frequency::from_mhz(12).period(), Duration::from_ns_f64(1000.0 / 12.0));
        assert_eq!(Frequency::from_ghz(1.25).period(), Duration::from_ps(800));
        assert_eq!(Frequency::from_ghz(2.5).period(), Duration::from_ps(400));
        assert_eq!(Frequency::from_mhz(500).period(), Duration::from_ns(2));
    }

    #[test]
    fn paper_unit_intervals() {
        assert_eq!(DataRate::from_gbps(2.5).unit_interval(), Duration::from_ps(400));
        assert_eq!(DataRate::from_gbps(4.0).unit_interval(), Duration::from_ps(250));
        assert_eq!(DataRate::from_gbps(5.0).unit_interval(), Duration::from_ps(200));
        assert_eq!(DataRate::from_gbps(1.0).unit_interval(), Duration::from_ps(1000));
        assert_eq!(DataRate::from_mbps(400).unit_interval(), Duration::from_ps(2500));
    }

    #[test]
    fn mux_tree_rates() {
        // Paper §4: 16 CMOS signals at 312.5 Mbps -> 5 Gbps serial.
        let out = DataRate::from_gbps(5.0);
        let lane = out.demux(16);
        assert_eq!(lane.as_bps(), 312_500_000);
        assert_eq!(lane.aggregate(16), out);
    }

    #[test]
    fn divide_multiply() {
        let f = Frequency::from_ghz(2.5);
        assert_eq!(f.divide(2), Frequency::from_ghz(1.25));
        assert_eq!(f.multiply(2), Frequency::from_ghz(5.0));
    }

    #[test]
    fn display() {
        assert_eq!(Frequency::from_ghz(1.25).to_string(), "1.250 GHz");
        assert_eq!(Frequency::from_mhz(12).to_string(), "12.000 MHz");
        assert_eq!(Frequency::from_hz(32_000).to_string(), "32.000 kHz");
        assert_eq!(Frequency::from_hz(50).to_string(), "50 Hz");
        assert_eq!(DataRate::from_gbps(2.5).to_string(), "2.500 Gbps");
        assert_eq!(DataRate::from_mbps(400).to_string(), "400.0 Mbps");
        assert_eq!(DataRate::from_bps(100).to_string(), "100 bps");
        assert_eq!(DataRate::from_gbps(2.5).aggregate(400).to_string(), "1.000 Tbps");
    }

    #[test]
    #[should_panic(expected = "frequency must be nonzero")]
    fn zero_frequency_panics() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    #[should_panic(expected = "data rate must be nonzero")]
    fn zero_rate_panics() {
        let _ = DataRate::from_bps(0);
    }

    #[test]
    fn accessors() {
        assert!((DataRate::from_gbps(4.0).as_gbps() - 4.0).abs() < 1e-12);
    }
}
