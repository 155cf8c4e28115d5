//! Analytic continuous-time analog waveforms.

use core::fmt;
use std::sync::OnceLock;

use pstime::{Duration, Instant, Millivolts};

use crate::digital::{DigitalWaveform, EdgePolarity};

/// The programmed output voltage levels of a driver.
///
/// The paper's PECL output stage exposes independent control of the high
/// level, low level, and midpoint bias, stepped by on-board DACs (Figs. 10
/// and 11). Levels are exact millivolts.
///
/// # Examples
///
/// ```
/// use pstime::Millivolts;
/// use signal::LevelSet;
///
/// let pecl = LevelSet::pecl();
/// assert_eq!(pecl.swing(), Millivolts::new(800));
/// let reduced = pecl.with_swing(Millivolts::new(400));
/// assert_eq!(reduced.swing(), Millivolts::new(400));
/// assert_eq!(reduced.mid(), pecl.mid()); // swing changes keep the bias
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelSet {
    voh: Millivolts,
    vol: Millivolts,
}

impl LevelSet {
    /// Creates a level set.
    ///
    /// # Panics
    ///
    /// Panics if `voh <= vol`.
    pub fn new(voh: Millivolts, vol: Millivolts) -> Self {
        assert!(voh > vol, "VOH must exceed VOL");
        LevelSet { voh, vol }
    }

    /// Standard PECL levels referenced to VCC = 0 V: VOH = −900 mV,
    /// VOL = −1700 mV (800 mV swing).
    pub fn pecl() -> Self {
        LevelSet::new(Millivolts::new(-900), Millivolts::new(-1700))
    }

    /// Ground-referenced LVCMOS-ish levels for the DLC's direct I/O:
    /// 0 / 1800 mV.
    pub fn lvcmos18() -> Self {
        LevelSet::new(Millivolts::new(1800), Millivolts::new(0))
    }

    /// The high level.
    #[inline]
    pub fn voh(&self) -> Millivolts {
        self.voh
    }

    /// The low level.
    #[inline]
    pub fn vol(&self) -> Millivolts {
        self.vol
    }

    /// `VOH − VOL`.
    #[inline]
    pub fn swing(&self) -> Millivolts {
        self.voh - self.vol
    }

    /// The midpoint (switching threshold).
    #[inline]
    pub fn mid(&self) -> Millivolts {
        self.voh.midpoint(self.vol)
    }

    /// Returns a copy with a different high level.
    ///
    /// # Panics
    ///
    /// Panics if the new VOH does not exceed VOL.
    #[must_use]
    pub fn with_voh(&self, voh: Millivolts) -> LevelSet {
        LevelSet::new(voh, self.vol)
    }

    /// Returns a copy with a different low level.
    ///
    /// # Panics
    ///
    /// Panics if VOH does not exceed the new VOL.
    #[must_use]
    pub fn with_vol(&self, vol: Millivolts) -> LevelSet {
        LevelSet::new(self.voh, vol)
    }

    /// Returns a copy with the same midpoint but a new swing — the paper's
    /// Fig. 11 amplitude-adjustment experiment.
    ///
    /// # Panics
    ///
    /// Panics if `swing` is not positive.
    #[must_use]
    pub fn with_swing(&self, swing: Millivolts) -> LevelSet {
        assert!(swing > Millivolts::ZERO, "swing must be positive");
        let mid = self.mid();
        LevelSet::new(mid + swing / 2, mid + swing / 2 - swing)
    }

    /// Returns a copy shifted so its midpoint is `mid` (swing preserved).
    #[must_use]
    pub fn with_mid(&self, mid: Millivolts) -> LevelSet {
        let delta = mid - self.mid();
        LevelSet::new(self.voh + delta, self.vol + delta)
    }

    /// Scales the swing by `factor` about the midpoint (for attenuation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, +∞)`.
    #[must_use]
    pub fn attenuated(&self, factor: f64) -> LevelSet {
        assert!(factor.is_finite() && factor > 0.0, "attenuation factor must be positive");
        let half = Millivolts::new(((self.swing().as_mv() as f64) * factor / 2.0).round() as i32);
        let mid = self.mid();
        LevelSet::new(mid + half, mid + half - half * 2)
    }
}

impl Default for LevelSet {
    fn default() -> Self {
        LevelSet::pecl()
    }
}

impl fmt::Display for LevelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VOH={} VOL={} (swing {})", self.voh, self.vol, self.swing())
    }
}

/// The transition shape of a driver output stage: a logistic step with a
/// given 20–80 % rise and fall time.
///
/// A logistic edge `S(t) = 1/(1+e^{−t/τ})` crosses 20 % and 80 % at
/// `∓τ·ln 4`, so `t_r(20–80) = 2τ·ln 4 ≈ 2.7726 τ`. The analytic form means
/// overlapping transitions superpose naturally, reproducing the
/// amplitude-swing compression the paper observes when the 120 ps mini-tester
/// buffer runs at a 200 ps unit interval (Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeShape {
    rise_tau_fs: f64,
    fall_tau_fs: f64,
}

/// `2·ln 4`: ratio between the 20–80 % transition time and the logistic τ.
const T2080_PER_TAU: f64 = 2.772588722239781;

impl EdgeShape {
    /// Creates a shape from equal 20–80 % rise and fall times (ps).
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not positive and finite.
    pub fn from_rise_2080_ps(ps: f64) -> Self {
        Self::from_rise_fall_2080_ps(ps, ps)
    }

    /// Creates a shape from distinct 20–80 % rise and fall times (ps).
    ///
    /// # Panics
    ///
    /// Panics if either value is not positive and finite.
    pub fn from_rise_fall_2080_ps(rise_ps: f64, fall_ps: f64) -> Self {
        assert!(rise_ps.is_finite() && rise_ps > 0.0, "rise time must be positive");
        assert!(fall_ps.is_finite() && fall_ps > 0.0, "fall time must be positive");
        EdgeShape {
            rise_tau_fs: rise_ps * 1_000.0 / T2080_PER_TAU,
            fall_tau_fs: fall_ps * 1_000.0 / T2080_PER_TAU,
        }
    }

    /// The nominal 20–80 % rise time.
    pub fn rise_2080(&self) -> Duration {
        Duration::from_fs((self.rise_tau_fs * T2080_PER_TAU).round() as i64)
    }

    /// The nominal 20–80 % fall time.
    pub fn fall_2080(&self) -> Duration {
        Duration::from_fs((self.fall_tau_fs * T2080_PER_TAU).round() as i64)
    }

    /// Returns a shape whose transitions are slowed by an additional
    /// bandwidth limit with equivalent 20–80 % time `extra` — times combine
    /// root-sum-square, the standard cascade rule for first-order systems.
    #[must_use]
    pub fn cascaded_with_2080_ps(&self, extra_ps: f64) -> EdgeShape {
        assert!(extra_ps.is_finite() && extra_ps >= 0.0, "extra rise time must be nonnegative");
        let extra_tau = extra_ps * 1_000.0 / T2080_PER_TAU;
        EdgeShape {
            rise_tau_fs: (self.rise_tau_fs.powi(2) + extra_tau.powi(2)).sqrt(),
            fall_tau_fs: (self.fall_tau_fs.powi(2) + extra_tau.powi(2)).sqrt(),
        }
    }

    fn tau_fs(&self, polarity: EdgePolarity) -> f64 {
        match polarity {
            EdgePolarity::Rising => self.rise_tau_fs,
            EdgePolarity::Falling => self.fall_tau_fs,
        }
    }
}

impl Default for EdgeShape {
    /// The paper's SiGe output buffer: 72 ps 20–80 % (Fig. 6 reports
    /// 70–75 ps).
    fn default() -> Self {
        EdgeShape::from_rise_2080_ps(72.0)
    }
}

/// How many τ away an edge still contributes to the superposition.
/// `sech²`-type tails at 20 τ are ~2×10⁻⁹ of the swing — below every
/// measurement in this crate.
const EDGE_WINDOW_TAUS: f64 = 20.0;

/// An analytic continuous-time analog waveform: logistic transitions between
/// the levels of a [`LevelSet`] at the instants of a [`DigitalWaveform`].
///
/// The value at any instant is evaluated **exactly** (superposition of the
/// nearby transitions), so measurements that chase 10 ps effects — eye
/// openings, crossover jitter, 20–80 % times — are not limited by a sample
/// grid.
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Instant};
/// use signal::jitter::NoJitter;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::from_str_bits("0011");
/// let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
/// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
/// // Settled low at bit 0 center, settled high at bit 3 center.
/// assert!((a.value_at(Instant::from_ps(200)) - (-1700.0)).abs() < 1.0);
/// assert!((a.value_at(Instant::from_ps(1400)) - (-900.0)).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogWaveform {
    digital: DigitalWaveform,
    levels: LevelSet,
    shape: EdgeShape,
}

impl AnalogWaveform {
    /// Wraps a digital waveform with levels and a transition shape.
    pub fn new(digital: DigitalWaveform, levels: LevelSet, shape: EdgeShape) -> Self {
        AnalogWaveform { digital, levels, shape }
    }

    /// The underlying digital waveform.
    #[inline]
    pub fn digital(&self) -> &DigitalWaveform {
        &self.digital
    }

    /// The programmed levels.
    #[inline]
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// The transition shape.
    #[inline]
    pub fn shape(&self) -> &EdgeShape {
        &self.shape
    }

    /// The instantaneous voltage (millivolts) at `t`.
    ///
    /// Superposes every transition whose logistic tail is non-negligible at
    /// `t`; with well-separated edges this is the settled VOH/VOL, with
    /// overlapping edges it reproduces ISI amplitude compression.
    ///
    /// Costs O(log n + edges in the window): a binary search for the
    /// window, then one logistic term per edge inside it. A sweep whose
    /// instants mostly run forward should use [`cursor`](Self::cursor),
    /// which carries the window between calls instead of searching.
    pub fn value_at(&self, t: Instant) -> f64 {
        let win = self.window();
        let lo_idx = self.digital.edges().partition_point(|e| e.at < t - win);
        self.value_from(lo_idx, win, t)
    }

    /// A forward cursor over the waveform: [`WaveCursor::value_at`] returns
    /// the same bits as [`value_at`](Self::value_at) for any sequence of
    /// instants, in O(edges stepped over + edges in the window) per call.
    pub fn cursor(&self) -> WaveCursor<'_> {
        WaveCursor {
            wave: self,
            win: self.window(),
            lo_idx: 0,
            table: logistic_table(),
            rise_scale: LOGISTIC_STEPS / self.shape.rise_tau_fs,
            fall_scale: LOGISTIC_STEPS / self.shape.fall_tau_fs,
        }
    }

    /// How far from `t` an edge can still influence the value at `t`.
    fn window(&self) -> Duration {
        let max_tau = self.shape.rise_tau_fs.max(self.shape.fall_tau_fs);
        Duration::from_fs((max_tau * EDGE_WINDOW_TAUS).ceil() as i64)
    }

    /// The value at `t`, given that the first `lo_idx` edges lie before the
    /// window `t - win` — the one place the waveform is evaluated.
    ///
    /// Edges alternate in polarity (every [`DigitalWaveform`] constructor
    /// keeps them so) and levels are whole millivolts, so the settled
    /// level after `lo_idx` edges is exactly VOH or VOL by parity: the
    /// ±swing steps of the edges behind the window sum to that level with
    /// no rounding.
    fn value_from(&self, lo_idx: usize, win: Duration, t: Instant) -> f64 {
        let swing = self.levels.swing().as_f64();
        let high = self.digital.initial_level() ^ (lo_idx % 2 == 1);
        let mut v = if high { self.levels.voh().as_f64() } else { self.levels.vol().as_f64() };
        for e in self.digital.edges().get(lo_idx..).unwrap_or_default() {
            let dt = (t - e.at).as_fs() as f64;
            if dt < -win.as_fs() as f64 {
                break;
            }
            let tau = self.shape.tau_fs(e.polarity);
            v += e.polarity.sign() * swing * logistic(dt / tau);
        }
        v
    }

    /// Finds the instant in `[lo, hi]` where the waveform crosses
    /// `threshold` (millivolts), by bisection to 1 fs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SignalError::CrossingNotFound`] if the waveform does
    /// not bracket the threshold over the interval.
    pub fn find_crossing(
        &self,
        threshold: f64,
        lo: Instant,
        hi: Instant,
    ) -> crate::Result<Instant> {
        let f_lo = self.value_at(lo) - threshold;
        let f_hi = self.value_at(hi) - threshold;
        if f_lo == 0.0 {
            return Ok(lo);
        }
        if f_hi == 0.0 {
            return Ok(hi);
        }
        if f_lo.signum() == f_hi.signum() {
            return Err(crate::SignalError::CrossingNotFound {
                context: "threshold not bracketed by search window",
            });
        }
        let (mut a, mut b) = (lo, hi);
        let mut f_a = f_lo;
        while (b - a).as_fs() > 1 {
            let mid = a + (b - a) / 2;
            let f_mid = self.value_at(mid) - threshold;
            if f_mid == 0.0 {
                return Ok(mid);
            }
            if f_mid.signum() == f_a.signum() {
                a = mid;
                f_a = f_mid;
            } else {
                b = mid;
            }
        }
        Ok(b)
    }

    /// Samples the waveform on a uniform grid: `n` samples starting at `t0`
    /// spaced `dt` apart. For rendering and for export; analysis should use
    /// [`value_at`](Self::value_at) directly.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn sample_uniform(&self, t0: Instant, dt: Duration, n: usize) -> Vec<f64> {
        assert!(dt > Duration::ZERO, "sample spacing must be positive");
        let mut cursor = self.cursor();
        (0..n).map(|i| cursor.value_at(t0 + dt * i as i64)).collect()
    }

    /// Minimum and maximum voltage over `[lo, hi]`, scanned at `step`
    /// resolution (with analytic refinement unnecessary because extrema sit
    /// at settled levels or mid-transition plateaus wider than any
    /// reasonable `step`).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive or the window is empty.
    pub fn range_over(&self, lo: Instant, hi: Instant, step: Duration) -> (f64, f64) {
        assert!(step > Duration::ZERO, "scan step must be positive");
        assert!(hi > lo, "scan window must be nonempty");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut cursor = self.cursor();
        let mut t = lo;
        while t <= hi {
            let v = cursor.value_at(t);
            min = min.min(v);
            max = max.max(v);
            t += step;
        }
        (min, max)
    }

    /// Returns a copy with different levels (a re-programmed driver DAC).
    #[must_use]
    pub fn with_levels(&self, levels: LevelSet) -> AnalogWaveform {
        AnalogWaveform { digital: self.digital.clone(), levels, shape: self.shape }
    }
}

/// A position in an [`AnalogWaveform`] for sweeps whose instants run
/// forward — a strobe stepped across a capture, a uniform sample grid.
///
/// It remembers how many edges lie behind the influence window of the last
/// instant and moves that count forward (or back, when aperture jitter
/// reorders two strobes) instead of searching the edge list again, so a
/// sweep of n instants costs O(n + edges) rather than O(n log edges).
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Instant};
/// use signal::jitter::NoJitter;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::from_str_bits("0110");
/// let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
/// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
/// let mut cursor = a.cursor();
/// for ps in [200, 600, 1000, 700, 1400] {
///     let t = Instant::from_ps(ps);
///     assert_eq!(cursor.value_at(t).to_bits(), a.value_at(t).to_bits());
/// }
/// ```
#[derive(Debug)]
pub struct WaveCursor<'a> {
    wave: &'a AnalogWaveform,
    win: Duration,
    lo_idx: usize,
    table: &'static LogisticTable,
    /// Logistic table positions per femtosecond from a rising edge.
    rise_scale: f64,
    /// Logistic table positions per femtosecond from a falling edge.
    fall_scale: f64,
}

impl WaveCursor<'_> {
    /// The instantaneous voltage (millivolts) at `t`, bit-identical to
    /// [`AnalogWaveform::value_at`].
    pub fn value_at(&mut self, t: Instant) -> f64 {
        self.seek(t);
        self.wave.value_from(self.lo_idx, self.win, t)
    }

    /// Decides `value_at(t) + n >= threshold` for every `t` in `[ta, tb]`
    /// and every `n` in `[−margin, margin]` at once, without evaluating
    /// the waveform: `Some(bit)` when the comparison comes out `bit`
    /// throughout, `None` when it may not.
    ///
    /// A strobe whose instant and comparator noise are only known to lie
    /// in such a box can store `Some(bit)` directly and evaluate the exact
    /// path only on `None`; `Some` is never wrong about the `f64`
    /// comparison the exact path makes. The bound uses no `exp`: each
    /// edge's logistic term is read off a monotone table at both ends of
    /// the span, and an edge that crosses the influence window inside the
    /// span is allowed to be either a full step or a logistic term, as the
    /// exact path may treat it either way.
    ///
    /// # Examples
    ///
    /// ```
    /// use pstime::{DataRate, Instant};
    /// use signal::jitter::NoJitter;
    /// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
    ///
    /// let rate = DataRate::from_gbps(2.5);
    /// let bits = BitStream::from_str_bits("0110");
    /// let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
    /// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
    /// let mut cursor = a.cursor();
    /// let (ta, tb) = (Instant::from_ps(590), Instant::from_ps(610));
    /// assert_eq!(cursor.decide(ta, tb, -1300.0, 8.0), Some(true));
    /// assert_eq!(cursor.decide(ta, tb, -900.0, 0.0), Some(false));
    /// // Across an edge the answer depends on the instant.
    /// let (ta, tb) = (Instant::from_ps(390), Instant::from_ps(410));
    /// assert_eq!(cursor.decide(ta, tb, -1300.0, 0.0), None);
    /// ```
    pub fn decide(
        &mut self,
        ta: Instant,
        tb: Instant,
        threshold: f64,
        margin: f64,
    ) -> Option<bool> {
        let (lo, hi) = self.bound(ta, tb);
        if lo - margin >= threshold {
            Some(true)
        } else if hi + margin < threshold {
            Some(false)
        } else {
            None
        }
    }

    /// Bounds the waveform over `[ta, tb]` without evaluating it: every
    /// `value_at(t)` for `t` in the span lies in the returned `(lo, hi)`.
    ///
    /// The bound is [`decide`](Self::decide)'s, rounding tolerance
    /// included, so `lo >= threshold` and `hi < threshold` settle a
    /// comparison for every instant in the span exactly as `decide` does
    /// with no margin. One bound over a wide span serves every comparison
    /// whose instant is known to lie inside it, whatever its threshold.
    ///
    /// # Examples
    ///
    /// ```
    /// use pstime::{DataRate, Instant};
    /// use signal::jitter::NoJitter;
    /// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
    ///
    /// let rate = DataRate::from_gbps(2.5);
    /// let bits = BitStream::from_str_bits("0110");
    /// let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
    /// let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
    /// let mut cursor = a.cursor();
    /// let (lo, hi) = cursor.bound(Instant::from_ps(590), Instant::from_ps(610));
    /// let v = a.value_at(Instant::from_ps(600));
    /// assert!(lo <= v && v <= hi && lo > -1300.0);
    /// ```
    pub fn bound(&mut self, ta: Instant, tb: Instant) -> (f64, f64) {
        self.seek(ta);
        let wave = self.wave;
        let win = self.win.as_fs();
        let swing = wave.levels.swing().as_f64();
        let high = wave.digital.initial_level() ^ (self.lo_idx % 2 == 1);
        let base = if high { wave.levels.voh().as_f64() } else { wave.levels.vol().as_f64() };
        let (mut lo, mut hi, mut terms) = (base, base, 1.0);
        for e in wave.digital.edges().get(self.lo_idx..).unwrap_or_default() {
            let dt_b = (tb - e.at).as_fs();
            if dt_b < -win {
                break;
            }
            let dt_a = (ta - e.at).as_fs();
            let (scale, step) = match e.polarity {
                EdgePolarity::Rising => (self.rise_scale, swing),
                EdgePolarity::Falling => (self.fall_scale, -swing),
            };
            // xlint::allow(no-lossy-cast, fs offsets stay far below 2^53 so both conversions are exact, as in value_from)
            let (pos_a, pos_b) = (dt_a as f64 * scale, dt_b as f64 * scale);
            // Past the window the exact path adds nothing; behind it, the
            // full step. Every treatment over the span lies in [s_lo, s_hi].
            let s_lo = if dt_a < -win { 0.0 } else { self.table.lower(pos_a) };
            let s_hi = if dt_b > win { 1.0 } else { self.table.upper(pos_b) };
            if step > 0.0 {
                lo += step * s_lo;
                hi += step * s_hi;
            } else {
                lo += step * s_hi;
                hi += step * s_lo;
            }
            terms += 1.0;
        }
        // Covers the rounding of both sums, of the table entries and of
        // the table positions, each below 2^-40 of |level| + swing per
        // term.
        let tol = (base.abs() + swing) * terms * BOUND_SLACK;
        (lo - tol, hi + tol)
    }

    /// Moves `lo_idx` to the number of edges before `t`'s influence
    /// window, forward or back.
    fn seek(&mut self, t: Instant) {
        let edges = self.wave.digital.edges();
        let before = t - self.win;
        while edges.get(self.lo_idx).is_some_and(|e| e.at < before) {
            self.lo_idx += 1;
        }
        while self.lo_idx > 0 && edges.get(self.lo_idx - 1).is_some_and(|e| e.at >= before) {
            self.lo_idx -= 1;
        }
    }
}

/// Relative slack of [`WaveCursor::bound`] per term: far above
/// the `f64` rounding of a sum of logistic terms (about 2⁻⁵² of the
/// magnitudes per addition) and far below any voltage this crate resolves.
const BOUND_SLACK: f64 = 1e-9;

/// Grid points per unit of `t/τ` in the logistic bound table.
const LOGISTIC_STEPS: f64 = 32.0;

/// The table spans `t/τ` in `[−LOGISTIC_SPAN, LOGISTIC_SPAN]`; the
/// influence window ends at 20 τ of the slower edge, so this also covers
/// a faster edge up to 1.2× as steep.
const LOGISTIC_SPAN: f64 = 24.0;

/// [`logistic`] sampled on the grid `j / LOGISTIC_STEPS − LOGISTIC_SPAN`,
/// so a lookup at a grid point on either side bounds it from below or
/// above (it is monotone). Lookups take `pos = x · LOGISTIC_STEPS` and
/// truncate with `as`, which rounds toward zero with no libm call.
#[derive(Debug)]
struct LogisticTable {
    grid: Vec<f64>,
    /// The last grid value, a lower bound anywhere past the table.
    last: f64,
}

/// `LOGISTIC_SPAN · LOGISTIC_STEPS`: the table index of `x = 0`.
const LOGISTIC_ORIGIN: f64 = LOGISTIC_SPAN * LOGISTIC_STEPS;

impl LogisticTable {
    /// A value at most `logistic(x)`, given `pos = x · LOGISTIC_STEPS`.
    #[inline]
    fn lower(&self, pos: f64) -> f64 {
        let at = pos + LOGISTIC_ORIGIN;
        if at < 0.0 {
            return 0.0;
        }
        self.grid.get(at as usize).copied().unwrap_or(self.last) // xlint::allow(no-lossy-cast, truncating a nonnegative position is its floor and saturates past the table)
    }

    /// A value at least `logistic(x)`, given `pos = x · LOGISTIC_STEPS`.
    #[inline]
    fn upper(&self, pos: f64) -> f64 {
        let at = pos + LOGISTIC_ORIGIN;
        // One past the truncation is at or above the ceiling (a negative
        // position saturates to 0, still ahead of x); past the table, 1.
        self.grid.get((at as usize).saturating_add(1)).copied().unwrap_or(1.0) // xlint::allow(no-lossy-cast, the truncation saturates at both ends and only picks a grid point at or past x)
    }
}

fn logistic_table() -> &'static LogisticTable {
    static TABLE: OnceLock<LogisticTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let points = 2.0 * LOGISTIC_ORIGIN;
        let grid: Vec<f64> = (0u32..)
            .map(f64::from)
            .take_while(|j| *j <= points)
            .map(|j| logistic(j / LOGISTIC_STEPS - LOGISTIC_SPAN))
            .collect();
        let last = grid.last().copied().unwrap_or(0.0);
        LogisticTable { grid, last }
    })
}

#[inline]
fn logistic(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::NoJitter;
    use crate::BitStream;
    use pstime::DataRate;

    fn analog(bits: &str, gbps: f64, rise_ps: f64) -> AnalogWaveform {
        let d = DigitalWaveform::from_bits(
            &BitStream::from_str_bits(bits),
            DataRate::from_gbps(gbps),
            &NoJitter,
            0,
        );
        AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(rise_ps))
    }

    #[test]
    fn level_set_arithmetic() {
        let l = LevelSet::pecl();
        assert_eq!(l.voh(), Millivolts::new(-900));
        assert_eq!(l.vol(), Millivolts::new(-1700));
        assert_eq!(l.swing(), Millivolts::new(800));
        assert_eq!(l.mid(), Millivolts::new(-1300));
        assert_eq!(l.with_voh(Millivolts::new(-1000)).swing(), Millivolts::new(700));
        assert_eq!(l.with_vol(Millivolts::new(-1600)).swing(), Millivolts::new(700));
        let s = l.with_swing(Millivolts::new(400));
        assert_eq!(s.swing(), Millivolts::new(400));
        assert_eq!(s.mid(), l.mid());
        let m = l.with_mid(Millivolts::ZERO);
        assert_eq!(m.mid(), Millivolts::ZERO);
        assert_eq!(m.swing(), Millivolts::new(800));
        let a = l.attenuated(0.5);
        assert_eq!(a.swing(), Millivolts::new(400));
        assert_eq!(a.mid(), l.mid());
        assert_eq!(LevelSet::default(), LevelSet::pecl());
        assert!(LevelSet::lvcmos18().swing() == Millivolts::new(1800));
        assert!(l.to_string().contains("VOH=-900 mV"));
    }

    #[test]
    #[should_panic(expected = "VOH must exceed VOL")]
    fn inverted_levels_panic() {
        let _ = LevelSet::new(Millivolts::new(-1700), Millivolts::new(-900));
    }

    #[test]
    fn edge_shape_round_trips() {
        let s = EdgeShape::from_rise_2080_ps(72.0);
        assert_eq!(s.rise_2080(), Duration::from_ps(72));
        assert_eq!(s.fall_2080(), Duration::from_ps(72));
        let a = EdgeShape::from_rise_fall_2080_ps(70.0, 75.0);
        assert_eq!(a.rise_2080(), Duration::from_ps(70));
        assert_eq!(a.fall_2080(), Duration::from_ps(75));
        // RSS cascade: 30^2 + 40^2 = 50^2.
        let c = EdgeShape::from_rise_2080_ps(30.0).cascaded_with_2080_ps(40.0);
        assert_eq!(c.rise_2080(), Duration::from_ps(50));
        assert_eq!(EdgeShape::default().rise_2080(), Duration::from_ps(72));
    }

    #[test]
    fn settled_levels() {
        let a = analog("0011", 2.5, 72.0);
        assert!((a.value_at(Instant::from_ps(200)) + 1700.0).abs() < 1.0);
        assert!((a.value_at(Instant::from_ps(1400)) + 900.0).abs() < 1.0);
        // The transition midpoint sits at the threshold.
        let mid = a.value_at(Instant::from_ps(800));
        assert!((mid + 1300.0).abs() < 1.0, "mid = {mid}");
    }

    #[test]
    fn constant_waveform_value() {
        let d = DigitalWaveform::constant(true, Instant::ZERO, Instant::from_ps(100));
        let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
        assert!((a.value_at(Instant::from_ps(50)) + 900.0).abs() < 1e-9);
    }

    #[test]
    fn rise_time_matches_shape() {
        let a = analog("0011", 2.5, 72.0);
        // 20% and 80% points of -1700..-900: -1540 and -1060 mV.
        let t20 = a.find_crossing(-1540.0, Instant::from_ps(600), Instant::from_ps(1000)).unwrap();
        let t80 = a.find_crossing(-1060.0, Instant::from_ps(600), Instant::from_ps(1000)).unwrap();
        let rise = t80 - t20;
        assert!(
            (rise.as_ps_f64() - 72.0).abs() < 1.0,
            "measured 20-80 rise {} ps",
            rise.as_ps_f64()
        );
    }

    #[test]
    fn crossing_bisection_is_exact() {
        let a = analog("01", 2.5, 72.0);
        // Transition centered at 400 ps: mid-crossing must land within 1 fs.
        let t = a.find_crossing(-1300.0, Instant::from_ps(200), Instant::from_ps(600)).unwrap();
        assert!((t - Instant::from_ps(400)).abs() <= Duration::from_fs(2));
    }

    #[test]
    fn crossing_not_found() {
        let a = analog("0000", 2.5, 72.0);
        let err =
            a.find_crossing(-1300.0, Instant::from_ps(0), Instant::from_ps(1000)).unwrap_err();
        assert!(matches!(err, crate::SignalError::CrossingNotFound { .. }));
    }

    #[test]
    fn isi_compresses_amplitude_at_5gbps() {
        // 120 ps edges at a 200 ps UI: single-bit pulses cannot reach the
        // rails (the paper's Fig. 18 observation).
        let fast = analog("0010100", 5.0, 120.0);
        let (min_v, max_v) =
            fast.range_over(Instant::from_ps(300), Instant::from_ps(1100), Duration::from_ps(1));
        let peak = max_v;
        assert!(peak < -950.0, "isolated 1 at 5 Gbps should not reach VOH, got {peak}");

        // The same pattern at 1 Gbps settles fully.
        let slow = analog("0010100", 1.0, 120.0);
        let (_, max_slow) =
            slow.range_over(Instant::from_ps(1500), Instant::from_ps(5500), Duration::from_ps(5));
        assert!((max_slow + 900.0).abs() < 2.0, "1 Gbps peak {max_slow}");
        let _ = min_v;
    }

    #[test]
    fn with_levels_reprograms_dac() {
        let a = analog("01", 2.5, 72.0);
        let b = a.with_levels(LevelSet::pecl().with_voh(Millivolts::new(-1000)));
        assert!((b.value_at(Instant::from_ps(700)) + 1000.0).abs() < 1.0);
        assert_eq!(b.shape(), a.shape());
        assert_eq!(b.digital(), a.digital());
        assert_eq!(b.levels().voh(), Millivolts::new(-1000));
    }

    #[test]
    fn sample_uniform_grid() {
        let a = analog("0110", 2.5, 20.0);
        let samples = a.sample_uniform(Instant::ZERO, Duration::from_ps(100), 16);
        assert_eq!(samples.len(), 16);
        assert!((samples[2] + 1700.0).abs() < 1.0); // 200 ps: low
        assert!((samples[8] + 900.0).abs() < 1.0); // 800 ps: high
    }

    #[test]
    fn logistic_basics() {
        assert!((logistic(0.0) - 0.5).abs() < 1e-15);
        assert!(logistic(20.0) > 0.999_999);
        assert!(logistic(-20.0) < 1e-6);
        assert!((logistic(1.0) + logistic(-1.0) - 1.0).abs() < 1e-15);
    }
}
