//! The strobed picosecond sampling circuit.
//!
//! "A high-speed PECL sampling circuit is designed to capture the returned
//! signal, also with 10 ps resolution" (§1, §4). The sampler compares the
//! input against a programmable threshold at strobe instants placed by a
//! delay vernier; sweeping the strobe across the bit period reconstructs
//! the eye in equivalent time — exactly how the mini-tester measures a DUT
//! without a bench oscilloscope.

use pstime::{DataRate, Duration, Instant, Millivolts};
use rng::{GaussPair, Rng, SeedTree, StreamId};
use signal::{AnalogWaveform, BitStream, WaveCursor};

/// Substream identity for capture aperture-jitter draws.
pub const SAMPLER_STREAM: StreamId = StreamId::named("pecl.sampler");

/// A strobed comparator sampler with programmable threshold and aperture
/// jitter.
///
/// # Examples
///
/// ```
/// use pecl::StrobedSampler;
/// use pstime::{DataRate, Duration, Instant, Millivolts};
/// use signal::jitter::NoJitter;
/// use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};
///
/// let rate = DataRate::from_gbps(2.5);
/// let bits = BitStream::from_str_bits("1011");
/// let wave = AnalogWaveform::new(
///     DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0),
///     LevelSet::pecl(),
///     EdgeShape::default(),
/// );
/// let sampler = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
/// // One row: strobe 200 ps into each bit at the programmed threshold.
/// let row = (Duration::from_ps(200), sampler.threshold(), 1);
/// assert_eq!(sampler.capture_errors(&wave, rate, &bits, &[row], bits.len()), [0]);
/// // Against the complement every bit errors; a cap of 1 stops at the first.
/// let complement = BitStream::from_str_bits("0100");
/// assert_eq!(sampler.capture_errors(&wave, rate, &complement, &[row], 4), [4]);
/// assert_eq!(sampler.capture_errors(&wave, rate, &complement, &[row], 1), [1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrobedSampler {
    threshold: Millivolts,
    aperture_rj: Duration,
    input_offset: Millivolts,
}

impl StrobedSampler {
    /// Creates a sampler with a decision threshold and Gaussian aperture
    /// jitter.
    ///
    /// # Panics
    ///
    /// Panics if `aperture_rj` is negative.
    pub fn new(threshold: Millivolts, aperture_rj: Duration) -> Self {
        assert!(!aperture_rj.is_negative(), "aperture jitter must be nonnegative");
        StrobedSampler { threshold, aperture_rj, input_offset: Millivolts::ZERO }
    }

    /// The mini-tester's capture comparator: mid-PECL threshold, 2 ps
    /// aperture jitter.
    pub fn minitester() -> Self {
        StrobedSampler::new(Millivolts::new(-1300), Duration::from_ps(2))
    }

    /// The decision threshold.
    pub fn threshold(&self) -> Millivolts {
        self.threshold
    }

    /// Reprograms the decision threshold (the vertical axis of a shmoo).
    pub fn set_threshold(&mut self, threshold: Millivolts) {
        self.threshold = threshold;
    }

    /// The aperture jitter rms.
    pub fn aperture_rj(&self) -> Duration {
        self.aperture_rj
    }

    /// Comparator input-referred offset (defaults to zero; settable for
    /// fault-injection studies).
    pub fn input_offset(&self) -> Millivolts {
        self.input_offset
    }

    /// Sets the comparator offset.
    pub fn set_input_offset(&mut self, offset: Millivolts) {
        self.input_offset = offset;
    }

    /// The one exact comparison: moves `strobe` by the aperture deviate
    /// `z` (in sigmas), evaluates the input there with `value_at`, and
    /// slices it against the decision level `level`.
    fn slice(
        &self,
        strobe: Instant,
        z: f64,
        level: f64,
        value_at: impl FnOnce(Instant) -> f64,
    ) -> bool {
        value_at(strobe + aperture_offset(z, self.aperture_rj)) >= level
    }

    /// The level the comparator slices at when programmed to `threshold`.
    fn decision_level_at(&self, threshold: Millivolts) -> f64 {
        (threshold + self.input_offset).as_f64()
    }

    /// Decides one strobe at decision level `level`: from the waveform
    /// bound over the draw's span when that settles it, otherwise on the
    /// exact path with the draw's deviate. Either way the bit is the one
    /// the exact path gives.
    fn strobe_bit(
        &self,
        cursor: &mut WaveCursor<'_>,
        strobe: Instant,
        level: f64,
        draw: Draw,
    ) -> bool {
        cursor
            .decide(strobe - draw.slack, strobe + draw.slack, level, 0.0)
            .unwrap_or_else(|| self.slice(strobe, draw.deviate(), level, |t| cursor.value_at(t)))
    }

    /// Each row's bit errors against `expected`, capped at `cap`. A row is
    /// a (strobe phase, threshold, seed) triple: its bit `i` strobes `i`
    /// unit intervals plus its phase past the waveform start, slices at
    /// its threshold, and draws its aperture deviate from its seed's
    /// substream. Row `r` gets `min(errors, cap)`. A pass-only caller
    /// passes `cap = 1` and reads `== 0`; a counting caller passes
    /// `expected.len()`.
    ///
    /// This is the one strobe kernel: a shmoo column's threshold rows
    /// strobe one phase, an eye scan's phases sit a vernier step apart.
    /// Most strobes never evaluate the waveform. No row's jittered instant
    /// leaves ±S around its strobe, S being the span of the largest
    /// deviate [`GaussPair::max_radius_bound`] allows at this aperture. So
    /// per bit, one [`WaveCursor::bound`] over [earliest strobe − S, latest
    /// strobe + S] of a group of live rows settles every row of the group
    /// whose decision level lies outside it, whatever its deviate. Groups
    /// run depth-first in strobe order, starting with all live rows, each
    /// of which draws its deviates in strobe order. When the rows a bound
    /// leaves open share one phase, each takes its own
    /// [`WaveCursor::decide`] over its draw's span and, failing that, the
    /// exact path; otherwise they split at their middle into two groups. A
    /// lone row skips the shared bound, whose span is wider than its own.
    /// Every bit is the one the exact path gives. Rows may come in any
    /// order; the result is in theirs. A row retires when its count
    /// reaches `cap`, and the sweep stops when no row is left.
    pub fn capture_errors(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        rows: &[(Duration, Millivolts, u64)],
        cap: usize,
    ) -> Vec<usize> {
        let levels: Vec<f64> =
            rows.iter().map(|&(_, threshold, _)| self.decision_level_at(threshold)).collect();
        let mut sweep = Sweep {
            sampler: self,
            cursor: wave.cursor(),
            span: slack_of(GaussPair::max_radius_bound(), self.aperture_rj),
            phases: rows.iter().map(|&(phase, _, _)| phase).collect(),
            lowest: levels.iter().copied().fold(f64::INFINITY, f64::min),
            highest: levels.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            levels,
            errors: vec![0; rows.len()],
            cap,
            retired: 0,
            base: wave.digital().start(),
            want: false,
        };
        let mut draws: Vec<Aperture> =
            rows.iter().map(|&(_, _, seed)| Aperture::new(seed, self.aperture_rj)).collect();
        // Live rows in strobe order, so that a group's ends are its
        // earliest and latest strobes. With a cap of 0 none starts.
        let mut live: Vec<usize> = (0..rows.len()).filter(|_| cap > 0).collect();
        live.sort_by_key(|&r| sweep.phases[r]);
        let mut group = Vec::with_capacity(live.len());
        let ui = rate.unit_interval();
        for want in expected.iter() {
            sweep.want = want;
            // The first group is every live row. Its bound is taken before
            // the draws, so that each row is drawn and settled against it
            // in one pass; a lone row skips it.
            let shared = match live[..] {
                [] => break,
                [_] => None,
                [first, .., last] => Some(sweep.bound(first, last)),
            };
            group.clear();
            for &r in &live {
                let draw = draws[r].next();
                match shared {
                    // The guard keeps the shared bounds sound whatever
                    // `span` is: a draw they do not cover decides on its
                    // own.
                    Some(bound) if draw.slack <= sweep.span => {
                        if !sweep.settled_by(r, bound) {
                            group.push((r, draw));
                        }
                    }
                    _ => sweep.strobe(r, draw),
                }
            }
            sweep.resolve(&mut group);
            if sweep.retired > 0 {
                live.retain(|&r| sweep.errors[r] < cap);
                sweep.retired = 0;
            }
            sweep.base += ui;
        }
        sweep.errors
    }
}

/// The state of one [`StrobedSampler::capture_errors`] call: the rows'
/// phases, decision levels and error counts, indexed by row.
struct Sweep<'a> {
    sampler: &'a StrobedSampler,
    cursor: WaveCursor<'a>,
    /// The span ±S no jittered instant leaves around its strobe.
    span: Duration,
    phases: Vec<Duration>,
    levels: Vec<f64>,
    /// The lowest and highest of `levels`.
    lowest: f64,
    highest: f64,
    errors: Vec<usize>,
    /// The count at which a row retires.
    cap: usize,
    /// Rows whose count reached `cap` at the current bit.
    retired: usize,
    /// The current bit's strobe at phase zero.
    base: Instant,
    /// The current bit's expected value.
    want: bool,
}

impl Sweep<'_> {
    /// The waveform bound over [phase of `first` − S, phase of `last` + S]
    /// at the current bit.
    fn bound(&mut self, first: usize, last: usize) -> (f64, f64) {
        let (ta, tb) = (self.base + self.phases[first], self.base + self.phases[last]);
        self.cursor.bound(ta - self.span, tb + self.span)
    }

    /// Decides the current bit of every row in `group`, a list of (row,
    /// draw) pairs in strobe order whose draws `span` covers.
    fn settle(&mut self, group: &mut [(usize, Draw)]) {
        let (lo, hi) = match group {
            [] => return,
            [(r, draw)] => return self.strobe(*r, *draw),
            [(first, _), .., (last, _)] => self.bound(*first, *last),
        };
        // Against the extreme levels first: a single-threshold scan
        // settles, or leaves open, the whole group at once.
        if lo >= self.highest || hi < self.lowest {
            if (lo >= self.highest) != self.want {
                for &(r, _) in group.iter() {
                    self.record(r, !self.want);
                }
            }
        } else if lo < self.lowest && hi >= self.highest {
            self.resolve(group);
        } else {
            // Keep the rows the bound leaves open, in order, at the front.
            let mut open = 0;
            for j in 0..group.len() {
                let (r, draw) = group[j];
                if !self.settled_by(r, (lo, hi)) {
                    group[open] = (r, draw);
                    open += 1;
                }
            }
            self.resolve(&mut group[..open]);
        }
    }

    /// Decides the rows a group's bound left open: each on its own when
    /// they share one phase, otherwise by halves.
    fn resolve(&mut self, open: &mut [(usize, Draw)]) {
        match open {
            [] => {}
            [(first, _), .., (last, _)] if self.phases[*first] != self.phases[*last] => {
                let (left, right) = open.split_at_mut(open.len() / 2);
                self.settle(left);
                self.settle(right);
            }
            _ => {
                for &(r, draw) in open.iter() {
                    self.strobe(r, draw);
                }
            }
        }
    }

    /// Settles row `r`'s current bit from the bound `(lo, hi)` when its
    /// decision level lies outside it; false when the bound leaves it open.
    fn settled_by(&mut self, r: usize, (lo, hi): (f64, f64)) -> bool {
        let level = self.levels[r];
        let settled = lo >= level || hi < level;
        if settled {
            self.record(r, lo >= level);
        }
        settled
    }

    /// Decides row `r`'s current bit on its own.
    fn strobe(&mut self, r: usize, draw: Draw) {
        let strobe = self.base + self.phases[r];
        let bit = self.sampler.strobe_bit(&mut self.cursor, strobe, self.levels[r], draw);
        self.record(r, bit);
    }

    /// Counts an error for row `r` when its current bit came out other
    /// than expected.
    fn record(&mut self, r: usize, bit: bool) {
        if bit != self.want {
            self.errors[r] += 1;
            if self.errors[r] == self.cap {
                self.retired += 1;
            }
        }
    }
}

/// The aperture deviates of one capture, handed out one strobe at a time.
///
/// Strobe 2k takes the first deviate of the k-th Box–Muller pair and
/// strobe 2k + 1 the second, the order `Rng::gaussian` hands them out in.
/// A zero aperture draws pairs it never reads, which the discarded
/// generator makes harmless.
#[derive(Debug)]
struct Aperture {
    rng: Rng,
    sigma: Duration,
    held: Option<(GaussPair, Duration)>,
}

/// One strobe's share of a Box–Muller pair, and the span around the strobe
/// its jittered instant cannot leave.
#[derive(Debug, Clone, Copy)]
struct Draw {
    pair: GaussPair,
    second: bool,
    slack: Duration,
}

impl Aperture {
    fn new(seed: u64, sigma: Duration) -> Self {
        Aperture { rng: SeedTree::new(seed).derive(SAMPLER_STREAM).rng(), sigma, held: None }
    }

    fn next(&mut self) -> Draw {
        match self.held.take() {
            Some((pair, slack)) => Draw { pair, second: true, slack },
            None => {
                let pair = self.rng.gauss_pair();
                let slack = slack_of(pair.radius_bound(), self.sigma);
                self.held = Some((pair, slack));
                Draw { pair, second: false, slack }
            }
        }
    }
}

impl Draw {
    fn deviate(&self) -> f64 {
        if self.second {
            self.pair.second()
        } else {
            self.pair.first()
        }
    }
}

/// The span around a strobe that an aperture offset of at most `radius`
/// sigmas cannot leave. `|z|·σ ≤ radius·σ`, whose rounding to the fs in
/// [`aperture_offset`] is at most its truncation plus 1 fs; one more fs
/// spares it.
fn slack_of(radius: f64, sigma: Duration) -> Duration {
    // xlint::allow(no-lossy-cast, aperture jitter in fs stays far below 2^53, as in aperture_offset)
    let sigma_fs = sigma.as_fs() as f64;
    Duration::from_fs((radius * sigma_fs) as i64 + 2) // xlint::allow(no-lossy-cast, a nonnegative product of a few sigmas in fs; truncation stays below its ceiling)
}

/// The aperture offset of a standard normal deviate `z` at rms `sigma`,
/// rounded to the femtosecond; zero whenever `sigma` is.
fn aperture_offset(z: f64, sigma: Duration) -> Duration {
    Duration::from_fs((z * sigma.as_fs() as f64).round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::jitter::NoJitter;
    use signal::{DigitalWaveform, EdgeShape, LevelSet};

    fn wave(bits: &str, gbps: f64) -> (AnalogWaveform, DataRate, BitStream) {
        let rate = DataRate::from_gbps(gbps);
        let bs = BitStream::from_str_bits(bits);
        let w = AnalogWaveform::new(
            DigitalWaveform::from_bits(&bs, rate, &NoJitter, 0),
            LevelSet::pecl(),
            EdgeShape::default(),
        );
        (w, rate, bs)
    }

    /// The errors of one row strobing `phase` at the sampler's threshold.
    fn row_errors(
        s: &StrobedSampler,
        w: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        phase: Duration,
        seed: u64,
    ) -> usize {
        let row = (phase, s.threshold(), seed);
        s.capture_errors(w, rate, expected, &[row], expected.len())[0]
    }

    #[test]
    fn clean_capture_recovers_bits() {
        let (w, rate, bits) = wave("1011001110001010", 2.5);
        let sampler = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
        assert_eq!(row_errors(&sampler, &w, rate, &bits, Duration::from_ps(200), 0), 0);
        let complement = BitStream::from_fn(bits.len(), |i| !bits[i]);
        let all = bits.len();
        assert_eq!(row_errors(&sampler, &w, rate, &complement, Duration::from_ps(200), 0), all);
    }

    #[test]
    fn minitester_defaults() {
        let s = StrobedSampler::minitester();
        assert_eq!(s.threshold(), Millivolts::new(-1300));
        assert_eq!(s.aperture_rj(), Duration::from_ps(2));
        assert_eq!(s.input_offset(), Millivolts::ZERO);
    }

    #[test]
    fn threshold_programming_affects_decisions() {
        let (w, _rate, _) = wave("1111", 2.5);
        let mut s = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
        // No aperture jitter: one strobe at 600 ps, sliced exactly.
        let strobe = |s: &StrobedSampler| {
            s.slice(Instant::from_ps(600), 0.0, s.decision_level_at(s.threshold()), |t| {
                w.value_at(t)
            })
        };
        assert!(strobe(&s));
        // Raise the threshold above VOH: everything reads low.
        s.set_threshold(Millivolts::new(-800));
        assert!(!strobe(&s));
        // Comparator offset shifts the effective threshold.
        s.set_threshold(Millivolts::new(-1300));
        s.set_input_offset(Millivolts::new(500));
        assert!(!strobe(&s));
        assert_eq!(s.input_offset(), Millivolts::new(500));
    }

    #[test]
    fn strobing_near_an_edge_is_unreliable_with_aperture_jitter() {
        let (w, rate, _) = wave("10101010101010101010", 2.5);
        let s = StrobedSampler::new(Millivolts::new(-1300), Duration::from_ps(20));
        // Strobe exactly on the transitions: decisions flip randomly, so
        // against all ones some bits error and some do not.
        let ones = BitStream::from_fn(20, |_| true);
        let errors = row_errors(&s, &w, rate, &ones, Duration::ZERO, 7);
        assert!(errors > 0 && errors < 20, "expected metastable-ish capture, got {errors} zeros");
    }

    #[test]
    fn capture_is_seed_deterministic() {
        let (w, rate, _) = wave("1010110010", 2.5);
        let s = StrobedSampler::minitester();
        // Near the edges, where the aperture draws decide some bits.
        let expected = BitStream::alternating(10);
        let rows: Vec<_> = (0..40).map(|k| (Duration::from_ps(10 * k), s.threshold(), 3)).collect();
        let a = s.capture_errors(&w, rate, &expected, &rows, 10);
        let b = s.capture_errors(&w, rate, &expected, &rows, 10);
        assert_eq!(a, b);
        assert!(a.iter().any(|&e| e > 0));
    }

    #[test]
    #[should_panic(expected = "aperture jitter must be nonnegative")]
    fn negative_aperture_panics() {
        let _ = StrobedSampler::new(Millivolts::ZERO, Duration::from_ps(-1));
    }
}
