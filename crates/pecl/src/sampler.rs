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
/// let captured = sampler.capture(&wave, rate, Duration::from_ps(200), 4, 1);
/// assert_eq!(captured, bits);
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

    fn decision_level(&self) -> f64 {
        self.decision_level_at(self.threshold)
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

    /// Captures `n` bits: one strobe per unit interval at phase offset
    /// `strobe_phase` into each bit, starting from the waveform start.
    ///
    /// Most strobes never evaluate the waveform: the pair's
    /// [`radius_bound`](rng::GaussPair::radius_bound) confines the
    /// jittered instant to a span around the strobe, and
    /// [`WaveCursor::decide`] settles the bit over that whole span when it
    /// can. Only the undecided strobes take the exact path, so every bit
    /// is the one the exact path stores.
    pub fn capture(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        strobe_phase: Duration,
        n: usize,
        seed: u64,
    ) -> BitStream {
        let ui = rate.unit_interval();
        let start = wave.digital().start();
        let level = self.decision_level();
        let mut draws = Aperture::new(seed, self.aperture_rj);
        // Strobes run forward one UI at a time, so a cursor follows them.
        let mut cursor = wave.cursor();
        BitStream::from_fn(n, |i| {
            let strobe = start + ui * i as i64 + strobe_phase;
            self.strobe_bit(&mut cursor, strobe, level, draws.next())
        })
    }

    /// Whether each row's capture matches `expected` in every bit, where a
    /// row is a (strobe phase, threshold, seed) triple: row `r` answers
    /// exactly what `capture` at phase `rows[r].0`, threshold `rows[r].1`
    /// and seed `rows[r].2` followed by a zero-mismatch check would.
    ///
    /// This is the one pass-only kernel: a shmoo column's threshold rows
    /// strobe one phase, an eye scan's phases sit a vernier step apart,
    /// and both read only `errors == 0`. No row's jittered instant leaves
    /// ±S around its strobe, S being the span of the largest deviate
    /// [`GaussPair::max_radius_bound`] allows at this aperture. So per bit,
    /// one [`WaveCursor::bound`] over [earliest strobe − S, latest
    /// strobe + S] of a group of live rows settles every row of the group
    /// whose decision level lies outside it, whatever its deviate. Groups
    /// run depth-first in strobe order, starting with all live rows, each
    /// of which draws its deviate in `capture`'s order. When the rows a
    /// bound leaves open share one phase, each takes its own `decide` and,
    /// failing that, the exact path; otherwise they split at their middle
    /// into two groups. A lone row skips the shared bound, whose span is
    /// wider than its own. A shmoo column is thus one bound per bit and a
    /// `decide` per row it leaves open, while adjacent phases share
    /// bounds. Rows may come in any order; the result is in theirs. A row
    /// stops at its first mismatch, and the sweep stops when no row is
    /// left.
    pub fn capture_passes(
        &self,
        wave: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        rows: &[(Duration, Millivolts, u64)],
    ) -> Vec<bool> {
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
            pass: vec![true; rows.len()],
            failed: 0,
            // Bit i strobes at `start + ui·i + phase`, as in `capture`.
            base: wave.digital().start(),
            want: false,
        };
        let mut draws: Vec<Aperture> =
            rows.iter().map(|&(_, _, seed)| Aperture::new(seed, self.aperture_rj)).collect();
        // Live rows in strobe order, so that a group's ends are its
        // earliest and latest strobes.
        let mut live: Vec<usize> = (0..rows.len()).collect();
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
            if sweep.failed > 0 {
                live.retain(|&r| sweep.pass[r]);
                sweep.failed = 0;
            }
            sweep.base += ui;
        }
        sweep.pass
    }
}

/// The state of one [`StrobedSampler::capture_passes`] call: the rows'
/// phases, decision levels and verdicts, indexed by row.
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
    pass: Vec<bool>,
    /// Rows failed at the current bit.
    failed: usize,
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

    /// Fails row `r` when its current bit came out other than expected.
    fn record(&mut self, r: usize, bit: bool) {
        if bit != self.want {
            self.pass[r] = false;
            self.failed += 1;
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

    #[test]
    fn clean_capture_recovers_bits() {
        let (w, rate, bits) = wave("1011001110001010", 2.5);
        let sampler = StrobedSampler::new(Millivolts::new(-1300), Duration::ZERO);
        let captured = sampler.capture(&w, rate, Duration::from_ps(200), bits.len(), 0);
        assert_eq!(captured, bits);
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
            s.slice(Instant::from_ps(600), 0.0, s.decision_level(), |t| w.value_at(t))
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
        // Strobe exactly on the transitions: decisions flip randomly.
        let captured = s.capture(&w, rate, Duration::ZERO, 20, 7);
        let ones = captured.count_ones();
        assert!(ones > 0 && ones < 20, "expected metastable-ish capture, got {captured}");
    }

    #[test]
    fn capture_is_seed_deterministic() {
        let (w, rate, _) = wave("1010110010", 2.5);
        let s = StrobedSampler::minitester();
        let a = s.capture(&w, rate, Duration::from_ps(200), 10, 3);
        let b = s.capture(&w, rate, Duration::from_ps(200), 10, 3);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "aperture jitter must be nonnegative")]
    fn negative_aperture_panics() {
        let _ = StrobedSampler::new(Millivolts::ZERO, Duration::from_ps(-1));
    }
}
