//! NRZ digital waveforms with femtosecond edge placement.

use core::fmt;

use pstime::{DataRate, Duration, Instant};

use crate::jitter::JitterModel;
use crate::BitStream;

/// Direction of a logic transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgePolarity {
    /// Low-to-high transition.
    Rising,
    /// High-to-low transition.
    Falling,
}

impl EdgePolarity {
    /// The opposite polarity.
    #[inline]
    pub fn inverted(self) -> EdgePolarity {
        match self {
            EdgePolarity::Rising => EdgePolarity::Falling,
            EdgePolarity::Falling => EdgePolarity::Rising,
        }
    }

    /// `+1.0` for rising, `−1.0` for falling — the sign of the level change.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            EdgePolarity::Rising => 1.0,
            EdgePolarity::Falling => -1.0,
        }
    }
}

impl fmt::Display for EdgePolarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgePolarity::Rising => "rising",
            EdgePolarity::Falling => "falling",
        })
    }
}

/// A single logic transition at an absolute instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// When the transition crosses the logic threshold.
    pub at: Instant,
    /// Transition direction.
    pub polarity: EdgePolarity,
}

impl Edge {
    /// Creates an edge.
    #[inline]
    pub fn new(at: Instant, polarity: EdgePolarity) -> Self {
        Edge { at, polarity }
    }

    /// A rising edge at `at`.
    #[inline]
    pub fn rising(at: Instant) -> Self {
        Edge::new(at, EdgePolarity::Rising)
    }
}

/// An NRZ digital waveform: an initial logic level plus a strictly
/// time-ordered, polarity-alternating list of [`Edge`]s.
///
/// This is the exchange format between the pattern-generation side (DLC,
/// PECL muxes, delay lines) and the analog/measurement side. Edge times are
/// absolute femtosecond [`Instant`]s, so a 10 ps delay-line step or a 3.2 ps
/// rms jitter displacement is represented without rounding.
///
/// # Examples
///
/// ```
/// use pstime::{DataRate, Duration, Instant};
/// use signal::jitter::NoJitter;
/// use signal::{BitStream, DigitalWaveform};
///
/// let bits = BitStream::from_str_bits("1100");
/// let w = DigitalWaveform::from_bits(&bits, DataRate::from_gbps(2.5), &NoJitter, 0);
/// assert_eq!(w.num_edges(), 1); // one falling edge at 800 ps
/// assert_eq!(w.edges()[0].at, Instant::from_ps(800));
/// assert!(w.initial_level());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalWaveform {
    initial: bool,
    edges: Vec<Edge>,
    start: Instant,
    end: Instant,
}

impl DigitalWaveform {
    /// Builds a waveform from a bit sequence at a serial data rate, starting
    /// at [`Instant::ZERO`], with each edge displaced by `jitter`.
    ///
    /// Bit `i` nominally occupies `[i·UI, (i+1)·UI)`. Jitter displacements
    /// are clamped so edges stay strictly ordered (a physical NRZ line
    /// cannot reorder transitions).
    pub fn from_bits(
        bits: &BitStream,
        rate: DataRate,
        jitter: &dyn JitterModel,
        seed: u64,
    ) -> Self {
        Self::from_bits_at(Instant::ZERO, bits, rate, jitter, seed)
    }

    /// Like [`from_bits`](Self::from_bits) but starting at `start`.
    pub fn from_bits_at(
        start: Instant,
        bits: &BitStream,
        rate: DataRate,
        jitter: &dyn JitterModel,
        seed: u64,
    ) -> Self {
        use crate::jitter::EdgeContext;

        let ui = rate.unit_interval();
        let n = bits.len();
        let initial = bits.get(0).unwrap_or(false);
        let mut edges = Vec::new();
        let mut sampler = jitter.sampler(seed);
        let mut last = start - ui; // lower bound for monotonicity clamping
        let mut edge_index = 0u64;
        for i in 1..n {
            // xlint::allow(panic-reachable, i ranges over 1..bits.len() so both indices are in bounds by construction)
            if bits[i] != bits[i - 1] {
                let ideal = start + ui * i as i64; // xlint::allow(no-lossy-cast, bit index widens into i64 far below the fs overflow point)
                let polarity = if bits[i] { EdgePolarity::Rising } else { EdgePolarity::Falling }; // xlint::allow(panic-reachable, i ranges over 1..bits.len() so the index is in bounds by construction)
                let ctx = EdgeContext {
                    index: edge_index,
                    ideal,
                    polarity,
                    run_length: bits.run_length_before(i),
                };
                let displaced = ideal + sampler.displacement(&ctx);
                // Keep edges strictly ordered and within one UI of ideal.
                let lo = (last + Duration::from_fs(1)).max(ideal - ui / 2);
                let hi = ideal + ui / 2;
                let at = displaced.max(lo).min(hi);
                edges.push(Edge::new(at, polarity));
                last = at;
                edge_index += 1;
            }
        }
        DigitalWaveform { initial, edges, start, end: start + ui * n as i64 } // xlint::allow(no-lossy-cast, bit count widens into i64 far below the fs overflow point)
    }

    /// Builds a waveform directly from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if edges are not strictly increasing in time or do not
    /// alternate polarity consistently with `initial`.
    pub fn from_edges(initial: bool, edges: Vec<Edge>, start: Instant, end: Instant) -> Self {
        let mut level = initial;
        let mut prev: Option<Instant> = None;
        for e in &edges {
            if let Some(p) = prev {
                assert!(e.at > p, "edges must be strictly increasing in time");
            }
            let expect = if level { EdgePolarity::Falling } else { EdgePolarity::Rising };
            assert!(
                e.polarity == expect,
                "edge polarity must alternate (expected {expect} at {})",
                e.at
            );
            level = !level;
            prev = Some(e.at);
        }
        assert!(end >= start, "waveform end must not precede start");
        DigitalWaveform { initial, edges, start, end }
    }

    /// A constant-level waveform with no transitions.
    pub fn constant(level: bool, start: Instant, end: Instant) -> Self {
        Self::from_edges(level, Vec::new(), start, end)
    }

    /// The logic level at `t` (the initial level before the first edge, the
    /// final level after the last).
    fn level_at(&self, t: Instant) -> bool {
        // Number of edges at or before t.
        let n = self.edges.partition_point(|e| e.at <= t);
        self.initial ^ (n % 2 == 1)
    }

    /// The time-ordered edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of transitions.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The level before the first edge.
    #[inline]
    pub fn initial_level(&self) -> bool {
        self.initial
    }

    /// Start of the waveform's validity window.
    #[inline]
    pub fn start(&self) -> Instant {
        self.start
    }

    /// End of the waveform's validity window.
    #[inline]
    pub fn end(&self) -> Instant {
        self.end
    }

    /// Total validity span.
    #[inline]
    pub fn span(&self) -> Duration {
        self.end - self.start
    }

    /// Returns the waveform delayed by `delay` (negative advances it).
    ///
    /// This is exactly what a PECL delay line does to a signal.
    #[must_use]
    pub fn delayed(&self, delay: Duration) -> DigitalWaveform {
        DigitalWaveform {
            initial: self.initial,
            edges: self.edges.iter().map(|e| Edge::new(e.at + delay, e.polarity)).collect(),
            start: self.start + delay,
            end: self.end + delay,
        }
    }

    /// Returns the logical complement (each edge flips polarity) — the other
    /// leg of a differential PECL pair.
    #[must_use]
    pub fn inverted(&self) -> DigitalWaveform {
        DigitalWaveform {
            initial: !self.initial,
            edges: self.edges.iter().map(|e| Edge::new(e.at, e.polarity.inverted())).collect(),
            start: self.start,
            end: self.end,
        }
    }

    /// XOR of two waveforms: output toggles at every input edge.
    ///
    /// The paper's mini-tester uses a PECL XOR as a programmable clock
    /// doubler / phase mixer (Fig. 15); XOR-ing a clock with a delayed copy
    /// of itself yields a double-rate pulse train.
    ///
    /// Simultaneous edges on both inputs (exactly equal instants) cancel.
    #[must_use]
    pub fn xor(&self, other: &DigitalWaveform) -> DigitalWaveform {
        let mut merged: Vec<Instant> = Vec::with_capacity(self.edges.len() + other.edges.len());
        let (mut i, mut j) = (0, 0);
        while i < self.edges.len() || j < other.edges.len() {
            let ta = self.edges.get(i).map(|e| e.at);
            let tb = other.edges.get(j).map(|e| e.at);
            match (ta, tb) {
                (Some(a), Some(b)) if a == b => {
                    // Both inputs toggle together: XOR output unchanged.
                    i += 1;
                    j += 1;
                }
                (Some(a), Some(b)) if a < b => {
                    merged.push(a);
                    i += 1;
                }
                (Some(_), Some(b)) => {
                    merged.push(b);
                    j += 1;
                }
                (Some(a), None) => {
                    merged.push(a);
                    i += 1;
                }
                (None, Some(b)) => {
                    merged.push(b);
                    j += 1;
                }
                (None, None) => break,
            }
        }
        let initial = self.initial ^ other.initial;
        let mut level = initial;
        let edges = merged
            .into_iter()
            .map(|t| {
                level = !level;
                Edge::new(t, if level { EdgePolarity::Rising } else { EdgePolarity::Falling })
            })
            .collect();
        DigitalWaveform {
            initial,
            edges,
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Samples the waveform back into bits: one sample per UI at phase
    /// `sample_offset` into each bit period, starting from the waveform
    /// start.
    ///
    /// This models an ideal retiming receiver; the real sampler with
    /// aperture jitter and threshold offsets lives in the `pecl` crate.
    pub fn to_bits(&self, rate: DataRate, sample_offset: Duration) -> BitStream {
        let ui = rate.unit_interval();
        let n = (self.span() / ui) as usize; // xlint::allow(no-lossy-cast, span/ui is a nonnegative bit count that fits usize)
        BitStream::from_fn(n, |i| self.level_at(self.start + ui * i as i64 + sample_offset))
    }

    /// The edge nearest to instant `t`, if any edges exist.
    pub fn nearest_edge(&self, t: Instant) -> Option<&Edge> {
        if self.edges.is_empty() {
            return None;
        }
        let idx = self.edges.partition_point(|e| e.at < t);
        let candidates = [idx.checked_sub(1), Some(idx)];
        candidates
            .into_iter()
            .flatten()
            .filter_map(|i| self.edges.get(i))
            .min_by_key(|e| (e.at - t).abs())
    }
}

impl fmt::Display for DigitalWaveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DigitalWaveform({} edges, {} .. {}, initial={})",
            self.edges.len(),
            self.start,
            self.end,
            if self.initial { 1 } else { 0 }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::NoJitter;

    fn wave(bits: &str, gbps: f64) -> DigitalWaveform {
        DigitalWaveform::from_bits(
            &BitStream::from_str_bits(bits),
            DataRate::from_gbps(gbps),
            &NoJitter,
            0,
        )
    }

    #[test]
    fn edges_from_bits() {
        let w = wave("1100", 2.5);
        assert_eq!(w.num_edges(), 1);
        assert_eq!(w.edges()[0], Edge::new(Instant::from_ps(800), EdgePolarity::Falling));
        assert!(w.initial_level());
        assert_eq!(w.span(), Duration::from_ps(1600));
    }

    #[test]
    fn alternating_pattern_has_edge_per_bit() {
        let w = wave("10101010", 5.0);
        assert_eq!(w.num_edges(), 7);
        for (i, e) in w.edges().iter().enumerate() {
            assert_eq!(e.at, Instant::from_ps(200 * (i as i64 + 1)));
            let expect = if i % 2 == 0 { EdgePolarity::Falling } else { EdgePolarity::Rising };
            assert_eq!(e.polarity, expect);
        }
    }

    #[test]
    fn level_at_covers_before_and_after() {
        let w = wave("0110", 2.5);
        assert!(!w.level_at(Instant::from_ps(-100)));
        assert!(!w.level_at(Instant::from_ps(100)));
        assert!(w.level_at(Instant::from_ps(500)));
        assert!(w.level_at(Instant::from_ps(1100)));
        assert!(!w.level_at(Instant::from_ps(1300)));
        assert!(!w.level_at(Instant::from_ps(99_999)));
        // Exactly on the edge: new level applies.
        assert!(w.level_at(Instant::from_ps(400)));
    }

    #[test]
    fn delay_and_invert() {
        let w = wave("10", 2.5);
        let d = w.delayed(Duration::from_ps(10));
        assert_eq!(d.edges()[0].at, Instant::from_ps(410));
        assert_eq!(d.start(), Instant::from_ps(10));
        let inv = w.inverted();
        assert!(!inv.initial_level());
        assert_eq!(inv.edges()[0].polarity, EdgePolarity::Rising);
        let back = inv.inverted();
        assert_eq!(back, w);
    }

    #[test]
    fn xor_doubles_a_clock() {
        // XOR of a clock with its quarter-period-delayed copy = 2x clock.
        let clk = wave("10101010", 1.0); // 1 ns per bit
        let delayed = clk.delayed(Duration::from_ps(500));
        let doubled = clk.xor(&delayed);
        // Edges every 500 ps instead of every 1000 ps.
        let times: Vec<i64> = doubled.edges().iter().map(|e| e.at.as_fs() / 1000).collect();
        assert!(times.windows(2).all(|w| w[1] - w[0] == 500));
        assert_eq!(doubled.num_edges(), 14);
    }

    #[test]
    fn xor_with_self_is_constant() {
        let w = wave("1011001", 2.5);
        let x = w.xor(&w);
        assert_eq!(x.num_edges(), 0);
        assert!(!x.initial_level());
    }

    #[test]
    fn to_bits_round_trips() {
        let bits = BitStream::from_str_bits("1011001110001011");
        let rate = DataRate::from_gbps(2.5);
        let w = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let recovered = w.to_bits(rate, Duration::from_ps(200)); // mid-bit sampling
        assert_eq!(recovered, bits);
    }

    #[test]
    fn nearest_edge_and_window() {
        let w = wave("1010", 2.5); // edges at 400, 800, 1200 ps
        assert_eq!(w.nearest_edge(Instant::from_ps(500)).unwrap().at, Instant::from_ps(400));
        assert_eq!(w.nearest_edge(Instant::from_ps(700)).unwrap().at, Instant::from_ps(800));
        assert_eq!(w.nearest_edge(Instant::from_ps(0)).unwrap().at, Instant::from_ps(400));
        assert_eq!(w.nearest_edge(Instant::from_ps(9999)).unwrap().at, Instant::from_ps(1200));
        assert!(wave("11", 2.5).nearest_edge(Instant::ZERO).is_none());
    }

    #[test]
    fn constant_has_no_edges() {
        let w = DigitalWaveform::constant(true, Instant::ZERO, Instant::from_ps(1000));
        assert_eq!(w.num_edges(), 0);
        assert!(w.level_at(Instant::from_ps(500)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unordered_edges_panic() {
        let _ = DigitalWaveform::from_edges(
            false,
            vec![
                Edge::rising(Instant::from_ps(10)),
                Edge::new(Instant::from_ps(10), EdgePolarity::Falling),
            ],
            Instant::ZERO,
            Instant::from_ps(100),
        );
    }

    #[test]
    #[should_panic(expected = "polarity must alternate")]
    fn non_alternating_edges_panic() {
        let _ = DigitalWaveform::from_edges(
            false,
            vec![Edge::rising(Instant::from_ps(10)), Edge::rising(Instant::from_ps(20))],
            Instant::ZERO,
            Instant::from_ps(100),
        );
    }

    #[test]
    fn display_is_informative() {
        let w = wave("10", 2.5);
        let s = w.to_string();
        assert!(s.contains("1 edges"));
        assert!(s.contains("initial=1"));
    }

    #[test]
    fn empty_bitstream_yields_empty_waveform() {
        let w =
            DigitalWaveform::from_bits(&BitStream::new(), DataRate::from_gbps(1.0), &NoJitter, 0);
        assert_eq!(w.num_edges(), 0);
        assert_eq!(w.span(), Duration::ZERO);
    }
}
