//! Logical bit sequences.

use core::fmt;
use core::ops::Index;

/// A logical bit sequence, the unit of exchange between pattern generators
/// (DLC state machines, LFSRs, SRAM pattern memory) and serializers.
///
/// `BitStream` is deliberately simple — a growable vector of bits with the
/// constructors test programs actually need (clock patterns, walking ones,
/// word packing) and the counting queries the analysis layer needs
/// (transition density, run lengths).
///
/// # Examples
///
/// ```
/// use signal::BitStream;
///
/// let clk = BitStream::alternating(8);
/// assert_eq!(clk.to_string(), "10101010");
/// assert_eq!(clk.transition_count(), 7);
///
/// let word = BitStream::from_word_msb_first(0xA5, 8);
/// assert_eq!(word.to_string(), "10100101");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BitStream {
    bits: Vec<bool>,
}

impl BitStream {
    /// Creates an empty stream.
    #[inline]
    pub fn new() -> Self {
        BitStream { bits: Vec::new() }
    }

    /// Creates an empty stream with reserved capacity.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        BitStream { bits: Vec::with_capacity(capacity) }
    }

    /// Creates a stream of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        BitStream { bits: vec![false; len] }
    }

    /// Creates a stream of `len` ones.
    pub fn ones(len: usize) -> Self {
        BitStream { bits: vec![true; len] }
    }

    /// Creates a `1010…` clock-like pattern of `len` bits starting with 1.
    ///
    /// This is the highest-transition-density pattern — the paper uses it
    /// for the serialized clock channel and for worst-case switching tests.
    pub fn alternating(len: usize) -> Self {
        BitStream { bits: (0..len).map(|i| i % 2 == 0).collect() }
    }

    /// Creates a stream from a slice of bools.
    pub fn from_bits(bits: &[bool]) -> Self {
        BitStream { bits: bits.to_vec() }
    }

    /// Creates a stream from ASCII `'0'`/`'1'` characters, ignoring spaces
    /// and underscores.
    ///
    /// # Panics
    ///
    /// Panics if the string contains any other character.
    pub fn from_str_bits(s: &str) -> Self {
        BitStream {
            bits: s
                .chars()
                .filter(|c| *c != ' ' && *c != '_')
                .map(|c| match c {
                    '0' => false,
                    '1' => true,
                    // xlint::allow(no-panic-in-lib, from_str_bits is a literal builder with a documented panic contract; malformed literals are programmer error not runtime input)
                    other => panic!("invalid bit character {other:?}"),
                })
                .collect(),
        }
    }

    /// Packs the low `width` bits of `word`, most-significant bit first —
    /// the transmission order of the paper's parallel-to-serial PECL muxes.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds 64.
    pub fn from_word_msb_first(word: u64, width: u32) -> Self {
        assert!(width <= 64, "word width exceeds 64 bits");
        BitStream { bits: (0..width).rev().map(|i| (word >> i) & 1 == 1).collect() }
    }

    /// Generates a stream by calling `f(index)` for each bit.
    pub fn from_fn(len: usize, f: impl FnMut(usize) -> bool) -> Self {
        BitStream { bits: (0..len).map(f).collect() }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the stream holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `index`, or `None` past the end.
    #[inline]
    pub fn get(&self, index: usize) -> Option<bool> {
        self.bits.get(index).copied()
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends all bits of `other`.
    pub fn append(&mut self, other: &BitStream) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Returns the concatenation of `self` and `other`.
    #[must_use]
    pub fn concat(&self, other: &BitStream) -> BitStream {
        let mut out = self.clone();
        out.append(other);
        out
    }

    /// Returns this stream repeated `times` times.
    #[must_use]
    pub fn repeat(&self, times: usize) -> BitStream {
        let mut bits = Vec::with_capacity(self.bits.len() * times);
        for _ in 0..times {
            bits.extend_from_slice(&self.bits);
        }
        BitStream { bits }
    }

    /// Returns the bitwise complement.
    #[must_use]
    pub fn inverted(&self) -> BitStream {
        BitStream { bits: self.bits.iter().map(|b| !b).collect() }
    }

    /// Borrows the underlying bits.
    #[inline]
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Iterates over bits by value.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// Number of `0 → 1` or `1 → 0` transitions between adjacent bits.
    pub fn transition_count(&self) -> usize {
        self.bits.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Fraction of adjacent bit pairs that differ (`0.0` for DC,
    /// `1.0` for a clock pattern).
    pub fn transition_density(&self) -> f64 {
        if self.bits.len() < 2 {
            return 0.0;
        }
        self.transition_count() as f64 / (self.bits.len() - 1) as f64
    }

    /// Number of ones.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
    }

    /// Length of the run of identical bits ending **just before** `index`
    /// (0 when `index` is 0). Used by data-dependent-jitter models, which
    /// displace an edge according to how long the line sat at the previous
    /// level.
    pub fn run_length_before(&self, index: usize) -> usize {
        if index == 0 || index > self.bits.len() {
            return 0;
        }
        let level = self.bits[index - 1];
        let mut run = 0;
        for i in (0..index).rev() {
            if self.bits[i] == level {
                run += 1;
            } else {
                break;
            }
        }
        run
    }

    /// The longest run of identical bits anywhere in the stream.
    pub fn max_run_length(&self) -> usize {
        let mut best = 0;
        let mut run = 0;
        let mut prev: Option<bool> = None;
        for &b in &self.bits {
            if Some(b) == prev {
                run += 1;
            } else {
                run = 1;
                prev = Some(b);
            }
            best = best.max(run);
        }
        best
    }

    /// Unpacks bits `offset..offset+width` (MSB first) back into a word.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `width > 64`.
    pub fn word_msb_first(&self, offset: usize, width: u32) -> u64 {
        assert!(width <= 64, "word width exceeds 64 bits");
        assert!(offset + width as usize <= self.bits.len(), "word range out of bounds");
        let mut word = 0u64;
        for i in 0..width as usize {
            word = (word << 1) | u64::from(self.bits[offset + i]);
        }
        word
    }

    /// Interleaves `lanes` round-robin, lane 0 first — exactly what an N:1
    /// multiplexer does to N parallel inputs.
    ///
    /// All lanes must be the same length.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or lengths differ.
    pub fn interleave(lanes: &[BitStream]) -> BitStream {
        assert!(!lanes.is_empty(), "interleave requires at least one lane");
        let n = lanes[0].len();
        assert!(lanes.iter().all(|l| l.len() == n), "interleave requires equal-length lanes");
        let mut bits = Vec::with_capacity(n * lanes.len());
        for i in 0..n {
            for lane in lanes {
                bits.push(lane.bits[i]);
            }
        }
        BitStream { bits }
    }

    /// Splits into `lanes` round-robin streams (inverse of
    /// [`interleave`](Self::interleave)).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn deinterleave(&self, lanes: usize) -> Vec<BitStream> {
        assert!(lanes > 0, "deinterleave requires at least one lane");
        let mut out = vec![BitStream::with_capacity(self.len() / lanes + 1); lanes];
        for (i, &b) in self.bits.iter().enumerate() {
            out[i % lanes].push(b);
        }
        out
    }

    /// Counts positions where `self` and `other` disagree, comparing up to
    /// the shorter length; returns `(errors, compared)`.
    pub fn hamming_distance(&self, other: &BitStream) -> (usize, usize) {
        let n = self.len().min(other.len());
        let errors = (0..n).filter(|&i| self.bits[i] != other.bits[i]).count();
        (errors, n)
    }

    /// Finds the cyclic shift of `other` that best matches `self` (fewest
    /// errors), searching shifts `0..max_shift`. Returns `(shift, errors)`.
    ///
    /// Receivers use this to word-align a deserialized stream before
    /// comparing against the expected pattern.
    pub fn best_alignment(&self, other: &BitStream, max_shift: usize) -> (usize, usize) {
        let mut best = (0, usize::MAX);
        for shift in 0..max_shift.max(1) {
            let mut errors = 0;
            let n = self.len().min(other.len().saturating_sub(shift));
            for i in 0..n {
                if self.bits[i] != other.bits[i + shift] {
                    errors += 1;
                }
            }
            if errors < best.1 {
                best = (shift, errors);
            }
        }
        best
    }
}

impl Index<usize> for BitStream {
    type Output = bool;
    #[inline]
    fn index(&self, index: usize) -> &bool {
        &self.bits[index]
    }
}

impl FromIterator<bool> for BitStream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitStream { bits: iter.into_iter().collect() }
    }
}

impl Extend<bool> for BitStream {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        self.bits.extend(iter);
    }
}

impl From<Vec<bool>> for BitStream {
    fn from(bits: Vec<bool>) -> Self {
        BitStream { bits }
    }
}

impl IntoIterator for BitStream {
    type Item = bool;
    type IntoIter = std::vec::IntoIter<bool>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.into_iter()
    }
}

impl<'a> IntoIterator for &'a BitStream {
    type Item = bool;
    type IntoIter = core::iter::Copied<core::slice::Iter<'a, bool>>;
    fn into_iter(self) -> Self::IntoIter {
        self.bits.iter().copied()
    }
}

impl fmt::Display for BitStream {
    /// Renders as a `01`-string (truncated with `…` beyond 256 bits).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const LIMIT: usize = 256;
        for &b in self.bits.iter().take(LIMIT) {
            f.write_str(if b { "1" } else { "0" })?;
        }
        if self.bits.len() > LIMIT {
            write!(f, "… ({} bits)", self.bits.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(BitStream::zeros(3).to_string(), "000");
        assert_eq!(BitStream::ones(3).to_string(), "111");
        assert_eq!(BitStream::alternating(5).to_string(), "10101");
        assert_eq!(BitStream::from_bits(&[true, false]).to_string(), "10");
        assert_eq!(BitStream::from_str_bits("10_1 1").to_string(), "1011");
        assert_eq!(BitStream::from_fn(4, |i| i >= 2).to_string(), "0011");
        assert!(BitStream::new().is_empty());
        assert_eq!(BitStream::with_capacity(10).len(), 0);
    }

    #[test]
    fn word_packing_round_trips() {
        let s = BitStream::from_word_msb_first(0xA5, 8);
        assert_eq!(s.to_string(), "10100101");
        assert_eq!(s.word_msb_first(0, 8), 0xA5);
    }

    #[test]
    fn transitions_and_runs() {
        let s = BitStream::from_str_bits("11101000");
        assert_eq!(s.transition_count(), 3);
        assert_eq!(s.count_ones(), 4);
        assert_eq!(s.max_run_length(), 3);
        assert!((BitStream::alternating(100).transition_density() - 1.0).abs() < 1e-12);
        assert_eq!(BitStream::ones(5).transition_density(), 0.0);
        assert_eq!(BitStream::new().transition_density(), 0.0);
    }

    #[test]
    fn run_length_before_edges() {
        let s = BitStream::from_str_bits("11101");
        assert_eq!(s.run_length_before(0), 0);
        assert_eq!(s.run_length_before(3), 3); // three 1s before index 3
        assert_eq!(s.run_length_before(4), 1); // one 0 before index 4
        assert_eq!(s.run_length_before(99), 0);
    }

    #[test]
    fn interleave_is_mux_order() {
        // Two lanes A=1100, B=1010 -> 2:1 mux output ABABABAB.
        let a = BitStream::from_str_bits("1100");
        let b = BitStream::from_str_bits("1010");
        let muxed = BitStream::interleave(&[a.clone(), b.clone()]);
        assert_eq!(muxed.to_string(), "11100100");
        let lanes = muxed.deinterleave(2);
        assert_eq!(lanes[0], a);
        assert_eq!(lanes[1], b);
    }

    #[test]
    fn sixteen_to_one_mux_composition() {
        // The mini-tester path: 16 lanes of 4 bits each -> 64-bit serial.
        let lanes: Vec<BitStream> =
            (0..16).map(|i| BitStream::from_word_msb_first(i as u64 % 2, 4)).collect();
        let serial = BitStream::interleave(&lanes);
        assert_eq!(serial.len(), 64);
        assert_eq!(serial.deinterleave(16), lanes);
    }

    #[test]
    fn editing() {
        let mut s = BitStream::new();
        s.push(true);
        s.extend([false, true]);
        assert_eq!(s.to_string(), "101");
        s.append(&BitStream::from_str_bits("00"));
        assert_eq!(s.to_string(), "10100");
        assert_eq!(s.concat(&BitStream::ones(1)).to_string(), "101001");
        assert_eq!(BitStream::from_str_bits("10").repeat(3).to_string(), "101010");
        assert_eq!(s.inverted().to_string(), "01011");
    }

    #[test]
    fn indexing_and_iteration() {
        let s = BitStream::from_str_bits("101");
        assert!(s[0]);
        assert!(!s[1]);
        assert_eq!(s.get(5), None);
        assert_eq!(s.iter().filter(|b| *b).count(), 2);
        let collected: BitStream = s.iter().collect();
        assert_eq!(collected, s);
        let v: Vec<bool> = (&s).into_iter().collect();
        assert_eq!(v, vec![true, false, true]);
        let v2: Vec<bool> = s.clone().into_iter().collect();
        assert_eq!(v2, v);
        assert_eq!(s.as_slice().len(), 3);
        let from_vec = BitStream::from(vec![true]);
        assert_eq!(from_vec.len(), 1);
    }

    #[test]
    fn error_counting_and_alignment() {
        let tx = BitStream::from_str_bits("10110010");
        let rx = BitStream::from_str_bits("10100010");
        assert_eq!(tx.hamming_distance(&rx), (1, 8));

        // rx delayed by 2 bits: alignment should find shift 2 with 0 errors.
        let delayed = BitStream::from_str_bits("xx".replace("x", "0").as_str()).concat(&tx);
        let (shift, errors) = tx.best_alignment(&delayed, 4);
        assert_eq!(shift, 2);
        assert_eq!(errors, 0);
    }

    #[test]
    fn display_truncation() {
        let s = BitStream::zeros(300);
        let txt = s.to_string();
        assert!(txt.contains("(300 bits)"));
    }

    #[test]
    #[should_panic(expected = "invalid bit character")]
    fn bad_bit_char_panics() {
        let _ = BitStream::from_str_bits("10x");
    }

    #[test]
    #[should_panic(expected = "equal-length lanes")]
    fn unequal_interleave_panics() {
        let _ = BitStream::interleave(&[BitStream::ones(2), BitStream::ones(3)]);
    }
}
