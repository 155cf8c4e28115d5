//! Linear-feedback shift registers and PRBS generation.
//!
//! The paper's eye diagrams (Figs. 7–8) are driven by "a pseudo-random bit
//! pattern produced by an LFSR in the DLC". This module implements the
//! standard ITU-T PRBS polynomials as Fibonacci LFSRs, exactly as they fit
//! in FPGA fabric.

use signal::BitStream;

/// The standard PRBS polynomials (ITU-T O.150 family).
///
/// Each variant names the sequence length: PRBS-7 repeats every 2⁷−1 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrbsPolynomial {
    /// x⁷ + x⁶ + 1 (period 127).
    Prbs7,
    /// x⁹ + x⁵ + 1 (period 511).
    Prbs9,
    /// x¹¹ + x⁹ + 1 (period 2047).
    Prbs11,
    /// x¹⁵ + x¹⁴ + 1 (period 32767) — the workhorse for serial-link tests.
    Prbs15,
    /// x²³ + x¹⁸ + 1 (period 8388607).
    Prbs23,
    /// x³¹ + x²⁸ + 1 (period 2³¹−1).
    Prbs31,
}

impl PrbsPolynomial {
    /// Register length in bits.
    pub const fn order(self) -> u32 {
        match self {
            PrbsPolynomial::Prbs7 => 7,
            PrbsPolynomial::Prbs9 => 9,
            PrbsPolynomial::Prbs11 => 11,
            PrbsPolynomial::Prbs15 => 15,
            PrbsPolynomial::Prbs23 => 23,
            PrbsPolynomial::Prbs31 => 31,
        }
    }

    /// The two feedback tap positions `(a, b)` such that the next bit is
    /// `reg[a-1] ^ reg[b-1]` (1-indexed from the newest bit).
    const fn taps(self) -> (u32, u32) {
        match self {
            PrbsPolynomial::Prbs7 => (7, 6),
            PrbsPolynomial::Prbs9 => (9, 5),
            PrbsPolynomial::Prbs11 => (11, 9),
            PrbsPolynomial::Prbs15 => (15, 14),
            PrbsPolynomial::Prbs23 => (23, 18),
            PrbsPolynomial::Prbs31 => (31, 28),
        }
    }

    /// Sequence period, `2^order − 1`.
    pub const fn period(self) -> u64 {
        (1u64 << self.order()) - 1
    }
}

/// A Fibonacci LFSR over one of the standard PRBS polynomials.
///
/// # Examples
///
/// ```
/// use dlc::{Lfsr, PrbsPolynomial};
///
/// let mut lfsr = Lfsr::new(PrbsPolynomial::Prbs7, 0x7F);
/// let first: Vec<bool> = (0..7).map(|_| lfsr.next_bit()).collect();
/// assert_eq!(first, [true; 7]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    poly: PrbsPolynomial,
    state: u32,
}

impl Lfsr {
    /// Creates an LFSR with the given polynomial and seed.
    ///
    /// A zero seed is the lock-up state of a Fibonacci LFSR, so it is
    /// silently mapped to the all-ones state (what real hardware does with
    /// a seed-protect gate).
    pub fn new(poly: PrbsPolynomial, seed: u32) -> Self {
        let mask = ((1u64 << poly.order()) - 1) as u32;
        let state = seed & mask;
        Lfsr { poly, state: if state == 0 { mask } else { state } }
    }

    /// The current register contents.
    pub fn state(&self) -> u32 {
        self.state
    }

    /// Advances one cycle and returns the output bit (the bit shifted out).
    pub fn next_bit(&mut self) -> bool {
        let (a, b) = self.poly.taps();
        let n = self.poly.order();
        let out = self.state & 1 == 1;
        let fb = ((self.state >> (n - a)) ^ (self.state >> (n - b))) & 1;
        self.state = (self.state >> 1) | (fb << (n - 1));
        out
    }

    /// Generates the next `n` bits as a [`BitStream`].
    pub fn generate(&mut self, n: usize) -> BitStream {
        BitStream::from_fn(n, |_| self.next_bit())
    }
}

impl Iterator for Lfsr {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Steps a copy of `lfsr` until its register returns to the start
    /// state and reports the cycle length.
    fn cycle_length(lfsr: &Lfsr) -> u64 {
        let mut probe = lfsr.clone();
        let limit = 2u64 << lfsr.poly.order();
        (1..=limit)
            .find(|_| {
                probe.next_bit();
                probe.state == lfsr.state
            })
            .expect("a primitive polynomial recurs within 2^order steps")
    }

    #[test]
    fn all_polynomials_are_maximal_length() {
        // Maximal-length check is cheap for the short ones.
        for poly in [
            PrbsPolynomial::Prbs7,
            PrbsPolynomial::Prbs9,
            PrbsPolynomial::Prbs11,
            PrbsPolynomial::Prbs15,
        ] {
            let lfsr = Lfsr::new(poly, 1);
            assert_eq!(cycle_length(&lfsr), poly.period(), "{poly:?}");
        }
    }

    #[test]
    fn period_constants() {
        assert_eq!(PrbsPolynomial::Prbs7.period(), 127);
        assert_eq!(PrbsPolynomial::Prbs15.period(), 32767);
        assert_eq!(PrbsPolynomial::Prbs23.period(), 8_388_607);
        assert_eq!(PrbsPolynomial::Prbs31.period(), 2_147_483_647);
        assert_eq!(PrbsPolynomial::Prbs31.order(), 31);
        assert_eq!(PrbsPolynomial::Prbs23.taps(), (23, 18));
        assert_eq!(PrbsPolynomial::Prbs9.order(), 9);
        assert_eq!(PrbsPolynomial::Prbs11.taps(), (11, 9));
    }

    #[test]
    fn zero_seed_is_rescued() {
        let lfsr = Lfsr::new(PrbsPolynomial::Prbs7, 0);
        assert_ne!(lfsr.state(), 0);
        // And it still runs the full cycle.
        assert_eq!(cycle_length(&lfsr), 127);
    }

    #[test]
    fn balanced_ones_and_zeros() {
        // A maximal-length sequence has 2^(n-1) ones and 2^(n-1)-1 zeros.
        let mut lfsr = Lfsr::new(PrbsPolynomial::Prbs7, 0x55);
        let bits = lfsr.generate(127);
        assert_eq!(bits.count_ones(), 64);
    }

    #[test]
    fn max_run_length_matches_theory() {
        // PRBS-n contains a run of n ones and a run of n-1 zeros.
        let mut lfsr = Lfsr::new(PrbsPolynomial::Prbs7, 1);
        let bits = lfsr.generate(127 * 2);
        assert_eq!(bits.max_run_length(), 7);
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<bool> = Lfsr::new(PrbsPolynomial::Prbs15, 0xACE).take(64).collect();
        let b: Vec<bool> = Lfsr::new(PrbsPolynomial::Prbs15, 0xACE).take(64).collect();
        let c: Vec<bool> = Lfsr::new(PrbsPolynomial::Prbs15, 0xACD).take(64).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seed_is_masked_to_order() {
        let lfsr = Lfsr::new(PrbsPolynomial::Prbs7, 0xFFFF_FFFF);
        assert_eq!(lfsr.state(), 0x7F);
    }

    #[test]
    fn generate_matches_iterator() {
        let mut gen = Lfsr::new(PrbsPolynomial::Prbs9, 3);
        let stream = gen.generate(32);
        let iter: Vec<bool> = Lfsr::new(PrbsPolynomial::Prbs9, 3).take(32).collect();
        assert_eq!(stream.as_slice(), &iter[..]);
    }

    #[test]
    fn spectral_flatness_rough_check() {
        // PRBS-15 should look "random": transition density ~0.5.
        let mut lfsr = Lfsr::new(PrbsPolynomial::Prbs15, 0x1234);
        let bits = lfsr.generate(32_767);
        let d = bits.transition_density();
        assert!((d - 0.5).abs() < 0.01, "transition density {d}");
    }
}
