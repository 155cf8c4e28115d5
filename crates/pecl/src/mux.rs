//! PECL parallel-to-serial multiplexers.
//!
//! The paper's serializers are trees of commercial PECL muxes: the Optical
//! Test Bed serializes FPGA words into 2.5 Gbps channels, and the
//! mini-tester combines "two groups of eight \[~312 Mbps\] signals … to form
//! two independent data sources at higher speeds (up to 2.5 Gbps). These are
//! then combined in a second-stage multiplexer to obtain double the final
//! signal (up to 5.0 Gbps)" (§4).
//!
//! Bit-level behaviour is exact interleaving; each physical stage also
//! contributes timing impairments (duty-cycle distortion from select-clock
//! asymmetry, a little random jitter) which are accounted in the composite
//! budget carried by [`crate::chain::SignalChain`].

use pstime::Duration;
use signal::BitStream;

use crate::{PeclError, Result};

/// One 2:1 PECL multiplexer stage.
///
/// The final stage runs DDR off the select clock: input A is emitted on the
/// high half-period, input B on the low half-period.
///
/// # Examples
///
/// ```
/// use pecl::Mux2;
/// use signal::BitStream;
///
/// let mux = Mux2::new();
/// let a = BitStream::from_str_bits("1100");
/// let b = BitStream::from_str_bits("1010");
/// let out = mux.serialize(&a, &b)?;
/// assert_eq!(out.to_string(), "11100100");
/// # Ok::<(), pecl::PeclError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mux2 {
    dcd: Duration,
    added_rj: Duration,
    max_rate_gbps: f64,
}

impl Mux2 {
    /// A production-grade PECL 2:1 mux: 4 ps DCD, 0.8 ps added RJ, usable
    /// to ~5 Gbps ("at the upper limit of some of the individual PECL
    /// components", §3).
    pub fn new() -> Self {
        Mux2 { dcd: Duration::from_ps(4), added_rj: Duration::from_ps_f64(0.8), max_rate_gbps: 5.0 }
    }

    /// Customizes the impairments.
    ///
    /// # Panics
    ///
    /// Panics if any impairment is negative or the rate limit is not
    /// positive.
    pub fn with_impairments(dcd: Duration, added_rj: Duration, max_rate_gbps: f64) -> Self {
        assert!(!dcd.is_negative(), "DCD must be nonnegative");
        assert!(!added_rj.is_negative(), "added RJ must be nonnegative");
        assert!(max_rate_gbps > 0.0, "rate limit must be positive");
        Mux2 { dcd, added_rj, max_rate_gbps }
    }

    /// Duty-cycle distortion contributed by this stage.
    pub fn dcd(&self) -> Duration {
        self.dcd
    }

    /// Random jitter added by this stage.
    pub fn added_rj(&self) -> Duration {
        self.added_rj
    }

    /// Maximum output rate.
    pub fn max_rate_gbps(&self) -> f64 {
        self.max_rate_gbps
    }

    /// Interleaves two equal-length lanes (A first).
    ///
    /// # Errors
    ///
    /// [`PeclError::LaneMismatch`] if lengths differ.
    pub fn serialize(&self, a: &BitStream, b: &BitStream) -> Result<BitStream> {
        if a.len() != b.len() {
            return Err(PeclError::LaneMismatch { expected: a.len(), got: b.len() });
        }
        Ok(BitStream::interleave(&[a.clone(), b.clone()]))
    }
}

impl Default for Mux2 {
    fn default() -> Self {
        Mux2::new()
    }
}

/// An N:1 multiplexer tree built from log₂N levels of [`Mux2`] stages.
///
/// `ways` must be a power of two. The mini-tester uses two 8:1 trees and a
/// final 2:1 (16:1 total); the test bed serializes FPGA words with 8:1
/// trees per channel.
///
/// # Examples
///
/// ```
/// use pecl::MuxTree;
/// use signal::BitStream;
///
/// let tree = MuxTree::new(8)?;
/// let lanes: Vec<BitStream> = (0..8).map(|i| BitStream::from_word_msb_first(i as u64 % 2, 4)).collect();
/// let out = tree.serialize(&lanes)?;
/// assert_eq!(out.len(), 32);
/// # Ok::<(), pecl::PeclError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MuxTree {
    ways: usize,
    stage: Mux2,
}

impl MuxTree {
    /// Creates a `ways`:1 tree of default [`Mux2`] stages.
    ///
    /// # Errors
    ///
    /// [`PeclError::LaneMismatch`] if `ways` is not a power of two ≥ 2.
    pub fn new(ways: usize) -> Result<Self> {
        if ways < 2 || !ways.is_power_of_two() {
            return Err(PeclError::LaneMismatch { expected: 2, got: ways });
        }
        Ok(MuxTree { ways, stage: Mux2::new() })
    }

    /// Creates a tree with custom per-stage impairments.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_stage(ways: usize, stage: Mux2) -> Result<Self> {
        let mut tree = MuxTree::new(ways)?;
        tree.stage = stage;
        Ok(tree)
    }

    /// Fan-in of the tree.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of 2:1 levels (`log₂ ways`).
    pub fn levels(&self) -> u32 {
        self.ways.trailing_zeros()
    }

    /// Serializes `ways` equal-length lanes into one stream, lane 0 first.
    ///
    /// # Errors
    ///
    /// [`PeclError::LaneMismatch`] on wrong lane count or unequal lengths.
    pub fn serialize(&self, lanes: &[BitStream]) -> Result<BitStream> {
        if lanes.len() != self.ways {
            return Err(PeclError::LaneMismatch { expected: self.ways, got: lanes.len() });
        }
        let n = lanes[0].len();
        if lanes.iter().any(|l| l.len() != n) {
            return Err(PeclError::LaneMismatch { expected: n, got: 0 });
        }
        // Recursive 2:1 combining over bit-reverse-permuted lanes: a
        // pairwise tree emits lane indices in bit-reversed order, so the
        // physical board wires lane i to tree input bitrev(i) to get
        // sequential (round-robin) output order.
        let bits = self.levels();
        let mut level: Vec<BitStream> = (0..self.ways)
            .map(|i| {
                let j = (i as u32).reverse_bits() >> (32 - bits);
                lanes[j as usize].clone() // xlint::allow(panic-reachable, bit-reversing i < ways within levels() bits permutes 0..ways, and the guard above pins lanes.len() to ways)
            })
            .collect();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / 2);
            for pair in level.chunks(2) {
                // Within a pair, the two lanes alternate bit-by-bit of the
                // *current* level stream.
                next.push(self.stage.serialize(&pair[0], &pair[1])?);
            }
            level = next;
        }
        // xlint::allow(no-panic-in-lib, level starts with self.ways >= 1 streams and halving a nonempty vector never empties it)
        Ok(level.pop().expect("nonempty level"))
    }

    /// Total duty-cycle distortion: only the final stage's select-clock
    /// asymmetry appears at full rate; earlier levels are retimed by the
    /// next stage, contributing a residual quarter each.
    pub fn total_dcd(&self) -> Duration {
        let residual: f64 = (1..self.levels()).map(|l| 0.25f64.powi(l as i32)).sum();
        self.stage.dcd() + self.stage.dcd().mul_f64(residual)
    }

    /// Total added random jitter (stages sum in quadrature).
    pub fn total_added_rj(&self) -> Duration {
        let per_stage = self.stage.added_rj().as_fs() as f64;
        let total = (self.levels() as f64).sqrt() * per_stage;
        Duration::from_fs(total.round() as i64)
    }

    /// Maximum output rate of the tree (the final stage's limit).
    pub fn max_rate_gbps(&self) -> f64 {
        self.stage.max_rate_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mux2_interleaves() {
        let m = Mux2::new();
        let out =
            m.serialize(&BitStream::from_str_bits("10"), &BitStream::from_str_bits("01")).unwrap();
        assert_eq!(out.to_string(), "1001");
        assert!(m.serialize(&BitStream::ones(2), &BitStream::ones(3)).is_err());
        assert_eq!(m.dcd(), Duration::from_ps(4));
        assert_eq!(m.added_rj(), Duration::from_ps_f64(0.8));
        assert!((m.max_rate_gbps() - 5.0).abs() < 1e-12);
        assert_eq!(Mux2::default(), Mux2::new());
    }

    #[test]
    fn tree_matches_round_robin_interleave() {
        // The pairwise-recursive tree must equal flat round-robin
        // interleaving — that's the bit order a synchronous mux tree
        // produces with properly phased divided clocks.
        for ways in [2usize, 4, 8, 16] {
            let tree = MuxTree::new(ways).unwrap();
            let lanes: Vec<BitStream> = (0..ways)
                .map(|i| BitStream::from_fn(8, move |j| (i * 7 + j * 3) % 5 < 2))
                .collect();
            let tree_out = tree.serialize(&lanes).unwrap();
            let flat = BitStream::interleave(&lanes);
            assert_eq!(tree_out, flat, "ways = {ways}");
        }
    }

    #[test]
    fn tree_rejects_bad_configs() {
        assert!(MuxTree::new(3).is_err());
        assert!(MuxTree::new(0).is_err());
        assert!(MuxTree::new(1).is_err());
        let tree = MuxTree::new(4).unwrap();
        assert!(tree.serialize(&vec![BitStream::ones(4); 3]).is_err());
        let uneven =
            vec![BitStream::ones(4), BitStream::ones(4), BitStream::ones(4), BitStream::ones(5)];
        assert!(tree.serialize(&uneven).is_err());
    }

    #[test]
    fn tree_geometry() {
        let t8 = MuxTree::new(8).unwrap();
        assert_eq!(t8.ways(), 8);
        assert_eq!(t8.levels(), 3);
        let t16 = MuxTree::new(16).unwrap();
        assert_eq!(t16.levels(), 4);
    }

    #[test]
    fn impairment_budgets_scale_with_depth() {
        let t2 = MuxTree::new(2).unwrap();
        let t16 = MuxTree::new(16).unwrap();
        // Deeper trees have slightly more DCD and RJ, but far less than
        // linear (retiming absorbs most of it).
        assert!(t16.total_dcd() > t2.total_dcd());
        assert!(t16.total_dcd() < t2.total_dcd() * 2);
        assert!(t16.total_added_rj() > t2.total_added_rj());
        assert!(t16.total_added_rj() < t2.total_added_rj() * 3);
        assert!((t16.max_rate_gbps() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn custom_stage_impairments() {
        let stage = Mux2::with_impairments(Duration::from_ps(10), Duration::from_ps(2), 4.0);
        let tree = MuxTree::with_stage(8, stage).unwrap();
        assert!(tree.total_dcd() >= Duration::from_ps(10));
        assert!((tree.max_rate_gbps() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sixteen_to_one_mini_tester_path() {
        // Two 8:1 groups then a 2:1: must equal a flat 16:1.
        let lanes: Vec<BitStream> =
            (0..16).map(|i| BitStream::from_fn(4, move |j| (i + j) % 3 == 0)).collect();
        let t8 = MuxTree::new(8).unwrap();
        let groups: Vec<BitStream> = lanes.chunks(8).map(|g| t8.serialize(g).unwrap()).collect();
        let final_mux = Mux2::new();
        let two_stage = final_mux.serialize(&groups[0], &groups[1]).unwrap();
        // Two-stage order: group A bit, group B bit, … where each group
        // internally interleaves its 8 lanes. That equals interleaving the
        // lane order [0,8,1,9,2,10,…].
        let reordered: Vec<BitStream> =
            (0..16).map(|i| lanes[if i % 2 == 0 { i / 2 } else { 8 + i / 2 }].clone()).collect();
        assert_eq!(two_stage, BitStream::interleave(&reordered));
    }

    #[test]
    #[should_panic(expected = "DCD must be nonnegative")]
    fn negative_dcd_panics() {
        let _ = Mux2::with_impairments(Duration::from_ps(-1), Duration::ZERO, 5.0);
    }
}
