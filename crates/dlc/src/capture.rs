//! Response capture: the receive half of the DLC fabric.
//!
//! The paper's register map (CONTROL/STATUS, capture window) implies what
//! every tester core has: a capture engine that either **stores** sampled
//! response bits to memory for later upload, or **compares on the fly**
//! against expected data and keeps an error count (the only thing a
//! go/no-go production test needs to read back). Both modes are
//! implemented here, wired to the same capture RAM the USB host reads.

use core::fmt;

use signal::BitStream;

use crate::{DlcError, Result};

/// Capture-engine operating mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureMode {
    /// Store every sampled bit to capture RAM.
    Store,
    /// Compare each sampled bit against this expected stream (looping) and
    /// count errors; only mismatch positions are stored.
    Compare(BitStream),
}

/// The capture engine: mode, RAM, counters.
///
/// # Examples
///
/// ```
/// use dlc::capture::{CaptureEngine, CaptureMode};
/// use signal::BitStream;
///
/// let mut engine = CaptureEngine::new(1_024);
/// engine.arm(CaptureMode::Store)?;
/// engine.push_bits(&BitStream::from_str_bits("10110"));
/// let captured = engine.stop();
/// assert_eq!(captured.bits_seen, 5);
/// assert_eq!(engine.ram(), &BitStream::from_str_bits("10110"));
/// # Ok::<(), dlc::DlcError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureEngine {
    capacity_bits: usize,
    mode: Option<CaptureMode>,
    ram: BitStream,
    mismatch_positions: Vec<u64>,
    bits_seen: u64,
    errors: u64,
    overflowed: bool,
}

/// Summary returned when a capture is stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureSummary {
    /// Bits processed while armed.
    pub bits_seen: u64,
    /// Mismatches counted (compare mode only).
    pub errors: u64,
    /// Whether the capture RAM filled before the capture stopped.
    pub overflowed: bool,
}

impl CaptureSummary {
    /// Error ratio over the capture.
    pub fn error_ratio(&self) -> f64 {
        if self.bits_seen == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits_seen as f64
        }
    }
}

impl fmt::Display for CaptureSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bits, {} errors ({:.2e}){}",
            self.bits_seen,
            self.errors,
            self.error_ratio(),
            if self.overflowed { ", RAM overflow" } else { "" }
        )
    }
}

impl CaptureEngine {
    /// Creates an engine with `capacity_bits` of capture RAM.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_bits: usize) -> Self {
        assert!(capacity_bits > 0, "capture RAM must be nonzero");
        CaptureEngine {
            capacity_bits,
            mode: None,
            ram: BitStream::new(),
            mismatch_positions: Vec::new(),
            bits_seen: 0,
            errors: 0,
            overflowed: false,
        }
    }

    /// Whether a capture is armed.
    pub fn is_armed(&self) -> bool {
        self.mode.is_some()
    }

    /// Arms a capture, clearing previous contents.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if a compare pattern is empty or an
    /// earlier capture is still armed.
    pub fn arm(&mut self, mode: CaptureMode) -> Result<()> {
        if self.is_armed() {
            return Err(DlcError::InvalidBitstream { reason: "capture already armed" });
        }
        if let CaptureMode::Compare(expected) = &mode {
            if expected.is_empty() {
                return Err(DlcError::InvalidBitstream { reason: "empty compare pattern" });
            }
        }
        self.ram = BitStream::new();
        self.mismatch_positions.clear();
        self.bits_seen = 0;
        self.errors = 0;
        self.overflowed = false;
        self.mode = Some(mode);
        Ok(())
    }

    /// Feeds one sampled bit into the armed engine. Bits pushed while
    /// unarmed are ignored (the hardware gate is closed).
    fn push_bit(&mut self, bit: bool) {
        let Some(mode) = &self.mode else { return };
        match mode {
            CaptureMode::Store => {
                if self.ram.len() < self.capacity_bits {
                    self.ram.push(bit);
                } else {
                    self.overflowed = true;
                }
            }
            CaptureMode::Compare(expected) => {
                let idx = (self.bits_seen % expected.len() as u64) as usize;
                if expected[idx] != bit {
                    self.errors += 1;
                    if self.mismatch_positions.len() * 64 < self.capacity_bits {
                        self.mismatch_positions.push(self.bits_seen);
                    } else {
                        self.overflowed = true;
                    }
                }
            }
        }
        self.bits_seen += 1;
    }

    /// Feeds a whole stream.
    pub fn push_bits(&mut self, bits: &BitStream) {
        for b in bits.iter() {
            self.push_bit(b);
        }
    }

    /// Stops the capture and returns the summary; contents remain
    /// readable until the next [`arm`](Self::arm).
    pub fn stop(&mut self) -> CaptureSummary {
        self.mode = None;
        CaptureSummary {
            bits_seen: self.bits_seen,
            errors: self.errors,
            overflowed: self.overflowed,
        }
    }

    /// The stored bits (store mode).
    pub fn ram(&self) -> &BitStream {
        &self.ram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_mode_records_bits() {
        let mut e = CaptureEngine::new(64);
        assert!(!e.is_armed());
        e.arm(CaptureMode::Store).unwrap();
        assert!(e.is_armed());
        e.push_bits(&BitStream::from_str_bits("1100101"));
        let summary = e.stop();
        assert_eq!(summary.bits_seen, 7);
        assert_eq!(summary.errors, 0);
        assert!(!summary.overflowed);
        assert_eq!(e.ram().to_string(), "1100101");
        assert!(!e.is_armed());
    }

    #[test]
    fn unarmed_pushes_are_ignored() {
        let mut e = CaptureEngine::new(64);
        e.push_bit(true);
        e.push_bits(&BitStream::ones(5));
        assert_eq!(e.ram().len(), 0);
        e.arm(CaptureMode::Store).unwrap();
        let s = e.stop();
        assert_eq!(s.bits_seen, 0);
        assert_eq!(s.error_ratio(), 0.0);
    }

    #[test]
    fn store_overflow_flagged() {
        let mut e = CaptureEngine::new(8);
        e.arm(CaptureMode::Store).unwrap();
        e.push_bits(&BitStream::alternating(12));
        let s = e.stop();
        assert!(s.overflowed);
        assert_eq!(e.ram().len(), 8);
        assert_eq!(s.bits_seen, 12);
    }

    #[test]
    fn compare_mode_counts_errors() {
        let expected = BitStream::from_str_bits("1010");
        let mut e = CaptureEngine::new(256);
        e.arm(CaptureMode::Compare(expected)).unwrap();
        // Two clean loops then two corrupted bits.
        e.push_bits(&BitStream::from_str_bits("1010_1010_1110"));
        let s = e.stop();
        assert_eq!(s.bits_seen, 12);
        assert_eq!(s.errors, 1); // position 9: expected 0, got 1
        assert!(s.to_string().contains("1 errors"));
    }

    #[test]
    fn compare_pattern_loops() {
        let mut e = CaptureEngine::new(256);
        e.arm(CaptureMode::Compare(BitStream::from_str_bits("10"))).unwrap();
        e.push_bits(&BitStream::from_str_bits("10101010"));
        assert_eq!(e.stop().errors, 0);
    }

    #[test]
    fn rearm_clears_state() {
        let mut e = CaptureEngine::new(16);
        e.arm(CaptureMode::Store).unwrap();
        e.push_bits(&BitStream::ones(4));
        e.stop();
        e.arm(CaptureMode::Store).unwrap();
        e.push_bits(&BitStream::zeros(2));
        let s = e.stop();
        assert_eq!(s.bits_seen, 2);
        assert_eq!(e.ram().to_string(), "00");
    }

    #[test]
    fn double_arm_rejected() {
        let mut e = CaptureEngine::new(16);
        e.arm(CaptureMode::Store).unwrap();
        assert!(matches!(
            e.arm(CaptureMode::Store),
            Err(DlcError::InvalidBitstream { reason: "capture already armed" })
        ));
    }

    #[test]
    fn empty_compare_rejected() {
        let mut e = CaptureEngine::new(16);
        assert!(e.arm(CaptureMode::Compare(BitStream::new())).is_err());
    }

    #[test]
    #[should_panic(expected = "capture RAM must be nonzero")]
    fn zero_capacity_panics() {
        let _ = CaptureEngine::new(0);
    }
}
