//! Machine-speed calibration.
//!
//! The shared machine the benchmark runs on changes speed by tens of
//! percent over minutes, and every time a run measures changes with it,
//! CPU time per job as much as wall time. So a run also times a fixed
//! loop of the benchmark's own between set-ups and between the segments
//! of its timed phase, when no request is in flight, and gives its times
//! in *reference seconds*: measured seconds divided by how much slower
//! than [`REFERENCE_BURST_S`] that loop ran. A change of machine speed
//! slows the loop and the program alike and cancels out. No change to
//! the program can move the loop, so a faster program shows in full.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::measure;

/// `f64` cells the loop walks: 512 KiB, the size of a large result, so
/// it leans on the caches as the program does.
const CELLS: usize = 1 << 16;
/// Steps in one burst.
const STEPS: u64 = 6_000_000;
/// A burst's wall time at the reference speed, about its median on a
/// 2-vCPU x86-64 Linux VM.
pub const REFERENCE_BURST_S: f64 = 0.020;

/// The bursts a run timed, and the cells they walk.
#[derive(Debug)]
pub struct Calibration {
    cells: Vec<f64>,
    bursts: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { cells: vec![1.0; CELLS], bursts: Vec::new() }
    }
}

impl Calibration {
    /// Times one burst on the calling thread: a pseudo-random walk over
    /// the cells that mixes integer, floating-point and memory work.
    /// Returns its wall time.
    pub fn burst(&mut self) -> Duration {
        let start = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
        let mut acc = 0.0;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (CELLS - 1);
            let v = self.cells[i] * 0.999_999 + (x >> 40) as f64 * 1e-12;
            self.cells[i] = v;
            acc += v.sqrt();
        }
        black_box(acc);
        let took = start.elapsed();
        self.bursts.push(took.as_secs_f64());
        took
    }

    /// How much slower than the reference the machine ran: the mean of
    /// the middle half of the bursts over [`REFERENCE_BURST_S`]. A time
    /// divided by it, or a rate multiplied by it, is in reference seconds.
    /// The mean of the middle half repeated better from run to run than
    /// the median or any single quantile of the bursts.
    pub fn slowdown(&self) -> f64 {
        measure::interquartile_mean(&self.bursts) / REFERENCE_BURST_S
    }

    /// Bursts timed so far.
    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }

    /// Quantile `q` of the burst times, in milliseconds.
    pub fn burst_ms(&self, q: f64) -> f64 {
        measure::quantile(&self.bursts, q) * 1e3
    }
}
