//! Oscilloscope-style scalar measurements on analog waveforms.
//!
//! These functions reproduce the measurements the paper reports from its
//! sampling oscilloscope: 20–80 % transition times (Figs. 6 and 18),
//! single-edge jitter histograms (Fig. 9), and programmed-level checks
//! (Figs. 10–11).

use pstime::{DataRate, Duration, Instant};

use crate::analog::AnalogWaveform;
use crate::digital::EdgePolarity;
use crate::stats::{Histogram, RunningStats};
use crate::{Result, SignalError};

/// A measured transition: its polarity, threshold-crossing instant, and
/// 20–80 % transition time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionMeasurement {
    /// Transition direction.
    pub polarity: EdgePolarity,
    /// The instant the signal crosses the mid level.
    pub mid_crossing: Instant,
    /// Time between the 20 % and 80 % amplitude points.
    pub t_2080: Duration,
}

/// Measures the transition around the `edge_index`-th digital edge of
/// `wave`: mid-level crossing time and 20–80 % transition time.
///
/// # Errors
///
/// Returns an error if the edge index is out of range or the amplitude
/// thresholds are not crossed within half a UI of the edge (severe ISI).
pub fn measure_transition(
    wave: &AnalogWaveform,
    edge_index: usize,
    rate: DataRate,
) -> Result<TransitionMeasurement> {
    let edges = wave.digital().edges();
    let edge = edges.get(edge_index).ok_or(SignalError::InsufficientTransitions {
        found: edges.len(),
        required: edge_index + 1,
    })?;
    let ui = rate.unit_interval();
    let lo = edge.at - ui / 2;
    let hi = edge.at + ui / 2;

    let levels = wave.levels();
    let swing = levels.swing().as_f64();
    let v20 = levels.vol().as_f64() + 0.2 * swing;
    let v80 = levels.vol().as_f64() + 0.8 * swing;
    let mid = levels.mid().as_f64();

    let mid_crossing = wave.find_crossing(mid, lo, hi)?;
    let (t_first, t_second) = match edge.polarity {
        EdgePolarity::Rising => {
            (wave.find_crossing(v20, lo, mid_crossing)?, wave.find_crossing(v80, mid_crossing, hi)?)
        }
        EdgePolarity::Falling => {
            (wave.find_crossing(v80, lo, mid_crossing)?, wave.find_crossing(v20, mid_crossing, hi)?)
        }
    };
    Ok(TransitionMeasurement { polarity: edge.polarity, mid_crossing, t_2080: t_second - t_first })
}

/// Measures the 20–80 % transition time of every edge and returns the
/// per-polarity statistics `(rise, fall)` in picoseconds.
///
/// # Errors
///
/// Returns an error if no transitions are measurable.
pub fn transition_time_stats(
    wave: &AnalogWaveform,
    rate: DataRate,
) -> Result<(RunningStats, RunningStats)> {
    let mut rise = RunningStats::new();
    let mut fall = RunningStats::new();
    for i in 0..wave.digital().num_edges() {
        if let Ok(m) = measure_transition(wave, i, rate) {
            match m.polarity {
                EdgePolarity::Rising => rise.push(m.t_2080.as_ps_f64()),
                EdgePolarity::Falling => fall.push(m.t_2080.as_ps_f64()),
            }
        }
    }
    if rise.count() + fall.count() == 0 {
        return Err(SignalError::InsufficientTransitions { found: 0, required: 1 });
    }
    Ok((rise, fall))
}

/// Measured settled logic levels: mean VOH and VOL sampled at bit centers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelMeasurement {
    /// Mean settled high level (mV).
    pub voh_mv: f64,
    /// Mean settled low level (mV).
    pub vol_mv: f64,
    /// Number of high samples.
    pub high_samples: usize,
    /// Number of low samples.
    pub low_samples: usize,
}

impl LevelMeasurement {
    /// Measured swing (mV).
    pub fn swing_mv(&self) -> f64 {
        self.voh_mv - self.vol_mv
    }

    /// Measured midpoint (mV).
    pub fn mid_mv(&self) -> f64 {
        (self.voh_mv + self.vol_mv) / 2.0
    }
}

/// Samples every bit center and reports the mean settled high and low
/// levels — the measurement behind the paper's Figs. 10–11 level sweeps.
///
/// # Errors
///
/// Returns an error if the waveform never visits one of the levels.
pub fn measure_levels(wave: &AnalogWaveform, rate: DataRate) -> Result<LevelMeasurement> {
    let ui = rate.unit_interval();
    let digital = wave.digital();
    let n = (digital.span() / ui) as usize;
    if n == 0 {
        return Err(SignalError::EmptyWaveform { context: "measuring levels" });
    }
    let threshold = wave.levels().mid().as_f64();
    let mut high = RunningStats::new();
    let mut low = RunningStats::new();
    let mut cursor = wave.cursor();
    for i in 0..n {
        let t = digital.start() + ui * i as i64 + ui / 2;
        let v = cursor.value_at(t);
        if v >= threshold {
            high.push(v);
        } else {
            low.push(v);
        }
    }
    if high.count() == 0 || low.count() == 0 {
        return Err(SignalError::InsufficientTransitions { found: 0, required: 1 });
    }
    Ok(LevelMeasurement {
        voh_mv: high.mean(),
        vol_mv: low.mean(),
        high_samples: high.count() as usize,
        low_samples: low.count() as usize,
    })
}

/// Result of a repeated-acquisition single-edge jitter measurement
/// (the paper's Fig. 9: 24 ps p-p, 3.2 ps rms on one falling edge).
#[derive(Debug, Clone)]
pub struct EdgeJitterMeasurement {
    /// Crossing-time statistics (picoseconds, relative to the mean).
    pub stats: RunningStats,
    /// Histogram of crossing times (picoseconds, relative to the mean).
    pub histogram: Histogram,
}

impl EdgeJitterMeasurement {
    /// Peak-to-peak jitter.
    pub fn peak_to_peak(&self) -> Duration {
        Duration::from_ps_f64(self.stats.peak_to_peak())
    }

    /// rms jitter.
    pub fn rms(&self) -> Duration {
        Duration::from_ps_f64(self.stats.std_dev())
    }
}

/// Accumulates repeated acquisitions of the *same* edge into a jitter
/// histogram, the way a sampling scope in infinite-persistence mode does.
///
/// `acquisitions` yields the measured mid-crossing instant of the edge on
/// each repetition (each from a freshly seeded waveform realization).
///
/// # Errors
///
/// Returns an error if fewer than two acquisitions are provided.
pub fn edge_jitter_from_acquisitions(
    acquisitions: impl IntoIterator<Item = Instant>,
    hist_bins: usize,
) -> Result<EdgeJitterMeasurement> {
    let times: Vec<Instant> = acquisitions.into_iter().collect();
    if times.len() < 2 {
        return Err(SignalError::InsufficientTransitions { found: times.len(), required: 2 });
    }
    let mut stats = RunningStats::new();
    let mean_fs = times.iter().map(|t| t.as_fs() as f64).sum::<f64>() / times.len() as f64;
    for t in &times {
        stats.push((t.as_fs() as f64 - mean_fs) / 1_000.0);
    }
    let spread = stats.peak_to_peak().max(1e-3);
    let mut histogram =
        Histogram::new(stats.min() - 0.05 * spread, stats.max() + 0.05 * spread, hist_bins.max(1));
    for t in &times {
        histogram.push((t.as_fs() as f64 - mean_fs) / 1_000.0);
    }
    Ok(EdgeJitterMeasurement { stats, histogram })
}

/// Measures skew between two waveforms: the difference between the
/// mid-level crossing of each waveform's edge nearest to `near`.
///
/// Used by channel-deskew calibration to verify the ±25 ps alignment claim.
///
/// # Errors
///
/// Returns an error if either waveform has no edge near `near` (within one
/// UI) or crossings cannot be bracketed.
pub fn measure_skew(
    a: &AnalogWaveform,
    b: &AnalogWaveform,
    near: Instant,
    rate: DataRate,
) -> Result<Duration> {
    let ui = rate.unit_interval();
    let find = |w: &AnalogWaveform| -> Result<Instant> {
        let edge = w
            .digital()
            .nearest_edge(near)
            .ok_or(SignalError::EmptyWaveform { context: "measuring skew" })?;
        if (edge.at - near).abs() > ui {
            return Err(SignalError::CrossingNotFound { context: "no edge within one UI" });
        }
        w.find_crossing(w.levels().mid().as_f64(), edge.at - ui / 2, edge.at + ui / 2)
    };
    Ok(find(a)? - find(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::{JitterBudget, NoJitter};
    use crate::{BitStream, DigitalWaveform, EdgeShape, LevelSet};
    use pstime::Millivolts;

    fn wave(bits: &str, gbps: f64, rise_ps: f64) -> (AnalogWaveform, DataRate) {
        let rate = DataRate::from_gbps(gbps);
        let d = DigitalWaveform::from_bits(&BitStream::from_str_bits(bits), rate, &NoJitter, 0);
        (AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(rise_ps)), rate)
    }

    #[test]
    fn transition_2080_measurement() {
        let (a, rate) = wave("0011", 2.5, 72.0);
        let m = measure_transition(&a, 0, rate).unwrap();
        assert_eq!(m.polarity, EdgePolarity::Rising);
        assert!((m.t_2080.as_ps_f64() - 72.0).abs() < 1.0, "t2080 {}", m.t_2080);
        assert!((m.mid_crossing - Instant::from_ps(800)).abs() < Duration::from_ps(1));
    }

    #[test]
    fn asymmetric_rise_fall() {
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&BitStream::from_str_bits("001100"), rate, &NoJitter, 0);
        let a =
            AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_fall_2080_ps(70.0, 75.0));
        let (rise, fall) = transition_time_stats(&a, rate).unwrap();
        assert_eq!(rise.count(), 1);
        assert_eq!(fall.count(), 1);
        assert!((rise.mean() - 70.0).abs() < 1.0);
        assert!((fall.mean() - 75.0).abs() < 1.0);
    }

    #[test]
    fn transition_stats_over_pattern() {
        let (a, rate) = wave("010101010101", 2.5, 72.0);
        let (rise, fall) = transition_time_stats(&a, rate).unwrap();
        assert!(rise.count() >= 5);
        assert!(fall.count() >= 5);
        // Fig. 6 claim: rise/fall in the 70–75 ps range.
        assert!(rise.mean() > 68.0 && rise.mean() < 77.0);
        assert!(fall.mean() > 68.0 && fall.mean() < 77.0);
    }

    #[test]
    fn out_of_range_edge_errors() {
        let (a, rate) = wave("01", 2.5, 72.0);
        assert!(measure_transition(&a, 5, rate).is_err());
    }

    #[test]
    fn no_transitions_errors() {
        let (a, rate) = wave("1111", 2.5, 72.0);
        assert!(transition_time_stats(&a, rate).is_err());
        assert!(measure_levels(&a, rate).is_err()); // only one level present
    }

    #[test]
    fn level_measurement_matches_programmed_dac() {
        let rate = DataRate::from_gbps(1.25);
        let levels = LevelSet::pecl().with_voh(Millivolts::new(-1100));
        let d = DigitalWaveform::from_bits(&BitStream::alternating(64), rate, &NoJitter, 0);
        let a = AnalogWaveform::new(d, levels, EdgeShape::from_rise_2080_ps(72.0));
        let m = measure_levels(&a, rate).unwrap();
        assert!((m.voh_mv + 1100.0).abs() < 5.0, "voh {}", m.voh_mv);
        assert!((m.vol_mv + 1700.0).abs() < 5.0, "vol {}", m.vol_mv);
        assert!((m.swing_mv() - 600.0).abs() < 10.0);
        assert!((m.mid_mv() + 1400.0).abs() < 5.0);
        assert!(m.high_samples > 0 && m.low_samples > 0);
    }

    #[test]
    fn edge_jitter_reproduces_fig9() {
        // Repeated acquisitions of one edge with 3.2 ps rms RJ.
        let budget = JitterBudget::new().with_rj_rms_ps(3.2);
        let rate = DataRate::from_gbps(2.5);
        let bits = BitStream::from_str_bits("1100");
        let acqs: Vec<Instant> = (0..5_000)
            .map(|seed| {
                let d = DigitalWaveform::from_bits(&bits, rate, &budget, seed);
                let a = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
                measure_transition(&a, 0, rate).unwrap().mid_crossing
            })
            .collect();
        let m = edge_jitter_from_acquisitions(acqs, 50).unwrap();
        let rms = m.rms().as_ps_f64();
        let pp = m.peak_to_peak().as_ps_f64();
        assert!((rms - 3.2).abs() < 0.4, "rms {rms} ps, expected ~3.2");
        assert!(pp > 18.0 && pp < 30.0, "p-p {pp} ps, expected ~24");
        assert!(m.histogram.total() > 4_500);
        assert!(m.histogram.mode_bin().is_some());
    }

    #[test]
    fn edge_jitter_requires_two_acquisitions() {
        assert!(edge_jitter_from_acquisitions([Instant::ZERO], 10).is_err());
    }

    #[test]
    fn skew_measurement() {
        let rate = DataRate::from_gbps(2.5);
        let bits = BitStream::alternating(16);
        let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let a = AnalogWaveform::new(d.clone(), LevelSet::pecl(), EdgeShape::default());
        let b = AnalogWaveform::new(
            d.delayed(Duration::from_ps(30)),
            LevelSet::pecl(),
            EdgeShape::default(),
        );
        let skew = measure_skew(&b, &a, Instant::from_ps(1200), rate).unwrap();
        assert!((skew - Duration::from_ps(30)).abs() < Duration::from_ps(1), "skew {skew}");
    }

    #[test]
    fn skew_needs_nearby_edges() {
        let rate = DataRate::from_gbps(2.5);
        let quiet = DigitalWaveform::from_bits(&BitStream::ones(8), rate, &NoJitter, 0);
        let busy = DigitalWaveform::from_bits(&BitStream::alternating(8), rate, &NoJitter, 0);
        let a = AnalogWaveform::new(quiet, LevelSet::pecl(), EdgeShape::default());
        let b = AnalogWaveform::new(busy, LevelSet::pecl(), EdgeShape::default());
        assert!(measure_skew(&a, &b, Instant::from_ps(1000), rate).is_err());
    }
}
