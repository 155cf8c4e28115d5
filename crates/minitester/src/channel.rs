//! The WLP interposer / compliant-lead channel model.
//!
//! The mini-tester's whole purpose is to "demonstrate high-speed (~5 Gbps)
//! signal propagation through the compliant lead structures" (§4), reached
//! through "an interposer … to redistribute the high density WLP signals to
//! a macroscopic scale" (Fig. 12). The channel model carries the three
//! impairments that close a 5 Gbps eye: insertion loss, a bandwidth limit
//! (slower transitions + data-dependent edge shifts), and propagation
//! delay.

use pstime::{DataRate, Duration};
use signal::{AnalogWaveform, DigitalWaveform, Edge};

/// A lossy, band-limited channel between the tester and the DUT pad.
///
/// # Examples
///
/// ```
/// use minitester::WlpChannel;
/// use pstime::Duration;
///
/// let ch = WlpChannel::interposer();
/// assert_eq!(ch.delay(), Duration::from_ps(35));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WlpChannel {
    attenuation: f64,
    extra_rise_ps: f64,
    isi_max: Duration,
    isi_tau_bits: f64,
    delay: Duration,
}

impl WlpChannel {
    /// Creates a channel.
    ///
    /// # Panics
    ///
    /// Panics if `attenuation` is outside `(0, 1]`, `extra_rise_ps` is
    /// negative, or `isi_tau_bits` is not positive.
    pub fn new(
        attenuation: f64,
        extra_rise_ps: f64,
        isi_max: Duration,
        isi_tau_bits: f64,
        delay: Duration,
    ) -> Self {
        assert!(attenuation > 0.0 && attenuation <= 1.0, "attenuation must be in (0, 1]");
        assert!(extra_rise_ps >= 0.0, "extra rise time must be nonnegative");
        assert!(isi_tau_bits > 0.0, "ISI settling constant must be positive");
        assert!(!isi_max.is_negative(), "ISI max must be nonnegative");
        WlpChannel { attenuation, extra_rise_ps, isi_max, isi_tau_bits, delay }
    }

    /// A healthy interposer + compliant-lead path: 8 % loss, 25 ps of
    /// additional transition time, 6 ps of channel ISI, 35 ps flight time.
    pub fn interposer() -> Self {
        WlpChannel::new(0.92, 25.0, Duration::from_ps(6), 1.2, Duration::from_ps(35))
    }

    /// A marginal path (worn probe / degraded lead): heavier loss and
    /// bandwidth limitation — the kind of defect the mini-tester exists to
    /// catch.
    pub fn degraded() -> Self {
        WlpChannel::new(0.65, 90.0, Duration::from_ps(25), 1.8, Duration::from_ps(45))
    }

    /// An ideal connection (for A/B comparisons).
    pub fn ideal() -> Self {
        WlpChannel::new(1.0, 0.0, Duration::ZERO, 1.0, Duration::ZERO)
    }

    /// Propagation delay.
    pub fn delay(&self) -> Duration {
        self.delay
    }

    /// Maximum data-dependent edge displacement.
    pub fn isi_max(&self) -> Duration {
        self.isi_max
    }

    /// Propagates a waveform through the channel at `rate`:
    ///
    /// 1. every edge is delayed by the flight time,
    /// 2. edges following long runs are displaced late (bandwidth ISI),
    /// 3. the transition shape slows by the channel's rise-time
    ///    contribution (root-sum-square cascade),
    /// 4. the swing is attenuated about the midpoint.
    pub fn propagate(&self, wave: &AnalogWaveform, rate: DataRate) -> AnalogWaveform {
        let ui = rate.unit_interval();
        let digital = wave.digital();
        let isi_fs = self.isi_max.as_fs() as f64;

        // Rebuild the edge list with flight delay + data-dependent shift.
        let mut prev_at = digital.start() - ui;
        let mut edges: Vec<Edge> = Vec::with_capacity(digital.num_edges());
        let mut last_placed = digital.start() + self.delay - ui;
        for e in digital.edges() {
            let gap_bits = ((e.at - prev_at).as_fs() as f64 / ui.as_fs() as f64).max(1.0);
            let shift = isi_fs * (1.0 - (-(gap_bits - 1.0) / self.isi_tau_bits).exp());
            let mut at = e.at + self.delay + Duration::from_fs(shift.round() as i64);
            if at <= last_placed {
                at = last_placed + Duration::from_fs(1);
            }
            edges.push(Edge::new(at, e.polarity));
            last_placed = at;
            prev_at = e.at;
        }
        let new_digital = DigitalWaveform::from_edges(
            digital.initial_level(),
            edges,
            digital.start() + self.delay,
            digital.end() + self.delay + self.isi_max,
        );
        let new_shape = wave.shape().cascaded_with_2080_ps(self.extra_rise_ps);
        let new_levels = wave.levels().attenuated(self.attenuation);
        AnalogWaveform::new(new_digital, new_levels, new_shape)
    }
}

impl Default for WlpChannel {
    fn default() -> Self {
        WlpChannel::interposer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::Millivolts;
    use signal::jitter::NoJitter;
    use signal::{BitStream, EdgeShape, EyeDiagram, LevelSet};

    fn wave(bits: &str, gbps: f64) -> (AnalogWaveform, DataRate) {
        let rate = DataRate::from_gbps(gbps);
        let d = DigitalWaveform::from_bits(&BitStream::from_str_bits(bits), rate, &NoJitter, 0);
        (AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(120.0)), rate)
    }

    #[test]
    fn ideal_channel_only_relabels() {
        let (w, rate) = wave("1010", 2.5);
        let out = WlpChannel::ideal().propagate(&w, rate);
        assert_eq!(out.digital().num_edges(), 3);
        assert_eq!(out.digital().edges()[0].at, w.digital().edges()[0].at);
        assert_eq!(out.levels().swing(), w.levels().swing());
    }

    #[test]
    fn flight_delay_applied() {
        let (w, rate) = wave("10", 2.5);
        let ch = WlpChannel::interposer();
        let out = ch.propagate(&w, rate);
        let shift = out.digital().edges()[0].at - w.digital().edges()[0].at;
        // Delay plus (zero for a first edge after a single run) ISI.
        assert!(shift >= Duration::from_ps(35), "shift {shift}");
        assert!(shift <= Duration::from_ps(45));
    }

    #[test]
    fn isi_shifts_edges_after_runs() {
        // Edge after a long run arrives later than edge after a short run.
        let (w, rate) = wave("1111111101", 2.5);
        let ch = WlpChannel::interposer();
        let out = ch.propagate(&w, rate);
        let orig = w.digital().edges();
        let moved = out.digital().edges();
        // First edge: after a 8-run -> near-max ISI. Second: after 1-run.
        let shift0 = (moved[0].at - orig[0].at) - ch.delay();
        let shift1 = (moved[1].at - orig[1].at) - ch.delay();
        assert!(shift0 > shift1, "run-length ISI ordering: {shift0} vs {shift1}");
        assert!(shift0 <= ch.isi_max());
    }

    #[test]
    fn attenuation_shrinks_swing_about_mid() {
        let (w, rate) = wave("1100", 2.5);
        let out = WlpChannel::degraded().propagate(&w, rate);
        let swing = out.levels().swing().as_mv();
        assert_eq!(swing, 520); // 800 * 0.65
        assert_eq!(out.levels().mid(), Millivolts::new(-1300));
    }

    #[test]
    fn bandwidth_slows_transitions() {
        let (w, rate) = wave("0011", 2.5);
        let out = WlpChannel::degraded().propagate(&w, rate);
        // 120 ps RSS 90 ps = 150 ps.
        assert_eq!(out.shape().rise_2080(), Duration::from_ps(150));
        let _ = rate;
    }

    #[test]
    fn degraded_channel_closes_the_eye() {
        let rate = DataRate::from_gbps(5.0);
        let bits = BitStream::from_str_bits("11001010001101011100101000110101").repeat(32);
        let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let w = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(120.0));
        let good = WlpChannel::interposer().propagate(&w, rate);
        let bad = WlpChannel::degraded().propagate(&w, rate);
        let eye_good = EyeDiagram::analyze(&good, rate).unwrap();
        let eye_bad = EyeDiagram::analyze(&bad, rate).unwrap();
        assert!(
            eye_bad.opening_ui().value() < eye_good.opening_ui().value(),
            "degraded {} !< good {}",
            eye_bad.opening_ui(),
            eye_good.opening_ui()
        );
        assert!(eye_bad.eye_height_mv() < eye_good.eye_height_mv());
    }

    #[test]
    fn edges_stay_ordered_under_heavy_isi() {
        let rate = DataRate::from_gbps(5.0);
        let bits = BitStream::alternating(256);
        let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let w = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(120.0));
        // from_edges would panic if ordering broke.
        let out = WlpChannel::degraded().propagate(&w, rate);
        assert_eq!(out.digital().num_edges(), 255);
    }

    #[test]
    fn default_is_interposer() {
        assert_eq!(WlpChannel::default(), WlpChannel::interposer());
    }

    #[test]
    #[should_panic(expected = "attenuation must be in (0, 1]")]
    fn bad_attenuation_panics() {
        let _ = WlpChannel::new(0.0, 0.0, Duration::ZERO, 1.0, Duration::ZERO);
    }
}
