//! The wafer-level-packaged device under test.
//!
//! §4: the probing strategy "minimize\[s\] the complexity of the PCB … by
//! using only a small number of signals for each mini-tester, taking
//! advantage of BIST features of the DUT." The model supports the two BIST
//! modes that strategy needs — loopback (the tester checks the returned
//! signal) and an on-die PRBS checker (the DUT checks itself and reports a
//! pass/fail count) — plus injectable defects so tests can verify that the
//! tester actually catches bad parts.

use pstime::{DataRate, Duration, Millivolts};
use rng::{SeedTree, StreamId};
use signal::{AnalogWaveform, BitStream};

use crate::channel::WlpChannel;

/// Substream identity for the die input stage (aperture + slicer noise).
pub const DUT_SLICER_STREAM: StreamId = StreamId::named("minitester.dut.slicer");

/// Substream identity for the die's loopback retransmit jitter.
pub const DUT_LOOPBACK_STREAM: StreamId = StreamId::named("minitester.dut.loopback");

/// BIST mode selected through the DUT's test port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BistMode {
    /// The DUT retransmits the received stream through its own output
    /// driver (the tester's sampler judges it).
    Loopback,
    /// The DUT's internal checker compares the received stream against its
    /// own PRBS-15 generator and reports the error count.
    PrbsChecker,
}

/// An injectable die/assembly defect.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Defect {
    /// An input stuck at a fixed logic level (cracked lead, open joint).
    StuckInput {
        /// The stuck level.
        level: bool,
    },
    /// Excess lead resistance: extra attenuation on the received signal.
    LossyLead {
        /// Additional attenuation factor (0..1).
        extra_attenuation: f64,
    },
    /// A slow input stage: degraded input sensitivity (offset threshold).
    ShiftedThreshold {
        /// Offset from nominal mid level.
        offset: Millivolts,
    },
}

/// A WLP die with BIST, reached through a [`WlpChannel`].
///
/// # Examples
///
/// ```
/// use minitester::{BistMode, WlpChannel, WlpDut};
///
/// let dut = WlpDut::good(WlpChannel::interposer());
/// assert_eq!(dut.defects().len(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WlpDut {
    channel: WlpChannel,
    defects: Vec<Defect>,
    input_threshold: Millivolts,
}

impl WlpDut {
    /// A defect-free die behind `channel`.
    pub fn good(channel: WlpChannel) -> Self {
        WlpDut { channel, defects: Vec::new(), input_threshold: Millivolts::new(-1300) }
    }

    /// Adds a defect (builder style).
    #[must_use]
    pub fn with_defect(mut self, defect: Defect) -> Self {
        self.defects.push(defect);
        self
    }

    /// The injected defects.
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    /// The channel to the die.
    pub fn channel(&self) -> &WlpChannel {
        &self.channel
    }

    /// What the die's input comparator sees: the stimulus propagated
    /// through the channel and any lead defects.
    pub fn received_waveform(&self, stimulus: &AnalogWaveform, rate: DataRate) -> AnalogWaveform {
        let mut wave = self.channel.propagate(stimulus, rate);
        for defect in &self.defects {
            if let Defect::LossyLead { extra_attenuation } = defect {
                wave = wave.with_levels(wave.levels().attenuated(*extra_attenuation));
            }
        }
        wave
    }

    /// The bit stream the die's input stage slices from the stimulus,
    /// sampling mid-bit at `rate` (`n` bits from the waveform start).
    pub fn sliced_bits(
        &self,
        stimulus: &AnalogWaveform,
        rate: DataRate,
        n: usize,
        seed: u64,
    ) -> BitStream {
        let wave = self.received_waveform(stimulus, rate);
        for defect in &self.defects {
            if let Defect::StuckInput { level } = defect {
                return if *level { BitStream::ones(n) } else { BitStream::zeros(n) };
            }
        }
        let mut threshold = self.input_threshold;
        for defect in &self.defects {
            if let Defect::ShiftedThreshold { offset } = defect {
                threshold += *offset;
            }
        }
        let mut rng = SeedTree::new(seed).derive(DUT_SLICER_STREAM).rng();
        let ui = rate.unit_interval();
        let start = wave.digital().start();
        let threshold = threshold.as_f64();
        // The die's input stage: ~2 ps aperture jitter and ~8 mV rms
        // input-referred comparator noise. The noise is what lets the
        // tester catch resistive defects — a signal crushed by lead loss
        // stops slicing reliably.
        const APERTURE_RJ_PS: f64 = 2.0;
        const COMPARATOR_NOISE_RMS_MV: f64 = 8.0;
        let mut cursor = wave.cursor();
        BitStream::from_fn(n, |i| {
            // One Box–Muller pair per bit: the first deviate jitters the
            // aperture, the second is the comparator noise. Their radius
            // bound confines both, so `decide` settles most bits over the
            // whole box without evaluating the waveform. The aperture
            // rounds |z|·2 ps ≤ bound·2 ps to the fs, at most the
            // truncation plus 1 fs; one more fs spares it.
            let pair = rng.gauss_pair();
            let bound = pair.radius_bound();
            let strobe = start + ui * i as i64 + ui / 2;
            let slack = Duration::from_fs((bound * APERTURE_RJ_PS * 1_000.0) as i64 + 2); // xlint::allow(no-lossy-cast, a nonnegative aperture bound of a few ps in fs; truncation stays below its ceiling)
            let margin = bound * COMPARATOR_NOISE_RMS_MV;
            cursor.decide(strobe - slack, strobe + slack, threshold, margin).unwrap_or_else(|| {
                let aperture = Duration::from_ps_f64(pair.first() * APERTURE_RJ_PS);
                let v =
                    cursor.value_at(strobe + aperture) + pair.second() * COMPARATOR_NOISE_RMS_MV;
                v >= threshold
            })
        })
    }

    /// Runs the on-die PRBS checker: slices `n` bits and compares against
    /// `expected`, returning the error count after best alignment (the
    /// checker self-synchronizes).
    pub fn bist_check(
        &self,
        stimulus: &AnalogWaveform,
        rate: DataRate,
        expected: &BitStream,
        seed: u64,
    ) -> usize {
        let n = expected.len();
        let got = self.sliced_bits(stimulus, rate, n, seed);
        let (_, errors) = expected.best_alignment(&got, 4);
        errors
    }

    /// Loopback mode: the die retransmits its sliced bits through its own
    /// 120 ps output buffer and back through the channel toward the tester.
    pub fn loopback(
        &self,
        stimulus: &AnalogWaveform,
        rate: DataRate,
        n: usize,
        seed: u64,
    ) -> AnalogWaveform {
        use signal::jitter::JitterBudget;
        use signal::{DigitalWaveform, EdgeShape, LevelSet};
        let bits = self.sliced_bits(stimulus, rate, n, seed);
        // Die output driver: 120 ps CMOS-class buffer, a little RJ.
        let budget = JitterBudget::new().with_rj_rms_ps(2.0);
        let retx = DigitalWaveform::from_bits(
            &bits,
            rate,
            &budget,
            SeedTree::new(seed).derive(DUT_LOOPBACK_STREAM).seed(),
        );
        let wave = AnalogWaveform::new(retx, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(120.0));
        // Return trip through the same leads.
        self.channel.propagate(&wave, rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::jitter::NoJitter;
    use signal::{DigitalWaveform, EdgeShape, LevelSet};

    fn stimulus(bits: &BitStream, gbps: f64) -> (AnalogWaveform, DataRate) {
        let rate = DataRate::from_gbps(gbps);
        let d = DigitalWaveform::from_bits(bits, rate, &NoJitter, 0);
        (AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(120.0)), rate)
    }

    #[test]
    fn good_dut_slices_cleanly() {
        let bits = BitStream::from_str_bits("1011001110001011").repeat(8);
        let (w, rate) = stimulus(&bits, 2.5);
        let dut = WlpDut::good(WlpChannel::interposer());
        let got = dut.sliced_bits(&w, rate, bits.len(), 1);
        let (errors, _) = bits.hamming_distance(&got);
        assert_eq!(errors, 0);
    }

    #[test]
    fn bist_checker_passes_good_die() {
        let bits = BitStream::from_str_bits("110010100011010111001010").repeat(8);
        let (w, rate) = stimulus(&bits, 2.5);
        let dut = WlpDut::good(WlpChannel::interposer());
        assert_eq!(dut.bist_check(&w, rate, &bits, 3), 0);
    }

    #[test]
    fn stuck_input_fails_bist() {
        let bits = BitStream::alternating(128);
        let (w, rate) = stimulus(&bits, 2.5);
        let dut =
            WlpDut::good(WlpChannel::interposer()).with_defect(Defect::StuckInput { level: true });
        let errors = dut.bist_check(&w, rate, &bits, 3);
        // Half the alternating bits disagree with all-ones.
        assert!(errors > 40, "errors {errors}");
        assert_eq!(dut.defects().len(), 1);
    }

    #[test]
    fn lossy_lead_reduces_received_swing() {
        let bits = BitStream::alternating(32);
        let (w, rate) = stimulus(&bits, 2.5);
        let good = WlpDut::good(WlpChannel::interposer());
        let bad = WlpDut::good(WlpChannel::interposer())
            .with_defect(Defect::LossyLead { extra_attenuation: 0.4 });
        let swing_good = good.received_waveform(&w, rate).levels().swing();
        let swing_bad = bad.received_waveform(&w, rate).levels().swing();
        assert!(swing_bad < swing_good);
        assert_eq!(swing_bad.as_mv(), (swing_good.as_mv() as f64 * 0.4).round() as i32);
    }

    #[test]
    fn shifted_threshold_biases_decisions() {
        // A threshold pushed above VOH reads everything low.
        let bits = BitStream::ones(64);
        let (w, rate) = stimulus(&bits, 1.0);
        let dut = WlpDut::good(WlpChannel::ideal())
            .with_defect(Defect::ShiftedThreshold { offset: Millivolts::new(600) });
        let got = dut.sliced_bits(&w, rate, 64, 5);
        assert_eq!(got.count_ones(), 0);
    }

    #[test]
    fn loopback_echoes_through_both_channel_passes() {
        let bits = BitStream::from_str_bits("1100101000110101").repeat(8);
        let (w, rate) = stimulus(&bits, 2.5);
        let dut = WlpDut::good(WlpChannel::interposer());
        let returned = dut.loopback(&w, rate, bits.len(), 7);
        // The die re-drives at full swing; only the return pass attenuates.
        let expected_swing = (800.0 * 0.92f64).round() as i32;
        assert!((returned.levels().swing().as_mv() - expected_swing).abs() <= 1);
        // And still carries the data.
        let recovered = returned.digital().to_bits(rate, pstime::Duration::from_ps(200));
        let (shift, errors) = bits.best_alignment(&recovered, 4);
        assert_eq!(errors, 0, "loopback data intact (shift {shift})");
    }

    /// The per-bit slicer loop as it stood before bits were decided from
    /// a bound on the waveform, kept here only as an oracle.
    fn per_bit_slice(
        dut: &WlpDut,
        stimulus: &AnalogWaveform,
        rate: DataRate,
        n: usize,
        seed: u64,
    ) -> BitStream {
        let wave = dut.received_waveform(stimulus, rate);
        let mut threshold = dut.input_threshold;
        for defect in dut.defects() {
            match defect {
                Defect::StuckInput { level } => return BitStream::from_fn(n, |_| *level),
                Defect::ShiftedThreshold { offset } => threshold += *offset,
                Defect::LossyLead { .. } => {}
            }
        }
        let mut rng = SeedTree::new(seed).derive(DUT_SLICER_STREAM).rng();
        let ui = rate.unit_interval();
        let start = wave.digital().start();
        BitStream::from_fn(n, |i| {
            let aperture = Duration::from_ps_f64(rng.gaussian() * 2.0);
            let t = start + ui * i as i64 + ui / 2 + aperture;
            let v = wave.value_at(t) + rng.gaussian() * 8.0;
            v >= threshold.as_f64()
        })
    }

    #[test]
    fn sliced_bits_match_the_per_bit_loop_bit_for_bit() {
        use signal::jitter::JitterBudget;
        let mut rng = SeedTree::new(0xD07).stream("minitester.dut.oracle").rng();
        for case in 0..48 {
            let rate = DataRate::from_gbps([1.0, 2.5, 5.0][case % 3]);
            let bits = BitStream::from_fn(rng.range_usize(64..400), |_| rng.bool());
            // Fast, heavily jittered edges put some transitions next to the
            // mid-bit strobe, where the aperture deviate decides the bit.
            let jitter = JitterBudget::new().with_rj_rms_ps(rng.range_f64(0.0, 40.0));
            let d = DigitalWaveform::from_bits(&bits, rate, &jitter, rng.next_u64());
            let rise = EdgeShape::from_rise_2080_ps(rng.range_f64(20.0, 120.0));
            let stimulus = AnalogWaveform::new(d, LevelSet::pecl(), rise);
            let channel = match rng.range_usize(0..3) {
                0 => WlpChannel::interposer(),
                1 => WlpChannel::degraded(),
                _ => WlpChannel::ideal(),
            };
            let base = WlpDut::good(channel);
            let received = *base.received_waveform(&stimulus, rate).levels();
            let (vol, voh) = (received.vol().as_mv(), received.voh().as_mv());
            // Thresholds relative to the received levels, moved there by a
            // shifted input stage.
            let mut duts: Vec<WlpDut> =
                [vol + 50, received.mid().as_mv(), voh - 50, vol - 100, voh + 100]
                    .into_iter()
                    .map(|mv| {
                        base.clone().with_defect(Defect::ShiftedThreshold {
                            offset: Millivolts::new(mv) - base.input_threshold,
                        })
                    })
                    .collect();
            duts.push(base.clone());
            duts.push(base.clone().with_defect(Defect::LossyLead { extra_attenuation: 0.3 }));
            duts.push(base.clone().with_defect(Defect::LossyLead { extra_attenuation: 0.05 }));
            duts.push(base.clone().with_defect(Defect::StuckInput { level: case % 2 == 0 }));
            let n = bits.len() + rng.range_usize(0..3);
            for dut in &duts {
                let seed = rng.next_u64();
                assert_eq!(
                    dut.sliced_bits(&stimulus, rate, n, seed),
                    per_bit_slice(dut, &stimulus, rate, n, seed),
                    "case {case}: {:?}",
                    dut.defects()
                );
            }
        }
    }

    #[test]
    fn channel_accessor() {
        let dut = WlpDut::good(WlpChannel::degraded());
        assert_eq!(dut.channel(), &WlpChannel::degraded());
    }
}
