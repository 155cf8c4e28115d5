//! The source-synchronous receiver.
//!
//! The test bed transmits a clock with the data ("precisely aligned in time
//! with a source-synchronous reference clock", §3), so the receiver does
//! not need clock recovery in the CDR sense: it locks to the first clock
//! transition of the slot window, derives the bit grid from it, and strobes
//! every channel mid-bit. The frame bit gates payload capture; the header
//! channels are sampled once, mid-window.

use pstime::{Duration, Instant, Millivolts};
use signal::AnalogWaveform;
use vortex::Wavelength;

use crate::frame::SlotTiming;
use crate::optics::{noise_rng, Photodetector, WdmLink};
use crate::tx::TransmittedSlot;
use crate::{Result, TestbedError};

/// One decoded slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceivedSlot {
    /// The recovered payload words.
    pub payload: [u32; 4],
    /// The recovered 4-bit routing address.
    pub address: u8,
    /// Whether the frame bit was asserted through the data window.
    pub frame_ok: bool,
    /// The instant the receiver locked to (first clock transition).
    pub lock_time: Instant,
}

/// The test-bed receiver.
///
/// # Examples
///
/// ```
/// use testbed::frame::{PacketSlot, SlotTiming};
/// use testbed::{Receiver, Transmitter};
///
/// let mut tx = Transmitter::new(SlotTiming::paper())?;
/// let rx = Receiver::new(SlotTiming::paper());
/// let slot = PacketSlot::new(SlotTiming::paper(), [0xCAFE_F00D, 1, 2, 3], 0b0101);
/// let received = rx.receive(&tx.transmit_slot(&slot, 3)?)?;
/// assert_eq!(received.payload[0], 0xCAFE_F00D);
/// assert_eq!(received.address, 0b0101);
/// assert!(received.frame_ok);
/// # Ok::<(), testbed::TestbedError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Receiver {
    timing: SlotTiming,
    threshold: Millivolts,
    sample_offset: Duration,
}

impl Receiver {
    /// Creates a receiver for the given slot timing with the standard PECL
    /// mid-level threshold and mid-bit sampling.
    pub fn new(timing: SlotTiming) -> Self {
        Receiver {
            timing,
            threshold: Millivolts::new(-1300),
            sample_offset: timing.bit_period() / 2,
        }
    }

    /// The decision threshold.
    pub fn threshold(&self) -> Millivolts {
        self.threshold
    }

    /// Overrides the decision threshold (for margin characterization).
    pub fn set_threshold(&mut self, threshold: Millivolts) {
        self.threshold = threshold;
    }

    /// Locks to the slot's clock: the first clock transition marks the
    /// window start.
    ///
    /// # Errors
    ///
    /// [`TestbedError::ClockRecoveryFailed`] if the clock channel has no
    /// transitions.
    pub fn lock(&self, clock: &AnalogWaveform) -> Result<Instant> {
        clock
            .digital()
            .edges()
            .first()
            .map(|e| e.at)
            .ok_or(TestbedError::ClockRecoveryFailed { reason: "clock channel has no edges" })
    }

    /// Decodes one transmitted slot (electrical loopback).
    ///
    /// # Errors
    ///
    /// [`TestbedError::ClockRecoveryFailed`] without clock transitions.
    pub fn receive(&self, sent: &TransmittedSlot) -> Result<ReceivedSlot> {
        let lock_time = self.lock(&sent.clock)?;
        let sample = |wave: &AnalogWaveform, bit_in_window: usize| -> bool {
            let t =
                lock_time + self.timing.bit_period() * bit_in_window as i64 + self.sample_offset;
            wave.value_at(t) >= self.threshold.as_f64()
        };
        Ok(self.decode(lock_time, |wave, bit| sample(wave, bit), sent))
    }

    /// Decodes a slot delivered optically: each channel is dropped from the
    /// WDM link and detected with `detector` (noise seeded by `seed`).
    ///
    /// # Errors
    ///
    /// [`TestbedError::ClockRecoveryFailed`] if the clock wavelength is
    /// missing or edge-free.
    pub fn receive_optical(
        &self,
        _sent: &TransmittedSlot,
        link: &WdmLink,
        detector: &Photodetector,
        seed: u64,
    ) -> Result<ReceivedSlot> {
        let clock_sig = link
            .drop_channel(Wavelength(0))
            .ok_or(TestbedError::ClockRecoveryFailed { reason: "clock wavelength missing" })?;
        let lock_time = self.lock(clock_sig.electrical())?;
        let mut rng = noise_rng(seed);
        let mut detector = detector.clone();

        let mut decide = |lambda: u8, bit_in_window: usize| -> bool {
            let t =
                lock_time + self.timing.bit_period() * bit_in_window as i64 + self.sample_offset;
            match link.drop_channel(Wavelength(lambda)) {
                Some(sig) => {
                    detector.auto_threshold(&sig);
                    detector.decide(&sig, t, &mut rng)
                }
                None => false,
            }
        };

        let t = &self.timing;
        let pre = t.pre_clock_bits;
        let mut payload = [0u32; 4];
        for (ch, word) in payload.iter_mut().enumerate() {
            for bit in 0..t.data_bits {
                *word = (*word << 1) | u32::from(decide(1 + ch as u8, pre + bit));
            }
        }
        let mid = pre + t.data_bits / 2;
        let frame_ok = decide(5, pre) && decide(5, pre + t.data_bits - 1);
        let mut address = 0u8;
        for bit in 0..4u8 {
            address = (address << 1) | u8::from(decide(6 + bit, mid));
        }
        Ok(ReceivedSlot { payload, address, frame_ok, lock_time })
    }

    fn decode(
        &self,
        lock_time: Instant,
        sample: impl Fn(&AnalogWaveform, usize) -> bool,
        sent: &TransmittedSlot,
    ) -> ReceivedSlot {
        let t = &self.timing;
        let pre = t.pre_clock_bits;
        let mut payload = [0u32; 4];
        for (ch, word) in payload.iter_mut().enumerate() {
            for bit in 0..t.data_bits {
                *word = (*word << 1) | u32::from(sample(&sent.payload[ch], pre + bit));
            }
        }
        let frame_ok = sample(&sent.frame, pre) && sample(&sent.frame, pre + t.data_bits - 1);
        let mid = pre + t.data_bits / 2;
        let mut address = 0u8;
        for bit in 0..4 {
            address = (address << 1) | u8::from(sample(&sent.header[bit], mid));
        }
        ReceivedSlot { payload, address, frame_ok, lock_time }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PacketSlot;
    use crate::tx::Transmitter;

    fn loopback(payload: [u32; 4], address: u8) -> ReceivedSlot {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let rx = Receiver::new(SlotTiming::paper());
        let slot = PacketSlot::new(SlotTiming::paper(), payload, address);
        rx.receive(&tx.transmit_slot(&slot, 9).unwrap()).unwrap()
    }

    #[test]
    fn electrical_loopback_is_error_free() {
        let words = [0xDEAD_BEEF, 0x0123_4567, 0x89AB_CDEF, 0xA5A5_5A5A];
        let got = loopback(words, 0b1010);
        assert_eq!(got.payload, words);
        assert_eq!(got.address, 0b1010);
        assert!(got.frame_ok);
    }

    #[test]
    fn every_address_decodes() {
        for address in 0..16u8 {
            let got = loopback([0x5555_5555; 4], address);
            assert_eq!(got.address, address, "address {address}");
        }
    }

    #[test]
    fn lock_time_is_the_window_start() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let rx = Receiver::new(SlotTiming::paper());
        let slot = PacketSlot::new(SlotTiming::paper(), [1; 4], 0);
        let sent = tx.transmit_slot(&slot, 0).unwrap();
        let got = rx.receive(&sent).unwrap();
        // Window starts at bit 13 = 5.2 ns (± chain jitter).
        let expected = Instant::from_ps(13 * 400);
        assert!(
            (got.lock_time - expected).abs() < Duration::from_ps(100),
            "lock at {}",
            got.lock_time
        );
    }

    #[test]
    fn clock_recovery_needs_edges() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let rx = Receiver::new(SlotTiming::paper());
        let slot = PacketSlot::new(SlotTiming::paper(), [0; 4], 0);
        let mut sent = tx.transmit_slot(&slot, 0).unwrap();
        // Sabotage: replace the clock with a dead channel.
        sent.clock = sent.payload[0].clone();
        assert!(matches!(rx.receive(&sent), Err(TestbedError::ClockRecoveryFailed { .. })));
    }

    #[test]
    fn threshold_margin_affects_decoding() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let mut rx = Receiver::new(SlotTiming::paper());
        let slot = PacketSlot::new(SlotTiming::paper(), [!0u32; 4], 0b1111);
        let sent = tx.transmit_slot(&slot, 2).unwrap();
        // Threshold above VOH: everything decodes as zero.
        rx.set_threshold(Millivolts::new(-500));
        let got = rx.receive(&sent).unwrap();
        assert_eq!(got.payload, [0; 4]);
        assert!(!got.frame_ok);
        assert_eq!(rx.threshold(), Millivolts::new(-500));
    }

    #[test]
    fn sample_offset_scan_finds_the_eye() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let mut rx = Receiver::new(SlotTiming::paper());
        let words = [0x0F0F_0F0F, 0xAAAA_5555, 0x1234_5678, 0x9ABC_DEF0];
        let slot = PacketSlot::new(SlotTiming::paper(), words, 0b0001);
        let sent = tx.transmit_slot(&slot, 4).unwrap();
        // Mid-bit sampling decodes cleanly.
        rx.sample_offset = Duration::from_ps(200);
        assert_eq!(rx.receive(&sent).unwrap().payload, words);
        // Sampling right at the bit boundary is unreliable (jittered
        // edges): decoded words differ from the sent ones.
        rx.sample_offset = Duration::ZERO;
        let edge_sampled = rx.receive(&sent).unwrap();
        assert_ne!(edge_sampled.payload, words);
    }

    #[test]
    fn optical_path_round_trips() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let rx = Receiver::new(SlotTiming::paper());
        let words = [0xFACE_B00C, 0x0BAD_F00D, 0xFFFF_0000, 0x0000_FFFF];
        let slot = PacketSlot::new(SlotTiming::paper(), words, 0b0110);
        let sent = tx.transmit_slot(&slot, 6).unwrap();
        let link = sent.to_optical(500.0, 10.0);
        let detector = Photodetector::testbed();
        let got = rx.receive_optical(&sent, &link, &detector, 123).unwrap();
        assert_eq!(got.payload, words);
        assert_eq!(got.address, 0b0110);
        assert!(got.frame_ok);
    }

    #[test]
    fn noisy_optical_path_flips_bits() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let rx = Receiver::new(SlotTiming::paper());
        let slot = PacketSlot::new(SlotTiming::paper(), [0xAAAA_AAAA; 4], 0b0101);
        let sent = tx.transmit_slot(&slot, 8).unwrap();
        // Crush the optical power so receiver noise dominates.
        let link = sent.to_optical(2.0, 1.5);
        let noisy = Photodetector::new(2.0, 30.0);
        let mut errors = 0usize;
        for seed in 0..20 {
            let got = rx.receive_optical(&sent, &link, &noisy, seed).unwrap();
            for ch in 0..4 {
                errors += (got.payload[ch] ^ sent.slot.payload()[ch]).count_ones() as usize;
            }
        }
        assert!(errors > 0, "a starved optical link must show bit errors");
    }
}
