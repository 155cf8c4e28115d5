//! The Optical Test Bed transmitter.
//!
//! DLC state machines assemble the Fig. 4 framed channels; the calibrated
//! PECL chain serializes them at 2.5 Gbps; laser drivers put each channel
//! on its own wavelength.

use pecl::SignalChain;
use signal::{AnalogWaveform, BitStream, LevelSet};
use vortex::Wavelength;

use crate::frame::{PacketSlot, SlotTiming};
use crate::optics::{OpticalSignal, WdmLink};
use crate::Result;

/// One transmitted slot: all ten channels as analog waveforms.
#[derive(Debug, Clone)]
pub struct TransmittedSlot {
    /// The source-synchronous clock channel.
    pub clock: AnalogWaveform,
    /// The four payload channels.
    pub payload: [AnalogWaveform; 4],
    /// The frame-bit channel.
    pub frame: AnalogWaveform,
    /// The four header (routing address) channels.
    pub header: [AnalogWaveform; 4],
    /// The logical slot that was sent.
    pub slot: PacketSlot,
}

impl TransmittedSlot {
    /// Modulates every channel onto its own wavelength and combines them
    /// into a WDM link: clock on λ0, payload on λ1–λ4, frame on λ5,
    /// header on λ6–λ9.
    ///
    /// # Panics
    ///
    /// Panics only on internal wavelength collisions (impossible by
    /// construction).
    pub fn to_optical(&self, p_on_uw: f64, er: f64) -> WdmLink {
        let mut channels = Vec::with_capacity(10);
        channels.push(OpticalSignal::modulate(self.clock.clone(), Wavelength(0), p_on_uw, er));
        for (i, ch) in self.payload.iter().enumerate() {
            channels.push(OpticalSignal::modulate(
                ch.clone(),
                Wavelength(1 + i as u8),
                p_on_uw,
                er,
            ));
        }
        channels.push(OpticalSignal::modulate(self.frame.clone(), Wavelength(5), p_on_uw, er));
        for (i, ch) in self.header.iter().enumerate() {
            channels.push(OpticalSignal::modulate(
                ch.clone(),
                Wavelength(6 + i as u8),
                p_on_uw,
                er,
            ));
        }
        WdmLink::new(channels, 0.9, 0.8)
    }
}

/// The test-bed transmitter: a booted DLC plus the calibrated PECL chain.
///
/// # Examples
///
/// ```
/// use testbed::frame::{PacketSlot, SlotTiming};
/// use testbed::Transmitter;
///
/// let mut tx = Transmitter::new(SlotTiming::paper())?;
/// let slot = PacketSlot::new(SlotTiming::paper(), [1, 2, 3, 4], 0b0011);
/// let sent = tx.transmit_slot(&slot, 7)?;
/// assert_eq!(sent.slot.address(), 0b0011);
/// # Ok::<(), testbed::TestbedError>(())
/// ```
#[derive(Debug)]
pub struct Transmitter {
    chain: SignalChain,
    timing: SlotTiming,
}

impl Transmitter {
    /// Attaches the calibrated test-bed PECL chain to a validated slot
    /// timing.
    ///
    /// # Errors
    ///
    /// Propagates slot-timing validation errors.
    pub fn new(timing: SlotTiming) -> Result<Self> {
        timing.validate()?;
        Ok(Transmitter { chain: SignalChain::testbed_transmitter(), timing })
    }

    /// The slot timing in use.
    pub fn timing(&self) -> &SlotTiming {
        &self.timing
    }

    /// Borrow of the PECL chain.
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }

    /// Reprograms the output levels on every channel driver.
    pub fn set_levels(&mut self, levels: LevelSet) {
        self.chain.set_levels(levels);
    }

    /// Renders one framed slot through the PECL chain.
    ///
    /// # Errors
    ///
    /// Propagates PECL rate-limit errors.
    pub fn transmit_slot(&mut self, slot: &PacketSlot, seed: u64) -> Result<TransmittedSlot> {
        let bits = slot.render_bits();
        let rate = self.timing.rate;
        // One lane = one derived channel: clock 0, payload 1–4, frame 5,
        // header 6–9.
        let tree = rng::SeedTree::new(seed).stream("testbed.tx.slot");
        let render = |stream: &BitStream, lane: u64| -> Result<AnalogWaveform> {
            Ok(self.chain.render(stream, rate, tree.channel(lane).seed())?)
        };
        Ok(TransmittedSlot {
            clock: render(&bits.clock, 0)?,
            payload: [
                render(&bits.payload[0], 1)?,
                render(&bits.payload[1], 2)?,
                render(&bits.payload[2], 3)?,
                render(&bits.payload[3], 4)?,
            ],
            frame: render(&bits.frame, 5)?,
            header: [
                render(&bits.header[0], 6)?,
                render(&bits.header[1], 7)?,
                render(&bits.header[2], 8)?,
                render(&bits.header[3], 9)?,
            ],
            slot: *slot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::{Duration, Instant};

    #[test]
    fn transmit_slot_produces_ten_channels() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let slot = PacketSlot::new(SlotTiming::paper(), [0xAAAA_AAAA, 0, !0u32, 7], 0b1001);
        let sent = tx.transmit_slot(&slot, 3).unwrap();
        // Clock: 23 rising + 23 falling edges in the window.
        assert_eq!(sent.clock.digital().num_edges(), 46);
        // Payload 1 (all zeros) never moves.
        assert_eq!(sent.payload[1].digital().num_edges(), 0);
        // Header channels 0 and 3: address 0b1001 -> one pulse each.
        assert_eq!(sent.header[0].digital().num_edges(), 2);
        assert_eq!(sent.header[1].digital().num_edges(), 0);
        assert_eq!(sent.header[3].digital().num_edges(), 2);
        assert_eq!(sent.slot.payload()[3], 7);
        assert_eq!(tx.timing().slot_bits, 64);
    }

    #[test]
    fn slot_waveforms_span_25_6_ns() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let slot = PacketSlot::new(SlotTiming::paper(), [1; 4], 0);
        let sent = tx.transmit_slot(&slot, 0).unwrap();
        assert_eq!(sent.clock.digital().span(), Duration::from_ns_f64(25.6));
        assert_eq!(sent.frame.digital().span(), Duration::from_ns_f64(25.6));
    }

    #[test]
    fn level_reprogramming_reaches_the_waveform() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        tx.set_levels(LevelSet::pecl().with_voh(pstime::Millivolts::new(-1100)));
        assert_eq!(tx.chain().levels().voh(), pstime::Millivolts::new(-1100));
        let slot = PacketSlot::new(SlotTiming::paper(), [!0u32; 4], 0);
        let sent = tx.transmit_slot(&slot, 0).unwrap();
        // Mid-data instant: payload 0 is high at the reduced VOH.
        let t = Instant::from_ps((20 + 16) * 400);
        let v = sent.payload[0].value_at(t);
        assert!((v + 1100.0).abs() < 10.0, "v = {v}");
    }

    #[test]
    fn optical_conversion_assigns_wavelengths() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        let slot = PacketSlot::new(SlotTiming::paper(), [0x0F0F_0F0F; 4], 0b1111);
        let sent = tx.transmit_slot(&slot, 1).unwrap();
        let link = sent.to_optical(500.0, 10.0);
        assert_eq!(link.num_channels(), 10);
        assert!(link.drop_channel(Wavelength(0)).is_some()); // clock
        assert!(link.drop_channel(Wavelength(9)).is_some()); // header bit 3
        assert!(link.drop_channel(Wavelength(10)).is_none());
    }
}
