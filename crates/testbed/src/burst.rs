//! Continuous burst operation: many packet slots on one timeline.
//!
//! The per-slot API in [`crate::tx`]/[`crate::rx`] treats each slot in
//! isolation. Real test-bed operation is a *stream*: back-to-back slots
//! separated only by the Fig. 4 dead time, with the receiver re-locking at
//! every slot window. This module renders a whole burst as one continuous
//! waveform per channel and gives the receiver the slot-detection logic
//! (cluster clock edges, re-lock per cluster) the stream needs.

use pstime::{Duration, Instant, Millivolts};
use signal::{AnalogWaveform, BitStream};

use crate::frame::{PacketSlot, SlotTiming};
use crate::rx::ReceivedSlot;
use crate::tx::Transmitter;
use crate::{Result, TestbedError};

/// A rendered burst: continuous channel waveforms spanning every slot.
#[derive(Debug, Clone)]
pub struct StreamTransmission {
    /// The continuous source-synchronous clock channel.
    pub clock: AnalogWaveform,
    /// The four continuous payload channels.
    pub payload: [AnalogWaveform; 4],
    /// The continuous frame channel.
    pub frame: AnalogWaveform,
    /// The four continuous header channels.
    pub header: [AnalogWaveform; 4],
    /// The slots that were sent, in order.
    pub slots: Vec<PacketSlot>,
    timing: SlotTiming,
}

impl StreamTransmission {
    /// The slot timing of the burst.
    pub fn timing(&self) -> &SlotTiming {
        &self.timing
    }

    /// Number of slots in the burst.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total burst duration.
    pub fn duration(&self) -> Duration {
        self.timing.slot_duration() * self.slots.len() as i64
    }
}

impl Transmitter {
    /// Renders a burst of slots as one continuous transmission: channel
    /// bit streams are concatenated and rendered through the PECL chain in
    /// a single pass, so inter-slot timing (dead time included) is exact.
    ///
    /// # Errors
    ///
    /// Propagates PECL rate errors; fails on an empty burst.
    pub fn transmit_stream(
        &mut self,
        slots: &[PacketSlot],
        seed: u64,
    ) -> Result<StreamTransmission> {
        if slots.is_empty() {
            return Err(TestbedError::BadSlotTiming { reason: "empty burst" })?;
        }
        let timing = *self.timing();
        let mut clock = BitStream::new();
        let mut payload: [BitStream; 4] = Default::default();
        let mut frame = BitStream::new();
        let mut header: [BitStream; 4] = Default::default();
        for slot in slots {
            let ch = slot.render_bits();
            clock.append(&ch.clock);
            frame.append(&ch.frame);
            for i in 0..4 {
                payload[i].append(&ch.payload[i]);
                header[i].append(&ch.header[i]);
            }
        }
        let rate = timing.rate;
        let chain = self.chain().clone();
        // One lane = one derived channel: clock 0, payload 1–4, frame 5,
        // header 6–9 (same layout as testbed.tx.slot, distinct stream).
        let tree = rng::SeedTree::new(seed).stream("testbed.burst.render");
        let render = |bits: &BitStream, lane: u64| -> Result<AnalogWaveform> {
            Ok(chain.render(bits, rate, tree.channel(lane).seed())?)
        };
        Ok(StreamTransmission {
            clock: render(&clock, 0)?,
            payload: [
                render(&payload[0], 1)?,
                render(&payload[1], 2)?,
                render(&payload[2], 3)?,
                render(&payload[3], 4)?,
            ],
            frame: render(&frame, 5)?,
            header: [
                render(&header[0], 6)?,
                render(&header[1], 7)?,
                render(&header[2], 8)?,
                render(&header[3], 9)?,
            ],
            slots: slots.to_vec(),
            timing,
        })
    }
}

/// A burst receiver: detects slot windows on the continuous clock and
/// decodes each one.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReceiver {
    timing: SlotTiming,
    threshold: Millivolts,
    sample_offset: Duration,
}

impl StreamReceiver {
    /// Creates a burst receiver for the given slot timing.
    pub fn new(timing: SlotTiming) -> Self {
        StreamReceiver {
            timing,
            threshold: Millivolts::new(-1300),
            sample_offset: timing.bit_period() / 2,
        }
    }

    /// Detects the slot-window lock instants on the clock channel: clock
    /// edges separated by more than the guard + dead gap start a new slot.
    fn detect_slots(&self, stream: &StreamTransmission) -> Vec<Instant> {
        let edges = stream.clock.digital().edges();
        // Between slots the clock is quiet for 2·guard + dead bits; inside
        // the window edges are one bit period apart. Use half the gap as
        // the clustering threshold.
        let gap =
            self.timing.bit_period() * (self.timing.dead_bits + self.timing.guard_bits) as i64 / 2;
        let mut locks = Vec::new();
        let mut prev: Option<Instant> = None;
        for e in edges {
            let is_new = match prev {
                None => true,
                Some(p) => e.at - p > gap,
            };
            if is_new {
                locks.push(e.at);
            }
            prev = Some(e.at);
        }
        locks
    }

    /// Decodes every detected slot in the burst.
    ///
    /// # Errors
    ///
    /// [`TestbedError::ClockRecoveryFailed`] if no slot windows are found.
    pub fn receive_stream(&self, stream: &StreamTransmission) -> Result<Vec<ReceivedSlot>> {
        let locks = self.detect_slots(stream);
        if locks.is_empty() {
            return Err(TestbedError::ClockRecoveryFailed {
                reason: "no slot windows detected in burst",
            });
        }
        Ok(locks.iter().map(|lock| self.decode_at(*lock, stream)).collect())
    }

    fn sample(&self, wave: &AnalogWaveform, lock: Instant, bit_in_window: usize) -> bool {
        let t = lock + self.timing.bit_period() * bit_in_window as i64 + self.sample_offset;
        wave.value_at(t) >= self.threshold.as_f64()
    }

    fn decode_at(&self, lock: Instant, stream: &StreamTransmission) -> ReceivedSlot {
        let t = &self.timing;
        let pre = t.pre_clock_bits;
        let mut payload = [0u32; 4];
        for (ch, word) in payload.iter_mut().enumerate() {
            for bit in 0..t.data_bits {
                *word = (*word << 1) | u32::from(self.sample(&stream.payload[ch], lock, pre + bit));
            }
        }
        let frame_ok = self.sample(&stream.frame, lock, pre)
            && self.sample(&stream.frame, lock, pre + t.data_bits - 1);
        let mid = pre + t.data_bits / 2;
        let mut address = 0u8;
        for bit in 0..4 {
            address = (address << 1) | u8::from(self.sample(&stream.header[bit], lock, mid));
        }
        ReceivedSlot { payload, address, frame_ok, lock_time: lock }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SlotTiming;

    fn burst(n: usize) -> (StreamTransmission, Vec<[u32; 4]>) {
        let timing = SlotTiming::paper();
        let mut tx = Transmitter::new(timing).unwrap();
        let payloads: Vec<[u32; 4]> = (0..n)
            .map(|i| {
                let base = (i as u32).wrapping_mul(0x2545_F491) ^ 0xA5A5_0000;
                [base, base ^ 0xFFFF_FFFF, base.rotate_left(7), base.rotate_right(3)]
            })
            .collect();
        let slots: Vec<PacketSlot> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| PacketSlot::new(timing, *p, (i % 16) as u8))
            .collect();
        (tx.transmit_stream(&slots, 9).unwrap(), payloads)
    }

    #[test]
    fn burst_geometry() {
        let (stream, _) = burst(5);
        assert_eq!(stream.n_slots(), 5);
        assert_eq!(stream.duration(), Duration::from_ns_f64(25.6 * 5.0));
        assert_eq!(stream.timing().slot_bits, 64);
        // The clock spans the whole burst.
        assert_eq!(stream.clock.digital().span(), Duration::from_ns_f64(25.6 * 5.0));
    }

    #[test]
    fn slot_detection_finds_every_window() {
        let (stream, _) = burst(8);
        let rx = StreamReceiver::new(SlotTiming::paper());
        let locks = rx.detect_slots(&stream);
        assert_eq!(locks.len(), 8, "one lock per slot");
        // Locks are one slot period apart.
        for pair in locks.windows(2) {
            let spacing = pair[1] - pair[0];
            assert!(
                (spacing - Duration::from_ns_f64(25.6)).abs() < Duration::from_ps(200),
                "spacing {spacing}"
            );
        }
    }

    #[test]
    fn stream_decodes_every_slot() {
        let (stream, payloads) = burst(6);
        let rx = StreamReceiver::new(SlotTiming::paper());
        let got = rx.receive_stream(&stream).unwrap();
        assert_eq!(got.len(), 6);
        for (i, slot) in got.iter().enumerate() {
            assert_eq!(slot.payload, payloads[i], "slot {i}");
            assert_eq!(slot.address, (i % 16) as u8);
            assert!(slot.frame_ok);
        }
    }

    #[test]
    fn single_slot_stream() {
        let (stream, payloads) = burst(1);
        let rx = StreamReceiver::new(SlotTiming::paper());
        let got = rx.receive_stream(&stream).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, payloads[0]);
    }

    #[test]
    fn empty_burst_rejected() {
        let mut tx = Transmitter::new(SlotTiming::paper()).unwrap();
        assert!(tx.transmit_stream(&[], 0).is_err());
    }

    #[test]
    fn quiet_stream_has_no_windows() {
        // All-zero payload with a sabotaged (payload-as-clock) stream.
        let timing = SlotTiming::paper();
        let mut tx = Transmitter::new(timing).unwrap();
        let slots = vec![PacketSlot::new(timing, [0; 4], 0)];
        let mut stream = tx.transmit_stream(&slots, 1).unwrap();
        stream.clock = stream.payload[0].clone(); // zero channel
        let rx = StreamReceiver::new(timing);
        assert!(matches!(
            rx.receive_stream(&stream),
            Err(TestbedError::ClockRecoveryFailed { .. })
        ));
    }

    #[test]
    fn long_burst_stays_locked() {
        // 32 slots = 2048 bits of continuous stream: no drift.
        let (stream, payloads) = burst(32);
        let rx = StreamReceiver::new(SlotTiming::paper());
        let got = rx.receive_stream(&stream).unwrap();
        assert_eq!(got.len(), 32);
        let errors: usize = got
            .iter()
            .zip(&payloads)
            .map(|(g, p)| {
                (0..4).map(|ch| (g.payload[ch] ^ p[ch]).count_ones() as usize).sum::<usize>()
            })
            .sum();
        assert_eq!(errors, 0, "long burst must decode error-free");
    }
}
