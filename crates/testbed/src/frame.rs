//! The Fig. 4 packet-slot structure.
//!
//! One packet slot is 64 bit periods of 400 ps = **25.6 ns**:
//!
//! ```text
//! | dead 8 | guard 5 |      clock/data window 46       | guard 5 |
//!                    | pre-clk 7 | data 32 | post-clk 7 |
//! ```
//!
//! * **Dead time** 8 × 400 ps = 3.2 ns between slots.
//! * **Guard times** 5 × 400 ps = 2.0 ns on each side of the active window.
//! * **Maximum allowed window for valid clock/data** 46 × 400 ps = 18.4 ns.
//! * **Valid data** 32 × 400 ps = 12.8 ns, bracketed by **pre-clocks** (for
//!   receiver start-up) and **post-clocks** (for receiver pipeline flush).
//! * A slow **frame bit** marks when the data is valid, and four **header
//!   bits** carry the routing address used by the Data Vortex.

use pstime::{DataRate, Duration};
use signal::BitStream;

use crate::{Result, TestbedError};

/// Timing parameters of one packet slot, in bit periods.
///
/// [`SlotTiming::paper`] gives the exact Fig. 4 numbers; the type checks
/// any custom configuration for consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotTiming {
    /// Serial channel bit rate.
    pub rate: DataRate,
    /// Total slot length in bits.
    pub slot_bits: usize,
    /// Dead time before the window, in bits.
    pub dead_bits: usize,
    /// Guard band on each side of the window, in bits.
    pub guard_bits: usize,
    /// Pre-clock cycles for receiver start-up, in bits.
    pub pre_clock_bits: usize,
    /// Valid payload bits.
    pub data_bits: usize,
    /// Post-clock cycles for pipeline flush, in bits.
    pub post_clock_bits: usize,
}

impl SlotTiming {
    /// The paper's exact Fig. 4 configuration at 2.5 Gbps.
    pub fn paper() -> Self {
        SlotTiming {
            rate: DataRate::from_gbps(2.5),
            slot_bits: 64,
            dead_bits: 8,
            guard_bits: 5,
            pre_clock_bits: 7,
            data_bits: 32,
            post_clock_bits: 7,
        }
    }

    /// Validates that the segments tile the slot exactly:
    /// `dead + guard + pre + data + post + guard == slot`.
    ///
    /// # Errors
    ///
    /// [`TestbedError::BadSlotTiming`] on any inconsistency.
    pub fn validate(&self) -> Result<()> {
        let used = self.dead_bits
            + 2 * self.guard_bits
            + self.pre_clock_bits
            + self.data_bits
            + self.post_clock_bits;
        if used != self.slot_bits {
            return Err(TestbedError::BadSlotTiming {
                reason: "segments do not tile the slot exactly",
            });
        }
        if self.data_bits == 0 {
            return Err(TestbedError::BadSlotTiming { reason: "zero payload bits" });
        }
        if !self.data_bits.is_multiple_of(2) {
            return Err(TestbedError::BadSlotTiming {
                reason: "payload bits must be even for DDR clocking",
            });
        }
        Ok(())
    }

    /// One bit period.
    pub fn bit_period(&self) -> Duration {
        self.rate.unit_interval()
    }

    /// Total slot duration (25.6 ns for the paper values).
    pub fn slot_duration(&self) -> Duration {
        self.bit_period() * self.slot_bits as i64
    }

    /// Dead-time duration (3.2 ns).
    pub fn dead_duration(&self) -> Duration {
        self.bit_period() * self.dead_bits as i64
    }

    /// One guard-band duration (2.0 ns).
    pub fn guard_duration(&self) -> Duration {
        self.bit_period() * self.guard_bits as i64
    }

    /// Valid-data duration (12.8 ns).
    pub fn data_duration(&self) -> Duration {
        self.bit_period() * self.data_bits as i64
    }

    /// The maximum allowed clock/data window (18.4 ns): pre + data + post.
    pub fn window_bits(&self) -> usize {
        self.pre_clock_bits + self.data_bits + self.post_clock_bits
    }

    /// Window duration.
    pub fn window_duration(&self) -> Duration {
        self.bit_period() * self.window_bits() as i64
    }

    /// Bit offset of the window start within the slot (dead + guard).
    fn window_start_bit(&self) -> usize {
        self.dead_bits + self.guard_bits
    }

    /// Bit offset of the first payload bit within the slot.
    pub fn data_start_bit(&self) -> usize {
        self.window_start_bit() + self.pre_clock_bits
    }
}

/// The per-channel bit streams of one rendered slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotChannels {
    /// Source-synchronous clock channel (toggles through the window).
    pub clock: BitStream,
    /// Four payload channels.
    pub payload: [BitStream; 4],
    /// Frame bit (high during valid data only).
    pub frame: BitStream,
    /// Four header channels, each holding one routing-address bit for the
    /// whole slot.
    pub header: [BitStream; 4],
}

/// One packet slot: four 32-bit payload words plus a 4-bit routing address.
///
/// # Examples
///
/// ```
/// use testbed::frame::{PacketSlot, SlotTiming};
///
/// let slot = PacketSlot::new(SlotTiming::paper(), [1, 2, 3, 4], 0b1010);
/// let ch = slot.render_bits();
/// // The clock toggles exactly through the 46-bit window.
/// assert_eq!(ch.clock.count_ones(), 23);
/// // Frame marks the 32 payload bits.
/// assert_eq!(ch.frame.count_ones(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSlot {
    timing: SlotTiming,
    payload: [u32; 4],
    address: u8,
}

impl PacketSlot {
    /// Creates a slot with four payload words and a 4-bit routing address.
    ///
    /// # Panics
    ///
    /// Panics if the timing is internally inconsistent (use
    /// [`SlotTiming::validate`] first for fallible checking) or the payload
    /// width exceeds the timing's data bits.
    pub fn new(timing: SlotTiming, payload: [u32; 4], address: u8) -> Self {
        // xlint::allow(no-panic-in-lib, documented panic contract; SlotTiming::validate is the fallible path callers are told to use first)
        timing.validate().expect("slot timing must be consistent");
        assert!(timing.data_bits <= 32, "u32 payload supports at most 32 data bits");
        PacketSlot { timing, payload, address: address & 0x0F }
    }

    /// The slot timing.
    pub fn timing(&self) -> &SlotTiming {
        &self.timing
    }

    /// The payload words.
    pub fn payload(&self) -> [u32; 4] {
        self.payload
    }

    /// The 4-bit routing address.
    pub fn address(&self) -> u8 {
        self.address
    }

    /// Renders all ten channels (clock, 4 payload, frame, 4 header) as
    /// slot-length bit streams at the serial rate.
    pub fn render_bits(&self) -> SlotChannels {
        let t = &self.timing;
        let n = t.slot_bits;
        let window_start = t.window_start_bit();
        let window_end = window_start + t.window_bits();
        let data_start = t.data_start_bit();
        let data_end = data_start + t.data_bits;

        let clock = BitStream::from_fn(n, |i| {
            i >= window_start && i < window_end && (i - window_start).is_multiple_of(2)
        });
        let payload = core::array::from_fn(|ch| {
            let word = self.payload[ch];
            BitStream::from_fn(n, |i| {
                if i >= data_start && i < data_end {
                    let bit = i - data_start;
                    // MSB first across the valid window.
                    (word >> (t.data_bits - 1 - bit)) & 1 == 1
                } else {
                    false
                }
            })
        });
        let frame = BitStream::from_fn(n, |i| i >= data_start && i < data_end);
        let header = core::array::from_fn(|bit| {
            let value = (self.address >> (3 - bit)) & 1 == 1;
            // Header channels are low-speed: held for the whole active
            // window so the Data Vortex can sample them lazily.
            BitStream::from_fn(n, |i| value && i >= window_start && i < window_end)
        });
        SlotChannels { clock, payload, frame, header }
    }

    /// Extracts the payload back out of slot-aligned channel bit streams —
    /// the receiver-side inverse of [`render_bits`](Self::render_bits).
    ///
    /// # Panics
    ///
    /// Panics if the streams are shorter than the slot.
    pub fn extract_payload(timing: &SlotTiming, channels: &SlotChannels) -> [u32; 4] {
        let data_start = timing.data_start_bit();
        core::array::from_fn(|ch| {
            let mut word = 0u32;
            for i in 0..timing.data_bits {
                word = (word << 1) | u32::from(channels.payload[ch][data_start + i]);
            }
            word
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timing_is_exact_fig4() {
        let t = SlotTiming::paper();
        t.validate().unwrap();
        assert_eq!(t.bit_period(), Duration::from_ps(400));
        assert_eq!(t.slot_duration(), Duration::from_ns_f64(25.6));
        assert_eq!(t.dead_duration(), Duration::from_ns_f64(3.2));
        assert_eq!(t.guard_duration(), Duration::from_ns(2));
        assert_eq!(t.data_duration(), Duration::from_ns_f64(12.8));
        assert_eq!(t.window_bits(), 46);
        assert_eq!(t.window_duration(), Duration::from_ns_f64(18.4));
        assert_eq!(t.window_start_bit(), 13);
        assert_eq!(t.data_start_bit(), 20);
    }

    #[test]
    fn bad_timings_rejected() {
        let mut t = SlotTiming::paper();
        t.dead_bits = 9;
        assert!(matches!(t.validate(), Err(TestbedError::BadSlotTiming { .. })));
        let mut t = SlotTiming::paper();
        t.data_bits = 0;
        t.pre_clock_bits = 39;
        assert!(t.validate().is_err());
        let mut t = SlotTiming::paper();
        t.data_bits = 31;
        t.pre_clock_bits = 8;
        assert!(matches!(
            t.validate(),
            Err(TestbedError::BadSlotTiming {
                reason: "payload bits must be even for DDR clocking"
            })
        ));
    }

    #[test]
    fn channel_rendering_structure() {
        let slot = PacketSlot::new(SlotTiming::paper(), [0xFFFF_FFFF, 0, 0xAAAA_AAAA, 1], 0b1100);
        let ch = slot.render_bits();
        // Everything is slot-length.
        assert_eq!(ch.clock.len(), 64);
        assert!(ch.payload.iter().all(|p| p.len() == 64));
        assert_eq!(ch.frame.len(), 64);
        assert!(ch.header.iter().all(|h| h.len() == 64));
        // Dead time and guards are quiet on all channels.
        for i in 0..13 {
            assert!(!ch.clock[i]);
            assert!(!ch.frame[i]);
            assert!(!ch.payload[0][i]);
        }
        // Payload channel 0 (all ones) is high for exactly the data window.
        assert_eq!(ch.payload[0].count_ones(), 32);
        assert_eq!(ch.payload[1].count_ones(), 0);
        assert_eq!(ch.payload[2].count_ones(), 16);
        assert_eq!(ch.payload[3].count_ones(), 1);
        // Header bits: address 0b1100 -> channels 0,1 high, 2,3 low.
        assert_eq!(ch.header[0].count_ones(), 46);
        assert_eq!(ch.header[1].count_ones(), 46);
        assert_eq!(ch.header[2].count_ones(), 0);
        assert_eq!(ch.header[3].count_ones(), 0);
    }

    #[test]
    fn clock_covers_pre_and_post() {
        let slot = PacketSlot::new(SlotTiming::paper(), [0; 4], 0);
        let ch = slot.render_bits();
        // 46-bit window with alternating clock: 23 rising periods.
        assert_eq!(ch.clock.count_ones(), 23);
        // Clock starts at the window start (bit 13), before the data
        // (pre-clocks), and continues past data end (post-clocks).
        assert!(ch.clock[13]);
        assert!(ch.clock.iter().skip(52 + 2).take(5).any(|b| b)); // post region
    }

    #[test]
    fn payload_round_trips() {
        let words = [0xDEAD_BEEF, 0x0123_4567, 0x89AB_CDEF, 0x5555_AAAA];
        let slot = PacketSlot::new(SlotTiming::paper(), words, 0b0110);
        let ch = slot.render_bits();
        assert_eq!(PacketSlot::extract_payload(&SlotTiming::paper(), &ch), words);
        assert_eq!(slot.payload(), words);
        assert_eq!(slot.address(), 0b0110);
        assert_eq!(slot.timing().slot_bits, 64);
    }

    #[test]
    fn address_masked_to_four_bits() {
        let slot = PacketSlot::new(SlotTiming::paper(), [0; 4], 0xFF);
        assert_eq!(slot.address(), 0x0F);
    }

    #[test]
    #[should_panic(expected = "slot timing must be consistent")]
    fn inconsistent_timing_panics_in_ctor() {
        let mut t = SlotTiming::paper();
        t.guard_bits = 99;
        let _ = PacketSlot::new(t, [0; 4], 0);
    }
}
