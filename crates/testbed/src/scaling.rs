//! The paper's end-application scaling study.
//!
//! §1: "The end-application will require extending the word width to at
//! least 64 bits, and increasing channel data rates to 10 Gbps at each
//! wavelength, so that the aggregate data rate will be of the order of a
//! Terabit-per-second." This module does that arithmetic honestly —
//! including the framing efficiency of the Fig. 4 slot structure — and
//! checks what the DLC + PECL architecture needs to supply it.

use core::fmt;

use pstime::DataRate;

use crate::frame::SlotTiming;

/// One configuration point of the scaling study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingPoint {
    /// Parallel word width (wavelength channels carrying payload).
    pub word_width: u32,
    /// Serial rate per wavelength.
    pub rate_per_lambda: DataRate,
}

impl ScalingPoint {
    /// The paper's stated end goal: ≥64-bit word at 10 Gbps per λ.
    pub fn end_goal() -> Self {
        ScalingPoint { word_width: 64, rate_per_lambda: DataRate::from_gbps(10.0) }
    }

    /// Raw aggregate rate: `word_width × rate_per_lambda`.
    pub fn aggregate(&self) -> DataRate {
        self.rate_per_lambda.aggregate(u64::from(self.word_width))
    }

    /// Payload-efficient aggregate after Fig. 4 framing: only
    /// `data_bits / slot_bits` of each slot carries payload.
    pub fn effective(&self, timing: &SlotTiming) -> DataRate {
        let num = self.aggregate().as_bps() * timing.data_bits as u64;
        DataRate::from_bps((num / timing.slot_bits as u64).max(1))
    }

    /// Mux fan-in per wavelength at a given FPGA lane rate.
    pub fn mux_ways(&self, lane_rate_mbps: u64) -> u64 {
        self.rate_per_lambda
            .as_bps()
            .div_ceil(DataRate::from_mbps(lane_rate_mbps).as_bps())
            .next_power_of_two()
    }
}

impl fmt::Display for ScalingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} λ × {} = {}", self.word_width, self.rate_per_lambda, self.aggregate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's demonstrated test bed: 4-bit word at 2.5 Gbps.
    fn demonstrated() -> ScalingPoint {
        ScalingPoint { word_width: 4, rate_per_lambda: DataRate::from_gbps(2.5) }
    }

    #[test]
    fn demonstrated_system_numbers() {
        let p = demonstrated();
        assert_eq!(p.aggregate(), DataRate::from_gbps(10.0));
        // With Fig. 4 framing only half the slot carries payload.
        let eff = p.effective(&SlotTiming::paper());
        assert_eq!(eff, DataRate::from_gbps(5.0));
    }

    #[test]
    fn end_goal_is_order_terabit() {
        let p = ScalingPoint::end_goal();
        let aggregate = p.aggregate().as_gbps();
        // 64 x 10 Gbps = 640 Gbps: "of the order of a Terabit-per-second".
        assert!((aggregate - 640.0).abs() < 1e-6);
        assert!(aggregate > 100.0 && aggregate < 10_000.0);
        assert!(p.to_string().contains("64"));
    }

    #[test]
    fn fpga_feasibility() {
        // Demonstrated: 2.5 Gbps per λ from 400 Mbps pins = 7 lanes,
        // rounded up to an 8:1 mux per λ.
        assert_eq!(demonstrated().mux_ways(400), 8);
        // End goal: 10 Gbps per λ needs 25 lanes -> a 32:1 mux per λ.
        assert_eq!(ScalingPoint::end_goal().mux_ways(400), 32);
    }

    #[test]
    fn framing_efficiency_is_exactly_half_for_paper_timing() {
        let t = SlotTiming::paper();
        for word_width in [4, 8, 16] {
            for gbps in [2.5, 5.0, 10.0] {
                let p = ScalingPoint { word_width, rate_per_lambda: DataRate::from_gbps(gbps) };
                let eff = p.effective(&t).as_bps() as f64;
                let agg = p.aggregate().as_bps() as f64;
                assert!((eff / agg - 0.5).abs() < 1e-9);
            }
        }
    }
}
