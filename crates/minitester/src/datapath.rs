//! The mini-tester stimulus datapath.
//!
//! "Since the CMOS I/O in the DLC is limited to about 300–400 Mbps per
//! signal, two groups of eight such signals are multiplexed to form two
//! independent data sources at higher speeds (up to 2.5 Gbps). These are
//! then combined in a second-stage multiplexer to obtain double the final
//! signal (up to 5.0 Gbps)" (§4).

use dlc::{Bitstream, DigitalLogicCore, PatternKind};
use pecl::SignalChain;
use pstime::DataRate;
use signal::{AnalogWaveform, BitStream, LevelSet};

use crate::Result;

/// Number of CMOS lanes feeding the serializer (two groups of eight).
pub const LANES: usize = 16;

/// The stimulus datapath: a booted DLC feeding the calibrated mini-tester
/// PECL chain through the two-stage mux.
///
/// # Examples
///
/// ```
/// use minitester::MiniTesterDatapath;
/// use pstime::DataRate;
///
/// let mut path = MiniTesterDatapath::new()?;
/// let wave = path.prbs_stimulus(DataRate::from_gbps(5.0), 1_024, 3)?;
/// assert_eq!(wave.digital().span(), DataRate::from_gbps(5.0).unit_interval() * 1_024);
/// # Ok::<(), minitester::MiniTesterError>(())
/// ```
#[derive(Debug)]
pub struct MiniTesterDatapath {
    core: DigitalLogicCore,
    chain: SignalChain,
}

impl MiniTesterDatapath {
    /// Boots the embedded DLC and attaches the calibrated datapath chain.
    ///
    /// # Errors
    ///
    /// Propagates DLC boot failures.
    pub fn new() -> Result<Self> {
        let mut core = DigitalLogicCore::new();
        core.program_flash_via_jtag(&Bitstream::example_design())?;
        core.power_up()?;
        Ok(MiniTesterDatapath { core, chain: SignalChain::minitester_datapath() })
    }

    /// The PECL chain (for level programming and budget queries).
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }

    /// Mutable chain access.
    pub fn chain_mut(&mut self) -> &mut SignalChain {
        &mut self.chain
    }

    /// Reprograms output levels.
    pub fn set_levels(&mut self, levels: LevelSet) {
        self.chain.set_levels(levels);
    }

    /// The per-lane CMOS rate needed for a serial output rate
    /// (`rate / 16`): 312.5 Mbps at the 5 Gbps target — inside the
    /// 300–400 Mbps comfort band the paper quotes.
    pub fn lane_rate(rate: DataRate) -> DataRate {
        rate.demux(LANES as u64)
    }

    /// The serial bit order of the two-stage mux: the final 2:1 alternates
    /// between group A (lanes 0–7) and group B (lanes 8–15), so serial
    /// position `i` carries physical lane `i/2` (even `i`) or `8 + i/2`
    /// (odd `i`).
    fn serial_lane_for_position(i: usize) -> usize {
        if i.is_multiple_of(2) {
            i / 2
        } else {
            8 + i / 2
        }
    }

    /// Interleaves 16 physical lanes in the two-stage mux's serial order:
    /// the serial bits the rendered lanes carry.
    pub(crate) fn two_stage_interleave(lanes: &[BitStream]) -> BitStream {
        let reordered: Vec<BitStream> =
            (0..LANES).map(|i| lanes[Self::serial_lane_for_position(i)].clone()).collect(); // xlint::allow(panic-reachable, callers pass exactly LANES lanes and serial_lane_for_position maps 0..LANES into 0..LANES)
        BitStream::interleave(&reordered)
    }

    /// Generates a PRBS stimulus at `rate` by running 16 decorrelated
    /// PRBS-15 lanes through the 8:1 + 8:1 + 2:1 mux structure.
    ///
    /// # Errors
    ///
    /// Propagates DLC channel configuration and PECL rate errors.
    pub fn prbs_stimulus(
        &mut self,
        rate: DataRate,
        n_bits: usize,
        seed: u64,
    ) -> Result<AnalogWaveform> {
        let lanes = self.prbs_lanes(rate, n_bits)?;
        self.render_lanes(&lanes, rate, seed)
    }

    /// Renders 16 lanes through the mux structure at `rate`: the analog
    /// half of [`prbs_stimulus`](Self::prbs_stimulus), which needs no DLC
    /// state.
    pub(crate) fn render_lanes(
        &self,
        lanes: &[BitStream],
        rate: DataRate,
        seed: u64,
    ) -> Result<AnalogWaveform> {
        Ok(self.chain.serialize_16(lanes, rate, seed)?)
    }

    /// Hashed per-lane LFSR seed: the first ~15 output bits of a Fibonacci
    /// LFSR are the seed's low bits, so structured (e.g. arithmetic) seeds
    /// would correlate the early columns of the mux output.
    fn lane_seed(lane: usize) -> u32 {
        let h = (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 29) as u32) | 1
    }

    /// Configures and runs the 16 PRBS lanes, discarding one LFSR length of
    /// warm-up bits per lane. Each call reconfigures every lane from its
    /// fixed seed, so the lanes depend only on `rate` and `n_bits`.
    pub(crate) fn prbs_lanes(&mut self, rate: DataRate, n_bits: usize) -> Result<Vec<BitStream>> {
        let lane_rate = Self::lane_rate(rate);
        for lane in 0..LANES {
            self.core.configure_channel(
                lane,
                PatternKind::Prbs15 { seed: Self::lane_seed(lane) },
                lane_rate,
            )?;
        }
        let lane_bits = n_bits / LANES;
        (0..LANES)
            .map(|lane| {
                let _warmup = self.core.generate(lane, 16)?;
                Ok(self.core.generate(lane, lane_bits)?)
            })
            .collect()
    }

    /// Renders an explicit serial pattern at `rate` by splitting it across
    /// the 16 lanes (what the real tester's pattern compiler does).
    ///
    /// # Errors
    ///
    /// Propagates DLC and PECL errors.
    pub fn pattern_stimulus(
        &mut self,
        pattern: &BitStream,
        rate: DataRate,
        seed: u64,
    ) -> Result<AnalogWaveform> {
        let lane_rate = Self::lane_rate(rate);
        // Split the serial pattern so that the two-stage mux reassembles it
        // in order: serial position i lands on physical lane i/2 (group A)
        // or 8 + i/2 (group B).
        let round_robin = pattern.deinterleave(LANES);
        let mut lanes = vec![BitStream::new(); LANES];
        for (i, stream) in round_robin.into_iter().enumerate() {
            lanes[Self::serial_lane_for_position(i)] = stream;
        }
        // Load each lane into the DLC as an explicit pattern to keep the
        // control flow identical to hardware operation.
        for (i, lane) in lanes.iter().enumerate() {
            self.core.configure_channel(i, PatternKind::Explicit(lane.clone()), lane_rate)?;
        }
        let regenerated: Vec<BitStream> = (0..LANES)
            .map(|i| self.core.generate(i, lanes[i].len()))
            .collect::<dlc::Result<_>>()?;
        Ok(self.chain.serialize_16(&regenerated, rate, seed)?)
    }

    /// The serial bit sequence that [`prbs_stimulus`](Self::prbs_stimulus)
    /// will produce for comparison at the receive side (regenerates the
    /// same lanes and muxing without rendering).
    ///
    /// # Errors
    ///
    /// Propagates DLC errors.
    pub fn expected_prbs(&mut self, rate: DataRate, n_bits: usize) -> Result<BitStream> {
        let lanes = self.prbs_lanes(rate, n_bits)?;
        Ok(Self::two_stage_interleave(&lanes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstime::Duration;
    use signal::EyeDiagram;

    #[test]
    fn lane_rate_is_exact() {
        let lane = MiniTesterDatapath::lane_rate(DataRate::from_gbps(5.0));
        assert_eq!(lane.as_bps(), 312_500_000);
        let lane1g = MiniTesterDatapath::lane_rate(DataRate::from_gbps(1.0));
        assert_eq!(lane1g.as_bps(), 62_500_000);
    }

    #[test]
    fn prbs_stimulus_renders_full_span() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(2.5);
        let wave = path.prbs_stimulus(rate, 512, 1).unwrap();
        assert_eq!(wave.digital().span(), rate.unit_interval() * 512);
        // PRBS: roughly half the bits toggle.
        let edges = wave.digital().num_edges();
        assert!(edges > 150 && edges < 350, "edges {edges}");
    }

    #[test]
    fn eye_openings_follow_the_paper_progression() {
        // Figs. 16, 17, 19: 0.95 / 0.87 / 0.75 UI at 1 / 2.5 / 5 Gbps.
        let mut path = MiniTesterDatapath::new().unwrap();
        for (gbps, want, tol) in [(1.0, 0.95, 0.03), (2.5, 0.87, 0.035), (5.0, 0.75, 0.05)] {
            let rate = DataRate::from_gbps(gbps);
            let wave = path.prbs_stimulus(rate, 4_096, 5).unwrap();
            let eye = EyeDiagram::analyze(&wave, rate).unwrap();
            let got = eye.opening_ui().value();
            assert!((got - want).abs() < tol, "at {gbps} Gbps measured {got}, paper ~{want} UI");
        }
    }

    #[test]
    fn five_gbps_jitter_is_about_50ps() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(5.0);
        let wave = path.prbs_stimulus(rate, 4_096, 9).unwrap();
        let eye = EyeDiagram::analyze(&wave, rate).unwrap();
        let jitter = eye.jitter_pp().as_ps_f64();
        assert!((43.0..57.0).contains(&jitter), "jitter {jitter} ps, expected ~50");
    }

    #[test]
    fn pattern_stimulus_round_trips_the_bits() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(1.0);
        let pattern = BitStream::from_str_bits("1011001110001011").repeat(16);
        let wave = path.pattern_stimulus(&pattern, rate, 2).unwrap();
        let recovered = wave.digital().to_bits(rate, Duration::from_ps(500));
        let (errors, compared) = recovered.hamming_distance(&pattern);
        assert_eq!(compared, 256);
        assert_eq!(errors, 0, "clean mid-bit sampling must recover the pattern");
    }

    #[test]
    fn expected_prbs_matches_stimulus_digital_bits() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(2.5);
        let expected = path.expected_prbs(rate, 512).unwrap();
        let mut path2 = MiniTesterDatapath::new().unwrap();
        let wave = path2.prbs_stimulus(rate, 512, 3).unwrap();
        let recovered = wave.digital().to_bits(rate, Duration::from_ps(200));
        let (errors, _) = recovered.hamming_distance(&expected);
        assert_eq!(errors, 0);
    }

    #[test]
    fn level_programming() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let reduced = LevelSet::pecl().with_swing(pstime::Millivolts::new(400));
        path.set_levels(reduced);
        assert_eq!(path.chain().levels().swing(), pstime::Millivolts::new(400));
        let _ = path.chain_mut();
    }
}
