//! The mini-tester stimulus datapath.
//!
//! "Since the CMOS I/O in the DLC is limited to about 300–400 Mbps per
//! signal, two groups of eight such signals are multiplexed to form two
//! independent data sources at higher speeds (up to 2.5 Gbps). These are
//! then combined in a second-stage multiplexer to obtain double the final
//! signal (up to 5.0 Gbps)" (§4).

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dlc::{Bitstream, DigitalLogicCore, IoBlock, PatternKind};
use pecl::SignalChain;
use pstime::DataRate;
use signal::{AnalogWaveform, BitStream, LevelSet};

use crate::{MiniTesterError, Result};

/// Number of CMOS lanes feeding the serializer (two groups of eight).
pub const LANES: usize = 16;

/// How many lane patterns [`MiniTesterDatapath::pattern`] keeps: this
/// many (rate, length) keys at most, the least recently used dropped
/// first. A 65,536-bit pattern (the `atd` service's ceiling) holds about
/// 128 KB, so a full memo stays near 2 MB.
pub const PATTERN_MEMO_ENTRIES: usize = 16;

/// One stimulus pattern as the DLC generated it: 16 equal, nonempty CMOS
/// lanes at a serial rate, and the serial bits the two-stage mux makes of
/// them. [`MiniTesterDatapath::render`] turns it into a stimulus with any
/// seed, and its [`bits`](Self::bits) are what the receive side checks.
#[derive(Debug, Clone, PartialEq)]
pub struct LanePattern {
    rate: DataRate,
    lanes: Vec<BitStream>,
    bits: BitStream,
}

impl LanePattern {
    /// Interleaves the 16 lanes in the two-stage mux's serial order.
    fn new(rate: DataRate, lanes: Vec<BitStream>) -> Self {
        let reordered: Vec<BitStream> =
            (0..LANES).map(|i| lanes[serial_lane_for_position(i)].clone()).collect(); // xlint::allow(panic-reachable, both constructors pass exactly LANES lanes and serial_lane_for_position maps 0..LANES into 0..LANES)
        LanePattern { rate, bits: BitStream::interleave(&reordered), lanes }
    }

    /// The serial bits the rendered lanes carry.
    pub fn bits(&self) -> &BitStream {
        &self.bits
    }
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

/// Rejects a length the 16 lanes cannot carry evenly (it would drop bits
/// or leave unequal lanes) and an empty one, which would compare nothing.
fn check_length(n_bits: usize) -> Result<()> {
    if n_bits == 0 || !n_bits.is_multiple_of(LANES) {
        return Err(MiniTesterError::BadTestPlan {
            reason: "stimulus length must be a positive multiple of the 16 lanes",
        });
    }
    Ok(())
}

/// The stimulus datapath: a booted DLC feeding the calibrated mini-tester
/// PECL chain through the two-stage mux.
///
/// The DLC sits behind a lock with the patterns it has built, so one
/// datapath serves many threads: [`pattern`](Self::pattern) builds or
/// reuses a pattern under that lock, and [`render`](Self::render) needs
/// only the chain.
///
/// # Examples
///
/// ```
/// use minitester::MiniTesterDatapath;
/// use pstime::{DataRate, Duration};
///
/// let mut path = MiniTesterDatapath::new()?;
/// let rate = DataRate::from_gbps(5.0);
/// let pattern = path.prbs_pattern(rate, 1_024)?;
/// let wave = path.render(&pattern, 3)?;
/// assert_eq!(wave.digital().span(), rate.unit_interval() * 1_024);
/// // Mid-bit sampling of the clean digital edges recovers the pattern.
/// assert_eq!(&wave.digital().to_bits(rate, Duration::from_ps(100)), pattern.bits());
/// # Ok::<(), minitester::MiniTesterError>(())
/// ```
#[derive(Debug)]
pub struct MiniTesterDatapath {
    dlc: Mutex<Dlc>,
    chain: SignalChain,
}

/// The booted DLC and the PRBS patterns it built, most recently used
/// first.
#[derive(Debug)]
struct Dlc {
    core: DigitalLogicCore,
    patterns: Vec<Arc<LanePattern>>,
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
        Ok(MiniTesterDatapath {
            dlc: Mutex::new(Dlc { core, patterns: Vec::new() }),
            chain: SignalChain::minitester_datapath(),
        })
    }

    /// The DLC, for a caller that holds the datapath exclusively. Every
    /// pattern build reconfigures the lanes it uses from scratch, so a
    /// DLC left by a panicking holder is as good as any other.
    fn dlc_mut(&mut self) -> &mut Dlc {
        self.dlc.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The PECL chain (for level programming and budget queries).
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }

    /// Reprograms output levels.
    pub fn set_levels(&mut self, levels: LevelSet) {
        self.chain.set_levels(levels);
    }

    /// Checks, without booting the DLC, that
    /// [`prbs_pattern`](Self::prbs_pattern) and [`render`](Self::render)
    /// accept an `n_bits` stimulus at `rate`. It runs their own checks in
    /// their order: the 16-lane length, the DLC pins' derated per-lane
    /// rate, then the PECL chain's rate limit.
    ///
    /// # Errors
    ///
    /// [`MiniTesterError::BadTestPlan`] for the length; the DLC's or the
    /// PECL chain's `RateTooHigh` for the rate.
    pub fn check_stimulus(rate: DataRate, n_bits: usize) -> Result<()> {
        static CHAIN: OnceLock<SignalChain> = OnceLock::new();
        check_length(n_bits)?;
        IoBlock::new().check_rate(Self::lane_rate(rate))?;
        CHAIN.get_or_init(SignalChain::minitester_datapath).check_rate(rate)?;
        Ok(())
    }

    /// The per-lane CMOS rate needed for a serial output rate
    /// (`rate / 16`): 312.5 Mbps at the 5 Gbps target — inside the
    /// 300–400 Mbps comfort band the paper quotes.
    pub fn lane_rate(rate: DataRate) -> DataRate {
        rate.demux(LANES as u64)
    }

    /// Hashed per-lane LFSR seed: the first ~15 output bits of a Fibonacci
    /// LFSR are the seed's low bits, so structured (e.g. arithmetic) seeds
    /// would correlate the early columns of the mux output.
    fn lane_seed(lane: usize) -> u32 {
        let h = (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 29) as u32) | 1
    }

    /// Generates an `n_bits`-long PRBS pattern at `rate`: 16 decorrelated
    /// PRBS-15 lanes, each discarding one LFSR length of warm-up bits. Each
    /// call reconfigures every lane from its fixed seed, so the pattern
    /// depends on `rate` and `n_bits` alone.
    ///
    /// # Errors
    ///
    /// [`MiniTesterError::BadTestPlan`] unless `n_bits` is a positive
    /// multiple of 16; DLC channel configuration errors otherwise.
    pub fn prbs_pattern(&mut self, rate: DataRate, n_bits: usize) -> Result<LanePattern> {
        prbs(&mut self.dlc_mut().core, rate, n_bits)
    }

    /// The PRBS pattern [`prbs_pattern`](Self::prbs_pattern) builds for
    /// `rate` and `n_bits`, shared. A pattern depends on those two alone,
    /// so this datapath keeps the last [`PATTERN_MEMO_ENTRIES`] it built
    /// and hands out the kept one; a miss builds it on the calling thread
    /// under the DLC's lock. Call it before fanning work out over a pool,
    /// never inside a pool job.
    ///
    /// # Errors
    ///
    /// As [`prbs_pattern`](Self::prbs_pattern); nothing is kept then.
    pub fn pattern(&self, rate: DataRate, n_bits: usize) -> Result<Arc<LanePattern>> {
        let mut dlc = self.dlc.lock().unwrap_or_else(PoisonError::into_inner);
        let kept = dlc.patterns.iter().position(|p| p.rate == rate && p.bits.len() == n_bits);
        let pattern = match kept {
            Some(i) => dlc.patterns.remove(i),
            None => {
                let built = Arc::new(prbs(&mut dlc.core, rate, n_bits)?);
                dlc.patterns.truncate(PATTERN_MEMO_ENTRIES - 1);
                built
            }
        };
        dlc.patterns.insert(0, Arc::clone(&pattern));
        Ok(pattern)
    }

    /// How many patterns [`pattern`](Self::pattern) keeps right now; never
    /// more than [`PATTERN_MEMO_ENTRIES`].
    pub fn kept_patterns(&self) -> usize {
        self.dlc.lock().unwrap_or_else(PoisonError::into_inner).patterns.len()
    }

    /// Loads an explicit serial pattern at `rate` by splitting it across
    /// the 16 lanes (what the real tester's pattern compiler does), so
    /// that the pattern's [`bits`](LanePattern::bits) equal `serial`.
    ///
    /// # Errors
    ///
    /// [`MiniTesterError::BadTestPlan`] unless `serial`'s length is a
    /// positive multiple of 16; DLC errors otherwise.
    pub fn explicit_pattern(&mut self, serial: &BitStream, rate: DataRate) -> Result<LanePattern> {
        check_length(serial.len())?;
        let lane_rate = Self::lane_rate(rate);
        // Split the serial pattern so that the two-stage mux reassembles it
        // in order: serial position i lands on physical lane i/2 (group A)
        // or 8 + i/2 (group B).
        let round_robin = serial.deinterleave(LANES);
        let mut lanes = vec![BitStream::new(); LANES];
        for (i, stream) in round_robin.into_iter().enumerate() {
            lanes[serial_lane_for_position(i)] = stream;
        }
        // Load each lane into the DLC as an explicit pattern to keep the
        // control flow identical to hardware operation.
        let core = &mut self.dlc_mut().core;
        for (i, lane) in lanes.iter().enumerate() {
            core.configure_channel(i, PatternKind::Explicit(lane.clone()), lane_rate)?;
        }
        let regenerated =
            (0..LANES).map(|i| core.generate(i, lanes[i].len())).collect::<dlc::Result<_>>()?;
        Ok(LanePattern::new(rate, regenerated))
    }

    /// Renders `pattern`'s lanes through the 8:1 + 8:1 + 2:1 mux and this
    /// datapath's PECL chain at the pattern's rate. Needs no DLC state.
    ///
    /// # Errors
    ///
    /// Propagates PECL rate errors.
    pub fn render(&self, pattern: &LanePattern, seed: u64) -> Result<AnalogWaveform> {
        Ok(self.chain.serialize_16(&pattern.lanes, pattern.rate, seed)?)
    }
}

/// [`MiniTesterDatapath::prbs_pattern`] on a DLC borrowed either
/// exclusively or under the datapath's lock.
fn prbs(core: &mut DigitalLogicCore, rate: DataRate, n_bits: usize) -> Result<LanePattern> {
    check_length(n_bits)?;
    let lane_rate = MiniTesterDatapath::lane_rate(rate);
    for lane in 0..LANES {
        core.configure_channel(
            lane,
            PatternKind::Prbs15 { seed: MiniTesterDatapath::lane_seed(lane) },
            lane_rate,
        )?;
    }
    let lane_bits = n_bits / LANES;
    let lanes = (0..LANES)
        .map(|lane| {
            let _warmup = core.generate(lane, 16)?;
            core.generate(lane, lane_bits)
        })
        .collect::<dlc::Result<_>>()?;
    Ok(LanePattern::new(rate, lanes))
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
        let pattern = path.prbs_pattern(rate, 512).unwrap();
        let wave = path.render(&pattern, 1).unwrap();
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
            let pattern = path.prbs_pattern(rate, 4_096).unwrap();
            let wave = path.render(&pattern, 5).unwrap();
            let eye = EyeDiagram::analyze(&wave, rate).unwrap();
            let got = eye.opening_ui().value();
            assert!((got - want).abs() < tol, "at {gbps} Gbps measured {got}, paper ~{want} UI");
        }
    }

    #[test]
    fn five_gbps_jitter_is_about_50ps() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(5.0);
        let pattern = path.prbs_pattern(rate, 4_096).unwrap();
        let wave = path.render(&pattern, 9).unwrap();
        let eye = EyeDiagram::analyze(&wave, rate).unwrap();
        let jitter = eye.jitter_pp().as_ps_f64();
        assert!((43.0..57.0).contains(&jitter), "jitter {jitter} ps, expected ~50");
    }

    #[test]
    fn pattern_stimulus_round_trips_the_bits() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(1.0);
        let pattern = BitStream::from_str_bits("1011001110001011").repeat(16);
        let lanes = path.explicit_pattern(&pattern, rate).unwrap();
        assert_eq!(lanes.bits(), &pattern);
        let wave = path.render(&lanes, 2).unwrap();
        let recovered = wave.digital().to_bits(rate, Duration::from_ps(500));
        let (errors, compared) = recovered.hamming_distance(&pattern);
        assert_eq!(compared, 256);
        assert_eq!(errors, 0, "clean mid-bit sampling must recover the pattern");
    }

    #[test]
    fn prbs_patterns_depend_on_rate_and_bits_alone() {
        // A datapath whose channels were last programmed at another rate
        // and with an explicit pattern must build the same PRBS pattern as
        // a freshly booted one.
        let mut used = MiniTesterDatapath::new().unwrap();
        for (gbps, bits) in [(1.0, 64), (2.5, 256), (3.125, 512), (5.0, 1_024), (6.0, 2_048)] {
            let rate = DataRate::from_gbps(gbps);
            let other = DataRate::from_gbps(7.0 - gbps);
            used.prbs_pattern(other, 2 * bits).unwrap();
            used.explicit_pattern(&BitStream::from_str_bits("0011").repeat(bits / 4), other)
                .unwrap();
            let pattern = used.prbs_pattern(rate, bits).unwrap();
            let fresh = MiniTesterDatapath::new().unwrap().prbs_pattern(rate, bits).unwrap();
            assert_eq!(pattern, fresh, "{gbps} Gbps, {bits} bits");
            assert_eq!(pattern.bits().len(), bits);
            // The rendered wave carries the pattern's serial bits; the
            // PECL chain refuses rates past its 5 Gbps limit.
            match used.render(&pattern, 3) {
                Ok(wave) => {
                    let mid_bit = rate.unit_interval() / 2;
                    assert_eq!(&wave.digital().to_bits(rate, mid_bit), pattern.bits());
                }
                Err(e) => assert!(gbps > 5.0, "{gbps} Gbps: {e}"),
            }
        }
    }

    #[test]
    fn stimulus_lengths_must_fill_the_16_lanes() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let rate = DataRate::from_gbps(2.5);
        for bits in [0, 1, 15, 100] {
            assert!(path.prbs_pattern(rate, bits).is_err(), "{bits} bits");
            assert!(path.explicit_pattern(&BitStream::alternating(bits), rate).is_err());
        }
        assert_eq!(path.prbs_pattern(rate, 16).unwrap().bits().len(), 16);
    }

    #[test]
    fn level_programming() {
        let mut path = MiniTesterDatapath::new().unwrap();
        let reduced = LevelSet::pecl().with_swing(pstime::Millivolts::new(400));
        path.set_levels(reduced);
        assert_eq!(path.chain().levels().swing(), pstime::Millivolts::new(400));
    }
}
