//! Signal-chain composition: from components to a rendered waveform.
//!
//! ATE signal paths are engineered by budget: each stage contributes random
//! jitter (summing in quadrature), bounded deterministic jitter (summing
//! linearly), and bandwidth (20–80 % times cascading root-sum-square). A
//! [`SignalChain`] accumulates those contributions from the concrete
//! components in this crate and renders bit streams into analog waveforms
//! whose *measured* eyes land where the paper's oscilloscope photos do.
//!
//! Two calibrated presets reproduce the paper's two systems:
//!
//! * [`SignalChain::testbed_transmitter`] — the Optical Test Bed output
//!   path (§3): SiGe buffers, ~3.2 ps rms RJ (Fig. 9), ≈47 ps total jitter
//!   on PRBS eyes (Figs. 7–8).
//! * [`SignalChain::minitester_datapath`] — the wafer-prober path (§4):
//!   two 8:1 groups + final 2:1, 120 ps CMOS output buffer, ≈50 ps total
//!   jitter (Figs. 16–19).

use core::fmt;

use pstime::{DataRate, Duration, UnitInterval};
use signal::jitter::{
    gaussian_extreme_q, DutyCycleDistortion, IsiJitter, JitterBudget, RandomJitter,
};
use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, LevelSet};

use crate::buffer::{CmosIoBuffer, SiGeOutputBuffer};
use crate::clock::{ClockFanout, RfClockSource};
use crate::mux::MuxTree;
use crate::{PeclError, Result};

/// A composed PECL signal path with an accumulated impairment budget.
///
/// Build one from components with the `add_*` methods, or use a calibrated
/// preset. Then [`render`](SignalChain::render) bit streams through it.
///
/// # Examples
///
/// ```
/// use pecl::chain::SignalChain;
/// use pecl::SiGeOutputBuffer;
/// use pstime::DataRate;
/// use signal::BitStream;
///
/// let chain = SignalChain::builder("custom").add_sige_buffer(&SiGeOutputBuffer::new()).build();
/// let wave = chain.render(&BitStream::alternating(64), DataRate::from_gbps(2.5), 1)?;
/// assert_eq!(wave.digital().num_edges(), 63);
/// # Ok::<(), pecl::PeclError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SignalChain {
    name: String,
    rj_rms_sq_fs2: f64,
    dcd: Duration,
    isi_max: Duration,
    isi_tau_bits: f64,
    shape: EdgeShape,
    levels: LevelSet,
    max_rate_gbps: f64,
    stages: Vec<String>,
}

impl SignalChain {
    /// Starts an empty chain builder.
    pub fn builder(name: impl Into<String>) -> SignalChainBuilder {
        SignalChainBuilder {
            chain: SignalChain {
                name: name.into(),
                rj_rms_sq_fs2: 0.0,
                dcd: Duration::ZERO,
                isi_max: Duration::ZERO,
                isi_tau_bits: 1.0,
                shape: EdgeShape::from_rise_2080_ps(30.0), // bare PECL edge
                levels: LevelSet::pecl(),
                max_rate_gbps: 10.0,
                stages: Vec::new(),
            },
        }
    }

    /// The Optical Test Bed transmitter path (§3), calibrated so that:
    /// single-edge jitter ≈ 3.2 ps rms / 24 ps p-p (Fig. 9), PRBS total
    /// jitter ≈ 47 ps p-p at 2.5 and 4.0 Gbps (Figs. 7–8), transitions
    /// 70–75 ps (Fig. 6).
    pub fn testbed_transmitter() -> Self {
        use pstime::Frequency;
        let clock = RfClockSource::new(Frequency::from_ghz(1.25), Duration::from_ps_f64(1.6));
        let fanout = ClockFanout::new(8, Duration::from_ps_f64(1.2));
        // xlint::allow(no-panic-in-lib, MuxTree::new only fails on a non-power-of-two way count and 8 is constant)
        let tree = MuxTree::new(8).expect("8 is a power of two");
        let buffer = SiGeOutputBuffer::new();
        let mut chain = SignalChain::builder("optical-testbed-tx")
            .add_clock(&clock)
            .add_fanout(&fanout)
            .add_mux_tree(&tree)
            .add_sige_buffer(&buffer)
            .build();
        // Board-level data-dependent jitter (connectors, AC coupling):
        // sized so PRBS TJ lands at the measured ~47 ps.
        chain.add_isi(Duration::from_ps(13), 1.0);
        chain.add_rj(Duration::from_ps_f64(2.2)); // residual supply/thermal
        chain.add_dcd(Duration::from_ps(6));
        chain
    }

    /// The miniature wafer-prober datapath (§4): two 8:1 groups + final
    /// 2:1, 120 ps output buffer. Calibrated to Figs. 16–19: ≈50 ps p-p
    /// total jitter ⇒ 0.95 / 0.87 / 0.75 UI eyes at 1.0 / 2.5 / 5.0 Gbps.
    pub fn minitester_datapath() -> Self {
        use pstime::Frequency;
        let clock = RfClockSource::new(Frequency::from_ghz(1.25), Duration::from_ps_f64(1.8));
        let fanout = ClockFanout::new(4, Duration::from_ps_f64(1.4));
        // xlint::allow(no-panic-in-lib, MuxTree::new only fails on a non-power-of-two way count and 8 is constant)
        let tree = MuxTree::new(8).expect("8 is a power of two");
        let final_mux = crate::mux::Mux2::new();
        let buffer = CmosIoBuffer::new();
        let mut chain = SignalChain::builder("minitester-datapath")
            .add_clock(&clock)
            .add_fanout(&fanout)
            .add_mux_tree(&tree)
            .add_mux2(&final_mux)
            .add_cmos_buffer(&buffer)
            .build();
        chain.add_isi(Duration::from_ps(13), 1.0);
        chain.add_rj(Duration::from_ps_f64(1.6));
        chain.add_dcd(Duration::from_ps(3));
        chain
    }

    /// The chain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds raw Gaussian jitter (quadrature).
    pub fn add_rj(&mut self, rms: Duration) {
        let fs = rms.as_fs() as f64;
        self.rj_rms_sq_fs2 += fs * fs;
        self.stages.push(format!("rj +{rms}"));
    }

    /// Adds raw duty-cycle distortion (linear).
    pub fn add_dcd(&mut self, pp: Duration) {
        self.dcd += pp;
        self.stages.push(format!("dcd +{pp}"));
    }

    /// Adds data-dependent jitter with a settling constant in bit periods.
    pub fn add_isi(&mut self, max: Duration, tau_bits: f64) {
        self.isi_max += max;
        self.isi_tau_bits = tau_bits;
        self.stages.push(format!("isi +{max}"));
    }

    /// Total random jitter (rms, quadrature sum).
    pub fn rj_rms(&self) -> Duration {
        Duration::from_fs(self.rj_rms_sq_fs2.sqrt().round() as i64)
    }

    /// Total bounded deterministic jitter (peak-to-peak, linear sum).
    pub fn dj_pp(&self) -> Duration {
        self.dcd + self.isi_max
    }

    /// The output transition shape after all bandwidth cascades.
    pub fn shape(&self) -> &EdgeShape {
        &self.shape
    }

    /// The programmed output levels.
    pub fn levels(&self) -> &LevelSet {
        &self.levels
    }

    /// Reprograms the output levels (the DAC write path of Figs. 10–11).
    pub fn set_levels(&mut self, levels: LevelSet) {
        self.levels = levels;
    }

    /// The path's maximum usable rate.
    pub fn max_rate_gbps(&self) -> f64 {
        self.max_rate_gbps
    }

    /// The composite jitter model all of this chain's edges see.
    pub fn jitter_budget(&self) -> JitterBudget {
        let mut budget = JitterBudget::new();
        let rj = self.rj_rms();
        if !rj.is_zero() {
            budget = budget.with_model(RandomJitter::new(rj));
        }
        if !self.dcd.is_zero() {
            budget = budget.with_model(DutyCycleDistortion::new(self.dcd));
        }
        if !self.isi_max.is_zero() {
            budget = budget.with_model(IsiJitter::new(self.isi_max, self.isi_tau_bits));
        }
        budget
    }

    /// Predicted total peak-to-peak jitter over `n_edges` observations
    /// (`DJ + 2·Q(n)·RJ`).
    fn predicted_tj_pp(&self, n_edges: u64) -> Duration {
        self.dj_pp() + self.rj_rms().mul_f64(2.0 * gaussian_extreme_q(n_edges))
    }

    /// Predicted horizontal eye opening at `rate` over `n_edges`.
    pub fn predicted_opening(&self, rate: DataRate, n_edges: u64) -> UnitInterval {
        (UnitInterval::ONE - UnitInterval::from_duration(self.predicted_tj_pp(n_edges), rate))
            .clamp_unit()
    }

    /// Checks `rate` against the chain's rate limit, as
    /// [`render`](Self::render) does.
    ///
    /// # Errors
    ///
    /// [`PeclError::RateTooHigh`] beyond the chain's rate limit.
    pub fn check_rate(&self, rate: DataRate) -> Result<()> {
        if rate.as_gbps() > self.max_rate_gbps {
            return Err(PeclError::RateTooHigh {
                requested_gbps: rate.as_gbps(),
                limit_gbps: self.max_rate_gbps,
            });
        }
        Ok(())
    }

    /// Renders a serial bit stream through the chain at `rate`.
    ///
    /// # Errors
    ///
    /// [`PeclError::RateTooHigh`] beyond the chain's rate limit.
    pub fn render(&self, bits: &BitStream, rate: DataRate, seed: u64) -> Result<AnalogWaveform> {
        self.check_rate(rate)?;
        let budget = self.jitter_budget();
        let digital = DigitalWaveform::from_bits(bits, rate, &budget, seed);
        Ok(AnalogWaveform::new(digital, self.levels, self.shape))
    }

    /// Serializes 16 parallel lanes (two 8:1 groups into a final 2:1, the
    /// mini-tester topology) and renders at `out_rate`.
    ///
    /// # Errors
    ///
    /// [`PeclError::LaneMismatch`] for a wrong lane count;
    /// [`PeclError::RateTooHigh`] beyond the rate limit.
    pub fn serialize_16(
        &self,
        lanes: &[BitStream],
        out_rate: DataRate,
        seed: u64,
    ) -> Result<AnalogWaveform> {
        if lanes.len() != 16 {
            return Err(PeclError::LaneMismatch { expected: 16, got: lanes.len() });
        }
        // xlint::allow(no-panic-in-lib, MuxTree::new only fails on a non-power-of-two way count and 8 is constant)
        let tree = MuxTree::new(8).expect("8 is a power of two");
        let group_a = tree.serialize(&lanes[..8])?; // xlint::allow(panic-reachable, the LaneMismatch guard above pins lanes.len() to 16)
        let group_b = tree.serialize(&lanes[8..])?;
        let final_mux = crate::mux::Mux2::new();
        let serial = final_mux.serialize(&group_a, &group_b)?;
        self.render(&serial, out_rate, seed)
    }
}

impl fmt::Display for SignalChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: RJ {} rms, DJ {} p-p, rise {} (max {} Gbps, {} stages)",
            self.name,
            self.rj_rms(),
            self.dj_pp(),
            self.shape.rise_2080(),
            self.max_rate_gbps,
            self.stages.len()
        )
    }
}

/// Builder accumulating components into a [`SignalChain`].
#[derive(Debug, Clone)]
pub struct SignalChainBuilder {
    chain: SignalChain,
}

impl SignalChainBuilder {
    /// Adds the RF reference clock's phase jitter.
    #[must_use]
    fn add_clock(mut self, clock: &RfClockSource) -> Self {
        self.chain.add_rj(clock.rj_rms());
        let n = self.chain.stages.len();
        self.chain.stages[n - 1] =
            format!("rf-clock {} ({} rms)", clock.frequency(), clock.rj_rms());
        self
    }

    /// Adds a clock fanout's additive jitter.
    #[must_use]
    fn add_fanout(mut self, fanout: &ClockFanout) -> Self {
        self.chain.add_rj(fanout.added_rj());
        let n = self.chain.stages.len();
        self.chain.stages[n - 1] =
            format!("clock-fanout x{} (+{} rms)", fanout.outputs(), fanout.added_rj());
        self
    }

    /// Adds a mux tree's DCD, RJ, and rate limit.
    #[must_use]
    fn add_mux_tree(mut self, tree: &MuxTree) -> Self {
        self.chain.dcd += tree.total_dcd();
        let fs = tree.total_added_rj().as_fs() as f64;
        self.chain.rj_rms_sq_fs2 += fs * fs;
        self.chain.max_rate_gbps = self.chain.max_rate_gbps.min(tree.max_rate_gbps());
        self.chain.stages.push(format!("mux-tree {}:1", tree.ways()));
        self
    }

    /// Adds a single 2:1 mux stage.
    #[must_use]
    fn add_mux2(mut self, mux: &crate::mux::Mux2) -> Self {
        self.chain.dcd += mux.dcd();
        let fs = mux.added_rj().as_fs() as f64;
        self.chain.rj_rms_sq_fs2 += fs * fs;
        self.chain.max_rate_gbps = self.chain.max_rate_gbps.min(mux.max_rate_gbps());
        self.chain.stages.push("mux 2:1".to_string());
        self
    }

    /// Adds the SiGe output buffer: sets the output shape and levels.
    #[must_use]
    pub fn add_sige_buffer(mut self, buffer: &SiGeOutputBuffer) -> Self {
        self.chain.shape = *buffer.shape();
        self.chain.levels = *buffer.levels();
        let fs = buffer.added_rj().as_fs() as f64;
        self.chain.rj_rms_sq_fs2 += fs * fs;
        self.chain.stages.push("sige-buffer".to_string());
        self
    }

    /// Adds the slower CMOS I/O buffer: sets shape/levels and a 5 Gbps
    /// ceiling.
    #[must_use]
    fn add_cmos_buffer(mut self, buffer: &CmosIoBuffer) -> Self {
        self.chain.shape = *buffer.shape();
        self.chain.levels = *buffer.levels();
        let fs = buffer.added_rj().as_fs() as f64;
        self.chain.rj_rms_sq_fs2 += fs * fs;
        self.chain.max_rate_gbps = self.chain.max_rate_gbps.min(5.0);
        self.chain.stages.push("cmos-io-buffer".to_string());
        self
    }

    /// Finishes the chain.
    pub fn build(self) -> SignalChain {
        self.chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::EyeDiagram;

    #[test]
    fn testbed_chain_budget_matches_fig9() {
        let chain = SignalChain::testbed_transmitter();
        // Single-edge RJ: ~3.2 ps rms => ~24 ps p-p over 1e4 acquisitions.
        let rms = chain.rj_rms().as_ps_f64();
        assert!((rms - 3.2).abs() < 0.4, "RJ rms {rms} ps, expected ~3.2");
        let pp = chain.rj_rms().mul_f64(2.0 * gaussian_extreme_q(10_000));
        assert!(
            (pp.as_ps_f64() - 24.0).abs() < 3.0,
            "single-edge p-p {} ps, expected ~24",
            pp.as_ps_f64()
        );
    }

    #[test]
    fn testbed_chain_predicts_fig7_eye() {
        let chain = SignalChain::testbed_transmitter();
        let opening = chain.predicted_opening(DataRate::from_gbps(2.5), 4000);
        assert!(
            (opening.value() - 0.88).abs() < 0.02,
            "predicted opening {opening} at 2.5 Gbps, expected ~0.88 UI"
        );
        let opening4 = chain.predicted_opening(DataRate::from_gbps(4.0), 4000);
        assert!(
            (opening4.value() - 0.81).abs() < 0.03,
            "predicted opening {opening4} at 4 Gbps, expected ~0.81 UI"
        );
    }

    #[test]
    fn minitester_chain_predicts_fig16_19_eyes() {
        let chain = SignalChain::minitester_datapath();
        let cases = [(1.0, 0.95), (2.5, 0.87), (5.0, 0.75)];
        for (gbps, want) in cases {
            let got = chain.predicted_opening(DataRate::from_gbps(gbps), 4000);
            assert!(
                (got.value() - want).abs() < 0.025,
                "at {gbps} Gbps predicted {got}, paper says ~{want} UI"
            );
        }
    }

    #[test]
    fn rendered_eye_matches_prediction() {
        // End-to-end: render PRBS-ish data and measure the eye.
        let chain = SignalChain::testbed_transmitter();
        let rate = DataRate::from_gbps(2.5);
        // Use a mixed pattern with runs (ISI needs them).
        let mut bits = BitStream::new();
        let mut lfsr_state = 0xACE1u32;
        for _ in 0..4000 {
            let bit = lfsr_state & 1 == 1;
            let fb = (lfsr_state ^ (lfsr_state >> 1)) & 1;
            lfsr_state = (lfsr_state >> 1) | (fb << 14);
            bits.push(bit);
        }
        let wave = chain.render(&bits, rate, 42).unwrap();
        let eye = EyeDiagram::analyze(&wave, rate).unwrap();
        let measured = eye.jitter_pp().as_ps_f64();
        assert!((40.0..55.0).contains(&measured), "measured TJ {measured} ps, expected ~47");
        let opening = eye.opening_ui().value();
        assert!((opening - 0.88).abs() < 0.03, "measured opening {opening}");
    }

    #[test]
    fn rate_limit_enforced() {
        let chain = SignalChain::minitester_datapath();
        let err =
            chain.render(&BitStream::alternating(16), DataRate::from_gbps(6.0), 0).unwrap_err();
        assert!(matches!(err, PeclError::RateTooHigh { .. }));
        assert!((chain.max_rate_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn serialize_16_lane_structure() {
        let chain = SignalChain::minitester_datapath();
        let lanes: Vec<BitStream> = (0..16).map(|_| BitStream::alternating(8)).collect();
        let wave = chain.serialize_16(&lanes, DataRate::from_gbps(5.0), 1).unwrap();
        assert_eq!(wave.digital().span(), DataRate::from_gbps(5.0).unit_interval() * 128);
        assert!(chain.serialize_16(&lanes[..8], DataRate::from_gbps(5.0), 1).is_err());
    }

    #[test]
    fn builder_accumulates_stages() {
        let chain = SignalChain::testbed_transmitter();
        assert!(chain.name().contains("testbed"));
        let text = chain.to_string();
        assert!(text.contains("RJ"));
        assert!(text.contains("DJ"));
    }

    #[test]
    fn levels_reprogramming() {
        let mut chain = SignalChain::testbed_transmitter();
        let reduced = LevelSet::pecl().with_swing(pstime::Millivolts::new(400));
        chain.set_levels(reduced);
        assert_eq!(chain.levels().swing(), pstime::Millivolts::new(400));
        let wave = chain.render(&BitStream::alternating(8), DataRate::from_gbps(1.25), 0).unwrap();
        assert_eq!(wave.levels().swing(), pstime::Millivolts::new(400));
    }
}
