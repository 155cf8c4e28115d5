//! The assembled test system façade.

use pecl::SignalChain;
use pstime::DataRate;
use rng::{SeedTree, StreamId};
use signal::{AnalogWaveform, BitStream, EyeDiagram};

use crate::program::{PatternPlan, TestProgram};
use crate::Result;

/// Substream identity for per-lane PRBS generator seeds.
pub const PRBS_LANE_STREAM: StreamId = StreamId::named("ate.pattern.prbs-lane");

/// Master seed for pattern content. Pattern lanes are part of the *test
/// program*, not the noise realization, so they derive from a fixed master
/// rather than the per-run seed: every run of a program drives the same
/// bits, as a real pattern memory would.
const PATTERN_SEED: u64 = 0x1357;

/// Which of the paper's two systems is instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// The §3 Optical Test Bed transmitter electronics.
    OpticalTestbed,
    /// The §4 miniature wafer-prober datapath.
    MiniTester,
}

/// The result of running one [`TestProgram`].
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// The rendered output waveform.
    pub waveform: AnalogWaveform,
    /// The eye analysis at the program's rate.
    pub eye: EyeDiagram,
    /// The serialized pattern that was driven.
    pub driven_bits: BitStream,
}

/// The complete low-cost test system: booted DLC + calibrated PECL chain,
/// in either of the paper's two configurations.
///
/// # Examples
///
/// ```
/// use ate::{SystemKind, TestProgram, TestSystem};
/// use pstime::DataRate;
///
/// let mut system = TestSystem::mini_tester()?;
/// assert_eq!(system.kind(), SystemKind::MiniTester);
/// let result = system.run(&TestProgram::prbs_eye(DataRate::from_gbps(5.0), 2_048), 1)?;
/// assert!(result.eye.opening_ui().value() > 0.7); // the paper's 0.75 UI
/// # Ok::<(), ate::AteError>(())
/// ```
#[derive(Debug)]
pub struct TestSystem {
    kind: SystemKind,
    core: dlc::DigitalLogicCore,
    chain: SignalChain,
}

impl TestSystem {
    /// Brings up the Optical Test Bed configuration.
    ///
    /// # Errors
    ///
    /// Propagates DLC boot failures.
    pub fn optical_testbed() -> Result<Self> {
        Self::bring_up(SystemKind::OpticalTestbed, SignalChain::testbed_transmitter())
    }

    /// Brings up the mini-tester configuration.
    ///
    /// # Errors
    ///
    /// Propagates DLC boot failures.
    pub fn mini_tester() -> Result<Self> {
        Self::bring_up(SystemKind::MiniTester, SignalChain::minitester_datapath())
    }

    fn bring_up(kind: SystemKind, chain: SignalChain) -> Result<Self> {
        let mut core = dlc::DigitalLogicCore::new();
        core.program_flash_via_jtag(&dlc::Bitstream::example_design())?;
        core.power_up()?;
        Ok(TestSystem { kind, core, chain })
    }

    /// Which configuration this is.
    pub fn kind(&self) -> SystemKind {
        self.kind
    }

    /// The PECL chain (budget queries, level programming).
    pub fn chain(&self) -> &SignalChain {
        &self.chain
    }

    /// Mutable chain access.
    pub fn chain_mut(&mut self) -> &mut SignalChain {
        &mut self.chain
    }

    /// The embedded DLC.
    pub fn core_mut(&mut self) -> &mut dlc::DigitalLogicCore {
        &mut self.core
    }

    /// Produces the serialized pattern bits for a program by running the
    /// DLC pattern engines.
    ///
    /// # Errors
    ///
    /// Propagates DLC errors; `BadProgram` for invalid programs.
    fn synthesize_pattern(&mut self, program: &TestProgram) -> Result<BitStream> {
        program.validate()?;
        let n_bits = program.n_bits();
        match &program.pattern {
            PatternPlan::Fixed(bits) => Ok(bits.clone()),
            PatternPlan::Clock { .. } => Ok(BitStream::alternating(n_bits)),
            PatternPlan::Prbs { .. } => {
                // The test bed serializes 8 lanes per channel, widening to
                // 16 when 8 would push a CMOS pin past its 400 Mbps
                // derating (e.g. the Fig. 8 run at 4 Gbps); the mini-tester
                // always uses its two 8:1 groups (16 lanes).
                let lanes_n: usize = match self.kind {
                    SystemKind::OpticalTestbed
                        if program.timing.rate.demux(8).as_bps() <= 400_000_000 =>
                    {
                        8
                    }
                    _ => 16,
                };
                let lane_rate = program.timing.rate.demux(u64::try_from(lanes_n).unwrap_or(16));
                let lane_tree = SeedTree::new(PATTERN_SEED).derive(PRBS_LANE_STREAM);
                for ch in 0..lanes_n {
                    let lane_seed = lane_tree.channel(u64::try_from(ch).unwrap_or(0)).seed();
                    self.core.configure_channel(
                        ch,
                        dlc::PatternKind::Prbs15 {
                            // Prbs15 keys on the low seed word; masking makes
                            // the truncation explicit and lossless.
                            seed: u32::try_from(lane_seed & 0xFFFF_FFFF).unwrap_or(0),
                        },
                        lane_rate,
                    )?;
                }
                let lane_bits = n_bits / lanes_n;
                let lanes: Vec<BitStream> = (0..lanes_n)
                    .map(|ch| {
                        let _warmup = self.core.generate(ch, 16)?;
                        self.core.generate(ch, lane_bits)
                    })
                    .collect::<dlc::Result<_>>()?;
                Ok(BitStream::interleave(&lanes))
            }
        }
    }

    /// Runs a program: synthesize the pattern, render it through the PECL
    /// chain at the program's levels, and analyze the eye.
    ///
    /// # Errors
    ///
    /// Program validation, DLC, PECL, and eye-analysis errors.
    pub fn run(&mut self, program: &TestProgram, seed: u64) -> Result<ProgramResult> {
        program.validate()?;
        let driven_bits = self.synthesize_pattern(program)?;
        self.chain.set_levels(program.levels.drive);
        let rendered = self.chain.render(&driven_bits, program.timing.rate, seed)?;
        let waveform = if program.timing.launch_delay.is_zero() {
            rendered
        } else {
            AnalogWaveform::new(
                rendered.digital().delayed(program.timing.launch_delay),
                *rendered.levels(),
                *rendered.shape(),
            )
        };
        let eye = EyeDiagram::analyze(&waveform, program.timing.rate)?;
        Ok(ProgramResult { waveform, eye, driven_bits })
    }

    /// Predicted eye opening for this system at `rate` over `n_edges`
    /// (from the chain's analytic budget — what a test engineer quotes
    /// before measuring).
    pub fn predicted_opening(&self, rate: DataRate, n_edges: u64) -> pstime::UnitInterval {
        self.chain.predicted_opening(rate, n_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TestProgram;
    use crate::AteError;
    use pstime::Duration;

    #[test]
    fn testbed_system_reproduces_fig7() {
        let mut system = TestSystem::optical_testbed().unwrap();
        assert_eq!(system.kind(), SystemKind::OpticalTestbed);
        let result =
            system.run(&TestProgram::prbs_eye(DataRate::from_gbps(2.5), 4_096), 3).unwrap();
        let opening = result.eye.opening_ui().value();
        assert!((opening - 0.88).abs() < 0.04, "opening {opening}");
        assert_eq!(result.driven_bits.len(), 4_096);
    }

    #[test]
    fn minitester_system_reproduces_fig19() {
        let mut system = TestSystem::mini_tester().unwrap();
        let result =
            system.run(&TestProgram::prbs_eye(DataRate::from_gbps(5.0), 4_096), 5).unwrap();
        let opening = result.eye.opening_ui().value();
        assert!((opening - 0.75).abs() < 0.05, "opening {opening}");
    }

    #[test]
    fn prediction_matches_measurement() {
        let mut system = TestSystem::optical_testbed().unwrap();
        let rate = DataRate::from_gbps(2.5);
        let predicted = system.predicted_opening(rate, 2_000).value();
        let measured =
            system.run(&TestProgram::prbs_eye(rate, 4_096), 7).unwrap().eye.opening_ui().value();
        assert!((predicted - measured).abs() < 0.05, "pred {predicted} vs meas {measured}");
    }

    #[test]
    fn clock_and_fixed_patterns() {
        let mut system = TestSystem::optical_testbed().unwrap();
        let clock = system.run(&TestProgram::clock(DataRate::from_gbps(1.25), 256), 0).unwrap();
        assert_eq!(clock.driven_bits.transition_count(), 255);
        let fixed = system
            .run(
                &TestProgram::fixed(
                    BitStream::from_str_bits("11001010").repeat(32),
                    DataRate::from_gbps(2.5),
                ),
                0,
            )
            .unwrap();
        assert_eq!(fixed.driven_bits.len(), 256);
    }

    #[test]
    fn launch_delay_shifts_the_waveform() {
        let mut system = TestSystem::optical_testbed().unwrap();
        let mut program = TestProgram::clock(DataRate::from_gbps(2.5), 64);
        program.timing.launch_delay = Duration::from_ps(500);
        let result = system.run(&program, 1).unwrap();
        assert_eq!(result.waveform.digital().start(), pstime::Instant::from_ps(500));
    }

    #[test]
    fn invalid_program_rejected_by_run() {
        let mut system = TestSystem::mini_tester().unwrap();
        let bad = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 0);
        assert!(matches!(system.run(&bad, 0), Err(AteError::BadProgram { .. })));
    }

    #[test]
    fn level_programming_flows_through() {
        let mut system = TestSystem::optical_testbed().unwrap();
        let mut program = TestProgram::clock(DataRate::from_gbps(1.25), 128);
        program.levels.drive = signal::LevelSet::pecl().with_voh(pstime::Millivolts::new(-1000));
        program.levels.compare_threshold = program.levels.drive.mid();
        let result = system.run(&program, 2).unwrap();
        assert_eq!(result.waveform.levels().voh(), pstime::Millivolts::new(-1000));
        let _ = system.chain_mut();
        let _ = system.core_mut();
        assert_eq!(system.chain().levels().voh(), pstime::Millivolts::new(-1000));
    }
}
