//! The FPGA fabric model: configuration, I/O blocks, and channels.
//!
//! Models the XC2V1000-class device of the paper at the level its test
//! applications care about: it must be **configured** before it does
//! anything, it exposes ~200 general-purpose I/O each with a hard rate
//! ceiling (800 Mbps) and a derated practical limit (the paper runs 300–400
//! Mbps "to maintain sufficient design margin"), and each I/O can be driven
//! by a pattern engine.

use core::fmt;

use pstime::DataRate;
use signal::jitter::JitterBudget;
use signal::{BitStream, DigitalWaveform};

use crate::capture::CaptureEngine;
use crate::flash::Bitstream;
use crate::pattern::{PatternEngine, PatternKind};
use crate::regs::RegisterFile;
use crate::sram::Sram;
use crate::{DlcError, Result};

/// The I/O standard a pin is configured for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IoStandard {
    /// Single-ended 1.8 V CMOS (the DLC's general-purpose default).
    #[default]
    Lvcmos18,
    /// Differential LVPECL-compatible output (feeding the PECL tree).
    Lvpecl,
    /// LVDS differential.
    Lvds,
}

impl fmt::Display for IoStandard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoStandard::Lvcmos18 => "LVCMOS18",
            IoStandard::Lvpecl => "LVPECL",
            IoStandard::Lvds => "LVDS",
        })
    }
}

/// One general-purpose I/O block: standard, rate limit, and configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoBlock {
    standard: IoStandard,
    derated_limit_mbps: u64,
}

impl IoBlock {
    /// The paper's I/O block: 800 Mbps capable, derated to 400 Mbps.
    pub fn new() -> Self {
        IoBlock { standard: IoStandard::default(), derated_limit_mbps: 400 }
    }

    /// The configured I/O standard.
    pub fn standard(&self) -> IoStandard {
        self.standard
    }

    /// Checks a requested rate against the derated limit.
    ///
    /// # Errors
    ///
    /// [`DlcError::RateTooHigh`] above the derated limit.
    pub fn check_rate(&self, rate: DataRate) -> Result<()> {
        let mbps = rate.as_bps() / 1_000_000;
        if mbps > self.derated_limit_mbps {
            return Err(DlcError::RateTooHigh {
                requested_mbps: mbps,
                limit_mbps: self.derated_limit_mbps,
            });
        }
        Ok(())
    }
}

impl Default for IoBlock {
    fn default() -> Self {
        IoBlock::new()
    }
}

/// Per-channel runtime configuration.
#[derive(Debug)]
struct Channel {
    engine: Option<PatternEngine>,
    rate: Option<DataRate>,
    io: IoBlock,
}

/// The configured-or-not FPGA with its I/O channels and register file.
///
/// # Examples
///
/// ```
/// use dlc::{Bitstream, Fpga, PatternKind};
/// use pstime::DataRate;
///
/// let mut fpga = Fpga::new(200);
/// assert!(!fpga.is_configured());
/// fpga.configure(&Bitstream::example_design())?;
/// fpga.configure_channel(3, PatternKind::Clock, DataRate::from_mbps(400))?;
/// let bits = fpga.generate(3, 8)?;
/// assert_eq!(bits.to_string(), "10101010");
/// # Ok::<(), dlc::DlcError>(())
/// ```
#[derive(Debug)]
pub struct Fpga {
    configured: Option<Bitstream>,
    channels: Vec<Channel>,
    regs: RegisterFile,
    sram: Sram,
    capture: CaptureEngine,
    io_jitter: JitterBudget,
}

/// Default CMOS I/O timing jitter: a CMOS FPGA output has far more jitter
/// than the PECL path that retimes it — the whole point of the paper's
/// architecture is that this jitter is absorbed by PECL retiming.
fn default_io_jitter() -> JitterBudget {
    JitterBudget::new().with_rj_rms_ps(15.0).with_dcd_ps(40.0)
}

impl Fpga {
    /// Creates an unconfigured FPGA with `n_io` I/O channels and a default
    /// 64 K-word pattern SRAM attached.
    pub fn new(n_io: usize) -> Self {
        Fpga {
            configured: None,
            channels: (0..n_io)
                .map(|_| Channel { engine: None, rate: None, io: IoBlock::new() })
                .collect(),
            regs: RegisterFile::example_design(),
            sram: Sram::new(65_536),
            capture: CaptureEngine::new(1 << 20),
            io_jitter: default_io_jitter(),
        }
    }

    /// Whether a valid bitstream has been loaded.
    pub fn is_configured(&self) -> bool {
        self.configured.is_some()
    }

    /// Loads a configuration bitstream (the power-up load from FLASH).
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the image fails verification or
    /// targets a different device.
    pub fn configure(&mut self, bitstream: &Bitstream) -> Result<()> {
        bitstream.verify()?;
        if bitstream.device_id() != crate::flash::DEVICE_ID {
            return Err(DlcError::InvalidBitstream { reason: "wrong target device" });
        }
        self.configured = Some(bitstream.clone());
        Ok(())
    }

    /// Clears the configuration (PROG_B pulse).
    pub fn unconfigure(&mut self) {
        self.configured = None;
        for ch in &mut self.channels {
            ch.engine = None;
            ch.rate = None;
        }
    }

    /// Number of I/O channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The register file (USB-visible control plane).
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable register file access.
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// The attached pattern SRAM.
    pub fn sram(&self) -> &Sram {
        &self.sram
    }

    /// Mutable SRAM access (host pattern upload).
    pub fn sram_mut(&mut self) -> &mut Sram {
        &mut self.sram
    }

    /// The response-capture engine.
    pub fn capture(&self) -> &CaptureEngine {
        &self.capture
    }

    /// Mutable capture-engine access (arm/stop/read-back).
    pub fn capture_mut(&mut self) -> &mut CaptureEngine {
        &mut self.capture
    }

    fn channel_mut(&mut self, channel: usize) -> Result<&mut Channel> {
        let available = self.channels.len();
        self.channels.get_mut(channel).ok_or(DlcError::ChannelOutOfRange { channel, available })
    }

    /// Programs `channel` with a pattern at a per-pin rate.
    ///
    /// # Errors
    ///
    /// Fails if the FPGA is unconfigured, the channel is out of range, the
    /// rate exceeds the pin's derated limit, or the pattern is invalid.
    pub fn configure_channel(
        &mut self,
        channel: usize,
        pattern: PatternKind,
        rate: DataRate,
    ) -> Result<()> {
        if !self.is_configured() {
            return Err(DlcError::NotConfigured);
        }
        let engine = match pattern {
            PatternKind::SramPlayback { addr, n_bits } => {
                PatternEngine::new_with_sram(addr, n_bits, &self.sram)?
            }
            other => PatternEngine::new(other)?,
        };
        let ch = self.channel_mut(channel)?;
        ch.io.check_rate(rate)?;
        ch.engine = Some(engine);
        ch.rate = Some(rate);
        Ok(())
    }

    /// Generates the next `n` bits from `channel`'s engine.
    ///
    /// # Errors
    ///
    /// Fails if unconfigured, out of range, or the channel has no pattern.
    pub fn generate(&mut self, channel: usize, n: usize) -> Result<BitStream> {
        if !self.is_configured() {
            return Err(DlcError::NotConfigured);
        }
        let ch = self.channel_mut(channel)?;
        match &mut ch.engine {
            Some(engine) => Ok(engine.generate(n)),
            None => Err(DlcError::ChannelNotConfigured { channel }),
        }
    }

    /// Renders the next `n` bits of `channel` as a timing-annotated
    /// [`DigitalWaveform`] at the channel's configured rate, with the CMOS
    /// I/O jitter budget applied.
    ///
    /// # Errors
    ///
    /// Same conditions as [`generate`](Self::generate).
    pub fn render_channel(
        &mut self,
        channel: usize,
        n: usize,
        seed: u64,
    ) -> Result<DigitalWaveform> {
        if !self.is_configured() {
            return Err(DlcError::NotConfigured);
        }
        let available = self.channels.len();
        let ch = self
            .channels
            .get_mut(channel)
            .ok_or(DlcError::ChannelOutOfRange { channel, available })?;
        let rate = ch.rate.ok_or(DlcError::ChannelNotConfigured { channel })?;
        let bits = match &mut ch.engine {
            Some(engine) => engine.generate(n),
            None => return Err(DlcError::ChannelNotConfigured { channel }),
        };
        Ok(DigitalWaveform::from_bits(
            &bits,
            rate,
            &self.io_jitter,
            rng::SeedTree::new(seed).stream("dlc.fpga.io").channel(channel as u64).seed(),
        ))
    }

    /// Resets every channel's pattern engine to its seed state.
    pub fn reset_engines(&mut self) {
        for ch in &mut self.channels {
            if let Some(engine) = &mut ch.engine {
                engine.reset();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configured() -> Fpga {
        let mut f = Fpga::new(200);
        f.configure(&Bitstream::example_design()).unwrap();
        f
    }

    #[test]
    fn requires_configuration() {
        let mut f = Fpga::new(4);
        assert!(!f.is_configured());
        assert!(matches!(
            f.configure_channel(0, PatternKind::Clock, DataRate::from_mbps(100)),
            Err(DlcError::NotConfigured)
        ));
        assert!(matches!(f.generate(0, 8), Err(DlcError::NotConfigured)));
        assert!(matches!(f.render_channel(0, 8, 0), Err(DlcError::NotConfigured)));
    }

    #[test]
    fn configure_rejects_wrong_device() {
        let mut f = Fpga::new(4);
        let wrong = Bitstream::new(0xDEAD_BEEF, vec![1, 2, 3]);
        assert!(matches!(
            f.configure(&wrong),
            Err(DlcError::InvalidBitstream { reason: "wrong target device" })
        ));
    }

    #[test]
    fn channel_lifecycle() {
        let mut f = configured();
        assert_eq!(f.num_channels(), 200);
        f.configure_channel(7, PatternKind::Clock, DataRate::from_mbps(400)).unwrap();
        assert_eq!(f.generate(7, 4).unwrap().to_string(), "1010");
        // Unconfigured channel errors.
        assert!(matches!(f.generate(8, 4), Err(DlcError::ChannelNotConfigured { channel: 8 })));
        // Out-of-range channel errors.
        assert!(matches!(
            f.generate(200, 4),
            Err(DlcError::ChannelOutOfRange { channel: 200, available: 200 })
        ));
        // PROG_B wipes everything.
        f.unconfigure();
        assert!(f.generate(7, 4).is_err());
    }

    #[test]
    fn io_rate_derating_enforced() {
        let mut f = configured();
        // 500 Mbps exceeds the 400 Mbps derated default.
        let err = f.configure_channel(0, PatternKind::Clock, DataRate::from_mbps(500)).unwrap_err();
        assert!(matches!(err, DlcError::RateTooHigh { requested_mbps: 500, limit_mbps: 400 }));
        assert!(f.configure_channel(0, PatternKind::Clock, DataRate::from_mbps(900)).is_err());
    }

    #[test]
    fn render_channel_produces_waveform() {
        let mut f = configured();
        let rate = DataRate::from_mbps(400);
        f.configure_channel(0, PatternKind::Clock, rate).unwrap();
        let w = f.render_channel(0, 64, 7).unwrap();
        assert_eq!(w.num_edges(), 63);
        assert_eq!(w.span(), rate.unit_interval() * 64);
        // Jitter applied: edges not exactly on the grid.
        let on_grid =
            w.edges().iter().filter(|e| e.at.as_fs() % rate.unit_interval().as_fs() == 0).count();
        assert!(on_grid < 8, "expected jittered edges, {on_grid} on grid");
    }

    #[test]
    fn render_is_seed_deterministic() {
        let run = |seed| {
            let mut f = configured();
            f.configure_channel(1, PatternKind::Prbs7 { seed: 5 }, DataRate::from_mbps(400))
                .unwrap();
            f.render_channel(1, 64, seed).unwrap()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sram_playback_channel() {
        let mut f = configured();
        f.sram_mut().load_bits(0, &BitStream::from_str_bits("110010")).unwrap();
        f.configure_channel(
            2,
            PatternKind::SramPlayback { addr: 0, n_bits: 6 },
            DataRate::from_mbps(300),
        )
        .unwrap();
        assert_eq!(f.generate(2, 12).unwrap().to_string(), "110010110010");
    }

    #[test]
    fn reset_engines_restarts_patterns() {
        let mut f = configured();
        f.configure_channel(0, PatternKind::Prbs15 { seed: 77 }, DataRate::from_mbps(312)).unwrap();
        let first = f.generate(0, 64).unwrap();
        let _ = f.generate(0, 64).unwrap();
        f.reset_engines();
        assert_eq!(f.generate(0, 64).unwrap(), first);
    }

    #[test]
    fn regs_and_sram_are_reachable() {
        let mut f = configured();
        assert_eq!(f.regs().read(crate::regs::map::ID).unwrap(), crate::regs::map::ID_VALUE);
        f.regs_mut().write(crate::regs::map::CONTROL, 1).unwrap();
        assert_eq!(f.regs().read(crate::regs::map::CONTROL).unwrap(), 1);
        assert_eq!(f.sram().capacity(), 65_536);
    }
}
