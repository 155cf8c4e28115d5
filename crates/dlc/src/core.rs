//! The assembled Digital Logic Core board.
//!
//! Wires together the subsystems of the paper's Fig. 2: the FPGA, the
//! JTAG-programmed configuration FLASH, the USB microcontroller, and the
//! 12 MHz crystal — one struct a test application can hold and drive the
//! way the PC in the paper drives the physical board.

use pstime::DataRate;
use signal::{BitStream, DigitalWaveform};

use crate::flash::Bitstream;
use crate::fpga::Fpga;
use crate::jtag::JtagPort;
use crate::pattern::PatternKind;
use crate::usb::{Packet, UsbController};
use crate::{DlcError, Result};

/// A complete Digital Logic Core: FPGA + FLASH (via JTAG) + USB ÂµC.
///
/// Lifecycle mirrors the hardware:
///
/// 1. [`program_flash_via_jtag`](DigitalLogicCore::program_flash_via_jtag)
///    stores a design (can be repeated to change designs),
/// 2. [`power_up`](DigitalLogicCore::power_up) boots the FPGA from FLASH,
/// 3. channels are configured and patterns generated, either directly or
///    through USB packets ([`usb_transaction`](DigitalLogicCore::usb_transaction)).
///
/// # Examples
///
/// ```
/// use dlc::{Bitstream, DigitalLogicCore, PatternKind};
/// use pstime::DataRate;
///
/// let mut core = DigitalLogicCore::new();
/// core.program_flash_via_jtag(&Bitstream::example_design())?;
/// core.power_up()?;
/// core.configure_channel(0, PatternKind::Prbs7 { seed: 1 }, DataRate::from_mbps(400))?;
/// let w = core.render_channel(0, 256, 42)?;
/// assert!(w.num_edges() > 100);
/// # Ok::<(), dlc::DlcError>(())
/// ```
#[derive(Debug)]
pub struct DigitalLogicCore {
    fpga: Fpga,
    jtag: JtagPort,
    usb: UsbController,
    powered: bool,
}

impl DigitalLogicCore {
    /// A DLC with the paper's resources: 200 I/O and a 4 Mb-equivalent
    /// configuration FLASH.
    pub fn new() -> Self {
        DigitalLogicCore {
            fpga: Fpga::new(200),
            jtag: JtagPort::new(131_072),
            usb: UsbController::new(),
            powered: false,
        }
    }

    /// Whether the FPGA booted successfully.
    fn is_powered_up(&self) -> bool {
        self.powered && self.fpga.is_configured()
    }

    /// The FPGA fabric.
    pub fn fpga(&self) -> &Fpga {
        &self.fpga
    }

    /// Mutable FPGA access.
    pub fn fpga_mut(&mut self) -> &mut Fpga {
        &mut self.fpga
    }

    /// Programs (erase + program + verify) the configuration FLASH through
    /// the boundary-scan port — the paper's design-update flow.
    ///
    /// # Errors
    ///
    /// Propagates JTAG/bitstream errors. The FPGA keeps running its old
    /// design until the next [`power_up`](Self::power_up).
    pub fn program_flash_via_jtag(&mut self, bitstream: &Bitstream) -> Result<()> {
        self.jtag.program_flash(bitstream)
    }

    /// Power-cycles the board: the FPGA reloads its personalization from
    /// FLASH.
    ///
    /// # Errors
    ///
    /// [`DlcError::InvalidBitstream`] if the FLASH is blank or corrupt.
    pub fn power_up(&mut self) -> Result<()> {
        self.powered = false;
        self.fpga.unconfigure();
        let bitstream = self.jtag.flash().load_bitstream()?;
        self.fpga.configure(&bitstream)?;
        self.powered = true;
        Ok(())
    }

    /// Programs a channel pattern at a per-pin rate.
    ///
    /// # Errors
    ///
    /// [`DlcError::NotConfigured`] before [`power_up`](Self::power_up);
    /// otherwise as [`Fpga::configure_channel`].
    pub fn configure_channel(
        &mut self,
        channel: usize,
        pattern: PatternKind,
        rate: DataRate,
    ) -> Result<()> {
        self.ensure_powered()?;
        self.fpga.configure_channel(channel, pattern, rate)
    }

    /// Generates the next `n` bits of `channel`.
    ///
    /// # Errors
    ///
    /// As [`Fpga::generate`], plus power check.
    pub fn generate(&mut self, channel: usize, n: usize) -> Result<BitStream> {
        self.ensure_powered()?;
        self.fpga.generate(channel, n)
    }

    /// Renders `n` bits of `channel` as a timing-annotated waveform.
    ///
    /// # Errors
    ///
    /// As [`Fpga::render_channel`], plus power check.
    pub fn render_channel(
        &mut self,
        channel: usize,
        n: usize,
        seed: u64,
    ) -> Result<DigitalWaveform> {
        self.ensure_powered()?;
        self.fpga.render_channel(channel, n, seed)
    }

    /// Performs one USB host transaction: parse request bytes, dispatch,
    /// return response bytes.
    ///
    /// # Errors
    ///
    /// Protocol or register errors from the dispatcher.
    pub fn usb_transaction(&mut self, request: &[u8]) -> Result<Vec<u8>> {
        let packet = Packet::parse(request)?;
        let response = self.usb.handle(&packet, &mut self.fpga)?;
        Ok(response.as_bytes().to_vec())
    }

    fn ensure_powered(&self) -> Result<()> {
        if !self.is_powered_up() {
            return Err(DlcError::NotConfigured);
        }
        Ok(())
    }
}

impl Default for DigitalLogicCore {
    fn default() -> Self {
        DigitalLogicCore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usb::Opcode;

    fn booted() -> DigitalLogicCore {
        let mut core = DigitalLogicCore::new();
        core.program_flash_via_jtag(&Bitstream::example_design()).unwrap();
        core.power_up().unwrap();
        core
    }

    #[test]
    fn full_boot_sequence() {
        let mut core = DigitalLogicCore::new();
        assert!(!core.is_powered_up());
        // Booting a blank flash fails.
        assert!(core.power_up().is_err());
        core.program_flash_via_jtag(&Bitstream::example_design()).unwrap();
        core.power_up().unwrap();
        assert!(core.is_powered_up());
    }

    #[test]
    fn operations_require_power() {
        let mut core = DigitalLogicCore::new();
        assert!(matches!(
            core.configure_channel(0, PatternKind::Clock, DataRate::from_mbps(100)),
            Err(DlcError::NotConfigured)
        ));
        assert!(core.generate(0, 8).is_err());
        assert!(core.render_channel(0, 8, 0).is_err());
    }

    #[test]
    fn design_update_flow() {
        let mut core = booted();
        core.configure_channel(0, PatternKind::Clock, DataRate::from_mbps(400)).unwrap();
        // Re-flash with a new design while running.
        let v2 = Bitstream::new(crate::flash::DEVICE_ID, (0..64).map(|i| i + 9).collect());
        core.program_flash_via_jtag(&v2).unwrap();
        // Old design still runs until power cycle.
        assert!(core.generate(0, 4).is_ok());
        core.power_up().unwrap();
        // Power cycle wiped channel configs (new personalization).
        assert!(matches!(core.generate(0, 4), Err(DlcError::ChannelNotConfigured { channel: 0 })));
    }

    #[test]
    fn corrupt_flash_fails_boot() {
        let mut core = DigitalLogicCore::new();
        core.program_flash_via_jtag(&Bitstream::example_design()).unwrap();
        core.jtag.flash_mut().corrupt_bit(5, 0);
        assert!(core.power_up().is_err());
        assert!(!core.is_powered_up());
    }

    #[test]
    fn parallel_channel_rendering() {
        let mut core = booted();
        let rate = DataRate::from_mbps(312);
        for ch in 0..8 {
            core.configure_channel(ch, PatternKind::Prbs15 { seed: 10 + ch as u32 }, rate).unwrap();
        }
        let waves: Vec<_> = (0..8).map(|ch| core.render_channel(ch, 128, 99).unwrap()).collect();
        assert_eq!(waves.len(), 8);
        // Channels get decorrelated jitter but identical spans.
        assert!(waves.windows(2).all(|w| w[0].span() == w[1].span()));
        assert_ne!(waves[0], waves[1]);
    }

    #[test]
    fn usb_control_path_end_to_end() {
        let mut core = booted();
        let ping = Packet::command(Opcode::Ping, &[]);
        let resp = core.usb_transaction(ping.as_bytes()).unwrap();
        let resp = Packet::parse(&resp).unwrap();
        assert_eq!(resp.payload(), vec![crate::usb::PROTOCOL_VERSION]);
        // Garbage on the wire is rejected.
        assert!(core.usb_transaction(&[0xFF]).is_err());
    }

    #[test]
    fn fpga_accessors() {
        let mut core = booted();
        assert_eq!(core.fpga().num_channels(), 200);
        core.fpga_mut().reset_engines();
        assert_eq!(DigitalLogicCore::default().fpga().num_channels(), 200);
    }
}
