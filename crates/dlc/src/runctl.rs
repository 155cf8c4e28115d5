//! Run control: the CONTROL/STATUS register semantics.
//!
//! The PC starts and stops tests by writing the DLC's CONTROL register over
//! USB and polls STATUS for completion — the only run-time handshake the
//! paper's Fig. 1 control path needs. This module gives those bits their
//! meaning against the FPGA model: bit 0 gates the pattern engines, bit 1
//! arms the capture engine, and STATUS mirrors the machine state.

use crate::capture::CaptureMode;
use crate::fpga::Fpga;
use crate::regs::map;
use crate::Result;

/// CONTROL register bit 0: run the pattern engines.
pub const CTRL_RUN: u8 = 0;
/// CONTROL register bit 1: arm the capture engine (store mode).
pub const CTRL_CAPTURE: u8 = 1;

/// STATUS register bit 0: pattern engines running.
pub const STAT_RUNNING: u8 = 0;
/// STATUS register bit 1: a capture has completed since the last arm.
pub const STAT_CAPTURE_DONE: u8 = 1;

/// Applies one CONTROL-register transition to the FPGA: starts/stops the
/// engines and arms/stops the capture, updating STATUS to match. Call this
/// after every host write to CONTROL (the microcontroller firmware does
/// exactly that).
///
/// # Errors
///
/// Propagates register and capture errors.
pub fn apply_control(fpga: &mut Fpga) -> Result<()> {
    let control = fpga.regs().read(map::CONTROL)?;
    let run = control & (1 << CTRL_RUN) != 0;
    let capture = control & (1 << CTRL_CAPTURE) != 0;

    let was_running = fpga.regs().read_bit(map::STATUS, STAT_RUNNING)?;
    if run && !was_running {
        // Starting a run restarts every engine from its seed state.
        fpga.reset_engines();
        let status = status_with(fpga, STAT_RUNNING, true)?;
        fpga.regs_mut().hw_set(map::STATUS, status)?;
    } else if !run && was_running {
        let status = status_with(fpga, STAT_RUNNING, false)?;
        fpga.regs_mut().hw_set(map::STATUS, status)?;
    }

    let armed = fpga.capture().is_armed();
    if capture && !armed {
        fpga.capture_mut().arm(CaptureMode::Store)?;
        // Arming clears the done flag.
        let status = status_with(fpga, STAT_CAPTURE_DONE, false)?;
        fpga.regs_mut().hw_set(map::STATUS, status)?;
    } else if !capture && armed {
        fpga.capture_mut().stop();
        let status = status_with(fpga, STAT_CAPTURE_DONE, true)?;
        fpga.regs_mut().hw_set(map::STATUS, status)?;
    }
    Ok(())
}

fn status_with(fpga: &Fpga, bit: u8, value: bool) -> Result<u16> {
    let status = fpga.regs().read(map::STATUS)?;
    let mask = 1u16 << bit;
    Ok(if value { status | mask } else { status & !mask })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::Bitstream;
    use crate::pattern::PatternKind;
    use pstime::DataRate;
    use signal::BitStream;

    /// Writes CONTROL through the register file and applies the
    /// transition, as the USB `WriteReg` handler does for this address.
    fn write_control(fpga: &mut Fpga, value: u16) -> Result<()> {
        fpga.regs_mut().write(map::CONTROL, value)?;
        apply_control(fpga)
    }

    fn read_status(fpga: &Fpga) -> Result<u16> {
        fpga.regs().read(map::STATUS)
    }

    fn fpga() -> Fpga {
        let mut f = Fpga::new(16);
        f.configure(&Bitstream::example_design()).unwrap();
        f
    }

    #[test]
    fn run_bit_starts_and_stops() {
        let mut f = fpga();
        assert_eq!(read_status(&f).unwrap(), 0);
        write_control(&mut f, 1 << CTRL_RUN).unwrap();
        assert!(f.regs().read_bit(map::STATUS, STAT_RUNNING).unwrap());
        write_control(&mut f, 0).unwrap();
        assert!(!f.regs().read_bit(map::STATUS, STAT_RUNNING).unwrap());
    }

    #[test]
    fn starting_a_run_restarts_the_engines() {
        let mut f = fpga();
        f.configure_channel(0, PatternKind::Prbs15 { seed: 3 }, DataRate::from_mbps(300)).unwrap();
        let first = f.generate(0, 64).unwrap();
        let _ = f.generate(0, 64).unwrap();
        // Start bit resets engines to the seed state.
        write_control(&mut f, 1 << CTRL_RUN).unwrap();
        assert_eq!(f.generate(0, 64).unwrap(), first);
    }

    #[test]
    fn capture_bit_arms_and_completes() {
        let mut f = fpga();
        write_control(&mut f, 1 << CTRL_CAPTURE).unwrap();
        assert!(f.capture().is_armed());
        assert!(!f.regs().read_bit(map::STATUS, STAT_CAPTURE_DONE).unwrap());
        f.capture_mut().push_bits(&BitStream::from_str_bits("1011"));
        write_control(&mut f, 0).unwrap();
        assert!(!f.capture().is_armed());
        assert!(f.regs().read_bit(map::STATUS, STAT_CAPTURE_DONE).unwrap());
        assert_eq!(f.capture().ram().to_string(), "1011");
    }

    #[test]
    fn rearming_clears_done_flag() {
        let mut f = fpga();
        write_control(&mut f, 1 << CTRL_CAPTURE).unwrap();
        write_control(&mut f, 0).unwrap();
        assert!(f.regs().read_bit(map::STATUS, STAT_CAPTURE_DONE).unwrap());
        write_control(&mut f, 1 << CTRL_CAPTURE).unwrap();
        assert!(!f.regs().read_bit(map::STATUS, STAT_CAPTURE_DONE).unwrap());
    }

    #[test]
    fn run_and_capture_are_independent() {
        let mut f = fpga();
        write_control(&mut f, (1 << CTRL_RUN) | (1 << CTRL_CAPTURE)).unwrap();
        assert!(f.regs().read_bit(map::STATUS, STAT_RUNNING).unwrap());
        assert!(f.capture().is_armed());
        // Dropping only the run bit keeps the capture armed.
        write_control(&mut f, 1 << CTRL_CAPTURE).unwrap();
        assert!(!f.regs().read_bit(map::STATUS, STAT_RUNNING).unwrap());
        assert!(f.capture().is_armed());
    }

    #[test]
    fn idempotent_writes() {
        let mut f = fpga();
        write_control(&mut f, 1 << CTRL_RUN).unwrap();
        let status = read_status(&f).unwrap();
        // Writing the same value again changes nothing.
        write_control(&mut f, 1 << CTRL_RUN).unwrap();
        assert_eq!(read_status(&f).unwrap(), status);
    }
}
