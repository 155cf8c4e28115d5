//! The DLC's memory-mapped control register file.
//!
//! The PC controls the running FPGA design through 16-bit registers reached
//! over USB. The map below mirrors the paper's described functionality:
//! global control/status, per-channel pattern configuration, and capture
//! readback.

use core::fmt;
use std::collections::BTreeMap;

use crate::{DlcError, Result};

/// A register address in the DLC's 16-bit control space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegAddr(pub u16);

impl fmt::Display for RegAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

/// Well-known register addresses of the example DLC design.
pub mod map {
    use super::RegAddr;

    /// Design identification (constant `0xD1C0`).
    pub const ID: RegAddr = RegAddr(0x0000);
    /// Design revision.
    pub const REVISION: RegAddr = RegAddr(0x0001);
    /// Global control: bit 0 = run, bit 1 = capture enable.
    pub const CONTROL: RegAddr = RegAddr(0x0002);
    /// Global status: bit 0 = running, bit 1 = capture done.
    pub const STATUS: RegAddr = RegAddr(0x0003);
    /// Base of the per-channel configuration block (8 registers each).
    pub const CHANNEL_BASE: RegAddr = RegAddr(0x0100);
    /// Stride between channel blocks.
    pub const CHANNEL_STRIDE: u16 = 8;
    /// Capture memory window base.
    pub const CAPTURE_BASE: RegAddr = RegAddr(0x4000);

    /// The constant the ID register must read back.
    pub const ID_VALUE: u16 = 0xD1C0;
}

/// A sparse 16-bit-addressed register file with read-only region support.
///
/// # Examples
///
/// ```
/// use dlc::regs::map;
/// use dlc::RegisterFile;
///
/// let mut regs = RegisterFile::example_design();
/// regs.write(map::CONTROL, 42)?;
/// assert_eq!(regs.read(map::CONTROL)?, 42);
/// # Ok::<(), dlc::DlcError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegisterFile {
    regs: BTreeMap<u16, u16>,
    read_only: Vec<u16>,
}

impl RegisterFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        RegisterFile::default()
    }

    /// Creates the register file of the example DLC design: ID, revision,
    /// control/status, and 16 channel blocks, with ID and revision
    /// read-only.
    pub fn example_design() -> Self {
        let mut rf = RegisterFile::new();
        rf.define_read_only(map::ID, map::ID_VALUE);
        rf.define_read_only(map::REVISION, 0x0105);
        rf.define(map::CONTROL, 0);
        rf.define(map::STATUS, 0);
        for ch in 0..16u16 {
            let base = map::CHANNEL_BASE.0 + ch * map::CHANNEL_STRIDE;
            for off in 0..map::CHANNEL_STRIDE {
                rf.define(RegAddr(base + off), 0);
            }
        }
        rf
    }

    /// Declares a read/write register with a reset value.
    fn define(&mut self, addr: RegAddr, reset: u16) {
        self.regs.insert(addr.0, reset);
    }

    /// Declares a read-only register with a fixed value.
    fn define_read_only(&mut self, addr: RegAddr, value: u16) {
        self.regs.insert(addr.0, value);
        self.read_only.push(addr.0);
    }

    /// Reads a register.
    ///
    /// # Errors
    ///
    /// [`DlcError::UnmappedRegister`] if `addr` was never defined.
    pub fn read(&self, addr: RegAddr) -> Result<u16> {
        self.regs.get(&addr.0).copied().ok_or(DlcError::UnmappedRegister { addr: addr.0 })
    }

    /// Writes a register. Writes to read-only registers are silently
    /// discarded (the hardware convention for status registers).
    ///
    /// # Errors
    ///
    /// [`DlcError::UnmappedRegister`] if `addr` was never defined.
    pub fn write(&mut self, addr: RegAddr, value: u16) -> Result<()> {
        if !self.regs.contains_key(&addr.0) {
            return Err(DlcError::UnmappedRegister { addr: addr.0 });
        }
        if !self.read_only.contains(&addr.0) {
            self.regs.insert(addr.0, value);
        }
        Ok(())
    }

    /// Forcibly updates a register value, bypassing the read-only guard —
    /// this is the *hardware side* of a status register.
    ///
    /// # Errors
    ///
    /// [`DlcError::UnmappedRegister`] if `addr` was never defined.
    pub fn hw_set(&mut self, addr: RegAddr, value: u16) -> Result<()> {
        if !self.regs.contains_key(&addr.0) {
            return Err(DlcError::UnmappedRegister { addr: addr.0 });
        }
        self.regs.insert(addr.0, value);
        Ok(())
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// [`DlcError::UnmappedRegister`] if `addr` was never defined.
    pub fn read_bit(&self, addr: RegAddr, bit: u8) -> Result<bool> {
        Ok(self.read(addr)? & (1 << bit) != 0)
    }

    /// Number of defined registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether no registers are defined.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Iterates `(address, value)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (RegAddr, u16)> + '_ {
        self.regs.iter().map(|(a, v)| (RegAddr(*a), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_read_write() {
        let mut rf = RegisterFile::new();
        assert!(rf.is_empty());
        rf.define(RegAddr(0x10), 7);
        assert_eq!(rf.read(RegAddr(0x10)).unwrap(), 7);
        rf.write(RegAddr(0x10), 99).unwrap();
        assert_eq!(rf.read(RegAddr(0x10)).unwrap(), 99);
        assert_eq!(rf.len(), 1);
    }

    #[test]
    fn unmapped_access_errors() {
        let mut rf = RegisterFile::new();
        assert!(matches!(rf.read(RegAddr(0x55)), Err(DlcError::UnmappedRegister { addr: 0x55 })));
        assert!(rf.write(RegAddr(0x55), 1).is_err());
        assert!(rf.hw_set(RegAddr(0x55), 1).is_err());
    }

    #[test]
    fn read_only_semantics() {
        let mut rf = RegisterFile::new();
        rf.define_read_only(RegAddr(0), 0xD1C0);
        rf.write(RegAddr(0), 0xFFFF).unwrap(); // silently dropped
        assert_eq!(rf.read(RegAddr(0)).unwrap(), 0xD1C0);
        rf.hw_set(RegAddr(0), 0x1234).unwrap(); // hardware can update it
        assert_eq!(rf.read(RegAddr(0)).unwrap(), 0x1234);
    }

    #[test]
    fn bit_operations() {
        let mut rf = RegisterFile::new();
        rf.define(RegAddr(2), 0);
        rf.write(RegAddr(2), 0b1001).unwrap();
        assert!(rf.read_bit(RegAddr(2), 0).unwrap());
        assert!(rf.read_bit(RegAddr(2), 3).unwrap());
        assert!(!rf.read_bit(RegAddr(2), 1).unwrap());
    }

    #[test]
    fn example_design_map() {
        let rf = RegisterFile::example_design();
        assert_eq!(rf.read(map::ID).unwrap(), map::ID_VALUE);
        assert_eq!(rf.read(map::REVISION).unwrap(), 0x0105);
        assert_eq!(rf.read(map::CONTROL).unwrap(), 0);
        // 16 channels x 8 regs + 4 globals.
        assert_eq!(rf.len(), 16 * 8 + 4);
        // Channel 3 block exists.
        let ch3 = RegAddr(map::CHANNEL_BASE.0 + 3 * map::CHANNEL_STRIDE);
        assert_eq!(rf.read(ch3).unwrap(), 0);
    }

    #[test]
    fn iteration_is_ordered() {
        let rf = RegisterFile::example_design();
        let addrs: Vec<u16> = rf.iter().map(|(a, _)| a.0).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted);
    }

    #[test]
    fn display_format() {
        assert_eq!(RegAddr(0x1a2).to_string(), "0x01a2");
    }
}
