//! # gigatest-dlc — the FPGA-based Digital Logic Core
//!
//! A behavioral model of the paper's Digital Logic Core (§2): a Xilinx
//! XC2V1000-class CMOS FPGA with ~200 general-purpose I/O (800 Mbps capable,
//! derated to 300–400 Mbps in practice), surrounded by the support devices
//! the paper describes:
//!
//! * a **FLASH** configuration memory ([`flash`]) programmed through an
//!   **IEEE 1149.1 boundary-scan** port ([`jtag`]) from the PC,
//! * a **USB microcontroller** ([`usb`]) giving the controlling PC
//!   register-level access at run time,
//! * optional **SRAM** pattern storage ([`sram`]) for non-algorithmic
//!   patterns,
//! * and the FPGA fabric itself ([`fpga`]): a register file, per-pin I/O
//!   blocks with rate limits, and programmable **pattern engines**
//!   ([`pattern`]) — algorithmic generators, memory playback, and
//!   **LFSR/PRBS** sources ([`lfsr`]).
//!
//! The model is bit- and cycle-accurate at the pattern level and
//! timing-annotated at the I/O level: each enabled channel renders its
//! pattern into a [`signal::DigitalWaveform`] at the configured per-pin
//! rate, ready for the PECL serializer tree in the `pecl` crate.
//!
//! ## Example: boot a DLC and generate PRBS on two channels
//!
//! ```
//! use dlc::{Bitstream, DigitalLogicCore, PatternKind};
//! use pstime::DataRate;
//!
//! // Program the FLASH over JTAG, then boot the FPGA from it.
//! let mut core = DigitalLogicCore::new();
//! core.program_flash_via_jtag(&Bitstream::example_design())?;
//! core.power_up()?;
//!
//! // Configure channel 0 as a PRBS-15 source at 312.5 Mbps.
//! let rate = DataRate::from_mbps(312);
//! core.configure_channel(0, PatternKind::Prbs15 { seed: 0x1234 }, rate)?;
//! let bits = core.generate(0, 1024)?;
//! assert_eq!(bits.len(), 1024);
//! # Ok::<(), dlc::DlcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
mod core;
mod error;
pub mod flash;
pub mod fpga;
pub mod jtag;
pub mod lfsr;
pub mod pattern;
pub mod regs;
pub mod runctl;
pub mod sequencer;
pub mod sram;
pub mod usb;

pub use crate::core::DigitalLogicCore;
pub use capture::{CaptureEngine, CaptureMode, CaptureSummary};
pub use error::DlcError;
pub use flash::{Bitstream, FlashMemory};
pub use fpga::{Fpga, IoBlock, IoStandard};
pub use lfsr::{Lfsr, PrbsPolynomial};
pub use pattern::{PatternEngine, PatternKind};
pub use regs::{RegAddr, RegisterFile};

/// Convenient result alias for DLC operations.
pub type Result<T> = std::result::Result<T, DlcError>;
