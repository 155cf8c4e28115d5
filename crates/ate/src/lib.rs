//! # gigatest-ate — the complete low-cost multi-gigahertz test system
//!
//! Top-level crate of the Gigatest workspace, a full software reproduction
//! of Keezer, Gray, Majid & Taher, *Low-Cost Multi-Gigahertz Test Systems
//! Using CMOS FPGAs and PECL* (DATE 2005). The paper's contribution is an
//! architecture: a CMOS FPGA **Digital Logic Core** for flexible pattern
//! synthesis and PC control, married to a custom **PECL** front end for
//! multi-gigahertz timing — at a small fraction of conventional ATE cost.
//!
//! This crate assembles the substrate crates into that system:
//!
//! * [`TestSystem`] — the façade: boot a DLC, attach a calibrated PECL
//!   chain, run [`TestProgram`]s, collect [`measurement`]s.
//! * [`program`] — the classic ATE triad: pattern, timing set, level set.
//! * [`calibration`] — channel deskew through the 10 ps verniers and the
//!   audit behind the paper's **±25 ps timing accuracy** claim.
//! * [`cost`] — the bill-of-materials model quantifying "significantly
//!   lower in cost than conventional ATE".
//! * [`measurement`] — paper-versus-measured comparison rows used by the
//!   benchmark harness and EXPERIMENTS.md.
//!
//! The application stacks live in their own crates and are re-exported
//! here: [`testbed`] (the Optical Test Bed + Data Vortex) and
//! [`minitester`] (the wafer-probe mini-tester).
//!
//! ## Quickstart
//!
//! ```
//! use ate::{TestProgram, TestSystem};
//! use pstime::DataRate;
//!
//! // Bring up the test-bed flavor of the system and run a PRBS eye test.
//! let mut system = TestSystem::optical_testbed()?;
//! let program = TestProgram::prbs_eye(DataRate::from_gbps(2.5), 2_048);
//! let result = system.run(&program, 42)?;
//! assert!(result.eye.opening_ui().value() > 0.8);
//! # Ok::<(), ate::AteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod cost;
mod error;
pub mod measurement;
pub mod program;
mod system;
pub mod textfmt;

pub use error::AteError;
pub use measurement::{Comparison, PaperValue, Report};
pub use program::{LevelPlan, PatternPlan, TestProgram, TimingPlan};
pub use system::{ProgramResult, SystemKind, TestSystem, PRBS_LANE_STREAM};

// Re-export the subsystem crates so downstream users need a single
// dependency.
pub use dlc;
pub use minitester;
pub use pecl;
pub use pstime;
pub use signal;
pub use testbed;
pub use vortex;

/// Convenient result alias for ATE operations.
pub type Result<T> = std::result::Result<T, AteError>;
