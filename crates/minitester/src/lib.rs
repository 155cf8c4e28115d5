//! # gigatest-minitester — the miniature wafer-probe tester
//!
//! The paper's second system (§4): a self-contained tester small enough to
//! sit on top of a probe card, connected only to DC power, a USB link, and
//! one low-jitter RF clock. It pushes up to **5 Gbps** through the
//! compliant leads of wafer-level-packaged (WLP) dies and samples the
//! response with **10 ps** strobe resolution.
//!
//! * [`datapath`] — the stimulus path: 16 CMOS lanes at ~312 Mbps through
//!   two 8:1 PECL mux groups and a final 2:1 to reach 5 Gbps (Fig. 15).
//!   The DLC builds a pattern's lanes once, as a [`LanePattern`], and
//!   every stimulus renders from it.
//! * [`channel`] — the interposer/compliant-lead channel model:
//!   attenuation, bandwidth-limited ISI, and propagation delay.
//! * [`dut`] — a WLP die model with BIST: loopback and internal PRBS
//!   checking, plus injectable defects so the tester has something to
//!   catch.
//! * [`capture`] — the equivalent-time receive path: a strobed sampler
//!   stepped by a 10 ps delay vernier reconstructs eyes without a bench
//!   scope.
//! * [`shmoo`] — strobe-delay × threshold shmoo plots, the classic
//!   pass/fail map of ATE practice.
//! * [`mod@array`] — multi-site parallel probing (Fig. 13) and its throughput
//!   arithmetic ("increasing production throughput by an order of
//!   magnitude").
//!
//! ## Example
//!
//! ```
//! use minitester::{MiniTester, TestPlan};
//! use pstime::DataRate;
//!
//! let mut tester = MiniTester::new()?;
//! let outcome = tester.run(&TestPlan::prbs_loopback(DataRate::from_gbps(2.5), 2_048), 7)?;
//! assert!(outcome.passed());
//! # Ok::<(), minitester::MiniTesterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod capture;
pub mod channel;
pub mod datapath;
pub mod dut;
mod error;
pub mod multisite;
pub mod shmoo;
mod tester;

pub use array::ProbeArray;
pub use capture::{EtCapture, EyeScan, EyeScanJob};
pub use channel::WlpChannel;
pub use datapath::{LanePattern, MiniTesterDatapath};
pub use dut::{BistMode, Defect, WlpDut};
pub use error::MiniTesterError;
pub use multisite::{Bin, DieRecord, WaferReport, WaferRunConfig};
pub use shmoo::{ShmooConfig, ShmooJob, ShmooPlot};
pub use tester::{MiniTester, PreparedPlan, TestOutcome, TestPlan};

/// Convenient result alias for mini-tester operations.
pub type Result<T> = std::result::Result<T, MiniTesterError>;
