//! # gigatest-pecl — the PECL multi-gigahertz signal path
//!
//! Models the positive emitter-coupled logic (PECL) front end that turns the
//! DLC's moderate-speed CMOS signals into the paper's 1–5 Gbps test
//! waveforms, and samples the responses back:
//!
//! * [`clock`] — the external low-jitter RF reference (0.5–2.5 GHz,
//!   picosecond phase noise) and the clock fanout that distributes it with
//!   per-output skew.
//! * [`delay`] — programmable delay verniers: **10 ps steps over a 10 ns
//!   range**, with a deterministic integral-nonlinearity model, the parts
//!   behind the paper's edge-placement claims.
//! * [`mux`] — 2:1 / 8:1 / 16:1 parallel-to-serial multiplexer trees (two
//!   8:1 groups into a final 2:1 gives the mini-tester's 5 Gbps).
//! * [`buffer`] — SiGe output buffers (70–75 ps 20–80 % transitions,
//!   sub-ps added jitter) and the slower CMOS I/O buffers (120 ps).
//! * [`levels`] — the voltage-tuning DACs that step VOH/VOL/mid-bias in
//!   100 mV increments (Figs. 10–11).
//! * [`sampler`] — the strobed picosecond sampling circuit used by the
//!   mini-tester's capture path.
//! * [`chain`] — composition: a [`SignalChain`] accumulates every stage's
//!   jitter and bandwidth contribution and renders final waveforms whose
//!   measured eyes land where the paper's do.
//!
//! ## Example: the mini-tester's 16:1 serializer at 5 Gbps
//!
//! ```
//! use pecl::chain::SignalChain;
//! use pstime::DataRate;
//! use signal::BitStream;
//!
//! let chain = SignalChain::minitester_datapath();
//! let lanes: Vec<BitStream> = (0..16).map(|i| BitStream::alternating(32 + i % 2)).collect();
//! // Render a 5 Gbps burst from 16 CMOS lanes at 312.5 Mbps each.
//! let lanes: Vec<BitStream> = (0..16).map(|_| BitStream::alternating(32)).collect();
//! let wave = chain.serialize_16(&lanes, DataRate::from_gbps(5.0), 7)?;
//! assert_eq!(wave.digital().span(), DataRate::from_gbps(5.0).unit_interval() * 512);
//! # Ok::<(), pecl::PeclError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod chain;
pub mod clock;
pub mod delay;
mod error;
pub mod levels;
pub mod mux;
pub mod sampler;

pub use buffer::{CmosIoBuffer, SiGeOutputBuffer};
pub use chain::SignalChain;
pub use clock::{ClockFanout, RfClockSource};
pub use delay::ProgrammableDelayLine;
pub use error::PeclError;
pub use levels::VoltageTuningDac;
pub use mux::{Mux2, MuxTree};
pub use sampler::StrobedSampler;

/// Convenient result alias for PECL operations.
pub type Result<T> = std::result::Result<T, PeclError>;
