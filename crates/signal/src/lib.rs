//! # gigatest-signal — picosecond-domain waveforms, jitter, and eye analysis
//!
//! This crate is the measurement substrate for the Gigatest reproduction of
//! Keezer et al. (DATE 2005). The paper's entire evaluation is a set of
//! oscilloscope observations — eye diagrams, crossover-point jitter, 20–80 %
//! rise times, programmable voltage levels — so this crate implements both
//! the *signals* (exact-time digital edge waveforms, analytic analog
//! waveforms) and the *instruments* (eye-diagram folding, jitter histograms,
//! transition-time measurement, BER estimation).
//!
//! ## Layers
//!
//! * [`BitStream`] — the logical bit sequence a pattern generator emits.
//! * [`DigitalWaveform`] — an NRZ signal as a list of timed edges, each
//!   displaced from its ideal position by jitter (see [`jitter`]).
//! * [`AnalogWaveform`] — an analytic continuous-time model: logistic step
//!   transitions with a finite 20–80 % rise time between programmable
//!   [`LevelSet`] voltages. Because the model is analytic (not a sample
//!   array), threshold crossings can be located with femtosecond precision —
//!   matching the 10 ps claims under test requires this.
//! * [`EyeDiagram`] / [`measure`] — the virtual sampling oscilloscope.
//!
//! ## Example: measure an eye like the paper's Fig. 7
//!
//! ```
//! use pstime::DataRate;
//! use signal::jitter::JitterBudget;
//! use signal::{AnalogWaveform, BitStream, DigitalWaveform, EdgeShape, EyeDiagram, LevelSet};
//!
//! let rate = DataRate::from_gbps(2.5);
//! let bits = BitStream::alternating(2_000);
//! let jitter = JitterBudget::new().with_rj_rms_ps(3.2).with_dcd_ps(10.0);
//! let digital = DigitalWaveform::from_bits(&bits, rate, &jitter, 7);
//! let analog = AnalogWaveform::new(digital, LevelSet::pecl(), EdgeShape::from_rise_2080_ps(72.0));
//! let eye = EyeDiagram::analyze(&analog, rate)?;
//! assert!(eye.opening_ui().value() > 0.8);
//! # Ok::<(), signal::SignalError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analog;
mod ber;
mod bits;
pub mod decompose;
mod digital;
mod error;
mod eye;
pub mod jitter;
pub mod measure;
mod quant;
pub mod render;
mod stats;

pub use analog::{AnalogWaveform, EdgeShape, LevelSet, WaveCursor};
pub use ber::{q_from_ber, BathtubCurve, BathtubSweep, BerEstimate};
pub use bits::BitStream;
pub use decompose::JitterDecomposition;
pub use digital::{DigitalWaveform, Edge, EdgePolarity};
pub use error::SignalError;
pub use eye::{EyeDiagram, EyeRaster};
pub use stats::{erfc, Histogram, RunningStats};

/// Convenient result alias for fallible signal operations.
pub type Result<T> = core::result::Result<T, SignalError>;
