//! # gigatest-rng — the hermetic determinism layer
//!
//! A zero-dependency, first-party random number stack for the whole
//! simulator: every stochastic effect (random jitter, slicer noise,
//! traffic arrivals, defect injection) draws from here, and every
//! substream is derived from one master seed through a named,
//! order-independent [`SeedTree`].
//!
//! ## Why first-party
//!
//! The paper's claim is *repeatable* picosecond-scale timing from
//! commodity parts; a reproduction whose noise depends on `rand`'s
//! unstable `StdRng` algorithm (and on registry access at build time)
//! can't make that claim. This crate pins the exact algorithms —
//! SplitMix64 for derivation, xoshiro256++ for generation, Box–Muller
//! for Gaussians — so seed-for-seed output is a property of this
//! repository, offline, forever.
//!
//! ## Layout
//!
//! * [`SplitMix64`] / [`mix`] — seed expansion and the avalanche
//!   finalizer underlying all derivation ([`splitmix`]).
//! * [`Rng`] — the xoshiro256++ generator with the small surface the
//!   simulation uses: `next_u64`, `f64()` in `[0, 1)`, `gaussian()`,
//!   bounded ranges ([`xoshiro`]).
//! * [`StreamId`] / [`SeedTree`] — domain-separated substream derivation
//!   ([`stream`]).
//!
//! ## The one idiom
//!
//! ```
//! use rng::SeedTree;
//!
//! // At a component boundary: derive the component's stream by name,
//! // then split per channel. Never xor magic constants into seeds.
//! fn capture(master_seed: u64, channel: u64) -> f64 {
//!     let mut rng = SeedTree::new(master_seed)
//!         .stream("pecl.sampler")
//!         .channel(channel)
//!         .rng();
//!     rng.gaussian()
//! }
//!
//! // Same master seed + same path = same draws, independent of what any
//! // other component did first.
//! assert_eq!(capture(2005, 3), capture(2005, 3));
//! assert_ne!(capture(2005, 3), capture(2005, 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod splitmix;
pub mod stream;
pub mod xoshiro;

pub use splitmix::{mix, SplitMix64, GOLDEN_GAMMA};
pub use stream::{SeedTree, StreamId};
pub use xoshiro::{GaussPair, Rng};
