//! # gigatest-vortex — a Data Vortex optical packet switch simulator
//!
//! The paper's Optical Test Bed exists to "exercise and test a Data Vortex,
//! an experimental switching fabric designed to address the issues
//! associated with interfacing an optical packet interconnection network to
//! high-performance computing systems" (§3, refs \[4, 5\]). A reproduction
//! of the test system therefore needs the device under test: this crate is
//! a slot-synchronous simulator of the Data Vortex topology (Reed's
//! "multiple level minimum logic network", US 5,996,020).
//!
//! ## Topology
//!
//! A Data Vortex with `C` cylinders, `A` angles, and `H = 2^C` heights is a
//! set of nodes `(c, a, h)`. Packets enter at cylinder 0 and spiral inward:
//! cylinder `c` fixes bit `c` (MSB-first) of the destination height. Every
//! slot a packet moves to angle `a+1 (mod A)`; it *descends* one cylinder
//! when its current height bit matches the destination and the target node
//! is free, otherwise it stays on its cylinder — circulating packets **are**
//! the network's buffer ("virtual buffering", the banyan-without-memory
//! trick the paper's reference \[4\] demonstrates on an 8-node fabric).
//! Deflection signals guarantee single occupancy per node without optical
//! memory.
//!
//! ## Example
//!
//! ```
//! use vortex::{DataVortex, Packet, VortexParams};
//!
//! let mut dv = DataVortex::new(VortexParams::eight_node());
//! dv.inject(Packet::new(0, 5, 0), 0)?; // id 0, destination height 5, λ0
//! let delivered = dv.run_until_drained(100);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].packet.dest_height(), 5);
//! # Ok::<(), vortex::VortexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod packet;
mod stats;
mod topology;
pub mod traffic;

pub use fabric::{DataVortex, Delivered, VortexError};
pub use packet::{Packet, Wavelength};
pub use stats::{FabricStats, LatencyStats};
pub use topology::{NodeAddr, VortexParams};
