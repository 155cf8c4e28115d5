//! The slot-synchronous Data Vortex fabric simulator.

use core::fmt;

use crate::packet::Packet;
use crate::stats::FabricStats;
use crate::topology::{NodeAddr, VortexParams};

/// Errors raised by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VortexError {
    /// The chosen entry node (or every entry height) is occupied this slot.
    EntryBlocked {
        /// The injection angle.
        angle: u32,
    },
    /// A coordinate outside the fabric geometry.
    OutOfRange {
        /// Which coordinate.
        what: &'static str,
        /// The offending value.
        value: u32,
    },
}

impl fmt::Display for VortexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VortexError::EntryBlocked { angle } => {
                write!(f, "entry nodes at angle {angle} are occupied")
            }
            VortexError::OutOfRange { what, value } => {
                write!(f, "{what} {value} out of range")
            }
        }
    }
}

impl std::error::Error for VortexError {}

/// A packet that reached its output port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The packet (with final hop/deflection counts).
    pub packet: Packet,
    /// Slot at which it was injected.
    pub injected_slot: u64,
    /// Slot at which it left the fabric.
    pub delivered_slot: u64,
}

impl Delivered {
    /// Transit latency in slots.
    pub fn latency(&self) -> u64 {
        self.delivered_slot - self.injected_slot
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    packet: Packet,
    injected_slot: u64,
}

/// The Data Vortex switch fabric.
///
/// Slot-synchronous simulation with the topology's defining properties:
///
/// * single-occupancy nodes, **no optical buffers** — blocked packets keep
///   circulating on their cylinder (virtual buffering);
/// * deflection priority: packets resident on an inner cylinder block
///   descents from the cylinder above (the deflection-signal mechanism);
/// * MSB-first height-bit fixing cylinder by cylinder.
///
/// # Examples
///
/// ```
/// use vortex::{DataVortex, Packet, VortexParams};
///
/// let mut dv = DataVortex::new(VortexParams::eight_node());
/// for id in 0..4 {
///     dv.inject(Packet::new(id, (id as u32) % 8, 0), (id as u32) % 4)?;
/// }
/// let delivered = dv.run_until_drained(1_000);
/// assert_eq!(delivered.len(), 4);
/// # Ok::<(), vortex::VortexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DataVortex {
    params: VortexParams,
    nodes: Vec<Option<InFlight>>,
    slot: u64,
    stats: FabricStats,
}

impl DataVortex {
    /// Creates an empty fabric.
    pub fn new(params: VortexParams) -> Self {
        DataVortex {
            params,
            nodes: vec![None; params.node_count()],
            slot: 0,
            stats: FabricStats::default(),
        }
    }

    /// The fabric geometry.
    pub fn params(&self) -> &VortexParams {
        &self.params
    }

    /// The current slot number.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Number of packets currently circulating.
    pub fn in_flight(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Number of packets on cylinder `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` exceeds the cylinder count.
    pub fn cylinder_occupancy(&self, c: u32) -> usize {
        assert!(c < self.params.cylinders(), "cylinder out of range");
        let mut count = 0;
        for a in 0..self.params.angles() {
            for h in 0..self.params.heights() {
                if self.nodes[NodeAddr::new(c, a, h).index(&self.params)].is_some() {
                    count += 1;
                }
            }
        }
        count
    }

    /// Injects a packet at cylinder 0 on `angle`, picking the first free
    /// entry height.
    ///
    /// # Errors
    ///
    /// [`VortexError::EntryBlocked`] when every height at that angle is
    /// occupied, [`VortexError::OutOfRange`] for bad coordinates.
    pub fn inject(&mut self, packet: Packet, angle: u32) -> Result<(), VortexError> {
        if angle >= self.params.angles() {
            return Err(VortexError::OutOfRange { what: "angle", value: angle });
        }
        for h in 0..self.params.heights() {
            if self.try_inject_at(packet, angle, h)? {
                return Ok(());
            }
        }
        self.stats.injection_blocked += 1;
        Err(VortexError::EntryBlocked { angle })
    }

    /// Injects at a specific entry height. Returns `false` (without error)
    /// if that node is occupied.
    ///
    /// # Errors
    ///
    /// [`VortexError::OutOfRange`] for bad coordinates or a destination
    /// beyond the fabric's height range.
    pub fn try_inject_at(
        &mut self,
        packet: Packet,
        angle: u32,
        height: u32,
    ) -> Result<bool, VortexError> {
        if angle >= self.params.angles() {
            return Err(VortexError::OutOfRange { what: "angle", value: angle });
        }
        if !self.params.height_in_range(height) {
            return Err(VortexError::OutOfRange { what: "height", value: height });
        }
        if !self.params.height_in_range(packet.dest_height()) {
            return Err(VortexError::OutOfRange {
                what: "destination height",
                value: packet.dest_height(),
            });
        }
        let idx = NodeAddr::new(0, angle, height).index(&self.params);
        if self.nodes[idx].is_some() {
            return Ok(false);
        }
        self.nodes[idx] = Some(InFlight { packet, injected_slot: self.slot });
        self.stats.injected += 1;
        Ok(true)
    }

    /// Advances the fabric one slot; returns the packets delivered in this
    /// slot.
    pub fn step(&mut self) -> Vec<Delivered> {
        let p = self.params;
        let c_count = p.cylinders();
        let mut next: Vec<Option<InFlight>> = vec![None; self.nodes.len()];
        let mut delivered = Vec::new();
        let mut output_busy = vec![false; p.heights() as usize];

        // Innermost cylinders move first: residents get priority over
        // descenders (the deflection-signal contract).
        for c in (0..c_count).rev() {
            for a in 0..p.angles() {
                let a_next = (a + 1) % p.angles();
                for h in 0..p.heights() {
                    let idx = NodeAddr::new(c, a, h).index(&p);
                    let Some(mut flight) = self.nodes[idx] else { continue };
                    let dest = flight.packet.dest_height();
                    let bit_ok = p.bit_matches(c, h, dest);

                    if bit_ok && c == c_count - 1 {
                        // All bits fixed: eject to output port `dest`.
                        if !output_busy[dest as usize] {
                            output_busy[dest as usize] = true;
                            flight.packet.record_hop(false);
                            let d = Delivered {
                                packet: flight.packet,
                                injected_slot: flight.injected_slot,
                                delivered_slot: self.slot + 1,
                            };
                            self.stats.delivered += 1;
                            self.stats.total_deflections += u64::from(flight.packet.deflections());
                            self.stats.latency.record(d.latency());
                            delivered.push(d);
                            continue;
                        }
                        // Output contention: circulate at the same height.
                        self.place_on_cylinder(&mut next, c, a_next, h, flight, true);
                        continue;
                    }

                    if bit_ok {
                        // Try to descend; the inner cylinder was already
                        // placed, so occupancy in `next` is authoritative.
                        let down = NodeAddr::new(c + 1, a_next, h).index(&p);
                        if next[down].is_none() {
                            flight.packet.record_hop(false);
                            next[down] = Some(flight);
                            continue;
                        }
                        // Blocked by the inner cylinder: circulate.
                        self.place_on_cylinder(&mut next, c, a_next, h, flight, true);
                        continue;
                    }

                    // Wrong bit: cross to the partner height to fix it.
                    let cross = p.crossing_height(c, h);
                    self.place_on_cylinder(&mut next, c, a_next, cross, flight, true);
                }
            }
        }

        self.nodes = next;
        self.slot += 1;
        self.stats.slots += 1;
        delivered
    }

    /// Places a packet on its own cylinder at `angle`, preferring `height`
    /// and falling back to the crossing partner if taken.
    fn place_on_cylinder(
        &mut self,
        next: &mut [Option<InFlight>],
        c: u32,
        angle: u32,
        height: u32,
        mut flight: InFlight,
        deflected: bool,
    ) {
        let p = self.params;
        flight.packet.record_hop(deflected);
        let first = NodeAddr::new(c, angle, height).index(&p);
        // xlint::allow(panic-reachable, NodeAddr::index always stays below params.node_count() == next.len())
        if next[first].is_none() {
            // xlint::allow(panic-reachable, NodeAddr::index always stays below params.node_count() == next.len())
            next[first] = Some(flight);
            return;
        }
        let alt = NodeAddr::new(c, angle, p.crossing_height(c, height)).index(&p);
        // xlint::allow(panic-reachable, NodeAddr::index always stays below params.node_count() == next.len())
        if next[alt].is_none() {
            // xlint::allow(panic-reachable, NodeAddr::index always stays below params.node_count() == next.len())
            next[alt] = Some(flight);
            return;
        }
        // With single-occupancy sources, at most two packets contend for a
        // crossing pair, so one of the two slots is always free.
        // xlint::allow(no-panic-in-lib, single-occupancy sources mean at most two packets contend for a crossing pair so one slot is always free; see the invariant note above)
        unreachable!("crossing pair had no free node — occupancy invariant broken");
    }

    /// Runs until the fabric drains or `max_slots` elapse; returns every
    /// packet delivered during the run.
    pub fn run_until_drained(&mut self, max_slots: u64) -> Vec<Delivered> {
        let mut all = Vec::new();
        for _ in 0..max_slots {
            all.extend(self.step());
            if self.in_flight() == 0 {
                break;
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> DataVortex {
        DataVortex::new(VortexParams::eight_node())
    }

    #[test]
    fn single_packet_routes_to_destination() {
        for dest in 0..8 {
            let mut dv = fabric();
            dv.inject(Packet::new(u64::from(dest), dest, 0), 0).unwrap();
            let out = dv.run_until_drained(100);
            assert_eq!(out.len(), 1, "dest {dest}");
            assert_eq!(out[0].packet.dest_height(), dest);
            // Min latency is one hop per cylinder; deflections add more.
            assert!(out[0].latency() >= 3, "latency {}", out[0].latency());
            assert!(out[0].latency() <= 10);
        }
    }

    #[test]
    fn latency_grows_with_mismatched_bits() {
        // dest whose every bit mismatches the entry height takes crossings.
        let mut dv = fabric();
        dv.try_inject_at(Packet::new(0, 0b111, 0), 0, 0b000).unwrap();
        let out = dv.run_until_drained(100);
        assert_eq!(out.len(), 1);
        // 3 descents + 3 crossings = 6 hops.
        assert_eq!(out[0].latency(), 6);
        assert_eq!(out[0].packet.deflections(), 3);

        let mut dv = fabric();
        dv.try_inject_at(Packet::new(0, 0b101, 0), 0, 0b101).unwrap();
        let out = dv.run_until_drained(100);
        assert_eq!(out[0].latency(), 3);
        assert_eq!(out[0].packet.deflections(), 0);
    }

    #[test]
    fn all_pairs_route_correctly() {
        // Every (entry height, destination) combination delivers.
        for entry in 0..8 {
            for dest in 0..8 {
                let mut dv = fabric();
                dv.try_inject_at(Packet::new(1, dest, 0), 1, entry).unwrap();
                let out = dv.run_until_drained(200);
                assert_eq!(out.len(), 1, "entry {entry} dest {dest}");
                assert_eq!(out[0].packet.dest_height(), dest);
            }
        }
    }

    #[test]
    fn concurrent_packets_all_deliver() {
        let mut dv = fabric();
        // Fill all four angles with packets to distinct destinations.
        for a in 0..4 {
            for (i, dest) in [a, a + 4].iter().enumerate() {
                dv.inject(Packet::new(u64::from(a * 2 + i as u32), *dest % 8, 0), a).unwrap();
            }
        }
        assert_eq!(dv.in_flight(), 8);
        let out = dv.run_until_drained(500);
        assert_eq!(out.len(), 8);
        assert_eq!(dv.stats().delivered, 8);
        assert_eq!(dv.stats().delivery_ratio(), 1.0);
    }

    #[test]
    fn hotspot_contention_serializes_deliveries() {
        // Many packets to ONE output: the port takes one per slot, the rest
        // circulate (virtual buffering) — nothing is lost.
        let mut dv = fabric();
        for id in 0..8 {
            dv.inject(Packet::new(id, 5, 0), (id % 4) as u32).unwrap();
        }
        let out = dv.run_until_drained(500);
        assert_eq!(out.len(), 8);
        // Deliveries at port 5 happen in distinct slots.
        let mut slots: Vec<u64> = out.iter().map(|d| d.delivered_slot).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 8, "one delivery per slot at a hotspot port");
        assert!(dv.stats().total_deflections > 0);
    }

    #[test]
    fn injection_blocking() {
        let mut dv = fabric();
        // Occupy every height at angle 0.
        for h in 0..8 {
            assert!(dv.try_inject_at(Packet::new(u64::from(h), 0, 0), 0, h).unwrap());
        }
        // Ninth injection at angle 0 fails.
        let err = dv.inject(Packet::new(99, 0, 0), 0).unwrap_err();
        assert_eq!(err, VortexError::EntryBlocked { angle: 0 });
        assert_eq!(dv.stats().injection_blocked, 1);
        // Same-node targeted injection reports false.
        assert!(!dv.try_inject_at(Packet::new(100, 0, 0), 0, 3).unwrap());
    }

    #[test]
    fn out_of_range_errors() {
        let mut dv = fabric();
        assert!(matches!(
            dv.inject(Packet::new(0, 0, 0), 9),
            Err(VortexError::OutOfRange { what: "angle", .. })
        ));
        assert!(matches!(
            dv.try_inject_at(Packet::new(0, 0, 0), 0, 99),
            Err(VortexError::OutOfRange { what: "height", .. })
        ));
        assert!(matches!(
            dv.try_inject_at(Packet::new(0, 99, 0), 0, 0),
            Err(VortexError::OutOfRange { what: "destination height", .. })
        ));
        assert!(VortexError::EntryBlocked { angle: 1 }.to_string().contains("angle 1"));
        assert!(VortexError::OutOfRange { what: "height", value: 9 }
            .to_string()
            .contains("height 9"));
    }

    #[test]
    fn saturation_run_conserves_packets() {
        // Offered load at every angle for many slots: injected = delivered
        // + still in flight; nothing vanishes.
        let mut dv = fabric();
        let mut injected = 0u64;
        let mut delivered = 0u64;
        for slot in 0..200u64 {
            for a in 0..4 {
                let dest = ((slot + u64::from(a) * 3) % 8) as u32;
                if dv.inject(Packet::new(injected, dest, 0), a).is_ok() {
                    injected += 1;
                }
            }
            delivered += dv.step().len() as u64;
        }
        delivered += dv.run_until_drained(1_000).len() as u64;
        assert_eq!(dv.in_flight(), 0);
        assert_eq!(injected, delivered, "packet conservation");
        assert_eq!(dv.stats().delivered, delivered);
        assert!(dv.stats().latency.mean() >= 3.0);
        assert!(dv.stats().throughput() > 0.0);
    }

    #[test]
    fn occupancy_reporting() {
        let mut dv = fabric();
        dv.try_inject_at(Packet::new(0, 7, 0), 0, 0).unwrap();
        assert_eq!(dv.cylinder_occupancy(0), 1);
        assert_eq!(dv.cylinder_occupancy(1), 0);
        dv.step();
        // After one slot the packet has descended (bit matched or crossed).
        assert_eq!(dv.in_flight(), 1);
        assert_eq!(dv.slot(), 1);
        assert!(format!("{:?}", dv.params()).contains("cylinders: 3"));
    }

    #[test]
    fn wavelengths_are_preserved() {
        let mut dv = fabric();
        dv.inject(Packet::new(0, 3, 7), 0).unwrap();
        let out = dv.run_until_drained(100);
        assert_eq!(out[0].packet.wavelength().0, 7);
    }
}
