//! Data Vortex topology parameters and node addressing.

use core::fmt;

/// Geometry of a Data Vortex fabric.
///
/// `cylinders` (`C`) fixes the address length: the fabric routes to
/// `H = 2^C` output heights. `angles` (`A`) sets the circumference of each
/// cylinder — more angles mean more virtual-buffer capacity and fewer
/// collisions at the cost of latency.
///
/// # Examples
///
/// ```
/// use vortex::VortexParams;
///
/// let p = VortexParams::eight_node();
/// assert_eq!(p.heights(), 8);
/// assert_eq!(p.cylinders(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VortexParams {
    cylinders: u32,
    angles: u32,
}

impl VortexParams {
    /// Creates a geometry with `cylinders` levels and `angles` positions
    /// per cylinder.
    ///
    /// # Panics
    ///
    /// Panics if `cylinders` is 0 or > 16, or `angles` < 2.
    pub fn new(cylinders: u32, angles: u32) -> Self {
        assert!((1..=16).contains(&cylinders), "cylinders must be 1..=16");
        assert!(angles >= 2, "need at least 2 angles");
        VortexParams { cylinders, angles }
    }

    /// The 8-node fabric of the paper's reference \[4\] (Lu et al., an
    /// "Eight-Node Data Vortex Switching Fabric"): 3 cylinders × 4 angles.
    pub fn eight_node() -> Self {
        VortexParams::new(3, 4)
    }

    /// A larger research-scale fabric: 5 cylinders × 8 angles (32 ports).
    pub fn thirty_two_node() -> Self {
        VortexParams::new(5, 8)
    }

    /// Number of cylinders (address bits).
    pub fn cylinders(&self) -> u32 {
        self.cylinders
    }

    /// Number of angles per cylinder.
    pub fn angles(&self) -> u32 {
        self.angles
    }

    /// Number of heights (`2^cylinders`) — the port count.
    pub fn heights(&self) -> u32 {
        1 << self.cylinders
    }

    /// Total node count: `(cylinders + 1) × angles × heights` (the extra
    /// cylinder is the output stage).
    pub fn node_count(&self) -> usize {
        (self.cylinders as usize + 1) * self.angles as usize * self.heights() as usize
    }

    /// The height-bit index fixed at cylinder `c` (MSB first: cylinder 0
    /// fixes the most significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `c >= cylinders`.
    fn bit_for_cylinder(&self, c: u32) -> u32 {
        assert!(c < self.cylinders, "cylinder out of range");
        self.cylinders - 1 - c
    }

    /// Whether height `h`'s cylinder-`c` bit already matches destination
    /// `dest`'s.
    pub fn bit_matches(&self, c: u32, h: u32, dest: u32) -> bool {
        let bit = self.bit_for_cylinder(c);
        (h >> bit) & 1 == (dest >> bit) & 1
    }

    /// The height reached by a same-cylinder hop at cylinder `c` from
    /// height `h`: the node with the cylinder bit toggled, giving the
    /// packet a chance to fix the bit on the next angle.
    pub fn crossing_height(&self, c: u32, h: u32) -> u32 {
        h ^ (1 << self.bit_for_cylinder(c))
    }

    /// Validates a height value.
    pub fn height_in_range(&self, h: u32) -> bool {
        h < self.heights()
    }
}

impl fmt::Display for VortexParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DataVortex C={} A={} H={} ({} nodes)",
            self.cylinders,
            self.angles,
            self.heights(),
            self.node_count()
        )
    }
}

/// Address of one routing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeAddr {
    /// Cylinder index (0 = outermost/entry).
    pub cylinder: u32,
    /// Angle position around the cylinder.
    pub angle: u32,
    /// Height within the cylinder.
    pub height: u32,
}

impl NodeAddr {
    /// Creates a node address.
    pub fn new(cylinder: u32, angle: u32, height: u32) -> Self {
        NodeAddr { cylinder, angle, height }
    }

    /// Linear index of this node within a fabric of geometry `p`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for `p` (cylinder may equal
    /// `p.cylinders()` — the output stage).
    pub fn index(&self, p: &VortexParams) -> usize {
        assert!(self.cylinder <= p.cylinders(), "cylinder out of range");
        assert!(self.angle < p.angles(), "angle out of range");
        assert!(self.height < p.heights(), "height out of range");
        ((self.cylinder * p.angles() + self.angle) * p.heights() + self.height) as usize
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(c{},a{},h{})", self.cylinder, self.angle, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let p = VortexParams::eight_node();
        assert_eq!(p.cylinders(), 3);
        assert_eq!(p.angles(), 4);
        assert_eq!(p.heights(), 8);
        assert_eq!(p.node_count(), 4 * 4 * 8);
        assert_eq!(p.to_string(), "DataVortex C=3 A=4 H=8 (128 nodes)");
        let big = VortexParams::thirty_two_node();
        assert_eq!(big.heights(), 32);
    }

    #[test]
    fn bit_fixing_is_msb_first() {
        let p = VortexParams::eight_node();
        assert_eq!(p.bit_for_cylinder(0), 2);
        assert_eq!(p.bit_for_cylinder(1), 1);
        assert_eq!(p.bit_for_cylinder(2), 0);
    }

    #[test]
    fn bit_matching() {
        let p = VortexParams::eight_node();
        // dest 0b101: cylinder 0 checks bit 2 (=1).
        assert!(p.bit_matches(0, 0b100, 0b101));
        assert!(!p.bit_matches(0, 0b000, 0b101));
        // cylinder 2 checks bit 0 (=1).
        assert!(p.bit_matches(2, 0b001, 0b101));
        assert!(!p.bit_matches(2, 0b000, 0b101));
    }

    #[test]
    fn crossing_toggles_exactly_the_cylinder_bit() {
        let p = VortexParams::eight_node();
        assert_eq!(p.crossing_height(0, 0b000), 0b100);
        assert_eq!(p.crossing_height(1, 0b000), 0b010);
        assert_eq!(p.crossing_height(2, 0b111), 0b110);
        // Crossing twice returns home.
        for c in 0..3 {
            for h in 0..8 {
                assert_eq!(p.crossing_height(c, p.crossing_height(c, h)), h);
            }
        }
    }

    #[test]
    fn node_indexing_is_bijective() {
        let p = VortexParams::eight_node();
        let mut seen = std::collections::HashSet::new();
        for c in 0..=p.cylinders() {
            for a in 0..p.angles() {
                for h in 0..p.heights() {
                    let idx = NodeAddr::new(c, a, h).index(&p);
                    assert!(idx < p.node_count());
                    assert!(seen.insert(idx), "duplicate index {idx}");
                }
            }
        }
        assert_eq!(seen.len(), p.node_count());
    }

    #[test]
    fn height_range() {
        let p = VortexParams::eight_node();
        assert!(p.height_in_range(7));
        assert!(!p.height_in_range(8));
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeAddr::new(1, 2, 3).to_string(), "(c1,a2,h3)");
    }

    #[test]
    #[should_panic(expected = "cylinders must be 1..=16")]
    fn zero_cylinders_panics() {
        let _ = VortexParams::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "angle out of range")]
    fn bad_angle_panics() {
        let p = VortexParams::eight_node();
        let _ = NodeAddr::new(0, 9, 0).index(&p);
    }
}
