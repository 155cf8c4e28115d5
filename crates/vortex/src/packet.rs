//! Packets and wavelength channels.

use core::fmt;

/// A WDM wavelength channel index.
///
/// The test bed modulates "lasers of different wavelengths" and combines
/// them optically; in the Data Vortex each payload wavelength carries part
/// of the parallel word while routing is done on dedicated header
/// wavelengths. For the simulator a wavelength is an identity tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Wavelength(pub u8);

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// A packet traversing the fabric: identity, destination height, wavelength,
/// and accounting for latency/deflection statistics.
///
/// # Examples
///
/// ```
/// use vortex::Packet;
///
/// let p = Packet::new(42, 5, 1);
/// assert_eq!(p.id(), 42);
/// assert_eq!(p.dest_height(), 5);
/// assert_eq!(p.wavelength().0, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    id: u64,
    dest_height: u32,
    wavelength: Wavelength,
    hops: u32,
    deflections: u32,
}

impl Packet {
    /// Creates a packet addressed to `dest_height` on wavelength channel
    /// `lambda`.
    pub fn new(id: u64, dest_height: u32, lambda: u8) -> Self {
        Packet { id, dest_height, wavelength: Wavelength(lambda), hops: 0, deflections: 0 }
    }

    /// The packet's identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The destination output height.
    pub fn dest_height(&self) -> u32 {
        self.dest_height
    }

    /// The wavelength channel.
    pub fn wavelength(&self) -> Wavelength {
        self.wavelength
    }

    /// Total hops taken so far.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Hops that were deflections (same-cylinder moves forced by blocking
    /// or a mismatched bit).
    pub fn deflections(&self) -> u32 {
        self.deflections
    }

    pub(crate) fn record_hop(&mut self, deflected: bool) {
        self.hops += 1;
        if deflected {
            self.deflections += 1;
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkt#{} -> h{} on {} ({} hops, {} deflections)",
            self.id, self.dest_height, self.wavelength, self.hops, self.deflections
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Packet::new(7, 3, 2);
        assert_eq!(p.id(), 7);
        assert_eq!(p.dest_height(), 3);
        assert_eq!(p.wavelength(), Wavelength(2));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.deflections(), 0);
    }

    #[test]
    fn hop_accounting() {
        let mut p = Packet::new(0, 0, 0);
        p.record_hop(false);
        p.record_hop(true);
        p.record_hop(true);
        assert_eq!(p.hops(), 3);
        assert_eq!(p.deflections(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Wavelength(3).to_string(), "λ3");
        let p = Packet::new(1, 2, 3);
        assert!(p.to_string().contains("pkt#1"));
        assert!(p.to_string().contains("h2"));
    }
}
