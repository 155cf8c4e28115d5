//! Fixture: a frame-reading crate for `wire-taint` (R11). A length
//! decoded off the wire sizes an allocation with no bound
//! (`collect_unchecked` fires); the same flow behind a `limits::`
//! comparison stays silent, and a documented upstream bound suppresses
//! via a reasoned allow.

#![forbid(unsafe_code)]

/// Pretend decoder: the returned length is peer-controlled.
pub fn decode_frame2(bytes: &[u8]) -> usize {
    bytes.len()
}

/// Admission ceilings for decoded quantities.
pub mod limits {
    /// Largest item count a frame may declare.
    pub const MAX_ITEMS: usize = 1024;
}

/// wire-taint: the decoded count reaches `Vec::with_capacity` with no
/// validate/limits check between.
pub fn collect_unchecked(bytes: &[u8]) -> Vec<u8> {
    let n = decode_frame2(bytes);
    Vec::with_capacity(n)
}

/// Silent: the comparison against `limits::MAX_ITEMS` certifies the
/// decoded count bounded before it sizes the allocation.
pub fn collect_checked(bytes: &[u8]) -> Vec<u8> {
    let n = decode_frame2(bytes);
    if n > limits::MAX_ITEMS {
        return Vec::new();
    }
    Vec::with_capacity(n)
}

/// Suppressed: the bound lives upstream and is documented at the site.
pub fn collect_allowed(bytes: &[u8]) -> Vec<u8> {
    let n = decode_frame2(bytes);
    // xlint::allow(wire-taint, the transport caps reads at 1 KiB so n is bounded before this crate sees it)
    Vec::with_capacity(n)
}
