//! Fixture: a farm-router crate seeding `wire-taint` and
//! `panic-reachable` in coordinator-shaped code. A head count decoded
//! off the wire sizes the ring's point vector with no bound
//! (`ring_unchecked` fires); the same flow behind a `limits::` ceiling
//! stays silent, and a documented upstream bound suppresses via a
//! reasoned allow. On the panic side, the pub routing entry reaches a
//! private point lookup that indexes the ring without a length check
//! (`route` fires at the entry point), while the guarded lookup's
//! reasoned allow clears its chain.

#![forbid(unsafe_code)]

/// Pretend decoder: the returned head count is peer-controlled.
pub fn decode_frame2(bytes: &[u8]) -> usize {
    bytes.len()
}

/// Admission ceilings for decoded fleet parameters.
pub mod limits {
    /// Largest fleet a HELLO frame may declare.
    pub const MAX_HEADS: usize = 64;
}

/// wire-taint: the decoded head count sizes the ring's point vector
/// with no validate/limits check between.
pub fn ring_unchecked(bytes: &[u8]) -> Vec<u64> {
    let heads = decode_frame2(bytes);
    Vec::with_capacity(heads)
}

/// Silent: the comparison against `limits::MAX_HEADS` certifies the
/// decoded fleet size bounded before it sizes the ring.
pub fn ring_checked(bytes: &[u8]) -> Vec<u64> {
    let heads = decode_frame2(bytes);
    if heads > limits::MAX_HEADS {
        return Vec::new();
    }
    Vec::with_capacity(heads)
}

/// Suppressed: the bound lives upstream and is documented at the site.
pub fn ring_allowed(bytes: &[u8]) -> Vec<u64> {
    let heads = decode_frame2(bytes);
    // xlint::allow(wire-taint, the session handshake rejects fleets over 64 heads before this crate sees the count)
    Vec::with_capacity(heads)
}

/// panic-reachable: routes a key by reaching `points[at]` through
/// `point_at`, which indexes the ring without a bounds check.
pub fn route(points: &[u64], key: usize) -> u64 {
    point_at(points, key)
}

fn point_at(points: &[u64], at: usize) -> u64 {
    points[at]
}

/// Clean: the guarded lookup's root site carries a reasoned allow,
/// which clears this entire chain.
pub fn route_guarded(points: &[u64], key: usize) -> u64 {
    point_guarded(points, key)
}

fn point_guarded(points: &[u64], at: usize) -> u64 {
    if at < points.len() {
        points[at] // xlint::allow(panic-reachable, guarded by the explicit length check on the line above)
    } else {
        0
    }
}
