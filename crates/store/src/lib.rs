//! # gigatest-store — the durable tier behind the result cache
//!
//! A test head that forgets its wafer-run history on every restart
//! forfeits the cache-hit economics the probe-card split is built on
//! (paper §4): the heavy lifting happens at the head, so the head must
//! be able to serve what it already computed — across process restarts,
//! not just across requests. This crate is that durable tier: a
//! persistent content-addressed store of canonical `JobResult` bytes,
//! keyed by the same FNV-1a digest of the spec's canonical key bytes
//! that the in-memory LRU and the farm's consistent-hash ring use.
//! Routing affinity, cache affinity, and disk affinity are one
//! mechanism.
//!
//! ## Shape
//!
//! * [`record`] — the fixed on-disk record grammar: magic, FNV-1a
//!   spec-key digest, key/payload lengths, the key and payload bytes,
//!   and a trailing FNV-1a checksum over everything after the magic.
//!   Disk bytes are parsed with the same hostility as wire bytes: every
//!   length is bounds-checked against [`limits`] before it sizes an
//!   allocation or enters length arithmetic.
//! * [`Store`] — append-only segment files with size-bounded rotation,
//!   an in-memory FNV index rebuilt by scanning the segments at open,
//!   and compaction that rewrites live records into
//!   a fresh segment and swaps it in atomically (write-new, fsync,
//!   rename).
//!
//! ## Invariants
//!
//! * **Recovery**: a torn or corrupt tail — a record cut short at any
//!   byte, or any checksum mismatch — is detected at open, truncated,
//!   and never served. Everything before the first bad byte is served
//!   intact, and the reclaimed byte count is reported in
//!   [`StoreStats::reclaimed_bytes`].
//! * **Identity**: [`Store::get`] returns exactly the bytes that were
//!   [`Store::put`]; a digest collision between two distinct keys
//!   degrades to a miss (the full key bytes are stored and compared),
//!   never to the wrong payload.
//! * **Determinism**: nothing here reads a clock or iterates a hash
//!   map; recency is a logical write sequence, so eviction order and
//!   compaction output are functions of the put history alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod record;
mod segment;

pub use error::{RecordError, StoreError};
pub use segment::{
    Store, StoreConfig, StoreStats, DEFAULT_MAX_BYTES, DEFAULT_SEGMENT_BYTES, MIN_SEGMENT_BYTES,
};

/// Admission ceilings for quantities decoded from disk. Segment bytes
/// are treated as hostile the way wire bytes are: a length read from a
/// record header must pass these bounds before it sizes an allocation.
pub mod limits {
    /// Largest spec key a record may carry. Canonical spec keys are tens
    /// of bytes; anything near this ceiling is corruption.
    pub const MAX_KEY_BYTES: usize = 4096;

    /// Largest payload a record may carry — matches the wire protocol's
    /// 1 MiB frame ceiling, since payloads are canonical result
    /// encodings that must fit in a frame to be served.
    pub const MAX_PAYLOAD_BYTES: usize = 1 << 20;
}

/// FNV-1a 64-bit over `bytes`. The spec digest the store addresses by,
/// the atd LRU indexes by (`atd::cache::fnv1a64` re-exports this
/// function) and the farm ring routes by are all this function over the
/// same canonical key bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_vectors() {
        // Offset basis for "", the classic single-byte vector, and a
        // multi-byte one.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
