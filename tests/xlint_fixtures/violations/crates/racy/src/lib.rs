//! Fixture: pool jobs that touch shared-mutation primitives (R8,
//! `exec-job-racy`), plus a reasoned allow on an observability-only
//! counter.

#![forbid(unsafe_code)]

use exec::{ExecError, ExecPool};

/// The crate's error enum; the wholesale wrap below keeps the bridge rule
/// satisfied so this crate seeds only R8 findings.
pub enum RacyError {
    /// The pool failed.
    Pool(ExecError),
}

impl From<ExecError> for RacyError {
    fn from(e: ExecError) -> Self {
        RacyError::Pool(e)
    }
}

/// exec-job-racy: the job mutates a `Mutex` accumulator, so the sum
/// depends on thread interleaving.
pub fn racy_sum(pool: &ExecPool, items: &[u64]) -> u64 {
    let total = Mutex::new(0u64);
    let _ = pool.run(items.len(), |i| {
        if let Ok(mut guard) = total.lock() {
            *guard += items.get(i).copied().unwrap_or(0);
        }
    });
    0
}

/// Suppressed: a metrics counter that never feeds job results, justified
/// with a reasoned allow on the call line.
pub fn counted_copy(pool: &ExecPool, items: &[u64]) -> u64 {
    let hits = AtomicU64::new(0);
    let _ = pool.run(items.len(), |i| { // xlint::allow(exec-job-racy, the hit counter is observability-only and never feeds job results)
        hits.fetch_add(1, Ordering::Relaxed);
        items.get(i).copied()
    });
    0
}
