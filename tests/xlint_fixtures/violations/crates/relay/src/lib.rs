//! Fixture: invokes the pool with no bridge at all, justified inline —
//! the reasoned allow covers the missing-bridge finding at the first
//! invoke site.

#![forbid(unsafe_code)]

/// Results and errors are discarded at this boundary, so there is no
/// error enum to bridge into.
pub fn fire_and_forget(pool: &ExecPool, jobs: &[u64]) { // xlint::allow(error-bridge-exhaustive, results and errors are discarded at this boundary so there is no crate error enum to bridge into)
    let _ = pool.run(jobs.len(), |i| jobs.get(i).copied());
}
