//! Fixture: an incomplete `From<ExecError>` bridge — the match names only
//! one of the three variants, so `error-bridge-exhaustive` fires on the
//! impl.

#![forbid(unsafe_code)]

use exec::{ExecError, ExecPool};

/// The crate's error enum.
pub enum BridgeError {
    /// The pool failed.
    Pool,
}

impl From<ExecError> for BridgeError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::SpawnFailed => BridgeError::Pool,
            _ => BridgeError::Pool,
        }
    }
}

/// Uses the pool, so the crate must bridge ExecError completely.
pub fn run_jobs(pool: &ExecPool, jobs: &[u64]) -> u64 {
    let _ = pool.run(jobs.len(), |i| jobs.get(i).copied());
    0
}
