//! The pool-parameterized workload trait: one scheduling surface per
//! sweep.
//!
//! Every exec-powered sweep in the workspace — shmoo grids, wafer runs,
//! eye scans, bathtub sweeps — has one entry point, [`PoolJob::run_on`]:
//! a workload is a value describing *what* to compute, and `run_on`
//! computes it on an explicit [`crate::ExecPool`]. The caller chooses the
//! pool, so the nesting policy is visible at each call site: an outermost
//! loop passes [`crate::ExecPool::from_env`], and work already running
//! inside a pool job passes [`crate::ExecPool::serial`]. Schedulers
//! (benchmarks, the `atd` service layer) drive every workload through
//! this one trait.

use crate::error::ExecError;
use crate::pool::ExecPool;

/// A sweep workload that runs on an explicit worker pool.
///
/// Implementors must uphold the exec determinism contract: the output is
/// a pure function of the job value (and its borrowed inputs), so
/// `run_on` is bit-identical for every pool width.
pub trait PoolJob {
    /// What the workload produces.
    type Output;
    /// The workload's error type; it must absorb pool failures.
    type Error: From<ExecError>;

    /// Runs the workload on `pool`.
    ///
    /// # Errors
    ///
    /// Propagates the workload's own validation/compute errors and any
    /// [`ExecError`] from the pool.
    fn run_on(&self, pool: &ExecPool) -> Result<Self::Output, Self::Error>;
}
