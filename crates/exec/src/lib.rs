//! # gigatest-exec — deterministic parallel execution for sweep workloads
//!
//! Every hot loop in this repository is an *indexed sweep*: a shmoo grid is
//! `rows × cols` independent capture points, a wafer run is one job per die,
//! an equivalent-time eye scan is one job per strobe phase, a bathtub sweep
//! is one job per sampling phase. The paper's mini-tester is explicitly
//! meant to be "replicated as an array for parallel probing", and the
//! seed-tree refactor (see `rng::SeedTree`) already gives every work item an
//! order-independent substream — so these sweeps can fan out across worker
//! threads without changing a single output bit.
//!
//! This crate is the engine that does the fanning out:
//!
//! * [`ExecPool`] — a scoped worker pool over `std::thread` (zero
//!   dependencies, no unsafe). [`ExecPool::new`] pins the width explicitly;
//!   [`ExecPool::from_env`] honors the `EXEC_THREADS` environment variable
//!   and falls back to the machine's available parallelism.
//! * [`ExecPool::run`] — execute `n` indexed jobs with chunked
//!   work-stealing and write every result into its **index-addressed slot**,
//!   so the assembled output is bit-identical regardless of worker count or
//!   steal schedule.
//! * Panic capture — a panicking job is caught on its worker, converted
//!   into [`ExecError::JobPanicked`], and the rest of the pool drains
//!   instead of aborting the process.
//! * [`ExecStats`] — per-run observability: job count, workers, steal
//!   count, and per-worker item counts.
//!
//! ## Determinism contract
//!
//! A job must be a pure function of its index (plus shared read-only
//! state). Under that contract the pool guarantees: `run(n, f)` with any
//! thread count produces the same `Vec` as `(0..n).map(f).collect()`.
//! Scheduling only decides *who* computes a slot, never *what* lands in it.
//!
//! ## Example
//!
//! ```
//! use exec::ExecPool;
//!
//! let wide = ExecPool::new(8);
//! let narrow = ExecPool::new(1);
//! let square = |i: usize| (i * i) as u64;
//! assert_eq!(wide.run(100, square).unwrap().results, narrow.run(100, square).unwrap().results);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
mod error;
mod job;
mod pool;
mod stats;

pub use error::ExecError;
pub use job::PoolJob;
pub use pool::{ExecOutcome, ExecPool, EXEC_THREADS_ENV};
pub use stats::ExecStats;
