//! # gigatest-xlint — the workspace's own contract linter
//!
//! PR 1 made the whole stack hermetically deterministic: every stochastic
//! effect flows through `rng::SeedTree` named streams, every timing
//! quantity through `pstime` newtypes, every fallible library path through
//! a crate error type. Those are *contracts*, and nothing in `rustc` or
//! `clippy` knows about them — a future change can quietly xor a salt into
//! a seed, do picosecond math in bare `f64`, or `unwrap()` in a hot path,
//! and every test still passes while repeatability silently degrades.
//!
//! `xlint` closes that gap the same way the paper's authors close the
//! "is the delay chain really monotonic?" gap: with a checking layer you
//! can run, not a convention you have to remember. It is a
//! zero-third-party-dependency static analyzer — a hand-rolled lexer
//! (raw strings, nested block comments, lifetimes vs char literals, byte
//! strings) feeding token-pattern rules — so it builds offline with the
//! rest of the workspace and is itself subject to every rule it enforces.
//!
//! ## Rules
//!
//! See [`rules`] for the table of R1–R8 (`no-adhoc-rng`,
//! `stream-id-unique`, `no-raw-time-volt`, `no-panic-in-lib`,
//! `no-lossy-cast`, `no-wall-clock`, `forbid-unsafe-everywhere`,
//! `exec-job-racy`) and [`graph`] for the semantic passes built on the
//! item parser ([`parse`]): `panic-reachable` (interprocedural panic
//! reachability over the workspace call graph) and
//! `error-bridge-exhaustive` (every crate invoking `exec` bridges
//! `ExecError` completely into its own error type). The cross-file
//! `unreached-pub` pass ([`rules::check_unreached_pub`]) flags a `pub fn`
//! in library source that no other file names; once it is private,
//! rustc's `dead_code` lint finds whatever is left unused.
//!
//! ## Machine output and the incremental cache
//!
//! `--format json|sarif` renders findings through the first-party
//! byte-stable JSON layer ([`json`], [`output`]); the content-hash cache
//! ([`cache`], default `target/xlint-cache.json`) lets warm runs skip
//! per-file analysis for unchanged files while recomputing every
//! cross-file rule, so cold and warm findings are byte-identical.
//!
//! ## Suppressions and the ratchet
//!
//! A finding is silenced only by an inline comment that names the rule
//! *and* gives a reason:
//!
//! ```text
//! let fs = (ps * 1000.0) as i64; // xlint::allow(no-lossy-cast, "bounded by caller to ±10 ns")
//! ```
//!
//! A reason-less `xlint::allow` is itself a deny-tier finding
//! (`bad-allow`). Warn-tier findings are tracked in a committed baseline
//! (`xlint.baseline`): new ones fail CI, old ones burn down, and
//! `--fix-allowlist` re-captures the (smaller) remainder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod classify;
pub mod dataflow;
pub mod engine;
pub mod error;
pub mod facts;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod output;
pub mod parse;
pub mod rules;
pub mod summary;

pub use baseline::{Baseline, Regression};
pub use classify::{classify, collect_sources, FileClass, SourceFile};
pub use engine::{analyze_root, analyze_root_cached, Analysis};
pub use error::XlintError;
pub use rules::{Finding, Severity, TIMING_PATHS};
