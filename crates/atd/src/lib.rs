//! # gigatest-atd — the remote test-head service
//!
//! The paper's mini-tester sits on a probe card with nothing but DC
//! power, one RF clock, and a thin serial link to the outside world
//! (§4) — which makes the *control plane* a protocol problem: the host
//! talks to the test head through a narrow, well-defined wire format and
//! the test head does the heavy lifting locally. This crate reproduces
//! that arrangement for the simulated instrument stack:
//!
//! * [`wire`] — "THP/2", a hand-rolled length-prefixed binary framing
//!   with typed decode errors. Total: arbitrary bytes from the network
//!   become [`wire::FrameError`]s, never panics. Every frame carries a
//!   client-chosen correlation id and a STREAM/FINAL flag, so responses
//!   may arrive out of order and in parts; at depth 1 it is a plain
//!   serial protocol.
//! * [`proto`] — typed requests/responses and the job vocabulary
//!   ([`JobSpec`] / [`JobResult`]) covering the existing workloads:
//!   shmoo plots, wafer runs, eye scans, and bathtub sweeps. Encodings
//!   are canonical (exact integers, IEEE-754 bits), so a spec's bytes
//!   are its identity.
//! * [`scheduler`] + [`cache`] — session-fair batching over
//!   [`exec::ExecPool`] with bounded admission (`Busy` sheds), identical
//!   submissions coalesced per drain, and an FNV-1a content-addressed LRU
//!   result cache. Because every workload is bit-identical at any thread
//!   count, a cache hit is byte-for-byte the same as a recomputation.
//! * [`service`] / `session` / [`server`] / [`transport`] — one
//!   request path: a session holds a connection's protocol
//!   state (frame cutting, correlation set and depth cap, chunk-stream
//!   outbox) with no socket in sight. The `atd` daemon's nonblocking
//!   event loop wraps one around each TCP connection; the in-memory
//!   [`Loopback`] wraps one around buffers, so the whole service is
//!   testable without a socket and still runs the daemon's own code.
//! * [`stream`] / [`pipeline`] — streaming: results are cut into
//!   semantic chunks (shmoo rows, wafer stripes, eye columns, bathtub
//!   segments) whose concatenation is byte-identical to the monolithic
//!   encoding, and the one [`Client`] keeps a depth-K window of
//!   correlated submissions in flight over any `Read + Write` stream
//!   ([`PipelinedClient`] over TCP).
//! * [`store`] (re-exported) — the persistent tier behind the LRU: on a
//!   cache miss the scheduler reads through to an append-only segment
//!   store keyed by the same FNV-1a spec digest, and writes computed
//!   successes behind. A restarted daemon rehydrates its warm set from
//!   disk, byte-identical to recomputation.
//!
//! Configuration: `ATD_QUEUE_DEPTH` and `ATD_CACHE_ENTRIES` override the
//! admission-queue and cache bounds, `ATD_PIPELINE_DEPTH` caps the
//! per-session pipeline, and `ATD_IDLE_TICKS` sets the slow-loris
//! eviction budget — all with the same lenient parse-or-default
//! behaviour as `EXEC_THREADS`. `ATD_STORE_DIR` attaches the persistent
//! result store (unset means memory-only), with
//! `ATD_STORE_SEGMENT_BYTES` / `ATD_STORE_MAX_BYTES` bounding segment
//! rotation and total disk use.
//!
//! ## Example: loopback session
//!
//! ```
//! use atd::{Client, Event, JobSpec, Loopback, Provenance, Service};
//! use pstime::{DataRate, Duration};
//!
//! let mut client = Client::new(Loopback::new(Service::from_env()));
//! let spec = JobSpec::bathtub(
//!     Duration::from_ps_f64(3.2),
//!     Duration::from_ps(20),
//!     DataRate::from_gbps(2.5),
//!     0.5,
//!     101,
//! );
//! let first = client.submit(1, spec)?;
//! let second = client.submit(2, spec)?;
//! assert!(matches!(first, Event::Done { provenance: Provenance::Computed, .. }));
//! // The replay is served from the cache, byte-identical.
//! assert!(matches!(second, Event::Done { provenance: Provenance::Cache, .. }));
//! # Ok::<(), atd::AtdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod error;
pub mod pipeline;
pub mod proto;
pub mod scheduler;
pub mod server;
pub mod service;
mod session;
pub mod stream;
pub mod transport;
pub mod wire;
pub mod workload;

pub use error::AtdError;
pub use pipeline::{Client, PipelinedClient};
pub use proto::{JobResult, JobSpec, Provenance, Request, Response, ServiceStats, FAILURE_ID};
pub use scheduler::{Admission, Completion, Scheduler};
pub use server::{serve, serve_with, ServerConfig};
pub use service::Service;
pub use stream::{chunk_result, push_stream, stream_digest, Event, Reassembler, StreamDigest};
pub use transport::Loopback;

// The durable tier's crate, re-exported so dependants (the farm, the
// load generator) configure stores without a direct dependency edge.
pub use store;

/// Convenient result alias for service operations.
pub type Result<T> = core::result::Result<T, AtdError>;
