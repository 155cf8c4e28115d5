//! A sharded multi-head test farm over `atd` heads.
//!
//! The paper's §5 endgame is replicating the miniature wafer tester as an
//! *array*: many identical test heads probing in parallel under one
//! coordinator. This crate is that coordinator. It owns a fleet of `atd`
//! heads — in-process [`atd::Loopback`] services for tests, TCP
//! [`atd::PipelinedClient`] sessions for real deployments — and presents
//! the same `JobSpec → JobResult` surface as a single head.
//!
//! Four pieces compose the farm:
//!
//! - **Shard planner** ([`plan`]): decomposes composite specs along their
//!   natural axis — shmoo grids into threshold-row bands, wafer runs into
//!   die ranges, eye scans into strobe ranges — and passes indivisible
//!   specs through whole. Sub-specs are ordinary [`atd::JobSpec`]s, so
//!   every head validates, caches, and executes them like any other job.
//! - **Consistent-hash routing** ([`HashRing`]): a hash ring over head
//!   ids, keyed on the FNV-1a digest of each sub-spec's canonical key
//!   bytes. Identical sub-specs always land on the same head, so each
//!   head's content-addressed result cache stays hot across campaigns.
//! - **Failure model** ([`Farm`]): a head that gives no answer
//!   (transport loss or a shed) is marked down; its sub-specs re-route
//!   deterministically to the survivors and retry within a bounded
//!   budget ([`FarmConfig::retries`]). Downed heads can be re-admitted,
//!   after which routing reverts to the original ring assignment. A head
//!   that answers a job's failure stays up, and the farm returns that
//!   error ([`FarmError::Job`]).
//! - **Merge layer** ([`merge`]): reassembles sub-results in plan order
//!   and regenerates the final [`atd::JobResult`] through the same native
//!   constructors a single head uses, so the farm's aggregate — data,
//!   counters, and rendered text alike — is byte-identical to a one-head
//!   run at any shard count, even after a mid-campaign failure.
//!
//! Determinism is inherited, not re-proven: sub-workloads seed every
//! cell/die/point from its *global* index, so a band computed on head 3
//! is bit-identical to the same band inside a monolithic run.
//!
//! Heads can also be durable: [`Farm::in_proc_with_store`] gives each
//! head its own persistent result store (`atd`'s `store` tier), and
//! [`Farm::restart_head`] reboots a head over the same directory. The
//! ring keys, the head caches, and the stores all hash with the same
//! FNV-1a digest, so a restarted head rehydrates exactly the warm set
//! the unchanged ring keeps routing to it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod farm;
mod head;
mod merge;
mod plan;
mod ring;

pub use error::FarmError;
pub use farm::{heads_from_env, Farm, FarmConfig, FarmStats, FarmSubmitted, HeadTally};
pub use head::{local_head, local_head_with_store, spec_route_key, Answer, Head};
pub use merge::merge;
pub use plan::plan;
pub use ring::HashRing;
