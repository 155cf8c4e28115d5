//! The coordinator's view of one test head.
//!
//! A head is anything that can execute a [`JobSpec`] and report service
//! counters. The one real implementation is [`Client`] over any byte
//! stream: an in-process [`Loopback`] service (tests, benches) or a TCP
//! connection to a daemon ([`atd::PipelinedClient`], real deployments).
//! The farm treats every submission error — including a `Busy` shed — as
//! a head failure: the coordinator's contract is bounded retries with
//! re-shard, not client-side backoff, so a head that cannot accept work
//! right now is simply routed around until re-admitted.

use std::io::{Read, Write};
use std::path::Path;

use atd::scheduler::Scheduler;
use atd::store::{Store, StoreConfig};
use atd::{
    AtdError, Client, Event, JobResult, JobSpec, Loopback, Provenance, Service, ServiceStats,
};
use exec::ExecPool;

/// One test head under farm control.
pub trait Head {
    /// Executes `spec` under `session`, returning how the result was
    /// produced and the result itself.
    ///
    /// # Errors
    ///
    /// [`AtdError`] for transport loss, remote failures, or a shed
    /// submission; any error marks the head down at the farm layer.
    fn submit(&mut self, session: u32, spec: JobSpec) -> Result<(Provenance, JobResult), AtdError>;

    /// The head's cumulative service counters.
    ///
    /// # Errors
    ///
    /// [`AtdError`] for transport loss or a remote failure.
    fn stats(&mut self) -> Result<ServiceStats, AtdError>;

    /// Asks the head to stop serving.
    ///
    /// # Errors
    ///
    /// [`AtdError`] for transport loss or a remote failure.
    fn shutdown(&mut self) -> Result<(), AtdError>;
}

/// The farm keeps one job in flight per head: each submission blocks on
/// its own terminal event.
impl<L: Read + Write> Head for Client<L> {
    fn submit(&mut self, session: u32, spec: JobSpec) -> Result<(Provenance, JobResult), AtdError> {
        match Client::submit(self, session, spec)? {
            Event::Done { provenance, result, .. } => Ok((provenance, result)),
            Event::Busy { queue_depth, queue_capacity, .. } => Err(AtdError::Remote {
                message: format!("head shed the job: queue {queue_depth}/{queue_capacity}"),
            }),
            Event::Failed { message, .. } => Err(AtdError::Remote { message }),
            other => Err(AtdError::Remote { message: format!("head answered {other:?}") }),
        }
    }

    fn stats(&mut self) -> Result<ServiceStats, AtdError> {
        Client::stats(self)
    }

    fn shutdown(&mut self) -> Result<(), AtdError> {
        Client::shutdown(self)
    }
}

/// A fresh in-process head: a [`Loopback`] transport over a
/// [`Service`] configured from the environment (`EXEC_THREADS`,
/// `ATD_QUEUE_DEPTH`, `ATD_CACHE_ENTRIES`).
pub fn local_head() -> Client<Loopback> {
    Client::new(Loopback::new(Service::from_env()))
}

/// [`local_head`] with a persistent result store rooted at `dir`,
/// opened (or created) explicitly rather than via `ATD_STORE_DIR`. A
/// head restarted over the same directory rehydrates its warm set from
/// disk — and because [`spec_route_key`] and the store's index share
/// the same FNV-1a digest, the rehydrated set is exactly the keys the
/// ring still routes to this head.
///
/// # Errors
///
/// [`AtdError::Store`] when the store cannot be opened — unlike the
/// lenient env path, a head the caller *asked* to be durable refuses to
/// boot amnesiac.
pub fn local_head_with_store(dir: &Path) -> Result<Client<Loopback>, AtdError> {
    let store = Store::open(StoreConfig::new(dir))?;
    let service = Service::new(ExecPool::from_env(), Scheduler::from_env_with_store(store));
    Ok(Client::new(Loopback::new(service)))
}

/// The ring key a spec routes by: the FNV-1a digest of its canonical
/// key bytes — the *same* digest the head's result cache indexes by, so
/// routing affinity and cache affinity are one mechanism.
pub fn spec_route_key(spec: &JobSpec) -> u64 {
    atd::cache::fnv1a64(&spec.key_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::Bathtub {
            rj_rms_fs: 1_500_000,
            dj_pp_fs: 12_000_000,
            rate_bps: 2_500_000_000,
            transition_density: 0.5,
            points: 21,
        }
    }

    #[test]
    fn loopback_head_submits_and_reports_stats() {
        let mut head = local_head();
        let (provenance, first) = Head::submit(&mut head, 1, spec()).expect("submit");
        assert_eq!(provenance, Provenance::Computed);
        let (provenance, second) = Head::submit(&mut head, 1, spec()).expect("resubmit");
        assert_eq!(provenance, Provenance::Cache, "identical spec must hit the cache");
        assert_eq!(first, second);
        let stats = Head::stats(&mut head).expect("stats");
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn route_key_matches_the_cache_digest() {
        let spec = spec();
        assert_eq!(spec_route_key(&spec), atd::cache::fnv1a64(&spec.key_bytes()));
    }
}
