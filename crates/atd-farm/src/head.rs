//! The coordinator's view of one test head.
//!
//! A head is anything that can execute a [`JobSpec`] and report service
//! counters. The one real implementation is [`Client`] over any byte
//! stream: an in-process [`Loopback`] service (tests, benches) or a TCP
//! connection to a daemon ([`atd::PipelinedClient`], real deployments).
//! A head that answers — with a result, or with a job's `Failed` reply —
//! is healthy: a failed job is the caller's error, and the farm returns
//! it. Only a submission that gets no answer is a head failure: transport
//! loss (a protocol-level `Failed` under [`atd::FAILURE_ID`] included,
//! since the head closes the session after it), an unexpected reply, or
//! a `Busy` shed. The coordinator's
//! contract for those is bounded retries with re-shard, not client-side
//! backoff, so a head that cannot accept work right now is simply routed
//! around until re-admitted.

use std::io::{Read, Write};
use std::path::Path;

use atd::scheduler::Scheduler;
use atd::store::{Store, StoreConfig};
use atd::{
    AtdError, Client, Event, JobResult, JobSpec, Loopback, Provenance, Service, ServiceStats,
    FAILURE_ID,
};
use exec::ExecPool;

/// A head's answer to one submission.
#[derive(Debug)]
pub enum Answer {
    /// The job ran: how its result was produced, and the result itself.
    Done(Provenance, JobResult),
    /// The job failed on a healthy head: the error the head reported.
    Failed(AtdError),
}

/// One test head under farm control.
pub trait Head {
    /// Executes `spec` under `session` and returns the head's answer.
    ///
    /// # Errors
    ///
    /// [`AtdError`] when the head gave no answer: transport loss, an
    /// unexpected reply, or a shed submission. Each of these marks the
    /// head down at the farm layer; an [`Answer::Failed`] does not.
    fn submit(&mut self, session: u32, spec: JobSpec) -> Result<Answer, AtdError>;

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
    fn submit(&mut self, session: u32, spec: JobSpec) -> Result<Answer, AtdError> {
        match Client::submit(self, session, spec)? {
            Event::Done { provenance, result, .. } => Ok(Answer::Done(provenance, result)),
            Event::Busy { queue_depth, queue_capacity, .. } => Err(AtdError::Remote {
                message: format!("head shed the job: queue {queue_depth}/{queue_capacity}"),
            }),
            // A protocol failure closes the session: the job never ran.
            Event::Failed { correlation: FAILURE_ID, message, .. } => {
                Err(AtdError::Remote { message })
            }
            Event::Failed { message, .. } => Ok(Answer::Failed(AtdError::Remote { message })),
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

    fn done(answer: Answer) -> (Provenance, JobResult) {
        match answer {
            Answer::Done(provenance, result) => (provenance, result),
            Answer::Failed(e) => panic!("job failed: {e}"),
        }
    }

    #[test]
    fn loopback_head_submits_and_reports_stats() {
        let mut head = local_head();
        let (provenance, first) = done(Head::submit(&mut head, 1, spec()).expect("submit"));
        assert_eq!(provenance, Provenance::Computed);
        let (provenance, second) = done(Head::submit(&mut head, 1, spec()).expect("resubmit"));
        assert_eq!(provenance, Provenance::Cache, "identical spec must hit the cache");
        assert_eq!(first, second);
        let stats = Head::stats(&mut head).expect("stats");
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn a_protocol_failure_is_no_answer() {
        // The farm validates before routing; submitted directly, a
        // one-point bathtub is rejected as a malformed frame, and the
        // head closes the session after its protocol-level `Failed`.
        let mut head = local_head();
        let one_point = match spec() {
            JobSpec::Bathtub { rj_rms_fs, dj_pp_fs, rate_bps, transition_density, .. } => {
                JobSpec::Bathtub { rj_rms_fs, dj_pp_fs, rate_bps, transition_density, points: 1 }
            }
            other => other,
        };
        match Head::submit(&mut head, 1, one_point) {
            Err(AtdError::Remote { message }) => {
                assert!(message.contains("crossovers"), "{message}")
            }
            other => panic!("expected no answer, got {other:?}"),
        }
        assert!(Head::submit(&mut head, 1, spec()).is_err(), "the session is closed");
    }

    #[test]
    fn route_key_matches_the_cache_digest() {
        let spec = spec();
        assert_eq!(spec_route_key(&spec), atd::cache::fnv1a64(&spec.key_bytes()));
    }
}
