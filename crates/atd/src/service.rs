//! The transport-agnostic service core: the worker pool, the scheduler,
//! and the daemon's counters and shutdown flag.
//!
//! It knows nothing of frames or sockets. A connection's session
//! admits work into it and routes completions back out, whether that
//! session sits behind the TCP event loop or the in-memory loopback.

use exec::ExecPool;

use crate::proto::{JobSpec, ServiceStats};
use crate::scheduler::{Admission, Completion, Scheduler};

/// The ATE daemon's request processor.
#[derive(Debug)]
pub struct Service {
    pool: ExecPool,
    scheduler: Scheduler,
    shutdown: bool,
}

impl Service {
    /// A service over an explicit pool and scheduler.
    pub fn new(pool: ExecPool, scheduler: Scheduler) -> Self {
        Service { pool, scheduler, shutdown: false }
    }

    /// A service configured from the environment: `EXEC_THREADS` for the
    /// pool, `ATD_QUEUE_DEPTH` / `ATD_CACHE_ENTRIES` for the scheduler.
    pub fn from_env() -> Self {
        Service::new(ExecPool::from_env(), Scheduler::from_env())
    }

    /// Whether a shutdown request has been processed; carriers stop
    /// serving once this turns true.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// The service counters.
    pub fn stats(&self) -> ServiceStats {
        self.scheduler.stats()
    }

    /// Flags the service for shutdown.
    pub fn request_shutdown(&mut self) {
        self.shutdown = true;
    }

    /// Admits `specs` for `session` without draining: admissions from
    /// every ready connection batch up before one
    /// [`Service::drain_each`] pass.
    pub fn admit(&mut self, session: u32, specs: &[JobSpec]) -> Admission {
        self.scheduler.submit(session, specs)
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.queue_depth()
    }

    /// The admission queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.scheduler.queue_capacity()
    }

    /// Streams every queued completion to `sink` the moment the pool
    /// finishes it (see [`Scheduler::drain_each`]).
    pub fn drain_each(&mut self, sink: &mut dyn FnMut(Completion)) {
        self.scheduler.drain_each(&self.pool, sink);
    }

    /// Counts a submission shed upstream of the queue.
    pub fn note_shed(&mut self, jobs: u64) {
        self.scheduler.note_shed(jobs);
    }

    /// Counts a connection the daemon accepted.
    pub fn note_connection_opened(&mut self) {
        self.scheduler.note_connection_opened();
    }

    /// Counts a connection retired for any reason.
    pub fn note_connection_closed(&mut self) {
        self.scheduler.note_connection_closed();
    }

    /// Counts a connection dropped on an error.
    pub fn note_connection_failed(&mut self) {
        self.scheduler.note_connection_failed();
    }

    /// Counts a malformed frame.
    pub fn note_frame_rejected(&mut self) {
        self.scheduler.note_frame_rejected();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{JobSpec, Provenance};
    use pstime::{DataRate, Duration};

    fn bathtub(points: u32) -> JobSpec {
        JobSpec::bathtub(
            Duration::from_ps_f64(3.2),
            Duration::from_ps(20),
            DataRate::from_gbps(2.5),
            0.5,
            points,
        )
    }

    fn small_service() -> Service {
        Service::new(ExecPool::serial(), Scheduler::new(4, 8))
    }

    /// Admits `specs` under session 1 and drains them, in ticket order.
    fn run(svc: &mut Service, specs: &[JobSpec]) -> Vec<Completion> {
        assert!(matches!(svc.admit(1, specs), Admission::Accepted(_)));
        let mut done = Vec::new();
        svc.drain_each(&mut |c| done.push(c));
        done.sort_by_key(|c| c.ticket);
        done
    }

    #[test]
    fn submit_executes_then_hits_cache() {
        let mut svc = small_service();
        let first = run(&mut svc, &[bathtub(51)]);
        let second = run(&mut svc, &[bathtub(51)]);
        assert_eq!(first[0].provenance, Provenance::Computed);
        assert_eq!(second[0].provenance, Provenance::Cache);
        let bytes = |c: &Completion| c.outcome.as_ref().unwrap().encoded().unwrap();
        assert_eq!(bytes(&first[0]), bytes(&second[0]));
        assert_eq!(svc.stats().cache_hits, 1);
    }

    #[test]
    fn oversized_batch_is_shed_with_busy() {
        let mut svc = small_service(); // queue capacity 4
        let specs = vec![bathtub(61); 5];
        assert!(matches!(svc.admit(1, &specs), Admission::Shed { queue_depth: 0 }));
        assert_eq!(svc.queue_capacity(), 4);
        assert_eq!(svc.stats().shed, 5);
    }

    #[test]
    fn batch_replies_in_submission_order() {
        let mut svc = small_service();
        let done = run(&mut svc, &[bathtub(71), bathtub(72), bathtub(71)]);
        let tickets: Vec<u64> = done.iter().map(|c| c.ticket).collect();
        assert_eq!(tickets, vec![1, 2, 3]);
        assert_eq!(done[0].provenance, Provenance::Computed);
        assert_eq!(done[2].provenance, Provenance::Batched);
        assert!(done.iter().all(|c| c.outcome.is_ok()));
    }

    #[test]
    fn failing_spec_reports_failed_with_ticket() {
        let mut svc = small_service();
        let done = run(&mut svc, &[bathtub(1)]);
        assert_eq!(done[0].ticket, 1);
        let message = done[0].outcome.as_ref().unwrap_err().to_string();
        assert!(message.contains("points"), "{message}");
        assert_eq!(svc.stats().failed, 1);
    }
}
