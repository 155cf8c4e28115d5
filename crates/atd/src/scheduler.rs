//! Session-aware job scheduling: bounded admission, per-session fairness,
//! identical-spec coalescing, and the content-addressed result cache.
//!
//! The scheduler is a deterministic state machine: given the same sequence
//! of [`Scheduler::submit`] / [`Scheduler::drain`] calls it produces the
//! same completions, the same provenance labels, and the same cache state,
//! at any worker-pool width. Nothing here reads a clock — recency is a
//! logical tick counter and fairness is round-robin over sessions in
//! first-seen order.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use exec::ExecPool;
use store::{Store, StoreConfig};

use crate::cache::ResultCache;
use crate::error::AtdError;
use crate::proto::{JobSpec, Provenance, ServiceStats};
use crate::stream::Answer;
use crate::workload;

/// Environment override for the admission queue depth.
pub const ATD_QUEUE_DEPTH_ENV: &str = "ATD_QUEUE_DEPTH";

/// Environment override for the result-cache entry bound.
pub const ATD_CACHE_ENTRIES_ENV: &str = "ATD_CACHE_ENTRIES";

/// Environment knob naming the persistent store directory. Unset (or
/// blank) means no durable tier: the daemon serves from memory alone,
/// exactly as it did before the store existed.
pub const ATD_STORE_DIR_ENV: &str = "ATD_STORE_DIR";

/// Environment override for the store's segment-rotation threshold.
pub const ATD_STORE_SEGMENT_BYTES_ENV: &str = "ATD_STORE_SEGMENT_BYTES";

/// Environment override for the store's total disk bound.
pub const ATD_STORE_MAX_BYTES_ENV: &str = "ATD_STORE_MAX_BYTES";

/// Default admission queue depth.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Default result-cache entry bound.
pub const DEFAULT_CACHE_ENTRIES: usize = 64;

/// Default store segment-rotation threshold (1 MiB).
pub const DEFAULT_STORE_SEGMENT_BYTES: u64 = 1 << 20;

/// Default store disk bound (64 MiB).
pub const DEFAULT_STORE_MAX_BYTES: u64 = 64 << 20;

/// A job admitted to the queue but not yet executed.
#[derive(Debug, Clone)]
struct Pending {
    session: u32,
    ticket: u64,
    spec: JobSpec,
}

/// The verdict of an admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Every spec was enqueued; one ticket per spec, in submission order.
    Accepted(Vec<u64>),
    /// The submission would overflow the queue; nothing was enqueued
    /// (all-or-nothing, so a batch is never half-admitted).
    Shed {
        /// Jobs currently queued.
        queue_depth: usize,
    },
}

/// One finished job from a drain cycle.
#[derive(Debug)]
pub struct Completion {
    /// The session that submitted the job.
    pub session: u32,
    /// The job's admission ticket.
    pub ticket: u64,
    /// How the result was produced.
    pub provenance: Provenance,
    /// The shared answer, or the error that failed the job.
    pub outcome: Result<Arc<Answer>, AtdError>,
}

/// The batching scheduler with its embedded result cache and optional
/// durable store tier.
#[derive(Debug)]
pub struct Scheduler {
    queue: VecDeque<Pending>,
    queue_capacity: usize,
    cache: ResultCache,
    /// The durable tier behind the LRU: read-through on a cache miss,
    /// write-behind on a computed success. `None` serves memory-only.
    store: Option<Store>,
    next_ticket: u64,
    stats: ServiceStats,
}

impl Scheduler {
    /// A scheduler with explicit bounds. A zero cache capacity disables
    /// caching; the queue capacity is clamped to at least 1.
    pub fn new(queue_capacity: usize, cache_entries: usize) -> Self {
        let queue_capacity = queue_capacity.max(1);
        let cache = ResultCache::new(cache_entries);
        let stats = ServiceStats {
            queue_capacity: u32::try_from(queue_capacity).unwrap_or(u32::MAX),
            cache_capacity: u32::try_from(cache_entries).unwrap_or(u32::MAX),
            ..ServiceStats::default()
        };
        Scheduler {
            queue: VecDeque::new(),
            queue_capacity,
            cache,
            store: None,
            next_ticket: 1,
            stats,
        }
    }

    /// A scheduler configured from `ATD_QUEUE_DEPTH` / `ATD_CACHE_ENTRIES`,
    /// falling back to the defaults on unset or unparsable values — the
    /// same lenient override idiom as `EXEC_THREADS`. When
    /// `ATD_STORE_DIR` names a directory the persistent store is opened
    /// there and attached as the durable tier; a store that fails to
    /// open is skipped rather than refusing to boot the daemon.
    pub fn from_env() -> Self {
        let sched = Scheduler::new(
            exec::env::positive_usize_or(ATD_QUEUE_DEPTH_ENV, DEFAULT_QUEUE_DEPTH),
            exec::env::positive_usize_or(ATD_CACHE_ENTRIES_ENV, DEFAULT_CACHE_ENTRIES),
        );
        match Scheduler::store_from_env() {
            Some(store) => sched.with_store(store),
            None => sched,
        }
    }

    /// [`Scheduler::from_env`] with an explicit durable tier instead of
    /// the `ATD_STORE_DIR`-derived one — the farm boots each head over
    /// its own store directory this way.
    pub fn from_env_with_store(store: Store) -> Self {
        Scheduler::new(
            exec::env::positive_usize_or(ATD_QUEUE_DEPTH_ENV, DEFAULT_QUEUE_DEPTH),
            exec::env::positive_usize_or(ATD_CACHE_ENTRIES_ENV, DEFAULT_CACHE_ENTRIES),
        )
        .with_store(store)
    }

    /// Opens the persistent store the `ATD_STORE_*` knobs describe.
    /// `None` when `ATD_STORE_DIR` is unset or blank, or when the open
    /// fails — the durable tier is an accelerator, never an availability
    /// dependency, so a bad disk degrades to memory-only service.
    fn store_from_env() -> Option<Store> {
        let dir = exec::env::non_empty(ATD_STORE_DIR_ENV)?;
        let config = StoreConfig::new(dir)
            .segment_bytes(exec::env::positive_u64_or(
                ATD_STORE_SEGMENT_BYTES_ENV,
                DEFAULT_STORE_SEGMENT_BYTES,
            ))
            .max_bytes(exec::env::positive_u64_or(
                ATD_STORE_MAX_BYTES_ENV,
                DEFAULT_STORE_MAX_BYTES,
            ));
        Store::open(config).ok()
    }

    /// Attaches `store` as the durable tier. Records already on disk
    /// become servable immediately and are reported via the
    /// `store_recovered` counter.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Self {
        self.stats.store_recovered = store.stats().recovered_records;
        self.store = Some(store);
        self
    }

    /// The admission queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Admits `specs` for `session`, all-or-nothing against the queue
    /// bound.
    pub fn submit(&mut self, session: u32, specs: &[JobSpec]) -> Admission {
        if specs.is_empty() {
            return Admission::Accepted(Vec::new());
        }
        if self.queue.len() + specs.len() > self.queue_capacity {
            self.stats.shed += u64::try_from(specs.len()).unwrap_or(u64::MAX);
            return Admission::Shed { queue_depth: self.queue.len() };
        }
        let mut tickets = Vec::with_capacity(specs.len());
        for spec in specs {
            let ticket = self.next_ticket;
            self.next_ticket += 1;
            self.queue.push_back(Pending { session, ticket, spec: *spec });
            tickets.push(ticket);
        }
        self.stats.submitted += u64::try_from(specs.len()).unwrap_or(u64::MAX);
        Admission::Accepted(tickets)
    }

    /// Counts a submission shed upstream of the queue (the server's
    /// per-session pipeline-depth cap) so every `Busy` reply is visible
    /// in the same counter.
    pub fn note_shed(&mut self, jobs: u64) {
        self.stats.shed += jobs;
    }

    /// Counts a connection the daemon accepted.
    pub fn note_connection_opened(&mut self) {
        self.stats.connections_opened += 1;
    }

    /// Counts a connection retired for any reason; paired with
    /// [`Self::note_connection_opened`] so the two balance once every
    /// peer is gone.
    pub fn note_connection_closed(&mut self) {
        self.stats.connections_closed += 1;
    }

    /// Counts a connection the daemon dropped on an error.
    pub fn note_connection_failed(&mut self) {
        self.stats.connections_failed += 1;
    }

    /// Counts a frame the daemon rejected as malformed.
    pub fn note_frame_rejected(&mut self) {
        self.stats.frames_rejected += 1;
    }

    /// Executes everything queued and returns the completions in service
    /// order: round-robin across sessions (first-seen order), FIFO within
    /// a session, so no session's backlog can starve another's.
    ///
    /// Within one drain, identical specs run once: the first occurrence is
    /// `Computed` (or `Cache` if a previous drain stored it) and the rest
    /// are `Batched` copies of the same bytes. Successful results enter
    /// the cache; errors are never cached, so a failed spec is retried on
    /// its next submission.
    pub fn drain(&mut self, pool: &ExecPool) -> Vec<Completion> {
        let mut completions = Vec::with_capacity(self.queue.len());
        self.drain_each(pool, &mut |c| completions.push(c));
        completions
    }

    /// [`Scheduler::drain`], streamed: `sink` receives each completion the
    /// moment the pool finishes it, in the same service order `drain`
    /// returns, without buffering whole jobs — the event-driven server
    /// turns each one into outbox frames as it lands.
    pub fn drain_each(&mut self, pool: &ExecPool, sink: &mut dyn FnMut(Completion)) {
        // Partition the queue per session, preserving first-seen session
        // order and FIFO order inside each session.
        let mut sessions: Vec<(u32, VecDeque<Pending>)> = Vec::new();
        while let Some(pending) = self.queue.pop_front() {
            match sessions.iter_mut().find(|(s, _)| *s == pending.session) {
                Some((_, q)) => q.push_back(pending),
                None => {
                    let mut q = VecDeque::new();
                    let session = pending.session;
                    q.push_back(pending);
                    sessions.push((session, q));
                }
            }
        }

        // Round-robin: one job per session per lap.
        let mut order = Vec::new();
        loop {
            let mut took_any = false;
            for (_, q) in &mut sessions {
                if let Some(pending) = q.pop_front() {
                    order.push(pending);
                    took_any = true;
                }
            }
            if !took_any {
                break;
            }
        }

        // Execute in service order, batching and caching as we go. The
        // per-drain `computed` map keys on full spec bytes (not the FNV
        // hash), so coalescing can never merge colliding specs. Every
        // tier hands out the one shared answer: a hit or a coalesced
        // copy is a reference count.
        let mut computed: BTreeMap<Vec<u8>, Arc<Answer>> = BTreeMap::new();
        for pending in order {
            let key = pending.spec.key_bytes();
            // Coalescing outranks the cache: a spec computed earlier in
            // THIS drain is `Batched`; the cache answers only for specs
            // this drain has not touched.
            let (provenance, outcome) = if let Some(answer) = computed.get(&key) {
                self.stats.batched += 1;
                (Provenance::Batched, Ok(Arc::clone(answer)))
            } else if let Some(answer) = self.cache.get(&key) {
                self.stats.cache_hits += 1;
                let answer = Arc::clone(answer);
                // A cache hit also counts as this drain's first occurrence:
                // later duplicates coalesce to Batched, as documented.
                computed.insert(key, Arc::clone(&answer));
                (Provenance::Cache, Ok(answer))
            } else if let Some(answer) = self.store_lookup(&key) {
                // Read-through from the durable tier: the payload is the
                // canonical result encoding, so serving it is
                // byte-identical to recomputing. Promote it into the LRU
                // and treat it as this drain's first occurrence.
                let answer = Arc::new(answer);
                self.cache.insert(&key, Arc::clone(&answer));
                computed.insert(key, Arc::clone(&answer));
                (Provenance::Cache, Ok(answer))
            } else {
                let answered = workload::execute(&pending.spec, pool)
                    .and_then(|result| Answer::new(&result).map_err(AtdError::from));
                match answered {
                    Ok(answer) => {
                        let answer = Arc::new(answer);
                        self.store_persist(&key, &answer);
                        self.cache.insert(&key, Arc::clone(&answer));
                        computed.insert(key, Arc::clone(&answer));
                        (Provenance::Computed, Ok(answer))
                    }
                    Err(e) => {
                        // Errors are never cached and never persisted: a
                        // failed spec — one whose kernel failed, or whose
                        // result has no answer — is retried on its next
                        // submission, in this process or the next.
                        self.stats.failed += 1;
                        (Provenance::Computed, Err(e))
                    }
                }
            };
            if outcome.is_ok() {
                self.stats.completed += 1;
            }
            sink(Completion {
                session: pending.session,
                ticket: pending.ticket,
                provenance,
                outcome,
            });
        }
    }

    /// Read-through lookup in the durable tier. Counts a store hit or
    /// miss whenever a store is attached; with no store this is a no-op
    /// miss that touches no counter. A stored payload that is not exactly
    /// one canonical result (codec drift, disk corruption under a running
    /// store) degrades to a miss and is recomputed.
    fn store_lookup(&mut self, key: &[u8]) -> Option<Answer> {
        let store = self.store.as_mut()?;
        let payload = store.get(key).ok().flatten();
        match payload.and_then(|bytes| Answer::from_bytes(bytes).ok()) {
            Some(answer) => {
                self.stats.store_hits += 1;
                Some(answer)
            }
            None => {
                self.stats.store_misses += 1;
                None
            }
        }
    }

    /// Write-behind persistence of a computed answer's bytes. Store
    /// errors are swallowed: the durable tier accelerates future runs but
    /// must never fail the present one. Only answers reach this point —
    /// errors are never persisted, mirroring the LRU's rule.
    fn store_persist(&mut self, key: &[u8], answer: &Answer) {
        if let Some(store) = self.store.as_mut() {
            let _ = store.put(key, answer.bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn bad_spec() -> JobSpec {
        // points < 2: admitted, fails at execution with a typed error.
        bathtub(1)
    }

    #[test]
    fn admission_is_all_or_nothing() {
        let mut sched = Scheduler::new(3, 4);
        assert_eq!(sched.queue_capacity(), 3);
        let specs = [bathtub(11), bathtub(12)];
        assert!(matches!(sched.submit(1, &specs), Admission::Accepted(t) if t == vec![1, 2]));
        assert_eq!(sched.queue_depth(), 2);
        // Two more would overflow: shed, queue untouched.
        assert_eq!(sched.submit(2, &specs), Admission::Shed { queue_depth: 2 });
        assert_eq!(sched.queue_depth(), 2);
        assert_eq!(sched.stats().shed, 2);
        // One more fits exactly.
        assert!(matches!(sched.submit(2, &[bathtub(13)]), Admission::Accepted(_)));
        assert_eq!(sched.queue_depth(), 3);
        assert!(matches!(sched.submit(3, &[]), Admission::Accepted(t) if t.is_empty()));
    }

    #[test]
    fn drain_round_robins_across_sessions() {
        let mut sched = Scheduler::new(16, 16);
        // Session 7 floods first; session 9 submits two.
        sched.submit(7, &[bathtub(11), bathtub(12), bathtub(13)]);
        sched.submit(9, &[bathtub(14), bathtub(15)]);
        let pool = ExecPool::serial();
        let done = sched.drain(&pool);
        let order: Vec<(u32, u64)> = done.iter().map(|c| (c.session, c.ticket)).collect();
        // Fair interleave: 7, 9, 7, 9, 7 — session 9 is not starved.
        assert_eq!(order, vec![(7, 1), (9, 4), (7, 2), (9, 5), (7, 3)]);
        assert!(done.iter().all(|c| c.outcome.is_ok()));
        assert_eq!(sched.queue_depth(), 0);
    }

    #[test]
    fn identical_specs_coalesce_within_a_drain() {
        let mut sched = Scheduler::new(16, 16);
        sched.submit(1, &[bathtub(21), bathtub(21), bathtub(21)]);
        let pool = ExecPool::serial();
        let done = sched.drain(&pool);
        let provenances: Vec<Provenance> = done.iter().map(|c| c.provenance).collect();
        assert_eq!(
            provenances,
            vec![Provenance::Computed, Provenance::Batched, Provenance::Batched]
        );
        // All three answers are byte-identical.
        let bytes: Vec<Vec<u8>> = done
            .iter()
            .map(|c| c.outcome.as_ref().ok().map(|r| r.encoded().ok()))
            .map(|b| b.flatten().unwrap_or_default())
            .collect();
        assert!(!bytes[0].is_empty());
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[0], bytes[2]);
        assert_eq!(sched.stats().batched, 2);
    }

    /// A hit is a reference count: the computed answer, its `Batched`
    /// copy in the same drain, an LRU hit in a later drain and that hit's
    /// own `Batched` copy are one allocation.
    #[test]
    fn hits_and_batched_copies_share_the_computed_answer() {
        let mut sched = Scheduler::new(16, 16);
        let pool = ExecPool::serial();
        sched.submit(1, &[bathtub(22), bathtub(22)]);
        let first = sched.drain(&pool);
        sched.submit(2, &[bathtub(22), bathtub(22)]);
        let second = sched.drain(&pool);
        let provenances: Vec<Provenance> =
            first.iter().chain(&second).map(|c| c.provenance).collect();
        assert_eq!(
            provenances,
            vec![Provenance::Computed, Provenance::Batched, Provenance::Cache, Provenance::Batched]
        );
        let answers: Vec<&Arc<Answer>> =
            first.iter().chain(&second).map(|c| c.outcome.as_ref().unwrap()).collect();
        for answer in &answers[1..] {
            assert!(Arc::ptr_eq(answers[0], answer));
        }
    }

    #[test]
    fn duplicates_of_a_cache_hit_coalesce_to_batched() {
        // Documented drain semantics: only the first occurrence in a drain
        // is Cache; repeats coalesce to Batched (and are counted as such).
        let mut sched = Scheduler::new(16, 16);
        let pool = ExecPool::serial();
        sched.submit(1, &[bathtub(51)]);
        sched.drain(&pool);
        sched.submit(1, &[bathtub(51), bathtub(51), bathtub(51)]);
        let done = sched.drain(&pool);
        let provenances: Vec<Provenance> = done.iter().map(|c| c.provenance).collect();
        assert_eq!(provenances, vec![Provenance::Cache, Provenance::Batched, Provenance::Batched]);
        let stats = sched.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.batched, 2);
    }

    #[test]
    fn cache_serves_across_drains_and_skips_errors() {
        let mut sched = Scheduler::new(16, 16);
        let pool = ExecPool::serial();
        sched.submit(1, &[bathtub(31), bad_spec()]);
        let first = sched.drain(&pool);
        assert!(first.iter().any(|c| c.outcome.is_err()));
        assert_eq!(sched.cache.len(), 1, "errors are not cached");
        // Resubmit: the good spec is a cache hit, the bad one fails again.
        sched.submit(1, &[bathtub(31), bad_spec()]);
        let second = sched.drain(&pool);
        let hit = second.iter().find(|c| c.outcome.is_ok());
        assert_eq!(hit.map(|c| c.provenance), Some(Provenance::Cache));
        let stats = sched.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.submitted, 4);
    }

    #[test]
    fn cache_hit_is_byte_identical_at_any_thread_count() {
        let serial = ExecPool::serial();
        let wide = ExecPool::new(4);
        let mut sched = Scheduler::new(16, 16);
        sched.submit(1, &[bathtub(41)]);
        let computed = sched.drain(&wide);
        sched.submit(2, &[bathtub(41)]);
        let cached = sched.drain(&serial);
        let a = computed
            .first()
            .and_then(|c| c.outcome.as_ref().ok())
            .and_then(|r| r.encoded().ok())
            .unwrap_or_default();
        let b = cached
            .first()
            .and_then(|c| c.outcome.as_ref().ok())
            .and_then(|r| r.encoded().ok())
            .unwrap_or_default();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(cached.first().map(|c| c.provenance), Some(Provenance::Cache));
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("atd-scheduler-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_at(dir: &std::path::Path) -> Store {
        Store::open(StoreConfig::new(dir)).expect("open store")
    }

    /// Every segment file's bytes, in name order — the store's entire
    /// observable disk state.
    fn disk_state(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read store dir")
            .filter_map(|e| e.ok())
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let bytes = std::fs::read(e.path()).unwrap_or_default();
                (name, bytes)
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn store_tier_serves_an_lru_miss_without_recompute() {
        let dir = store_dir("readthrough");
        let pool = ExecPool::serial();
        // Cache bound of 1: computing a second spec evicts the first
        // from the LRU, but the store still holds it.
        let mut sched = Scheduler::new(16, 1).with_store(store_at(&dir));
        sched.submit(1, &[bathtub(61)]);
        let computed = sched.drain(&pool);
        sched.submit(1, &[bathtub(62)]);
        sched.drain(&pool);
        assert_eq!(sched.cache.len(), 1, "entry bound must have evicted bathtub(61)");
        sched.submit(1, &[bathtub(61)]);
        let replayed = sched.drain(&pool);
        assert_eq!(replayed.first().map(|c| c.provenance), Some(Provenance::Cache));
        let a = computed
            .first()
            .and_then(|c| c.outcome.as_ref().ok())
            .and_then(|r| r.encoded().ok())
            .unwrap_or_default();
        let b = replayed
            .first()
            .and_then(|c| c.outcome.as_ref().ok())
            .and_then(|r| r.encoded().ok())
            .unwrap_or_default();
        assert!(!a.is_empty());
        assert_eq!(a, b, "a store hit must be byte-identical to the computation");
        let stats = sched.stats();
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.store_misses, 2, "both first computations missed the store");
        assert_eq!(stats.cache_hits, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_scheduler_rehydrates_from_the_store() {
        let dir = store_dir("rehydrate");
        let pool = ExecPool::serial();
        let mut sched = Scheduler::new(16, 16).with_store(store_at(&dir));
        sched.submit(1, &[bathtub(71), bathtub(72)]);
        let computed = sched.drain(&pool);
        drop(sched);

        // A brand-new scheduler over the same directory: empty LRU, warm
        // disk. Both replays are served as Cache without recomputation.
        let mut restarted = Scheduler::new(16, 16).with_store(store_at(&dir));
        assert_eq!(restarted.stats().store_recovered, 2);
        restarted.submit(1, &[bathtub(71), bathtub(72)]);
        let replayed = restarted.drain(&pool);
        assert!(replayed.iter().all(|c| c.provenance == Provenance::Cache));
        let bytes = |cs: &[Completion]| -> Vec<Vec<u8>> {
            cs.iter()
                .map(|c| c.outcome.as_ref().ok().and_then(|r| r.encoded().ok()).unwrap_or_default())
                .collect()
        };
        assert_eq!(bytes(&computed), bytes(&replayed));
        assert_eq!(restarted.stats().store_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jobs_leave_the_segment_files_byte_identical() {
        // The durable mirror of "errors are never cached": a Failed
        // result must not change one byte of any segment file.
        let dir = store_dir("errskip");
        let pool = ExecPool::serial();
        let mut sched = Scheduler::new(16, 16).with_store(store_at(&dir));
        sched.submit(1, &[bathtub(81)]);
        sched.drain(&pool);
        let before = disk_state(&dir);
        assert!(!before.is_empty());

        sched.submit(1, &[bad_spec(), bad_spec()]);
        let failed = sched.drain(&pool);
        assert!(failed.iter().all(|c| c.outcome.is_err()));
        assert_eq!(
            disk_state(&dir),
            before,
            "a failed job must leave the store's disk state untouched"
        );
        // And the failure is retried, not replayed, after a restart.
        drop(sched);
        let mut restarted = Scheduler::new(16, 16).with_store(store_at(&dir));
        restarted.submit(1, &[bad_spec()]);
        let retried = restarted.drain(&pool);
        assert!(retried.iter().all(|c| c.outcome.is_err()));
        assert_eq!(restarted.stats().failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_store_means_no_store_counters() {
        let pool = ExecPool::serial();
        let mut sched = Scheduler::new(16, 16);
        assert!(sched.store.is_none());
        sched.submit(1, &[bathtub(91)]);
        sched.drain(&pool);
        let stats = sched.stats();
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_misses, 0);
        assert_eq!(stats.store_recovered, 0);
    }

    #[test]
    fn env_defaults_apply() {
        // from_env with no overrides set in the test environment: the
        // defaults (or whatever the ambient overrides say) must be
        // positive and the scheduler usable.
        let sched = Scheduler::from_env();
        assert!(sched.queue_capacity() >= 1);
        let stats = sched.stats();
        assert!(stats.queue_capacity >= 1);
    }
}
