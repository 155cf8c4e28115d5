//! The farm coordinator: plan, route, drain, re-shard, merge.
//!
//! A submission runs in rounds. Each round routes every outstanding
//! sub-spec through the [`HashRing`], groups them by head, and drains
//! the per-head groups concurrently on the coordinator's [`ExecPool`]
//! (one worker per head with work; each head executes its own group in
//! plan order). A head that gives no answer is marked down; its
//! unfinished sub-specs re-route to the survivors in the next round, up
//! to [`FarmConfig::retries`] extra rounds. A head that answers a job's
//! failure stays up, and the submission returns that error after the
//! round. Results are keyed by plan index, so the final merge order —
//! and therefore the merged bytes — is independent of which heads ran
//! what, in which round, on how many coordinator threads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use atd::{AtdError, Client, JobResult, JobSpec, Loopback, Provenance, ServiceStats};
use exec::ExecPool;

use crate::error::FarmError;
use crate::head::{local_head, local_head_with_store, spec_route_key, Answer, Head};
use crate::merge::merge;
use crate::plan::plan;
use crate::ring::HashRing;

/// Fleet size from `ATD_FARM_HEADS`, defaulting to 2. Lenient like every
/// other knob: absent, unparsable, or zero falls back.
pub fn heads_from_env() -> usize {
    exec::env::positive_usize_or("ATD_FARM_HEADS", 2)
}

/// Coordinator tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarmConfig {
    /// Bands to cut each shardable spec into; `None` means one per head.
    pub shards: Option<usize>,
    /// Extra submission rounds after the first before giving up.
    pub retries: u32,
}

impl FarmConfig {
    /// Configuration from the environment: `ATD_FARM_RETRIES` (default
    /// 2; zero is legal and means fail fast), shards defaulted to the
    /// fleet size.
    pub fn from_env() -> FarmConfig {
        FarmConfig { shards: None, retries: exec::env::nonnegative_u32_or("ATD_FARM_RETRIES", 2) }
    }
}

impl Default for FarmConfig {
    /// Same as [`FarmConfig::from_env`].
    fn default() -> Self {
        FarmConfig::from_env()
    }
}

/// Per-head submission counters, indexed by head id in
/// [`FarmStats::per_head`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeadTally {
    /// Sub-specs handed to this head.
    pub submitted: u64,
    /// Sub-specs it completed.
    pub completed: u64,
    /// Sub-specs it did not complete: each one it gave no answer for
    /// re-routes and retries elsewhere, and a job failure it answered
    /// ends the submission.
    pub failed: u64,
}

/// The coordinator's cumulative counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Specs submitted to the farm.
    pub specs: u64,
    /// Specs that bypassed sharding (indivisible, or a one-band plan).
    pub pass_through: u64,
    /// Sub-specs planned across all submissions.
    pub sub_specs: u64,
    /// Multi-shard merges performed.
    pub merged: u64,
    /// Sub-spec routings that diverged from the all-up home head — the
    /// re-shard count while part of the fleet is down.
    pub rerouted: u64,
    /// Extra submission rounds forced by head failures.
    pub retry_rounds: u64,
    /// Heads marked down (failures and administrative kills).
    pub heads_down: u64,
    /// Per-head tallies, indexed by head id.
    pub per_head: Vec<HeadTally>,
}

/// A completed farm submission.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmSubmitted {
    /// How the merged result was produced: the sub-result's own
    /// provenance for a pass-through, otherwise `Cache` only if *every*
    /// shard was served from a head cache.
    pub provenance: Provenance,
    /// The merged outcome — byte-identical to a single head running the
    /// spec whole.
    pub result: JobResult,
    /// How many sub-specs the plan produced.
    pub shards: usize,
}

/// A coordinator over a fleet of heads.
#[derive(Debug)]
pub struct Farm<H: Head> {
    heads: Vec<H>,
    ring: HashRing,
    pool: ExecPool,
    shards: usize,
    retries: u32,
    stats: FarmStats,
    /// Per-head persistent-store directories; `None` for a memory-only
    /// head. Only [`Farm::in_proc_with_store`] populates these, and only
    /// [`Farm::restart_head`] consumes them.
    store_dirs: Vec<Option<PathBuf>>,
}

impl Farm<Client<Loopback>> {
    /// A farm over `heads` fresh in-process heads, each with its own
    /// service, queue, and cache, configured from the environment.
    ///
    /// # Errors
    ///
    /// [`FarmError::NoHeads`] when `heads` is zero.
    pub fn in_proc(heads: usize) -> Result<Self, FarmError> {
        Farm::new((0..heads).map(|_| local_head()).collect(), FarmConfig::from_env())
    }

    /// [`Farm::in_proc`] with per-head persistent stores: head `i`
    /// persists its results under `<base>/head-<i>`. A head restarted
    /// via [`Farm::restart_head`] reopens its own directory and
    /// rehydrates the exact warm set the ring still routes to it —
    /// routing affinity, cache affinity, and disk affinity stay one
    /// mechanism across restarts.
    ///
    /// # Errors
    ///
    /// [`FarmError::NoHeads`] when `heads` is zero, or
    /// [`FarmError::Head`] when a head's store cannot be opened.
    pub fn in_proc_with_store(heads: usize, base: &Path) -> Result<Self, FarmError> {
        let mut fleet = Vec::with_capacity(heads);
        let mut dirs = Vec::with_capacity(heads);
        for id in 0..heads {
            let dir = base.join(format!("head-{id}"));
            fleet.push(local_head_with_store(&dir)?);
            dirs.push(Some(dir));
        }
        let mut farm = Farm::new(fleet, FarmConfig::from_env())?;
        farm.store_dirs = dirs;
        Ok(farm)
    }

    /// Tears down `head`'s in-process service and boots a fresh one in
    /// its place — the in-proc analogue of a daemon crash plus restart.
    /// A head with a store directory rehydrates from it; a memory-only
    /// head comes back cold. The ring is untouched either way: a restart
    /// changes no routing, so the rehydrated store holds exactly the
    /// keys that will keep arriving.
    ///
    /// # Errors
    ///
    /// [`FarmError::Head`] when `head` is off the fleet or its store
    /// fails to reopen.
    pub fn restart_head(&mut self, head: usize) -> Result<(), FarmError> {
        let fleet = self.heads.len();
        let dir = self.store_dirs.get(head).cloned().flatten();
        let Some(slot) = self.heads.get_mut(head) else {
            return Err(FarmError::Head(AtdError::Remote {
                message: format!("cannot restart head {head}: fleet has {fleet} heads"),
            }));
        };
        *slot = match dir {
            Some(dir) => local_head_with_store(&dir)?,
            None => local_head(),
        };
        Ok(())
    }
}

/// What one head reports back from a drain round: its id and, per
/// sub-spec in its group, the plan index, the sub-spec (for re-routing),
/// and the outcome.
type RoundReport = (usize, Vec<(usize, JobSpec, Result<Answer, AtdError>)>);

/// Drains one head's group for one round. Runs on a coordinator pool
/// worker; the head is behind a [`Mutex`] only to satisfy the pool's
/// shared-closure signature — each head appears in at most one group, so
/// the lock is never contended.
fn drain_head<H: Head>(
    cells: &[Mutex<&mut H>],
    work: &[(usize, Vec<(usize, JobSpec)>)],
    slot: usize,
    session: u32,
) -> RoundReport {
    let Some((head_id, group)) = work.get(slot) else {
        return (usize::MAX, Vec::new());
    };
    let mut report = Vec::with_capacity(group.len());
    let Some(cell) = cells.get(*head_id) else {
        for (index, sub) in group {
            let err = AtdError::Remote { message: "routed to a head id off the fleet".to_string() };
            report.push((*index, *sub, Err(err)));
        }
        return (*head_id, report);
    };
    let mut head = cell.lock().unwrap_or_else(PoisonError::into_inner);
    let mut dead = false;
    for (index, sub) in group {
        if dead {
            // Once a head gives no answer, don't hammer it with the rest
            // of its group — fail the remainder over to the next round.
            let err = AtdError::Remote { message: "head already failed this round".to_string() };
            report.push((*index, *sub, Err(err)));
            continue;
        }
        let outcome = head.submit(session, *sub);
        dead = outcome.is_err();
        report.push((*index, *sub, outcome));
    }
    (*head_id, report)
}

fn saturating_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

impl<H: Head + Send> Farm<H> {
    /// A farm over an explicit fleet.
    ///
    /// # Errors
    ///
    /// [`FarmError::NoHeads`] when the fleet is empty.
    pub fn new(heads: Vec<H>, config: FarmConfig) -> Result<Self, FarmError> {
        if heads.is_empty() {
            return Err(FarmError::NoHeads);
        }
        let shards = config.shards.unwrap_or(heads.len()).max(1);
        let ring = HashRing::new(heads.len());
        let stats =
            FarmStats { per_head: vec![HeadTally::default(); heads.len()], ..Default::default() };
        let store_dirs = heads.iter().map(|_| None).collect();
        Ok(Farm {
            heads,
            ring,
            pool: ExecPool::from_env(),
            shards,
            retries: config.retries,
            stats,
            store_dirs,
        })
    }

    /// Fleet size, up or down.
    pub fn heads(&self) -> usize {
        self.heads.len()
    }

    /// Heads currently routable.
    pub fn up_heads(&self) -> usize {
        self.ring.up_heads()
    }

    /// Whether `head` is currently routable.
    pub fn is_up(&self, head: usize) -> bool {
        self.ring.is_up(head)
    }

    /// The coordinator's cumulative counters.
    pub fn stats(&self) -> &FarmStats {
        &self.stats
    }

    /// The head a sub-spec routes to right now (`None` when the fleet is
    /// entirely down).
    pub fn route(&self, spec: &JobSpec) -> Option<usize> {
        self.ring.route(spec_route_key(spec))
    }

    /// Administratively kills `head` — identical routing consequences to
    /// an observed failure; returns whether it was up.
    pub fn kill(&mut self, head: usize) -> bool {
        let changed = self.ring.mark_down(head);
        if changed {
            self.stats.heads_down += 1;
        }
        changed
    }

    /// Re-admits a downed head; its home keys route back to it.
    pub fn readmit(&mut self, head: usize) -> bool {
        self.ring.readmit(head)
    }

    /// Polls every head for its service counters, in head-id order.
    /// Downed heads are polled too: an administrative kill only stops
    /// routing, and a genuinely dead head reports the error.
    pub fn head_stats(&mut self) -> Vec<Result<ServiceStats, AtdError>> {
        self.heads.iter_mut().map(Head::stats).collect()
    }

    /// Asks every head to stop serving, best-effort: a head that cannot
    /// be reached is skipped, and the first error is returned after all
    /// heads were attempted.
    ///
    /// # Errors
    ///
    /// The first [`AtdError`] any head reported.
    pub fn shutdown(&mut self) -> Result<(), AtdError> {
        let mut first = None;
        for head in &mut self.heads {
            if let Err(e) = head.shutdown() {
                first.get_or_insert(e);
            }
        }
        match first {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs `spec` across the fleet: plan, route, drain, re-shard on
    /// failure, merge. The merged result is byte-identical to a single
    /// head running `spec` whole, for any fleet size, shard count,
    /// coordinator thread count, and any pattern of head failures the
    /// retry budget survives.
    ///
    /// # Errors
    ///
    /// [`FarmError::Spec`] for an invalid spec, [`FarmError::Job`] when a
    /// head answers that a sub-spec failed (the lowest-indexed one of its
    /// round; no head is marked down for it), [`FarmError::AllHeadsDown`]
    /// when nothing can route, [`FarmError::RetriesExhausted`] when the
    /// budget runs out, [`FarmError::Merge`] if sub-results do not tile.
    pub fn submit(&mut self, session: u32, spec: JobSpec) -> Result<FarmSubmitted, FarmError> {
        let subs = plan(&spec, self.shards)?;
        let shards = subs.len();
        self.stats.specs += 1;
        self.stats.sub_specs += saturating_u64(shards);
        if shards == 1 {
            self.stats.pass_through += 1;
        }

        let mut results: Vec<Option<(Provenance, JobResult)>> = subs.iter().map(|_| None).collect();
        let mut pending: Vec<(usize, JobSpec)> = subs.into_iter().enumerate().collect();
        let mut rounds: u32 = 0;
        let mut last_error = String::new();

        while !pending.is_empty() {
            if rounds > self.retries {
                return Err(FarmError::RetriesExhausted {
                    kind: spec.kind(),
                    attempts: rounds,
                    last: last_error,
                });
            }
            if rounds > 0 {
                self.stats.retry_rounds += 1;
            }
            // Route the outstanding sub-specs; grouping by head id in a
            // BTreeMap keeps the round's work list deterministic.
            let mut groups: BTreeMap<usize, Vec<(usize, JobSpec)>> = BTreeMap::new();
            for (index, sub) in pending.drain(..) {
                let key = spec_route_key(&sub);
                let Some(head) = self.ring.route(key) else {
                    return Err(FarmError::AllHeadsDown { kind: spec.kind() });
                };
                if self.ring.home(key) != Some(head) {
                    self.stats.rerouted += 1;
                }
                groups.entry(head).or_default().push((index, sub));
            }
            let work: Vec<(usize, Vec<(usize, JobSpec)>)> = groups.into_iter().collect();
            let reports = {
                let cells: Vec<Mutex<&mut H>> = self.heads.iter_mut().map(Mutex::new).collect();
                self.pool.run(work.len(), |slot| drain_head(&cells, &work, slot, session))?.results
            };
            // The lowest-indexed job failure a head answered this round.
            let mut job_failure: Option<(usize, AtdError)> = None;
            for (head_id, report) in reports {
                let mut head_failed = false;
                for (index, sub, outcome) in report {
                    if let Some(tally) = self.stats.per_head.get_mut(head_id) {
                        tally.submitted += 1;
                        match &outcome {
                            Ok(Answer::Done(..)) => tally.completed += 1,
                            Ok(Answer::Failed(_)) | Err(_) => tally.failed += 1,
                        }
                    }
                    match outcome {
                        Ok(Answer::Done(provenance, result)) => {
                            if let Some(slot) = results.get_mut(index) {
                                *slot = Some((provenance, result));
                            }
                        }
                        Ok(Answer::Failed(error)) => {
                            if job_failure.as_ref().is_none_or(|(first, _)| index < *first) {
                                job_failure = Some((index, error));
                            }
                        }
                        Err(e) => {
                            head_failed = true;
                            last_error = e.to_string();
                            pending.push((index, sub));
                        }
                    }
                }
                if head_failed && self.ring.mark_down(head_id) {
                    self.stats.heads_down += 1;
                }
            }
            if let Some((_, error)) = job_failure {
                return Err(FarmError::Job { kind: spec.kind(), error });
            }
            // Deterministic retry order regardless of which heads failed.
            pending.sort_unstable_by_key(|(index, _)| *index);
            rounds += 1;
        }

        let collected: Option<Vec<(Provenance, JobResult)>> = results.into_iter().collect();
        let collected =
            collected.ok_or(FarmError::Merge { context: "a sub-result went missing" })?;
        let provenance = if shards == 1 {
            collected.iter().map(|(p, _)| *p).next().unwrap_or(Provenance::Computed)
        } else if collected.iter().all(|(p, _)| *p == Provenance::Cache) {
            // Every shard came straight from a head cache: the merged
            // result is cache-served end to end. Any computed or batched
            // shard makes the whole merge Computed.
            Provenance::Cache
        } else {
            Provenance::Computed
        };
        if shards > 1 {
            self.stats.merged += 1;
        }
        let sub_results: Vec<JobResult> = collected.into_iter().map(|(_, r)| r).collect();
        let result = merge(&spec, &sub_results)?;
        Ok(FarmSubmitted { provenance, result, shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shmoo() -> JobSpec {
        JobSpec::Shmoo {
            rate_bps: 1_250_000_000,
            bits: 256,
            stim_seed: 7,
            phase_step_fs: 100_000_000,
            v_start_mv: -1400,
            v_end_mv: -1100,
            v_step_mv: 25,
            seed: 11,
        }
    }

    #[test]
    fn empty_fleets_are_rejected() {
        let heads: Vec<Client<Loopback>> = Vec::new();
        assert!(matches!(Farm::new(heads, FarmConfig::from_env()), Err(FarmError::NoHeads)));
    }

    #[test]
    fn farm_matches_a_single_head_byte_for_byte() {
        let mut single = Farm::in_proc(1).expect("single");
        let baseline = single.submit(1, shmoo()).expect("single-head run");
        assert_eq!(baseline.shards, 1);

        let mut farm = Farm::in_proc(3).expect("farm");
        let merged = farm.submit(1, shmoo()).expect("farm run");
        assert_eq!(merged.shards, 3);
        assert_eq!(
            merged.result.encoded().expect("encode"),
            baseline.result.encoded().expect("encode"),
            "farm merge must be byte-identical to one head"
        );
        let stats = farm.stats();
        assert_eq!(stats.specs, 1);
        assert_eq!(stats.sub_specs, 3);
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.rerouted, 0);
    }

    #[test]
    fn resubmission_is_cache_served_on_every_head() {
        let mut farm = Farm::in_proc(2).expect("farm");
        let first = farm.submit(1, shmoo()).expect("first");
        let again = farm.submit(1, shmoo()).expect("again");
        assert_eq!(first.result, again.result);
        assert_eq!(again.provenance, Provenance::Cache, "hot resubmission must merge as Cache");
        let completed: u64 = farm.stats().per_head.iter().map(|t| t.completed).sum();
        assert_eq!(completed, farm.stats().sub_specs, "per-head tallies must balance");
    }

    #[test]
    fn kill_reroutes_and_readmit_restores() {
        let mut farm = Farm::in_proc(2).expect("farm");
        let baseline = farm.submit(1, shmoo()).expect("healthy run");
        // Kill whichever head is home to the first band, so at least one
        // sub-spec is guaranteed to re-route.
        let bands = plan(&shmoo(), 2).expect("plan");
        let victim = farm.route(bands.first().expect("two bands")).expect("routable");
        assert!(farm.kill(victim));
        assert_eq!(farm.up_heads(), 1);
        let rerouted = farm.submit(1, shmoo()).expect("one-head run");
        assert_eq!(
            rerouted.result.encoded().expect("encode"),
            baseline.result.encoded().expect("encode"),
            "re-shard must not change the merged bytes"
        );
        assert!(farm.stats().rerouted > 0, "the victim's band must have rerouted");
        assert!(farm.readmit(victim));
        assert_eq!(farm.up_heads(), 2);
    }

    #[test]
    fn all_heads_down_is_a_typed_error() {
        let mut farm = Farm::in_proc(2).expect("farm");
        farm.kill(0);
        farm.kill(1);
        assert!(matches!(farm.submit(1, shmoo()), Err(FarmError::AllHeadsDown { .. })));
    }
}
