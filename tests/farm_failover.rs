//! Hostile farm suite: heads die mid-campaign and the coordinator must
//! re-shard deterministically without changing a single output byte.
//!
//! The adversary here is a head that accepts some work and then fails —
//! the worst case for a merge layer, because partial results are already
//! banked when the fleet topology changes. These tests pin the farm's
//! contract under that adversary: byte-identity with a single head, a
//! deterministic re-shard (two coordinators observing the same failure
//! make the same decisions), no lost or duplicated sub-results, balanced
//! stats, and clean re-admission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atd::{AtdError, Client, JobResult, JobSpec, Loopback, Provenance, ServiceStats};
use atd_farm::{local_head, plan, Farm, FarmConfig, FarmError, Head};
use pstime::DataRate;

/// A head that serves faithfully until its fuse burns, then errors on
/// every submission. The fuse is shared with the test so a fleet can be
/// built healthy and sabotaged later, mid-campaign.
struct FlakyHead {
    inner: Client<Loopback>,
    /// Successful submissions remaining before the head starts failing;
    /// `u64::MAX` means healthy forever.
    fuse: Arc<AtomicU64>,
}

impl FlakyHead {
    fn healthy() -> (Self, Arc<AtomicU64>) {
        let fuse = Arc::new(AtomicU64::new(u64::MAX));
        (FlakyHead { inner: local_head(), fuse: Arc::clone(&fuse) }, fuse)
    }
}

impl Head for FlakyHead {
    fn submit(&mut self, session: u32, spec: JobSpec) -> Result<(Provenance, JobResult), AtdError> {
        let burned = self
            .fuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| left.checked_sub(1))
            .is_err();
        if burned {
            return Err(AtdError::Remote { message: "injected fault: fuse burned".to_string() });
        }
        Head::submit(&mut self.inner, session, spec)
    }

    fn stats(&mut self) -> Result<ServiceStats, AtdError> {
        Head::stats(&mut self.inner)
    }

    fn shutdown(&mut self) -> Result<(), AtdError> {
        Head::shutdown(&mut self.inner)
    }
}

fn wafer_spec() -> JobSpec {
    JobSpec::wafer(&minitester::WaferRunConfig {
        dies: 12,
        columns: 4,
        sites: 4,
        test_bits: 256,
        seed: 7,
        ..minitester::WaferRunConfig::default()
    })
}

fn eye_spec() -> JobSpec {
    JobSpec::eye(DataRate::from_gbps(2.5), 256, 17, 5)
}

fn single_head_bytes(spec: JobSpec) -> Vec<u8> {
    let mut single = Farm::in_proc(1).expect("single-head farm");
    single.submit(1, spec).expect("single-head run").result.encoded().expect("encode")
}

/// Campaigns shard 8 ways over 4 heads, so by pigeonhole some head owns
/// at least two bands — the precondition for a genuinely *mid-campaign*
/// death (one band banked, the next one failing).
const SHARDS: usize = 8;
const HEADS: usize = 4;

/// Builds a healthy 4-head flaky fleet and returns it with the fuses.
fn flaky_fleet(retries: u32) -> (Farm<FlakyHead>, Vec<Arc<AtomicU64>>) {
    let mut heads = Vec::new();
    let mut fuses = Vec::new();
    for _ in 0..HEADS {
        let (head, fuse) = FlakyHead::healthy();
        heads.push(head);
        fuses.push(fuse);
    }
    let farm = Farm::new(heads, FarmConfig { shards: Some(SHARDS), retries }).expect("farm");
    (farm, fuses)
}

/// Burns the fuse of the busiest head (the one owning the most bands)
/// after it has served exactly one sub-spec, then runs the campaign: the
/// head banks partial work and dies mid-round. Returns the campaign
/// outcome, the farm, and the victim's head id.
fn run_sabotaged_campaign(
    spec: JobSpec,
    retries: u32,
) -> (Result<atd_farm::FarmSubmitted, FarmError>, Farm<FlakyHead>, usize) {
    let (mut farm, fuses) = flaky_fleet(retries);
    let bands = plan(&spec, SHARDS).expect("plan");
    assert!(bands.len() > 1, "campaign spec must actually shard");
    let mut owned = [0usize; HEADS];
    for band in &bands {
        let head = farm.route(band).expect("routable");
        if let Some(count) = owned.get_mut(head) {
            *count += 1;
        }
    }
    let victim = owned
        .iter()
        .enumerate()
        .max_by_key(|(_, count)| **count)
        .map(|(head, _)| head)
        .expect("non-empty fleet");
    assert!(
        owned.get(victim).copied().unwrap_or(0) >= 2,
        "pigeonhole violated: no head owns two bands"
    );
    fuses.get(victim).expect("victim fuse").store(1, Ordering::SeqCst);
    let outcome = farm.submit(1, spec);
    (outcome, farm, victim)
}

/// A head killed mid-campaign — after completing part of its group —
/// must not change the merged bytes, for composite specs of both wafer
/// and eye shape.
#[test]
fn mid_campaign_kill_preserves_byte_identity() {
    for spec in [wafer_spec(), eye_spec()] {
        let baseline = single_head_bytes(spec);
        let (outcome, farm, victim) = run_sabotaged_campaign(spec, 2);
        let done = outcome.expect("campaign must survive one dead head");
        assert_eq!(
            done.result.encoded().expect("encode"),
            baseline,
            "merged bytes changed after a mid-campaign {} head kill",
            spec.kind()
        );
        let stats = farm.stats();
        assert!(!farm.is_up(victim), "the failing head must be marked down");
        assert_eq!(stats.heads_down, 1);
        assert!(stats.retry_rounds >= 1, "a mid-round death must force a retry round");
        assert!(stats.rerouted >= 1, "the dead head's keys must re-shard to survivors");
    }
}

/// Two coordinators observing the same failure make byte-identical
/// decisions: same stats, same tallies, same output.
#[test]
fn reshard_is_deterministic_across_identical_campaigns() {
    let (a, farm_a, victim_a) = run_sabotaged_campaign(wafer_spec(), 2);
    let (b, farm_b, victim_b) = run_sabotaged_campaign(wafer_spec(), 2);
    assert_eq!(victim_a, victim_b);
    let a = a.expect("campaign a");
    let b = b.expect("campaign b");
    assert_eq!(a.result, b.result);
    assert_eq!(a.provenance, b.provenance);
    assert_eq!(farm_a.stats(), farm_b.stats(), "re-shard decisions must be deterministic");
}

/// No sub-result is lost or computed twice: every planned band completes
/// exactly once, and the failure tally matches the injected fault.
#[test]
fn no_lost_or_duplicated_sub_results() {
    let (outcome, farm, victim) = run_sabotaged_campaign(wafer_spec(), 2);
    let done = outcome.expect("campaign");
    let stats = farm.stats();
    let completed: u64 = stats.per_head.iter().map(|t| t.completed).sum();
    let failed: u64 = stats.per_head.iter().map(|t| t.failed).sum();
    assert_eq!(
        completed, stats.sub_specs,
        "every planned sub-spec must complete exactly once (lost or duplicated work otherwise)"
    );
    assert!(failed >= 1, "the injected fault must show up in the failure tally");
    assert_eq!(
        stats.per_head.get(victim).map(|t| t.completed),
        Some(1),
        "the victim's one pre-death completion must be kept, not recomputed"
    );
    // The merged wafer must hold every die exactly once, in order.
    let JobResult::Wafer { records, .. } = &done.result else {
        panic!("wafer spec must merge to a wafer result");
    };
    let dies: Vec<u32> = records.iter().map(|r| r.die).collect();
    assert_eq!(dies, (0..12).collect::<Vec<u32>>(), "die coverage after re-shard");
}

/// With a zero retry budget the campaign fails fast with a typed error
/// instead of silently dropping the dead head's bands.
#[test]
fn retry_budget_exhaustion_is_a_typed_error() {
    let (outcome, farm, _) = run_sabotaged_campaign(wafer_spec(), 0);
    match outcome {
        Err(FarmError::RetriesExhausted { kind, attempts, .. }) => {
            assert_eq!(kind, "wafer");
            assert_eq!(attempts, 1, "retries=0 means exactly the initial round");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    let completed: u64 = farm.stats().per_head.iter().map(|t| t.completed).sum();
    assert!(completed < farm.stats().sub_specs, "some bands must be left unfinished");
}

/// A fleet that dies entirely reports `AllHeadsDown`, never a hang or a
/// partial merge.
#[test]
fn total_fleet_loss_is_a_typed_error() {
    let (mut farm, fuses) = flaky_fleet(3);
    for fuse in &fuses {
        fuse.store(0, Ordering::SeqCst);
    }
    match farm.submit(1, wafer_spec()) {
        Err(FarmError::AllHeadsDown { kind }) => assert_eq!(kind, "wafer"),
        other => panic!("expected AllHeadsDown, got {other:?}"),
    }
}

/// Re-admitting a repaired head restores its routing and its banked
/// cache: the next campaign routes home again and serves hot.
#[test]
fn readmission_restores_routing_and_cache_affinity() {
    let (outcome, mut farm, victim) = run_sabotaged_campaign(eye_spec(), 2);
    let baseline = outcome.expect("campaign").result;
    assert!(farm.readmit(victim));
    assert!(farm.is_up(victim));
    // The re-admitted head's fuse is still burned: it fails again on
    // first contact, gets re-marked down, and the campaign must still
    // succeed via re-shard — a flapping head never corrupts output.
    let flapping = farm.submit(1, eye_spec()).expect("campaign across a flapping head");
    assert_eq!(flapping.result, baseline, "a flapping head must not change merged bytes");
    assert!(!farm.is_up(victim), "the still-broken head must be re-marked down");
}

/// A spec outside the instrument's envelope is the caller's error, not a
/// head failure: each one comes back typed with every head still up, and
/// the farm then serves a valid spec.
#[test]
fn out_of_envelope_specs_are_typed_errors_with_every_head_up() {
    let mut farm = Farm::in_proc(3).expect("three-head farm");
    let wafer_48_bits = JobSpec::wafer(&minitester::WaferRunConfig {
        test_bits: 48,
        ..minitester::WaferRunConfig::default()
    });
    for spec in [
        JobSpec::eye(DataRate::from_gbps(6.0), 256, 17, 5),
        JobSpec::eye(DataRate::from_gbps(20.0), 256, 17, 5),
        JobSpec::eye(DataRate::from_gbps(2.5), 100, 17, 5),
        wafer_48_bits,
    ] {
        match farm.submit(1, spec) {
            Err(FarmError::Spec(_)) => {}
            other => panic!("{spec:?}: expected a spec error, got {other:?}"),
        }
        assert_eq!(farm.up_heads(), 3, "{spec:?} must not take a head down");
    }
    let served = farm.submit(1, eye_spec()).expect("a valid spec is served");
    assert_eq!(served.shards, 3);
}
