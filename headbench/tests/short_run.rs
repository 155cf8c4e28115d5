//! A short traced run of each workload finishes with no failed operation
//! and the expected exact counts, and the counts repeat for one seed.
//! The kernels are slow unoptimised: run with `cargo test --release`.

use headbench::gen::{self, Workload};
use headbench::replay::Counts;
use headbench::run::{run, Options, Run};

fn short(workload: Workload) -> (Counts, Run) {
    let done =
        run(workload, &Options { seed: 17, seconds: 0.4, trace: true }).expect("the run completes");
    assert_eq!(done.outcome.failed, 0, "{:?}", done.outcome);
    assert!(done.outcome.attempted > workload.replay_jobs());
    let counts = done.counts.clone().expect("a traced run reports its replay counts");
    assert_eq!(counts.jobs, workload.replay_jobs());
    (counts, done)
}

#[test]
fn cold_campaign_computes_every_job() {
    let (c, _) = short(Workload::ColdCampaign);
    assert_eq!((c.jobs, c.computed, c.kernel_calls, c.store_misses), (64, 64, 64, 64));
    assert_eq!(c.lru_hits + c.store_hits + c.batched, 0);
    assert_eq!(c.rehydrated, gen::HISTORY_RECORDS as u64);
    assert!(c.store_bytes_written > 0, "every computed job is written to the store");
    assert_eq!(short(Workload::ColdCampaign).0, c, "counts must repeat exactly");
}

#[test]
fn warm_replay_serves_the_hot_set_from_the_lru_and_the_tail_from_the_store() {
    let (c, done) = short(Workload::WarmReplay);
    assert_eq!((c.computed, c.batched, c.kernel_calls), (0, 0, 0));
    assert_eq!((c.lru_hits, c.store_hits, c.store_misses), (768, 256, 0));
    let working_set = (gen::WARM_HOT + gen::WARM_TAIL) as u64;
    assert_eq!(c.rehydrated, gen::HISTORY_RECORDS as u64 + working_set);
    assert_eq!(c.store_bytes_written, 0);
    assert_eq!(c.wire_bytes_by_index.len() as u64, working_set, "the replay serves every spec");
    let (predicted, written) = done.wire_check.expect("a traced warm replay checks its frames");
    assert!(predicted > 0);
    assert_eq!(predicted, written, "the replay must frame results as the daemon does");
    assert_eq!(short(Workload::WarmReplay).0, c, "counts must repeat exactly");
}

#[test]
fn farm_campaign_reshards_around_a_killed_head() {
    let (c, _) = short(Workload::FarmCampaign);
    assert_eq!(c.farm_specs, 2 * gen::FARM_BLOCK);
    assert_eq!(c.farm_sub_specs, 2 * gen::FARM_BLOCK * gen::FARM_HEADS as u64);
    assert!(c.farm_reshards > 0, "the killed head's bands must route elsewhere");
    assert_eq!(c.farm_retry_rounds, 0, "an administrative kill forces no retry");
    assert!(c.lru_hits > 0 && c.computed > 0);
    assert_eq!(c.kernel_calls, c.computed);
    assert_eq!(short(Workload::FarmCampaign).0, c, "counts must repeat exactly");
}
