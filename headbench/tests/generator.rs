//! The input generator is a pure function of the seed, and the seed
//! reaches only the RNG seeds inside specs: never sizes, the kind mix or
//! the shape of the request sequences.

use std::collections::BTreeSet;

use atd::JobSpec;
use headbench::gen::{self, FleetEvent, Kind};

/// `spec` with every seed-drawn field cleared: what a seed must not move.
fn shape(spec: &JobSpec) -> JobSpec {
    let mut spec = *spec;
    match &mut spec {
        JobSpec::Shmoo { stim_seed, seed, .. } | JobSpec::Eye { stim_seed, seed, .. } => {
            *stim_seed = 0;
            *seed = 0;
        }
        JobSpec::Wafer { seed, .. } => *seed = 0,
        JobSpec::Bathtub { transition_density, .. } => *transition_density = 0.5,
        other => panic!("the generator made a shard spec: {other:?}"),
    }
    spec
}

/// Every input a run of `seed` submits, in order.
fn inputs(seed: u64) -> Vec<JobSpec> {
    let mut all: Vec<JobSpec> = (0..256).map(|i| gen::cold_spec(seed, i)).collect();
    all.extend(gen::cold_warmup(seed));
    all.extend(gen::warm_working_set(seed));
    all.extend((0..256).map(|f| gen::farm_fresh(seed, f)));
    all.extend(gen::farm_warmup(seed));
    all
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for seed in [1, 2005, u64::MAX] {
        assert_eq!(inputs(seed), inputs(seed));
    }
    assert_eq!(gen::history_specs(), gen::history_specs());
}

#[test]
fn a_new_seed_changes_only_rng_seeds() {
    let (a, b) = (inputs(1), inputs(2));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(x, y, "a new seed must draw new seeds");
        assert_eq!(shape(x), shape(y), "a new seed must not change sizes or kinds");
    }
    // The history is the same under every seed, so set-up costs the same.
    assert_eq!(gen::history_specs().len(), gen::COLD_MIX.len());
}

#[test]
fn kinds_follow_the_fixed_mixes() {
    for i in 0..64 {
        let mix = gen::COLD_MIX[i as usize % gen::COLD_MIX.len()];
        assert_eq!(Kind::of(&gen::cold_spec(9, i)), mix);
        let farm = gen::FARM_MIX[i as usize % gen::FARM_MIX.len()];
        assert_eq!(Kind::of(&gen::farm_fresh(9, i)), farm);
    }
    let ws = gen::warm_working_set(9);
    assert_eq!(ws.len(), gen::WARM_HOT + gen::WARM_TAIL);
    assert_eq!(gen::WARM_HOT, gen::LRU_ENTRIES / 2);
    assert_eq!(gen::WARM_TAIL, 4 * gen::LRU_ENTRIES);
    for kind in [Kind::Eye, Kind::Bathtub, Kind::Shmoo, Kind::Wafer] {
        let n = ws.iter().filter(|s| Kind::of(s) == kind).count();
        assert_eq!(n, ws.len() / 4, "{kind:?}");
    }
}

#[test]
fn cold_specs_never_repeat() {
    let keys: BTreeSet<Vec<u8>> = (0..4096).map(|i| gen::cold_spec(3, i).key_bytes()).collect();
    assert_eq!(keys.len(), 4096);
    let warmup: BTreeSet<Vec<u8>> = gen::cold_warmup(3).iter().map(JobSpec::key_bytes).collect();
    assert!(warmup.is_disjoint(&keys), "warm-up specs must not reappear in the campaign");
}

#[test]
fn warm_requests_never_put_one_spec_in_flight_twice() {
    let mut shares: Vec<BTreeSet<usize>> = Vec::new();
    for conn in 0..gen::WARM_CONNS {
        let seq: Vec<usize> = (0..4096).map(|p| gen::warm_request(conn, p)).collect();
        for window in seq.windows(gen::WARM_DEPTH) {
            let distinct: BTreeSet<&usize> = window.iter().collect();
            assert_eq!(distinct.len(), window.len(), "a spec repeats within the pipeline depth");
        }
        let tail = seq.iter().filter(|&&i| i >= gen::WARM_HOT).count();
        assert_eq!(tail * 4, seq.len(), "a quarter of requests go to the tail");
        shares.push(seq.into_iter().collect());
    }
    assert!(shares[0].is_disjoint(&shares[1]), "connections must not share specs");
    let order = gen::warm_warmup_order();
    assert_eq!(order.len(), gen::WARM_HOT + gen::WARM_TAIL);
    assert!(order[order.len() - gen::WARM_HOT..].iter().all(|&i| i < gen::WARM_HOT));
}

#[test]
fn the_farm_schedule_is_fixed() {
    assert_eq!(gen::farm_event(gen::FARM_KILL_AT), Some(FleetEvent::Kill(0)));
    assert_eq!(gen::farm_event(gen::FARM_READMIT_AT), Some(FleetEvent::Readmit(0)));
    assert_eq!(gen::farm_event(gen::FARM_BLOCK + gen::FARM_KILL_AT), Some(FleetEvent::Kill(1)));
    assert_eq!(gen::farm_event(gen::FARM_KILL_AT + 1), None);
    let mut newest = None;
    let mut repeats = 0;
    for i in 0..gen::FARM_BLOCK {
        let f = gen::farm_request(i);
        match newest {
            Some(n) if f <= n => repeats += 1,
            _ => {
                assert_eq!(Some(f), newest.map_or(Some(0), |n: u64| Some(n + 1)));
                newest = Some(f);
            }
        }
    }
    assert_eq!(repeats * 8, 3 * gen::FARM_BLOCK, "three requests in eight repeat a spec");
}
