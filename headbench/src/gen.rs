//! Input generation. Every spec a workload submits is a pure function of
//! the workload seed and its position in the workload's request sequence.
//! The seed reaches only the RNG seeds inside specs — and, for bathtub
//! sweeps, which carry no seed, a drawn transition density. Sizes, the
//! kind mix and the shape of every request sequence are constants of this
//! file, so what a run costs does not depend on its seed.

use atd::JobSpec;
use rng::{Rng, SeedTree};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique specs over one THP/2 connection at depth 1: the head
    /// computes every job and writes it to its store.
    ColdCampaign,
    /// Two pipelined connections over a precomputed working set: an LRU
    /// hot set and a tail that lives only in the store.
    WarmReplay,
    /// Composite specs through a three-head farm, with one head killed
    /// and readmitted at fixed request indices.
    FarmCampaign,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::ColdCampaign, Workload::WarmReplay, Workload::FarmCampaign];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCampaign => "cold_campaign",
            Workload::WarmReplay => "warm_replay",
            Workload::FarmCampaign => "farm_campaign",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in the traced run's layered replay.
    pub fn replay_jobs(self) -> u64 {
        match self {
            Workload::ColdCampaign => 64,
            Workload::WarmReplay => 1024,
            Workload::FarmCampaign => 2 * FARM_BLOCK,
        }
    }
}

/// The four job kinds; shard variants count as their parent's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Shmoo plots and their row bands.
    Shmoo,
    /// Wafer runs and their die ranges.
    Wafer,
    /// Eye scans and their strobe ranges.
    Eye,
    /// Bathtub sweeps.
    Bathtub,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 4] = [Kind::Shmoo, Kind::Wafer, Kind::Eye, Kind::Bathtub];

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Shmoo => "shmoo",
            Kind::Wafer => "wafer",
            Kind::Eye => "eye",
            Kind::Bathtub => "bathtub",
        }
    }

    /// The kind of `spec`.
    pub fn of(spec: &JobSpec) -> Kind {
        match spec {
            JobSpec::Shmoo { .. } | JobSpec::ShmooRows { .. } => Kind::Shmoo,
            JobSpec::Wafer { .. } | JobSpec::WaferDies { .. } => Kind::Wafer,
            JobSpec::Eye { .. } | JobSpec::EyeRange { .. } => Kind::Eye,
            JobSpec::Bathtub { .. } => Kind::Bathtub,
        }
    }
}

/// The dimensions of one workload's specs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Shmoo data rate.
    pub shmoo_rate_bps: u64,
    /// Shmoo PRBS length.
    pub shmoo_bits: u32,
    /// Shmoo strobe step.
    pub shmoo_step_fs: i64,
    /// Shmoo threshold sweep: start, end and step in millivolts.
    pub shmoo_mv: [i32; 3],
    /// Wafer-map columns.
    pub wafer_columns: u32,
    /// Dies per wafer.
    pub wafer_dies: u32,
    /// Probe sites.
    pub wafer_sites: u32,
    /// PRBS bits per die test.
    pub wafer_bits: u32,
    /// Eye-scan data rate; the strobe walks one unit interval in 10 ps steps.
    pub eye_rate_bps: u64,
    /// Eye-scan PRBS length.
    pub eye_bits: u32,
    /// Bathtub sweep points.
    pub bathtub_points: u32,
}

const GBPS_2_5: u64 = 2_500_000_000;
const PECL_SWEEP_MV: [i32; 3] = [-1650, -950, 50];

/// `cold_campaign`: specs the head computes in milliseconds.
pub const COLD: Shape = Shape {
    shmoo_rate_bps: GBPS_2_5,
    shmoo_bits: 256,
    shmoo_step_fs: 10_000,
    shmoo_mv: PECL_SWEEP_MV,
    wafer_columns: 4,
    wafer_dies: 16,
    wafer_sites: 4,
    wafer_bits: 256,
    eye_rate_bps: GBPS_2_5,
    eye_bits: 512,
    bathtub_points: 1001,
};

/// `warm_replay`: large results — long eye scans, 2001-point bathtubs,
/// wide shmoo grids and big wafers.
pub const WARM: Shape = Shape {
    shmoo_rate_bps: 1_000_000_000,
    shmoo_bits: 64,
    shmoo_step_fs: 10_000,
    shmoo_mv: PECL_SWEEP_MV,
    wafer_columns: 16,
    wafer_dies: 256,
    wafer_sites: 16,
    wafer_bits: 64,
    eye_rate_bps: 500_000_000,
    eye_bits: 64,
    bathtub_points: 2001,
};

/// `farm_campaign`: composite specs the planner cuts into three bands.
pub const FARM: Shape = Shape {
    shmoo_rate_bps: GBPS_2_5,
    shmoo_bits: 256,
    shmoo_step_fs: 10_000,
    shmoo_mv: PECL_SWEEP_MV,
    wafer_columns: 6,
    wafer_dies: 36,
    wafer_sites: 6,
    wafer_bits: 256,
    eye_rate_bps: GBPS_2_5,
    eye_bits: 1024,
    bathtub_points: 1001,
};

/// A spec of `kind` with `shape`'s dimensions and seeds drawn from `rng`.
pub fn make_spec(shape: &Shape, kind: Kind, rng: &mut Rng) -> JobSpec {
    match kind {
        Kind::Shmoo => JobSpec::Shmoo {
            rate_bps: shape.shmoo_rate_bps,
            bits: shape.shmoo_bits,
            stim_seed: rng.next_u64(),
            phase_step_fs: shape.shmoo_step_fs,
            v_start_mv: shape.shmoo_mv[0],
            v_end_mv: shape.shmoo_mv[1],
            v_step_mv: shape.shmoo_mv[2],
            seed: rng.next_u64(),
        },
        Kind::Wafer => JobSpec::Wafer {
            columns: shape.wafer_columns,
            dies: shape.wafer_dies,
            sites: shape.wafer_sites,
            hard_defect_rate: 0.06,
            marginal_rate: 0.08,
            rate_bps: GBPS_2_5,
            test_bits: shape.wafer_bits,
            seed: rng.next_u64(),
        },
        Kind::Eye => JobSpec::Eye {
            rate_bps: shape.eye_rate_bps,
            bits: shape.eye_bits,
            stim_seed: rng.next_u64(),
            seed: rng.next_u64(),
        },
        // A bathtub sweep carries no seed. Its drawn transition density
        // keeps every sweep distinct at an unchanged cost.
        Kind::Bathtub => JobSpec::Bathtub {
            rj_rms_fs: 3_200,
            dj_pp_fs: 20_000,
            rate_bps: GBPS_2_5,
            transition_density: 0.25 + 0.5 * rng.f64(),
            points: shape.bathtub_points,
        },
    }
}

fn rng_at(seed: u64, stream: &str, i: u64) -> Rng {
    SeedTree::new(seed).stream(stream).index(i).rng()
}

fn pick<T: Copy>(items: &[T], i: u64) -> T {
    items[usize::try_from(i % items.len() as u64).unwrap_or(0)]
}

/// The cold campaign's fixed kind mix, repeated. Three shmoos in eight
/// put the median job inside the shmoo cost band rather than on the edge
/// between two kinds, so the median latency does not jump between them.
pub const COLD_MIX: [Kind; 8] = [
    Kind::Shmoo,
    Kind::Eye,
    Kind::Wafer,
    Kind::Shmoo,
    Kind::Bathtub,
    Kind::Shmoo,
    Kind::Eye,
    Kind::Wafer,
];

/// Warm-up specs per set-up of the cold campaign (never in its script).
pub const COLD_WARMUP: u64 = 8;

/// The cold campaign's `i`-th spec; no two are alike.
pub fn cold_spec(seed: u64, i: u64) -> JobSpec {
    make_spec(&COLD, pick(&COLD_MIX, i), &mut rng_at(seed, "headbench.cold", i))
}

/// The cold campaign's warm-up pass.
pub fn cold_warmup(seed: u64) -> Vec<JobSpec> {
    (0..COLD_WARMUP)
        .map(|j| {
            make_spec(&COLD, pick(&COLD_MIX, j), &mut rng_at(seed, "headbench.cold.warmup", j))
        })
        .collect()
}

/// Entries of the head's LRU (the scheduler default).
pub const LRU_ENTRIES: usize = atd::scheduler::DEFAULT_CACHE_ENTRIES;
/// The warm replay's hot set: half the LRU.
pub const WARM_HOT: usize = LRU_ENTRIES / 2;
/// The warm replay's tail: four times the LRU, so it lives only in the store.
pub const WARM_TAIL: usize = 4 * LRU_ENTRIES;
/// Client connections of the warm replay.
pub const WARM_CONNS: usize = 2;
/// Submissions each warm-replay connection keeps in flight.
pub const WARM_DEPTH: usize = 8;
/// The working set's kind mix, repeated.
pub const WARM_KINDS: [Kind; 4] = [Kind::Eye, Kind::Bathtub, Kind::Shmoo, Kind::Wafer];

/// The warm replay's working set: the hot set first, then the tail.
pub fn warm_working_set(seed: u64) -> Vec<JobSpec> {
    let hot = (0..WARM_HOT as u64).map(|j| {
        make_spec(&WARM, pick(&WARM_KINDS, j), &mut rng_at(seed, "headbench.warm.hot", j))
    });
    let tail = (0..WARM_TAIL as u64).map(|j| {
        make_spec(&WARM, pick(&WARM_KINDS, j), &mut rng_at(seed, "headbench.warm.tail", j))
    });
    hot.chain(tail).collect()
}

/// Working-set index of connection `conn`'s `p`-th request. Every fourth
/// request cycles through the connection's share of the tail, the rest
/// through its share of the hot set. The shares are disjoint, and a hot
/// spec comes back only every 16 hot requests — beyond the pipeline
/// depth — so two identical specs are never in flight together and the
/// head never coalesces them.
pub fn warm_request(conn: usize, p: u64) -> usize {
    let hot = (WARM_HOT / WARM_CONNS) as u64;
    let tail = (WARM_TAIL / WARM_CONNS) as u64;
    let conn = conn as u64;
    let index = if p % 4 == 3 {
        WARM_HOT as u64 + conn * tail + (p / 4) % tail
    } else {
        conn * hot + (p - p / 4) % hot
    };
    usize::try_from(index).unwrap_or(0)
}

/// The warm replay's warm-up pass, over one connection: every tail spec,
/// then every hot spec, so the LRU ends up holding the hot set.
pub fn warm_warmup_order() -> Vec<usize> {
    (WARM_HOT..WARM_HOT + WARM_TAIL).chain(0..WARM_HOT).collect()
}

/// Heads in the farm.
pub const FARM_HEADS: usize = 3;
/// The farm campaign's kind mix, repeated (bathtubs do not shard).
pub const FARM_MIX: [Kind; 3] = [Kind::Shmoo, Kind::Wafer, Kind::Eye];
/// Requests per kill-and-readmit cycle.
pub const FARM_BLOCK: u64 = 48;
/// Offset in a cycle at which a head is killed.
pub const FARM_KILL_AT: u64 = 12;
/// Offset in a cycle at which it is readmitted.
pub const FARM_READMIT_AT: u64 = 36;
/// Which of every eight requests are fresh; the others repeat an earlier
/// spec. Five fresh to three repeats puts the median request inside one
/// cost band instead of on the edge between repeats and fresh specs.
pub const FARM_FRESH: [bool; 8] = [true, true, false, true, false, true, true, false];
/// How many fresh specs before the latest one a repeat reaches back.
pub const FARM_REPEAT_LAG: u64 = 5;
/// Warm-up specs per set-up of the farm campaign.
pub const FARM_WARMUP: u64 = 6;

/// The farm campaign's `f`-th fresh spec.
pub fn farm_fresh(seed: u64, f: u64) -> JobSpec {
    make_spec(&FARM, pick(&FARM_MIX, f), &mut rng_at(seed, "headbench.farm", f))
}

/// The fresh-spec index of farm request `i`, following [`FARM_FRESH`].
pub fn farm_request(i: u64) -> u64 {
    let cycle = FARM_FRESH.len() as u64;
    let fresh_in = |n: usize| FARM_FRESH[..n].iter().filter(|f| **f).count() as u64;
    let pos = usize::try_from(i % cycle).unwrap_or(0);
    let before = (i / cycle) * fresh_in(FARM_FRESH.len()) + fresh_in(pos);
    if FARM_FRESH[pos] {
        before
    } else {
        before.saturating_sub(1 + FARM_REPEAT_LAG)
    }
}

/// A change to the farm's fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Stop routing to a head.
    Kill(usize),
    /// Route to it again.
    Readmit(usize),
}

/// The fleet change due before farm request `i`: each cycle kills one
/// head, in turn, and readmits it later in the cycle.
pub fn farm_event(i: u64) -> Option<FleetEvent> {
    let head = usize::try_from((i / FARM_BLOCK) % FARM_HEADS as u64).unwrap_or(0);
    match i % FARM_BLOCK {
        FARM_KILL_AT => Some(FleetEvent::Kill(head)),
        FARM_READMIT_AT => Some(FleetEvent::Readmit(head)),
        _ => None,
    }
}

/// The farm campaign's warm-up pass.
pub fn farm_warmup(seed: u64) -> Vec<JobSpec> {
    (0..FARM_WARMUP)
        .map(|j| {
            make_spec(&FARM, pick(&FARM_MIX, j), &mut rng_at(seed, "headbench.farm.warmup", j))
        })
        .collect()
}

/// Records in every store's seeded history.
pub const HISTORY_RECORDS: usize = 1500;

/// The specs whose results fill the seeded history, reused round-robin.
/// The history is the same under every seed, so set-up costs the same.
pub fn history_specs() -> Vec<JobSpec> {
    (0..COLD_MIX.len() as u64)
        .map(|j| make_spec(&COLD, pick(&COLD_MIX, j), &mut rng_at(0, "headbench.history", j)))
        .collect()
}

/// The key of history record `i`. No spec's key looks like it, so the
/// history is rehydrated on every boot but never served.
pub fn history_key(i: usize) -> Vec<u8> {
    format!("headbench-history-{i:06}").into_bytes()
}
