//! Traffic generators and load-sweep harnesses.
//!
//! The test bed evaluates "various signaling protocols … for the
//! transmission of data packets through an optical switching network"; the
//! workloads here are the standard interconnect patterns used for that kind
//! of characterization: uniform random, permutation, and hotspot.

use rng::{Rng, SeedTree, StreamId};

use crate::fabric::DataVortex;
use crate::packet::Packet;
use crate::stats::FabricStats;
use crate::topology::VortexParams;

/// Substream identity for load-generator arrival/destination draws.
pub const TRAFFIC_STREAM: StreamId = StreamId::named("vortex.traffic");

/// A traffic pattern for fabric characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Pattern {
    /// Each packet targets a uniformly random output.
    UniformRandom,
    /// Input angle `a` always targets output `(a * heights/angles + offset) % heights`.
    Permutation {
        /// Fixed offset added to the mapping.
        offset: u32,
    },
    /// A fraction of traffic converges on one hot output; the rest is
    /// uniform.
    Hotspot {
        /// The hot output height.
        target: u32,
        /// Fraction of packets aimed at the hot port (0..=1).
        fraction: f64,
    },
}

/// Result of one load point in a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Offered load per input per slot (0..=1).
    pub offered_load: f64,
    /// Fabric statistics at this load.
    pub stats: FabricStats,
}

/// Drives a fabric with `pattern` traffic at `offered_load` injections per
/// angle per slot for `warm_slots + measure_slots`, then drains; returns
/// statistics from the whole run.
///
/// # Panics
///
/// Panics if `offered_load` is outside `[0, 1]` or a hotspot target is out
/// of range.
pub fn run_load(
    params: VortexParams,
    pattern: Pattern,
    offered_load: f64,
    measure_slots: u64,
    seed: u64,
) -> FabricStats {
    assert!((0.0..=1.0).contains(&offered_load), "offered load must be in [0, 1]");
    if let Pattern::Hotspot { target, fraction } = pattern {
        assert!(params.height_in_range(target), "hotspot target out of range");
        assert!((0.0..=1.0).contains(&fraction), "hotspot fraction must be in [0, 1]");
    }
    let mut dv = DataVortex::new(params);
    let mut rng = SeedTree::new(seed).derive(TRAFFIC_STREAM).rng();
    let mut next_id = 0u64;
    for _ in 0..measure_slots {
        for a in 0..params.angles() {
            if rng.f64() >= offered_load {
                continue;
            }
            let dest = destination(&params, pattern, a, &mut rng);
            // Blocked injections are counted by the fabric and dropped —
            // matching an optical source that cannot hold a packet.
            let _ = dv.inject(Packet::new(next_id, dest, (a % 8) as u8), a);
            next_id += 1;
        }
        dv.step();
    }
    dv.run_until_drained(10_000);
    dv.stats().clone()
}

fn destination(params: &VortexParams, pattern: Pattern, angle: u32, rng: &mut Rng) -> u32 {
    match pattern {
        Pattern::UniformRandom => rng.range_u32(0..params.heights()),
        Pattern::Permutation { offset } => {
            (angle * params.heights() / params.angles() + offset) % params.heights()
        }
        Pattern::Hotspot { target, fraction } => {
            if rng.f64() < fraction {
                target
            } else {
                rng.range_u32(0..params.heights())
            }
        }
    }
}

/// Sweeps offered load across `points` values in `(0, max_load]` and
/// returns a [`LoadPoint`] per value — the latency/throughput-vs-load curve
/// every switching-fabric evaluation plots.
pub fn load_sweep(
    params: VortexParams,
    pattern: Pattern,
    max_load: f64,
    points: usize,
    measure_slots: u64,
    seed: u64,
) -> Vec<LoadPoint> {
    assert!(points > 0, "sweep needs at least one point");
    let tree = SeedTree::new(seed).stream("vortex.traffic.load-sweep");
    (1..=points)
        .map(|i| {
            let offered_load = max_load * i as f64 / points as f64;
            LoadPoint {
                offered_load,
                stats: run_load(
                    params,
                    pattern,
                    offered_load,
                    measure_slots,
                    tree.index(i as u64).seed(),
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_load_delivers_everything() {
        let stats = run_load(VortexParams::eight_node(), Pattern::UniformRandom, 0.3, 300, 1);
        assert!(stats.injected > 200, "injected {}", stats.injected);
        assert_eq!(stats.delivered, stats.injected, "all drained packets delivered");
        assert!(stats.latency.mean() >= 3.0);
    }

    #[test]
    fn permutation_traffic_has_low_deflection() {
        // A balanced permutation avoids output contention entirely, so
        // deflections stay minimal compared with a hotspot.
        let perm =
            run_load(VortexParams::eight_node(), Pattern::Permutation { offset: 0 }, 0.5, 300, 2);
        let hot = run_load(
            VortexParams::eight_node(),
            Pattern::Hotspot { target: 3, fraction: 0.8 },
            0.5,
            300,
            2,
        );
        assert!(perm.mean_deflections() < hot.mean_deflections());
        assert!(perm.latency.mean() < hot.latency.mean());
    }

    #[test]
    fn latency_rises_with_load() {
        let sweep = load_sweep(VortexParams::eight_node(), Pattern::UniformRandom, 0.9, 3, 400, 7);
        assert_eq!(sweep.len(), 3);
        let lat: Vec<f64> = sweep.iter().map(|p| p.stats.latency.mean()).collect();
        assert!(lat[2] > lat[0], "latency should rise with load: {lat:?}");
    }

    #[test]
    fn hotspot_saturates_one_port() {
        let stats = run_load(
            VortexParams::eight_node(),
            Pattern::Hotspot { target: 0, fraction: 1.0 },
            1.0,
            200,
            9,
        );
        // One output port accepts at most one packet per slot, so heavy
        // hotspot load must block injections (fabric full of circulators).
        assert!(stats.injection_blocked > 0);
        assert_eq!(stats.delivered, stats.injected); // all eventually drain
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_load(VortexParams::eight_node(), Pattern::UniformRandom, 0.4, 100, 5);
        let b = run_load(VortexParams::eight_node(), Pattern::UniformRandom, 0.4, 100, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn bigger_fabric_runs() {
        let stats = run_load(VortexParams::thirty_two_node(), Pattern::UniformRandom, 0.2, 100, 3);
        assert!(stats.delivered > 0);
        assert_eq!(stats.delivered, stats.injected);
    }

    #[test]
    #[should_panic(expected = "offered load must be in [0, 1]")]
    fn bad_load_panics() {
        let _ = run_load(VortexParams::eight_node(), Pattern::UniformRandom, 1.5, 10, 0);
    }

    #[test]
    #[should_panic(expected = "hotspot target out of range")]
    fn bad_hotspot_panics() {
        let _ = run_load(
            VortexParams::eight_node(),
            Pattern::Hotspot { target: 99, fraction: 0.5 },
            0.5,
            10,
            0,
        );
    }
}
