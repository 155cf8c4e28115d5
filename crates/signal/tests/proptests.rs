//! Property-based tests for bit streams, waveforms, and eye analysis.
//!
//! Cases are drawn from named substreams of the first-party `rng` crate, so
//! every run covers the same randomized slice of the input space
//! deterministically.

use pstime::{DataRate, Duration, Instant, Millivolts};
use rng::{Rng, SeedTree};
use signal::jitter::{JitterBudget, NoJitter};
use signal::{
    AnalogWaveform, BitStream, DigitalWaveform, EdgePolarity, EdgeShape, EyeDiagram, LevelSet,
};

const CASES: usize = 64;

fn cases(label: &str) -> (Rng, usize) {
    (SeedTree::new(0x51634).stream("signal.proptests").stream(label).rng(), CASES)
}

fn random_bits(rng: &mut Rng, max_len: usize) -> BitStream {
    let len = rng.range_usize(1..max_len);
    BitStream::from_fn(len, |_| rng.bool())
}

#[test]
fn interleave_deinterleave_round_trip() {
    let (mut rng, n) = cases("interleave");
    for _ in 0..n {
        let lanes_n = 1usize << rng.range_u32(1..5);
        let lane_bits = rng.range_usize(1..32);
        let lanes: Vec<BitStream> =
            (0..lanes_n).map(|_| BitStream::from_fn(lane_bits, |_| rng.bool())).collect();
        let serial = BitStream::interleave(&lanes);
        assert_eq!(serial.len(), lanes_n * lane_bits);
        assert_eq!(serial.deinterleave(lanes_n), lanes, "lanes_n={lanes_n} lane_bits={lane_bits}");
    }
}

#[test]
fn inversion_preserves_transitions() {
    let (mut rng, n) = cases("inversion");
    for _ in 0..n {
        let bits = random_bits(&mut rng, 256);
        let inv = bits.inverted();
        assert_eq!(bits.transition_count(), inv.transition_count(), "bits={bits}");
        assert_eq!(bits.count_ones() + inv.count_ones(), bits.len(), "bits={bits}");
        assert_eq!(inv.inverted(), bits);
    }
}

#[test]
fn word_round_trip() {
    let (mut rng, n) = cases("word");
    for _ in 0..n {
        let word = rng.next_u64();
        let width = rng.range_u32(1..65);
        let masked = if width == 64 { word } else { word & ((1 << width) - 1) };
        let bits = BitStream::from_word_msb_first(masked, width);
        assert_eq!(bits.word_msb_first(0, width), masked, "word={word:#x} width={width}");
    }
}

#[test]
fn hamming_distance_is_a_metric() {
    let (mut rng, n) = cases("hamming");
    for _ in 0..n {
        let a = random_bits(&mut rng, 128);
        let b = random_bits(&mut rng, 128);
        let (d_ab, len) = a.hamming_distance(&b);
        let (d_ba, len2) = b.hamming_distance(&a);
        assert_eq!(d_ab, d_ba, "a={a} b={b}");
        assert_eq!(len, len2);
        assert!(d_ab <= len);
        assert_eq!(a.hamming_distance(&a).0, 0);
    }
}

#[test]
fn waveform_edge_count_matches_transitions() {
    let (mut rng, n) = cases("edge-count");
    for _ in 0..n {
        let bits = random_bits(&mut rng, 256);
        let rate = DataRate::from_gbps(2.5);
        let w = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        assert_eq!(w.num_edges(), bits.transition_count(), "bits={bits}");
        assert_eq!(w.span(), rate.unit_interval() * bits.len() as i64);
    }
}

#[test]
fn jittered_edges_stay_ordered_and_within_half_ui() {
    let (mut rng, n) = cases("jitter-order");
    for _ in 0..n {
        let bits = random_bits(&mut rng, 512);
        let seed = rng.next_u64();
        let rj = rng.range_f64(0.0, 20.0);
        let dcd = rng.range_f64(0.0, 40.0);
        let rate = DataRate::from_gbps(2.5);
        let budget = JitterBudget::new().with_rj_rms_ps(rj).with_dcd_ps(dcd);
        let w = DigitalWaveform::from_bits(&bits, rate, &budget, seed);
        let ui = rate.unit_interval();
        let mut prev: Option<Instant> = None;
        for e in w.edges() {
            if let Some(p) = prev {
                assert!(
                    e.at > p,
                    "edges must stay strictly ordered (seed={seed} rj={rj} dcd={dcd})"
                );
            }
            prev = Some(e.at);
            // Each edge within half a UI of some grid point.
            let phase = e.at.phase_in(ui);
            let dist = phase.min(ui - phase);
            assert!(dist <= ui / 2, "seed={seed} rj={rj} dcd={dcd}");
        }
    }
}

#[test]
fn waveform_round_trips_through_mid_bit_sampling() {
    let (mut rng, n) = cases("mid-bit");
    for _ in 0..n {
        let bits = random_bits(&mut rng, 256);
        let rate = DataRate::from_gbps(2.5);
        let w = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let recovered = w.to_bits(rate, rate.unit_interval() / 2);
        assert_eq!(recovered, bits);
    }
}

#[test]
fn xor_is_commutative_and_self_cancelling() {
    let (mut rng, n) = cases("xor");
    for _ in 0..n {
        let a = random_bits(&mut rng, 64);
        let b = random_bits(&mut rng, 64);
        let rate = DataRate::from_gbps(1.0);
        let wa = DigitalWaveform::from_bits(&a, rate, &NoJitter, 0);
        let wb = DigitalWaveform::from_bits(&b, rate, &NoJitter, 0);
        assert_eq!(wa.xor(&wb), wb.xor(&wa), "a={a} b={b}");
        assert_eq!(wa.xor(&wa).num_edges(), 0);
    }
}

#[test]
fn delay_is_additive() {
    let (mut rng, n) = cases("delay");
    for _ in 0..n {
        let bits = random_bits(&mut rng, 64);
        let d1 = rng.range_i64(0..10_000);
        let d2 = rng.range_i64(0..10_000);
        let rate = DataRate::from_gbps(1.0);
        let w = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let a = w.delayed(Duration::from_ps(d1)).delayed(Duration::from_ps(d2));
        let b = w.delayed(Duration::from_ps(d1 + d2));
        assert_eq!(a, b, "d1={d1} d2={d2}");
    }
}

#[test]
fn analog_value_stays_within_extended_rails() {
    let (mut rng, n) = cases("rails");
    for _ in 0..n {
        let bits = random_bits(&mut rng, 128);
        let rise = rng.range_f64(20.0, 150.0);
        let rate = DataRate::from_gbps(2.5);
        let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, 0);
        let levels = LevelSet::pecl();
        let w = AnalogWaveform::new(d, levels, EdgeShape::from_rise_2080_ps(rise));
        // Sample a handful of points; superposition can never exceed the
        // rails (logistic sums telescope between 0 and 1 per pair).
        for i in 0..24 {
            let t = Instant::from_ps(i * 137);
            let v = w.value_at(t);
            assert!(v <= levels.voh().as_f64() + 1.0, "v={v} rise={rise}");
            assert!(v >= levels.vol().as_f64() - 1.0, "v={v} rise={rise}");
        }
    }
}

#[test]
fn eye_opening_decreases_with_jitter() {
    let (mut rng, n) = cases("eye-jitter");
    for _ in 0..n {
        let seed = rng.next_u64();
        let dcd = rng.range_f64(10.0, 60.0);
        let rate = DataRate::from_gbps(2.5);
        let bits = BitStream::alternating(512);
        let clean = {
            let d = DigitalWaveform::from_bits(&bits, rate, &NoJitter, seed);
            let w = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
            EyeDiagram::analyze(&w, rate).unwrap().opening_ui().value()
        };
        let dirty = {
            let budget = JitterBudget::new().with_dcd_ps(dcd).with_rj_rms_ps(3.0);
            let d = DigitalWaveform::from_bits(&bits, rate, &budget, seed);
            let w = AnalogWaveform::new(d, LevelSet::pecl(), EdgeShape::default());
            EyeDiagram::analyze(&w, rate).unwrap().opening_ui().value()
        };
        assert!(dirty < clean, "dirty {dirty} !< clean {clean} (seed={seed} dcd={dcd})");
    }
}

#[test]
fn level_set_invariants() {
    let (mut rng, n) = cases("level-set");
    for _ in 0..n {
        let voh = rng.range_i32(-500..500);
        let swing = rng.range_i32(2..2_000);
        let levels =
            LevelSet::new(pstime::Millivolts::new(voh), pstime::Millivolts::new(voh - swing));
        assert_eq!(levels.swing().as_mv(), swing, "voh={voh} swing={swing}");
        let mid = levels.mid();
        assert!(mid > levels.vol() && mid < levels.voh());
        assert!((levels.voh() - mid) - (mid - levels.vol()) <= pstime::Millivolts::new(1));
        // with_swing preserves the midpoint to integer-mV quantization.
        let resized = levels.with_swing(pstime::Millivolts::new(swing.max(2) / 2 + 1));
        assert!(
            (resized.mid() - levels.mid()).abs() <= pstime::Millivolts::new(1),
            "voh={voh} swing={swing}"
        );
    }
}

/// `2·ln 4`: the 20–80 % transition time per logistic τ, as the library
/// converts an [`EdgeShape`]'s rise and fall times.
const T2080_PER_TAU: f64 = 2.772588722239781;

/// The original O(n) evaluator, kept here only as an oracle: every edge
/// before the influence window adds its full ±swing step, then each edge
/// inside the window adds its logistic term.
fn full_sum_value_at(w: &AnalogWaveform, rise_ps: f64, fall_ps: f64, t: Instant) -> f64 {
    let rise_tau = rise_ps * 1_000.0 / T2080_PER_TAU;
    let fall_tau = fall_ps * 1_000.0 / T2080_PER_TAU;
    let levels = w.levels();
    let swing = levels.swing().as_f64();
    let base =
        if w.digital().initial_level() { levels.voh().as_f64() } else { levels.vol().as_f64() };
    let edges = w.digital().edges();
    if edges.is_empty() {
        return base;
    }
    let win = Duration::from_fs((rise_tau.max(fall_tau) * 20.0).ceil() as i64);
    let lo_idx = edges.partition_point(|e| e.at < t - win);
    let mut v = base;
    for e in &edges[..lo_idx] {
        v += e.polarity.sign() * swing;
    }
    for e in &edges[lo_idx..] {
        let dt = (t - e.at).as_fs() as f64;
        if dt < -win.as_fs() as f64 {
            break;
        }
        let tau = match e.polarity {
            EdgePolarity::Rising => rise_tau,
            EdgePolarity::Falling => fall_tau,
        };
        let x = dt / tau;
        let logistic = if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        };
        v += e.polarity.sign() * swing * logistic;
    }
    v
}

#[test]
fn cursor_and_random_access_match_the_full_sum_bit_for_bit() {
    let (mut rng, n) = cases("evaluator-oracle");
    for case in 0..n {
        let rate = DataRate::from_gbps([1.0, 2.5, 5.0][rng.range_usize(0..3)]);
        let rise = rng.range_f64(20.0, 150.0);
        let fall = rng.range_f64(20.0, 150.0);
        let start = Instant::from_ps(rng.range_i64(-2_000..2_000));
        let digital = if case % 8 == 0 {
            // No edges at all: the value is the initial level everywhere.
            DigitalWaveform::constant(rng.bool(), start, start + Duration::from_ps(5_000))
        } else {
            let bits = random_bits(&mut rng, 256);
            let jitter = JitterBudget::new()
                .with_rj_rms_ps(rng.range_f64(0.0, 15.0))
                .with_dcd_ps(rng.range_f64(0.0, 30.0));
            DigitalWaveform::from_bits_at(start, &bits, rate, &jitter, rng.next_u64())
        };
        let levels = LevelSet::pecl().with_swing(Millivolts::new(rng.range_i32(100..1_200)));
        let wave =
            AnalogWaveform::new(digital, levels, EdgeShape::from_rise_fall_2080_ps(rise, fall));

        // Mostly forward strobe steps with occasional steps back (aperture
        // jitter) and far jumps, from well before start() to past end().
        let lo = wave.digital().start() - Duration::from_ps(3_000);
        let hi = wave.digital().end() + Duration::from_ps(3_000);
        let mut cursor = wave.cursor();
        let mut t = lo;
        for _ in 0..400 {
            t = if rng.range_u32(0..20) == 0 {
                lo + Duration::from_fs(rng.range_i64(0..(hi - lo).as_fs()))
            } else {
                t + Duration::from_fs(rng.range_i64(-40_000..150_000))
            };
            let oracle = full_sum_value_at(&wave, rise, fall, t).to_bits();
            assert_eq!(wave.value_at(t).to_bits(), oracle, "value_at, case {case} at {t}");
            assert_eq!(cursor.value_at(t).to_bits(), oracle, "cursor, case {case} at {t}");
        }
    }
}

#[test]
fn decide_agrees_with_every_sampled_instant_and_noise() {
    let (mut rng, n) = cases("decide-oracle");
    for case in 0..n {
        let rate = DataRate::from_gbps([1.0, 2.5, 5.0][rng.range_usize(0..3)]);
        let rise = rng.range_f64(20.0, 150.0);
        let fall = if case % 2 == 0 { rise } else { rng.range_f64(20.0, 150.0) };
        let start = Instant::from_ps(rng.range_i64(-2_000..2_000));
        let digital = if case % 8 == 0 {
            DigitalWaveform::constant(rng.bool(), start, start + Duration::from_ps(5_000))
        } else {
            let bits = random_bits(&mut rng, 128);
            let jitter = JitterBudget::new()
                .with_rj_rms_ps(rng.range_f64(0.0, 15.0))
                .with_dcd_ps(rng.range_f64(0.0, 30.0));
            DigitalWaveform::from_bits_at(start, &bits, rate, &jitter, rng.next_u64())
        };
        let levels = LevelSet::pecl().with_swing(Millivolts::new(rng.range_i32(100..1_200)));
        let wave =
            AnalogWaveform::new(digital, levels, EdgeShape::from_rise_fall_2080_ps(rise, fall));
        // Spans start anywhere from well before start() to past end(), so
        // some straddle the influence window's border and the ends.
        let lo = wave.digital().start() - Duration::from_ps(3_000);
        let hi = wave.digital().end() + Duration::from_ps(3_000);
        let mut cursor = wave.cursor();
        let mut decided = 0;
        for span in 0..120 {
            let ta = lo + Duration::from_fs(rng.range_i64(0..(hi - lo).as_fs()));
            let tb = ta + Duration::from_fs(rng.range_i64(0..[1, 40_000, 400_000][span % 3]));
            let instants: Vec<Instant> = [ta, tb]
                .into_iter()
                .chain(
                    (0..6).map(|_| ta + Duration::from_fs(rng.range_i64(0..(tb - ta).as_fs() + 1))),
                )
                .collect();
            let values: Vec<f64> = instants.iter().map(|t| wave.value_at(*t)).collect();
            let margin = [0.0, 8.0 * rng.range_f64(0.0, 4.0), 1e-9][span % 3];
            // Thresholds exactly at sampled values (the ties), just off
            // them, at and beyond the rails.
            let v = values[rng.range_usize(0..values.len())];
            let (vol, voh) = (levels.vol().as_f64(), levels.voh().as_f64());
            for threshold in [
                v,
                v + margin,
                v - margin,
                f64::from_bits(v.to_bits() + 1),
                vol,
                voh,
                vol - 50.0,
                voh + 50.0,
                rng.range_f64(vol - 20.0, voh + 20.0),
            ] {
                let Some(bit) = cursor.decide(ta, tb, threshold, margin) else {
                    continue;
                };
                decided += 1;
                for (t, value) in instants.iter().zip(&values) {
                    for noise in [-margin, 0.0, margin] {
                        assert_eq!(
                            value + noise >= threshold,
                            bit,
                            "case {case}: decide({ta}, {tb}, {threshold}, {margin}) at {t}"
                        );
                    }
                }
            }
        }
        assert!(decided > 0, "case {case}: decide never answered");
    }
}

#[test]
fn bound_contains_every_sampled_instant() {
    let (mut rng, n) = cases("bound-oracle");
    for case in 0..n {
        let rate = DataRate::from_gbps([1.0, 2.5, 5.0][rng.range_usize(0..3)]);
        let rise = rng.range_f64(20.0, 150.0);
        let fall = if case % 2 == 0 { rise } else { rng.range_f64(20.0, 150.0) };
        let start = Instant::from_ps(rng.range_i64(-2_000..2_000));
        let digital = if case % 8 == 0 {
            DigitalWaveform::constant(rng.bool(), start, start + Duration::from_ps(5_000))
        } else {
            let bits = random_bits(&mut rng, 128);
            let jitter = JitterBudget::new()
                .with_rj_rms_ps(rng.range_f64(0.0, 15.0))
                .with_dcd_ps(rng.range_f64(0.0, 30.0));
            DigitalWaveform::from_bits_at(start, &bits, rate, &jitter, rng.next_u64())
        };
        let levels = LevelSet::pecl().with_swing(Millivolts::new(rng.range_i32(100..1_200)));
        let wave =
            AnalogWaveform::new(digital, levels, EdgeShape::from_rise_fall_2080_ps(rise, fall));
        let lo = wave.digital().start() - Duration::from_ps(3_000);
        let hi = wave.digital().end() + Duration::from_ps(3_000);
        let mut cursor = wave.cursor();
        for span in 0..120 {
            let ta = lo + Duration::from_fs(rng.range_i64(0..(hi - lo).as_fs()));
            let tb = ta + Duration::from_fs(rng.range_i64(0..[1, 40_000, 400_000][span % 3]));
            let (low, high) = cursor.bound(ta, tb);
            assert!(low <= high, "case {case}: bound({ta}, {tb}) = ({low}, {high})");
            for t in [ta, tb].into_iter().chain(
                (0..8).map(|_| ta + Duration::from_fs(rng.range_i64(0..(tb - ta).as_fs() + 1))),
            ) {
                let v = wave.value_at(t);
                assert!(
                    low <= v && v <= high,
                    "case {case}: value_at({t}) = {v} outside bound({ta}, {tb}) = ({low}, {high})"
                );
            }
        }
    }
}

#[test]
fn decide_answers_most_mid_bit_strobes_of_a_prbs() {
    let mut rng = SeedTree::new(0x51634).stream("signal.proptests").stream("decide-rate").rng();
    let rate = DataRate::from_gbps(2.5);
    let bits = BitStream::from_fn(2_048, |_| rng.bool());
    let jitter = JitterBudget::new().with_rj_rms_ps(2.0);
    let wave = AnalogWaveform::new(
        DigitalWaveform::from_bits(&bits, rate, &jitter, 3),
        LevelSet::pecl(),
        EdgeShape::default(),
    );
    let ui = rate.unit_interval();
    // ±4 ps: a 2 ps aperture deviate of up to two sigma.
    let slack = Duration::from_ps(4);
    for threshold in [-1650.0, -1300.0, -950.0] {
        let mut cursor = wave.cursor();
        let answered = (0..bits.len())
            .filter(|i| {
                let strobe = wave.digital().start() + ui * *i as i64 + ui / 2;
                cursor.decide(strobe - slack, strobe + slack, threshold, 8.0).is_some()
            })
            .count();
        assert!(
            answered * 10 >= bits.len() * 9,
            "threshold {threshold}: decided {answered} of {} mid-bit strobes",
            bits.len()
        );
    }
}
