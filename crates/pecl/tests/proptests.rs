//! Property-based tests for the PECL front end: mux trees, delay verniers,
//! DACs, and the sampler.
//!
//! Cases are drawn from named substreams of the first-party `rng` crate, so
//! every run covers the same randomized slice of the input space
//! deterministically.

use pecl::levels::LevelKnob;
use pecl::{Mux2, MuxTree, ProgrammableDelayLine, VoltageTuningDac};
use pstime::{DataRate, Duration, Millivolts};
use rng::{Rng, SeedTree};
use signal::BitStream;

const CASES: usize = 48;

fn cases(label: &str) -> (Rng, usize) {
    (SeedTree::new(0x9ec1).stream("pecl.proptests").stream(label).rng(), CASES)
}

fn random_bits(rng: &mut Rng, min_len: usize, max_len: usize) -> BitStream {
    let len = rng.range_usize(min_len..max_len);
    BitStream::from_fn(len, |_| rng.bool())
}

#[test]
fn mux_tree_is_lossless_and_ordered() {
    let (mut rng, n) = cases("mux-tree");
    for _ in 0..n {
        let ways = 1usize << rng.range_u32(1..5);
        let lane_bits = rng.range_usize(1..32);
        let tree = MuxTree::new(ways).unwrap();
        let lanes: Vec<BitStream> =
            (0..ways).map(|_| BitStream::from_fn(lane_bits, |_| rng.bool())).collect();
        let serial = tree.serialize(&lanes).unwrap();
        assert_eq!(serial.len(), ways * lane_bits);
        // Bit k of the serial stream is lane (k % ways), bit (k / ways).
        for k in 0..serial.len() {
            assert_eq!(serial[k], lanes[k % ways][k / ways], "ways={ways} k={k}");
        }
    }
}

#[test]
fn two_stage_equals_tree_with_regrouped_lanes() {
    // 8:1 + 8:1 + 2:1 equals 16:1 on lanes reordered [0,8,1,9,...].
    let (mut rng, n) = cases("two-stage");
    for _ in 0..n {
        let lane_bits = rng.range_usize(1..16);
        let lanes: Vec<BitStream> =
            (0..16).map(|_| BitStream::from_fn(lane_bits, |_| rng.bool())).collect();
        let t8 = MuxTree::new(8).unwrap();
        let a = t8.serialize(&lanes[..8]).unwrap();
        let b = t8.serialize(&lanes[8..]).unwrap();
        let two_stage = Mux2::new().serialize(&a, &b).unwrap();

        let reordered: Vec<BitStream> =
            (0..16).map(|i| lanes[if i % 2 == 0 { i / 2 } else { 8 + i / 2 }].clone()).collect();
        assert_eq!(two_stage, BitStream::interleave(&reordered), "lane_bits={lane_bits}");
    }
}

#[test]
fn delay_line_is_monotone_and_accurate() {
    let (mut rng, n) = cases("delay-inl");
    let mut vernier = ProgrammableDelayLine::standard();
    for _ in 0..n {
        let code = rng.range_u32(0..1024);
        vernier.set_code(code).unwrap();
        let err = vernier.actual_delay() - vernier.nominal_delay();
        assert!(err.abs() <= Duration::from_ps(2), "INL {err} (code={code})");
    }
}

#[test]
fn delay_requests_quantize_within_half_step() {
    let (mut rng, n) = cases("delay-quantize");
    let mut vernier = ProgrammableDelayLine::standard();
    for _ in 0..n {
        let ps = rng.range_i64(0..10_240);
        let requested = Duration::from_ps(ps);
        vernier.set_delay(requested).unwrap();
        let err = (vernier.nominal_delay() - requested).abs();
        assert!(err <= Duration::from_ps(5), "quantization {err} (ps={ps})");
    }
}

#[test]
fn dac_codes_step_linearly() {
    for knob in [LevelKnob::High, LevelKnob::Low, LevelKnob::MidBias] {
        for code in 0u32..4 {
            let mut dac = VoltageTuningDac::new();
            dac.set_code(knob, code).unwrap();
            let levels = dac.levels();
            let expected_step = dac.step(knob) * code as i32;
            match knob {
                LevelKnob::High => {
                    assert_eq!(levels.voh(), Millivolts::new(-900) - expected_step)
                }
                LevelKnob::Low => {
                    assert_eq!(levels.vol(), Millivolts::new(-1700) + expected_step)
                }
                LevelKnob::MidBias => {
                    assert_eq!(levels.mid(), Millivolts::new(-1300) - expected_step)
                }
                LevelKnob::Swing => unreachable!(),
            }
            // Levels always stay ordered.
            assert!(levels.voh() > levels.vol());
        }
    }
}

#[test]
fn chain_render_is_seed_deterministic() {
    let (mut rng, n) = cases("chain-deterministic");
    let chain = pecl::SignalChain::testbed_transmitter();
    for _ in 0..n.min(16) {
        let stream = random_bits(&mut rng, 8, 128);
        let seed = rng.next_u64();
        let rate = DataRate::from_gbps(2.5);
        let a = chain.render(&stream, rate, seed).unwrap();
        let b = chain.render(&stream, rate, seed).unwrap();
        assert_eq!(a.digital(), b.digital(), "seed={seed}");
    }
}

#[test]
fn sampler_recovers_clean_data_at_any_sane_threshold() {
    use signal::jitter::NoJitter;
    use signal::{AnalogWaveform, DigitalWaveform, EdgeShape, LevelSet};
    let (mut rng, n) = cases("sampler-threshold");
    for _ in 0..n {
        let stream = random_bits(&mut rng, 8, 64);
        let threshold_mv = rng.range_i32(-1600..-1000);
        let rate = DataRate::from_gbps(1.0); // slow: fully settled mid-bit
        let wave = AnalogWaveform::new(
            DigitalWaveform::from_bits(&stream, rate, &NoJitter, 0),
            LevelSet::pecl(),
            EdgeShape::from_rise_2080_ps(72.0),
        );
        let sampler = pecl::StrobedSampler::new(Millivolts::new(threshold_mv), Duration::ZERO);
        let row = (rate.unit_interval() / 2, sampler.threshold(), 0);
        let errors = sampler.capture_errors(&wave, rate, &stream, &[row], stream.len());
        assert_eq!(errors, [0], "threshold={threshold_mv}");
    }
}

/// The per-strobe capture loop as it stood before strobes were decided
/// from a bound on the waveform, kept here only as an oracle: draw the
/// aperture deviate, move the strobe, evaluate the waveform there and
/// slice it.
fn per_strobe_capture(
    sampler: &pecl::StrobedSampler,
    wave: &signal::AnalogWaveform,
    rate: DataRate,
    phase: Duration,
    n: usize,
    seed: u64,
) -> BitStream {
    let ui = rate.unit_interval();
    let start = wave.digital().start();
    let mut rng = SeedTree::new(seed).derive(pecl::sampler::SAMPLER_STREAM).rng();
    let threshold = (sampler.threshold() + sampler.input_offset()).as_f64();
    let sigma_fs = sampler.aperture_rj().as_fs() as f64;
    BitStream::from_fn(n, |i| {
        let strobe = start + ui * i as i64 + phase;
        let t = if sampler.aperture_rj().is_zero() {
            strobe
        } else {
            strobe + Duration::from_fs((rng.gaussian() * sigma_fs).round() as i64)
        };
        wave.value_at(t) >= threshold
    })
}

/// One `StrobedSampler::capture_errors` row against the oracle, bit for
/// bit: it counts 0 errors against the oracle's bits and every bit against
/// their complement, at apertures of 0, 2 and 20 ps and thresholds inside,
/// on and beyond the rails.
#[test]
fn capture_matches_the_per_strobe_loop_bit_for_bit() {
    use signal::jitter::JitterBudget;
    use signal::{AnalogWaveform, DigitalWaveform, EdgeShape, LevelSet};
    let (mut rng, n) = cases("sampler-oracle");
    for case in 0..n {
        let rate = DataRate::from_gbps([1.0, 2.5, 5.0][rng.range_usize(0..3)]);
        let stream = random_bits(&mut rng, 16, 300);
        let jitter = JitterBudget::new()
            .with_rj_rms_ps(rng.range_f64(0.0, 12.0))
            .with_dcd_ps(rng.range_f64(0.0, 25.0));
        let levels = LevelSet::pecl().with_swing(Millivolts::new(rng.range_i32(150..1_000)));
        let shape = EdgeShape::from_rise_fall_2080_ps(
            rng.range_f64(30.0, 140.0),
            rng.range_f64(30.0, 140.0),
        );
        let wave = AnalogWaveform::new(
            DigitalWaveform::from_bits(&stream, rate, &jitter, rng.next_u64()),
            levels,
            shape,
        );
        let (vol, voh) = (levels.vol().as_mv(), levels.voh().as_mv());
        let thresholds = [
            vol + 50,
            levels.mid().as_mv(),
            voh - 50,
            vol - 100,
            voh + 100,
            rng.range_i32(vol..voh),
        ];
        // Strobes from before the first bit's centre to past the last bit.
        let phase = Duration::from_fs(rng.range_i64(-200_000..rate.unit_interval().as_fs()));
        let bits = stream.len() + rng.range_usize(0..3);
        for aperture_ps in [0, 2, 20] {
            for threshold in thresholds {
                let mut sampler = pecl::StrobedSampler::new(
                    Millivolts::new(threshold),
                    Duration::from_ps(aperture_ps),
                );
                if case % 4 == 1 {
                    sampler.set_input_offset(Millivolts::new(rng.range_i32(-30..30)));
                }
                let seed = rng.next_u64();
                let oracle = per_strobe_capture(&sampler, &wave, rate, phase, bits, seed);
                let complement = BitStream::from_fn(bits, |i| !oracle[i]);
                let row = [(phase, sampler.threshold(), seed)];
                let what =
                    format!("case {case}: aperture {aperture_ps} ps, threshold {threshold} mV");
                assert_eq!(sampler.capture_errors(&wave, rate, &oracle, &row, bits), [0], "{what}");
                assert_eq!(
                    sampler.capture_errors(&wave, rate, &complement, &row, bits),
                    [bits],
                    "{what} against the complement"
                );
            }
        }
    }
}

/// `StrobedSampler::capture_errors` against the oracle, row by row. Each
/// case strobes a random waveform with up to 40 rows: one column (a
/// shmoo's), a vernier ladder with INL in order or shuffled, or a few
/// phases each repeated in any order, at thresholds inside, on and beyond
/// the rails. Two checks:
/// - with `expected` set to a row's own oracle bits and a cap of 1, that
///   row counts 0, and every other row passes exactly when its oracle
///   bits match those;
/// - with a perturbed `expected`, every row counts `min(hamming, cap)`
///   for a cap of 1 (0 exactly when the row's capture has no mismatch),
///   a middle value and `expected.len()`.
#[test]
fn capture_passes_matches_a_zero_mismatch_check_of_each_rows_capture() {
    use signal::jitter::JitterBudget;
    use signal::{AnalogWaveform, DigitalWaveform, EdgeShape, LevelSet};
    let (mut rng, n) = cases("sampler-rows");
    let (mut clean, mut counted, mut capped) = (0, 0, 0);
    for case in 0..n {
        let rate = DataRate::from_gbps(rng.range_f64(1.0, 6.0));
        let stream = random_bits(&mut rng, 16, 300);
        let jitter = JitterBudget::new()
            .with_rj_rms_ps(rng.range_f64(0.0, 12.0))
            .with_dcd_ps(rng.range_f64(0.0, 25.0));
        let levels = LevelSet::pecl().with_swing(Millivolts::new(rng.range_i32(150..1_000)));
        let rise = rng.range_f64(30.0, 140.0);
        let fall = if case % 2 == 0 { rise } else { rng.range_f64(30.0, 140.0) };
        let wave = AnalogWaveform::new(
            DigitalWaveform::from_bits(&stream, rate, &jitter, rng.next_u64()),
            levels,
            EdgeShape::from_rise_fall_2080_ps(rise, fall),
        );
        // Sometimes a few bits past the end of the stimulus.
        let bits = stream.len() + if case % 5 == 2 { rng.range_usize(1..4) } else { 0 };
        let (vol, voh) = (levels.vol().as_mv(), levels.voh().as_mv());
        let ui = rate.unit_interval().as_fs();
        let count = rng.range_usize(1..41);
        // Strobe phases, from before the first bit's centre to past one UI.
        let start = rng.range_i64(-200_000..ui);
        let mut phases: Vec<i64> = match case % 4 {
            0 => vec![start; count],
            1 | 2 => (0i64..)
                .take(count)
                .map(|k| start + 10_000 * k + rng.range_i64(-2_000..2_000))
                .collect(),
            _ => {
                let distinct: Vec<i64> =
                    (0..rng.range_usize(2..5)).map(|_| rng.range_i64(-200_000..2 * ui)).collect();
                (0..count).map(|_| distinct[rng.range_usize(0..distinct.len())]).collect()
            }
        };
        if case % 4 == 2 {
            for k in (1..phases.len()).rev() {
                phases.swap(k, rng.range_usize(0..k + 1));
            }
        }
        let rows: Vec<(Duration, Millivolts, u64)> = phases
            .iter()
            .enumerate()
            .map(|(r, &phase)| {
                let threshold = match r % 4 {
                    0 => rng.range_i32(vol..voh),
                    1 => levels.mid().as_mv() + rng.range_i32(-40..40),
                    2 => [vol - 100, voh + 100, vol, voh][rng.range_usize(0..4)],
                    _ => rng.range_i32(vol - 200..voh + 200),
                };
                (Duration::from_fs(phase), Millivolts::new(threshold), rng.next_u64())
            })
            .collect();
        // Every layout meets every aperture, with and without an offset.
        let aperture = Duration::from_ps([0, 2, 7, 20][(case / 4) % 4]);
        let mut sampler = pecl::StrobedSampler::new(Millivolts::new(-1300), aperture);
        if (case / 16) % 2 == 1 {
            sampler.set_input_offset(Millivolts::new(rng.range_i32(-30..30)));
        }
        let oracle: Vec<BitStream> = rows
            .iter()
            .map(|&(phase, threshold, seed)| {
                let mut row_sampler = sampler.clone();
                row_sampler.set_threshold(threshold);
                per_strobe_capture(&row_sampler, &wave, rate, phase, bits, seed)
            })
            .collect();
        let what = |r: usize| format!("case {case} row {r}: {:?}", rows[r]);
        // Bit for bit: each row's own bits leave it no error.
        for (r, own) in oracle.iter().enumerate() {
            let got = sampler.capture_errors(&wave, rate, own, &rows, 1);
            assert_eq!(got.len(), rows.len());
            for (s, theirs) in oracle.iter().enumerate() {
                let want = theirs.hamming_distance(own).0.min(1);
                assert_eq!(got[s], want, "{} against row {r}'s bits", what(s));
            }
        }
        // Counts: the stimulus with a few bits flipped, so rows pass, count
        // a few errors, and reach a middle cap.
        let flips: Vec<usize> =
            (0..rng.range_usize(0..4)).map(|_| rng.range_usize(0..bits)).collect();
        let expected = BitStream::from_fn(bits, |i| {
            let bit = if i < stream.len() { stream[i] } else { rng.bool() };
            bit ^ flips.contains(&i)
        });
        let middle = rng.range_usize(2..bits);
        for cap in [1, middle, bits] {
            let got = sampler.capture_errors(&wave, rate, &expected, &rows, cap);
            for (r, theirs) in oracle.iter().enumerate() {
                let errors = theirs.hamming_distance(&expected).0;
                assert_eq!(got[r], errors.min(cap), "{} with cap {cap}", what(r));
                if cap == middle {
                    match errors {
                        0 => clean += 1,
                        e if e < cap => counted += 1,
                        _ => capped += 1,
                    }
                }
            }
        }
    }
    assert!(
        clean > 0 && counted > 0 && capped > 0,
        "{clean} rows clean, {counted} counted below a middle cap, {capped} reached it"
    );
}
