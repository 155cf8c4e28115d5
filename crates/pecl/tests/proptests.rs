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
        let captured = sampler.capture(&wave, rate, rate.unit_interval() / 2, stream.len(), 0);
        assert_eq!(captured, stream, "threshold={threshold_mv}");
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
                assert_eq!(
                    sampler.capture(&wave, rate, phase, bits, seed),
                    per_strobe_capture(&sampler, &wave, rate, phase, bits, seed),
                    "case {case}: aperture {aperture_ps} ps, threshold {threshold} mV"
                );
            }
        }
    }
}

#[test]
fn capture_passes_matches_a_zero_mismatch_check_of_each_rows_capture() {
    use signal::jitter::JitterBudget;
    use signal::{AnalogWaveform, DigitalWaveform, EdgeShape, LevelSet};
    let (mut rng, n) = cases("sampler-rows");
    let (mut passed, mut failed) = (0, 0);
    for case in 0..n {
        let rate = DataRate::from_gbps(rng.range_f64(1.0, 6.0));
        let stream = random_bits(&mut rng, 16, 300);
        let jitter = JitterBudget::new()
            .with_rj_rms_ps(rng.range_f64(0.0, 8.0))
            .with_dcd_ps(rng.range_f64(0.0, 20.0));
        let levels = LevelSet::pecl().with_swing(Millivolts::new(rng.range_i32(150..1_000)));
        let rise = rng.range_f64(30.0, 140.0);
        let fall = if case % 2 == 0 { rise } else { rng.range_f64(30.0, 140.0) };
        let wave = AnalogWaveform::new(
            DigitalWaveform::from_bits(&stream, rate, &jitter, rng.next_u64()),
            levels,
            EdgeShape::from_rise_fall_2080_ps(rise, fall),
        );
        // Mostly the bits the stimulus carries, so rows pass as well as
        // fail; sometimes with one bit flipped, or a few bits past the end.
        let mut expected = stream.clone();
        if case % 3 == 1 {
            let flip = rng.range_usize(0..expected.len());
            expected = BitStream::from_fn(expected.len(), |i| expected[i] ^ (i == flip));
        }
        if case % 5 == 2 {
            expected = expected.concat(&BitStream::from_fn(rng.range_usize(1..4), |_| rng.bool()));
        }
        let (vol, voh) = (levels.vol().as_mv(), levels.voh().as_mv());
        let ui = rate.unit_interval().as_fs();
        let count = rng.range_usize(1..41);
        // Strobe phases, from before the first bit's centre to past one
        // UI: one column (a shmoo's), a vernier ladder with INL in order
        // or shuffled, or a few phases each repeated in any order.
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
        let aperture = Duration::from_ps([0, 2, 7][(case / 4) % 3]);
        let mut sampler = pecl::StrobedSampler::new(Millivolts::new(-1300), aperture);
        if (case / 12) % 2 == 1 {
            sampler.set_input_offset(Millivolts::new(rng.range_i32(-30..30)));
        }
        let got = sampler.capture_passes(&wave, rate, &expected, &rows);
        assert_eq!(got.len(), rows.len());
        for (r, (&(phase, threshold, seed), pass)) in rows.iter().zip(&got).enumerate() {
            let mut row_sampler = sampler.clone();
            row_sampler.set_threshold(threshold);
            let captured = row_sampler.capture(&wave, rate, phase, expected.len(), seed);
            let (errors, _) = captured.hamming_distance(&expected);
            assert_eq!(
                *pass,
                errors == 0,
                "case {case} row {r}: phase {phase}, threshold {threshold}"
            );
            if *pass {
                passed += 1;
            } else {
                failed += 1;
            }
        }
    }
    assert!(passed > 0 && failed > 0, "{passed} rows passed and {failed} failed");
}
