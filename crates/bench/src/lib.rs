//! # gigatest-bench — experiment harness reproducing every paper figure
//!
//! One function per figure/table of Keezer et al. (DATE 2005). Each runs
//! the corresponding experiment on the simulated system and returns
//! [`ate::Report`] rows comparing the paper's number with this
//! reproduction's measurement. The `figures` binary prints the full report.
//!
//! The paper has no numbered tables — its evaluation is Figures 4 and 6–19
//! plus the summary claims — so the experiment ids are figure numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ate::calibration::{placement_audit, worst_placement_error};
use ate::cost::CostComparison;
use ate::measurement::{Comparison, PaperValue, Report};
use ate::{AteError, TestProgram, TestSystem};
use minitester::{MiniTesterDatapath, ProbeArray};
use pecl::SignalChain;
use pstime::{DataRate, Duration};
use rng::SeedTree;
use signal::measure::{
    edge_jitter_from_acquisitions, measure_levels, measure_transition, transition_time_stats,
};
use signal::{BitStream, EyeDiagram};
use testbed::frame::SlotTiming;
use testbed::scaling::ScalingPoint;
use vortex::traffic::{run_load, Pattern};
use vortex::VortexParams;

/// Number of PRBS bits used for eye experiments (enough edges for stable
/// p-p statistics, small enough to keep the harness fast).
pub const EYE_BITS: usize = 4_096;

/// Fig. 4 — the packet-slot timing structure: every segment duration the
/// figure annotates, checked against the generated frame.
///
/// # Errors
///
/// Currently infallible; returns `Result` for a uniform figure API.
pub fn fig04_packet_slot() -> Result<Report, AteError> {
    let t = SlotTiming::paper();
    let mut report = Report::new();
    let mut row = |quantity: &str, paper_ns: f64, measured: Duration| {
        report.push(Comparison::new(
            "FIG4",
            quantity,
            "ns",
            PaperValue::new(paper_ns, 0.0),
            measured.as_ns_f64(),
        ));
    };
    row("packet slot (64 bits)", 25.6, t.slot_duration());
    row("dead time (8 bits)", 3.2, t.dead_duration());
    row("guard time (5 bits)", 2.0, t.guard_duration());
    row("valid data (32 bits)", 12.8, t.data_duration());
    row("clock/data window (46 bits)", 18.4, t.window_duration());
    Ok(report)
}

/// Fig. 6 — 2.5 Gbps transmitter signals with 70–75 ps transitions.
///
/// # Errors
///
/// Propagates rate-limit errors from the PECL chain.
pub fn fig06_tx_waveforms(seed: u64) -> Result<Report, AteError> {
    let chain = SignalChain::testbed_transmitter();
    let rate = DataRate::from_gbps(2.5);
    // Four 32-bit words serialized, as in the figure.
    let words = [0xDEAD_BEEFu32, 0x0123_4567, 0x8BAD_F00D, 0x5555_AAAA];
    let mut rise_all = signal::RunningStats::new();
    let mut fall_all = signal::RunningStats::new();
    let tree = SeedTree::new(seed).stream("bench.fig06");
    for (i, w) in words.iter().enumerate() {
        let bits = BitStream::from_word_msb_first(u64::from(*w), 32);
        let wave = chain.render(&bits, rate, tree.index(i as u64).seed())?;
        if let Ok((rise, fall)) = transition_time_stats(&wave, rate) {
            rise_all.merge(&rise);
            fall_all.merge(&fall);
        }
    }
    let mut report = Report::new();
    report.push(Comparison::new(
        "FIG6",
        "rise time 20-80%",
        "ps",
        PaperValue::new(72.5, 0.07), // "70 to 75 ps"
        rise_all.mean(),
    ));
    report.push(Comparison::new(
        "FIG6",
        "fall time 20-80%",
        "ps",
        PaperValue::new(72.5, 0.07),
        fall_all.mean(),
    ));
    Ok(report)
}

fn eye_experiment(
    id: &str,
    system: &mut TestSystem,
    gbps: f64,
    paper_jitter_pp: Option<f64>,
    paper_opening: f64,
    seed: u64,
) -> Result<Report, AteError> {
    let rate = DataRate::from_gbps(gbps);
    let result = system.run(&TestProgram::prbs_eye(rate, EYE_BITS), seed)?;
    let mut report = Report::new();
    if let Some(pp) = paper_jitter_pp {
        report.push(Comparison::new(
            id,
            "jitter p-p at crossover",
            "ps",
            PaperValue::new(pp, 0.15),
            result.eye.jitter_pp().as_ps_f64(),
        ));
    }
    report.push(Comparison::new(
        id,
        "eye opening",
        "UI",
        PaperValue::new(paper_opening, 0.06),
        result.eye.opening_ui().value(),
    ));
    Ok(report)
}

/// Fig. 7 — 2.5 Gbps PRBS eye: 46.7 ps p-p jitter, 0.88 UI opening.
///
/// # Errors
///
/// Propagates system-boot and eye-program errors.
pub fn fig07_eye_2g5(seed: u64) -> Result<Report, AteError> {
    let mut system = TestSystem::optical_testbed()?;
    eye_experiment("FIG7", &mut system, 2.5, Some(46.7), 0.88, seed)
}

/// Fig. 8 — 4.0 Gbps PRBS eye: 47.2 ps p-p jitter, 0.81 UI opening.
///
/// # Errors
///
/// Propagates system-boot and eye-program errors.
pub fn fig08_eye_4g0(seed: u64) -> Result<Report, AteError> {
    let mut system = TestSystem::optical_testbed()?;
    eye_experiment("FIG8", &mut system, 4.0, Some(47.2), 0.81, seed)
}

/// Fig. 9 — single-edge jitter: 24 ps p-p, 3.2 ps rms over repeated
/// acquisitions (no data-dependent effects).
///
/// Each acquisition renders an independently seeded edge, so the loop fans
/// out over `pool` with bit-identical results for every thread count.
///
/// # Errors
///
/// Propagates render, edge-measurement, and execution errors.
pub fn fig09_edge_jitter(
    acquisitions: usize,
    seed: u64,
    pool: &exec::ExecPool,
) -> Result<Report, AteError> {
    let chain = SignalChain::testbed_transmitter();
    let rate = DataRate::from_gbps(2.5);
    let bits = BitStream::from_str_bits("1100");
    let tree = SeedTree::new(seed).stream("bench.fig09");
    let outcome = pool.run(acquisitions, |i| -> Result<pstime::Instant, AteError> {
        let wave = chain.render(&bits, rate, tree.index(i as u64).seed())?;
        Ok(measure_transition(&wave, 0, rate)?.mid_crossing)
    })?;
    let times: Vec<pstime::Instant> = outcome.results.into_iter().collect::<Result<_, _>>()?;
    let m = edge_jitter_from_acquisitions(times, 64)?;
    let mut report = Report::new();
    report.push(Comparison::new(
        "FIG9",
        "single-edge jitter p-p",
        "ps",
        PaperValue::new(24.0, 0.25),
        m.peak_to_peak().as_ps_f64(),
    ));
    report.push(Comparison::new(
        "FIG9",
        "single-edge jitter rms",
        "ps",
        PaperValue::new(3.2, 0.15),
        m.rms().as_ps_f64(),
    ));
    Ok(report)
}

/// Figs. 10–11 — programmable output levels: VOH in 100 mV steps at
/// 1.25 Gbps; amplitude swing in 200 mV steps at 2.5 Gbps.
///
/// # Errors
///
/// Propagates DAC-sweep, render, and level-measurement errors.
pub fn fig10_fig11_levels(seed: u64) -> Result<Report, AteError> {
    use pecl::levels::LevelKnob;
    use pecl::VoltageTuningDac;

    let mut report = Report::new();
    let chain = SignalChain::testbed_transmitter();
    let dac = VoltageTuningDac::new();

    // Fig. 10: four VOH codes at 1.25 Gbps.
    let rate = DataRate::from_gbps(1.25);
    let bits = BitStream::alternating(256);
    let tree_voh = SeedTree::new(seed).stream("bench.fig10.voh");
    for (code, levels) in dac.sweep(LevelKnob::High, 4)?.iter().enumerate() {
        let mut chain = chain.clone();
        chain.set_levels(*levels);
        let wave = chain.render(&bits, rate, tree_voh.index(code as u64).seed())?;
        let m = measure_levels(&wave, rate)?;
        report.push(Comparison::new(
            "FIG10",
            format!("VOH at code {code}"),
            "mV",
            PaperValue::new(f64::from(-900 - 100 * code as i32), 0.02),
            m.voh_mv,
        ));
    }

    // Fig. 11: three swing codes at 2.5 Gbps.
    let rate = DataRate::from_gbps(2.5);
    let tree_swing = SeedTree::new(seed).stream("bench.fig11.swing");
    for (code, levels) in dac.sweep(LevelKnob::Swing, 3)?.iter().enumerate() {
        let mut chain = chain.clone();
        chain.set_levels(*levels);
        let wave = chain.render(&bits, rate, tree_swing.index(code as u64).seed())?;
        let m = measure_levels(&wave, rate)?;
        report.push(Comparison::new(
            "FIG11",
            format!("swing at code {code}"),
            "mV",
            PaperValue::new(f64::from(800 - 200 * code as i32), 0.04),
            m.swing_mv(),
        ));
    }
    Ok(report)
}

/// Fig. 13 — parallel multi-site probing: "increasing production
/// throughput by an order of magnitude".
///
/// # Errors
///
/// Currently infallible; returns `Result` for a uniform figure API.
pub fn fig13_parallel_probe() -> Result<Report, AteError> {
    let serial = ProbeArray::new(1);
    let array = ProbeArray::new(16);
    let speedup = array.throughput_speedup(&serial, 256);
    let mut report = Report::new();
    report.push(Comparison::new(
        "FIG13",
        "16-site throughput speedup",
        "x",
        PaperValue::new(16.0, 0.01),
        speedup,
    ));
    Ok(report)
}

fn mini_eye(
    id: &str,
    gbps: f64,
    paper_opening: f64,
    paper_jitter: Option<f64>,
    seed: u64,
) -> Result<Report, AteError> {
    let rate = DataRate::from_gbps(gbps);
    let mut path = MiniTesterDatapath::new()?;
    let pattern = path.prbs_pattern(rate, EYE_BITS)?;
    let wave = path.render(&pattern, seed)?;
    let eye = EyeDiagram::analyze(&wave, rate)?;
    let mut report = Report::new();
    if let Some(pp) = paper_jitter {
        report.push(Comparison::new(
            id,
            "jitter p-p at crossover",
            "ps",
            PaperValue::new(pp, 0.15),
            eye.jitter_pp().as_ps_f64(),
        ));
    }
    report.push(Comparison::new(
        id,
        "eye opening",
        "UI",
        PaperValue::new(paper_opening, 0.06),
        eye.opening_ui().value(),
    ));
    Ok(report)
}

/// Fig. 16 — mini-tester 1.0 Gbps eye: ~50 ps p-p jitter, ~0.95 UI.
///
/// # Errors
///
/// Propagates datapath and eye-analysis errors.
pub fn fig16_mini_eye_1g0(seed: u64) -> Result<Report, AteError> {
    mini_eye("FIG16", 1.0, 0.95, Some(50.0), seed)
}

/// Fig. 17 — mini-tester 2.5 Gbps eye: ~0.87 UI.
///
/// # Errors
///
/// Propagates datapath and eye-analysis errors.
pub fn fig17_mini_eye_2g5(seed: u64) -> Result<Report, AteError> {
    mini_eye("FIG17", 2.5, 0.87, None, seed)
}

/// Fig. 18 — 5.0 Gbps patterns: 120 ps 20–80 % rise and swing compression
/// relative to low rates.
///
/// # Errors
///
/// Propagates datapath and transition-measurement errors.
pub fn fig18_mini_5g_pattern(seed: u64) -> Result<Report, AteError> {
    let mut path = MiniTesterDatapath::new()?;
    let mut report = Report::new();
    let tree = SeedTree::new(seed).stream("bench.fig18");

    // Rise time on a pattern slow enough to settle.
    let rate_slow = DataRate::from_gbps(1.0);
    let pattern = path.explicit_pattern(&BitStream::from_str_bits("0011").repeat(64), rate_slow)?;
    let wave = path.render(&pattern, tree.channel(0).seed())?;
    let (rise, _) = transition_time_stats(&wave, rate_slow)?;
    report.push(Comparison::new(
        "FIG18",
        "I/O buffer rise 20-80%",
        "ps",
        PaperValue::new(120.0, 0.05),
        rise.mean(),
    ));

    // Swing compression at 5 Gbps: isolated-1 peak amplitude vs settled.
    let rate = DataRate::from_gbps(5.0);
    let pattern5 =
        path.explicit_pattern(&BitStream::from_str_bits("0000000100000000").repeat(16), rate)?;
    let wave5 = path.render(&pattern5, tree.channel(1).seed())?;
    let digital = wave5.digital();
    let (lo, hi) = wave5.range_over(digital.start(), digital.end(), Duration::from_ps(5));
    let peak_swing = hi - lo;
    let settled_swing = wave5.levels().swing().as_f64();
    report.push(Comparison::new(
        "FIG18",
        "isolated-1 swing ratio at 5 Gbps",
        "frac",
        // The figure shows visible amplitude limiting but quotes no
        // number; a logistic 120 ps edge at a 200 ps UI analytically peaks
        // at ~0.8 of full swing (2*L(UI/2tau) - 1 with tau = tr/2.77).
        PaperValue::new(0.80, 0.06),
        peak_swing / settled_swing,
    ));
    Ok(report)
}

/// Fig. 19 — mini-tester 5.0 Gbps eye: ~50 ps jitter, ~0.75 UI.
///
/// # Errors
///
/// Propagates datapath and eye-analysis errors.
pub fn fig19_mini_eye_5g0(seed: u64) -> Result<Report, AteError> {
    mini_eye("FIG19", 5.0, 0.75, Some(50.0), seed)
}

/// SUMMARY — ±25 ps timing accuracy and 10 ps placement resolution.
///
/// # Errors
///
/// Propagates placement-audit errors.
pub fn summary_timing_accuracy() -> Result<Report, AteError> {
    let points =
        placement_audit(Duration::from_ns(10), Duration::from_ps(137), &exec::ExecPool::serial())?;
    let worst = worst_placement_error(&points);
    let mut report = Report::new();
    // The paper claims a ±25 ps bound; our measured worst-case placement
    // error must sit inside it (tolerance 1.0 accepts anything ≤ 2x, and
    // the integration tests assert the hard bound).
    report.push(Comparison::new(
        "SUMMARY",
        "worst edge-placement error",
        "ps",
        PaperValue::new(25.0, 1.0),
        worst.as_ps_f64(),
    ));
    report.push(Comparison::new(
        "SUMMARY",
        "delay vernier step",
        "ps",
        PaperValue::new(10.0, 0.0),
        pecl::ProgrammableDelayLine::standard().step().as_ps_f64(),
    ));
    Ok(report)
}

/// DV — the Data Vortex under test-bed traffic: full delivery with virtual
/// buffering at moderate load (the behaviour reference \[4\] demonstrates).
///
/// # Errors
///
/// Currently infallible; returns `Result` for a uniform figure API.
pub fn datavortex_routing(seed: u64) -> Result<Report, AteError> {
    let stats = run_load(VortexParams::eight_node(), Pattern::UniformRandom, 0.4, 400, seed);
    let mut report = Report::new();
    report.push(Comparison::new(
        "FIG3/DV",
        "packet delivery ratio",
        "frac",
        PaperValue::new(1.0, 0.0),
        stats.delivery_ratio(),
    ));
    report.push(Comparison::new(
        "FIG3/DV",
        "min latency (cylinders)",
        "slots",
        PaperValue::new(3.0, 0.0),
        f64::from(u32::try_from(stats.latency.min()).unwrap_or(u32::MAX)),
    ));
    Ok(report)
}

/// EXT — the paper's end-goal scaling arithmetic: 64 λ × 10 Gbps ≈
/// "order of a Terabit-per-second".
///
/// # Errors
///
/// Currently infallible; returns `Result` for a uniform figure API.
pub fn ext_terabit_scaling() -> Result<Report, AteError> {
    let goal = ScalingPoint::end_goal();
    let mut report = Report::new();
    report.push(Comparison::new(
        "EXT",
        "aggregate at end goal",
        "Gbps",
        PaperValue::new(640.0, 0.0),
        goal.aggregate().as_gbps(),
    ));
    report.push(Comparison::new(
        "EXT",
        "payload-effective aggregate",
        "Gbps",
        PaperValue::new(320.0, 0.0),
        goal.effective(&SlotTiming::paper()).as_gbps(),
    ));
    Ok(report)
}

/// COST — "significantly lower in cost than conventional ATE": the BOM
/// comparison for both systems.
///
/// # Errors
///
/// Currently infallible; returns `Result` for a uniform figure API.
pub fn cost_comparison() -> Result<Report, AteError> {
    let testbed = CostComparison::optical_testbed();
    let mini = CostComparison::mini_tester();
    let mut report = Report::new();
    report.push(Comparison::new(
        "COST",
        "test-bed savings factor",
        "x",
        PaperValue::new(20.0, 0.5), // "significantly lower": order 10-30x
        testbed.savings_factor(),
    ));
    report.push(Comparison::new(
        "COST",
        "mini-tester savings factor",
        "x",
        PaperValue::new(6.0, 0.5),
        mini.savings_factor(),
    ));
    Ok(report)
}

/// Runs every experiment and aggregates one full report, in paper order.
///
/// # Errors
///
/// Propagates the first failure from any experiment.
pub fn full_report(seed: u64) -> Result<Report, AteError> {
    let mut report = Report::new();
    for part in [
        fig04_packet_slot()?,
        fig06_tx_waveforms(seed)?,
        fig07_eye_2g5(seed)?,
        fig08_eye_4g0(seed)?,
        fig09_edge_jitter(2_000, seed, &exec::ExecPool::from_env())?,
        fig10_fig11_levels(seed)?,
        fig13_parallel_probe()?,
        fig16_mini_eye_1g0(seed)?,
        fig17_mini_eye_2g5(seed)?,
        fig18_mini_5g_pattern(seed)?,
        fig19_mini_eye_5g0(seed)?,
        summary_timing_accuracy()?,
        datavortex_routing(seed)?,
        ext_terabit_scaling()?,
        cost_comparison()?,
    ] {
        report.extend(part.rows().iter().cloned());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_is_exact() {
        let r = fig04_packet_slot().expect("experiment runs");
        assert_eq!(r.rows().len(), 5);
        assert!(r.all_within_tolerance(), "{r}");
    }

    #[test]
    fn fig13_and_ext_and_cost_are_exact() {
        assert!(fig13_parallel_probe().expect("experiment runs").all_within_tolerance());
        assert!(ext_terabit_scaling().expect("experiment runs").all_within_tolerance());
        assert!(cost_comparison().expect("experiment runs").all_within_tolerance());
    }

    #[test]
    fn summary_meets_bound() {
        let r = summary_timing_accuracy().expect("audit runs");
        assert!(r.all_within_tolerance(), "{r}");
        // Hard bound: measured worst error actually under 25 ps.
        assert!(r.rows()[0].measured <= 25.0);
    }

    #[test]
    fn eye_experiments_within_tolerance() {
        assert!(fig07_eye_2g5(11).expect("runs").all_within_tolerance());
        assert!(fig16_mini_eye_1g0(11).expect("runs").all_within_tolerance());
    }

    #[test]
    fn vortex_experiment() {
        let r = datavortex_routing(5).expect("experiment runs");
        assert!(r.all_within_tolerance(), "{r}");
    }

    #[test]
    fn fig09_is_thread_count_invariant() {
        let serial = fig09_edge_jitter(200, 9, &exec::ExecPool::serial()).expect("runs");
        let wide = fig09_edge_jitter(200, 9, &exec::ExecPool::new(4)).expect("runs");
        assert_eq!(serial.rows().len(), wide.rows().len());
        for (a, b) in serial.rows().iter().zip(wide.rows()) {
            assert_eq!(a.measured.to_bits(), b.measured.to_bits());
        }
    }
}
