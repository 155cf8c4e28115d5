//! The headline integration test: every figure and claim of Keezer et al.
//! (DATE 2005) reproduced within tolerance, in one assertion per
//! experiment. This is what EXPERIMENTS.md records.

#[test]
fn fig04_packet_slot_structure() {
    let r = bench_support::fig04_packet_slot().expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG4 drifted:\n{r}");
}

#[test]
fn fig06_transition_times() {
    let r = bench_support::fig06_tx_waveforms(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG6 drifted:\n{r}");
}

#[test]
fn fig07_eye_at_2g5() {
    let r = bench_support::fig07_eye_2g5(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG7 drifted:\n{r}");
}

#[test]
fn fig08_eye_at_4g0() {
    let r = bench_support::fig08_eye_4g0(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG8 drifted:\n{r}");
}

#[test]
fn fig09_single_edge_jitter() {
    let pool = exec::ExecPool::from_env();
    let r = bench_support::fig09_edge_jitter(2_000, 2005, &pool).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG9 drifted:\n{r}");
}

#[test]
fn fig10_fig11_level_programming() {
    let r = bench_support::fig10_fig11_levels(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG10/11 drifted:\n{r}");
}

#[test]
fn fig13_parallel_probing_speedup() {
    let r = bench_support::fig13_parallel_probe().expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG13 drifted:\n{r}");
}

#[test]
fn fig16_mini_eye_at_1g0() {
    let r = bench_support::fig16_mini_eye_1g0(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG16 drifted:\n{r}");
}

#[test]
fn fig17_mini_eye_at_2g5() {
    let r = bench_support::fig17_mini_eye_2g5(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG17 drifted:\n{r}");
}

#[test]
fn fig18_five_gbps_pattern() {
    let r = bench_support::fig18_mini_5g_pattern(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG18 drifted:\n{r}");
}

#[test]
fn fig19_mini_eye_at_5g0() {
    let r = bench_support::fig19_mini_eye_5g0(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "FIG19 drifted:\n{r}");
}

#[test]
fn summary_timing_accuracy_claim() {
    let r = bench_support::summary_timing_accuracy().expect("experiment runs");
    assert!(r.all_within_tolerance(), "SUMMARY drifted:\n{r}");
    // The paper claims ±25 ps; the hard bound must hold, not just the
    // comparison tolerance.
    assert!(
        r.rows()[0].measured <= 25.0,
        "edge placement error {} ps exceeds the ±25 ps claim",
        r.rows()[0].measured
    );
}

#[test]
fn data_vortex_routing_and_buffering() {
    let r = bench_support::datavortex_routing(2005).expect("experiment runs");
    assert!(r.all_within_tolerance(), "DV drifted:\n{r}");
}

#[test]
fn terabit_scaling_arithmetic() {
    let r = bench_support::ext_terabit_scaling().expect("experiment runs");
    assert!(r.all_within_tolerance(), "EXT drifted:\n{r}");
}

#[test]
fn cost_model_claim() {
    let r = bench_support::cost_comparison().expect("experiment runs");
    assert!(r.all_within_tolerance(), "COST drifted:\n{r}");
    // "Significantly lower in cost than conventional ATE": both systems
    // must beat ATE by > 5x.
    for row in r.rows() {
        assert!(row.measured > 5.0, "{} barely saves money", row.experiment);
    }
}

#[test]
fn eye_openings_degrade_monotonically_with_rate() {
    // The paper's overall shape: same hardware, rising rate, shrinking eye.
    use ate::{TestProgram, TestSystem};
    use pstime::DataRate;
    let mut system = TestSystem::mini_tester().expect("boots");
    let mut last = f64::INFINITY;
    for gbps in [1.0, 2.5, 5.0] {
        let eye = system
            .run(&TestProgram::prbs_eye(DataRate::from_gbps(gbps), 4_096), 2005)
            .expect("runs")
            .eye
            .opening_ui()
            .value();
        assert!(eye < last, "eye at {gbps} Gbps ({eye}) should be below {last}");
        last = eye;
    }
}

#[test]
fn eye_closes_step_by_step_with_the_jitter_budget() {
    // Same rate, growing budget: clean → RJ → RJ+DCD → RJ+DCD+ISI. Each
    // impairment closes the eye further, and the full budget lands at the
    // paper's 0.88 UI (measured 0.991 → 0.939 → 0.914 → 0.897).
    use pecl::{SiGeOutputBuffer, SignalChain};
    use pstime::{DataRate, Duration};
    use signal::EyeDiagram;
    let rate = DataRate::from_gbps(2.5);
    let bits = dlc::Lfsr::new(dlc::PrbsPolynomial::Prbs15, 0x1DEA).generate(4_096);
    let budgets =
        [(false, false, false), (true, false, false), (true, true, false), (true, true, true)];
    let mut openings = Vec::new();
    for (rj, dcd, isi) in budgets {
        let mut chain =
            SignalChain::builder("jitter-budget").add_sige_buffer(&SiGeOutputBuffer::new()).build();
        if rj {
            chain.add_rj(Duration::from_ps_f64(3.2));
        }
        if dcd {
            chain.add_dcd(Duration::from_ps(10));
        }
        if isi {
            chain.add_isi(Duration::from_ps(13), 1.0);
        }
        let wave = chain.render(&bits, rate, 7).expect("renders");
        openings.push(EyeDiagram::analyze(&wave, rate).expect("analyzable").opening_ui().value());
    }
    assert!(openings.windows(2).all(|w| w[1] < w[0]), "openings {openings:?}");
    let full = openings[3];
    assert!((full - 0.88).abs() < 0.05, "full budget opening {full}, paper 0.88");
}

#[test]
fn full_report_passes_every_row() {
    let report = bench_support::full_report(2005).expect("experiment runs");
    assert!(
        report.all_within_tolerance(),
        "{} rows out of tolerance:\n{report}",
        report.rows().len() - report.passing()
    );
    assert!(report.rows().len() >= 30, "expected a comprehensive report");
}
