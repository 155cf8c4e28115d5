//! The miniature wafer-prober scenario (paper §4): at-speed BIST testing
//! of WLP dies, a strobe/threshold shmoo, and array-parallel probing.
//!
//! ```text
//! cargo run --release -p gigatest-ate --example wafer_probe
//! ```

use exec::{ExecPool, PoolJob};
use minitester::{
    Defect, EtCapture, EyeScanJob, MiniTester, MiniTesterDatapath, ProbeArray, ShmooConfig,
    ShmooJob, TestPlan, WlpChannel, WlpDut,
};
use pstime::{DataRate, Millivolts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Miniature wafer-probe tester ==\n");
    let rate5 = DataRate::from_gbps(5.0);

    // A good die: loopback at the 5 Gbps target rate.
    let mut tester = MiniTester::new()?;
    let outcome = tester.run(&TestPlan::prbs_loopback(rate5, 2_048), 1)?;
    println!("good die, 5 Gbps loopback   : {outcome}");

    // A cracked lead (stuck input): caught by the on-die PRBS checker.
    tester.insert_dut(
        WlpDut::good(WlpChannel::interposer()).with_defect(Defect::StuckInput { level: true }),
    );
    let outcome = tester.run(&TestPlan::prbs_bist(rate5, 2_048), 2)?;
    println!("stuck-input die, 5 Gbps BIST: {outcome}");

    // A degraded lead: passes at 1 Gbps, fails the at-speed margin test.
    tester.insert_dut(WlpDut::good(WlpChannel::degraded()));
    let slow = tester.run(&TestPlan::prbs_loopback(DataRate::from_gbps(1.0), 2_048), 3)?;
    let mut at_speed_plan = TestPlan::prbs_loopback(rate5, 2_048);
    at_speed_plan.min_eye_ui = 0.8;
    let fast = tester.run(&at_speed_plan, 3)?;
    println!("degraded die, 1 Gbps        : {slow}");
    println!("degraded die, 5 Gbps margin : {fast}");

    // The shmoo: strobe phase (10 ps steps) x threshold (50 mV steps).
    println!("\nshmoo of the stimulus at 2.5 Gbps ('*' = pass):");
    let rate = DataRate::from_gbps(2.5);
    let mut path = MiniTesterDatapath::new()?;
    let pattern = path.prbs_pattern(rate, 1_024)?;
    let (wave, expected) = (&path.render(&pattern, 5)?, pattern.bits());
    let config = ShmooConfig::pecl();
    let plot = ShmooJob { wave, rate, expected, config, seed: 5 }.run_on(&ExecPool::from_env())?;
    println!("{plot}");
    if let Some((v, phase)) = plot.best_operating_point() {
        println!("\nbest operating point: threshold {v}, strobe at {phase}");
    }

    // The 10 ps equivalent-time eye scan the sampler gives us for free.
    let capture = EtCapture::new();
    let scan = EyeScanJob { capture: &capture, wave, rate, expected, seed: 5 }
        .run_on(&ExecPool::serial())?;
    println!("\nstrobe scan across one UI: {scan}");
    println!("eye opening from the scan: {}", scan.opening_ui()?);

    // Array probing (Fig. 13): the order-of-magnitude throughput claim.
    let serial = ProbeArray::new(1);
    let array = ProbeArray::new(16);
    println!(
        "\n{} vs single-site: {:.0}x throughput on a 256-die wafer",
        array,
        array.throughput_speedup(&serial, 256)
    );

    // A comparator-threshold defect for good measure.
    let mut t2 = MiniTester::new()?;
    t2.insert_dut(
        WlpDut::good(WlpChannel::interposer())
            .with_defect(Defect::ShiftedThreshold { offset: Millivolts::new(500) }),
    );
    let outcome = t2.run(&TestPlan::prbs_bist(rate, 1_024), 8)?;
    println!("\nshifted-threshold die, BIST : {outcome}");
    Ok(())
}
