//! Calibration: how the system reaches its ±25 ps timing-accuracy claim.
//!
//! ```text
//! cargo run --release -p gigatest-ate --example calibration
//! ```
//!
//! Shows the two halves of the claim: the 10 ps vernier's edge-placement
//! audit (quantization + integral nonlinearity), and the multi-channel
//! deskew loop that nulls the clock-fanout spread.

use ate::calibration::{
    deskew_channels, paper_accuracy_target, placement_audit, worst_placement_error,
};
use pecl::ClockFanout;
use pstime::{DataRate, Duration};
use signal::JitterDecomposition;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Timing accuracy: the +/-25 ps claim ==\n");

    // 1. Edge placement across the full 10 ns range in odd 137 ps steps.
    let serial = exec::ExecPool::serial();
    let points = placement_audit(Duration::from_ns(10), Duration::from_ps(137), &serial)?;
    let worst = worst_placement_error(&points);
    println!(
        "placement audit: {} requests over 10 ns, worst error {} (claim: +/-25 ps)",
        points.len(),
        worst
    );
    for p in points.iter().take(5) {
        println!(
            "  requested {:>9} -> achieved {:>9} (err {:>6})",
            p.requested.to_string(),
            p.achieved.to_string(),
            p.error().to_string()
        );
    }
    println!("  ...\n");

    // 2. Channel deskew: the fanout ships with +/-25 ps of leg spread.
    let fanout = ClockFanout::new(8, Duration::from_ps(1));
    println!("uncalibrated fanout spread: {}", fanout.max_skew_spread());
    let result = deskew_channels(&fanout, DataRate::from_gbps(2.5), paper_accuracy_target())?;
    println!("after deskew: worst residual {} across 8 channels", result.worst_residual);
    println!("vernier codes: {:?}\n", result.codes);

    // 3. Verify the jitter budget itself by decomposition: measure an eye,
    //    split RJ from DJ, compare against the chain's analytic budget.
    use ate::{TestProgram, TestSystem};
    let mut system = TestSystem::optical_testbed()?;
    let rate = DataRate::from_gbps(2.5);
    let result = system.run(&TestProgram::prbs_eye(rate, 8_192), 77)?;
    let decomposition = JitterDecomposition::from_eye(&result.eye)?;
    println!("measured eye : {}", result.eye);
    println!("decomposition: {decomposition}");
    println!(
        "chain budget : RJ {} rms, DJ {} p-p",
        system.chain().rj_rms(),
        system.chain().dj_pp()
    );
    println!("\nThe decomposed RJ tracks the budget's quadrature sum; DJ(dd) reads");
    println!("below the linear-sum bound, as dual-Dirac always does for distributed");
    println!("(ISI) jitter. The virtual scope verifies the design, not assumes it.");
    Ok(())
}
