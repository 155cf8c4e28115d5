//! Prints the deterministic outputs of the exec-powered sweeps — shmoo
//! plot, wafer map, eye scan, jitter report, BER digest — and nothing
//! else.
//!
//! ```text
//! cargo run --release -p gigatest-bench --bin bench_exec
//! ```
//!
//! CI runs it under `EXEC_THREADS=1` and `EXEC_THREADS=4` and diffs the
//! two, proving thread-count invariance end to end. Timing lives in
//! `headbench`, the one timed harness.

use ate::AteError;
use exec::ExecPool;
use minitester::multisite::WaferRunConfig;
use minitester::{EtCapture, MiniTesterDatapath, ShmooConfig, ShmooPlot};
use pecl::SignalChain;
use pstime::DataRate;
use signal::BathtubCurve;

/// Prints deterministic sweep outputs and nothing else; byte-identical
/// output for every `EXEC_THREADS` is the cross-layer determinism proof.
fn canary() -> Result<(), AteError> {
    let rate = DataRate::from_gbps(2.5);
    let expected = MiniTesterDatapath::new()?.expected_prbs(rate, 512)?;
    let wave = MiniTesterDatapath::new()?.prbs_stimulus(rate, 512, 17)?;
    let plot = ShmooPlot::run(&wave, rate, &expected, &ShmooConfig::pecl(), 1)?;
    println!("== shmoo ==\n{plot}");

    let wafer = WaferRunConfig {
        dies: 24,
        columns: 6,
        sites: 8,
        test_bits: 256,
        ..WaferRunConfig::default()
    };
    let report = minitester::multisite::run_wafer(&wafer)?;
    println!("== wafer ==\n{report}");

    let scan =
        EtCapture::new().eye_scan_with_pool(&wave, rate, &expected, 5, &ExecPool::from_env())?;
    println!("== eye ==\n{scan}");

    let jitter = bench_support::fig09_edge_jitter(400, 9)?;
    println!("== jitter ==\n{jitter}");

    let chain = SignalChain::minitester_datapath();
    let bathtub = BathtubCurve::new(chain.rj_rms(), chain.dj_pp(), rate, 0.5);
    let sweep = bathtub.sweep_with_pool(10_001, &ExecPool::from_env())?;
    let digest = sweep
        .iter()
        .fold(0u64, |acc, (phase, ber)| acc ^ phase.to_bits() ^ ber.to_bits().rotate_left(17));
    println!("== ber ==\ndigest {digest:016x}");
    Ok(())
}

fn main() {
    if let Err(e) = canary() {
        eprintln!("bench_exec failed: {e}");
        std::process::exit(2);
    }
}
