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
use exec::{ExecPool, PoolJob};
use minitester::multisite::WaferRunConfig;
use minitester::{EtCapture, EyeScanJob, MiniTesterDatapath, ShmooConfig, ShmooJob};
use pecl::SignalChain;
use pstime::DataRate;
use signal::{BathtubCurve, BathtubSweep};

/// Prints deterministic sweep outputs and nothing else; byte-identical
/// output for every `EXEC_THREADS` is the cross-layer determinism proof.
fn canary() -> Result<(), AteError> {
    let pool = ExecPool::from_env();
    let rate = DataRate::from_gbps(2.5);
    let mut path = MiniTesterDatapath::new()?;
    let pattern = path.prbs_pattern(rate, 512)?;
    let (wave, expected) = (&path.render(&pattern, 17)?, pattern.bits());
    let config = ShmooConfig::pecl();
    let plot = ShmooJob { wave, rate, expected, config, seed: 1 }.run_on(&pool)?;
    println!("== shmoo ==\n{plot}");

    let wafer = WaferRunConfig {
        dies: 24,
        columns: 6,
        sites: 8,
        test_bits: 256,
        ..WaferRunConfig::default()
    };
    let report = wafer.run_on(&pool)?;
    println!("== wafer ==\n{report}");

    let capture = EtCapture::new();
    let scan = EyeScanJob { capture: &capture, wave, rate, expected, seed: 5 }.run_on(&pool)?;
    println!("== eye ==\n{scan}");

    let jitter = bench_support::fig09_edge_jitter(400, 9, &pool)?;
    println!("== jitter ==\n{jitter}");

    let chain = SignalChain::minitester_datapath();
    let bathtub = BathtubCurve::new(chain.rj_rms(), chain.dj_pp(), rate, 0.5);
    let sweep = BathtubSweep { curve: &bathtub, points: 10_001 }.run_on(&pool)?;
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
