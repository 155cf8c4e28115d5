//! The `atd-farm` daemon end to end: the binary boots a three-head fleet
//! on an ephemeral port, a pipelined client streams composite specs
//! through it, and every answer is byte-identical to the spec run whole
//! on a serial pool.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use atd::{Event, JobSpec, PipelinedClient};
use exec::ExecPool;

/// Kills the daemon if the test fails before shutting it down.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn shmoo() -> JobSpec {
    JobSpec::Shmoo {
        rate_bps: 1_250_000_000,
        bits: 256,
        stim_seed: 7,
        phase_step_fs: 100_000_000,
        v_start_mv: -1400,
        v_end_mv: -1100,
        v_step_mv: 25,
        seed: 11,
    }
}

fn wafer() -> JobSpec {
    JobSpec::Wafer {
        columns: 4,
        dies: 24,
        sites: 2,
        hard_defect_rate: 0.25,
        marginal_rate: 0.1,
        rate_bps: 2_500_000_000,
        test_bits: 256,
        seed: 99,
    }
}

#[test]
fn farm_daemon_streams_composite_results_byte_identical_to_a_serial_run() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_atd-farm"))
        .args(["--addr", "127.0.0.1:0", "--heads", "3"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn atd-farm");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut daemon = Daemon(child);
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read the listening line");
    let addr = line
        .strip_prefix("atd-farm listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();

    let specs = [wafer(), shmoo()];
    let mut client = PipelinedClient::connect(addr.as_str()).expect("connect");
    let correlations: Vec<u64> =
        specs.iter().map(|spec| client.submit_pipelined(1, *spec).expect("submit")).collect();
    let mut answers = vec![None; specs.len()];
    while client.in_flight() > 0 {
        match client.next_event().expect("event") {
            Event::Chunk { .. } => {}
            Event::Done { correlation, result, .. } => {
                let slot = correlations.iter().position(|c| *c == correlation).expect("ours");
                answers[slot] = Some(result.encoded().expect("encode"));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    let pool = ExecPool::serial();
    for (spec, answer) in specs.iter().zip(answers) {
        let direct = atd::workload::execute(spec, &pool).expect("direct run");
        assert_eq!(answer, Some(direct.encoded().expect("encode")), "{}", spec.kind());
    }

    client.shutdown().expect("shutdown");
    let status = daemon.0.wait().expect("daemon exit");
    assert!(status.success(), "{status}");
}
