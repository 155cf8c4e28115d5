//! `headbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line last.

use headbench::gen::Workload;
use headbench::run::{run, Options};

const USAGE: &str = "usage: headbench --workload <cold_campaign|warm_replay|farm_campaign> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() {
    let (workload, options) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("headbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(workload, &options) {
        Ok(done) => println!("{}", done.outcome.json()),
        Err(e) => {
            eprintln!("headbench: {e}");
            std::process::exit(1);
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Workload, Options), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    Ok((workload, Options { seed, seconds, trace }))
}
