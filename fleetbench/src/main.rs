//! Command line: `fleetbench --workload <name> --seed <n> --seconds <n>
//! --trace <0|1>`. Prints the traced-run report (when tracing) and, as
//! the last line of standard output, one JSON result object.

use fleetbench::metrics::result_line;
use fleetbench::{run, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("fleetbench: {err}");
    eprintln!(
        "usage: fleetbench --workload <fleet_ingest|window_queries|live_mixed> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid flag value");
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        scratch: PathBuf::from(".fleetbench"),
    };
    let out = run(&cfg);
    for p in &out.problems {
        eprintln!("fleetbench: {p}");
    }
    print!("{}", out.report);
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
