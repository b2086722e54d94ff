//! `tmo-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's simulated values, then one JSON result line. Exits
//! non-zero on a usage error. A traced run writes its spans to
//! `bench-out/<workload>.spans.jsonl` under the working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use tmo_benchmark::hosts::Workload;
use tmo_benchmark::{run_benchmark, Args};

const USAGE: &str = "usage: tmo-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: fleet_tiny, zswap_steady, ssd_write_regulated, scenario_catalog";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        fraction: 1.0,
        spans_path: Some(PathBuf::from(format!(
            "bench-out/{}.spans.jsonl",
            workload.name()
        ))),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run_benchmark(&args);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
