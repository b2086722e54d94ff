//! Command-line entry point for the paper reproductions.
//!
//! ```text
//! repro --figure 9            # one figure
//! repro --all                 # every figure, ablation and extension
//! repro --all --quick         # reduced scale
//! repro --all --jobs 8        # shard multi-host figures over 8 workers
//! repro --figure 12 --csv out # also export raw series as CSV
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use tmo_experiments::{select, ExperimentOutput, FleetRunner, Key, Scale, EXPERIMENTS};

#[derive(Debug, Default)]
struct Args {
    figures: Vec<u32>,
    experiments: Vec<String>,
    all: bool,
    ablations: bool,
    extensions: bool,
    list: bool,
    quick: bool,
    csv: Option<PathBuf>,
    /// Worker threads for multi-host figures; 0 = size to the machine.
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--figure" | "-f" => {
                let v = iter.next().ok_or("--figure needs a number")?;
                args.figures
                    .push(v.parse().map_err(|_| format!("bad figure number {v}"))?);
            }
            "--experiment" | "-e" => {
                let v = iter.next().ok_or("--experiment needs a name")?;
                args.experiments.push(v);
            }
            "--all" | "-a" => args.all = true,
            "--ablations" => args.ablations = true,
            "--extensions" => args.extensions = true,
            "--list" | "-l" => args.list = true,
            "--quick" | "-q" => args.quick = true,
            "--csv" => {
                let v = iter.next().ok_or("--csv needs a directory")?;
                args.csv = Some(PathBuf::from(v));
            }
            "--jobs" | "-j" => {
                let v = iter.next().ok_or("--jobs needs a worker count")?;
                args.jobs = v.parse().map_err(|_| format!("bad worker count {v}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the TMO paper's figures\n\n\
                     USAGE: repro [--figure N]... [--experiment NAME]... [--all] [--ablations] [--extensions] [--list] [--quick] [--jobs N] [--csv DIR]\n\n\
                     --jobs N shards multi-host figures over N worker threads (0 = all\n\
                     cores, the default); results are bit-identical for every N.\n\
                     --list enumerates every figure and named experiment with a\n\
                     one-line description, without running anything.\n\n\
                     Figures: {}\n\
                     Experiments: {}",
                    keys(|key| match key {
                        Key::Figure(number) => Some(number.to_string()),
                        Key::Named(_) => None,
                    }),
                    keys(|key| match key {
                        Key::Figure(_) => None,
                        Key::Named(name) => Some(name.to_string()),
                    }),
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.figures.is_empty()
        && args.experiments.is_empty()
        && !args.all
        && !args.ablations
        && !args.extensions
        && !args.list
    {
        args.all = true;
    }
    Ok(args)
}

/// The registry keys `pick` accepts, comma-separated.
fn keys(pick: impl Fn(Key<'static>) -> Option<String>) -> String {
    EXPERIMENTS
        .iter()
        .filter_map(|e| pick(e.key))
        .collect::<Vec<_>>()
        .join(", ")
}

fn export_csv(dir: &PathBuf, out: &ExperimentOutput) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (tier, recorder) in &out.recorders {
        let safe_tier: String = tier
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("{}-{safe_tier}.csv", out.id));
        let mut file = std::fs::File::create(&path)?;
        file.write_all(recorder.to_csv().as_bytes())?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        println!("figures:");
        for e in EXPERIMENTS {
            if let Key::Figure(number) = e.key {
                println!("  {number:>2}  {}", e.description);
            }
        }
        println!("experiments:");
        for e in EXPERIMENTS {
            if let Key::Named(name) = e.key {
                println!("  {name:<16} {}", e.description);
            }
        }
        return ExitCode::SUCCESS;
    }
    let selected = match select(
        &args.figures,
        &args.experiments,
        args.all,
        args.ablations,
        args.extensions,
    ) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = if args.quick {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let runner = FleetRunner::new(args.jobs);
    eprintln!(
        "multi-host figures shard over {} worker thread(s); output is \
         identical for any worker count",
        runner.jobs()
    );
    for experiment in selected {
        let output = (experiment.run)(&runner, scale);
        println!("{}", output.render());
        if let Some(dir) = &args.csv {
            if let Err(e) = export_csv(dir, &output) {
                eprintln!("csv export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
