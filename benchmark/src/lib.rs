//! End-to-end and per-layer benchmark of the TMO reproduction's
//! simulator.
//!
//! One run measures one workload (see [`hosts::Workload`]) for a fixed
//! number of wall seconds. A run is a discarded warm-up repetition at a
//! tenth of the size, then full-size repetitions back to back: each
//! repetition rebuilds the same seeded hosts and runs them again, so
//! every repetition must reproduce the first one's digest exactly. A
//! reference kernel around each repetition measures the machine's
//! current speed, and timings are scaled by it ([`calibrate`]).
//!
//! An untraced run then times the hosts' set-up on its own and reports
//! the end-to-end metrics ([`measure::END_TO_END`]). A traced run
//! alternates untraced and traced repetitions; the traced ones go
//! through copies of the library loops that time each layer, and
//! report the per-layer metrics ([`measure::PER_LAYER`]).
//!
//! Standard output carries only simulated values, which are a pure
//! function of the workload and the seed, and then one JSON result line
//! with the measured values. Wall-clock detail goes to standard error.
//! `BENCHMARK.md` beside this crate's manifest has the metric tables
//! and how to compare two commits.

// A benchmark exists to read the wall clock. Wall-clock values reach
// only standard error, the result line and the spans file, never the
// simulated values printed before them, so the workspace clippy.toml
// rule against reading the host clock is waived here, as for the
// criterion shim.
#![allow(clippy::disallowed_methods)]

pub mod calibrate;
pub mod hosts;
pub mod measure;
pub mod spans;

use std::path::PathBuf;
use std::time::Instant;

use tmo::prelude::*;

use calibrate::Calibrator;
use hosts::{time_builds, Plan, Workload};
use measure::{
    count_metrics, end_to_end_metrics, layer_values, median, median_by_key, peak_rss_mib,
    reconcile_error, result_line, run_rep, write_spans, Rep, END_TO_END, PER_LAYER,
};

/// Fewest measured repetitions (or traced/untraced pairs) in a run,
/// however short `seconds` is.
pub const MIN_REPS: usize = 3;

/// Largest gap allowed between Σ span self time and a traced
/// repetition's wall time, as a share of the wall time.
pub const RECONCILE_TOLERANCE: f64 = 0.02;

/// Hosts of `fleet_tiny` whose savings are checked against the
/// library's own `ext_paper_scale` host body.
const REFERENCE_HOSTS: usize = 64;

/// The set-up phase builds a repetition's hosts in rounds, after one
/// discarded round, until it has at least [`MIN_SETUP_ROUNDS`] and
/// either [`MAX_SETUP_ROUNDS`] or [`SETUP_SECONDS`] of wall time.
const MIN_SETUP_ROUNDS: usize = 3;
const MAX_SETUP_ROUNDS: usize = 9;
const SETUP_SECONDS: f64 = 1.5;

/// Times the building of a repetition's hosts, round after round, and
/// returns each round's build time scaled to reference machine speed.
///
/// Set-up is timed on its own, back to back, rather than inside the
/// repetitions: a build right after a simulation pays for the
/// allocator handing memory back and faulting it in again, which made
/// a single host's build time swing twofold from run to run.
fn measure_setup(plan: &Plan, seed: u64, calibrator: &mut Calibrator) -> Vec<f64> {
    let mut arena = ShardArena::new();
    time_builds(plan, seed, &mut arena);
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_SETUP_ROUNDS
        || (rounds.len() < MAX_SETUP_ROUNDS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let before = calibrator.speed();
        let build = time_builds(plan, seed, &mut arena).as_secs_f64();
        let after = calibrator.speed();
        rounds.push(build * (before + after) / 2.0);
    }
    rounds
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed; host `i` runs with `FleetRunner::host_seed(seed, i)`.
    pub seed: u64,
    /// Wall seconds of measurement after the warm-up.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions.
    pub trace: bool,
    /// Size of a repetition relative to the full workload (1.0 for the
    /// benchmark proper; tests run smaller).
    pub fraction: f64,
    /// Where a traced run writes its first traced repetition's spans.
    pub spans_path: Option<PathBuf>,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Standard-output lines before the result line: simulated values
    /// only, identical for identical arguments.
    pub lines: Vec<String>,
    /// Whether every check passed.
    pub correct: bool,
    /// Hosts simulated.
    pub attempted: u64,
    /// Hosts that panicked or whose end state differed from the first
    /// repetition's.
    pub failed: u64,
    /// `(name, unit, value)` for each reported metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The run's digest over every host's end state.
    pub digest: u64,
}

impl Report {
    /// The JSON result line.
    pub fn result_line(&self) -> String {
        result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Checks and failure counts gathered over a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts `rep`'s hosts, its panics, and every host whose digest
    /// differs from `reference`.
    fn rep(&mut self, label: &str, rep: &Rep, reference: Option<&Rep>) {
        self.attempted += rep.host_digests.len() as u64;
        for (host, message) in &rep.panics {
            self.fail(format!("{label}: host {host} panicked: {message}"));
        }
        if let Some(reference) = reference {
            for (host, (a, b)) in rep
                .host_digests
                .iter()
                .zip(&reference.host_digests)
                .enumerate()
            {
                if a.is_some() && b.is_some() && a != b {
                    self.fail(format!("{label}: host {host} end state differs"));
                }
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// `fleet_tiny`'s host body must match the library's `ext_paper_scale`
/// host for the same seeds.
fn check_fleet_reference(plan: &Plan, seed: u64, warm: &Rep, tally: &mut Tally) {
    let mut arena = ShardArena::new();
    for (index, state) in warm.states.iter().enumerate().take(REFERENCE_HOSTS) {
        let ctx = HostCtx {
            index,
            seed: FleetRunner::host_seed(seed, index),
        };
        let reference = tmo_experiments::ext_paper_scale::run_host(ctx, &mut arena);
        tally.attempted += 1;
        if reference != state.savings {
            tally.fail(format!(
                "{}: host {index} differs from ext_paper_scale::run_host",
                plan.workload.name()
            ));
        }
    }
}

fn per_rep_line(label: &str, rep: &Rep, speed: f64) {
    eprintln!(
        "{label}: wall {:.3}s, {:.1} sim-s/s, machine speed {speed:.3}, \
         {} host(s) on {} worker(s), peak rss {:.1} MiB",
        rep.wall.as_secs_f64(),
        rep.sim_seconds() / rep.wall.as_secs_f64(),
        rep.host_digests.len(),
        rep.runner.jobs,
        peak_rss_mib().unwrap_or(0.0),
    );
}

/// Runs the benchmark.
pub fn run_benchmark(args: &Args) -> Report {
    let name = args.workload.name();
    let plan = Plan::new(args.workload, args.fraction);
    let warm_plan = Plan::new(args.workload, args.fraction * 0.1);
    let mut tally = Tally::default();

    let mut calibrator = Calibrator::new();
    let warm = run_rep(&warm_plan, args.seed, false);
    per_rep_line("warm-up", &warm, calibrator.speed());
    tally.rep("warm-up", &warm, None);
    if args.workload == Workload::FleetTiny {
        check_fleet_reference(&warm_plan, args.seed, &warm, &mut tally);
    }

    let started = Instant::now();
    let mut first: Option<Rep> = None;
    let mut timings = Vec::new();
    let mut traced_timings = Vec::new();
    let mut layer_reps = Vec::new();
    let mut trace_counts = None;
    let mut reconcile_worst: f64 = 0.0;
    let mut speed_before = calibrator.speed();
    loop {
        let round = timings.len();
        if started.elapsed().as_secs_f64() >= args.seconds && round >= MIN_REPS {
            break;
        }
        // A traced run pairs each untraced repetition with a traced one
        // and alternates which goes first, so drift in machine load
        // falls on both sides alike. The first untraced repetition
        // always comes first: it is the reference every later one,
        // traced or not, must reproduce.
        let order = match (args.trace, round % 2) {
            (false, _) => &[false][..],
            (true, 0) => &[false, true][..],
            (true, _) => &[true, false][..],
        };
        for &is_traced in order {
            let mut rep = run_rep(&plan, args.seed, is_traced);
            let speed_after = calibrator.speed();
            let timing = rep.timing((speed_before + speed_after) / 2.0);
            speed_before = speed_after;
            let label = format!("{} {round}", if is_traced { "traced" } else { "rep" });
            per_rep_line(&label, &rep, timing.speed);
            tally.rep(&label, &rep, first.as_ref());
            if let Some(trace) = rep.trace.take() {
                let totals = trace.totals();
                reconcile_worst = reconcile_worst.max(reconcile_error(&totals, rep.wall));
                layer_reps.push(layer_values(&rep, &totals, &trace.counts));
                traced_timings.push(timing);
                if trace_counts.is_none() {
                    if let Some(path) = &args.spans_path {
                        match write_spans(path, &trace) {
                            Ok(()) => eprintln!("spans written to {}", path.display()),
                            Err(e) => tally
                                .problems
                                .push(format!("writing {}: {e}", path.display())),
                        }
                    }
                    trace_counts = Some(trace.counts);
                }
            } else {
                timings.push(timing);
                first.get_or_insert(rep);
            }
        }
    }

    let first = first.expect("a run measures at least one untraced repetition");
    let digest = first.digest();
    let sim_per_rep = first.sim_seconds();
    let mem_saved = first.mem_saved_pct();
    let psi_some = first.psi_mem_some_pct();
    tally.check(sim_per_rep > 0.0, || "no simulated time".to_string());
    tally.check((0.0..=100.0).contains(&mem_saved), || {
        format!("mem_saved_pct {mem_saved} outside [0, 100]")
    });
    tally.check((0.0..=100.0).contains(&psi_some), || {
        format!("psi_mem_some_pct {psi_some} outside [0, 100]")
    });

    let mut lines = vec![
        format!(
            "workload {name} seed {} hosts_per_rep {} fraction {}",
            args.seed, plan.hosts, args.fraction
        ),
        format!("digest {digest:016x}"),
        format!("sim_seconds_per_rep {sim_per_rep}"),
        format!("mem_saved_pct {mem_saved}"),
        format!("psi_mem_some_pct {psi_some}"),
    ];

    let values = match trace_counts {
        Some(counts) => {
            tally.check(reconcile_worst <= RECONCILE_TOLERANCE, || {
                format!(
                    "span self times miss the repetition wall time by {:.2}%",
                    reconcile_worst * 100.0
                )
            });
            eprintln!(
                "reconciliation: worst gap {:.3}% of wall",
                reconcile_worst * 100.0
            );
            let counted = count_metrics(&first, &counts);
            for (metric, value) in &counted {
                lines.push(format!("{metric} {value}"));
            }
            // Each round holds one untraced and one traced repetition
            // back to back, so their ratio cancels the machine's phase.
            let ratios: Vec<f64> = traced_timings
                .iter()
                .zip(&timings)
                .map(|(traced, plain)| traced.wall_s / plain.wall_s)
                .collect();
            let overhead = (median(&ratios) - 1.0) * 100.0;
            let mut values = median_by_key(&layer_reps);
            values.insert("bench.trace_overhead_pct", overhead);
            values.extend(counted);
            values
        }
        None => {
            let rss = peak_rss_mib();
            tally.check(rss.is_some(), || "VmHWM unavailable".to_string());
            let setups = measure_setup(&plan, args.seed, &mut calibrator);
            eprintln!("set-up rounds (scaled s): {setups:?}");
            end_to_end_metrics(&first, &timings, &setups, rss.unwrap_or(0.0))
        }
    };

    let wanted: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(metric, unit) in wanted {
        let value = values.get(metric).copied();
        tally.check(value.is_some_and(f64::is_finite), || {
            format!("metric {metric} missing or not finite")
        });
        metrics.push((metric, unit, value.unwrap_or(0.0)));
    }
    for (metric, unit, value) in &metrics {
        eprintln!("{metric:>34} {value:>16.6} {unit}");
    }
    for problem in &tally.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    Report {
        lines,
        correct: tally.problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        digest,
    }
}
