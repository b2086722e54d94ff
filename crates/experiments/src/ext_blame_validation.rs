//! Extension experiment: blame-attribution ground truth — causal
//! provenance vs the growth-pro-rata heuristic.
//!
//! The adversarial experiment reports *who* the blame ledger accuses;
//! nothing there measures whether the accusation is right. This
//! experiment plants a known single offender — one container leaks or
//! churns while every other container runs steady — and derives
//! counterfactual ground truth by replaying the identical host with
//! the planted event removed. The extra stall each victim suffers in
//! the with-offender run *is* the offender's causal bill. Both ledgers
//! are then scored on (a) top-offender precision: did the ledger's
//! biggest cross-container offender match the plant? and (b) per-edge
//! charge error: L1 distance between the ledger's cross-container
//! charge matrix and the ground-truth one.
//!
//! The table is a CI golden and the same differential is enforced as a
//! hard gate by `tests/blame_ground_truth.rs`: the causal ledger must
//! name the planted offender in 100% of cases and carry strictly less
//! per-edge error than the pro-rata heuristic.
//!
//! The event-free baseline and every planted case run on every host in
//! one [`FleetRunner::run_grid`] pass, the baseline as case 0, and are
//! scored after it. Bit-identical for any `--jobs N`: provenance draws
//! nothing (it tags reclaim with the already-chosen trigger), and hosts
//! aggregate in index order.

use tmo::prelude::*;
use tmo::runner::{FleetRunner, HostOutcome};
use tmo_scenarios::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// Experiment-level seed; host `i` runs with
/// `FleetRunner::host_seed(EXPERIMENT_SEED, i)`.
pub const EXPERIMENT_SEED: u64 = 2300;

/// Hosts replaying each planted case.
pub const HOSTS_PER_CASE: usize = 4;

/// Planted-scenario run length at this scale.
pub fn run_duration(scale: Scale) -> SimDuration {
    SimDuration::from_mins(scale.minutes().max(4))
}

/// The planted single-offender cases: leaks and churn spikes planted
/// into different containers of the same three-container host the
/// adversarial experiment uses, every other container steady.
pub fn planted_cases(scale: Scale) -> Vec<PlantedScenario> {
    let run = run_duration(scale);
    let dram = ByteSize::from_mib(scale.dram_mib());
    // A churn spike on the cache (container 2) is fully absorbed by
    // the offload path — the counterfactual victim stall is zero, so
    // there is nothing to attribute and it is not a valid
    // single-offender case.
    vec![
        planted::leak(run, dram, 1),
        planted::spike(run, dram, 1),
        planted::leak(run, dram, 2),
    ]
}

/// Controller + scoring config for the planted runs.
pub fn run_config(scale: Scale) -> ScenarioRunConfig {
    ScenarioRunConfig {
        senpai: SenpaiConfig::accelerated(scale.speedup()),
        oomd: Some(OomdConfig::default()),
        slo: SloConfig::default(),
        duration: run_duration(scale),
    }
}

/// The same three-container host shape as the adversarial experiment:
/// a large primary (the natural reclaim victim), the datacenter-tax
/// sidecar, and a cache — sized so one misbehaving container pressures
/// the others.
pub fn build_host(seed: u64, scale: Scale) -> Machine {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::Zswap {
            // Smaller than the adversarial experiment's pool on
            // purpose: the planted offender must be able to exhaust
            // the offload path so its pressure reaches the victims.
            capacity_fraction: 0.10,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed,
        faults: None,
        ..MachineConfig::default()
    });
    machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.42)));
    machine.add_container_with(
        &tax::datacenter_tax(dram),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    machine.add_container(&apps::cache_a().with_mem_total(dram.mul_f64(0.30)));
    machine
}

/// One planted case's fleet-aggregated verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Planted scenario name.
    pub name: String,
    /// Planted offender index.
    pub offender: usize,
    /// Hosts where the causal ledger named the planted offender.
    pub causal_hits: usize,
    /// Hosts where the pro-rata heuristic named the planted offender.
    pub prorata_hits: usize,
    /// Hosts scored.
    pub hosts: usize,
    /// Mean causal per-edge L1 error, seconds.
    pub causal_err_secs: f64,
    /// Mean pro-rata per-edge L1 error, seconds.
    pub prorata_err_secs: f64,
    /// Mean counterfactual extra stall the plant caused, seconds.
    pub extra_stall_secs: f64,
}

/// Runs the cases' shared event-free baseline and every case in
/// `cases` on every host in one fleet pass: `grid[0]` holds the
/// baseline's outcomes and `grid[1 + i]` those of `cases[i]`, each in
/// host order.
///
/// # Panics
///
/// Panics if `cases` is empty or its cases do not share one baseline.
fn run_cases(
    runner: &FleetRunner,
    cases: &[PlantedScenario],
    scale: Scale,
) -> Vec<Vec<HostOutcome<ScenarioOutcome>>> {
    let baseline = &cases[0].baseline;
    assert!(
        cases
            .iter()
            .all(|c| c.baseline.events == baseline.events && c.baseline.faults == baseline.faults),
        "planted cases must share one baseline run"
    );
    let runs: Vec<&Scenario> = std::iter::once(baseline)
        .chain(cases.iter().map(|c| &c.scenario))
        .collect();
    let cfg = run_config(scale);
    let (grid, stats) = runner.run_grid(
        EXPERIMENT_SEED,
        &runs,
        HOSTS_PER_CASE,
        |scenario, host, _arena| run_scenario(build_host(host.seed, scale), scenario, &cfg).0,
    );
    // Diagnostics to stderr: stdout must stay bit-identical per --jobs.
    eprintln!("blame-validation: {}", stats.summary_line());
    grid
}

/// Scores one planted case from its hosts' `planted` outcomes and the
/// shared `baseline` outcomes, both in host order. A host whose
/// baseline or planted run panicked drops out of the case.
fn score_case(
    case: &PlantedScenario,
    baseline: &[HostOutcome<ScenarioOutcome>],
    planted: &[HostOutcome<ScenarioOutcome>],
) -> CaseResult {
    let rows: Vec<GroundTruthRow> = baseline
        .iter()
        .zip(planted)
        .filter_map(|(b, p)| Some(evaluate_planted(case, p.completed()?, b.completed()?)))
        .collect();
    let n = rows.len().max(1) as f64;
    CaseResult {
        name: case.scenario.name.clone(),
        offender: case.offender,
        causal_hits: rows.iter().filter(|r| r.causal_hit()).count(),
        prorata_hits: rows.iter().filter(|r| r.prorata_hit()).count(),
        hosts: rows.len(),
        causal_err_secs: rows.iter().map(|r| r.causal_err_secs).sum::<f64>() / n,
        prorata_err_secs: rows.iter().map(|r| r.prorata_err_secs).sum::<f64>() / n,
        extra_stall_secs: rows.iter().map(|r| r.extra_stall_secs).sum::<f64>() / n,
    }
}

/// Runs every planted case on the given runner, against one baseline
/// run per host.
pub fn simulate(runner: &FleetRunner, scale: Scale) -> Vec<CaseResult> {
    let cases = planted_cases(scale);
    let grid = run_cases(runner, &cases, scale);
    cases
        .iter()
        .zip(&grid[1..])
        .map(|(case, planted)| score_case(case, &grid[0], planted))
        .collect()
}

/// Regenerates the precision table on the given runner.
pub fn run(runner: &FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-blame-validation",
        "blame ground truth: causal provenance vs growth-pro-rata attribution",
    );
    let cases = simulate(runner, scale);
    out.line(format!(
        "{:<14} {:>3} {:>11} {:>12} {:>11} {:>12} {:>11}",
        "case", "off", "causal-hit", "prorata-hit", "causal-err", "prorata-err", "extra-stall"
    ));
    for c in &cases {
        out.line(format!(
            "{:<14} {:>3} {:>8}/{} {:>9}/{} {:>10.1}s {:>11.1}s {:>10.1}s",
            c.name,
            c.offender,
            c.causal_hits,
            c.hosts,
            c.prorata_hits,
            c.hosts,
            c.causal_err_secs,
            c.prorata_err_secs,
            c.extra_stall_secs,
        ));
    }
    out.line(String::new());
    let hosts: usize = cases.iter().map(|c| c.hosts).sum();
    let causal_hits: usize = cases.iter().map(|c| c.causal_hits).sum();
    let prorata_hits: usize = cases.iter().map(|c| c.prorata_hits).sum();
    let causal_err: f64 = cases.iter().map(|c| c.causal_err_secs).sum();
    let prorata_err: f64 = cases.iter().map(|c| c.prorata_err_secs).sum();
    out.line(format!(
        "top-offender precision: causal {} ({causal_hits}/{hosts}), pro-rata {} ({prorata_hits}/{hosts})",
        pct(causal_hits as f64 / hosts.max(1) as f64),
        pct(prorata_hits as f64 / hosts.max(1) as f64),
    ));
    out.line(format!(
        "per-edge charge error: causal {causal_err:.1}s vs pro-rata {prorata_err:.1}s"
    ));
    out.line(String::new());
    out.line("ground truth is counterfactual: each host replays seeded-identical".to_string());
    out.line("with and without the plant; the stall delta is the offender's bill".to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_ledger_names_every_planted_offender() {
        let cases = simulate(&FleetRunner::new(2), Scale::Quick);
        for c in &cases {
            assert_eq!(
                c.causal_hits, c.hosts,
                "causal ledger missed the plant in {c:?}"
            );
        }
        let causal: f64 = cases.iter().map(|c| c.causal_err_secs).sum();
        let prorata: f64 = cases.iter().map(|c| c.prorata_err_secs).sum();
        assert!(
            causal < prorata,
            "causal per-edge error {causal:.2}s must beat pro-rata {prorata:.2}s"
        );
    }

    #[test]
    fn a_host_without_a_baseline_drops_out_of_the_case() {
        let scale = Scale::Quick;
        let cases = &planted_cases(scale)[..1];
        let grid = run_cases(&FleetRunner::new(2), cases, scale);
        let complete = score_case(&cases[0], &grid[0], &grid[1]);
        assert_eq!(complete.hosts, HOSTS_PER_CASE);
        let failed = |host: usize| {
            HostOutcome::Failed(tmo::FleetError {
                host,
                message: "panicked".to_string(),
            })
        };
        let mut baseline = grid[0].clone();
        baseline[1] = failed(1);
        let partial = score_case(&cases[0], &baseline, &grid[1]);
        assert_eq!(partial.hosts, HOSTS_PER_CASE - 1);
        let mut planted = grid[1].clone();
        planted[2] = failed(2);
        let partial = score_case(&cases[0], &grid[0], &planted);
        assert_eq!(partial.hosts, HOSTS_PER_CASE - 1);
    }

    #[test]
    fn cases_are_identical_for_any_worker_count() {
        let scale = Scale::Quick;
        let cases = &planted_cases(scale)[..1];
        let seq = run_cases(&FleetRunner::sequential(), cases, scale);
        assert_eq!(seq, run_cases(&FleetRunner::exact(4), cases, scale));
        assert_eq!(seq, run_cases(&FleetRunner::exact(8), cases, scale));
    }
}
