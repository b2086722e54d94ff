//! Extension experiment: adversarial scenarios, SLO degradation
//! scoring, and stall blame attribution.
//!
//! The paper evaluates TMO on healthy traffic; production is judged on
//! the bad days. This experiment replays the `tmo-scenarios` catalog —
//! diurnal waves, flash crowds, slow leaks, sidecar churn spikes,
//! deployment storms, and their composite — against small seeded
//! fleets and reports, per scenario: the degradation score (stall
//! budget + kills + time-to-recover), the SLO violation count, and the
//! headline causal blame edge ("whose reclaim pressure cost whom the
//! most stall").
//!
//! It closes with a paired A/B harness: the same seeded hosts run the
//! flash-crowd script under the mild production Senpai tuning and the
//! aggressive §4.4 config-B tuning, and the per-host paired
//! differences feed a t-statistic significance summary. The A tier is
//! the catalog's own flash-crowd runs, so only config-B adds runs.
//! Traffic is identical by construction (same seeds, same scenario,
//! same scripts), so every difference is the controller's doing.
//!
//! Every (scenario, host) pair, config-B tier included, runs in one
//! [`FleetRunner::run_grid`] pass. Like every experiment here, the
//! whole table is bit-identical for any `--jobs N`: scenario draws
//! hash `(seed, tick)` via `tmo_faults::FaultPlan` and hosts aggregate
//! in index order.

use tmo::prelude::*;
use tmo::runner::{FleetRunner, HostOutcome};
use tmo_scenarios::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// Experiment-level seed; host `i` runs with
/// `FleetRunner::host_seed(EXPERIMENT_SEED, i)`.
pub const EXPERIMENT_SEED: u64 = 2100;

/// Hosts replaying each scenario.
pub const HOSTS_PER_SCENARIO: usize = 4;

/// Scenario run length at this scale.
pub fn run_duration(scale: Scale) -> SimDuration {
    SimDuration::from_mins(scale.minutes().max(4))
}

/// The shipped catalog at this scale's run length and DRAM size.
pub fn scenarios(scale: Scale) -> Vec<Scenario> {
    catalog::all(run_duration(scale), ByteSize::from_mib(scale.dram_mib()))
}

/// Controller + scoring config. `aggressive` swaps the production
/// Senpai thresholds for the §4.4 config-B ones (20x the pressure
/// tolerance, 10x the reclaim rate, no IO gate) at the same
/// acceleration — the B tier of the A/B harness.
pub fn run_config(scale: Scale, aggressive: bool) -> ScenarioRunConfig {
    let mut senpai = SenpaiConfig::accelerated(scale.speedup());
    if aggressive {
        let b = SenpaiConfig::config_b();
        senpai.psi_threshold = b.psi_threshold;
        senpai.io_threshold = b.io_threshold;
        senpai.reclaim_ratio *= 2.0;
    }
    ScenarioRunConfig {
        senpai,
        oomd: Some(OomdConfig::default()),
        slo: SloConfig::default(),
        duration: run_duration(scale),
    }
}

/// Builds one adversarial host: three containers sized so that scripted
/// growth in any one of them pressures the others (the blame ledger
/// needs neighbours worth blaming).
pub fn build_host(
    seed: u64,
    scale: Scale,
    faults: Option<FaultConfig>,
    scratch: MachineScratch,
) -> Machine {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::with_scratch(
        MachineConfig {
            dram,
            swap: SwapKind::Zswap {
                capacity_fraction: 0.25,
                allocator: ZswapAllocator::Zsmalloc,
            },
            seed,
            faults,
            ..MachineConfig::default()
        },
        scratch,
    );
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

/// One scenario's aggregated fleet verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// Scenario name.
    pub name: String,
    /// Hosts lost to injected panics (composite stacks infra chaos).
    pub failed_hosts: usize,
    /// Mean total degradation score across surviving hosts.
    pub mean_degradation: f64,
    /// Mean host-level stall fraction across survivors.
    pub mean_stall_fraction: f64,
    /// Total kills across survivors.
    pub kills: u64,
    /// Worst time-to-recover anywhere in the fleet, seconds.
    pub worst_recovery_secs: f64,
    /// Containers that violated their SLO, summed across survivors.
    pub violations: usize,
    /// The biggest cross-container edge of the causal blame ledger
    /// anywhere in the fleet: `(victim name, offender name, stall
    /// seconds, share of victim's stall)`.
    pub top_blame: Option<(String, String, f64, f64)>,
}

/// The name of the catalog scenario the A/B harness compares on: the
/// sharpest clean-traffic one.
const AB_SCENARIO: &str = "flash_crowd";

/// Runs `scenarios` under the production tuning plus, if one of them
/// is `flash_crowd`, that scenario under config-B, on every host in one
/// fleet pass. Returns one point per scenario and the A/B verdict, whose
/// A tier is the `flash_crowd` point's own runs: same seeds, same
/// scenario, same config.
pub fn simulate(
    runner: &FleetRunner,
    scenarios: &[Scenario],
    scale: Scale,
) -> (Vec<ScenarioPoint>, Option<AbResult>) {
    let (production, config_b) = (run_config(scale, false), run_config(scale, true));
    let ab = scenarios.iter().position(|s| s.name == AB_SCENARIO);
    let cases: Vec<(&Scenario, &ScenarioRunConfig)> = scenarios
        .iter()
        .map(|s| (s, &production))
        .chain(ab.map(|a| (&scenarios[a], &config_b)))
        .collect();
    let (grid, stats) = runner.run_grid(
        EXPERIMENT_SEED,
        &cases,
        HOSTS_PER_SCENARIO,
        |&(scenario, cfg), host, arena| {
            let machine = build_host(host.seed, scale, scenario.faults, arena.take_scratch());
            let (outcome, machine) = run_scenario(machine, scenario, cfg);
            arena.put_scratch(machine.into_scratch());
            outcome
        },
    );
    // Diagnostics to stderr: stdout must stay bit-identical per --jobs.
    eprintln!("adversarial: {}", stats.summary_line());
    let points = scenarios
        .iter()
        .zip(&grid)
        .map(|(scenario, outcomes)| point(scenario, outcomes))
        .collect();
    let ab = ab.map(|a| ab_result(&scenarios[a].name, &grid[a], &grid[scenarios.len()]));
    (points, ab)
}

/// Aggregates one scenario's host outcomes into its point.
fn point(scenario: &Scenario, outcomes: &[HostOutcome<ScenarioOutcome>]) -> ScenarioPoint {
    for outcome in outcomes {
        if let Some(e) = outcome.failure() {
            eprintln!(
                "adversarial {}: host {} lost: {}",
                scenario.name, e.host, e.message
            );
        }
    }
    let survivors: Vec<&ScenarioOutcome> = outcomes.iter().filter_map(|o| o.completed()).collect();
    let failed_hosts = outcomes.len() - survivors.len();
    let n = survivors.len().max(1) as f64;
    let top_blame = survivors
        .iter()
        .filter_map(|o| {
            let edge = o.top_causal_blame()?;
            let victim = o.reports.get(edge.victim)?.name.clone();
            let offender = o.reports.get(edge.offender)?.name.clone();
            Some((victim, offender, edge.stall_secs, edge.share))
        })
        // max_by over f64 seconds: ties keep the earliest host, so the
        // choice is deterministic in host order.
        .fold(None::<(String, String, f64, f64)>, |best, e| match best {
            Some(b) if b.2 >= e.2 => Some(b),
            _ => Some(e),
        });
    ScenarioPoint {
        name: scenario.name.clone(),
        failed_hosts,
        mean_degradation: survivors.iter().map(|o| o.total_degradation).sum::<f64>() / n,
        mean_stall_fraction: survivors.iter().map(|o| o.stall_fraction).sum::<f64>() / n,
        kills: survivors.iter().map(|o| o.kills).sum(),
        worst_recovery_secs: survivors
            .iter()
            .map(|o| o.worst_recovery_secs)
            .fold(0.0, f64::max),
        violations: survivors
            .iter()
            .map(|o| o.reports.iter().filter(|r| r.violated).count())
            .sum(),
        top_blame,
    }
}

/// The paired A/B verdict on one scenario: per-host degradation under
/// the mild (A) and aggressive (B) tunings, plus significance.
#[derive(Debug, Clone, PartialEq)]
pub struct AbResult {
    /// Scenario compared on.
    pub scenario: String,
    /// Per-host total degradation under config A, host order.
    pub a_degradation: Vec<f64>,
    /// Per-host total degradation under config B, host order.
    pub b_degradation: Vec<f64>,
    /// Paired significance of the degradation difference.
    pub significance: Significance,
}

/// Pairs each host's A and B runs — same seed, same traffic script,
/// different controller tuning — and feeds the paired per-host
/// degradation scores to the significance test. A host whose A or B
/// run panicked drops out of the pairing.
fn ab_result(
    scenario: &str,
    a: &[HostOutcome<ScenarioOutcome>],
    b: &[HostOutcome<ScenarioOutcome>],
) -> AbResult {
    let (a_degradation, b_degradation): (Vec<f64>, Vec<f64>) = a
        .iter()
        .zip(b)
        .filter_map(|(a, b)| Some((a.completed()?, b.completed()?)))
        .map(|(a, b)| (a.total_degradation, b.total_degradation))
        .unzip();
    let significance = paired_significance(&a_degradation, &b_degradation);
    AbResult {
        scenario: scenario.to_string(),
        a_degradation,
        b_degradation,
        significance,
    }
}

/// Regenerates the adversarial table on the given runner.
pub fn run(runner: &FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-adversarial",
        "adversarial scenario replay: SLO degradation and blame attribution",
    );
    let (points, ab) = simulate(runner, &scenarios(scale), scale);
    let ab = ab.expect("the catalog holds the A/B scenario");
    out.line(format!(
        "{:<14} {:>7} {:>7} {:>6} {:>9} {:>6} {:>7}  {}",
        "scenario", "score", "stall", "kills", "recovery", "viols", "failed", "top blame edge"
    ));
    for p in &points {
        let blame = match &p.top_blame {
            Some((victim, offender, secs, share)) => format!(
                "{offender} cost {victim} {secs:.1}s ({})",
                pct(*share).trim()
            ),
            None => "-".to_string(),
        };
        out.line(format!(
            "{:<14} {:>7.1} {:>7} {:>6} {:>8.1}s {:>6} {:>4}/{}  {}",
            p.name,
            p.mean_degradation,
            pct(p.mean_stall_fraction),
            p.kills,
            p.worst_recovery_secs,
            p.violations,
            p.failed_hosts,
            HOSTS_PER_SCENARIO,
            blame,
        ));
    }
    out.line(String::new());

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.line(format!(
        "a/b on {}: production tuning {:.1} vs aggressive config-B {:.1} mean degradation",
        ab.scenario,
        mean(&ab.a_degradation),
        mean(&ab.b_degradation),
    ));
    out.line(format!(
        "  paired verdict: {}",
        ab.significance.verdict("production", "config-B")
    ));
    out.line(String::new());
    out.line("every scenario replays bit-identically for any --jobs N; both A/B".to_string());
    out.line(
        "tiers see byte-identical traffic, so the verdict isolates the controller".to_string(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_subset(names: &[&str]) -> Vec<Scenario> {
        let scale = Scale::Quick;
        scenarios(scale)
            .into_iter()
            .filter(|s| names.contains(&s.name.as_str()))
            .collect()
    }

    #[test]
    fn steady_scenario_is_the_quiet_baseline() {
        let scenarios = catalog_subset(&["steady"]);
        let (points, ab) = simulate(&FleetRunner::new(2), &scenarios, Scale::Quick);
        let steady = &points[0];
        assert_eq!(steady.failed_hosts, 0);
        assert_eq!(steady.kills, 0, "no events, no kills: {steady:?}");
        assert_eq!(steady.worst_recovery_secs, 0.0);
        assert_eq!(ab, None, "no A/B tier without {AB_SCENARIO}");
    }

    #[test]
    fn adversarial_scenarios_degrade_more_than_steady() {
        let scenarios = catalog_subset(&["steady", "slow_leak"]);
        let (points, _) = simulate(&FleetRunner::new(2), &scenarios, Scale::Quick);
        let (steady, leak) = (&points[0], &points[1]);
        assert!(
            leak.mean_degradation >= steady.mean_degradation,
            "leak {leak:?} vs steady {steady:?}"
        );
    }

    #[test]
    fn points_are_identical_for_any_worker_count() {
        let scenarios = catalog_subset(&["composite"]);
        let seq = simulate(&FleetRunner::sequential(), &scenarios, Scale::Quick);
        let par = simulate(&FleetRunner::exact(4), &scenarios, Scale::Quick);
        assert_eq!(seq, par);
    }

    #[test]
    fn ab_harness_is_deterministic_and_paired() {
        let scenarios = catalog_subset(&[AB_SCENARIO]);
        let (seq_points, seq) = simulate(&FleetRunner::sequential(), &scenarios, Scale::Quick);
        let (_, par) = simulate(&FleetRunner::exact(4), &scenarios, Scale::Quick);
        let seq = seq.expect("A/B tier ran");
        assert_eq!(Some(&seq), par.as_ref());
        assert_eq!(seq.significance.n, seq.a_degradation.len());
        assert_eq!(seq.a_degradation.len(), seq.b_degradation.len());
        // The A tier is the catalog point's own runs.
        let mean = seq.a_degradation.iter().sum::<f64>() / seq.a_degradation.len() as f64;
        assert_eq!(mean, seq_points[0].mean_degradation);
    }
}
