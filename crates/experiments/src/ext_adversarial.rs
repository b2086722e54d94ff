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
//! flash-crowd script twice, under the mild production Senpai tuning
//! and the aggressive §4.4 config-B tuning, and the per-host paired
//! differences feed a t-statistic significance summary. Traffic is
//! identical by construction (same seeds, same scenario, same scripts),
//! so every difference is the controller's doing.
//!
//! Like every experiment here, the whole table is bit-identical for
//! any `--jobs N`: scenario draws hash `(seed, tick)` via
//! `tmo_faults::FaultPlan` and hosts aggregate in index order.

use tmo::prelude::*;
use tmo::runner::FleetRunner;
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

/// Runs one scenario's fleet on the given runner and aggregates.
pub fn run_point(runner: &FleetRunner, scenario: &Scenario, scale: Scale) -> ScenarioPoint {
    let cfg = run_config(scale, false);
    let (outcomes, stats) =
        runner.run_collect_seeded_sharded(EXPERIMENT_SEED, HOSTS_PER_SCENARIO, |host, arena| {
            let machine = build_host(host.seed, scale, scenario.faults, arena.take_scratch());
            let (outcome, machine) = run_scenario(machine, scenario, &cfg);
            arena.put_scratch(machine.into_scratch());
            outcome
        });
    // Diagnostics to stderr: stdout must stay bit-identical per --jobs.
    eprintln!("adversarial {}: {}", scenario.name, stats.summary_line());
    for outcome in &outcomes {
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

/// Runs the A/B harness: every host runs `scenario` twice — same seed,
/// same traffic script, different controller tuning — and the paired
/// per-host degradation scores feed the significance test.
pub fn run_ab(runner: &FleetRunner, scenario: &Scenario, scale: Scale) -> AbResult {
    let cfg_a = run_config(scale, false);
    let cfg_b = run_config(scale, true);
    let (outcomes, stats) =
        runner.run_collect_seeded_sharded(EXPERIMENT_SEED, HOSTS_PER_SCENARIO, |host, arena| {
            let machine = build_host(host.seed, scale, scenario.faults, arena.take_scratch());
            let (a, machine) = run_scenario(machine, scenario, &cfg_a);
            // Tier B rebuilds from the same seed: identical containers,
            // identical scripted traffic, different controller.
            let machine = build_host(host.seed, scale, scenario.faults, machine.into_scratch());
            let (b, machine) = run_scenario(machine, scenario, &cfg_b);
            arena.put_scratch(machine.into_scratch());
            (a.total_degradation, b.total_degradation)
        });
    eprintln!(
        "adversarial a/b {}: {}",
        scenario.name,
        stats.summary_line()
    );
    let pairs: Vec<(f64, f64)> = outcomes
        .iter()
        .filter_map(|o| o.completed())
        .copied()
        .collect();
    let a_degradation: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b_degradation: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let significance = paired_significance(&a_degradation, &b_degradation);
    AbResult {
        scenario: scenario.name.clone(),
        a_degradation,
        b_degradation,
        significance,
    }
}

/// Runs every catalog scenario on the given runner.
pub fn simulate(runner: &FleetRunner, scale: Scale) -> Vec<ScenarioPoint> {
    scenarios(scale)
        .iter()
        .map(|s| run_point(runner, s, scale))
        .collect()
}

/// Regenerates the adversarial table on the given runner.
pub fn run(runner: &FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-adversarial",
        "adversarial scenario replay: SLO degradation and blame attribution",
    );
    let points = simulate(runner, scale);
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

    // The paired A/B harness on the sharpest clean-traffic scenario.
    let run = run_duration(scale);
    let dram = ByteSize::from_mib(scale.dram_mib());
    let ab = run_ab(runner, &catalog::flash_crowd(run, dram), scale);
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

    #[test]
    fn steady_scenario_is_the_quiet_baseline() {
        let scale = Scale::Quick;
        let steady = run_point(
            &FleetRunner::new(2),
            &catalog::steady(run_duration(scale), ByteSize::from_mib(scale.dram_mib())),
            scale,
        );
        assert_eq!(steady.failed_hosts, 0);
        assert_eq!(steady.kills, 0, "no events, no kills: {steady:?}");
        assert_eq!(steady.worst_recovery_secs, 0.0);
    }

    #[test]
    fn adversarial_scenarios_degrade_more_than_steady() {
        let scale = Scale::Quick;
        let runner = FleetRunner::new(2);
        let run = run_duration(scale);
        let dram = ByteSize::from_mib(scale.dram_mib());
        let steady = run_point(&runner, &catalog::steady(run, dram), scale);
        let leak = run_point(&runner, &catalog::slow_leak(run, dram), scale);
        assert!(
            leak.mean_degradation >= steady.mean_degradation,
            "leak {leak:?} vs steady {steady:?}"
        );
    }

    #[test]
    fn points_are_identical_for_any_worker_count() {
        let scale = Scale::Quick;
        let scenario =
            catalog::composite(run_duration(scale), ByteSize::from_mib(scale.dram_mib()));
        let seq = run_point(&FleetRunner::sequential(), &scenario, scale);
        let par = run_point(&FleetRunner::exact(4), &scenario, scale);
        assert_eq!(seq, par);
    }

    #[test]
    fn ab_harness_is_deterministic_and_paired() {
        let scale = Scale::Quick;
        let scenario =
            catalog::flash_crowd(run_duration(scale), ByteSize::from_mib(scale.dram_mib()));
        let seq = run_ab(&FleetRunner::sequential(), &scenario, scale);
        let par = run_ab(&FleetRunner::exact(4), &scenario, scale);
        assert_eq!(seq, par);
        assert_eq!(seq.significance.n, seq.a_degradation.len());
        assert_eq!(seq.a_degradation.len(), seq.b_degradation.len());
    }
}
