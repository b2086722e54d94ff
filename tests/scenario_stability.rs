//! Scenario-stability gate: every shipped adversarial scenario is
//! bit-identical across worker counts.
//!
//! The `tmo-scenarios` engine modulates workloads mid-run (demand
//! waves, leaks, churn spikes, storm kills), which multiplies the ways
//! a stray RNG draw or iteration-order dependence could sneak in. This
//! sweep runs the *entire catalog* over a small fleet at `jobs` ∈
//! {1, 4, 8} (`exact()`, so the multi-worker merge path really runs
//! even on single-core CI boxes) and requires the full
//! [`ScenarioOutcome`] — every SLO report, every blame-ledger cell —
//! to compare equal. Promoted to a release-mode gate in
//! `scripts/ci.sh`.

use tmo::prelude::*;
use tmo::runner::FleetRunner;
use tmo_repro::{tmo, tmo_scenarios, tmo_workload};
use tmo_scenarios::prelude::*;
use tmo_workload::{apps, tax};

const HOSTS: usize = 5;
const SEED: u64 = 9200;

fn run_len() -> SimDuration {
    SimDuration::from_mins(2)
}

fn dram() -> ByteSize {
    ByteSize::from_mib(192)
}

fn build_host(seed: u64, faults: Option<FaultConfig>, scratch: MachineScratch) -> Machine {
    let dram = dram();
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
    machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.35)));
    machine.add_container_with(
        &tax::datacenter_tax(dram),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    machine
}

fn run_fleet(jobs: usize, scenario: &Scenario) -> Vec<ScenarioOutcome> {
    let cfg = ScenarioRunConfig {
        senpai: SenpaiConfig::accelerated(40.0),
        oomd: Some(OomdConfig::default()),
        slo: SloConfig::default(),
        duration: run_len(),
    };
    let (outcomes, _) =
        FleetRunner::exact(jobs).run_collect_seeded_sharded(SEED, HOSTS, |host, arena| {
            let machine = build_host(host.seed, scenario.faults, arena.take_scratch());
            let (outcome, machine) = run_scenario(machine, scenario, &cfg);
            arena.put_scratch(machine.into_scratch());
            outcome
        });
    // Composite stacks a chaos fault profile, so hosts may legitimately
    // panic; the stability contract covers survivors and failures alike
    // (a host must fail identically at every worker count).
    outcomes
        .into_iter()
        .map(|o| match o {
            tmo::runner::HostOutcome::Completed(v) => v,
            tmo::runner::HostOutcome::Failed(e) => ScenarioOutcome {
                scenario: format!("host {} failed: {}", e.host, e.message),
                reports: Vec::new(),
                blame: BlameLedger::new(0),
                causal: BlameLedger::new(0),
                total_degradation: -1.0,
                kills: 0,
                stall_fraction: -1.0,
                worst_recovery_secs: -1.0,
            },
        })
        .collect()
}

#[test]
fn every_shipped_scenario_is_bit_identical_across_jobs() {
    for scenario in catalog::all(run_len(), dram()) {
        let base = run_fleet(1, &scenario);
        assert_eq!(base.len(), HOSTS);
        for jobs in [4usize, 8] {
            let sweep = run_fleet(jobs, &scenario);
            assert_eq!(
                base, sweep,
                "scenario {} diverged at jobs={jobs}",
                scenario.name
            );
        }
        // Bitwise check on the f64 aggregates: Vec/struct PartialEq above
        // already compares every field, but make the float discipline
        // explicit for the headline scalar.
        for (a, b) in base.iter().zip(run_fleet(4, &scenario).iter()) {
            assert_eq!(
                a.total_degradation.to_bits(),
                b.total_degradation.to_bits(),
                "scenario {} degradation bits drifted",
                scenario.name
            );
        }
    }
}

#[test]
fn catalog_actually_exercises_the_engine() {
    // Guard against a silently-neutral catalog: across all scenarios at
    // least one host must record kills or meaningful degradation beyond
    // the steady baseline.
    let catalog = catalog::all(run_len(), dram());
    let steady: f64 = run_fleet(1, &catalog[0])
        .iter()
        .map(|o| o.total_degradation)
        .sum();
    let mut any_worse = false;
    for scenario in &catalog[1..] {
        let total: f64 = run_fleet(1, scenario)
            .iter()
            .map(|o| o.total_degradation)
            .sum();
        if total > steady {
            any_worse = true;
        }
    }
    assert!(
        any_worse,
        "no adversarial scenario degraded beyond steady ({steady})"
    );
}
