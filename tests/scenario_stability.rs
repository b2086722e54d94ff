//! Scenario-stability gate: every shipped adversarial scenario is
//! bit-identical across worker counts.
//!
//! The `tmo-scenarios` engine modulates workloads mid-run (demand
//! waves, leaks, churn spikes, storm kills), which multiplies the ways
//! a stray RNG draw or iteration-order dependence could sneak in. This
//! sweep runs the *entire catalog* over a small fleet — every
//! (scenario, host) pair in one [`FleetRunner::run_grid`] pass — at
//! `jobs` ∈ {1, 4, 8} (`exact()`, so the multi-worker merge path really
//! runs even on single-core CI boxes) and requires every host's
//! [`HostOutcome`] — the full [`ScenarioOutcome`], every SLO report,
//! every blame-ledger cell, or the same failure — to compare equal.
//! Promoted to a release-mode gate in `scripts/ci.sh`.

use tmo::prelude::*;
use tmo::runner::{FleetRunner, HostOutcome};
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

/// Every catalog scenario on every host, in one grid pass:
/// `[scenario][host]`.
fn run_catalog(jobs: usize) -> Vec<Vec<HostOutcome<ScenarioOutcome>>> {
    let cfg = ScenarioRunConfig {
        senpai: SenpaiConfig::accelerated(40.0),
        oomd: Some(OomdConfig::default()),
        slo: SloConfig::default(),
        duration: run_len(),
    };
    let catalog = catalog::all(run_len(), dram());
    let (grid, _) =
        FleetRunner::exact(jobs).run_grid(SEED, &catalog, HOSTS, |scenario, host, arena| {
            let machine = build_host(host.seed, scenario.faults, arena.take_scratch());
            let (outcome, machine) = run_scenario(machine, scenario, &cfg);
            arena.put_scratch(machine.into_scratch());
            outcome
        });
    grid
}

#[test]
fn every_shipped_scenario_is_bit_identical_across_jobs() {
    // Composite stacks a chaos fault profile, so hosts may legitimately
    // panic; the stability contract covers survivors and failures alike
    // (a host must fail identically at every worker count).
    let catalog = catalog::all(run_len(), dram());
    let base = run_catalog(1);
    assert_eq!(base.len(), catalog.len());
    assert!(base.iter().all(|hosts| hosts.len() == HOSTS));
    for jobs in [4usize, 8] {
        let sweep = run_catalog(jobs);
        for ((scenario, a), b) in catalog.iter().zip(&base).zip(&sweep) {
            assert_eq!(a, b, "scenario {} diverged at jobs={jobs}", scenario.name);
            // Bitwise check on the f64 aggregates: Vec/struct PartialEq
            // above already compares every field, but make the float
            // discipline explicit for the headline scalar.
            for (a, b) in a.iter().zip(b) {
                if let (Some(a), Some(b)) = (a.completed(), b.completed()) {
                    assert_eq!(
                        a.total_degradation.to_bits(),
                        b.total_degradation.to_bits(),
                        "scenario {} degradation bits drifted",
                        scenario.name
                    );
                }
            }
        }
    }
}

#[test]
fn catalog_actually_exercises_the_engine() {
    // Guard against a silently-neutral catalog: across all scenarios at
    // least one host must record kills or meaningful degradation beyond
    // the steady baseline (catalog[0]).
    let totals: Vec<f64> = run_catalog(1)
        .iter()
        .map(|hosts| {
            hosts
                .iter()
                .filter_map(|o| o.completed())
                .map(|o| o.total_degradation)
                .sum()
        })
        .collect();
    let steady = totals[0];
    assert!(
        totals[1..].iter().any(|&total| total > steady),
        "no adversarial scenario degraded beyond steady ({steady})"
    );
}
