//! Driving one host through one scenario and scoring the result.

use tmo::prelude::*;

use crate::blame::{BlameAttribution, BlameLedger};
use crate::engine::ScenarioEngine;
use crate::scenario::Scenario;
use crate::slo::{SloConfig, SloReport, SloTracker};

/// Controller and scoring knobs for one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRunConfig {
    /// Senpai configuration for the run.
    pub senpai: SenpaiConfig,
    /// oomd configuration; `None` disables kills entirely.
    pub oomd: Option<OomdConfig>,
    /// SLO budgets and score weights.
    pub slo: SloConfig,
    /// Run length.
    pub duration: SimDuration,
}

/// The scored result of one host × one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (copied from the script).
    pub scenario: String,
    /// Per-container SLO verdicts, in container order.
    pub reports: Vec<SloReport>,
    /// The full growth-pro-rata blame ledger, filled by
    /// [`BlameLedger::observe`].
    pub blame: BlameLedger,
    /// The causal ledger: the same stall mass attributed from
    /// reclaim-pressure provenance instead of growth coincidence,
    /// filled by [`BlameLedger::charge`].
    pub causal: BlameLedger,
    /// Sum of per-container degradation scores.
    pub total_degradation: f64,
    /// Total kills across containers.
    pub kills: u64,
    /// Host-level stall fraction: stall seconds across containers over
    /// `containers × wall`.
    pub stall_fraction: f64,
    /// Worst per-container time-to-recover, seconds.
    pub worst_recovery_secs: f64,
}

impl ScenarioOutcome {
    /// The headline cross-container edge of the *causal* ledger, if any
    /// stall was charged across a container boundary.
    pub fn top_causal_blame(&self) -> Option<BlameAttribution> {
        self.causal.top_edge()
    }

    /// Whether any container violated its SLO.
    pub fn violated(&self) -> bool {
        self.reports.iter().any(|r| r.violated)
    }
}

/// Runs `scenario` against an already-populated machine and scores it.
///
/// The machine must be freshly built (tick never called): the engine is
/// attached before the first tick so the whole run is modulated. The
/// scenario's *infrastructure* faults are **not** applied here — they
/// must be baked into `MachineConfig::faults` at construction, because
/// a host's fault schedule is part of its identity.
///
/// Returns the outcome plus the machine (for scratch recycling and
/// post-run inspection).
pub fn run_scenario(
    mut machine: Machine,
    scenario: &Scenario,
    cfg: &ScenarioRunConfig,
) -> (ScenarioOutcome, Machine) {
    let n = machine.container_count();
    let names: Vec<String> = machine
        .container_ids()
        .map(|id| machine.container(id).name().to_string())
        .collect();
    let host_seed = machine.config().seed;
    machine.set_modulator(Box::new(ScenarioEngine::new(scenario.clone(), host_seed)));
    // Provenance is draw-free and output-free: enabling it cannot
    // perturb the simulation, so every pre-existing golden stays
    // byte-identical.
    machine.enable_causal_tracking();
    // Restarts reuse a container's cgroup, so this map is stable for
    // the whole run.
    let cgs: Vec<CgroupId> = (0..n)
        .map(|ci| machine.container(ContainerId(ci)).cgroup())
        .collect();

    let mut rt = TmoRuntime::with_senpai(machine, cfg.senpai.clone());
    if let Some(oomd) = cfg.oomd.clone() {
        rt = rt.with_oomd(oomd);
    }

    let mut tracker = SloTracker::new(cfg.slo, names.clone());
    let mut blame = BlameLedger::new(n);
    let mut prev_resident: Vec<f64> = (0..n)
        .map(|ci| {
            let m = rt.machine();
            let cg = m.container(ContainerId(ci)).cgroup();
            m.mm().cgroup_stat(cg).resident().as_u64() as f64
        })
        .collect();
    let mut causal = BlameLedger::new(n);
    let mut charges: Vec<ProvenanceCharge> = Vec::new();
    let mut stalls = vec![SimDuration::ZERO; n];
    let mut psis = vec![0.0f64; n];
    let mut growth = vec![0.0f64; n];

    let deadline = rt.machine().now() + cfg.duration;
    while rt.machine().now() < deadline {
        rt.tick();
        rt.machine_mut().drain_causal_charges(&mut charges);
        for ch in &charges {
            // Linear scans: hosts have a handful of containers, and the
            // map is in insertion order so attribution stays ordered.
            let victim = cgs.iter().position(|&cg| cg == ch.victim);
            let offender = cgs.iter().position(|&cg| cg == ch.offender);
            if let (Some(victim), Some(offender)) = (victim, offender) {
                causal.charge(victim, offender, ch.stall);
            }
        }
        let m = rt.machine();
        let dt = m.config().tick;
        let now = m.now();
        for ci in 0..n {
            let id = ContainerId(ci);
            let cg = m.container(id).cgroup();
            stalls[ci] = m.container(id).last_tick().mem_stall;
            psis[ci] = m.container(id).psi().some_avg10(Resource::Memory);
            let resident = m.mm().cgroup_stat(cg).resident().as_u64() as f64;
            growth[ci] = resident - prev_resident[ci];
            prev_resident[ci] = resident;
        }
        tracker.observe(now, dt, &stalls, &psis);
        blame.observe(&stalls, &growth);
    }

    let mut machine = rt.into_machine();
    machine.clear_modulator();
    let kills: Vec<u64> = machine
        .container_ids()
        .map(|id| machine.kill_count(id))
        .collect();
    let reports = tracker.finish(scenario, &kills);
    let wall: f64 = reports.first().map_or(0.0, |r| r.wall_secs);
    let total_stall: f64 = reports.iter().map(|r| r.stall_secs).sum();
    let outcome = ScenarioOutcome {
        scenario: scenario.name.clone(),
        total_degradation: reports.iter().map(|r| r.degradation).sum(),
        kills: kills.iter().sum(),
        stall_fraction: if wall > 0.0 && n > 0 {
            total_stall / (wall * n as f64)
        } else {
            0.0
        },
        worst_recovery_secs: reports
            .iter()
            .map(|r| r.worst_recovery_secs)
            .fold(0.0, f64::max),
        reports,
        blame,
        causal,
    };
    (outcome, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::catalog;
    use crate::scenario::Scenario;
    use tmo_workload::{apps, tax};

    fn host(seed: u64, faults: Option<FaultConfig>) -> Machine {
        let dram = ByteSize::from_mib(256);
        let mut m = Machine::new(MachineConfig {
            dram,
            swap: SwapKind::Zswap {
                capacity_fraction: 0.25,
                allocator: ZswapAllocator::Zsmalloc,
            },
            seed,
            faults,
            ..MachineConfig::default()
        });
        m.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.4)));
        m.add_container_with(
            &tax::datacenter_tax(dram),
            ContainerConfig {
                relaxed: true,
                ..ContainerConfig::default()
            },
        );
        m
    }

    fn cfg() -> ScenarioRunConfig {
        ScenarioRunConfig {
            senpai: SenpaiConfig::accelerated(40.0),
            oomd: Some(OomdConfig::default()),
            slo: SloConfig::default(),
            duration: SimDuration::from_mins(2),
        }
    }

    #[test]
    fn runs_are_bit_identical_for_the_same_seed() {
        let run = SimDuration::from_mins(2);
        let scenario = catalog::composite(run, ByteSize::from_mib(256));
        let (a, _) = run_scenario(host(7, scenario.faults), &scenario, &cfg());
        let (b, _) = run_scenario(host(7, scenario.faults), &scenario, &cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn slow_leak_degrades_more_than_steady() {
        let run = SimDuration::from_mins(2);
        let dram = ByteSize::from_mib(256);
        let (steady, _) = run_scenario(host(3, None), &catalog::steady(run, dram), &cfg());
        let (leak, _) = run_scenario(host(3, None), &catalog::slow_leak(run, dram), &cfg());
        assert!(
            leak.total_degradation >= steady.total_degradation,
            "leak {} vs steady {}",
            leak.total_degradation,
            steady.total_degradation
        );
        // The leak actually grew the leaker's footprint.
        assert!(
            leak.reports[0].stall_secs >= steady.reports[0].stall_secs,
            "leak should not reduce stall"
        );
    }

    #[test]
    fn storm_kills_are_counted() {
        let run = SimDuration::from_mins(2);
        let scenario = Scenario::new("all-storm", "t").with_event(
            crate::event::Target::All,
            crate::event::Window::new(SimTime::ZERO, run),
            crate::event::EventKind::ChurnStorm {
                crashes_per_min: 20.0,
            },
        );
        let (out, _) = run_scenario(host(11, None), &scenario, &cfg());
        assert!(out.kills > 0, "a 20/min storm over 2min must land kills");
        assert!(out.violated());
    }
}
