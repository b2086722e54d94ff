//! Ablations of TMO's design choices (DESIGN.md §"ablation benches").
//!
//! 1. [`reclaim_balance`] — TMO's refault-balanced reclaim vs the legacy
//!    file-skewed heuristic (§3.4): aggregate paging under each.
//! 2. [`reclaim_knob`] — stateless `memory.reclaim` vs driving reclaim
//!    by lowering `memory.max` on a rapidly expanding workload (§3.3).
//! 3. [`io_psi_gate`] — Senpai with and without the IO-pressure gate
//!    (§3.3 / §4.4).
//! 4. [`zswap_allocator`] — zsmalloc vs z3fold vs zbud pool efficiency
//!    (§5.1).
//! 5. [`reclaim_interval`] — the 6-second period choice (§3.3: long
//!    enough to observe the delayed refault impact of the previous
//!    step before taking the next one).

use tmo::prelude::*;
use tmo_backends::ZswapAllocator as Alloc;

use crate::report::{pct, ExperimentOutput, Scale};

/// Outcome of the reclaim-balance ablation for one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceResult {
    /// Workingset refaults per second at steady state.
    pub refault_rate: f64,
    /// Swap-ins per second at steady state.
    pub swapin_rate: f64,
    /// Total paging (refaults + swap-ins) per second.
    pub paging_rate: f64,
    /// Savings achieved at the same pressure budget.
    pub savings_fraction: f64,
}

/// Runs Feed under Senpai with the given kernel reclaim policy and
/// measures steady-state paging.
pub fn reclaim_balance(policy: ReclaimPolicy, scale: Scale) -> BalanceResult {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(scale.dram_mib()),
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: Alloc::Zsmalloc,
        },
        policy,
        seed: 97,
        ..MachineConfig::default()
    });
    let id =
        machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(scale.app_mib())));
    let mut rt = tmo::TmoRuntime::with_senpai(
        machine,
        SenpaiConfig {
            // Push past the refault-free region so balancing matters.
            psi_threshold: 0.01,
            io_threshold: 0.05,
            write_limit_mbps: None,
            ..SenpaiConfig::accelerated(scale.speedup())
        },
    );
    rt.run(SimDuration::from_mins(scale.minutes()));
    let stat = rt
        .machine()
        .mm()
        .cgroup_stat(rt.machine().container(id).cgroup());
    BalanceResult {
        refault_rate: stat.refault_rate,
        swapin_rate: stat.swapin_rate,
        paging_rate: stat.refault_rate + stat.swapin_rate,
        savings_fraction: rt.machine().savings_fraction(id),
    }
}

/// Outcome of the reclaim-knob ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnobResult {
    /// Allocation failures the expanding workload suffered (growth
    /// blocked at the limit).
    pub alloc_failures: u64,
    /// Final resident (MiB).
    pub resident_mib: f64,
}

/// Drives offloading on an expanding workload either with the stateless
/// knob (Senpai calling `memory.reclaim`) or by pinning `memory.max`
/// below the expansion — the early-Senpai design §3.3 replaced. Runs in
/// file-only mode (the deployment stage where the early design lived),
/// where a limit below the anonymous workingset cannot be satisfied and
/// growth blocks.
pub fn reclaim_knob(stateless: bool, scale: Scale) -> KnobResult {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::None,
        seed: 101,
        ..MachineConfig::default()
    });
    let profile = apps::cache_b().with_mem_total(dram.mul_f64(0.5));
    let duration = SimDuration::from_mins(scale.minutes().min(4));
    // Rapid growth: the anon budget arrives in the first third.
    let growth = profile
        .anon_bytes()
        .mul_f64(0.9 / (duration.as_secs_f64() / 3.0));
    let id = machine.add_container_with(
        &profile,
        ContainerConfig {
            anon_growth: Some(growth),
            ..ContainerConfig::default()
        },
    );
    let cg = machine.container(id).cgroup();
    if stateless {
        let mut rt =
            tmo::TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(scale.speedup()));
        rt.run(duration);
        machine = rt.into_machine();
    } else {
        // The stateful driver: clamp memory.max below the workload's
        // eventual size, forcing every expansion through the limit —
        // exactly the early-Senpai failure mode §3.3 describes for
        // rapidly growing workloads.
        machine
            .mm_mut()
            .set_memory_max(cg, Some(profile.mem_total.mul_f64(0.55)));
        machine.run(duration);
    }
    let g = machine.mm().global_stat();
    let resident = machine.mm().memory_current(cg).as_mib();
    KnobResult {
        alloc_failures: g.alloc_failures,
        resident_mib: resident,
    }
}

/// Outcome of the IO-gate ablation for one controller variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoGateResult {
    /// Mean RPS over the steady tail.
    pub rps: f64,
    /// Mean IO pressure (%).
    pub io_pressure: f64,
    /// Final file cache (MiB).
    pub file_cache_mib: f64,
}

/// Runs Web under an aggressive Senpai with or without the IO gate.
pub fn io_psi_gate(gated: bool, scale: Scale) -> IoGateResult {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: Alloc::Zsmalloc,
        },
        seed: 103,
        ..MachineConfig::default()
    });
    machine.add_container_with(
        &apps::web().with_mem_total(dram.mul_f64(0.6)),
        ContainerConfig {
            web: Some(WebServerConfig { max_rps: 2500.0 }),
            ..ContainerConfig::default()
        },
    );
    let config = SenpaiConfig {
        psi_threshold: 0.02,
        io_threshold: if gated { 0.001 } else { 10.0 },
        reclaim_ratio: 0.0005 * scale.speedup() * 8.0,
        write_limit_mbps: None,
        ..SenpaiConfig::production()
    };
    let mut rt = tmo::TmoRuntime::with_senpai(machine, config);
    rt.run(SimDuration::from_mins(scale.minutes()));
    let machine = rt.into_machine();
    let rec = machine.recorder();
    let horizon = machine.now().as_secs_f64();
    IoGateResult {
        rps: rec
            .series("Web.rps")
            .map(|s| s.mean_between(horizon * 0.6, horizon))
            .unwrap_or(0.0),
        io_pressure: rec
            .series("Web.psi_io_some10")
            .map(|s| s.mean_between(horizon * 0.6, horizon))
            .unwrap_or(0.0),
        file_cache_mib: rec
            .series("Web.file_cache_mib")
            .and_then(|s| s.last())
            .unwrap_or(0.0),
    }
}

/// Net DRAM savings fraction when offloading a 3x-compressible workload
/// into a pool with the given allocator.
pub fn zswap_allocator(allocator: Alloc, scale: Scale) -> f64 {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(scale.dram_mib()),
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator,
        },
        seed: 107,
        ..MachineConfig::default()
    });
    let id =
        machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(scale.app_mib())));
    let mut rt = tmo::TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(scale.speedup()));
    rt.run(SimDuration::from_mins(scale.minutes()));
    let m = rt.machine();
    let page = m.config().page_size;
    let offloaded = m
        .mm()
        .cgroup_stat(m.container(id).cgroup())
        .anon_offloaded
        .to_bytes(page);
    let pool = m.mm().global_stat().zswap_pool_bytes;
    offloaded.saturating_sub(pool) / m.container(id).profile().mem_total
}

/// Outcome of the reclaim-interval ablation for one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalResult {
    /// The reclaim period used.
    pub interval: SimDuration,
    /// Peak memory pressure observed (% some avg10) — overshoot.
    pub peak_pressure: f64,
    /// Savings at the end of the run.
    pub savings: f64,
}

/// Runs Feed under Senpai with a given reclaim period at a fixed *step
/// size*. The production step was tuned for a 6-second cadence — long
/// enough for the previous step's refaults to surface in PSI before the
/// next decision. Taking the same step every second reclaims on stale
/// feedback and overshoots the pressure target; taking it every 30
/// seconds converges needlessly slowly.
pub fn reclaim_interval(interval: SimDuration, scale: Scale) -> IntervalResult {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(scale.dram_mib()),
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: Alloc::Zsmalloc,
        },
        seed: 109,
        ..MachineConfig::default()
    });
    let id =
        machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(scale.app_mib())));
    let config = SenpaiConfig {
        interval,
        write_limit_mbps: None,
        ..SenpaiConfig::accelerated(scale.speedup())
    };
    let mut rt = tmo::TmoRuntime::with_senpai(machine, config);
    rt.run(SimDuration::from_mins(scale.minutes()));
    let m = rt.machine();
    let peak = m
        .recorder()
        .series("Feed.psi_mem_some10")
        .map(|s| s.max())
        .unwrap_or(0.0);
    IntervalResult {
        interval,
        peak_pressure: peak,
        savings: m.savings_fraction(id),
    }
}

/// Runs all ablations and renders the summary, fanning each ablation's
/// arms out over the runner.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("ablations", "Design-choice ablations");

    out.line("1. reclaim balancing (refault-balanced vs legacy file-first):".to_string());
    let policies = [
        ReclaimPolicy::RefaultBalanced,
        ReclaimPolicy::LegacyFileFirst,
    ];
    let balance = runner.run(2, |i| reclaim_balance(policies[i], scale));
    let (balanced, legacy) = (balance[0], balance[1]);
    out.line(format!(
        "   balanced: {:6.1} refaults/s + {:6.1} swapins/s = {:6.1} paging/s, {:5.1}% saved",
        balanced.refault_rate,
        balanced.swapin_rate,
        balanced.paging_rate,
        balanced.savings_fraction * 100.0
    ));
    out.line(format!(
        "   legacy:   {:6.1} refaults/s + {:6.1} swapins/s = {:6.1} paging/s, {:5.1}% saved",
        legacy.refault_rate,
        legacy.swapin_rate,
        legacy.paging_rate,
        legacy.savings_fraction * 100.0
    ));
    out.line("   (balanced reclaim spreads cost across pools: fewer file refaults and".to_string());
    out.line("    more savings at the same pressure budget)".to_string());

    out.line("2. reclaim knob (stateless memory.reclaim vs memory.max driving):".to_string());
    let knob = runner.run(2, |i| reclaim_knob(i == 0, scale));
    let (stateless, stateful) = (knob[0], knob[1]);
    out.line(format!(
        "   stateless: {} alloc failures;  stateful limit: {} alloc failures",
        stateless.alloc_failures, stateful.alloc_failures
    ));

    out.line("3. IO-PSI gate under an aggressive controller:".to_string());
    let gate = runner.run(2, |i| io_psi_gate(i == 0, scale));
    let (gated, ungated) = (gate[0], gate[1]);
    out.line(format!(
        "   gated:   RPS {:7.0}, IO-PSI {:5.2}%, file cache {:6.0} MiB",
        gated.rps, gated.io_pressure, gated.file_cache_mib
    ));
    out.line(format!(
        "   ungated: RPS {:7.0}, IO-PSI {:5.2}%, file cache {:6.0} MiB",
        ungated.rps, ungated.io_pressure, ungated.file_cache_mib
    ));

    out.line("4. zswap allocator (net savings fraction, 3x-compressible data):".to_string());
    let allocs = [Alloc::Zsmalloc, Alloc::Z3fold, Alloc::Zbud];
    let alloc_savings = runner.run(allocs.len(), |i| zswap_allocator(allocs[i], scale));
    for (alloc, saved) in allocs.iter().zip(alloc_savings) {
        out.line(format!("   {:<10} {}", alloc.to_string(), pct(saved)));
    }

    out.line("5. reclaim period (fixed step size, tuned for the 6s cadence):".to_string());
    let periods = [1u64, 6, 30];
    let interval_results = runner.run(periods.len(), |i| {
        reclaim_interval(SimDuration::from_secs(periods[i]), scale)
    });
    for (secs, r) in periods.iter().zip(interval_results) {
        out.line(format!(
            "   every {:>2}s: peak pressure {:5.2}%, saved {}",
            secs,
            r.peak_pressure,
            pct(r.savings)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_reclaim_pages_less_than_legacy() {
        let balanced = reclaim_balance(ReclaimPolicy::RefaultBalanced, Scale::Quick);
        let legacy = reclaim_balance(ReclaimPolicy::LegacyFileFirst, Scale::Quick);
        // The legacy heuristic hammers the file workingset (§3.4)...
        assert!(
            legacy.refault_rate > balanced.refault_rate,
            "legacy {} vs balanced {}",
            legacy.refault_rate,
            balanced.refault_rate
        );
        // ...while the balanced policy converts the same pressure budget
        // into at least as much offloaded memory.
        assert!(
            balanced.savings_fraction >= legacy.savings_fraction * 0.9,
            "balanced {} vs legacy {}",
            balanced.savings_fraction,
            legacy.savings_fraction
        );
    }

    #[test]
    fn stateful_limit_blocks_expanding_workload() {
        let stateless = reclaim_knob(true, Scale::Quick);
        let stateful = reclaim_knob(false, Scale::Quick);
        assert_eq!(stateless.alloc_failures, 0, "{stateless:?}");
        assert!(stateful.alloc_failures > 0, "{stateful:?}");
    }

    #[test]
    fn io_gate_protects_the_file_cache() {
        let gated = io_psi_gate(true, Scale::Quick);
        let ungated = io_psi_gate(false, Scale::Quick);
        assert!(
            gated.file_cache_mib > ungated.file_cache_mib,
            "gated {} vs ungated {}",
            gated.file_cache_mib,
            ungated.file_cache_mib
        );
        assert!(gated.io_pressure <= ungated.io_pressure + 0.01);
    }

    #[test]
    fn short_periods_overshoot_pressure() {
        // §3.3: reclaiming again before the previous step's refaults
        // surface makes the controller overshoot its pressure target.
        let fast = reclaim_interval(SimDuration::from_secs(1), Scale::Quick);
        let production = reclaim_interval(SimDuration::from_secs(6), Scale::Quick);
        assert!(
            fast.peak_pressure > production.peak_pressure,
            "1s peak {} vs 6s peak {}",
            fast.peak_pressure,
            production.peak_pressure
        );
    }

    #[test]
    fn long_periods_converge_more_slowly() {
        let production = reclaim_interval(SimDuration::from_secs(6), Scale::Quick);
        let slow = reclaim_interval(SimDuration::from_secs(30), Scale::Quick);
        assert!(
            production.savings >= slow.savings * 0.95,
            "6s saved {} vs 30s saved {}",
            production.savings,
            slow.savings
        );
    }

    #[test]
    fn zsmalloc_nets_the_most_savings() {
        let zs = zswap_allocator(Alloc::Zsmalloc, Scale::Quick);
        let zbud = zswap_allocator(Alloc::Zbud, Scale::Quick);
        assert!(zs > zbud, "zsmalloc {zs} vs zbud {zbud}");
    }
}
