//! Extension experiment: deterministic chaos and graceful degradation.
//!
//! TMO runs on millions of servers, where devices die, telemetry reads
//! go stale, containers churn, and hosts panic as a matter of course
//! (§4.5, §5.2). This experiment sweeps a master fault-intensity dial
//! over a small mixed-backend fleet and reports the *degradation
//! curve*: how memory savings and tail swap latency erode — and how
//! many hosts are lost outright — as the fault rate rises.
//!
//! Every fault is scheduled by `tmo_faults::FaultPlan`
//! hashes of `(experiment seed, host index, tick)`, so the whole sweep
//! — including which hosts die and when — is bit-identical for any
//! `--jobs N`. Injected host panics are absorbed per host by
//! [`FleetRunner::run_grid`]; dead swap devices fail over
//! (tiered hosts route around the dead tier, the rest degrade to
//! zero-fill loads counted as `lost_loads`).

use tmo::prelude::*;
use tmo::runner::{FleetRunner, HostOutcome};

use crate::report::{pct, ExperimentOutput, Scale};

/// Experiment-level seed; host `i` runs with
/// `FleetRunner::host_seed(EXPERIMENT_SEED, i)`.
pub const EXPERIMENT_SEED: u64 = 1300;

/// Hosts per intensity point (backends cycle tiered / zswap / SSD).
pub const HOSTS_PER_POINT: usize = 6;

/// The swept intensity points.
pub const INTENSITIES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// The fault profile the sweep injects: the standard
/// [`FaultConfig::chaos`] rates with device death and host panics
/// boosted so a short run reliably exercises both backend failover and
/// fleet-level failure isolation.
pub fn chaos_profile(intensity: f64) -> FaultConfig {
    FaultConfig {
        device_death_per_min: 0.4,
        panic_per_min: 0.05,
        ..FaultConfig::chaos(intensity)
    }
}

/// What one surviving host reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosHostReport {
    /// Workload savings fraction at the end of the run.
    pub savings: f64,
    /// p99 swap-in latency over the run, milliseconds.
    pub p99_swap_ms: f64,
    /// Tier failovers the backend performed (dead-tier reroutes).
    pub failovers: u64,
    /// Swap-ins the backend could no longer serve (zero-filled).
    pub lost_loads: u64,
    /// Device faults injected into the backend stack.
    pub faults_injected: u64,
    /// Transient I/O errors absorbed by retry.
    pub io_errors: u64,
    /// Whether the whole swap stack was dead at the end.
    pub swap_dead: bool,
}

/// One aggregated point of the degradation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPoint {
    /// The fault-intensity dial for this point.
    pub intensity: f64,
    /// Hosts whose injected panic ended the run early.
    pub failed_hosts: usize,
    /// Mean savings across surviving hosts.
    pub mean_savings: f64,
    /// Worst surviving host's p99 swap-in latency, milliseconds.
    pub worst_p99_ms: f64,
    /// Total tier failovers across survivors.
    pub failovers: u64,
    /// Total zero-filled swap-ins across survivors.
    pub lost_loads: u64,
    /// Total injected device faults across survivors.
    pub faults_injected: u64,
    /// Total transient I/O errors absorbed across survivors.
    pub io_errors: u64,
}

/// Runs one chaos host: a Feed workload plus a relaxed datacenter-tax
/// sidecar under accelerated Senpai and oomd, with the host's fault
/// schedule derived from its seed.
///
/// The host adopts `scratch` for shard-arena buffer recycling and
/// returns its report plus the retired (scrubbed) scratch. Behavior is
/// bit-identical whatever the scratch previously held — the
/// `arena_reuse` tests pin this even under crash-churn and host-panic
/// schedules. Note a host whose injected panic fires never returns: its
/// scratch dies with it, and the arena falls back to a fresh default
/// for the next host.
pub fn run_host(
    seed: u64,
    index: usize,
    intensity: f64,
    scale: Scale,
    scratch: MachineScratch,
) -> (ChaosHostReport, MachineScratch) {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let swap = match index % 3 {
        0 => SwapKind::Tiered {
            zswap_fraction: 0.1,
            allocator: ZswapAllocator::Zsmalloc,
            ssd: SsdModel::C,
            demote_after: SimDuration::from_secs(30),
        },
        1 => SwapKind::Zswap {
            capacity_fraction: 0.25,
            allocator: ZswapAllocator::Zsmalloc,
        },
        _ => SwapKind::Ssd(SsdModel::C),
    };
    let mut machine = Machine::with_scratch(
        MachineConfig {
            dram,
            swap,
            seed,
            faults: Some(chaos_profile(intensity)),
            ..MachineConfig::default()
        },
        scratch,
    );
    machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.45)));
    machine.add_container_with(
        &tax::datacenter_tax(dram),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    let mut rt = tmo::TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(scale.speedup()))
        .with_oomd(OomdConfig::default());
    rt.run(SimDuration::from_mins(scale.minutes().max(5)));
    let m = rt.machine();
    let stats = m.mm().swap_stats().unwrap_or_default();
    let report = ChaosHostReport {
        savings: m.savings_fraction(ContainerId(0)).max(0.0),
        p99_swap_ms: m.swap_latency_p99_ms(),
        failovers: stats.failovers,
        lost_loads: m.mm().global_stat().lost_loads,
        faults_injected: stats.faults_injected,
        io_errors: stats.io_errors,
        swap_dead: m.mm().swap().is_some_and(|s| s.is_dead()),
    };
    (report, rt.into_machine().into_scratch())
}

/// Runs the sweep over `intensities` on the given runner: every
/// (intensity, host) pair in one fleet pass, hosts recycling machine
/// scratch through their worker's shard arena.
pub fn simulate(runner: &FleetRunner, intensities: &[f64], scale: Scale) -> Vec<ChaosPoint> {
    let (grid, stats) = runner.run_grid(
        EXPERIMENT_SEED,
        intensities,
        HOSTS_PER_POINT,
        |&intensity, host, arena| {
            let (report, scratch) = run_host(
                host.seed,
                host.index,
                intensity,
                scale,
                arena.take_scratch(),
            );
            arena.put_scratch(scratch);
            report
        },
    );
    // Diagnostics to stderr: stdout must stay bit-identical per --jobs.
    eprintln!("chaos: {}", stats.summary_line());
    intensities
        .iter()
        .zip(&grid)
        .map(|(&intensity, outcomes)| point(intensity, outcomes))
        .collect()
}

/// Aggregates one intensity's host outcomes into its point.
fn point(intensity: f64, outcomes: &[HostOutcome<ChaosHostReport>]) -> ChaosPoint {
    let survivors: Vec<&ChaosHostReport> = outcomes.iter().filter_map(|o| o.completed()).collect();
    let failed_hosts = outcomes.len() - survivors.len();
    for outcome in outcomes {
        if let Some(e) = outcome.failure() {
            eprintln!(
                "chaos intensity {intensity}: host {} lost: {}",
                e.host, e.message
            );
        }
    }
    let mean_savings = if survivors.is_empty() {
        0.0
    } else {
        survivors.iter().map(|r| r.savings).sum::<f64>() / survivors.len() as f64
    };
    ChaosPoint {
        intensity,
        failed_hosts,
        mean_savings,
        worst_p99_ms: survivors.iter().map(|r| r.p99_swap_ms).fold(0.0, f64::max),
        failovers: survivors.iter().map(|r| r.failovers).sum(),
        lost_loads: survivors.iter().map(|r| r.lost_loads).sum(),
        faults_injected: survivors.iter().map(|r| r.faults_injected).sum(),
        io_errors: survivors.iter().map(|r| r.io_errors).sum(),
    }
}

/// Regenerates the degradation table on the given runner.
pub fn run(runner: &FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-chaos",
        "deterministic fault injection: degradation curve over fault intensity",
    );
    let points = simulate(runner, &INTENSITIES, scale);
    out.line(format!(
        "{:<10} {:>9} {:>12} {:>10} {:>10} {:>11} {:>10} {:>8}",
        "intensity",
        "savings",
        "p99 swap",
        "io-errs",
        "failovers",
        "lost-loads",
        "dev-faults",
        "failed"
    ));
    for p in &points {
        out.line(format!(
            "{:<10.2} {:>9} {:>10.2}ms {:>10} {:>10} {:>11} {:>10} {:>5}/{}",
            p.intensity,
            pct(p.mean_savings),
            p.worst_p99_ms,
            p.io_errors,
            p.failovers,
            p.lost_loads,
            p.faults_injected,
            p.failed_hosts,
            HOSTS_PER_POINT,
        ));
    }
    out.line(String::new());
    let clean = &points[0];
    let worst = points.last().expect("sweep is non-empty");
    out.line(format!(
        "degradation: savings {} -> {}, p99 {:.2}ms -> {:.2}ms as intensity 0 -> 1",
        pct(clean.mean_savings),
        pct(worst.mean_savings),
        clean.worst_p99_ms,
        worst.worst_p99_ms,
    ));
    out.line("surviving hosts keep offloading through dead tiers, stale telemetry,".to_string());
    out.line("and container churn; panicked hosts are isolated per-host records,".to_string());
    out.line("not fleet failures — the schedule is bit-identical for any --jobs N".to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_matches_a_fault_free_fleet() {
        let p = &simulate(&FleetRunner::new(2), &[0.0], Scale::Quick)[0];
        assert_eq!(p.failed_hosts, 0);
        assert_eq!(p.io_errors, 0);
        assert_eq!(p.failovers, 0);
        assert_eq!(p.lost_loads, 0);
        assert_eq!(p.faults_injected, 0);
        assert!(p.mean_savings > 0.05, "savings {}", p.mean_savings);
    }

    #[test]
    fn full_chaos_degrades_gracefully_with_failover() {
        let p = &simulate(&FleetRunner::new(4), &[1.0], Scale::Quick)[0];
        // Faults actually landed somewhere in the surviving fleet.
        assert!(
            p.faults_injected > 0 || p.failed_hosts > 0,
            "chaos injected nothing: {p:?}"
        );
        // At least one host saw a permanent device death and completed
        // through failover / zero-fill degradation instead of panicking.
        assert!(
            p.failovers > 0 || p.lost_loads > 0,
            "no graceful degradation observed: {p:?}"
        );
        // The fleet is degraded, not destroyed.
        assert!(p.failed_hosts < HOSTS_PER_POINT, "every host died: {p:?}");
        assert!(p.mean_savings >= 0.0);
    }

    #[test]
    fn sweep_is_identical_for_any_worker_count() {
        // exact(4): really spawn 4 workers even on a small machine, so
        // the parallel merge path is what gets compared.
        let seq = simulate(&FleetRunner::sequential(), &[0.5], Scale::Quick);
        let par = simulate(&FleetRunner::exact(4), &[0.5], Scale::Quick);
        assert_eq!(seq, par);
    }
}
