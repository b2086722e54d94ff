//! Figure 13: Senpai configuration tuning — Config A vs Config B on
//! non-memory-bound Web hosts with a compressed-memory backend.
//!
//! Config B reclaims far more aggressively: it saves more memory but
//! collapses the file cache, so application bytecode misses the cache,
//! SSD read rates and IO pressure climb, and RPS regresses. Config A
//! (production) saves meaningful memory with pressure tracking the
//! no-TMO baseline. This is the experiment that motivated gating on IO
//! PSI as well as memory PSI.

use tmo::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// Measured summary of one tier.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Tier label.
    pub label: String,
    /// Final resident memory (MiB).
    pub resident_mib: f64,
    /// Mean RPS over the steady tail.
    pub rps: f64,
    /// Mean memory pressure (%) over the steady tail.
    pub mem_pressure: f64,
    /// Mean IO pressure (%).
    pub io_pressure: f64,
    /// Mean filesystem SSD read rate (IOPS).
    pub ssd_read_iops: f64,
    /// Final file cache size (MiB).
    pub file_cache_mib: f64,
    /// Recorded series.
    pub recorder: tmo_sim::Recorder,
}

/// Runs one tier with the given controller config (`None` = baseline).
pub fn run_tier(label: &str, config: Option<SenpaiConfig>, scale: Scale) -> ConfigResult {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed: 83,
        ..MachineConfig::default()
    });
    // Non-memory-bound host: the footprint fits comfortably.
    let profile = apps::web().with_mem_total(dram.mul_f64(0.6));
    machine.add_container_with(
        &profile,
        ContainerConfig {
            web: Some(WebServerConfig { max_rps: 2500.0 }),
            ..ContainerConfig::default()
        },
    );
    let mut rt = match config {
        Some(c) => tmo::TmoRuntime::with_senpai(machine, c),
        None => tmo::TmoRuntime::without_controller(machine),
    };
    rt.run(SimDuration::from_mins(scale.minutes() * 2));
    let machine = rt.into_machine();
    let rec = machine.recorder().clone();
    let horizon = machine.now().as_secs_f64();
    let tail = |name: &str| {
        rec.series(name)
            .map(|s| s.mean_between(horizon * 0.6, horizon))
            .unwrap_or(0.0)
    };
    let last = |name: &str| rec.series(name).and_then(|s| s.last()).unwrap_or(0.0);
    ConfigResult {
        label: label.to_string(),
        resident_mib: last("Web.resident_mib"),
        rps: tail("Web.rps"),
        mem_pressure: tail("Web.psi_mem_some10"),
        io_pressure: tail("Web.psi_io_some10"),
        ssd_read_iops: tail("fs.read_iops"),
        file_cache_mib: last("Web.file_cache_mib"),
        recorder: rec,
    }
}

/// Accelerated variants of the paper's two configs at this scale.
fn config_a(scale: Scale) -> SenpaiConfig {
    SenpaiConfig::accelerated(scale.speedup())
}

fn config_b(scale: Scale) -> SenpaiConfig {
    // Config B: tolerate much more pressure, reclaim much faster, and —
    // critically — no meaningful IO gate.
    SenpaiConfig {
        psi_threshold: 0.03,
        io_threshold: 0.50,
        reclaim_ratio: 0.0005 * scale.speedup() * 8.0,
        max_step_fraction: 0.08,
        ..SenpaiConfig::production()
    }
}

/// Runs baseline, Config A, and Config B tiers, one worker per tier.
pub fn simulate(runner: &tmo::runner::FleetRunner, scale: Scale) -> Vec<ConfigResult> {
    let tiers: [(&str, Option<SenpaiConfig>); 3] = [
        ("baseline (TMO off)", None),
        ("Config A (production)", Some(config_a(scale))),
        ("Config B (aggressive)", Some(config_b(scale))),
    ];
    runner.run(tiers.len(), |i| {
        let (label, config) = tiers[i].clone();
        run_tier(label, config, scale)
    })
}

/// Regenerates Figure 13 on the given runner.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "figure-13",
        "Senpai Config A vs Config B on non-memory-bound Web (zswap backend)",
    );
    let tiers = simulate(runner, scale);
    let baseline_rps = tiers[0].rps.max(1.0);
    out.line(format!(
        "{:<24} {:>10} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "Tier", "resident", "RPS", "mem-PSI", "IO-PSI", "ssd-reads", "file-cache"
    ));
    for t in &tiers {
        out.line(format!(
            "{:<24} {:>7.0}MiB {:>9.0} {:>8.2}% {:>8.2}% {:>10.0} {:>7.0}MiB",
            t.label,
            t.resident_mib,
            t.rps,
            t.mem_pressure,
            t.io_pressure,
            t.ssd_read_iops,
            t.file_cache_mib,
        ));
    }
    let a = &tiers[1];
    let b = &tiers[2];
    out.line(String::new());
    out.line(format!(
        "Config A: RPS {} of baseline (paper: neutral); Config B: RPS {} (paper: regression)",
        pct(a.rps / baseline_rps),
        pct(b.rps / baseline_rps)
    ));
    out.line("paper: B saves more memory but floors the file cache; bytecode misses".to_string());
    out.line("drive SSD reads and IO pressure up, and RPS regresses".to_string());
    for t in tiers {
        out.recorders.push((t.label.clone(), t.recorder));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_b_saves_more_but_regresses() {
        let tiers = simulate(&crate::FleetRunner::default(), Scale::Quick);
        let (baseline, a, b) = (&tiers[0], &tiers[1], &tiers[2]);
        // Both configs save memory relative to baseline.
        assert!(a.resident_mib < baseline.resident_mib * 0.98);
        assert!(b.resident_mib < a.resident_mib, "B should save more than A");
        // B floors the file cache and pays in IO.
        assert!(b.file_cache_mib < a.file_cache_mib);
        assert!(
            b.io_pressure > a.io_pressure,
            "B io {} vs A io {}",
            b.io_pressure,
            a.io_pressure
        );
        // And B's RPS regresses materially versus Config A.
        assert!(b.rps < a.rps * 0.97, "B rps {} vs A rps {}", b.rps, a.rps);
    }
}
