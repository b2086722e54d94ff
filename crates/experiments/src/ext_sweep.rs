//! Extension experiment: the §4.4 configuration-tuning sweep.
//!
//! The paper arrived at its single global production config by tuning
//! Senpai's parameters "across many production workloads" and picking
//! the setting that maximises savings *without* SLA regressions. This
//! experiment reproduces that methodology on the Web workload: a sweep
//! over the PSI threshold (with the reclaim ratio scaled along) mapping
//! out the savings-vs-RPS frontier. The production-like settings sit at
//! the knee: most of the savings, none of the regression.

use tmo::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The PSI threshold used (ratio).
    pub psi_threshold: f64,
    /// Steady-state savings fraction.
    pub savings: f64,
    /// Steady-tail RPS relative to the unthrottled maximum.
    pub rps_fraction: f64,
    /// Steady-tail memory pressure (%).
    pub mem_pressure: f64,
}

/// Runs one sweep point.
pub fn run_point(psi_threshold: f64, scale: Scale) -> SweepPoint {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        },
        seed: 131,
        ..MachineConfig::default()
    });
    let max_rps = 2500.0;
    let id = machine.add_container_with(
        &apps::web().with_mem_total(dram.mul_f64(0.6)),
        ContainerConfig {
            web: Some(WebServerConfig {
                max_rps,
                ..WebServerConfig::default()
            }),
            ..ContainerConfig::default()
        },
    );
    let config = SenpaiConfig {
        psi_threshold,
        io_threshold: psi_threshold,
        // Scale aggressiveness with tolerance, as the paper's candidate
        // configs did (Config B = higher threshold AND faster reclaim).
        reclaim_ratio: 0.0005 * scale.speedup() * (psi_threshold / 0.001).min(16.0),
        max_step_fraction: 0.08,
        write_limit_mbps: None,
        ..SenpaiConfig::production()
    };
    let mut rt = tmo::TmoRuntime::with_senpai(machine, config);
    rt.run(SimDuration::from_mins(scale.minutes()));
    let m = rt.machine();
    let rec = m.recorder();
    let horizon = m.now().as_secs_f64();
    let rps = rec
        .series("Web.rps")
        .map(|s| s.mean_between(horizon * 0.6, horizon))
        .unwrap_or(0.0);
    let mem = rec
        .series("Web.psi_mem_some10")
        .map(|s| s.mean_between(horizon * 0.6, horizon))
        .unwrap_or(0.0);
    SweepPoint {
        psi_threshold,
        savings: m.savings_fraction(id),
        rps_fraction: rps / max_rps,
        mem_pressure: mem,
    }
}

/// The sweep grid: PSI thresholds from well under production to Config-B
/// aggressive.
pub const THRESHOLDS: [f64; 5] = [0.0005, 0.001, 0.005, 0.02, 0.05];

/// Runs the full sweep, one worker per grid point.
pub fn simulate(runner: &tmo::runner::FleetRunner, scale: Scale) -> Vec<SweepPoint> {
    runner.run(THRESHOLDS.len(), |i| run_point(THRESHOLDS[i], scale))
}

/// Regenerates the tuning sweep on the given runner.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-sweep",
        "§4.4 Senpai tuning sweep: savings vs RPS frontier (Web, zswap)",
    );
    out.line(format!(
        "{:<16} {:>10} {:>12} {:>12}",
        "PSI threshold", "savings", "RPS (rel.)", "mem-PSI"
    ));
    let points = simulate(runner, scale);
    for p in &points {
        let marker = if (p.psi_threshold - 0.001).abs() < 1e-9 {
            "  <- production"
        } else {
            ""
        };
        out.line(format!(
            "{:<16} {:>10} {:>12} {:>11.2}%{}",
            format!("{:.2}%", p.psi_threshold * 100.0),
            pct(p.savings),
            pct(p.rps_fraction),
            p.mem_pressure,
            marker,
        ));
    }
    out.line(String::new());
    out.line("savings grow with tolerated pressure until the workingset is cut and".to_string());
    out.line("RPS pays — the production threshold sits at the knee of the frontier".to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_grow_with_tolerated_pressure() {
        let low = run_point(0.0005, Scale::Quick);
        let high = run_point(0.02, Scale::Quick);
        assert!(
            high.savings > low.savings,
            "high {} vs low {}",
            high.savings,
            low.savings
        );
        assert!(high.mem_pressure >= low.mem_pressure);
    }

    #[test]
    fn production_threshold_does_not_regress_rps() {
        let prod = run_point(0.001, Scale::Quick);
        assert!(
            prod.rps_fraction > 0.99,
            "production config regressed RPS to {}",
            prod.rps_fraction
        );
        assert!(prod.savings > 0.03, "savings {}", prod.savings);
    }

    #[test]
    fn the_most_aggressive_point_pays_in_rps() {
        let aggressive = run_point(0.05, Scale::Quick);
        let prod = run_point(0.001, Scale::Quick);
        assert!(
            aggressive.rps_fraction < prod.rps_fraction,
            "aggressive {} vs production {}",
            aggressive.rps_fraction,
            prod.rps_fraction
        );
    }
}
