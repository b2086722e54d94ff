//! Figure 9: memory savings across eight applications, normalised to
//! their resident memory size, split into anonymous and file-backed
//! savings, with each application on its production backend (compressed
//! memory for the compressible five, SSD for the quantized/encoded
//! four).

use tmo::fleet::{app_savings, AppSavings};
use tmo::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// One application's measured savings.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsRow {
    /// The measured split.
    pub savings: AppSavings,
    /// Whether the backend was compressed memory.
    pub zswap: bool,
}

/// Runs one application under the production-style Senpai config on its
/// backend and measures steady-state savings.
pub fn measure(profile: &AppProfile, zswap: bool, scale: Scale) -> SavingsRow {
    let swap = if zswap {
        SwapKind::Zswap {
            capacity_fraction: 0.3,
            allocator: ZswapAllocator::Zsmalloc,
        }
    } else {
        SwapKind::Ssd(SsdModel::E)
    };
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(scale.dram_mib()),
        swap,
        seed: 47,
        ..MachineConfig::default()
    });
    let app = profile.with_mem_total(ByteSize::from_mib(scale.app_mib()));
    let id = machine.add_container(&app);
    let mut rt = tmo::TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(scale.speedup()));
    rt.run(SimDuration::from_mins(scale.minutes()));
    SavingsRow {
        savings: app_savings(rt.machine(), id),
        zswap,
    }
}

/// Regenerates Figure 9 for all eight applications (nine bars — Ads A
/// appears once; the paper's x-axis lists nine labels), one worker per
/// application.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "figure-09",
        "Memory savings per application (normalised to resident size)",
    );
    out.line(format!(
        "{:<12} {:<10} {:>8} {:>8} {:>8}",
        "App", "backend", "anon", "file", "total"
    ));
    let mut zswap_totals = Vec::new();
    let mut ssd_totals = Vec::new();
    let apps = tmo_workload::apps::figure9_apps();
    let rows = runner.run(apps.len(), |i| measure(&apps[i].0, apps[i].1, scale));
    for (row, (_, zswap)) in rows.into_iter().zip(apps) {
        let backend = if zswap { "zswap" } else { "ssd" };
        out.line(format!(
            "{:<12} {:<10} {:>8} {:>8} {:>8}",
            row.savings.name,
            backend,
            pct(row.savings.anon_fraction),
            pct(row.savings.file_fraction),
            pct(row.savings.total()),
        ));
        if zswap {
            zswap_totals.push(row.savings.total());
        } else {
            ssd_totals.push(row.savings.total());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.line(format!(
        "zswap apps mean {} (paper 7-12%); ssd apps mean {} (paper 10-19%)",
        pct(mean(&zswap_totals)),
        pct(mean(&ssd_totals))
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressible_app_saves_on_zswap() {
        let row = measure(&tmo_workload::apps::ads_a(), true, Scale::Quick);
        assert!(row.savings.total() > 0.04, "total {}", row.savings.total());
        assert!(row.savings.total() < 0.30);
    }

    #[test]
    fn poorly_compressible_app_saves_more_on_ssd_than_zswap() {
        // The Figure 9 argument: ML-style data (1.3x) would save almost
        // nothing net on zswap, so SSD is its cost-effective backend.
        let on_ssd = measure(&tmo_workload::apps::ml(), false, Scale::Quick);
        let on_zswap = measure(&tmo_workload::apps::ml(), true, Scale::Quick);
        assert!(
            on_ssd.savings.anon_fraction > on_zswap.savings.anon_fraction,
            "ssd {} vs zswap {}",
            on_ssd.savings.anon_fraction,
            on_zswap.savings.anon_fraction
        );
    }
}
