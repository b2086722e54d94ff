//! Figure 11: Web on memory-bound hosts — three phases.
//!
//! The Web application loads its file cache up front and lazily grows
//! anonymous memory with traffic until the host is memory-bound. The
//! baseline tier (no offloading) self-throttles and loses RPS. With TMO
//! enabled, offloading (phase 2: SSD, phase 3: compressed memory) keeps
//! free memory available and the RPS drop is eliminated; zswap saves
//! more of Web's memory than SSD because Web's 4x-compressible data is
//! cheap to hold compressed while its latency sensitivity limits how
//! hard Senpai can push the slower SSD backend.

use tmo::prelude::*;

use crate::report::{pct, series_line, ExperimentOutput, Scale};

/// One phase's outcome.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label.
    pub label: String,
    /// Mean RPS over the first 30% of the phase.
    pub early_rps: f64,
    /// Mean RPS over the final 30% of the phase.
    pub late_rps: f64,
    /// Resident memory at the end, normalised to the baseline phase's
    /// final resident size (1.0 = no saving).
    pub final_resident_mib: f64,
    /// Recorded series.
    pub recorder: tmo_sim::Recorder,
}

/// Builds and runs one phase on a fresh (restarted) host.
pub fn run_phase(label: &str, swap: SwapKind, senpai: bool, scale: Scale) -> PhaseResult {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap,
        seed: 61,
        ..MachineConfig::default()
    });
    // Footprint slightly above DRAM so the host becomes memory-bound as
    // anon grows.
    let profile = apps::web().with_mem_total(dram.mul_f64(1.05));
    let duration = SimDuration::from_mins(scale.minutes());
    // The anon budget (50% of footprint) arrives over ~60% of the phase.
    let growth_per_sec = profile
        .anon_bytes()
        .mul_f64(0.9 / (duration.as_secs_f64() * 0.6));
    machine.add_container_with(
        &profile,
        ContainerConfig {
            web: Some(WebServerConfig::default()),
            anon_growth: Some(growth_per_sec),
            anon_preload_fraction: 0.1,
            ..ContainerConfig::default()
        },
    );
    let mut rt = if senpai {
        tmo::TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(scale.speedup()))
    } else {
        tmo::TmoRuntime::without_controller(machine)
    };
    rt.run(duration);
    let machine = rt.into_machine();
    let rec = machine.recorder().clone();
    let rps = rec.series("Web.rps").expect("web records rps");
    let horizon = machine.now().as_secs_f64();
    let resident = rec
        .series("Web.resident_mib")
        .expect("resident recorded")
        .last()
        .unwrap_or(0.0);
    PhaseResult {
        label: label.to_string(),
        early_rps: rps.mean_between(0.0, horizon * 0.3),
        late_rps: rps.mean_between(horizon * 0.7, horizon),
        final_resident_mib: resident,
        recorder: rec,
    }
}

/// Runs all three phases, one worker per phase.
pub fn simulate(runner: &tmo::runner::FleetRunner, scale: Scale) -> Vec<PhaseResult> {
    let phases: [(&str, SwapKind, bool); 3] = [
        ("baseline (no offload)", SwapKind::None, false),
        ("TMO: SSD offload", SwapKind::Ssd(SsdModel::C), true),
        (
            "TMO: compressed memory",
            SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            true,
        ),
    ];
    runner.run(phases.len(), |i| {
        let (label, swap, senpai) = phases[i].clone();
        run_phase(label, swap, senpai, scale)
    })
}

/// Regenerates Figure 11 on the given runner.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "figure-11",
        "Web on memory-bound hosts: RPS and resident memory, 3 phases",
    );
    let phases = simulate(runner, scale);
    let baseline_resident = phases[0].final_resident_mib.max(1.0);
    out.line(format!(
        "{:<26} {:>10} {:>10} {:>10} {:>14}",
        "Phase", "early RPS", "late RPS", "RPS drop", "norm. resident"
    ));
    for p in &phases {
        let drop = 1.0 - p.late_rps / p.early_rps.max(1.0);
        out.line(format!(
            "{:<26} {:>10.0} {:>10.0} {:>10} {:>14.3}",
            p.label,
            p.early_rps,
            p.late_rps,
            pct(drop),
            p.final_resident_mib / baseline_resident,
        ));
    }
    out.line("paper: baseline loses >20% RPS over two hours as the host becomes".to_string());
    out.line("memory-bound; TMO eliminates the drop; zswap saves ~13% of Web memory".to_string());
    out.line("at peak vs ~4% for SSD".to_string());
    out.line(String::new());
    for p in &phases {
        if let Some(s) = p.recorder.series("Web.rps") {
            out.line(series_line(&format!("RPS [{}]", p.label), s, 10));
        }
    }
    for p in phases {
        out.recorders.push((p.label, p.recorder));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_loses_rps_and_tmo_recovers_it() {
        let phases = simulate(&crate::FleetRunner::default(), Scale::Quick);
        let baseline = &phases[0];
        let ssd = &phases[1];
        let zswap = &phases[2];
        let drop = |p: &PhaseResult| 1.0 - p.late_rps / p.early_rps.max(1.0);
        // The baseline self-throttles noticeably once memory-bound.
        assert!(drop(baseline) > 0.10, "baseline drop {}", drop(baseline));
        // TMO tiers end with materially higher RPS than the baseline.
        assert!(
            zswap.late_rps > baseline.late_rps * 1.1,
            "zswap {} vs baseline {}",
            zswap.late_rps,
            baseline.late_rps
        );
        assert!(
            ssd.late_rps > baseline.late_rps,
            "ssd {} vs baseline {}",
            ssd.late_rps,
            baseline.late_rps
        );
        // And they hold less resident memory than the baseline.
        assert!(zswap.final_resident_mib < baseline.final_resident_mib);
    }
}
