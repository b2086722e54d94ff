//! Figure 14: swap-out rate with and without write regulation.
//!
//! A cluster of hosts runs the Ads B application (poorly compressible →
//! SSD backend) for fourteen compressed "days". For the first seven,
//! Senpai is unregulated; from day eight it modulates reclaim so the
//! device write rate settles at the 1 MB/s endurance-safe threshold.
//! The figure plots the p50 and p90 swap-out rate across the cluster.

use tmo::prelude::*;
use tmo::runner::FleetRunner;

use crate::report::{ExperimentOutput, Scale};

/// Experiment-level seed; host `h` runs with
/// `FleetRunner::host_seed(EXPERIMENT_SEED, h)`.
pub const EXPERIMENT_SEED: u64 = 100;

/// Per-day cluster percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayRow {
    /// Day number, 1-based.
    pub day: u32,
    /// Whether write regulation was active.
    pub regulated: bool,
    /// p50 swap-out MB/s across the cluster.
    pub p50: f64,
    /// p90 swap-out MB/s across the cluster.
    pub p90: f64,
}

/// Number of cluster hosts per scale.
fn hosts(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 8,
        Scale::Quick => 4,
    }
}

/// Simulated length of one "day".
fn day_len(scale: Scale) -> SimDuration {
    match scale {
        Scale::Paper => SimDuration::from_mins(1),
        Scale::Quick => SimDuration::from_secs(45),
    }
}

/// An unregulated-but-otherwise-production Senpai able to sustain churn
/// at this scale (pressure threshold relaxed so the write rate, not the
/// pressure gate, is the binding constraint — as on the paper's Ads B
/// batch tier).
fn unregulated(scale: Scale) -> SenpaiConfig {
    SenpaiConfig {
        psi_threshold: 0.20,
        io_threshold: 0.80,
        reclaim_ratio: 0.005 * scale.speedup(),
        max_step_fraction: 0.20,
        interval: SimDuration::from_secs(3),
        write_limit_mbps: None,
    }
}

/// The same controller with the 1 MB/s write limit switched on.
fn regulated(scale: Scale) -> SenpaiConfig {
    SenpaiConfig {
        write_limit_mbps: Some(1.0),
        ..unregulated(scale)
    }
}

/// Runs one host through all fourteen days and returns its per-day mean
/// swap-out rate (MB/s).
pub fn run_host(seed: u64, scale: Scale) -> Vec<f64> {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::Ssd(SsdModel::C),
        seed,
        ..MachineConfig::default()
    });
    machine.add_container(&apps::ads_b().with_mem_total(dram.mul_f64(0.6)));
    let day = day_len(scale);

    let mut rt = tmo::TmoRuntime::with_senpai(machine, unregulated(scale));
    rt.run(day * 7);
    let machine = rt.into_machine();
    let mut rt = tmo::TmoRuntime::with_senpai(machine, regulated(scale));
    rt.run(day * 7);

    let machine = rt.into_machine();
    let rec = machine.recorder();
    let series = rec
        .series("swap.write_mbps")
        .expect("swap device records write rate");
    let day_secs = day.as_secs_f64();
    (0..14)
        .map(|d| series.mean_between(d as f64 * day_secs, (d + 1) as f64 * day_secs))
        .collect()
}

/// Runs the cluster on the given runner and aggregates per-day
/// percentiles. Output is bit-identical for any worker count.
pub fn simulate(runner: &FleetRunner, scale: Scale) -> Vec<DayRow> {
    let n = hosts(scale);
    let (per_host, _) = runner
        .try_run(EXPERIMENT_SEED, n, |host, _| run_host(host.seed, scale))
        .expect("fleet host simulation");

    (0..14)
        .map(|d| {
            let mut rates: Vec<f64> = per_host.iter().map(|h| h[d]).collect();
            rates.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            DayRow {
                day: d as u32 + 1,
                regulated: d >= 7,
                p50: rates[rates.len() / 2],
                p90: rates[(rates.len() as f64 * 0.9) as usize % rates.len()],
            }
        })
        .collect()
}

/// Regenerates Figure 14 on the given runner.
pub fn run(runner: &FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "figure-14",
        "Swap-out rate with and without write regulation (Ads B cluster)",
    );
    let rows = simulate(runner, scale);
    out.line(format!(
        "{:<6} {:<14} {:>12} {:>12}",
        "Day", "regulation", "p50 (MB/s)", "p90 (MB/s)"
    ));
    for row in &rows {
        out.line(format!(
            "{:<6} {:<14} {:>12.2} {:>12.2}",
            row.day,
            if row.regulated { "1 MB/s limit" } else { "off" },
            row.p50,
            row.p90,
        ));
    }
    let mean =
        |rows: &[&DayRow]| rows.iter().map(|r| r.p90).sum::<f64>() / rows.len().max(1) as f64;
    let before: Vec<&DayRow> = rows.iter().filter(|r| !r.regulated).collect();
    let after: Vec<&DayRow> = rows.iter().filter(|r| r.regulated && r.day > 8).collect();
    out.line(format!(
        "p90 mean: {:.2} MB/s unregulated → {:.2} MB/s regulated (paper: modulated to 1 MB/s)",
        mean(&before),
        mean(&after)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regulation_clamps_the_write_rate() {
        let rows = simulate(&FleetRunner::default(), Scale::Quick);
        assert_eq!(rows.len(), 14);
        let unreg_p90: f64 = rows[2..7].iter().map(|r| r.p90).sum::<f64>() / 5.0;
        let reg_p90: f64 = rows[9..14].iter().map(|r| r.p90).sum::<f64>() / 5.0;
        // Without regulation the cluster writes well above the limit;
        // with it, the p90 settles near or below ~1 MB/s.
        assert!(unreg_p90 > 1.2, "unregulated p90 {unreg_p90}");
        assert!(
            reg_p90 < unreg_p90 * 0.7,
            "regulated p90 {reg_p90} vs {unreg_p90}"
        );
        assert!(reg_p90 < 1.5, "regulated p90 {reg_p90}");
    }
}
