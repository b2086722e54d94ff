//! Figure 12: the Web application under TMO on a fast SSD (model C) vs
//! a slow SSD (model B) — the experiment that refutes the promotion
//! rate as a control metric.
//!
//! The paper's six panels: (a) p90 SSD read latency, (b) resident and
//! swap size, (c) promotion rate, (d) RPS, (e) memory pressure, (f) IO
//! pressure. The headline: the host with the *higher* promotion rate
//! (fast SSD) also delivers *higher* RPS, while PSI stays within the
//! target on both — so promotion rate cannot be a proxy for application
//! health, but pressure can.

use tmo::prelude::*;
use tmo_gswap::{derive_target, CalibrationSample};

use crate::report::{series_line, ExperimentOutput, Scale};

/// Measured summary of one tier.
#[derive(Debug, Clone)]
pub struct TierResult {
    /// Tier label.
    pub label: String,
    /// Mean p90 swap read latency (ms) over the run.
    pub read_p90_ms: f64,
    /// Final swap size (MiB).
    pub swap_mib: f64,
    /// Final resident size (MiB).
    pub resident_mib: f64,
    /// Mean promotion (swap-in) rate over the steady tail.
    pub promotion_rate: f64,
    /// Mean RPS over the steady tail.
    pub rps: f64,
    /// Mean memory pressure (% some avg10) over the steady tail.
    pub mem_pressure: f64,
    /// Mean IO pressure over the steady tail.
    pub io_pressure: f64,
    /// Recorded series.
    pub recorder: tmo_sim::Recorder,
}

/// Runs one tier: Web under Senpai with the given swap device, or under
/// the g-swap baseline when `gswap` is set.
pub fn run_tier(label: &str, model: SsdModel, gswap: bool, scale: Scale) -> TierResult {
    let dram = ByteSize::from_mib(scale.dram_mib());
    let mut machine = Machine::new(MachineConfig {
        dram,
        swap: SwapKind::Ssd(model),
        seed: 71,
        ..MachineConfig::default()
    });
    let profile = apps::web().with_mem_total(dram.mul_f64(0.75));
    machine.add_container_with(
        &profile,
        ContainerConfig {
            web: Some(WebServerConfig { max_rps: 1250.0 }),
            ..ContainerConfig::default()
        },
    );
    let mut rt = if gswap {
        // The offline-profiled static target: the same frozen number is
        // deployed to every device — that is the baseline's flaw.
        tmo::TmoRuntime::with_gswap(machine, calibrate_gswap(scale))
    } else {
        tmo::TmoRuntime::with_senpai(
            machine,
            SenpaiConfig {
                // Swap writes in this A/B load test are not endurance
                // constrained (§4.5 studies that separately).
                write_limit_mbps: None,
                ..SenpaiConfig::accelerated(scale.speedup())
            },
        )
    };
    rt.run(SimDuration::from_mins(scale.minutes()));
    let machine = rt.into_machine();
    let rec = machine.recorder().clone();
    let horizon = machine.now().as_secs_f64();
    let tail = |name: &str| {
        rec.series(name)
            .map(|s| s.mean_between(horizon * 0.6, horizon))
            .unwrap_or(0.0)
    };
    let last = |name: &str| rec.series(name).and_then(|s| s.last()).unwrap_or(0.0);
    TierResult {
        label: label.to_string(),
        read_p90_ms: rec
            .series("swap.read_p90_ms")
            .map(|s| s.mean())
            .unwrap_or(0.0),
        swap_mib: last("Web.swap_mib"),
        resident_mib: last("Web.resident_mib"),
        promotion_rate: tail("Web.promotion_rate"),
        rps: tail("Web.rps"),
        mem_pressure: tail("Web.psi_mem_some10"),
        io_pressure: tail("Web.psi_io_some10"),
        recorder: rec,
    }
}

/// Reproduces g-swap's offline profiling workflow (§1, §4.3): run the
/// application on the *calibration* machine — which has the fast SSD —
/// at increasing offload aggressiveness, record `(promotion rate, RPS)`
/// pairs, and freeze the highest rate that kept RPS within 2% of
/// baseline. The frozen number then ships to every machine, fast or
/// slow — the fragility TMO replaces with realtime pressure.
pub fn calibrate_gswap(scale: Scale) -> GswapConfig {
    let samples: Vec<CalibrationSample> = [1.0, 4.0, 16.0, 64.0]
        .iter()
        .map(|&speedup| {
            let dram = ByteSize::from_mib(scale.dram_mib());
            let mut machine = Machine::new(MachineConfig {
                dram,
                swap: SwapKind::Ssd(SsdModel::C), // the calibration host
                seed: 73,
                ..MachineConfig::default()
            });
            machine.add_container_with(
                &apps::web().with_mem_total(dram.mul_f64(0.75)),
                ContainerConfig {
                    web: Some(WebServerConfig { max_rps: 1250.0 }),
                    ..ContainerConfig::default()
                },
            );
            let mut rt = tmo::TmoRuntime::with_senpai(
                machine,
                SenpaiConfig {
                    psi_threshold: 0.02,
                    io_threshold: 0.10,
                    write_limit_mbps: None,
                    reclaim_ratio: 0.0005 * speedup,
                    ..SenpaiConfig::production()
                },
            );
            rt.run(SimDuration::from_mins(scale.minutes().min(4)));
            let m = rt.machine();
            let rec = m.recorder();
            let horizon = m.now().as_secs_f64();
            let tail = |name: &str| {
                rec.series(name)
                    .map(|s| s.mean_between(horizon * 0.6, horizon))
                    .unwrap_or(0.0)
            };
            CalibrationSample {
                promotion_rate: tail("Web.promotion_rate"),
                performance: tail("Web.rps"),
            }
        })
        .collect();
    let profile = derive_target(&samples, 0.02);
    profile.to_config(0.0005 * scale.speedup())
}

/// Runs the fast/slow pair under Senpai.
pub fn simulate(scale: Scale) -> (TierResult, TierResult) {
    (
        run_tier("fast SSD (C)", SsdModel::C, false, scale),
        run_tier("slow SSD (B)", SsdModel::B, false, scale),
    )
}

/// Regenerates Figure 12 (plus the g-swap baseline comparison of §4.3).
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "figure-12",
        "Web under TMO: fast SSD (C) vs slow SSD (B) — PSI vs promotion rate",
    );
    let (fast, slow) = simulate(scale);
    out.line(format!(
        "{:<22} {:>12} {:>12}",
        "Metric", "fast SSD", "slow SSD"
    ));
    let rows: [(&str, f64, f64); 7] = [
        ("p90 read latency (ms)", fast.read_p90_ms, slow.read_p90_ms),
        ("swap size (MiB)", fast.swap_mib, slow.swap_mib),
        ("resident (MiB)", fast.resident_mib, slow.resident_mib),
        (
            "promotion rate (/s)",
            fast.promotion_rate,
            slow.promotion_rate,
        ),
        ("RPS", fast.rps, slow.rps),
        ("mem pressure (%)", fast.mem_pressure, slow.mem_pressure),
        ("IO pressure (%)", fast.io_pressure, slow.io_pressure),
    ];
    for (name, f, s) in rows {
        out.line(format!("{name:<22} {f:>12.2} {s:>12.2}"));
    }
    out.line(String::new());
    out.line("paper: the fast-SSD host swaps MORE (higher promotion rate, more".to_string());
    out.line("memory offloaded) yet serves MORE requests — promotion rate is not a".to_string());
    out.line("proxy for performance; PSI adapts to the backend on both tiers".to_string());
    out.line(String::new());
    // §4.3 baseline: the same static promotion target on both devices.
    let g_fast = run_tier("gswap fast", SsdModel::C, true, scale);
    let g_slow = run_tier("gswap slow", SsdModel::B, true, scale);
    out.line(format!(
        "g-swap baseline (static target): fast SSD rps {:.0}, slow SSD rps {:.0};",
        g_fast.rps, g_slow.rps
    ));
    out.line(format!(
        "  identical promotion targets drive slow-SSD pressure to {:.2}% vs {:.2}%",
        g_slow.mem_pressure, g_fast.mem_pressure
    ));
    if let Some(s) = fast.recorder.series("Web.rps") {
        out.line(series_line("RPS [fast SSD]", s, 10));
    }
    if let Some(s) = slow.recorder.series("Web.rps") {
        out.line(series_line("RPS [slow SSD]", s, 10));
    }
    out.recorders.push(("fast_ssd".into(), fast.recorder));
    out.recorders.push(("slow_ssd".into(), slow.recorder));
    out.recorders.push(("gswap_fast".into(), g_fast.recorder));
    out.recorders.push(("gswap_slow".into(), g_slow.recorder));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ssd_offloads_more_and_serves_more() {
        let (fast, slow) = simulate(Scale::Quick);
        // (a) the latency gap exists.
        assert!(
            slow.read_p90_ms > fast.read_p90_ms * 2.0,
            "p90 {} vs {}",
            slow.read_p90_ms,
            fast.read_p90_ms
        );
        // (b) more offload on the fast device.
        assert!(
            fast.swap_mib > slow.swap_mib,
            "swap {} vs {}",
            fast.swap_mib,
            slow.swap_mib
        );
        // (c) higher promotion rate on the fast device...
        assert!(
            fast.promotion_rate >= slow.promotion_rate,
            "promo {} vs {}",
            fast.promotion_rate,
            slow.promotion_rate
        );
        // (d) ...and yet RPS is at least as good.
        assert!(
            fast.rps >= slow.rps * 0.98,
            "rps {} vs {}",
            fast.rps,
            slow.rps
        );
    }
}
