//! Figure 2: application memory coldness — the fraction of each
//! application's memory touched in the last 1 / 2 / 5 minutes, and the
//! cold remainder.
//!
//! Each application runs alone on an unconstrained host (no offloading)
//! for several simulated minutes; the kernel's per-page idle tracking
//! then buckets the footprint by last-access recency, exactly as the
//! paper's fleet profiler did.

use tmo::prelude::*;

use crate::report::{pct, ExperimentOutput, Scale};

/// One application's measured coldness row.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdnessRow {
    /// Application name.
    pub name: String,
    /// Fraction touched within the last minute.
    pub used_1min: f64,
    /// Additional fraction touched within 2 minutes.
    pub used_2min: f64,
    /// Additional fraction touched within 5 minutes.
    pub used_5min: f64,
    /// Fraction untouched for over 5 minutes.
    pub cold: f64,
}

/// Measures one profile's coldness histogram.
pub fn measure(profile: &AppProfile, scale: Scale) -> ColdnessRow {
    let mut machine = Machine::new(MachineConfig {
        dram: ByteSize::from_mib(scale.dram_mib()),
        seed: 17,
        ..MachineConfig::default()
    });
    let app = profile.with_mem_total(ByteSize::from_mib(scale.app_mib()));
    let id = machine.add_container(&app);
    // Run long enough for every non-cold page to be touched at least
    // once past the 5-minute horizon.
    let warmup = SimDuration::from_mins(scale.minutes().max(6));
    machine.run(warmup);
    let cg = machine.container(id).cgroup();
    let hist = machine.mm().coldness(
        cg,
        machine.now(),
        &[
            SimDuration::from_mins(1),
            SimDuration::from_mins(2),
            SimDuration::from_mins(5),
        ],
    );
    ColdnessRow {
        name: profile.name.clone(),
        used_1min: hist[0],
        used_2min: hist[1],
        used_5min: hist[2],
        cold: 1.0 - hist.iter().sum::<f64>(),
    }
}

/// Regenerates Figure 2 for the seven characterised applications, one
/// worker per application.
pub fn run(runner: &tmo::runner::FleetRunner, scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new("figure-02", "Recently used memory per application");
    out.line(format!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "App", "1-min", "+2-min", "+5-min", "cold"
    ));
    let mut colds = Vec::new();
    let profiles = tmo_workload::apps::figure2_apps();
    let rows = runner.run(profiles.len(), |i| measure(&profiles[i], scale));
    for row in rows {
        out.line(format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10}",
            row.name,
            pct(row.used_1min),
            pct(row.used_2min),
            pct(row.used_5min),
            pct(row.cold),
        ));
        colds.push(row.cold);
    }
    let avg = colds.iter().sum::<f64>() / colds.len() as f64;
    let min = colds.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let max = colds.iter().fold(0.0f64, |a, &b| a.max(b));
    out.line(format!(
        "cold average {} (paper ~35%), range {}..{} (paper 19-62%)",
        pct(avg),
        pct(min),
        pct(max)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_coldness_matches_its_figure2_row() {
        let row = measure(&tmo_workload::apps::feed(), Scale::Quick);
        // Paper: 50 / 8 / 12 / 30. The generator is stochastic; accept
        // a few points of slack.
        assert!(
            (row.used_1min - 0.50).abs() < 0.08,
            "1min {}",
            row.used_1min
        );
        assert!((row.cold - 0.30).abs() < 0.06, "cold {}", row.cold);
    }

    #[test]
    fn web_is_the_coldest_cache_b_the_hottest() {
        let web = measure(&tmo_workload::apps::web(), Scale::Quick);
        let cache_b = measure(&tmo_workload::apps::cache_b(), Scale::Quick);
        assert!(web.cold > 0.5, "web cold {}", web.cold);
        assert!(cache_b.cold < 0.26, "cache_b cold {}", cache_b.cold);
    }
}
