//! Senpai configuration presets.

use tmo_sim::SimDuration;

/// Tunable parameters of the Senpai control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SenpaiConfig {
    /// `PSI_threshold`: target `some` memory pressure (ratio in `[0, 1]`).
    /// Production: 0.1% = 0.001.
    pub psi_threshold: f64,
    /// `reclaim_ratio`: fraction of `current_mem` reclaimed per period at
    /// zero pressure. Production: 0.0005.
    pub reclaim_ratio: f64,
    /// Reclaim period. Production: 6 s — long enough to observe the
    /// delayed refault impact of the previous step.
    pub interval: SimDuration,
    /// Cap per period as a fraction of workload size. Production: 1%.
    pub max_step_fraction: f64,
    /// `some` IO-pressure gate: reclaim shrinks as IO pressure
    /// approaches this threshold.
    pub io_threshold: f64,
    /// §4.5 write regulation: modulate reclaim so the swap device's
    /// write rate stays near this many MB/s (`None` = unregulated).
    pub write_limit_mbps: Option<f64>,
}

impl SenpaiConfig {
    /// The production configuration (§3.3): ratio 0.0005, threshold
    /// 0.1%, 6 s period, 1% step cap, write regulation at 1 MB/s.
    pub fn production() -> Self {
        SenpaiConfig {
            psi_threshold: 0.001,
            reclaim_ratio: 0.0005,
            interval: SimDuration::from_secs(6),
            max_step_fraction: 0.01,
            io_threshold: 0.001,
            write_limit_mbps: Some(1.0),
        }
    }

    /// "Config A" of §4.4: the mild setting that ships in production.
    pub fn config_a() -> Self {
        SenpaiConfig::production()
    }

    /// "Config B" of §4.4: the aggressive setting that saves more memory
    /// but regresses Web RPS by over-reclaiming file cache — it
    /// tolerates 20x the pressure and reclaims 10x faster, and does not
    /// gate on IO pressure.
    pub fn config_b() -> Self {
        SenpaiConfig {
            psi_threshold: 0.02,
            reclaim_ratio: 0.005,
            io_threshold: 0.10,
            ..SenpaiConfig::production()
        }
    }

    /// A time-compressed variant for simulations that cannot afford
    /// multi-hour convergence: `speedup`× larger steps at the same
    /// thresholds, with the per-period cap scaled proportionally (and
    /// clamped to 8%). Shape-preserving: the equilibrium pressure is
    /// unchanged; only convergence speed scales.
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not at least 1.
    pub fn accelerated(speedup: f64) -> Self {
        assert!(speedup >= 1.0, "speedup {speedup} must be >= 1");
        let base = SenpaiConfig::production();
        SenpaiConfig {
            reclaim_ratio: base.reclaim_ratio * speedup,
            max_step_fraction: (base.max_step_fraction * speedup / 10.0).clamp(0.01, 0.08),
            ..base
        }
    }
}

impl Default for SenpaiConfig {
    fn default() -> Self {
        SenpaiConfig::production()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_matches_paper_values() {
        let c = SenpaiConfig::production();
        assert_eq!(c.psi_threshold, 0.001); // 0.1%
        assert_eq!(c.reclaim_ratio, 0.0005);
        assert_eq!(c.interval, SimDuration::from_secs(6));
        assert_eq!(c.max_step_fraction, 0.01); // 1% cap
        assert_eq!(c.write_limit_mbps, Some(1.0));
    }

    #[test]
    fn config_b_is_more_aggressive_than_a() {
        let a = SenpaiConfig::config_a();
        let b = SenpaiConfig::config_b();
        assert!(b.psi_threshold > a.psi_threshold);
        assert!(b.reclaim_ratio > a.reclaim_ratio);
        assert!(b.io_threshold > a.io_threshold);
    }

    #[test]
    fn accelerated_preserves_thresholds() {
        let c = SenpaiConfig::accelerated(10.0);
        assert_eq!(c.psi_threshold, SenpaiConfig::production().psi_threshold);
        assert_eq!(c.reclaim_ratio, 0.005);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn accelerated_below_one_panics() {
        let _ = SenpaiConfig::accelerated(0.5);
    }
}
