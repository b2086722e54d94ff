//! Offline application profiling for the promotion-rate baseline.
//!
//! g-swap "relies on extensive offline application profiling, and sets a
//! static target page-promotion rate" (§1). This module reproduces that
//! workflow: run the application once in a calibration tier while
//! sweeping offload aggressiveness, record `(promotion rate, performance)`
//! pairs, and derive the highest promotion rate whose observed
//! performance stayed within a tolerance of the unoffloaded baseline.
//! The derived number is then frozen into [`crate::GswapConfig`] — which
//! is exactly the fragility §4.3 exposes: the number bakes in the
//! calibration machine's device characteristics.

/// One calibration observation: a promotion rate and the application
/// performance (higher is better, e.g. RPS) measured at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Observed swap-ins per second.
    pub promotion_rate: f64,
    /// Application performance metric at that rate.
    pub performance: f64,
}

/// The result of an offline profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineProfile {
    /// The derived static target promotion rate.
    pub target_promotion_rate: f64,
    /// Baseline (zero-offload) performance the tolerance was applied to.
    pub baseline_performance: f64,
    /// Samples the derivation used, sorted by promotion rate.
    pub samples: Vec<CalibrationSample>,
}

/// Derives the static promotion-rate target from calibration samples:
/// the highest observed promotion rate whose performance stayed within
/// `tolerance` (e.g. 0.02 = 2%) of the best zero-ish-rate performance.
///
/// Returns a conservative zero-rate profile when no sample tolerates the
/// loss (the profiler would disable offloading for such an app).
///
/// # Panics
///
/// Panics if `samples` is empty or `tolerance` is negative.
pub fn derive_target(samples: &[CalibrationSample], tolerance: f64) -> OfflineProfile {
    assert!(!samples.is_empty(), "profiling needs at least one sample");
    assert!(tolerance >= 0.0, "negative tolerance {tolerance}");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| {
        a.promotion_rate
            .partial_cmp(&b.promotion_rate)
            .expect("finite rates")
    });
    // The baseline is the performance at the lowest promotion rate.
    let baseline = sorted[0].performance;
    let floor = baseline * (1.0 - tolerance);
    let target = sorted
        .iter()
        .filter(|s| s.performance >= floor)
        .map(|s| s.promotion_rate)
        .fold(0.0, f64::max);
    OfflineProfile {
        target_promotion_rate: target,
        baseline_performance: baseline,
        samples: sorted,
    }
}

impl OfflineProfile {
    /// Freezes the profile into a controller config with the given
    /// reclaim step, mirroring how the profiled number ships to the
    /// fleet.
    pub fn to_config(&self, reclaim_ratio: f64) -> crate::GswapConfig {
        crate::GswapConfig {
            target_promotion_rate: self.target_promotion_rate.max(f64::MIN_POSITIVE),
            reclaim_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rate: f64, perf: f64) -> CalibrationSample {
        CalibrationSample {
            promotion_rate: rate,
            performance: perf,
        }
    }

    #[test]
    fn picks_the_knee_of_the_curve() {
        // Performance flat until 80/s, then collapsing.
        let samples = [
            sample(0.0, 1000.0),
            sample(20.0, 998.0),
            sample(50.0, 995.0),
            sample(80.0, 990.0),
            sample(120.0, 900.0),
            sample(200.0, 600.0),
        ];
        let profile = derive_target(&samples, 0.02);
        assert_eq!(profile.target_promotion_rate, 80.0);
        assert_eq!(profile.baseline_performance, 1000.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let samples = [
            sample(120.0, 900.0),
            sample(0.0, 1000.0),
            sample(50.0, 995.0),
        ];
        let profile = derive_target(&samples, 0.02);
        assert_eq!(profile.target_promotion_rate, 50.0);
        assert!(profile
            .samples
            .windows(2)
            .all(|w| w[0].promotion_rate <= w[1].promotion_rate));
    }

    #[test]
    fn intolerant_app_gets_zero_target() {
        // Any offloading hurts beyond tolerance.
        let samples = [sample(0.0, 1000.0), sample(10.0, 500.0)];
        let profile = derive_target(&samples, 0.01);
        assert_eq!(profile.target_promotion_rate, 0.0);
        // The frozen config still parses (target clamped positive).
        let config = profile.to_config(0.0005);
        assert!(config.target_promotion_rate > 0.0);
    }

    #[test]
    fn tolerance_widens_the_target() {
        let samples = [
            sample(0.0, 1000.0),
            sample(50.0, 970.0),
            sample(100.0, 940.0),
        ];
        let tight = derive_target(&samples, 0.01);
        let loose = derive_target(&samples, 0.10);
        assert_eq!(tight.target_promotion_rate, 0.0);
        assert_eq!(loose.target_promotion_rate, 100.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_panic() {
        let _ = derive_target(&[], 0.02);
    }
}
