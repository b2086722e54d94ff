//! The g-swap baseline controller.
//!
//! Lagar-Cavilla et al. (ASPLOS '19) — "g-swap" in the TMO paper —
//! drive zswap offloading in Google's fleet with a *static target
//! promotion rate* derived from extensive offline profiling: keep
//! swapping cold pages out as long as the observed swap-in (promotion)
//! rate stays below a per-application target, and back off when it
//! exceeds it. TMO's §4.3 argues this metric is not robust: it ignores
//! the backend's performance (the same promotion rate is harmless on a
//! fast device and disastrous on a slow one) and it cannot see when
//! *more* offloading would help an application.
//!
//! This crate implements that control law as the comparison baseline
//! for the Figure 12 experiment.
//!
//! # Example
//!
//! ```
//! use tmo_gswap::{GswapController, GswapConfig, PromotionSignal};
//! use tmo_sim::ByteSize;
//!
//! let ctl = GswapController::new(GswapConfig::default());
//! let calm = PromotionSignal {
//!     current_mem: ByteSize::from_gib(1),
//!     promotion_rate: 0.0,
//! };
//! assert!(ctl.decide(&calm) > ByteSize::ZERO); // under target: offload
//! ```

pub mod profile;

pub use profile::{derive_target, CalibrationSample, OfflineProfile};

use tmo_sim::{ByteSize, SimDuration, SimTime};

/// Parameters of the promotion-rate control law.
#[derive(Debug, Clone, PartialEq)]
pub struct GswapConfig {
    /// The offline-profiled target promotion (swap-in) rate in
    /// events/second. Offloading proceeds while the observed rate stays
    /// below this.
    pub target_promotion_rate: f64,
    /// Fraction of `current_mem` reclaimed per period while under
    /// target.
    pub reclaim_ratio: f64,
}

/// Control period: Senpai's production period, so the two controllers
/// act equally often.
const INTERVAL: SimDuration = SimDuration::from_secs(6);

impl Default for GswapConfig {
    fn default() -> Self {
        GswapConfig {
            target_promotion_rate: 100.0,
            reclaim_ratio: 0.0005,
        }
    }
}

/// What the controller reads each period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionSignal {
    /// `memory.current` of the container.
    pub current_mem: ByteSize,
    /// Observed swap-ins per second.
    pub promotion_rate: f64,
}

/// The baseline controller.
#[derive(Debug, Clone)]
pub struct GswapController {
    config: GswapConfig,
    next_run: SimTime,
}

impl GswapController {
    /// Creates a controller that first runs one interval after start.
    pub fn new(config: GswapConfig) -> Self {
        GswapController {
            config,
            next_run: SimTime::ZERO + INTERVAL,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GswapConfig {
        &self.config
    }

    /// Whether a control period is due; advances the schedule when so.
    pub fn due(&mut self, now: SimTime) -> bool {
        if now >= self.next_run {
            self.next_run = now + INTERVAL;
            true
        } else {
            false
        }
    }

    /// The control law: reclaim a fixed step while the promotion rate is
    /// under target, scaled down linearly as it approaches; nothing at
    /// or above target. No awareness of device latency or application
    /// slowdown — that is the point of the baseline.
    pub fn decide(&self, signal: &PromotionSignal) -> ByteSize {
        let headroom = (1.0 - signal.promotion_rate / self.config.target_promotion_rate).max(0.0);
        signal
            .current_mem
            .mul_f64(self.config.reclaim_ratio * headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(rate: f64) -> PromotionSignal {
        PromotionSignal {
            current_mem: ByteSize::from_gib(1),
            promotion_rate: rate,
        }
    }

    #[test]
    fn under_target_reclaims_full_step() {
        let ctl = GswapController::new(GswapConfig::default());
        assert_eq!(
            ctl.decide(&signal(0.0)),
            ByteSize::from_gib(1).mul_f64(0.0005)
        );
    }

    #[test]
    fn step_shrinks_toward_target() {
        let ctl = GswapController::new(GswapConfig::default());
        let half = ctl.decide(&signal(50.0));
        assert_eq!(half, ByteSize::from_gib(1).mul_f64(0.00025));
    }

    #[test]
    fn at_or_over_target_stops() {
        let ctl = GswapController::new(GswapConfig::default());
        assert_eq!(ctl.decide(&signal(100.0)), ByteSize::ZERO);
        assert_eq!(ctl.decide(&signal(500.0)), ByteSize::ZERO);
    }

    #[test]
    fn ignores_everything_but_promotion_rate() {
        // The baseline has no input for device latency or pressure —
        // structurally. This test documents the limitation §4.3 exposes:
        // identical decisions for a fast and a slow backend.
        let ctl = GswapController::new(GswapConfig::default());
        let on_fast_ssd = ctl.decide(&signal(30.0));
        let on_slow_ssd = ctl.decide(&signal(30.0));
        assert_eq!(on_fast_ssd, on_slow_ssd);
    }

    #[test]
    fn schedule_fires_per_interval() {
        let mut ctl = GswapController::new(GswapConfig::default());
        assert!(!ctl.due(SimTime::from_secs(5)));
        assert!(ctl.due(SimTime::from_secs(6)));
        assert!(!ctl.due(SimTime::from_secs(8)));
    }
}
