//! The single dial the chaos experiment sweeps.

use tmo_sim::SimDuration;

/// Fault rates for one run, all scaled by a master `intensity` dial.
///
/// Per-minute rates are converted to per-tick probabilities with
/// [`FaultConfig::per_tick`]; per-operation rates scale linearly with
/// intensity. `intensity == 0.0` disables every fault, so an `off()`
/// config wrapped around a backend is behaviourally transparent.
///
/// # Example
///
/// ```
/// use tmo_faults::FaultConfig;
///
/// assert!(FaultConfig::off().is_off());
/// let chaos = FaultConfig::chaos(0.5);
/// assert!(!chaos.is_off());
/// assert_eq!(chaos, FaultConfig::chaos(0.5)); // pure value type
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master dial in `[0, 1]`; every rate below is multiplied by it.
    pub intensity: f64,
    /// Latency-spike windows starting per minute (device congestion,
    /// firmware GC pauses); each multiplies access latency tenfold
    /// while open.
    pub spike_per_min: f64,
    /// Per-I/O probability of a transient error, resolved by bounded
    /// retry with exponential backoff (latency cost, never data loss).
    pub transient_io_rate: f64,
    /// Permanent device deaths per minute (§5.2 failover trigger).
    pub device_death_per_min: f64,
    /// Write-endurance wear-outs per minute (§4.5: device refuses
    /// further writes).
    pub wear_out_per_min: f64,
    /// zswap pool-exhaustion events per minute.
    pub pool_exhaust_per_min: f64,
    /// Per-read probability a PSI / `memory.current` sample is stale
    /// (last value repeated).
    pub stale_signal_rate: f64,
    /// Per-read probability a sample is dropped entirely.
    pub dropped_signal_rate: f64,
    /// Container crash/restart events per minute (workload churn).
    pub crash_per_min: f64,
    /// Mid-run host panics per minute (the fleet runner must absorb
    /// these into per-host failure records).
    pub panic_per_min: f64,
}

impl FaultConfig {
    /// No faults at all; wrapping with this config is a no-op.
    pub fn off() -> Self {
        FaultConfig {
            intensity: 0.0,
            spike_per_min: 0.0,
            transient_io_rate: 0.0,
            device_death_per_min: 0.0,
            wear_out_per_min: 0.0,
            pool_exhaust_per_min: 0.0,
            stale_signal_rate: 0.0,
            dropped_signal_rate: 0.0,
            crash_per_min: 0.0,
            panic_per_min: 0.0,
        }
    }

    /// The standard chaos profile at a given intensity in `[0, 1]`.
    ///
    /// At full intensity a ten-minute host sees a handful of latency
    /// spikes and transient errors, roughly one permanent device fault,
    /// noticeable signal staleness, container churn, and a modest
    /// chance of a host panic — enough that every degradation path is
    /// exercised while most hosts still complete.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not in `[0, 1]`.
    pub fn chaos(intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "fault intensity outside [0, 1]: {intensity}"
        );
        FaultConfig {
            intensity,
            spike_per_min: 1.0,
            transient_io_rate: 0.0005,
            device_death_per_min: 0.12,
            wear_out_per_min: 0.05,
            pool_exhaust_per_min: 0.05,
            stale_signal_rate: 0.05,
            dropped_signal_rate: 0.02,
            crash_per_min: 0.2,
            panic_per_min: 0.02,
        }
    }

    /// Whether every fault is disabled.
    pub fn is_off(&self) -> bool {
        self.intensity == 0.0
    }

    /// Converts an intensity-scaled per-minute rate into a per-tick
    /// probability for ticks of length `dt`.
    pub fn per_tick(&self, rate_per_min: f64, dt: SimDuration) -> f64 {
        (rate_per_min * self.intensity * dt.as_secs_f64() / 60.0).clamp(0.0, 1.0)
    }

    /// Intensity-scaled per-operation probability.
    pub fn per_op(&self, rate: f64) -> f64 {
        (rate * self.intensity).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_off() {
        let off = FaultConfig::off();
        assert!(off.is_off());
        assert_eq!(off.per_tick(10.0, SimDuration::from_secs(1)), 0.0);
        assert_eq!(off.per_op(1.0), 0.0);
    }

    #[test]
    fn rates_scale_with_intensity() {
        let half = FaultConfig::chaos(0.5);
        let full = FaultConfig::chaos(1.0);
        let dt = SimDuration::from_secs(6);
        assert!(half.per_tick(half.crash_per_min, dt) < full.per_tick(full.crash_per_min, dt));
        // 1/min at intensity 1 over a 6 s tick = 0.1 per tick.
        assert!((full.per_tick(1.0, dt) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "fault intensity outside")]
    fn chaos_rejects_out_of_range() {
        let _ = FaultConfig::chaos(1.5);
    }
}
