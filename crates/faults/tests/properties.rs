//! Property tests for fault-schedule edge cases.
//!
//! Rate conversion never fires on zero-length windows or zero rates,
//! schedules that are supposed to fire on tick 0 actually do, and
//! overlapping fault classes draw independently.

use proptest::prelude::*;
use tmo_faults::{FaultConfig, FaultPlan, HostFaults};
use tmo_sim::SimDuration;

proptest! {
    /// Zero-length windows never fire: per_tick over dt = 0 is exactly 0
    /// regardless of rate or intensity, and a zero rate is 0 for any dt.
    #[test]
    fn zero_length_window_never_fires(
        i in 0.0f64..1.0,
        rate in 0.0f64..1000.0,
        dt_ms in 0u64..600_000,
        seed in any::<u64>(),
        host in 0u64..128,
        tick in any::<u64>(),
    ) {
        let c = FaultConfig::chaos(i);
        prop_assert_eq!(c.per_tick(rate, SimDuration::ZERO), 0.0);
        prop_assert_eq!(c.per_tick(0.0, SimDuration::from_millis(dt_ms)), 0.0);
        // And at the plan layer: probability 0 can never win a draw.
        let plan = FaultPlan::new(seed, host);
        prop_assert!(!plan.chance(tick, 0xDEAD, 0.0));
        // A host with dt = 0 schedules nothing, even at chaos(1.0).
        let hf = HostFaults::new(seed, host, FaultConfig::chaos(1.0));
        prop_assert!(!hf.panics_at(tick, SimDuration::ZERO));
        prop_assert_eq!(hf.crash_victim(tick, SimDuration::ZERO, 8), None);
    }

    /// Schedules can fire on tick 0: the very first tick participates in
    /// the hash like any other, so a saturated rate fires immediately.
    #[test]
    fn tick_zero_can_fire(seed in any::<u64>(), host in 0u64..128) {
        let plan = FaultPlan::new(seed, host);
        prop_assert!(plan.chance(0, 0xBEEF, 1.0));
        prop_assert!(plan.pick(0, 0xBEEF, 4).is_some());
        // A rate high enough to saturate the per-tick clamp fires a
        // panic and a crash on the host's first tick.
        let mut c = FaultConfig::chaos(1.0);
        c.panic_per_min = 1.0e9;
        c.crash_per_min = 1.0e9;
        let hf = HostFaults::new(seed, host, c);
        let dt = SimDuration::from_secs(1);
        prop_assert!(hf.panics_at(0, dt));
        prop_assert!(hf.crash_victim(0, dt, 3).is_some());
    }

    /// Overlapping fault windows stay independent per salt: saturating
    /// one class does not change whether another class fires on the
    /// same tick.
    #[test]
    fn overlapping_windows_are_independent(
        seed in any::<u64>(),
        host in 0u64..128,
        tick in any::<u64>(),
        i in 0.01f64..1.0,
    ) {
        let base = FaultConfig::chaos(i);
        let mut stacked = base;
        stacked.crash_per_min = 1.0e9;
        let dt = SimDuration::from_secs(1);
        let a = HostFaults::new(seed, host, base);
        let b = HostFaults::new(seed, host, stacked);
        // Same seed, same tick: the panic draw is unaffected by the
        // crash window now covering every tick...
        prop_assert_eq!(a.panics_at(tick, dt), b.panics_at(tick, dt));
        // ...while the crash class itself is now certain.
        prop_assert!(b.crash_victim(tick, dt, 4).is_some());
    }
}
