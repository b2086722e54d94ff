//! Property tests for scenario windows and engine determinism.

use proptest::prelude::*;
use tmo_scenarios::prelude::*;
use tmo_sim::{ByteSize, SimDuration, SimTime};

fn window(start_s: u64, len_s: u64) -> Window {
    Window::new(SimTime::from_secs(start_s), SimDuration::from_secs(len_s))
}

proptest! {
    /// A window contains exactly the instants in `[start, end)`; a
    /// zero-length window contains nothing, including its own start.
    #[test]
    fn contains_matches_half_open_bounds(
        start in 0u64..1000,
        len in 0u64..1000,
        t in 0u64..2000,
    ) {
        let w = window(start, len);
        let now = SimTime::from_secs(t);
        prop_assert_eq!(w.contains(now), len > 0 && t >= start && t < start + len);
    }

    /// Events active from tick 0 modulate tick 0: a window starting at
    /// the epoch is live on the very first query.
    #[test]
    fn window_starting_at_zero_is_live_at_zero(len in 1u64..1000) {
        let w = window(0, len);
        prop_assert!(w.contains(SimTime::ZERO));
        let s = Scenario::new("t0", "t").with_event(
            Target::All,
            w,
            EventKind::FlashCrowd { magnitude: 2.0 },
        );
        let engine = ScenarioEngine::new(s, 1);
        prop_assert_eq!(
            tmo::WorkloadModulator::demand_scale(&engine, 0, SimTime::ZERO),
            2.0
        );
    }

    /// The engine is a pure function: two engines built from the same
    /// scenario and seed agree on every query, and a different seed
    /// only ever changes the hash-driven storm draws.
    #[test]
    fn engine_answers_depend_only_on_construction(
        seed in any::<u64>(),
        tick in 0u64..100_000,
        ci in 0usize..4,
    ) {
        use tmo::WorkloadModulator;
        let run = SimDuration::from_mins(10);
        let dram = ByteSize::from_mib(512);
        let now = SimTime::from_nanos(tick * 100_000_000);
        let dt = SimDuration::from_millis(100);
        for scenario in catalog::all(run, dram) {
            let a = ScenarioEngine::new(scenario.clone(), seed);
            let b = ScenarioEngine::new(scenario, seed);
            prop_assert_eq!(
                a.demand_scale(ci, now).to_bits(),
                b.demand_scale(ci, now).to_bits()
            );
            prop_assert_eq!(a.leak_bytes_per_sec(ci, now), b.leak_bytes_per_sec(ci, now));
            prop_assert_eq!(a.churn_bytes_per_sec(ci, now), b.churn_bytes_per_sec(ci, now));
            prop_assert_eq!(
                a.storm_kill_victim(tick, now, dt, 4),
                b.storm_kill_victim(tick, now, dt, 4)
            );
        }
    }

    /// Storm victims stay in range for any container count.
    #[test]
    fn storm_victims_are_in_range(
        seed in any::<u64>(),
        tick in 0u64..10_000,
        n in 1u64..16,
        rate in 0.1f64..1.0e9,
    ) {
        use tmo::WorkloadModulator;
        let s = Scenario::new("storm", "t").with_event(
            Target::All,
            Window::always(),
            EventKind::ChurnStorm { crashes_per_min: rate },
        );
        let engine = ScenarioEngine::new(s, seed);
        let now = SimTime::from_nanos(tick * 100_000_000);
        if let Some(v) = engine.storm_kill_victim(tick, now, SimDuration::from_millis(100), n) {
            prop_assert!(v < n);
        }
    }
}
