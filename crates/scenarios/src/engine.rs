//! The replay engine: a [`Scenario`] compiled into a
//! [`WorkloadModulator`] the machine asks every tick.

use tmo::WorkloadModulator;
use tmo_faults::FaultPlan;
use tmo_sim::{ByteSize, SimDuration, SimTime};
use tmo_workload::DiurnalPattern;

use crate::event::{EventKind, Target};
use crate::scenario::Scenario;

/// Namespace XORed into the host seed before deriving the engine's
/// [`FaultPlan`], so scenario draws can never collide with the host's
/// own fault schedule (which hashes the raw seed). Registered in the
/// `tmo_sim::seed_ns` table; re-exported here because this crate owns
/// the stream.
pub use tmo_sim::seed_ns::SCENARIO_SEED_NS;

/// Salt family for churn-storm crash draws; event `i` uses
/// `STORM_SALT ^ (i << 8)` so overlapping storms stay independent.
const STORM_SALT: u64 = 0x5707_11CC_5707_11CC;

/// A scenario bound to one host: pure `(tick, container)` → behaviour.
///
/// All state is fixed at construction (the script plus a seed-derived
/// hash plan), so every answer is a pure function of the arguments —
/// the determinism contract [`WorkloadModulator`] demands. Two engines
/// built from the same scenario and host seed are interchangeable.
#[derive(Debug)]
pub struct ScenarioEngine {
    scenario: Scenario,
    plan: FaultPlan,
}

impl ScenarioEngine {
    /// Binds a scenario to a host seed (use the machine's
    /// `config().seed` so the engine inherits per-host diversity).
    pub fn new(scenario: Scenario, host_seed: u64) -> Self {
        ScenarioEngine {
            plan: FaultPlan::new(host_seed ^ SCENARIO_SEED_NS, 1),
            scenario,
        }
    }

    /// The bound scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }
}

impl WorkloadModulator for ScenarioEngine {
    fn demand_scale(&self, container: usize, now: SimTime) -> f64 {
        let mut scale = 1.0;
        for event in &self.scenario.events {
            if !event.active_for(container, now) {
                continue;
            }
            match event.kind {
                EventKind::FlashCrowd { magnitude } => scale *= magnitude,
                EventKind::Diurnal { trough, period } => {
                    // Invalid parameters make the event inert rather
                    // than panicking mid-fleet.
                    let period_secs = period.as_secs_f64();
                    if trough > 0.0 && trough <= 1.0 && period_secs > 0.0 {
                        scale *=
                            DiurnalPattern::with_period(trough, period_secs).demand_fraction(now);
                    }
                }
                _ => {}
            }
        }
        scale
    }

    fn leak_bytes_per_sec(&self, container: usize, now: SimTime) -> ByteSize {
        let mut total = ByteSize::ZERO;
        for event in &self.scenario.events {
            if let EventKind::MemoryLeak { rate } = event.kind {
                if event.active_for(container, now) {
                    total += rate;
                }
            }
        }
        total
    }

    fn churn_bytes_per_sec(&self, container: usize, now: SimTime) -> ByteSize {
        let mut total = ByteSize::ZERO;
        for event in &self.scenario.events {
            if let EventKind::SidecarSpike { churn } = event.kind {
                if event.active_for(container, now) {
                    total += churn;
                }
            }
        }
        total
    }

    fn storm_kill_victim(
        &self,
        tick: u64,
        now: SimTime,
        dt: SimDuration,
        containers: u64,
    ) -> Option<u64> {
        if containers == 0 {
            return None;
        }
        for (i, event) in self.scenario.events.iter().enumerate() {
            let EventKind::ChurnStorm { crashes_per_min } = event.kind else {
                continue;
            };
            if !event.window.contains(now) {
                continue;
            }
            let p = (crashes_per_min * dt.as_secs_f64() / 60.0).clamp(0.0, 1.0);
            let salt = STORM_SALT ^ ((i as u64) << 8);
            if self.plan.chance(tick, salt, p) {
                // First firing storm wins the tick; the machine kills at
                // most one container per tick, matching crash churn.
                return match event.target {
                    Target::Container(c) => Some((c as u64) % containers),
                    Target::All => self.plan.pick(tick, salt ^ 1, containers),
                };
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Window;
    use crate::scenario::catalog;

    fn run() -> SimDuration {
        SimDuration::from_mins(10)
    }

    #[test]
    fn engine_is_a_pure_function_of_its_arguments() {
        let s = catalog::composite(run(), ByteSize::from_mib(512));
        let a = ScenarioEngine::new(s.clone(), 77);
        let b = ScenarioEngine::new(s, 77);
        for tick in 0..500u64 {
            let now = SimTime::from_nanos(tick * 100_000_000);
            let dt = SimDuration::from_millis(100);
            for ci in 0..3usize {
                assert_eq!(
                    a.demand_scale(ci, now).to_bits(),
                    b.demand_scale(ci, now).to_bits()
                );
                assert_eq!(a.leak_bytes_per_sec(ci, now), b.leak_bytes_per_sec(ci, now));
                assert_eq!(
                    a.churn_bytes_per_sec(ci, now),
                    b.churn_bytes_per_sec(ci, now)
                );
            }
            assert_eq!(
                a.storm_kill_victim(tick, now, dt, 3),
                b.storm_kill_victim(tick, now, dt, 3)
            );
        }
    }

    #[test]
    fn steady_scenario_is_neutral() {
        let e = ScenarioEngine::new(catalog::steady(run(), ByteSize::from_mib(512)), 5);
        let now = SimTime::from_secs(60);
        assert_eq!(e.demand_scale(0, now), 1.0);
        assert_eq!(e.leak_bytes_per_sec(0, now), ByteSize::ZERO);
        assert_eq!(e.churn_bytes_per_sec(0, now), ByteSize::ZERO);
        assert_eq!(
            e.storm_kill_victim(600, now, SimDuration::from_millis(100), 4),
            None
        );
    }

    #[test]
    fn flash_crowd_scales_only_inside_its_window() {
        let s = catalog::flash_crowd(run(), ByteSize::from_mib(512));
        let e = ScenarioEngine::new(s.clone(), 5);
        let w = s.events[0].window;
        let inside = SimTime::from_nanos(w.start.as_nanos() + w.duration.as_nanos() / 2);
        assert_eq!(e.demand_scale(0, inside), 3.0);
        assert_eq!(e.demand_scale(1, inside), 1.0, "targets only container 0");
        assert_eq!(e.demand_scale(0, w.end()), 1.0, "half-open window");
    }

    #[test]
    fn certain_storm_fires_and_respects_target() {
        let s = Scenario::new("storm", "t").with_event(
            crate::event::Target::Container(2),
            Window::always(),
            EventKind::ChurnStorm {
                crashes_per_min: 1.0e9,
            },
        );
        let e = ScenarioEngine::new(s, 9);
        let dt = SimDuration::from_millis(100);
        assert_eq!(e.storm_kill_victim(0, SimTime::ZERO, dt, 4), Some(2));
        assert_eq!(e.storm_kill_victim(0, SimTime::ZERO, dt, 0), None);
    }
}
