//! Access-trace recording and replay.
//!
//! The paper's A/B methodology holds the workload fixed while varying
//! one system parameter. In a stochastic simulator, two machines that
//! differ in any way consume their RNG streams differently, so their
//! *generated* access patterns drift apart even with equal seeds. An
//! [`AccessTrace`] pins the workload: record the per-tick, per-class
//! touch counts once, then replay the identical stream into every tier.

use tmo_sim::{DetRng, SimDuration};

use crate::temperature::AccessPlanner;

/// One tick's accesses: touch counts per temperature class.
pub type TickPlan = Vec<u64>;

/// A recorded access stream.
///
/// # Example
///
/// ```
/// use tmo_sim::{DetRng, SimDuration};
/// use tmo_workload::access::AccessTrace;
/// use tmo_workload::{AccessPlanner, TemperatureClass};
///
/// let planner = AccessPlanner::new(
///     vec![TemperatureClass::new(1.0, SimDuration::from_secs(10))],
///     10_000,
/// );
/// let mut rng = DetRng::seed_from_u64(5);
/// let trace = AccessTrace::record(&planner, SimDuration::from_millis(100), 50, &mut rng);
/// assert_eq!(trace.len(), 50);
/// // Replaying yields the identical stream, independent of any machine
/// // RNG state.
/// let mut replay = trace.replay();
/// let first = replay.next().expect("has ticks");
/// assert_eq!(first, trace.tick(0).expect("in range"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    /// Tick length the trace was recorded at (nanoseconds).
    tick_nanos: u64,
    /// Touch counts per tick per class.
    ticks: Vec<TickPlan>,
}

impl AccessTrace {
    /// Records `n_ticks` of the planner's stream with the given RNG.
    pub fn record(
        planner: &AccessPlanner,
        tick: SimDuration,
        n_ticks: usize,
        rng: &mut DetRng,
    ) -> Self {
        AccessTrace {
            tick_nanos: tick.as_nanos(),
            ticks: (0..n_ticks).map(|_| planner.plan(tick, rng)).collect(),
        }
    }

    /// Builds a trace from explicit per-tick plans (for hand-crafted
    /// scenarios and tests).
    pub fn from_ticks(tick: SimDuration, ticks: Vec<TickPlan>) -> Self {
        AccessTrace {
            tick_nanos: tick.as_nanos(),
            ticks,
        }
    }

    /// Tick length the trace was recorded at.
    pub fn tick_len(&self) -> SimDuration {
        SimDuration::from_nanos(self.tick_nanos)
    }

    /// Number of recorded ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// One tick's plan, or `None` past the end.
    pub fn tick(&self, index: usize) -> Option<&TickPlan> {
        self.ticks.get(index)
    }

    /// Total touches across the whole trace.
    pub fn total_accesses(&self) -> u64 {
        self.ticks.iter().flatten().sum()
    }

    /// An iterator replaying the recorded plans in order. The iterator
    /// borrows the trace, so the same trace can drive many tiers.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            trace: self,
            next: 0,
        }
    }
}

/// Iterator over a trace's ticks.
#[derive(Debug, Clone)]
pub struct Replay<'a> {
    trace: &'a AccessTrace,
    next: usize,
}

impl<'a> Iterator for Replay<'a> {
    type Item = &'a TickPlan;

    fn next(&mut self) -> Option<&'a TickPlan> {
        let item = self.trace.ticks.get(self.next)?;
        self.next += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temperature::TemperatureClass;

    fn planner() -> AccessPlanner {
        AccessPlanner::new(
            vec![
                TemperatureClass::new(0.5, SimDuration::from_secs(10)),
                TemperatureClass::new(0.5, SimDuration::from_hours(1)),
            ],
            10_000,
        )
    }

    fn tick() -> SimDuration {
        SimDuration::from_millis(100)
    }

    #[test]
    fn recording_is_deterministic_per_seed() {
        let p = planner();
        let a = AccessTrace::record(&p, tick(), 100, &mut DetRng::seed_from_u64(9));
        let b = AccessTrace::record(&p, tick(), 100, &mut DetRng::seed_from_u64(9));
        let c = AccessTrace::record(&p, tick(), 100, &mut DetRng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn replay_visits_every_tick_in_order() {
        let p = planner();
        let trace = AccessTrace::record(&p, tick(), 25, &mut DetRng::seed_from_u64(1));
        let collected: Vec<&TickPlan> = trace.replay().collect();
        assert_eq!(collected.len(), 25);
        for (i, plan) in collected.iter().enumerate() {
            assert_eq!(*plan, trace.tick(i).expect("in range"));
        }
    }

    #[test]
    fn totals_match_sum_of_plans() {
        let trace = AccessTrace::from_ticks(tick(), vec![vec![5, 0], vec![2, 3], vec![0, 0]]);
        assert_eq!(trace.total_accesses(), 10);
        assert_eq!(trace.tick_len(), tick());
        assert!(AccessTrace::from_ticks(tick(), Vec::new()).is_empty());
    }
}
