//! Cross-validation of the two PSI engines: the event-driven
//! [`StateTracker`] (how the kernel computes PSI) and the interval-based
//! [`PsiGroup::observe`] over a [`SpanBatch`] (the path every machine
//! tick runs) must agree on arbitrary schedules.

use proptest::prelude::*;
use tmo_psi::state::{StateTracker, TaskId};
use tmo_psi::{IntervalSet, PsiGroup, Resource, SpanBatch};
use tmo_sim::{SimDuration, SimTime};

const WINDOW_NS: u64 = 1_000_000_000;
const N_TASKS: u64 = 4;

/// A random schedule: per task, a set of stall spans within the window.
fn arb_schedule() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    prop::collection::vec(
        prop::collection::vec((0u64..WINDOW_NS, 0u64..WINDOW_NS), 0..6),
        N_TASKS as usize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn event_driven_and_interval_engines_agree(schedule in arb_schedule()) {
        // --- Interval engine: one observation per window. ---
        // Normalising makes each task's spans disjoint, the SpanBatch
        // contract.
        let mut group = PsiGroup::new();
        let sets: Vec<IntervalSet> = schedule
            .iter()
            .map(|spans| IntervalSet::from_spans(spans).clip(WINDOW_NS))
            .collect();
        let mut batch = SpanBatch::new();
        for set in &sets {
            batch.push_non_idle_task();
            for iv in set.intervals() {
                batch.push_span(Resource::Memory, iv.start, iv.end);
            }
        }
        group.observe(SimDuration::from_nanos(WINDOW_NS), &batch);
        let snap = group.snapshot(Resource::Memory);

        // --- Event engine: replay the same schedule as transitions. ---
        let mut tracker = StateTracker::new();
        for task in 0..N_TASKS {
            tracker.set_non_idle(SimTime::ZERO, TaskId(task), true);
        }
        // Build a time-ordered list of (time, task, stalled) events from
        // the normalised interval sets.
        let mut events: Vec<(u64, u64, bool)> = Vec::new();
        for (task, set) in sets.iter().enumerate() {
            for iv in set.intervals() {
                events.push((iv.start, task as u64, true));
                events.push((iv.end, task as u64, false));
            }
        }
        // Stable order: time, then stall-end before stall-start at the
        // same instant (half-open intervals do not overlap at a point).
        events.sort_by_key(|&(t, task, stalled)| (t, stalled, task));
        for (t, task, stalled) in events {
            tracker.set_stalled(
                SimTime::from_nanos(t),
                TaskId(task),
                Resource::Memory,
                stalled,
            );
        }
        let (some, full) =
            tracker.totals(SimTime::from_nanos(WINDOW_NS), Resource::Memory);

        prop_assert_eq!(
            some,
            snap.some_total,
            "some disagrees: events {} vs intervals {}",
            some,
            snap.some_total
        );
        prop_assert_eq!(
            full,
            snap.full_total,
            "full disagrees: events {} vs intervals {}",
            full,
            snap.full_total
        );
    }
}
