//! Cross-validation of the two PSI front-ends: the event-driven
//! [`StateTracker`] (how the kernel computes PSI) and the interval-based
//! [`PsiGroup`] (how the simulator batches it) must agree on arbitrary
//! schedules.

use proptest::prelude::*;
use tmo_psi::state::{StateTracker, TaskId};
use tmo_psi::{IntervalSet, PsiGroup, Resource, SpanBatch, TaskObservation, Trigger, TriggerKind};
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
        let mut group = PsiGroup::new(4);
        let sets: Vec<IntervalSet> = schedule
            .iter()
            .map(|spans| IntervalSet::from_spans(spans).clip(WINDOW_NS))
            .collect();
        let observations: Vec<TaskObservation> = sets
            .iter()
            .map(|s| {
                let mut o = TaskObservation::non_idle();
                o.stall(Resource::Memory, s.clone());
                o
            })
            .collect();
        group.observe(SimDuration::from_nanos(WINDOW_NS), &observations);
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

// ---------------------------------------------------------------------
// Batched vs scalar equivalence: `observe_batch` over a packed
// `SpanBatch` must be bit-identical to `observe` over the equivalent
// `TaskObservation`s — snapshots (including avg10/avg60/avg300 floats),
// totals, and trigger firing order — across multi-window runs with
// idle/non-idle mixes on every resource.
// ---------------------------------------------------------------------

/// One random window: per task, an idle flag and stall spans on each of
/// the three resources.
type WindowSchedule = Vec<(bool, [Vec<(u64, u64)>; 3])>;

fn arb_window() -> impl Strategy<Value = WindowSchedule> {
    prop::collection::vec(
        (
            any::<bool>(),
            (
                prop::collection::vec((0u64..WINDOW_NS, 0u64..WINDOW_NS), 0..4),
                prop::collection::vec((0u64..WINDOW_NS, 0u64..WINDOW_NS), 0..4),
                prop::collection::vec((0u64..WINDOW_NS, 0u64..WINDOW_NS), 0..4),
            ),
        )
            .prop_map(|(idle, (m, i, c))| (idle, [m, i, c])),
        0..6,
    )
}

/// Registers the same trigger spread on both groups: two per resource,
/// so firing order across resources and registration indices is
/// exercised.
fn add_triggers(group: &mut PsiGroup) {
    for resource in Resource::ALL {
        group.add_trigger(
            resource,
            Trigger::new(
                TriggerKind::Some,
                SimDuration::from_millis(100),
                SimDuration::from_secs(1),
            ),
        );
        group.add_trigger(
            resource,
            Trigger::new(
                TriggerKind::Full,
                SimDuration::from_millis(20),
                SimDuration::from_secs(1),
            ),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batched_observe_is_bit_identical_to_scalar(
        windows in prop::collection::vec(arb_window(), 1..5)
    ) {
        let window = SimDuration::from_nanos(WINDOW_NS);
        let mut scalar = PsiGroup::new(4);
        let mut batched = PsiGroup::new(4);
        add_triggers(&mut scalar);
        add_triggers(&mut batched);

        for tasks in &windows {
            // Scalar form: one TaskObservation per task.
            let observations: Vec<TaskObservation> = tasks
                .iter()
                .map(|(idle, stalls)| {
                    let mut o = if *idle {
                        TaskObservation::idle()
                    } else {
                        TaskObservation::non_idle()
                    };
                    for (r, spans) in Resource::ALL.iter().zip(stalls.iter()) {
                        o.stall(*r, IntervalSet::from_spans(spans));
                    }
                    o
                })
                .collect();
            scalar.observe(window, &observations);

            // Batched form: idle tasks are simply not pushed; each
            // task's contribution is its normalised (disjoint) interval
            // set, satisfying the SpanBatch disjointness contract.
            let mut batch = SpanBatch::new();
            for obs in &observations {
                if !obs.is_non_idle() {
                    continue;
                }
                batch.push_non_idle_task();
                for r in Resource::ALL {
                    for iv in obs.stalls(r).intervals() {
                        batch.push_span(r, iv.start, iv.end);
                    }
                }
            }
            batched.observe_batch(window, &batch);

            prop_assert_eq!(scalar.fired_triggers(), batched.fired_triggers());
            for r in Resource::ALL {
                // PartialEq over the f64 fields == bit-identical here
                // (no NaNs can arise from ratios in [0, 1]).
                prop_assert_eq!(scalar.snapshot(r), batched.snapshot(r));
            }
        }
    }

}
