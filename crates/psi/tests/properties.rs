//! Property-based tests of the PSI interval algebra and accounting
//! invariants.

use proptest::prelude::*;
use tmo_psi::{intervals, IntervalSet, PsiGroup, Resource, SpanBatch};
use tmo_sim::SimDuration;

const WINDOW_NS: u64 = 1_000_000_000;

fn arb_spans() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..WINDOW_NS, 0u64..WINDOW_NS), 0..12)
}

fn arb_task_spans() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    prop::collection::vec(arb_spans(), 1..6)
}

/// One window's batch: a non-idle task per interval set, its
/// (normalised, hence disjoint) intervals stalled on `resource`.
fn batch_of(sets: &[IntervalSet], resource: Resource) -> SpanBatch {
    let mut batch = SpanBatch::new();
    for set in sets {
        batch.push_non_idle_task();
        for iv in set.intervals() {
            batch.push_span(resource, iv.start, iv.end);
        }
    }
    batch
}

fn normalised(task_spans: &[Vec<(u64, u64)>]) -> Vec<IntervalSet> {
    task_spans
        .iter()
        .map(|spans| IntervalSet::from_spans(spans))
        .collect()
}

proptest! {
    #[test]
    fn normalisation_is_idempotent(spans in arb_spans()) {
        let once = IntervalSet::from_spans(&spans);
        let twice = IntervalSet::from_spans(
            &once
                .intervals()
                .iter()
                .map(|iv| (iv.start, iv.end))
                .collect::<Vec<_>>(),
        );
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn normalised_sets_are_sorted_and_disjoint(spans in arb_spans()) {
        let set = IntervalSet::from_spans(&spans);
        let ivs = set.intervals();
        for w in ivs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "{} then {}", w[0], w[1]);
        }
        for iv in ivs {
            prop_assert!(iv.start < iv.end);
        }
    }

    #[test]
    fn union_bounds(a in arb_spans(), b in arb_spans()) {
        let sa = IntervalSet::from_spans(&a);
        let sb = IntervalSet::from_spans(&b);
        let u = sa.union(&sb);
        prop_assert!(u.total_len() >= sa.total_len().max(sb.total_len()));
        prop_assert!(u.total_len() <= sa.total_len() + sb.total_len());
    }

    #[test]
    fn intersection_bounds(a in arb_spans(), b in arb_spans()) {
        let sa = IntervalSet::from_spans(&a);
        let sb = IntervalSet::from_spans(&b);
        let i = sa.intersect(&sb);
        prop_assert!(i.total_len() <= sa.total_len().min(sb.total_len()));
    }

    #[test]
    fn inclusion_exclusion(a in arb_spans(), b in arb_spans()) {
        let sa = IntervalSet::from_spans(&a);
        let sb = IntervalSet::from_spans(&b);
        let u = sa.union(&sb).total_len();
        let i = sa.intersect(&sb).total_len();
        prop_assert_eq!(u + i, sa.total_len() + sb.total_len());
    }

    #[test]
    fn union_and_intersection_commute(a in arb_spans(), b in arb_spans()) {
        let sa = IntervalSet::from_spans(&a);
        let sb = IntervalSet::from_spans(&b);
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        prop_assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
    }

    #[test]
    fn clip_never_grows(spans in arb_spans(), limit in 0u64..WINDOW_NS) {
        let set = IntervalSet::from_spans(&spans);
        let clipped = set.clip(limit);
        prop_assert!(clipped.total_len() <= set.total_len());
        prop_assert!(clipped.total_len() <= limit);
    }

    #[test]
    fn psi_full_never_exceeds_some(task_spans in arb_task_spans()) {
        let mut psi = PsiGroup::new();
        let batch = batch_of(&normalised(&task_spans), Resource::Memory);
        psi.observe(SimDuration::from_nanos(WINDOW_NS), &batch);
        let snap = psi.snapshot(Resource::Memory);
        prop_assert!(snap.full_ratio_last_window <= snap.some_ratio_last_window + 1e-12);
        prop_assert!(snap.some_ratio_last_window <= 1.0 + 1e-12);
        prop_assert!(snap.full_total <= snap.some_total);
    }

    #[test]
    fn psi_some_total_equals_union_measure(task_spans in arb_task_spans()) {
        // Unclipped spans go in: the observe path clips them itself.
        let mut psi = PsiGroup::new();
        let sets = normalised(&task_spans);
        psi.observe(
            SimDuration::from_nanos(WINDOW_NS),
            &batch_of(&sets, Resource::Memory),
        );
        let clipped: Vec<IntervalSet> = sets.iter().map(|s| s.clip(WINDOW_NS)).collect();
        let union = intervals::union_all(clipped.iter()).total_len();
        let inter = intervals::intersect_all(clipped.iter()).map_or(0, |s| s.total_len());
        let snap = psi.snapshot(Resource::Memory);
        prop_assert_eq!(snap.some_total, SimDuration::from_nanos(union));
        prop_assert_eq!(snap.full_total, SimDuration::from_nanos(inter));
    }

    #[test]
    fn adding_an_unstalled_task_kills_full(task_spans in arb_task_spans()) {
        let mut with_idle_runner = PsiGroup::new();
        let mut batch = batch_of(&normalised(&task_spans), Resource::Io);
        batch.push_non_idle_task(); // never stalls
        with_idle_runner.observe(SimDuration::from_nanos(WINDOW_NS), &batch);
        prop_assert_eq!(
            with_idle_runner
                .snapshot(Resource::Io)
                .full_ratio_last_window,
            0.0
        );
    }
}

/// Merge-based reference for [`intervals::SweepScratch`]: per-set
/// normalised interval sets, clipped, then `union_all` /
/// `intersect_all` measured via materialised sets.
fn sweep_reference(task_spans: &[Vec<(u64, u64)>], limit: u64) -> (u64, u64) {
    let sets: Vec<IntervalSet> = task_spans
        .iter()
        .map(|spans| IntervalSet::from_spans(spans).clip(limit))
        .collect();
    let union = intervals::union_all(sets.iter()).total_len();
    let inter = intervals::intersect_all(sets.iter())
        .map(|s| s.total_len())
        .unwrap_or(0);
    (union, inter)
}

/// Pushes each task's *normalised* spans into a sweep — the scratch's
/// caller contract is per-set disjointness, which is exactly what
/// `IntervalSet` normalisation provides.
fn sweep_of(task_spans: &[Vec<(u64, u64)>], limit: u64) -> intervals::SweepScratch {
    let mut sweep = intervals::SweepScratch::new();
    for spans in task_spans {
        for iv in IntervalSet::from_spans(spans).intervals() {
            sweep.push_span(iv.start, iv.end, limit);
        }
    }
    sweep
}

proptest! {
    #[test]
    fn sweep_measures_match_sorted_merge_reference(task_spans in arb_task_spans()) {
        let mut sweep = sweep_of(&task_spans, WINDOW_NS);
        let measured = sweep.measure(task_spans.len());
        prop_assert_eq!(measured, sweep_reference(&task_spans, WINDOW_NS));
    }

    #[test]
    fn sweep_measure_is_idempotent(task_spans in arb_task_spans()) {
        // Spans survive a measure (only the event order mutates, via the
        // in-place sort), so repeated measures — and measures after a
        // clear + identical re-push — agree exactly.
        let mut sweep = sweep_of(&task_spans, WINDOW_NS);
        let first = sweep.measure(task_spans.len());
        let second = sweep.measure(task_spans.len());
        prop_assert_eq!(first, second);
        sweep.clear();
        prop_assert_eq!(sweep.span_count(), 0);
        for spans in &task_spans {
            for iv in IntervalSet::from_spans(spans).intervals() {
                sweep.push_span(iv.start, iv.end, WINDOW_NS);
            }
        }
        prop_assert_eq!(sweep.measure(task_spans.len()), first);
    }

    #[test]
    fn sweep_clamps_spans_to_window_like_clip(
        spans in arb_spans(),
        limit in 1u64..WINDOW_NS,
    ) {
        // Window clamping: a single set pushed with `limit` measures
        // exactly like `IntervalSet::clip(limit)` — spans straddling the
        // boundary are truncated, spans at or past it are dropped.
        let set = IntervalSet::from_spans(&spans);
        let mut sweep = intervals::SweepScratch::new();
        for iv in set.intervals() {
            sweep.push_span(iv.start, iv.end, limit);
        }
        let (union, inter) = sweep.measure(1);
        let clipped = set.clip(limit).total_len();
        prop_assert_eq!(union, clipped);
        // One contributing set: union and intersection coincide.
        prop_assert_eq!(inter, clipped);
    }

    #[test]
    fn sweep_boundary_spans_behave_like_clip(start in 0u64..20, end in 0u64..20, limit in 1u64..16) {
        // Dense small-coordinate sweep so exact-boundary cases
        // (start == limit, end == limit, start == end) all occur often.
        let mut sweep = intervals::SweepScratch::new();
        sweep.push_span(start, end, limit);
        let (union, _) = sweep.measure(1);
        let expected = if start < end {
            IntervalSet::from_spans(&[(start, end)]).clip(limit).total_len()
        } else {
            0 // inverted spans are dropped, not swapped like Interval::new
        };
        prop_assert_eq!(union, expected);
    }

    #[test]
    fn union_is_idempotent(spans in arb_spans()) {
        let set = IntervalSet::from_spans(&spans);
        prop_assert_eq!(set.union(&set), set.clone());
        prop_assert_eq!(intervals::union_all([&set, &set]), set);
    }
}
