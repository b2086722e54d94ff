//! Per-domain PSI accounting.
//!
//! A [`PsiGroup`] tracks pressure for one domain — a container (cgroup)
//! or a whole machine. Once per observation window the simulator packs
//! every non-idle task's stall spans into a [`SpanBatch`]; the group
//! computes exact `some`/`full` stall time for each resource and folds
//! the ratios into the standard running averages.

use tmo_sim::SimDuration;

use crate::avg::AvgSet;
use crate::intervals::SweepScratch;

/// The resources PSI tracks, mirroring `/proc/pressure/{cpu,memory,io}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// CPU: runnable but waiting for a processor.
    Cpu,
    /// Memory: stalled in reclaim, on a refault, or on a swap-in read
    /// (the three qualifying occasions of §3.2.3).
    Memory,
    /// I/O: waiting on block I/O completion.
    Io,
}

impl Resource {
    /// All tracked resources in canonical order.
    pub const ALL: [Resource; 3] = [Resource::Cpu, Resource::Memory, Resource::Io];

    /// The index of this resource in [`Resource::ALL`].
    fn index(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Memory => 1,
            Resource::Io => 2,
        }
    }

    /// The kernel's file name for this resource.
    pub fn as_str(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu",
            Resource::Memory => "memory",
            Resource::Io => "io",
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One observation window's stalls, packed for [`PsiGroup::observe`].
///
/// A producer counts each non-idle task with
/// [`SpanBatch::push_non_idle_task`] and appends that task's stall
/// spans (window-relative nanosecond offsets) with
/// [`SpanBatch::push_span`]. Idle tasks are simply not pushed: they
/// contribute neither spans nor to the `full` denominator. The three
/// per-resource span vectors are retained across [`SpanBatch::clear`]
/// calls, so a steady-state producer allocates nothing.
///
/// The one correctness contract: the spans one task pushes for one
/// resource must be disjoint (a task cannot be stalled twice at the
/// same instant). [`IntervalSet::from_spans`](crate::IntervalSet::from_spans)
/// normalises arbitrary spans into that form. Spans from different
/// tasks may overlap freely.
#[derive(Debug, Clone, Default)]
pub struct SpanBatch {
    non_idle: usize,
    spans: [Vec<(u64, u64)>; 3],
}

impl SpanBatch {
    /// An empty batch.
    pub fn new() -> Self {
        SpanBatch::default()
    }

    /// Resets the batch for a new window, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.non_idle = 0;
        for spans in &mut self.spans {
            spans.clear();
        }
    }

    /// Counts one non-idle task into the window. The task's stall
    /// spans, if any, follow via [`SpanBatch::push_span`].
    pub fn push_non_idle_task(&mut self) {
        self.non_idle += 1;
    }

    /// Records one `[start, end)` stall span (ns offsets relative to
    /// the window start) for the current task on `resource`.
    pub fn push_span(&mut self, resource: Resource, start: u64, end: u64) {
        self.spans[resource.index()].push((start, end));
    }
}

/// Per-resource accumulated state.
#[derive(Debug, Clone, Default)]
struct ResourceState {
    some_total: SimDuration,
    full_total: SimDuration,
    some_avg: AvgSet,
    full_avg: AvgSet,
    last_some_ratio: f64,
    last_full_ratio: f64,
}

/// A read-only snapshot of one resource's pressure state, equivalent to
/// one `/proc/pressure/<resource>` file read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsiSnapshot {
    /// Resource the snapshot describes.
    pub resource: Resource,
    /// `some` avg10 (ratio in `[0, 1]`).
    pub some_avg10: f64,
    /// `some` avg60.
    pub some_avg60: f64,
    /// `some` avg300.
    pub some_avg300: f64,
    /// Accumulated `some` stall time.
    pub some_total: SimDuration,
    /// `full` avg10.
    pub full_avg10: f64,
    /// `full` avg60.
    pub full_avg60: f64,
    /// `full` avg300.
    pub full_avg300: f64,
    /// Accumulated `full` stall time.
    pub full_total: SimDuration,
    /// Raw `some` ratio of the most recent observation window.
    pub some_ratio_last_window: f64,
    /// Raw `full` ratio of the most recent observation window.
    pub full_ratio_last_window: f64,
}

/// PSI accounting for one domain (container or machine).
///
/// See the [crate docs](crate) for the accounting model and an example.
#[derive(Debug, Clone, Default)]
pub struct PsiGroup {
    resources: [ResourceState; 3],
    wall_total: SimDuration,
    /// Reusable edge-event buffer for the union/intersection sweep.
    sweep: SweepScratch,
}

impl PsiGroup {
    /// Creates a PSI domain with no observed time and zero pressure.
    pub fn new() -> Self {
        PsiGroup::default()
    }

    /// Total wall time observed so far.
    pub fn wall_total(&self) -> SimDuration {
        self.wall_total
    }

    /// Ingests one observation window of length `window`, updating
    /// totals and running averages for every resource.
    ///
    /// `some` counts time where at least one non-idle task was stalled;
    /// `full` counts time where *all* non-idle tasks were stalled
    /// simultaneously (and at least one task was non-idle). Idle tasks
    /// are never pushed into the batch, so they are excluded entirely,
    /// matching the paper's definition.
    ///
    /// The update runs allocation-free: per resource, every span is
    /// pushed into the group's reusable [`SweepScratch`], clipped to the
    /// window, and one sort-and-sweep reads the union (`some`) and
    /// k-way intersection (`full`) measures off the coverage count —
    /// integer-identical to measuring
    /// [`union_all`](crate::intervals::union_all) /
    /// [`intersect_all`](crate::intervals::intersect_all) over each
    /// task's clipped interval set.
    pub fn observe(&mut self, window: SimDuration, batch: &SpanBatch) {
        if window.is_zero() {
            return;
        }
        self.wall_total += window;
        let window_ns = window.as_nanos();
        let mut sweep = std::mem::take(&mut self.sweep);
        for resource in Resource::ALL {
            sweep.clear();
            for &(start, end) in &batch.spans[resource.index()] {
                sweep.push_span(start, end, window_ns);
            }
            let (some_ns, full_ns) = sweep.measure(batch.non_idle);
            self.apply_window(resource, window, window_ns, some_ns, full_ns);
        }
        self.sweep = sweep;
    }

    /// Folds one resource's window measures into its totals, averages
    /// and last-window ratios.
    fn apply_window(
        &mut self,
        resource: Resource,
        window: SimDuration,
        window_ns: u64,
        some_ns: u64,
        full_ns: u64,
    ) {
        debug_assert!(
            full_ns <= some_ns && some_ns <= window_ns,
            "PSI {resource}: full {full_ns} ns, some {some_ns} ns, window {window_ns} ns"
        );
        let some_ratio = some_ns as f64 / window_ns as f64;
        let full_ratio = full_ns as f64 / window_ns as f64;

        let state = &mut self.resources[resource.index()];
        state.some_total += SimDuration::from_nanos(some_ns);
        state.full_total += SimDuration::from_nanos(full_ns);
        state.some_avg.update(some_ratio, window);
        state.full_avg.update(full_ratio, window);
        state.last_some_ratio = some_ratio;
        state.last_full_ratio = full_ratio;
    }

    /// Reads the current pressure state for one resource.
    pub fn snapshot(&self, resource: Resource) -> PsiSnapshot {
        let s = &self.resources[resource.index()];
        PsiSnapshot {
            resource,
            some_avg10: s.some_avg.avg10.value(),
            some_avg60: s.some_avg.avg60.value(),
            some_avg300: s.some_avg.avg300.value(),
            some_total: s.some_total,
            full_avg10: s.full_avg.avg10.value(),
            full_avg60: s.full_avg.avg60.value(),
            full_avg300: s.full_avg.avg300.value(),
            full_total: s.full_total,
            some_ratio_last_window: s.last_some_ratio,
            full_ratio_last_window: s.last_full_ratio,
        }
    }

    /// The `some` avg10 for `resource` — the signal Senpai reads.
    pub fn some_avg10(&self, resource: Resource) -> f64 {
        self.resources[resource.index()].some_avg.avg10.value()
    }

    /// The `full` avg10 for `resource`.
    pub fn full_avg10(&self, resource: Resource) -> f64 {
        self.resources[resource.index()].full_avg.avg10.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// A batch of non-idle tasks, each given as its `(resource, start,
    /// end)` stall spans.
    fn batch(tasks: &[&[(Resource, u64, u64)]]) -> SpanBatch {
        let mut batch = SpanBatch::new();
        for spans in tasks {
            batch.push_non_idle_task();
            for &(resource, start, end) in *spans {
                batch.push_span(resource, start, end);
            }
        }
        batch
    }

    #[test]
    fn single_task_some_equals_full() {
        let mut psi = PsiGroup::new();
        psi.observe(secs(1), &batch(&[&[(Resource::Memory, 0, 500_000_000)]]));
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 0.5).abs() < 1e-12);
        assert!((snap.full_ratio_last_window - 0.5).abs() < 1e-12);
        assert_eq!(snap.some_total, SimDuration::from_millis(500));
    }

    #[test]
    fn two_tasks_disjoint_stalls_no_full() {
        let mut psi = PsiGroup::new();
        psi.observe(
            secs(1),
            &batch(&[
                &[(Resource::Memory, 0, 250_000_000)],
                &[(Resource::Memory, 500_000_000, 750_000_000)],
            ]),
        );
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 0.5).abs() < 1e-12);
        assert_eq!(snap.full_ratio_last_window, 0.0);
    }

    #[test]
    fn overlapping_stalls_produce_full() {
        let mut psi = PsiGroup::new();
        psi.observe(
            secs(1),
            &batch(&[
                &[(Resource::Io, 0, 600_000_000)],
                &[(Resource::Io, 400_000_000, 1_000_000_000)],
            ]),
        );
        let snap = psi.snapshot(Resource::Io);
        assert!((snap.some_ratio_last_window - 1.0).abs() < 1e-12);
        assert!((snap.full_ratio_last_window - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unpushed_idle_tasks_do_not_count_toward_full() {
        let mut psi = PsiGroup::new();
        // An idle second task is simply not pushed.
        psi.observe(secs(1), &batch(&[&[(Resource::Memory, 0, 1_000_000_000)]]));
        let snap = psi.snapshot(Resource::Memory);
        // The only non-idle task is fully stalled: full = 100%.
        assert!((snap.full_ratio_last_window - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_tasks_means_no_pressure() {
        let mut psi = PsiGroup::new();
        psi.observe(secs(1), &SpanBatch::new());
        let snap = psi.snapshot(Resource::Memory);
        assert_eq!(snap.some_ratio_last_window, 0.0);
        assert_eq!(snap.full_ratio_last_window, 0.0);
        assert_eq!(psi.wall_total(), secs(1));
    }

    #[test]
    fn stalls_clip_to_window() {
        let mut psi = PsiGroup::new();
        // 10 s of stall in a 1 s window.
        psi.observe(secs(1), &batch(&[&[(Resource::Memory, 0, 10_000_000_000)]]));
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 1.0).abs() < 1e-12);
        assert_eq!(snap.some_total, secs(1));
    }

    #[test]
    fn resources_are_independent() {
        let mut psi = PsiGroup::new();
        psi.observe(secs(1), &batch(&[&[(Resource::Io, 0, 100_000_000)]]));
        assert_eq!(psi.snapshot(Resource::Memory).some_ratio_last_window, 0.0);
        assert!(psi.snapshot(Resource::Io).some_ratio_last_window > 0.0);
        assert_eq!(psi.snapshot(Resource::Cpu).some_ratio_last_window, 0.0);
    }

    #[test]
    fn averages_build_up_under_sustained_pressure() {
        let mut psi = PsiGroup::new();
        let window = batch(&[&[(Resource::Memory, 0, 200_000_000)]]);
        for _ in 0..30 {
            psi.observe(secs(2), &window);
        }
        let some10 = psi.some_avg10(Resource::Memory);
        assert!((some10 - 0.1).abs() < 0.01, "avg10 {some10}");
    }

    #[test]
    fn figure7_quarter1_example() {
        // Figure 7, first quarter: processes A and B each stall 6.25% of
        // the quarter, never simultaneously -> some accounts 12.5%,
        // full accounts 0%.
        let mut psi = PsiGroup::new();
        let q = 1_000_000_000u64; // quarter length 1 s
        let stall = q / 16; // 6.25%
        psi.observe(
            SimDuration::from_nanos(q),
            &batch(&[
                &[(Resource::Memory, 0, stall)],
                &[(Resource::Memory, q / 2, q / 2 + stall)],
            ]),
        );
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 0.125).abs() < 1e-12);
        assert_eq!(snap.full_ratio_last_window, 0.0);
    }

    #[test]
    fn figure7_quarter2_example() {
        // Figure 7, second quarter: 6.25% of time both stall
        // concurrently (full), and in total one-or-more is stalled for
        // 25% (of which 18.75% is some-but-not-full).
        let mut psi = PsiGroup::new();
        let q = 1_000_000_000u64;
        let u = q / 16; // 6.25% unit
        psi.observe(
            SimDuration::from_nanos(q),
            &batch(&[
                // A stalls [0, 3u): 18.75%
                &[(Resource::Memory, 0, 3 * u)],
                // B stalls [2u, 4u): overlaps A on [2u, 3u) = 6.25%
                &[(Resource::Memory, 2 * u, 4 * u)],
            ]),
        );
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.full_ratio_last_window - 0.0625).abs() < 1e-12);
        assert!((snap.some_ratio_last_window - 0.25).abs() < 1e-12);
        let some_not_full = snap.some_ratio_last_window - snap.full_ratio_last_window;
        assert!((some_not_full - 0.1875).abs() < 1e-12);
    }
}
