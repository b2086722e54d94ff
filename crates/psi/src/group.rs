//! Per-domain PSI accounting.
//!
//! A [`PsiGroup`] tracks pressure for one domain — a container (cgroup)
//! or a whole machine. Once per observation window the simulator reports
//! what every task in the domain did ([`TaskObservation`]); the group
//! computes exact `some`/`full` stall time for each resource and folds
//! the ratios into the standard running averages.

use tmo_sim::{SimDuration, SimTime};

use crate::avg::AvgSet;
use crate::intervals::{IntervalSet, SweepScratch};
use crate::triggers::Trigger;

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

/// What one task did during an observation window.
///
/// Stall intervals are offsets (ns) relative to the window start; they
/// are clipped to the window on ingestion.
#[derive(Debug, Clone, Default)]
pub struct TaskObservation {
    non_idle: bool,
    stalls: [IntervalSet; 3],
}

impl TaskObservation {
    /// A task that was present and non-idle but recorded no stalls.
    pub fn non_idle() -> Self {
        TaskObservation {
            non_idle: true,
            stalls: Default::default(),
        }
    }

    /// A task that was idle for the whole window (does not contribute to
    /// `full` and its stalls — there should be none — are ignored).
    pub fn idle() -> Self {
        TaskObservation::default()
    }

    /// Whether the task was non-idle.
    pub fn is_non_idle(&self) -> bool {
        self.non_idle
    }

    /// Records the intervals this task spent stalled on `resource`;
    /// merges with any previously recorded intervals for the resource.
    pub fn stall(&mut self, resource: Resource, intervals: IntervalSet) -> &mut Self {
        let slot = &mut self.stalls[resource.index()];
        *slot = slot.union(&intervals);
        self
    }

    /// The recorded stall set for `resource`.
    pub fn stalls(&self, resource: Resource) -> &IntervalSet {
        &self.stalls[resource.index()]
    }
}

/// Packed per-window stall observations for [`PsiGroup::observe_batch`]
/// — the allocation-free alternative to building a
/// `Vec<TaskObservation>` per window.
///
/// A producer counts each non-idle task with
/// [`SpanBatch::push_non_idle_task`] and appends that task's stall
/// spans (window-relative nanosecond offsets) with
/// [`SpanBatch::push_span`]. Idle tasks are simply not pushed: they
/// contribute neither spans nor to the `full` denominator, matching how
/// [`PsiGroup::observe`] ignores them. The three per-resource span
/// vectors are retained across [`SpanBatch::clear`] calls, so a
/// steady-state producer allocates nothing.
///
/// The only correctness contract is the one [`TaskObservation`] also
/// enforces via interval-set normalisation: the spans one task pushes
/// for one resource must be disjoint (a task cannot be stalled twice at
/// the same instant). Spans from different tasks may overlap freely.
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

    /// Number of non-idle tasks pushed.
    pub fn non_idle_tasks(&self) -> usize {
        self.non_idle
    }

    /// Total stall spans recorded across all resources.
    pub fn span_count(&self) -> usize {
        self.spans.iter().map(Vec::len).sum()
    }
}

/// Per-resource accumulated state.
#[derive(Debug, Clone)]
struct ResourceState {
    some_total: SimDuration,
    full_total: SimDuration,
    some_avg: AvgSet,
    full_avg: AvgSet,
    last_some_ratio: f64,
    last_full_ratio: f64,
}

impl ResourceState {
    fn new() -> Self {
        ResourceState {
            some_total: SimDuration::ZERO,
            full_total: SimDuration::ZERO,
            some_avg: AvgSet::new(),
            full_avg: AvgSet::new(),
            last_some_ratio: 0.0,
            last_full_ratio: 0.0,
        }
    }
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
#[derive(Debug, Clone)]
pub struct PsiGroup {
    nr_cpus: u32,
    resources: [ResourceState; 3],
    wall_total: SimDuration,
    /// Registered pressure triggers and their watched resource.
    triggers: Vec<(Resource, Trigger)>,
    /// Trigger indexes that fired during the latest `observe`; reused
    /// across windows so the trigger scan never allocates.
    fired: Vec<usize>,
    /// Reusable edge-event buffer for the union/intersection sweep.
    sweep: SweepScratch,
}

impl PsiGroup {
    /// Creates a PSI domain backed by `nr_cpus` processors.
    ///
    /// The CPU count bounds the domain's *compute potential*: stall time
    /// cannot exceed `nr_cpus × wall time` (§3.2.1). For `some`/`full`
    /// wall-clock ratios this only matters as a sanity bound.
    ///
    /// # Panics
    ///
    /// Panics if `nr_cpus` is zero.
    pub fn new(nr_cpus: u32) -> Self {
        assert!(nr_cpus > 0, "a PSI domain needs at least one CPU");
        PsiGroup {
            nr_cpus,
            resources: [
                ResourceState::new(),
                ResourceState::new(),
                ResourceState::new(),
            ],
            wall_total: SimDuration::ZERO,
            triggers: Vec::new(),
            fired: Vec::new(),
            sweep: SweepScratch::new(),
        }
    }

    /// Registers a pressure [`Trigger`] on `resource` (the equivalent of
    /// writing `"some <threshold_us> <window_us>"` to the resource's
    /// pressure file). Returns the trigger's index for
    /// [`PsiGroup::fired_triggers`] and [`PsiGroup::trigger`].
    pub fn add_trigger(&mut self, resource: Resource, trigger: Trigger) -> usize {
        self.triggers.push((resource, trigger));
        self.triggers.len() - 1
    }

    /// A registered trigger by index.
    ///
    /// # Panics
    ///
    /// Panics on an index not returned by [`PsiGroup::add_trigger`].
    pub fn trigger(&self, index: usize) -> &Trigger {
        &self.triggers[index].1
    }

    /// Indexes of the triggers that fired during the most recent
    /// [`PsiGroup::observe`] call.
    pub fn fired_triggers(&self) -> &[usize] {
        &self.fired
    }

    /// Number of CPUs backing the domain.
    pub fn nr_cpus(&self) -> u32 {
        self.nr_cpus
    }

    /// Total wall time observed so far.
    pub fn wall_total(&self) -> SimDuration {
        self.wall_total
    }

    /// Ingests one observation window of length `window` with the given
    /// per-task reports, updating totals and running averages for every
    /// resource.
    ///
    /// `some` counts time where at least one non-idle task was stalled;
    /// `full` counts time where *all* non-idle tasks were stalled
    /// simultaneously (and at least one task was non-idle). Idle tasks
    /// are excluded entirely, matching the paper's definition.
    /// The hot path runs allocation-free: per resource, every non-idle
    /// task's (already normalised) stall intervals are pushed into the
    /// group's reusable [`SweepScratch`] — clipped to the window span
    /// by span — and one sort-and-sweep reads the union (`some`) and
    /// k-way intersection (`full`) measures off the coverage count.
    /// Both are integer-identical to the former merge-based
    /// `union_all`/`intersect_all` computation, so ratios, averages,
    /// totals, and trigger decisions are bit-identical.
    pub fn observe(&mut self, window: SimDuration, tasks: &[TaskObservation]) {
        if window.is_zero() {
            return;
        }
        self.fired.clear();
        self.wall_total += window;
        let window_ns = window.as_nanos();
        let k = tasks.iter().filter(|t| t.is_non_idle()).count();
        let mut sweep = std::mem::take(&mut self.sweep);
        for resource in Resource::ALL {
            sweep.clear();
            for task in tasks.iter().filter(|t| t.is_non_idle()) {
                for iv in task.stalls(resource).intervals() {
                    sweep.push_span(iv.start, iv.end, window_ns);
                }
            }
            let (some_ns, full_ns) = sweep.measure(k);
            self.apply_window(resource, window, window_ns, some_ns, full_ns);
        }
        self.sweep = sweep;
    }

    /// Batched form of [`PsiGroup::observe`] over a packed [`SpanBatch`]
    /// instead of per-task observation structs. Outcome-identical to
    /// building one `TaskObservation` per pushed task (each with the
    /// same spans) and calling `observe`; the point is that a machine
    /// tick can assemble stalls for *all* tasks of *all* containers
    /// into flat span vectors and pay zero allocation per window.
    pub fn observe_batch(&mut self, window: SimDuration, batch: &SpanBatch) {
        if window.is_zero() {
            return;
        }
        self.fired.clear();
        self.wall_total += window;
        let window_ns = window.as_nanos();
        let k = batch.non_idle;
        let mut sweep = std::mem::take(&mut self.sweep);
        for resource in Resource::ALL {
            sweep.clear();
            for &(start, end) in &batch.spans[resource.index()] {
                sweep.push_span(start, end, window_ns);
            }
            let (some_ns, full_ns) = sweep.measure(k);
            self.apply_window(resource, window, window_ns, some_ns, full_ns);
        }
        self.sweep = sweep;
    }

    /// Folds one resource's window measures into totals, averages, last
    /// ratios, and registered triggers — shared by every observe form.
    fn apply_window(
        &mut self,
        resource: Resource,
        window: SimDuration,
        window_ns: u64,
        some_ns: u64,
        full_ns: u64,
    ) {
        let some_ratio = some_ns as f64 / window_ns as f64;
        let full_ratio = full_ns as f64 / window_ns as f64;

        let state = &mut self.resources[resource.index()];
        state.some_total += SimDuration::from_nanos(some_ns);
        state.full_total += SimDuration::from_nanos(full_ns);
        state.some_avg.update(some_ratio, window);
        state.full_avg.update(full_ratio, window);
        state.last_some_ratio = some_ratio;
        state.last_full_ratio = full_ratio;

        // Feed registered triggers with this window's stall deltas, in
        // registration order within the resource (the firing order the
        // controller stack observes).
        let now = SimTime::ZERO + self.wall_total;
        for (i, (res, trigger)) in self.triggers.iter_mut().enumerate() {
            if *res == resource
                && trigger.observe(
                    now,
                    SimDuration::from_nanos(some_ns),
                    SimDuration::from_nanos(full_ns),
                )
            {
                self.fired.push(i);
            }
        }
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

    #[test]
    fn single_task_some_equals_full() {
        let mut psi = PsiGroup::new(1);
        let mut t = TaskObservation::non_idle();
        t.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(0, 500_000_000)]),
        );
        psi.observe(secs(1), &[t]);
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 0.5).abs() < 1e-12);
        assert!((snap.full_ratio_last_window - 0.5).abs() < 1e-12);
        assert_eq!(snap.some_total, SimDuration::from_millis(500));
    }

    #[test]
    fn two_tasks_disjoint_stalls_no_full() {
        let mut psi = PsiGroup::new(2);
        let mut a = TaskObservation::non_idle();
        a.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(0, 250_000_000)]),
        );
        let mut b = TaskObservation::non_idle();
        b.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(500_000_000, 750_000_000)]),
        );
        psi.observe(secs(1), &[a, b]);
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 0.5).abs() < 1e-12);
        assert_eq!(snap.full_ratio_last_window, 0.0);
    }

    #[test]
    fn overlapping_stalls_produce_full() {
        let mut psi = PsiGroup::new(2);
        let mut a = TaskObservation::non_idle();
        a.stall(Resource::Io, IntervalSet::from_spans(&[(0, 600_000_000)]));
        let mut b = TaskObservation::non_idle();
        b.stall(
            Resource::Io,
            IntervalSet::from_spans(&[(400_000_000, 1_000_000_000)]),
        );
        psi.observe(secs(1), &[a, b]);
        let snap = psi.snapshot(Resource::Io);
        assert!((snap.some_ratio_last_window - 1.0).abs() < 1e-12);
        assert!((snap.full_ratio_last_window - 0.2).abs() < 1e-12);
    }

    #[test]
    fn idle_tasks_do_not_count_toward_full() {
        let mut psi = PsiGroup::new(2);
        let mut a = TaskObservation::non_idle();
        a.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(0, 1_000_000_000)]),
        );
        psi.observe(secs(1), &[a, TaskObservation::idle()]);
        let snap = psi.snapshot(Resource::Memory);
        // The only non-idle task is fully stalled: full = 100%.
        assert!((snap.full_ratio_last_window - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_tasks_means_no_pressure() {
        let mut psi = PsiGroup::new(4);
        psi.observe(secs(1), &[]);
        let snap = psi.snapshot(Resource::Memory);
        assert_eq!(snap.some_ratio_last_window, 0.0);
        assert_eq!(snap.full_ratio_last_window, 0.0);
    }

    #[test]
    fn stalls_clip_to_window() {
        let mut psi = PsiGroup::new(1);
        let mut t = TaskObservation::non_idle();
        t.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(0, 10_000_000_000)]), // 10 s in a 1 s window
        );
        psi.observe(secs(1), &[t]);
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 1.0).abs() < 1e-12);
        assert_eq!(snap.some_total, secs(1));
    }

    #[test]
    fn resources_are_independent() {
        let mut psi = PsiGroup::new(1);
        let mut t = TaskObservation::non_idle();
        t.stall(Resource::Io, IntervalSet::from_spans(&[(0, 100_000_000)]));
        psi.observe(secs(1), &[t]);
        assert_eq!(psi.snapshot(Resource::Memory).some_ratio_last_window, 0.0);
        assert!(psi.snapshot(Resource::Io).some_ratio_last_window > 0.0);
        assert_eq!(psi.snapshot(Resource::Cpu).some_ratio_last_window, 0.0);
    }

    #[test]
    fn averages_build_up_under_sustained_pressure() {
        let mut psi = PsiGroup::new(1);
        for _ in 0..30 {
            let mut t = TaskObservation::non_idle();
            t.stall(
                Resource::Memory,
                IntervalSet::from_spans(&[(0, 200_000_000)]),
            );
            psi.observe(secs(2), &[t]);
        }
        let some10 = psi.some_avg10(Resource::Memory);
        assert!((some10 - 0.1).abs() < 0.01, "avg10 {some10}");
    }

    #[test]
    fn figure7_quarter1_example() {
        // Figure 7, first quarter: processes A and B each stall 6.25% of
        // the quarter, never simultaneously -> some accounts 12.5%,
        // full accounts 0%.
        let mut psi = PsiGroup::new(2);
        let q = 1_000_000_000u64; // quarter length 1 s
        let stall = q / 16; // 6.25%
        let mut a = TaskObservation::non_idle();
        a.stall(Resource::Memory, IntervalSet::from_spans(&[(0, stall)]));
        let mut b = TaskObservation::non_idle();
        b.stall(
            Resource::Memory,
            IntervalSet::from_spans(&[(q / 2, q / 2 + stall)]),
        );
        psi.observe(SimDuration::from_nanos(q), &[a, b]);
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.some_ratio_last_window - 0.125).abs() < 1e-12);
        assert_eq!(snap.full_ratio_last_window, 0.0);
    }

    #[test]
    fn figure7_quarter2_example() {
        // Figure 7, second quarter: 6.25% of time both stall
        // concurrently (full), and in total one-or-more is stalled for
        // 25% (of which 18.75% is some-but-not-full).
        let mut psi = PsiGroup::new(2);
        let q = 1_000_000_000u64;
        let u = q / 16; // 6.25% unit
        let mut a = TaskObservation::non_idle();
        // A stalls [0, 3u): 18.75%
        a.stall(Resource::Memory, IntervalSet::from_spans(&[(0, 3 * u)]));
        let mut b = TaskObservation::non_idle();
        // B stalls [2u, 4u): overlaps A on [2u, 3u) = 6.25%
        b.stall(Resource::Memory, IntervalSet::from_spans(&[(2 * u, 4 * u)]));
        psi.observe(SimDuration::from_nanos(q), &[a, b]);
        let snap = psi.snapshot(Resource::Memory);
        assert!((snap.full_ratio_last_window - 0.0625).abs() < 1e-12);
        assert!((snap.some_ratio_last_window - 0.25).abs() < 1e-12);
        let some_not_full = snap.some_ratio_last_window - snap.full_ratio_last_window;
        assert!((some_not_full - 0.1875).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_panics() {
        let _ = PsiGroup::new(0);
    }

    #[test]
    fn registered_trigger_fires_on_pressure_spike() {
        use crate::triggers::{Trigger, TriggerKind};
        let mut psi = PsiGroup::new(2);
        // 150 ms of `some` memory stall within 1 s.
        let idx = psi.add_trigger(
            Resource::Memory,
            Trigger::new(
                TriggerKind::Some,
                SimDuration::from_millis(150),
                SimDuration::from_secs(1),
            ),
        );
        // Calm windows do not fire.
        psi.observe(
            SimDuration::from_millis(100),
            &[TaskObservation::non_idle()],
        );
        assert!(psi.fired_triggers().is_empty());
        // A burst of heavy stall does.
        let mut fired = false;
        for _ in 0..10 {
            let mut t = TaskObservation::non_idle();
            t.stall(
                Resource::Memory,
                IntervalSet::from_spans(&[(0, 50_000_000)]), // 50 ms
            );
            psi.observe(SimDuration::from_millis(100), &[t]);
            if psi.fired_triggers().contains(&idx) {
                fired = true;
                break;
            }
        }
        assert!(fired, "trigger never fired");
        assert_eq!(psi.trigger(idx).fired(), 1);
    }

    #[test]
    fn trigger_on_other_resource_stays_silent() {
        use crate::triggers::{Trigger, TriggerKind};
        let mut psi = PsiGroup::new(2);
        let idx = psi.add_trigger(
            Resource::Io,
            Trigger::new(
                TriggerKind::Some,
                SimDuration::from_millis(10),
                SimDuration::from_secs(1),
            ),
        );
        for _ in 0..10 {
            let mut t = TaskObservation::non_idle();
            t.stall(
                Resource::Memory,
                IntervalSet::from_spans(&[(0, 90_000_000)]),
            );
            psi.observe(SimDuration::from_millis(100), &[t]);
            assert!(!psi.fired_triggers().contains(&idx));
        }
    }
}
