//! Deterministic parallel fleet execution, shard-chunked.
//!
//! The paper's headline numbers are fleet aggregates over millions of
//! hosts; the reproduction simulates a representative set of hosts and
//! aggregates their [`HostSavings`](crate::fleet::HostSavings). A
//! [`FleetRunner`] partitions those per-host simulations into
//! **contiguous shards** of host indices, farms the shards out to a
//! worker pool, and keeps the output **bit-identical to a sequential
//! run**:
//!
//! * every host's RNG seed is a pure function of
//!   `(experiment_seed, host_index)` via
//!   [`tmo_sim::derive_host_seed`] — no worker ever advances another
//!   host's stream;
//! * shards are contiguous, ascending index ranges produced by
//!   [`shard_plan`], and results are reduced in **shard-index order**,
//!   which — precisely because the ranges are contiguous and ascending
//!   — is host-index order. Scheduling order cannot leak into the
//!   output;
//! * each worker owns one [`ShardArena`] for its whole lifetime and
//!   reuses it for every host in every shard it claims. The arena
//!   carries only *allocation capacity* (see [`MachineScratch`]), never
//!   values, so reuse is invisible to the simulation — an invariant
//!   pinned by the `arena_reuse` test suite;
//! * a panicking host never hangs or poisons the pool: it becomes a
//!   per-host [`HostOutcome::Failed`] record while every surviving
//!   host's result is still reduced in index order (chaos experiments
//!   lose one host, not the fleet).
//!
//! # One engine, two helpers
//!
//! [`FleetRunner::run_collect_seeded_sharded`] is the only engine. Two
//! thin helpers cover the other call shapes:
//! [`FleetRunner::try_run`] fails fast with the lowest-index
//! [`FleetError`], and [`FleetRunner::run`] fans out index-only work
//! items (figure tiers, sweep points) and panics on failure.
//!
//! # Why shards instead of one task per host
//!
//! The old engine pulled one host index at a time off an atomic
//! counter. At datacenter scale that means one claim, one clock pair,
//! and one result-vector push per host — per-host overhead that at 8
//! hosts actually made `--jobs 4` *slower* than `--jobs 1` in the
//! committed benchmark baseline. Shard chunking amortises all of it:
//! the unit of claiming, timing, and merging is `ceil(hosts /
//! (workers · k))` hosts (k = [`OVERSUBSCRIBE`], for tail balance),
//! and the per-host cost inside a shard is a plain indexed loop plus an
//! arena-recycled simulation.
//!
//! Worker counts are clamped to the machine ([`FleetRunner::new`]):
//! workers beyond `available_parallelism` cannot add throughput, only
//! spawn and contention overhead, and the output is bit-identical for
//! any worker count anyway. Determinism tests that must exercise the
//! multi-worker merge path even on a small machine use
//! [`FleetRunner::exact`].
//!
//! Wall-clock accounting per worker is reported through [`FleetStats`]
//! so callers (the `repro --jobs N` CLI) can show where time went.
//!
//! # The allowlisted timing layer
//!
//! This module is the **only** place in the workspace allowed to read
//! the host clock (`Instant::now`), and the values it produces —
//! [`FleetStats`] wall/busy durations and the derived speedup — are
//! reporting-only: they flow exclusively to stderr via
//! [`FleetStats::summary_line`] (and to the side-channel scaling report
//! file the `ext_paper_scale` experiment writes) and never into a
//! `FleetSummary`, experiment output, or anything else written to
//! stdout, which must stay a pure function of `(seed, host_index,
//! tick)`. The three call sites below carry `// lint: allow(wall-clock)`
//! annotations; the `tmo-lint` CI gate flags any new clock read
//! anywhere else.

use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tmo_sim::derive_host_seed;

use crate::machine::MachineScratch;

/// Shard-size oversubscription factor: each worker's fair share of the
/// fleet is split into this many shards, so a worker that drew a cheap
/// shard can steal another instead of idling at the tail.
pub const OVERSUBSCRIBE: usize = 4;

/// Shards smaller than this are not worth their claim/merge overhead;
/// [`shard_plan`] lifts the chunk size to this floor (capped at a
/// worker's fair share, so small fleets still spread across workers).
pub const MIN_SHARD_HOSTS: usize = 16;

/// Partitions `0..hosts` into contiguous, ascending, equal-size (except
/// the last) shards for `workers` workers at oversubscription factor
/// `oversubscribe`.
///
/// The chunk size is `ceil(hosts / (workers · oversubscribe))`, lifted
/// to [`MIN_SHARD_HOSTS`] (but never above a worker's fair share
/// `ceil(hosts / workers)`, and never below 1). The returned ranges are
/// an **exact cover** of `0..hosts`: concatenated in order they visit
/// every host index exactly once — the property the deterministic
/// merge relies on, pinned by the `shard_chunking` proptests.
pub fn shard_plan(hosts: usize, workers: usize, oversubscribe: usize) -> Vec<Range<usize>> {
    if hosts == 0 {
        return Vec::new();
    }
    let workers = workers.max(1);
    let oversubscribe = oversubscribe.max(1);
    let slots = workers.saturating_mul(oversubscribe);
    let fair = hosts.div_ceil(workers);
    let chunk = hosts.div_ceil(slots).max(MIN_SHARD_HOSTS.min(fair)).max(1);
    let mut shards = Vec::with_capacity(hosts.div_ceil(chunk));
    let mut start = 0;
    while start < hosts {
        let end = hosts.min(start + chunk);
        shards.push(start..end);
        start = end;
    }
    shards
}

/// Per-host context handed to the simulation closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCtx {
    /// The host's index in `0..hosts`, which is also its position in the
    /// result vector.
    pub index: usize,
    /// The host's machine seed, derived from
    /// `(experiment_seed, host_index)`.
    pub seed: u64,
}

/// Per-worker reusable state, threaded through every host a worker
/// simulates.
///
/// The arena's contents are strictly *capacity carriers*: a
/// [`MachineScratch`] parked here between hosts holds empty (scrubbed)
/// buffers whose heap allocations the next host adopts instead of
/// growing its own from zero. Nothing in an arena may influence a
/// host's result — host `i` run alone with a fresh arena and host `i`
/// run mid-shard behind a hundred other hosts must produce identical
/// outcomes (the `arena_reuse` tests enforce this, including under
/// fault injection).
///
/// If a host panics while holding the scratch, the scratch is simply
/// lost with it; [`ShardArena::take_scratch`] falls back to a fresh
/// default, so crash-churn schedules degrade allocation reuse, never
/// correctness.
#[derive(Debug, Default)]
pub struct ShardArena {
    scratch: Option<MachineScratch>,
}

impl ShardArena {
    /// An empty arena (no parked scratch).
    pub fn new() -> Self {
        ShardArena::default()
    }

    /// Takes the parked scratch, or a fresh default if none is parked
    /// (first host of a worker, or the previous host panicked while
    /// holding it).
    pub fn take_scratch(&mut self) -> MachineScratch {
        self.scratch.take().unwrap_or_default()
    }

    /// Parks a retired host's scratch for the next host to adopt.
    pub fn put_scratch(&mut self, scratch: MachineScratch) {
        self.scratch = Some(scratch);
    }

    /// Whether a scratch is currently parked.
    pub fn has_scratch(&self) -> bool {
        self.scratch.is_some()
    }
}

/// A host simulation panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError {
    /// Index of the first (lowest-index) host that failed.
    pub host: usize,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet host {} panicked: {}", self.host, self.message)
    }
}

impl std::error::Error for FleetError {}

/// Outcome of one host in a [`FleetRunner::run_collect_seeded_sharded`]
/// run.
#[derive(Debug, Clone, PartialEq)]
pub enum HostOutcome<T> {
    /// The host ran to completion.
    Completed(T),
    /// The host panicked; the fleet carried on without it.
    Failed(FleetError),
}

impl<T> HostOutcome<T> {
    /// The completed result, if any.
    pub fn completed(&self) -> Option<&T> {
        match self {
            HostOutcome::Completed(value) => Some(value),
            HostOutcome::Failed(_) => None,
        }
    }

    /// Consumes the outcome, yielding the completed result, if any.
    pub fn into_completed(self) -> Option<T> {
        match self {
            HostOutcome::Completed(value) => Some(value),
            HostOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the host panicked.
    pub fn failure(&self) -> Option<&FleetError> {
        match self {
            HostOutcome::Completed(_) => None,
            HostOutcome::Failed(e) => Some(e),
        }
    }

    /// Whether the host panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, HostOutcome::Failed(_))
    }
}

/// Where the wall-clock went during one fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Total hosts simulated.
    pub hosts: usize,
    /// Worker threads used (1 = sequential).
    pub jobs: usize,
    /// Shards the fleet was partitioned into (see [`shard_plan`]).
    pub shards: usize,
    /// Hosts completed by each worker; sums to `hosts`.
    pub shard_hosts: Vec<usize>,
    /// Wall-clock each worker spent inside host simulations.
    pub shard_busy: Vec<Duration>,
    /// End-to-end wall-clock of the run, including merge.
    pub wall: Duration,
}

impl FleetStats {
    /// Sum of per-worker busy time — the sequential-equivalent cost.
    pub fn total_busy(&self) -> Duration {
        self.shard_busy.iter().sum()
    }

    /// Parallel speedup actually achieved: busy time over wall time.
    pub fn speedup(&self) -> f64 {
        if self.wall.is_zero() {
            return 1.0;
        }
        self.total_busy().as_secs_f64() / self.wall.as_secs_f64()
    }

    /// One-line human summary, e.g. for experiment output footers.
    pub fn summary_line(&self) -> String {
        let workers: Vec<String> = self
            .shard_hosts
            .iter()
            .zip(&self.shard_busy)
            .map(|(hosts, busy)| format!("{hosts} hosts/{:.2}s", busy.as_secs_f64()))
            .collect();
        format!(
            "fleet: {} hosts in {} shard(s) on {} worker(s) in {:.2}s ({:.2}x speedup) [{}]",
            self.hosts,
            self.shards,
            self.jobs,
            self.wall.as_secs_f64(),
            self.speedup(),
            workers.join(", ")
        )
    }
}

/// Shards per-host simulations across a worker pool with deterministic,
/// host-index-ordered reduction.
///
/// # Determinism
///
/// For a fixed `(experiment_seed, hosts, f)`, the result vector is
/// bit-identical for every `jobs` value: seeds depend only on the host
/// index, and shard results are merged in shard-index (= host-index)
/// order. The closure `f` must itself be a pure function of its
/// [`HostCtx`] (true for `Machine` simulations, which draw only from
/// their seeded [`tmo_sim::DetRng`]); the [`ShardArena`] handed to it
/// carries allocation capacity only and must not influence results.
///
/// # Example
///
/// ```
/// use tmo::runner::FleetRunner;
///
/// let parallel = FleetRunner::exact(4);
/// let sequential = FleetRunner::sequential();
/// let f = |host: tmo::runner::HostCtx, _: &mut _| host.seed.wrapping_mul(host.index as u64 + 1);
/// assert_eq!(
///     parallel.try_run(7, 100, f).unwrap().0,
///     sequential.try_run(7, 100, f).unwrap().0,
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FleetRunner {
    jobs: usize,
}

impl Default for FleetRunner {
    /// A runner sized to the machine (`available_parallelism`).
    fn default() -> Self {
        FleetRunner::new(0)
    }
}

impl FleetRunner {
    /// A runner with at most `jobs` worker threads, clamped to the
    /// machine's available parallelism. `jobs == 0` means "size to the
    /// machine", like `make -j`.
    ///
    /// The clamp exists because workers beyond the core count cannot
    /// add throughput — results are bit-identical for any worker count,
    /// so extra threads buy only spawn and contention overhead. Tests
    /// that must exercise the multi-worker merge path regardless of the
    /// machine use [`FleetRunner::exact`].
    pub fn new(jobs: usize) -> Self {
        let cores = Self::machine_parallelism();
        FleetRunner {
            jobs: if jobs == 0 { cores } else { jobs.min(cores) },
        }
    }

    /// A runner with exactly `jobs` worker threads (at least 1), even
    /// if that oversubscribes the machine. Determinism tests use this
    /// to drive the real multi-worker claim/merge path on any host.
    pub fn exact(jobs: usize) -> Self {
        FleetRunner { jobs: jobs.max(1) }
    }

    /// The degenerate single-worker runner: runs hosts inline on the
    /// calling thread, in order.
    pub fn sequential() -> Self {
        FleetRunner { jobs: 1 }
    }

    fn machine_parallelism() -> usize {
        // lint: allow(determinism-taint) sizes the worker pool only; results are jobs-invariant (seed-stability gate pins --jobs 1 == --jobs N)
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Worker threads this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The machine seed for `host_index` under `experiment_seed` — the
    /// exact mapping every fleet run uses for [`HostCtx::seed`].
    pub fn host_seed(experiment_seed: u64, host_index: usize) -> u64 {
        derive_host_seed(experiment_seed, host_index as u64)
    }

    /// Fails fast over [`FleetRunner::run_collect_seeded_sharded`]:
    /// results in host-index order when every host completed, otherwise
    /// the lowest-index host panic as a [`FleetError`].
    pub fn try_run<T, F>(
        &self,
        experiment_seed: u64,
        hosts: usize,
        f: F,
    ) -> Result<(Vec<T>, FleetStats), FleetError>
    where
        T: Send,
        F: Fn(HostCtx, &mut ShardArena) -> T + Sync,
    {
        let (outcomes, stats) = self.run_collect_seeded_sharded(experiment_seed, hosts, f);
        // Outcomes are in index order, so the first failure is the
        // lowest-index one.
        let results = outcomes
            .into_iter()
            .map(|outcome| match outcome {
                HostOutcome::Completed(value) => Ok(value),
                HostOutcome::Failed(e) => Err(e),
            })
            .collect::<Result<Vec<T>, FleetError>>()?;
        Ok((results, stats))
    }

    /// Fans `hosts` work items out by index, returning results in index
    /// order — for heterogeneous items (figure tiers, sweep points) that
    /// carry their own seeds.
    ///
    /// # Panics
    ///
    /// Propagates the first (lowest-index) panic, naming the item.
    pub fn run<T, F>(&self, hosts: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.try_run(0, hosts, move |ctx, _| f(ctx.index)) {
            Ok((results, _)) => results,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fleet engine: runs `hosts` simulations with seeds derived
    /// from `experiment_seed` and returns **every** per-host outcome in
    /// host-index order — survivors as [`HostOutcome::Completed`],
    /// panicked hosts as [`HostOutcome::Failed`] — so one bad host
    /// costs the fleet one result, not all of them.
    ///
    /// The host range is partitioned by [`shard_plan`], workers claim
    /// whole shards off an atomic counter, every host index runs
    /// exactly once inside its shard against the worker's
    /// [`ShardArena`], and shard results are concatenated in
    /// shard-index order — which, because shards are contiguous
    /// ascending ranges, is host-index order.
    ///
    /// This is the allowlisted timing layer (see the module docs): the
    /// clippy exemption below and the per-site `lint: allow` comments
    /// cover the same three `Instant::now` reads, whose values are
    /// reported to stderr only.
    #[allow(clippy::disallowed_methods)]
    pub fn run_collect_seeded_sharded<T, F>(
        &self,
        experiment_seed: u64,
        hosts: usize,
        f: F,
    ) -> (Vec<HostOutcome<T>>, FleetStats)
    where
        T: Send,
        F: Fn(HostCtx, &mut ShardArena) -> T + Sync,
    {
        let start = Instant::now(); // lint: allow(wall-clock) stderr-only speedup reporting via FleetStats::summary_line
        let workers = self.jobs.min(hosts).max(1);
        let shards = shard_plan(hosts, workers, OVERSUBSCRIBE);
        let run_host = |index: usize, arena: &mut ShardArena| -> HostOutcome<T> {
            let ctx = HostCtx {
                index,
                seed: FleetRunner::host_seed(experiment_seed, index),
            };
            match catch_unwind(AssertUnwindSafe(|| f(ctx, arena))) {
                Ok(value) => HostOutcome::Completed(value),
                Err(payload) => HostOutcome::Failed(FleetError {
                    host: index,
                    message: panic_message(payload.as_ref()),
                }),
            }
        };

        if workers == 1 {
            // Inline on the calling thread: no spawn, one arena, hosts
            // already in index order.
            let mut arena = ShardArena::new();
            let mut outcomes = Vec::with_capacity(hosts);
            let busy_start = Instant::now(); // lint: allow(wall-clock) stderr-only per-worker busy accounting
            for index in 0..hosts {
                outcomes.push(run_host(index, &mut arena));
            }
            let stats = FleetStats {
                hosts,
                jobs: 1,
                shards: shards.len(),
                shard_hosts: vec![hosts],
                shard_busy: vec![busy_start.elapsed()],
                wall: start.elapsed(),
            };
            return (outcomes, stats);
        }

        // Work-stealing by atomic counter over *shards*: each worker
        // pulls the next unclaimed shard and runs its whole contiguous
        // host range against the worker's private arena. The *claim*
        // order is scheduling-dependent, but seeds depend only on the
        // host index and the merge below restores shard order, so
        // results are not. Failures do not stop a worker: in chaos runs
        // a panicking host is routine, and the rest of the fleet must
        // still be simulated.
        let shard_count = shards.len();
        let next = AtomicUsize::new(0);
        let per_worker: Vec<WorkerOutcome<T>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let shards = &shards;
                    let run_host = &run_host;
                    scope.spawn(move || {
                        let mut arena = ShardArena::new();
                        let mut completed: Vec<(usize, Vec<HostOutcome<T>>)> = Vec::new();
                        let mut hosts_done = 0usize;
                        let mut busy = Duration::ZERO;
                        loop {
                            let shard_index = next.fetch_add(1, Ordering::Relaxed);
                            if shard_index >= shard_count {
                                break;
                            }
                            let range = shards[shard_index].clone();
                            let shard_start = Instant::now(); // lint: allow(wall-clock) stderr-only per-worker busy accounting
                            let mut outcomes = Vec::with_capacity(range.len());
                            for index in range {
                                outcomes.push(run_host(index, &mut arena));
                            }
                            busy += shard_start.elapsed();
                            hosts_done += outcomes.len();
                            completed.push((shard_index, outcomes));
                        }
                        WorkerOutcome {
                            completed,
                            hosts: hosts_done,
                            busy,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panics are caught per host"))
                .collect()
        });

        let mut stats = FleetStats {
            hosts,
            jobs: workers,
            shards: shard_count,
            shard_hosts: Vec::with_capacity(workers),
            shard_busy: Vec::with_capacity(workers),
            wall: Duration::ZERO,
        };
        let mut slots: Vec<Option<Vec<HostOutcome<T>>>> = (0..shard_count).map(|_| None).collect();
        for worker in per_worker {
            stats.shard_hosts.push(worker.hosts);
            stats.shard_busy.push(worker.busy);
            for (shard_index, outcomes) in worker.completed {
                slots[shard_index] = Some(outcomes);
            }
        }
        let mut merged = Vec::with_capacity(hosts);
        for slot in slots {
            merged.extend(slot.expect("every shard index was claimed exactly once"));
        }
        stats.wall = start.elapsed();
        (merged, stats)
    }
}

struct WorkerOutcome<T> {
    /// Shard results this worker produced, tagged by shard index.
    completed: Vec<(usize, Vec<HostOutcome<T>>)>,
    /// Hosts simulated across all claimed shards.
    hosts: usize,
    /// Wall-clock spent inside host simulations.
    busy: Duration,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_host_index_order_with_hosts_far_exceeding_workers() {
        let runner = FleetRunner::exact(4);
        let (results, stats) = runner
            .try_run(0, 257, |host, _| host.index * 3)
            .expect("no host panics");
        assert_eq!(results, (0..257).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(stats.hosts, 257);
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.shards, shard_plan(257, 4, OVERSUBSCRIBE).len());
        assert_eq!(stats.shard_hosts.iter().sum::<usize>(), 257);
        assert_eq!(stats.shard_busy.len(), 4);
    }

    #[test]
    fn jobs_one_degenerate_case_matches_parallel() {
        let f = |host: HostCtx, _: &mut ShardArena| (host.index, host.seed, host.seed % 7);
        let sequential = FleetRunner::sequential().try_run(11, 40, f).unwrap().0;
        let parallel = FleetRunner::exact(8).try_run(11, 40, f).unwrap().0;
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn jobs_zero_sizes_to_the_machine() {
        assert!(FleetRunner::new(0).jobs() >= 1);
        assert_eq!(FleetRunner::new(0).jobs(), FleetRunner::default().jobs());
    }

    #[test]
    fn new_clamps_to_machine_parallelism_and_exact_does_not() {
        let cores = FleetRunner::new(0).jobs();
        assert!(FleetRunner::new(10_000).jobs() <= cores);
        assert_eq!(FleetRunner::exact(10_000).jobs(), 10_000);
        assert_eq!(FleetRunner::exact(0).jobs(), 1);
    }

    #[test]
    fn shard_plan_is_an_exact_contiguous_cover() {
        for &(hosts, workers) in &[
            (1usize, 1usize),
            (8, 4),
            (17, 4),
            (257, 4),
            (1000, 3),
            (100_000, 8),
        ] {
            let shards = shard_plan(hosts, workers, OVERSUBSCRIBE);
            let mut expected_start = 0;
            for shard in &shards {
                assert_eq!(shard.start, expected_start, "{hosts}/{workers}");
                assert!(shard.end > shard.start, "empty shard at {hosts}/{workers}");
                expected_start = shard.end;
            }
            assert_eq!(expected_start, hosts, "{hosts}/{workers}");
        }
        assert!(shard_plan(0, 4, OVERSUBSCRIBE).is_empty());
    }

    #[test]
    fn shard_plan_spreads_small_fleets_across_workers() {
        // 8 hosts / 4 workers: the MIN_SHARD_HOSTS floor must cap at the
        // fair share (2), not collapse the fleet into one 8-host shard.
        let shards = shard_plan(8, 4, OVERSUBSCRIBE);
        assert!(shards.len() >= 4, "shards: {shards:?}");
    }

    #[test]
    fn shard_plan_amortises_large_fleets() {
        // 100k hosts / 4 workers: chunks of ceil(100k/16) = 6250, i.e.
        // 16 shards — thousands of hosts per claim, not one.
        let shards = shard_plan(100_000, 4, OVERSUBSCRIBE);
        assert_eq!(shards.len(), 16);
        assert!(shards.iter().all(|s| s.len() >= 6_000));
    }

    #[test]
    fn seeds_are_per_host_and_independent_of_jobs() {
        let seeds = |runner: FleetRunner| runner.try_run(42, 16, |h, _| h.seed).unwrap().0;
        let seeds_seq = seeds(FleetRunner::sequential());
        let seeds_par = seeds(FleetRunner::exact(4));
        assert_eq!(seeds_seq, seeds_par);
        for (index, seed) in seeds_seq.iter().enumerate() {
            assert_eq!(*seed, FleetRunner::host_seed(42, index));
        }
        let mut unique = seeds_seq.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds_seq.len(), "host seeds must not collide");
    }

    #[test]
    fn arena_is_threaded_through_every_host_of_a_worker() {
        // Count scratch handoffs: each host takes the scratch and puts
        // it back, so within one sequential worker the arena must carry
        // the same scratch through all hosts.
        let (handoffs, _) = FleetRunner::sequential()
            .try_run(5, 10, |_ctx, arena| {
                let had = arena.has_scratch();
                let scratch = arena.take_scratch();
                arena.put_scratch(scratch);
                had
            })
            .unwrap();
        assert!(!handoffs[0], "first host starts with an empty arena");
        assert!(
            handoffs[1..].iter().all(|&had| had),
            "every later host inherits the parked scratch"
        );
    }

    #[test]
    fn panicking_host_surfaces_an_error_instead_of_hanging() {
        let runner = FleetRunner::exact(4);
        let err = runner
            .try_run(0, 64, |host, _| {
                if host.index == 13 {
                    panic!("boom on host 13");
                }
                host.index
            })
            .expect_err("host 13 panicked");
        assert_eq!(err.host, 13);
        assert!(err.message.contains("boom"), "message: {}", err.message);
    }

    #[test]
    fn panicking_host_reports_lowest_index_sequentially_too() {
        let err = FleetRunner::sequential()
            .try_run(0, 8, |host, _| {
                if host.index >= 2 {
                    panic!("late failure");
                }
                host.index
            })
            .expect_err("host 2 panicked");
        assert_eq!(err.host, 2);
        assert!(err.to_string().contains("host 2"));
    }

    #[test]
    fn run_panics_with_host_context() {
        let caught = std::panic::catch_unwind(|| {
            FleetRunner::exact(2).run(4, |index| {
                if index == 1 {
                    panic!("kaput");
                }
                index
            })
        })
        .expect_err("propagates");
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("host 1"), "message: {message}");
        assert!(message.contains("kaput"), "message: {message}");
    }

    #[test]
    fn run_collect_keeps_survivors_alongside_failures() {
        let (outcomes, stats) =
            FleetRunner::exact(4).run_collect_seeded_sharded(0, 64, |host, _| {
                let index = host.index;
                if index % 10 == 3 {
                    panic!("injected panic on host {index}");
                }
                index * 2
            });
        assert_eq!(outcomes.len(), 64);
        assert_eq!(stats.shard_hosts.iter().sum::<usize>(), 64);
        for (index, outcome) in outcomes.iter().enumerate() {
            if index % 10 == 3 {
                let e = outcome.failure().expect("failed host");
                assert_eq!(e.host, index);
                assert!(e.message.contains("injected panic"));
            } else {
                assert_eq!(outcome.completed(), Some(&(index * 2)));
            }
        }
        let survivors = outcomes.iter().filter(|o| !o.is_failed()).count();
        assert_eq!(survivors, 57);
    }

    #[test]
    fn run_collect_is_identical_for_any_worker_count() {
        let f = |h: HostCtx, _: &mut ShardArena| {
            if h.index % 7 == 5 {
                panic!("chaos host {}", h.index);
            }
            h.seed
        };
        let (seq, _) = FleetRunner::sequential().run_collect_seeded_sharded(1300, 50, f);
        let (par, _) = FleetRunner::exact(4).run_collect_seeded_sharded(1300, 50, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn panic_mid_shard_loses_scratch_but_not_determinism() {
        // Host 5 panics while holding the scratch; host 6 must still run
        // and take_scratch must fall back to a default.
        let f = |ctx: HostCtx, arena: &mut ShardArena| {
            let scratch = arena.take_scratch();
            if ctx.index == 5 {
                panic!("dies holding the scratch");
            }
            arena.put_scratch(scratch);
            ctx.seed
        };
        let (seq, _) = FleetRunner::sequential().run_collect_seeded_sharded(9, 12, f);
        let (par, _) = FleetRunner::exact(3).run_collect_seeded_sharded(9, 12, f);
        assert_eq!(seq, par);
        assert!(seq[5].is_failed());
        assert_eq!(seq.iter().filter(|o| o.is_failed()).count(), 1);
    }

    #[test]
    fn poisoned_host_surfaces_its_payload_and_spares_its_shard() {
        // One shard (sequential runner, 6 hosts): host 2 panics with a
        // String payload, host 4 with a non-string payload. Every other
        // host in the same shard must still complete, and each failure
        // record must carry the best available message.
        let (outcomes, _) =
            FleetRunner::sequential().run_collect_seeded_sharded(0, 6, |host, _| {
                match host.index {
                    2 => panic!("poisoned host 2"),
                    4 => std::panic::panic_any(4u64),
                    index => index + 100,
                }
            });
        assert_eq!(outcomes.len(), 6);
        let string_err = outcomes[2].failure().expect("host 2 failed");
        assert_eq!(string_err.host, 2);
        assert_eq!(string_err.message, "poisoned host 2");
        assert_eq!(
            string_err.to_string(),
            "fleet host 2 panicked: poisoned host 2"
        );
        let any_err = outcomes[4].failure().expect("host 4 failed");
        assert_eq!(any_err.message, "non-string panic payload");
        for index in [0, 1, 3, 5] {
            assert_eq!(
                outcomes[index].completed(),
                Some(&(index + 100)),
                "host {index} should have survived its shard-mates' panics"
            );
        }
    }

    #[test]
    fn zero_hosts_is_fine() {
        let (results, stats) = FleetRunner::exact(4)
            .try_run(0, 0, |host, _| host.index)
            .expect("empty fleet");
        assert!(results.is_empty());
        assert_eq!(stats.hosts, 0);
        assert_eq!(stats.jobs, 1, "an empty fleet needs no workers");
        assert_eq!(stats.shards, 0);
    }

    #[test]
    fn stats_summary_line_mentions_hosts_and_workers() {
        let (_, stats) = FleetRunner::exact(2)
            .try_run(0, 40, |host, _| host.index)
            .expect("runs");
        let line = stats.summary_line();
        assert!(line.contains("40 hosts"), "line: {line}");
        assert!(line.contains("2 worker"), "line: {line}");
        assert!(line.contains("shard"), "line: {line}");
        assert_eq!(
            stats.total_busy(),
            stats.shard_busy.iter().sum::<Duration>()
        );
        assert!(stats.speedup() >= 0.0);
    }
}
