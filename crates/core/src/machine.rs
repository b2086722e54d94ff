//! One simulated datacenter host.

use std::collections::VecDeque;

use tmo_backends::{OffloadBackend, SsdModel, ZswapAllocator, ZswapPool};
use tmo_faults::{FaultConfig, FaultPlan, FaultyBackend, HostFaults, SignalFate};
use tmo_mm::manager::AllocError;
use tmo_mm::{
    CgroupId, MemoryManager, MmConfig, MmScratch, PageId, PageKind, ReclaimOutcome, ReclaimPolicy,
};
use tmo_psi::{PsiGroup, Resource, SpanBatch};
use tmo_senpai::{ContainerSignal, OomdSignal};
use tmo_sim::{ByteSize, Clock, DetRng, Recorder, SeriesId, SimDuration, SimTime};
use tmo_workload::{AccessPlanner, AppProfile, WebServerModel, PAGES_PER_REQUEST};

use crate::container::{
    Container, ContainerConfig, ContainerId, ContainerSeriesIds, EventSeriesIds, TickStats,
    ANON_PRELOAD_FRACTION,
};
use crate::modulate::WorkloadModulator;

/// Which offload backend the host's swap uses.
#[derive(Debug, Clone, PartialEq)]
pub enum SwapKind {
    /// No swap: file-only mode (the paper's first deployment step).
    None,
    /// A fleet SSD model (Figure 5) with its catalog capacity.
    Ssd(SsdModel),
    /// A zswap compressed-memory pool carved out of DRAM.
    Zswap {
        /// Pool capacity as a fraction of DRAM.
        capacity_fraction: f64,
        /// Pool allocator model.
        allocator: ZswapAllocator,
    },
    /// The §5.2 tiered hierarchy: a zswap pool over an SSD, with
    /// background demotion of idle warm pages.
    Tiered {
        /// Warm-tier pool capacity as a fraction of DRAM.
        zswap_fraction: f64,
        /// Warm-tier allocator.
        allocator: ZswapAllocator,
        /// Cold-tier SSD model.
        ssd: SsdModel,
        /// Age after which idle warm pages demote to the SSD.
        demote_after: SimDuration,
    },
}

/// The filesystem SSD model every host reads its file pages from.
const FS_SSD: SsdModel = SsdModel::C;

/// Host configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// DRAM size.
    pub dram: ByteSize,
    /// Simulated page granularity.
    pub page_size: ByteSize,
    /// CPU count: the capacity that sizes CPU contention stalls.
    pub cpus: u32,
    /// Swap backend.
    pub swap: SwapKind,
    /// Kernel reclaim policy.
    pub policy: ReclaimPolicy,
    /// Simulation tick.
    pub tick: SimDuration,
    /// CPU time consumed per page access; with the tick length and CPU
    /// count this determines when CPU pressure appears.
    pub access_cpu: SimDuration,
    /// Run seed: every stochastic draw derives from it.
    pub seed: u64,
    /// Deterministic fault injection (chaos experiments). `None` — and
    /// a config whose intensity is zero — leaves the host fault-free.
    /// The fault schedule derives purely from `seed`, so it is as
    /// reproducible as the rest of the run.
    pub faults: Option<FaultConfig>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            dram: ByteSize::from_gib(1),
            page_size: ByteSize::from_kib(16),
            cpus: 8,
            swap: SwapKind::None,
            policy: ReclaimPolicy::RefaultBalanced,
            tick: SimDuration::from_millis(100),
            access_cpu: SimDuration::from_micros(20),
            seed: 42,
            faults: None,
        }
    }
}

/// A failed footprint allocation: the temperature class and page kind
/// that did not fit, and why.
type FootprintError = (usize, PageKind, AllocError);

/// Reusable allocation scratch for one [`Machine`]: the hot tick
/// path's buffers, the memory manager's page slab, free-slot list and
/// per-cgroup LRU lists, and the metric recorder.
///
/// Every buffer in here is **semantically inert**: each is cleared (or
/// fully overwritten) before any tick reads it, the manager's
/// [`MmScratch`] is emptied by the manager itself on adoption and on
/// retirement, and the recorder is cleared, so what a recycled scratch
/// carries from one machine to the next is heap *capacity* plus the
/// recorder's series names, each with at most one open chunk of
/// values, and never a sample: a cleared series stays invisible until
/// the next host resolves its name again. That property is what lets
/// the fleet runner hand one scratch from host to host inside a shard
/// arena without breaking the bit-identical determinism contract — and
/// it is pinned by the `arena_reuse` invariant tests.
///
/// Obtain one from [`Machine::into_scratch`] when a host simulation
/// finishes, and thread it into the next host via
/// [`Machine::with_scratch`].
#[derive(Debug, Default)]
pub struct MachineScratch {
    /// Batched page ids drawn for one temperature class.
    batch_ids: Vec<tmo_mm::PageId>,
    /// One paced allocation's new pages (growth, churn, leak).
    paced: Vec<PageId>,
    /// Per-class touch counts for one container tick.
    plan: Vec<u64>,
    /// Swap-in latencies observed during one tick.
    swap_latencies: Vec<f64>,
    /// Per-container tick stats for one tick.
    all_stats: Vec<TickStats>,
    /// Packed stall spans for one container's PSI window.
    container_batch: SpanBatch,
    /// Packed stall spans for the machine-wide PSI window (all
    /// containers' tasks in one batch).
    host_batch: SpanBatch,
    /// The memory manager's page slab and LRU capacity.
    mm: MmScratch,
    /// The metric recorder, cleared: its slots keep their names and
    /// open chunks so the next host's series revive without allocating.
    recorder: Recorder,
    /// Builds `{container}.{suffix}` series names without allocating.
    series_name: String,
}

impl MachineScratch {
    /// Clears every buffer, keeping capacity. Values never survive a
    /// handoff; only the allocations (and the recorder's names) do.
    fn scrub(&mut self) {
        self.recorder.clear();
        self.batch_ids.clear();
        self.paced.clear();
        self.plan.clear();
        self.swap_latencies.clear();
        self.all_stats.clear();
        self.container_batch.clear();
        self.host_batch.clear();
    }
}

/// One simulated host: DRAM, CPUs, a cgroup tree of containers, a swap
/// backend, a filesystem SSD, per-container PSI, and a metric recorder.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    mm: MemoryManager,
    clock: Clock,
    containers: Vec<Container>,
    rng: DetRng,
    recorder: Recorder,
    /// fs-device read counter at the previous tick, for rate series.
    prev_fs_reads: u64,
    /// swap backend read counter at the previous tick.
    prev_swap_reads: u64,
    /// Machine-wide PSI domain (union of every container's tasks).
    host_psi: PsiGroup,
    /// Run-level p99 swap-in latency (streaming).
    swap_lat_p99: tmo_sim::P2Quantile,
    /// Host-level fault schedule (signal loss, crash churn, panics);
    /// `None` when the run is fault-free.
    host_faults: Option<HostFaults>,
    /// Last fresh Senpai signal per container, replayed on stale reads.
    signal_cache: Vec<Option<ContainerSignal>>,
    /// Scenario workload modulator (demand waves, leaks, churn spikes,
    /// storm kills); `None` leaves the tick path byte-identical to a
    /// pre-scenario machine.
    modulator: Option<Box<dyn WorkloadModulator>>,
    /// Reusable tick-path buffers (see [`MachineScratch`]); recyclable
    /// across machines via `with_scratch`/`into_scratch`.
    scratch: MachineScratch,
    /// Cached recorder handles for the machine-level series, resolved on
    /// the first recorded tick so steady-state ticks skip name lookups.
    machine_series: Option<MachineSeriesIds>,
    /// Cached handle for `swap.read_p90_ms`, resolved lazily on the
    /// first tick that observes a swap-in (the series only exists on
    /// runs that actually swap, same as before).
    swap_p90_id: Option<SeriesId>,
}

/// Recorder handles for the per-tick machine-wide series.
#[derive(Debug, Clone, Copy)]
struct MachineSeriesIds {
    psi_mem_some10: SeriesId,
    free_mib: SeriesId,
    zswap_pool_mib: SeriesId,
    fs_read_iops: SeriesId,
    /// `None` when the host has no swap backend (series never exists).
    swap_write_mbps: Option<SeriesId>,
    swap_read_iops: Option<SeriesId>,
}

/// Resolves the series `{container}.{suffix}`, building the name in
/// `buf` so a name the recorder already holds costs no allocation.
fn container_series_id(
    rec: &mut Recorder,
    buf: &mut String,
    container: &str,
    suffix: &str,
) -> SeriesId {
    buf.clear();
    buf.push_str(container);
    buf.push('.');
    buf.push_str(suffix);
    rec.series_id(buf)
}

impl Machine {
    /// Builds a host from the config.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configs (zero page size, zero CPUs, zswap
    /// fraction outside `(0, 1)`).
    pub fn new(config: MachineConfig) -> Self {
        Machine::with_scratch(config, MachineScratch::default())
    }

    /// Like [`Machine::new`], but adopts an existing scratch so its
    /// buffer capacity is reused instead of re-grown from zero. The
    /// scratch is scrubbed on adoption: behavior is bit-identical to
    /// `Machine::new` whatever the scratch previously held.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configs (zero page size, zero CPUs, zswap
    /// fraction outside `(0, 1)`).
    pub fn with_scratch(config: MachineConfig, mut scratch: MachineScratch) -> Self {
        scratch.scrub();
        assert!(config.cpus > 0, "a machine needs CPUs");
        let mut seed_rng = DetRng::seed_from_u64(config.seed);
        // A zero-intensity config is indistinguishable from no faults;
        // normalising here keeps the fault-free path byte-identical.
        let faults = config.faults.filter(|fc| !fc.is_off());
        let swap: Option<Box<dyn OffloadBackend>> = match &config.swap {
            SwapKind::None => None,
            SwapKind::Ssd(model) => Some(Box::new(tmo_backends::catalog::fleet_device(*model))),
            SwapKind::Zswap {
                capacity_fraction,
                allocator,
            } => {
                assert!(
                    *capacity_fraction > 0.0 && *capacity_fraction < 1.0,
                    "zswap fraction {capacity_fraction} outside (0, 1)"
                );
                Some(Box::new(ZswapPool::new(
                    config.dram.mul_f64(*capacity_fraction),
                    *allocator,
                )))
            }
            SwapKind::Tiered {
                zswap_fraction,
                allocator,
                ssd,
                demote_after,
            } => {
                assert!(
                    *zswap_fraction > 0.0 && *zswap_fraction < 1.0,
                    "zswap fraction {zswap_fraction} outside (0, 1)"
                );
                Some(Box::new(tmo_backends::TieredBackend::new(
                    ZswapPool::new(config.dram.mul_f64(*zswap_fraction), *allocator),
                    tmo_backends::catalog::fleet_device(*ssd),
                    *demote_after,
                )))
            }
        };
        // The fault plan derives from the host seed alone, in a seed
        // namespace disjoint from the workload RNG streams, so fault
        // timing never perturbs (or is perturbed by) workload draws.
        let swap = match (swap, faults) {
            (Some(inner), Some(fc)) => Some(Box::new(FaultyBackend::new(
                inner,
                FaultPlan::new(config.seed, 0),
                fc,
            )) as Box<dyn OffloadBackend>),
            (swap, _) => swap,
        };
        let mm = MemoryManager::with_scratch(
            MmConfig {
                page_size: config.page_size,
                total_dram: config.dram,
                swap,
                fs_device: tmo_backends::catalog::fleet_device(FS_SSD),
                policy: config.policy,
                seed: seed_rng.fork(1).next_u64(),
            },
            std::mem::take(&mut scratch.mm),
        );
        let recorder = std::mem::take(&mut scratch.recorder);
        let clock = Clock::new(config.tick);
        let rng = seed_rng.fork(2);
        let host_faults = faults.map(|fc| HostFaults::new(config.seed, 0, fc));
        Machine {
            config,
            mm,
            clock,
            containers: Vec::new(),
            rng,
            recorder,
            prev_fs_reads: 0,
            prev_swap_reads: 0,
            host_psi: PsiGroup::new(),
            swap_lat_p99: tmo_sim::P2Quantile::new(0.99),
            host_faults,
            signal_cache: Vec::new(),
            modulator: None,
            scratch,
            machine_series: None,
            swap_p90_id: None,
        }
    }

    /// Attaches a scenario workload modulator. Its hooks are consulted
    /// every tick for every container; see [`WorkloadModulator`] for
    /// the purity contract that keeps modulated runs deterministic.
    pub fn set_modulator(&mut self, modulator: Box<dyn WorkloadModulator>) {
        self.modulator = Some(modulator);
    }

    /// Detaches the modulator, returning it if one was attached.
    pub fn clear_modulator(&mut self) -> Option<Box<dyn WorkloadModulator>> {
        self.modulator.take()
    }

    /// Turns on causal reclaim-pressure tracking (idempotent): the mm
    /// layer records, per eviction, which container's demand triggered
    /// it, and charges each later fault-back stall to that trigger. The
    /// tick loop names the acting container around every allocation and
    /// access batch, and [`Machine::reclaim`] names its target, so
    /// proactive (Senpai) evictions self-attribute while direct-reclaim
    /// evictions are charged to the allocator that forced them.
    /// Tracking draws no RNG and emits nothing: enabled or not, all
    /// simulation output stays byte-identical.
    pub fn enable_causal_tracking(&mut self) {
        self.mm.enable_provenance();
    }

    /// Drains the accumulated `(victim, offender)` stall charges into
    /// `out` (cleared first; empty unless
    /// [`Machine::enable_causal_tracking`] was called). Charges are in
    /// cgroup terms; map them to containers via
    /// [`Container::cgroup`](crate::container::Container::cgroup).
    pub fn drain_causal_charges(&mut self, out: &mut Vec<tmo_mm::ProvenanceCharge>) {
        self.mm.drain_provenance_charges(out);
    }

    /// Retires the machine, releasing its scratch buffers and recorder
    /// (scrubbed: capacity and series names only, no values) for the
    /// next host to adopt via [`Machine::with_scratch`].
    pub fn into_scratch(self) -> MachineScratch {
        let mut scratch = self.scratch;
        scratch.recorder = self.recorder;
        scratch.scrub();
        scratch.mm = self.mm.into_scratch();
        scratch
    }

    /// The host configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The kernel memory manager (read access for stats / coldness).
    pub fn mm(&self) -> &MemoryManager {
        &self.mm
    }

    /// Mutable kernel access for experiments that drive reclaim or
    /// tuning directly.
    pub fn mm_mut(&mut self) -> &mut MemoryManager {
        &mut self.mm
    }

    /// Recorded metric series.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// A container by id.
    ///
    /// # Panics
    ///
    /// Panics on an id from a different machine.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.0]
    }

    /// All container ids.
    pub fn container_ids(&self) -> impl Iterator<Item = ContainerId> {
        (0..self.containers.len()).map(ContainerId)
    }

    /// Number of containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// The machine-wide PSI domain: the aggregate of every container's
    /// tasks, equivalent to the system-level `/proc/pressure` files.
    pub fn host_psi(&self) -> &PsiGroup {
        &self.host_psi
    }

    /// Free DRAM as a fraction of total.
    pub fn free_fraction(&self) -> f64 {
        let g = self.mm.global_stat();
        g.free_bytes.as_u64() as f64 / g.total_dram.as_u64() as f64
    }

    /// Run-level p99 swap-in latency in milliseconds over every swap
    /// fault so far (a streaming P² estimate; zero before any swap-in).
    pub fn swap_latency_p99_ms(&self) -> f64 {
        self.swap_lat_p99.value() * 1e3
    }

    /// Creates an intermediate cgroup (a "slice" in systemd terms) to
    /// parent containers under; `memory.max`, `memory.low`, and
    /// `memory.reclaim` on the slice apply to the whole subtree.
    pub fn create_slice(&mut self, name: &str) -> tmo_mm::CgroupId {
        self.mm.create_cgroup(name, None)
    }

    /// Adds a plain container for `profile` with default behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the footprint cannot be allocated (size the machine so
    /// initial workloads fit).
    pub fn add_container(&mut self, profile: &AppProfile) -> ContainerId {
        self.add_container_with(profile, ContainerConfig::default())
    }

    /// Adds a container with explicit behaviour flags.
    ///
    /// # Panics
    ///
    /// See [`Machine::add_container`].
    pub fn add_container_with(
        &mut self,
        profile: &AppProfile,
        cfg: ContainerConfig,
    ) -> ContainerId {
        let cg = self.mm.create_cgroup(&profile.name, cfg.slice);
        self.mm.set_compress_ratio(cg, profile.compress_ratio);
        let total_pages = profile
            .mem_total
            .div_ceil_pages(self.config.page_size)
            .as_u64();
        let planner = AccessPlanner::new(profile.classes.clone(), total_pages);

        // Under lazy growth only the preload share of anon is allocated
        // now.
        let (growth_total_anon, anon_budget_now) = if cfg.anon_growth.is_some() {
            let total = profile.anon_bytes().as_u64() / self.config.page_size.as_u64();
            (total, (total as f64 * ANON_PRELOAD_FRACTION) as u64)
        } else {
            (0, u64::MAX)
        };
        let (class_pages, anon_allocated) = self
            .alloc_footprint(
                cg,
                planner.pages_per_class(),
                profile.anon_fraction,
                anon_budget_now,
            )
            .unwrap_or_else(|(ci, kind, e)| {
                panic!(
                    "initial {kind} allocation failed for {} class {ci}: {e}",
                    profile.name
                )
            });

        let growth_remaining = growth_total_anon.saturating_sub(anon_allocated);
        let growth_pages_per_sec = cfg
            .anon_growth
            .map(|rate| rate.as_u64() as f64 / self.config.page_size.as_u64() as f64)
            .unwrap_or(0.0);
        let initial_resident_pages = self.mm.cgroup_stat(cg).resident().as_u64();
        let growth_weights = if growth_remaining > 0 {
            planner.classes().iter().map(|c| c.fraction).collect()
        } else {
            Vec::new()
        };

        let id = ContainerId(self.containers.len());
        self.containers.push(Container {
            cg,
            profile: profile.clone(),
            planner,
            class_pages,
            psi: PsiGroup::new(),
            web: cfg.web.map(WebServerModel::new),
            growth_remaining_pages: growth_remaining,
            growth_pages_per_sec,
            growth_weights,
            growth_carry: 0.0,
            protected: cfg.protected,
            relaxed: cfg.relaxed,
            swap_full_seen: false,
            alive: true,
            churn_carry: 0.0,
            churn_pages: VecDeque::new(),
            leak_pages: Vec::new(),
            leak_carry: 0.0,
            initial_resident_pages,
            last_tick: TickStats::default(),
            series: None,
            events: EventSeriesIds::default(),
        });
        if cfg.protected {
            self.mm.set_priority(cg, tmo_mm::ReclaimPriority::Strict);
        } else if cfg.relaxed {
            self.mm.set_priority(cg, tmo_mm::ReclaimPriority::Relaxed);
        }
        if let Some(low) = cfg.memory_low {
            self.mm.set_memory_low(cg, low);
        }
        id
    }

    /// Runs one simulation tick: every container generates its access
    /// stream, faults feed PSI, web models adjust admission, devices and
    /// rate counters advance, and the standard metric series are
    /// recorded.
    pub fn tick(&mut self) {
        let dt = self.clock.tick_len();
        let now = self.clock.tick();
        let free_fraction = self.free_fraction();
        // Tick-local accumulators live in the scratch so their capacity
        // survives across ticks (and, via into_scratch, across hosts).
        // Each is cleared here before any read, so reuse is invisible.
        let mut swap_latencies = std::mem::take(&mut self.scratch.swap_latencies);
        swap_latencies.clear();
        let mut all_stats = std::mem::take(&mut self.scratch.all_stats);
        all_stats.clear();
        all_stats.reserve(self.containers.len());
        for ci in 0..self.containers.len() {
            if !self.containers[ci].alive {
                all_stats.push(TickStats::default());
                continue;
            }
            let stats = self.run_container_tick(ci, dt, now, free_fraction, &mut swap_latencies);
            all_stats.push(stats);
        }

        // CPU contention: when aggregate demand exceeds the machine's
        // capacity, the overflow is runnable-but-waiting time, split
        // across containers in proportion to their demand (§3.2.3).
        let capacity = dt.mul_f64(self.config.cpus as f64);
        let total_demand: SimDuration = all_stats.iter().map(|s| s.cpu_demand).sum();
        let overload = if total_demand > capacity {
            1.0 - capacity / total_demand
        } else {
            0.0
        };
        let mut container_batch = std::mem::take(&mut self.scratch.container_batch);
        let mut host_batch = std::mem::take(&mut self.scratch.host_batch);
        host_batch.clear();
        for (ci, stats) in all_stats.iter_mut().enumerate() {
            if self.containers[ci].alive {
                stats.cpu_stall = stats.cpu_demand.mul_f64(overload);
                self.feed_psi(ci, stats, dt, &mut container_batch, &mut host_batch);
            }
            self.containers[ci].last_tick = *stats;
        }
        self.host_psi.observe(dt, &host_batch);

        self.mm.tick(dt);
        self.record_tick(now, &mut swap_latencies);
        // Return the accumulators before fault injection: an injected
        // host panic must not leak their capacity for the tick it fires.
        self.scratch.swap_latencies = swap_latencies;
        self.scratch.all_stats = all_stats;
        self.scratch.container_batch = container_batch;
        self.scratch.host_batch = host_batch;
        self.inject_host_faults(dt);
    }

    /// Applies this tick's host-level fault schedule — container crash
    /// churn (kill + immediate restart) and injected host panics — plus
    /// the scenario modulator's churn-storm kills. The panic is
    /// deliberate: the fleet runner's per-host isolation must convert
    /// it into a recorded failure, not lose the fleet.
    fn inject_host_faults(&mut self, dt: SimDuration) {
        let tick = self.clock.ticks();
        let now = self.clock.now();
        let n = self.containers.len() as u64;
        if let Some(hf) = self.host_faults {
            if hf.panics_at(tick, dt) {
                panic!("injected host panic at tick {tick}");
            }
            if n > 0 {
                if let Some(victim) = hf.crash_victim(tick, dt, n) {
                    self.kill_and_restart(ContainerId(victim as usize));
                }
            }
        }
        if n == 0 {
            return;
        }
        let storm = self
            .modulator
            .as_ref()
            .and_then(|m| m.storm_kill_victim(tick, now, dt, n));
        if let Some(victim) = storm {
            self.kill_and_restart(ContainerId((victim % n) as usize));
        }
    }

    /// Kills a live container and immediately restarts it (crash churn,
    /// storm kills); a dead container is left alone.
    fn kill_and_restart(&mut self, id: ContainerId) {
        if self.containers[id.0].alive {
            self.kill_container(id);
            self.restart_container(id);
        }
    }

    /// Allocates a container's footprint in `cg`: each temperature
    /// class's pages, split anon/file by `anon_fraction`, with at most
    /// `anon_budget` anon pages across all classes. Returns the pages per
    /// class and the anon pages allocated. On failure every page
    /// allocated so far is freed and the error names the class, the
    /// page kind and the cause.
    fn alloc_footprint(
        &mut self,
        cg: CgroupId,
        per_class: &[u64],
        anon_fraction: f64,
        anon_budget: u64,
    ) -> Result<(Vec<Vec<PageId>>, u64), FootprintError> {
        let now = self.clock.now();
        let mut anon_allocated = 0u64;
        let mut class_pages: Vec<Vec<PageId>> = Vec::with_capacity(per_class.len());
        for (ci, &n) in per_class.iter().enumerate() {
            let want_anon = (n as f64 * anon_fraction).round() as u64;
            let anon_now = want_anon.min(anon_budget.saturating_sub(anon_allocated));
            let file_now = n - want_anon;
            let mut pages = Vec::with_capacity((anon_now + file_now) as usize);
            for (kind, count) in [(PageKind::Anon, anon_now), (PageKind::File, file_now)] {
                if count == 0 {
                    continue;
                }
                if let Err(e) = self.mm.alloc_pages_into(cg, kind, count, now, &mut pages) {
                    for allocated in class_pages.iter().chain([&pages]) {
                        self.mm.free_pages_of(allocated);
                    }
                    return Err((ci, kind, e));
                }
            }
            anon_allocated += anon_now;
            class_pages.push(pages);
        }
        Ok((class_pages, anon_allocated))
    }

    /// Allocates one tick of a paced page stream (lazy growth, file
    /// churn, scenario leak): ⌊`want`⌋ pages, where `want` is rate × tick
    /// plus the fractional carry from earlier ticks, capped at `cap`.
    /// The pages are appended to `scratch.paced` (none when nothing was
    /// due or allocation failed), which the caller drains. The reclaim
    /// stall is charged to `stats` as memory stall; a failed allocation
    /// sets `stats.alloc_failed`. Returns the next tick's carry — always
    /// `want − ⌊want⌋`, even when `cap` bites.
    fn alloc_paced(
        &mut self,
        cg: CgroupId,
        kind: PageKind,
        want: f64,
        cap: u64,
        now: SimTime,
        stats: &mut TickStats,
    ) -> f64 {
        let carry = want - (want as u64) as f64;
        let n = (want as u64).min(cap);
        if n == 0 {
            return carry;
        }
        match self
            .mm
            .alloc_pages_into(cg, kind, n, now, &mut self.scratch.paced)
        {
            Ok(reclaim_stall) => {
                stats.mem_stall += reclaim_stall;
                stats.stall += reclaim_stall;
            }
            Err(_) => stats.alloc_failed = true,
        }
        carry
    }

    fn run_container_tick(
        &mut self,
        ci: usize,
        dt: SimDuration,
        now: SimTime,
        free_fraction: f64,
        swap_latencies: &mut Vec<f64>,
    ) -> TickStats {
        let mut stats = TickStats::default();
        let cg = self.containers[ci].cg;
        // Everything below acts on this container's behalf: its
        // allocations and accesses are the demand that triggers any
        // reclaim they cause (no-op unless causal tracking is on).
        self.mm.set_reclaim_trigger(Some(cg));

        // 1. Lazy anonymous growth.
        if self.containers[ci].growth_remaining_pages > 0 {
            let c = &self.containers[ci];
            let want = c.growth_pages_per_sec * dt.as_secs_f64() + c.growth_carry;
            let cap = c.growth_remaining_pages;
            let carry = self.alloc_paced(cg, PageKind::Anon, want, cap, now, &mut stats);
            self.containers[ci].growth_carry = carry;
            if !self.scratch.paced.is_empty() {
                self.containers[ci].growth_remaining_pages -= self.scratch.paced.len() as u64;
                // Distribute new pages across classes by weight.
                let c = &mut self.containers[ci];
                for page in self.scratch.paced.drain(..) {
                    let class = self.rng.weighted_index(&c.growth_weights).unwrap_or(0);
                    c.class_pages[class].push(page);
                }
            }
        }

        // 1b. Pathological file-cache churn (§5.1): write-once file
        // pages accumulate; pages the kernel has since evicted are
        // dropped for good (their content was replaced), page structs
        // and all. The churn rate comes from the workload modulator (a
        // scenario's sidecar-tax spike); with no modulator this whole
        // step is untouched dead code.
        //
        // `churn_pages` is a FIFO whose evicted pages are always a
        // prefix: churn pages are never touched, so reclaim never gives
        // one a second chance, and each cgroup's inactive file LRU
        // (push front, pop back, order-preserving compaction) evicts
        // them in insertion order whatever drives the reclaim. Popping
        // the non-resident front therefore drops exactly the evicted
        // pages, in list order, without scanning the resident rest.
        let page_bytes = self.config.page_size.as_u64() as f64;
        let churn_pages_per_sec = match &self.modulator {
            Some(m) => m.churn_bytes_per_sec(ci, now).as_u64() as f64 / page_bytes,
            None => 0.0,
        };
        if churn_pages_per_sec > 0.0 || !self.containers[ci].churn_pages.is_empty() {
            let want = churn_pages_per_sec * dt.as_secs_f64() + self.containers[ci].churn_carry;
            let carry = self.alloc_paced(cg, PageKind::File, want, u64::MAX, now, &mut stats);
            let c = &mut self.containers[ci];
            c.churn_carry = carry;
            c.churn_pages.extend(self.scratch.paced.drain(..));
            let evicted = c
                .churn_pages
                .iter()
                .position(|&p| self.mm.is_resident(p))
                .unwrap_or(c.churn_pages.len());
            for page in c.churn_pages.drain(..evicted) {
                self.mm.free_pages_of(&[page]);
            }
        }

        // 1c. Scenario memory leak: anonymous pages allocated and never
        // touched again — cold garbage that only a kill releases. The
        // controller should discover and offload it; an unmanaged host
        // eventually runs out of DRAM. No modulator ⇒ no code runs.
        let leak_pages_per_sec = match &self.modulator {
            Some(m) => m.leak_bytes_per_sec(ci, now).as_u64() as f64 / page_bytes,
            None => 0.0,
        };
        if leak_pages_per_sec > 0.0 {
            let want = leak_pages_per_sec * dt.as_secs_f64() + self.containers[ci].leak_carry;
            let carry = self.alloc_paced(cg, PageKind::Anon, want, u64::MAX, now, &mut stats);
            let c = &mut self.containers[ci];
            c.leak_carry = carry;
            c.leak_pages.append(&mut self.scratch.paced);
        }

        // 2. Access stream. Web containers touch memory in proportion
        // to admitted load, floored at half intensity: even a throttled
        // server keeps executing its code and core data paths, which
        // prevents a throttle → "looks cold" → reclaim death spiral.
        let mut scale = self.containers[ci]
            .web
            .as_ref()
            .map(|w| (w.rps() / w.config().max_rps).max(0.5))
            .unwrap_or(1.0);
        if let Some(m) = &self.modulator {
            scale *= m.demand_scale(ci, now);
        }
        // The plan buffer is scratch too: `plan_into` draws the RNG in
        // exactly the order `plan` did, so swapping in the reusing form
        // leaves every downstream draw untouched.
        let mut plan = std::mem::take(&mut self.scratch.plan);
        self.containers[ci]
            .planner
            .plan_into(dt, &mut self.rng, &mut plan);
        for (class, &count) in plan.iter().enumerate() {
            let count = (count as f64 * scale).round() as u64;
            if self.containers[ci].class_pages[class].is_empty() {
                continue;
            }
            // Draw every page id for the class up front — the index
            // draws consume `self.rng` in the same order as a
            // one-at-a-time loop — then fault the whole batch through
            // the mm's aggregating entry point, which short-circuits
            // resident pages and folds counters inline instead of
            // materializing an outcome per page.
            let mut ids = std::mem::take(&mut self.scratch.batch_ids);
            AccessPlanner::sample_batch_into(
                &self.containers[ci].class_pages[class],
                count,
                &mut self.rng,
                &mut ids,
            );
            let first_lat = swap_latencies.len();
            let batch = self.mm.access_batch(&ids, now, swap_latencies);
            // Swap-in latencies feed the streaming p99 estimator in
            // occurrence order.
            for &secs in &swap_latencies[first_lat..] {
                self.swap_lat_p99.observe(secs);
            }
            stats.accesses += batch.accesses;
            stats.faults += batch.faults;
            stats.swapins += batch.swapins;
            stats.refaults += batch.refaults;
            stats.stall += batch.stall;
            stats.mem_stall += batch.mem_stall;
            stats.io_stall += batch.io_stall;
            self.scratch.batch_ids = ids;
        }
        self.scratch.plan = plan;
        stats.cpu_demand = self.config.access_cpu * stats.accesses;

        // 3. Web admission feedback. A request touches
        // `PAGES_PER_REQUEST` pages, so its expected fault stall is the
        // per-access stall scaled by that count.
        if let Some(web) = self.containers[ci].web.as_mut() {
            let per_access = if stats.accesses > 0 {
                stats.stall.as_secs_f64() / stats.accesses as f64
            } else {
                0.0
            };
            let mean_stall = SimDuration::from_secs_f64(per_access * PAGES_PER_REQUEST as f64);
            let headroom = if stats.alloc_failed {
                0.0
            } else {
                free_fraction
            };
            web.observe(mean_stall, headroom);
        }

        self.mm.set_reclaim_trigger(None);
        stats
    }

    /// Feeds one container's tick stalls into its PSI domain: each stall
    /// total is split evenly across the container's tasks, each share
    /// placed at an independent random offset within the tick so overlap
    /// (and thus `full`) emerges statistically rather than by
    /// construction. The spans go into two packed batches at once — the
    /// container's own (cleared here, observed at the end) and the
    /// machine-wide one the caller accumulates across containers — so
    /// neither domain allocates. The RNG draws one `below` per nonzero
    /// stall share, resources in (Memory, Io, Cpu) order per task.
    fn feed_psi(
        &mut self,
        ci: usize,
        stats: &TickStats,
        dt: SimDuration,
        container_batch: &mut SpanBatch,
        host_batch: &mut SpanBatch,
    ) {
        let tasks = self.containers[ci].profile.tasks.max(1) as u64;
        let window_ns = dt.as_nanos();
        // Every task gets the same per-resource share, so the divides
        // (and the min against the window) hoist out of the task loop;
        // only the `below` draws — one per task per nonzero share, in
        // the contract's (Memory, Io, Cpu) order — stay inside.
        let shares: [(Resource, u64, u64, u64); 3] = [
            (Resource::Memory, stats.mem_stall.as_nanos()),
            (Resource::Io, stats.io_stall.as_nanos()),
            (Resource::Cpu, stats.cpu_stall.as_nanos()),
        ]
        .map(|(r, total_ns)| {
            let share_ns = (total_ns / tasks).min(window_ns);
            let max_start = window_ns - share_ns;
            // Rejection threshold for the start draw, hoisted out of
            // the task loop (every task shares the bound).
            let threshold = if share_ns > 0 && max_start > 0 {
                tmo_sim::DetRng::below_threshold(max_start)
            } else {
                0
            };
            (r, share_ns, max_start, threshold)
        });
        container_batch.clear();
        for _ in 0..tasks {
            container_batch.push_non_idle_task();
            host_batch.push_non_idle_task();
            for (resource, share_ns, max_start, threshold) in shares {
                if share_ns > 0 {
                    let start = if max_start > 0 {
                        self.rng.below_with(max_start, threshold)
                    } else {
                        0
                    };
                    container_batch.push_span(resource, start, start + share_ns);
                    host_batch.push_span(resource, start, start + share_ns);
                }
            }
        }
        self.containers[ci].psi.observe(dt, container_batch);
    }

    /// Resolves (and caches) the recorder handles for one container's
    /// per-tick series. The name building and B-tree lookups happen
    /// once per container per run; every later tick appends through the
    /// cached [`SeriesId`]s. The recorder's name index keeps observable
    /// output sorted by name regardless of resolution order.
    fn container_series(&mut self, ci: usize) -> ContainerSeriesIds {
        if let Some(ids) = self.containers[ci].series {
            return ids;
        }
        let c = &self.containers[ci];
        let rec = &mut self.recorder;
        let buf = &mut self.scratch.series_name;
        let mut id = |suffix| container_series_id(rec, buf, &c.profile.name, suffix);
        let ids = ContainerSeriesIds {
            resident_mib: id("resident_mib"),
            swap_mib: id("swap_mib"),
            file_cache_mib: id("file_cache_mib"),
            psi_mem_some10: id("psi_mem_some10"),
            psi_io_some10: id("psi_io_some10"),
            psi_cpu_some10: id("psi_cpu_some10"),
            promotion_rate: id("promotion_rate"),
            refault_rate: id("refault_rate"),
            swapout_rate_mbps: id("swapout_rate_mbps"),
            rps: c.web.is_some().then(|| id("rps")),
        };
        self.containers[ci].series = Some(ids);
        ids
    }

    fn record_tick(&mut self, now: SimTime, swap_latencies: &mut [f64]) {
        let page = self.config.page_size;
        for ci in 0..self.containers.len() {
            let ids = self.container_series(ci);
            let cg = self.containers[ci].cg;
            let stat = self.mm.cgroup_stat(cg);
            let psi = &self.containers[ci].psi;
            let psi_mem = psi.some_avg10(Resource::Memory) * 100.0;
            let psi_io = psi.some_avg10(Resource::Io) * 100.0;
            let psi_cpu = psi.some_avg10(Resource::Cpu) * 100.0;
            let rec = &mut self.recorder;
            rec.record_id(
                ids.resident_mib,
                now,
                stat.resident().to_bytes(page).as_mib(),
            );
            rec.record_id(
                ids.swap_mib,
                now,
                stat.anon_offloaded.to_bytes(page).as_mib(),
            );
            rec.record_id(
                ids.file_cache_mib,
                now,
                stat.file_resident.to_bytes(page).as_mib(),
            );
            rec.record_id(ids.psi_mem_some10, now, psi_mem);
            rec.record_id(ids.psi_io_some10, now, psi_io);
            rec.record_id(ids.psi_cpu_some10, now, psi_cpu);
            rec.record_id(ids.promotion_rate, now, stat.swapin_rate);
            rec.record_id(ids.refault_rate, now, stat.refault_rate);
            rec.record_id(
                ids.swapout_rate_mbps,
                now,
                stat.swapout_rate * page.as_u64() as f64 / 1e6,
            );
            if let (Some(rps_id), Some(web)) = (ids.rps, self.containers[ci].web.as_ref()) {
                rec.record_id(rps_id, now, web.rps());
            }
        }
        let machine_ids = match self.machine_series {
            Some(ids) => ids,
            None => {
                let has_swap = self.mm.swap().is_some();
                let rec = &mut self.recorder;
                let ids = MachineSeriesIds {
                    psi_mem_some10: rec.series_id("machine.psi_mem_some10"),
                    free_mib: rec.series_id("machine.free_mib"),
                    zswap_pool_mib: rec.series_id("machine.zswap_pool_mib"),
                    fs_read_iops: rec.series_id("fs.read_iops"),
                    swap_write_mbps: has_swap.then(|| rec.series_id("swap.write_mbps")),
                    swap_read_iops: has_swap.then(|| rec.series_id("swap.read_iops")),
                };
                self.machine_series = Some(ids);
                ids
            }
        };
        let g = self.mm.global_stat();
        self.recorder.record_id(
            machine_ids.psi_mem_some10,
            now,
            self.host_psi.some_avg10(Resource::Memory) * 100.0,
        );
        self.recorder
            .record_id(machine_ids.free_mib, now, g.free_bytes.as_mib());
        self.recorder
            .record_id(machine_ids.zswap_pool_mib, now, g.zswap_pool_bytes.as_mib());

        // Device rates.
        let fs_reads = self.mm.fs_device().stats().reads;
        let dt_secs = self.config.tick.as_secs_f64();
        self.recorder.record_id(
            machine_ids.fs_read_iops,
            now,
            (fs_reads - self.prev_fs_reads) as f64 / dt_secs,
        );
        self.prev_fs_reads = fs_reads;
        if let Some(swap) = self.mm.swap() {
            let write_mbps = swap.write_rate_mbps();
            let reads = swap.stats().reads;
            let write_id = machine_ids.swap_write_mbps.expect("cached with swap");
            let read_id = machine_ids.swap_read_iops.expect("cached with swap");
            self.recorder.record_id(write_id, now, write_mbps);
            self.recorder.record_id(
                read_id,
                now,
                (reads - self.prev_swap_reads) as f64 / dt_secs,
            );
            self.prev_swap_reads = reads;
        }
        if !swap_latencies.is_empty() {
            // Sorting the tick-local buffer in place is fine: it is
            // cleared at the start of the next tick and nothing reads
            // it again, so no observable order changes.
            swap_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let p90 =
                swap_latencies[(swap_latencies.len() as f64 * 0.9) as usize % swap_latencies.len()];
            let id = match self.swap_p90_id {
                Some(id) => id,
                None => {
                    let id = self.recorder.series_id("swap.read_p90_ms");
                    self.swap_p90_id = Some(id);
                    id
                }
            };
            self.recorder.record_id(id, now, p90 * 1e3);
        }
    }

    /// Runs the machine (without any controller) for `duration`.
    pub fn run(&mut self, duration: SimDuration) {
        let deadline = self.clock.now() + duration;
        while self.clock.now() < deadline {
            self.tick();
        }
    }

    /// Assembles the Senpai view of one container.
    pub fn senpai_signal(&self, id: ContainerId) -> ContainerSignal {
        let c = &self.containers[id.0];
        let swap_write_mbps = self.mm.swap().map(|s| s.write_rate_mbps()).unwrap_or(0.0);
        ContainerSignal {
            current_mem: self.mm.memory_current(c.cg),
            mem_some_avg10: c.psi.some_avg10(Resource::Memory),
            io_some_avg10: c.psi.some_avg10(Resource::Io),
            swap_write_mbps,
            swap_full: c.swap_full_seen,
            protected: c.protected,
            relaxed: c.relaxed,
            stale: false,
        }
    }

    /// The deterministic fate of this tick's telemetry read for a
    /// container — always `Fresh` when the run is fault-free.
    pub fn signal_fate(&self, id: ContainerId) -> SignalFate {
        match &self.host_faults {
            Some(hf) => hf.signal_fate(self.clock.ticks(), id.0 as u64),
            None => SignalFate::Fresh,
        }
    }

    /// The Senpai view of one container, subject to telemetry faults: a
    /// dropped read yields `None` (the controller must hold off), a
    /// stale read replays the last fresh sample with `stale` set so the
    /// controller knows not to act on it.
    pub fn senpai_signal_guarded(&mut self, id: ContainerId) -> Option<ContainerSignal> {
        if self.signal_cache.len() < self.containers.len() {
            self.signal_cache.resize(self.containers.len(), None);
        }
        match self.signal_fate(id) {
            SignalFate::Dropped => None,
            SignalFate::Stale => {
                let cached = self.signal_cache[id.0];
                let mut sig = cached.unwrap_or_else(|| self.senpai_signal(id));
                sig.stale = true;
                Some(sig)
            }
            SignalFate::Fresh => {
                let sig = self.senpai_signal(id);
                self.signal_cache[id.0] = Some(sig);
                Some(sig)
            }
        }
    }

    /// The oomd duress view of one container (§3.2.4): `full` memory
    /// pressure plus the swap-exhaustion, telemetry-staleness, and
    /// protection context a kill decision must respect.
    pub fn oomd_signal(&self, id: ContainerId) -> OomdSignal {
        let c = &self.containers[id.0];
        OomdSignal {
            full_avg10: c.psi.full_avg10(Resource::Memory),
            swap_full: c.swap_full_seen,
            stale: self.signal_fate(id) != SignalFate::Fresh,
            protected: c.protected,
        }
    }

    /// The promotion-rate view for the g-swap baseline.
    pub fn promotion_signal(&self, id: ContainerId) -> tmo_gswap::PromotionSignal {
        let c = &self.containers[id.0];
        tmo_gswap::PromotionSignal {
            current_mem: self.mm.memory_current(c.cg),
            promotion_rate: self.mm.cgroup_stat(c.cg).swapin_rate,
        }
    }

    /// Proactively reclaims `bytes` from a container (the
    /// `memory.reclaim` write) and records the volume.
    pub fn reclaim(&mut self, id: ContainerId, bytes: ByteSize) -> ReclaimOutcome {
        let cg = self.containers[id.0].cg;
        // Proactive reclaim is pressure the target applies to itself
        // (the controller probes *its* cold memory), so evictions here
        // self-attribute rather than blaming a neighbour.
        self.mm.set_reclaim_trigger(Some(cg));
        let outcome = self.mm.reclaim(cg, bytes);
        self.mm.set_reclaim_trigger(None);
        self.containers[id.0].swap_full_seen = outcome.swap_full;
        let now = self.clock.now();
        let requested = self.event_series(id, |e| &mut e.reclaim_mib, "reclaim_mib");
        self.recorder.record_id(requested, now, bytes.as_mib());
        let reclaimed = self.event_series(id, |e| &mut e.reclaimed_pages, "reclaimed_pages");
        self.recorder
            .record_id(reclaimed, now, outcome.reclaimed().as_u64() as f64);
        outcome
    }

    /// Kills a container (the §3.2.4 oomd action): frees every page it
    /// owns — resident, offloaded, and shadow entries — and stops its
    /// workload. The container id stays valid for inspection.
    pub fn kill_container(&mut self, id: ContainerId) {
        let mut pages: Vec<tmo_mm::PageId> = self.containers[id.0]
            .class_pages
            .iter()
            .flatten()
            .copied()
            .collect();
        pages.extend(self.containers[id.0].churn_pages.iter().copied());
        pages.extend(self.containers[id.0].leak_pages.iter().copied());
        self.mm.free_pages_of(&pages);
        let c = &mut self.containers[id.0];
        c.class_pages.iter_mut().for_each(Vec::clear);
        c.churn_pages.clear();
        c.leak_pages.clear();
        c.leak_carry = 0.0;
        c.alive = false;
        c.growth_remaining_pages = 0;
        let now = self.clock.now();
        let killed = self.event_series(id, |e| &mut e.killed, "killed");
        self.recorder.record_id(killed, now, 1.0);
    }

    /// How often the container has been killed (by oomd, crash churn or
    /// a scenario storm), counted from its `{name}.killed` series.
    pub fn kill_count(&self, id: ContainerId) -> u64 {
        self.containers[id.0]
            .events
            .killed
            .map_or(0, |killed| self.recorder.get(killed).len() as u64)
    }

    /// Resolves (and caches) the recorder handle for one of a
    /// container's event series, `{name}.{suffix}`, creating the series
    /// on the container's first such event.
    fn event_series(
        &mut self,
        id: ContainerId,
        slot: fn(&mut EventSeriesIds) -> &mut Option<SeriesId>,
        suffix: &str,
    ) -> SeriesId {
        let c = &mut self.containers[id.0];
        let rec = &mut self.recorder;
        let buf = &mut self.scratch.series_name;
        *slot(&mut c.events)
            .get_or_insert_with(|| container_series_id(rec, buf, &c.profile.name, suffix))
    }

    /// Restarts a killed container (crash churn): reallocates its full
    /// class footprint and resumes its workload. Returns `true` on
    /// success; if the host cannot hold the footprint the container
    /// stays dead and the partial allocation is rolled back.
    pub fn restart_container(&mut self, id: ContainerId) -> bool {
        if self.containers[id.0].alive {
            return true;
        }
        let cg = self.containers[id.0].cg;
        let anon_fraction = self.containers[id.0].profile.anon_fraction;
        let per_class: Vec<u64> = self.containers[id.0].planner.pages_per_class().to_vec();
        // The restart's footprint re-allocation is this container's
        // demand; any reclaim it forces is attributed to it.
        self.mm.set_reclaim_trigger(Some(cg));
        let footprint = self.alloc_footprint(cg, &per_class, anon_fraction, u64::MAX);
        self.mm.set_reclaim_trigger(None);
        let Ok((class_pages, _)) = footprint else {
            return false;
        };
        let now = self.clock.now();
        let c = &mut self.containers[id.0];
        c.class_pages = class_pages;
        c.alive = true;
        c.swap_full_seen = false;
        c.growth_remaining_pages = 0;
        let restarted = self.event_series(id, |e| &mut e.restarted, "restarted");
        self.recorder.record_id(restarted, now, 1.0);
        true
    }

    /// Whether the container is still running.
    pub fn is_alive(&self, id: ContainerId) -> bool {
        self.containers[id.0].alive
    }

    /// Fraction of the container's initial resident footprint that is
    /// currently offloaded or freed — the savings metric of Figure 9.
    pub fn savings_fraction(&self, id: ContainerId) -> f64 {
        let c = &self.containers[id.0];
        let initial = c.initial_resident_pages;
        if initial == 0 {
            return 0.0;
        }
        let current = self.mm.cgroup_stat(c.cg).resident().as_u64();
        1.0 - current as f64 / initial as f64
    }

    /// DRAM the container's offloading actually frees for other use:
    /// offloaded bytes minus the container's share of the compressed
    /// pool's DRAM cost (apportioned over the pool actually in use, so
    /// pages a tiered backend demoted to SSD cost nothing). For pure
    /// SSD backends this equals the offloaded bytes.
    pub fn net_savings_bytes(&self, id: ContainerId) -> ByteSize {
        let c = &self.containers[id.0];
        let stat = self.mm.cgroup_stat(c.cg);
        let offloaded = stat.anon_offloaded.to_bytes(self.config.page_size);
        let evicted_file = stat.file_evicted.to_bytes(self.config.page_size);
        let gross = offloaded + evicted_file;
        let pool = self.mm.global_stat().zswap_pool_bytes;
        if pool.is_zero() {
            return gross;
        }
        // Apportion the pool's DRAM cost by each container's estimated
        // compressed footprint (offloaded bytes / compression ratio).
        let weight = |container: &Container| {
            let off = self
                .mm
                .cgroup_stat(container.cg)
                .anon_offloaded
                .to_bytes(self.config.page_size)
                .as_u64() as f64;
            off / container.profile.compress_ratio.max(1.0)
        };
        let total_weight: f64 = self.containers.iter().map(weight).sum();
        if total_weight <= 0.0 {
            return gross;
        }
        let pool_share = pool.mul_f64(weight(c) / total_weight);
        gross.saturating_sub(pool_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmo_workload::apps;

    fn small_profile() -> AppProfile {
        apps::feed().with_mem_total(ByteSize::from_mib(64))
    }

    fn machine() -> Machine {
        Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            ..MachineConfig::default()
        })
    }

    #[test]
    fn add_container_allocates_full_footprint() {
        let mut m = machine();
        let id = m.add_container(&small_profile());
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        // 64 MiB at 16 KiB pages = 4096 pages.
        assert_eq!(stat.resident().as_u64(), 4096);
        let anon_frac = stat.anon_resident.as_u64() as f64 / 4096.0;
        assert!((anon_frac - 0.65).abs() < 0.01, "anon {anon_frac}");
    }

    #[test]
    fn ticking_touches_hot_pages_and_builds_no_pressure() {
        let mut m = machine();
        let id = m.add_container(&small_profile());
        m.run(SimDuration::from_secs(30));
        let c = m.container(id);
        assert!(c.last_tick().accesses > 0);
        // Nothing was reclaimed: no faults, no pressure.
        assert_eq!(c.psi().some_avg10(Resource::Memory), 0.0);
        assert_eq!(m.savings_fraction(id), 0.0);
    }

    #[test]
    fn manual_reclaim_causes_savings_and_pressure_signal() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            ..MachineConfig::default()
        });
        let id = m.add_container(&small_profile());
        m.run(SimDuration::from_secs(5));
        // Aggressively reclaim a third of the container. With no
        // refaults yet, the TMO policy evicts file cache exclusively.
        m.reclaim(id, ByteSize::from_mib(20));
        assert!(m.savings_fraction(id) > 0.2);
        m.run(SimDuration::from_secs(30));
        // Hot file pages fault back: refaults and memory pressure.
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        assert!(stat.refaults_total > 0);
        assert!(m.container(id).psi().some_avg10(Resource::Memory) > 0.0);
        // And the savings shrink back toward the cold fraction.
        assert!(m.savings_fraction(id) < 0.33);
        // A second reclaim now sees a live refault rate, so the policy
        // balances onto anon and swap-outs begin (§3.4).
        m.reclaim(id, ByteSize::from_mib(20));
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        assert!(stat.swapouts_total > 0, "no anon offload after refaults");
    }

    #[test]
    fn web_container_ramps_rps_when_healthy() {
        let mut m = machine();
        let id = m.add_container_with(
            &small_profile(),
            ContainerConfig {
                web: Some(tmo_workload::WebServerConfig::default()),
                ..ContainerConfig::default()
            },
        );
        m.run(SimDuration::from_secs(60));
        let web = m.container(id).web().expect("web attached");
        assert!(web.rps() > 600.0, "rps {}", web.rps());
        assert!(m.recorder().series("Feed.rps").is_some());
    }

    #[test]
    fn growth_model_expands_anon_over_time() {
        let mut m = machine();
        let id = m.add_container_with(
            &small_profile(),
            ContainerConfig {
                anon_growth: Some(ByteSize::from_mib(1)), // 1 MiB/s
                ..ContainerConfig::default()
            },
        );
        let cg = m.container(id).cgroup();
        let start = m.mm().cgroup_stat(cg).anon_resident;
        m.run(SimDuration::from_secs(20));
        let after = m.mm().cgroup_stat(cg).anon_resident;
        assert!(after > start, "{after:?} vs {start:?}");
        // ~20 MiB at 16 KiB pages = 1280 pages, +/- carry.
        let grown = (after - start).as_u64();
        assert!((1100..=1400).contains(&grown), "grown {grown}");
    }

    #[test]
    fn senpai_signal_reflects_container_state() {
        let mut m = machine();
        let id = m.add_container_with(
            &small_profile(),
            ContainerConfig {
                relaxed: true,
                ..ContainerConfig::default()
            },
        );
        m.run(SimDuration::from_secs(5));
        let sig = m.senpai_signal(id);
        assert!(sig.current_mem > ByteSize::ZERO);
        assert!(sig.relaxed);
        assert!(!sig.protected);
        assert_eq!(sig.mem_some_avg10, 0.0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut m = Machine::new(MachineConfig {
                dram: ByteSize::from_mib(256),
                swap: SwapKind::Ssd(SsdModel::C),
                seed: 7,
                ..MachineConfig::default()
            });
            let id = m.add_container(&small_profile());
            m.reclaim(id, ByteSize::from_mib(16));
            m.run(SimDuration::from_secs(20));
            let stat = m.mm().cgroup_stat(m.container(id).cgroup());
            (stat.swapins_total, stat.resident().as_u64())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recorder_has_standard_series() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Ssd(SsdModel::B),
            ..MachineConfig::default()
        });
        m.add_container(&small_profile());
        m.run(SimDuration::from_secs(2));
        for series in [
            "Feed.resident_mib",
            "Feed.psi_mem_some10",
            "Feed.promotion_rate",
            "machine.free_mib",
            "fs.read_iops",
            "swap.write_mbps",
        ] {
            assert!(
                m.recorder().series(series).is_some(),
                "missing series {series}"
            );
        }
    }

    /// Churns a fixed number of write-once file bytes per second in
    /// every container.
    #[derive(Debug)]
    struct FixedChurn(ByteSize);

    impl WorkloadModulator for FixedChurn {
        fn churn_bytes_per_sec(&self, _container: usize, _now: SimTime) -> ByteSize {
            self.0
        }
    }

    #[test]
    fn file_churn_grows_the_cache_until_reclaimed() {
        // The §5.1 anecdote: a self-extracting binary fills the file
        // cache with write-once pages.
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            ..MachineConfig::default()
        });
        let id = m.add_container(&small_profile());
        m.set_modulator(Box::new(FixedChurn(ByteSize::from_mib(1)))); // 1 MiB/s of junk
        let cg = m.container(id).cgroup();
        let before = m.mm().cgroup_stat(cg).file_resident;
        m.run(SimDuration::from_secs(60));
        let after = m.mm().cgroup_stat(cg).file_resident;
        // ~60 MiB of junk file cache accumulated on top of the profile.
        let grown = (after - before).to_bytes(m.config().page_size);
        assert!(grown >= ByteSize::from_mib(55), "churn grew only {grown}");
        // A proactive reclaim sweeps the never-read pages first; the
        // following ticks then drop their page structs entirely.
        m.reclaim(id, ByteSize::from_mib(60));
        m.run(SimDuration::from_secs(1));
        let junk_left = m.container(id).churn_pages.len() as u64;
        assert!(junk_left < 1000, "junk pages left: {junk_left}");
    }

    #[test]
    fn restarted_container_resumes_its_file_churn() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            ..MachineConfig::default()
        });
        let id = m.add_container(&small_profile());
        m.set_modulator(Box::new(FixedChurn(ByteSize::from_mib(1))));
        m.run(SimDuration::from_secs(5));
        let before = m.container(id).churn_pages.len();
        assert!(before > 0);
        m.kill_container(id);
        assert!(m.container(id).churn_pages.is_empty());
        assert!(m.restart_container(id));
        m.run(SimDuration::from_secs(5));
        // Same rate, same span: the restarted container churns as much.
        let after = m.container(id).churn_pages.len();
        assert!(
            after * 2 >= before,
            "churned {before} pages, then {after} after restart"
        );
    }

    /// The length of the non-resident front of a container's churn
    /// list, asserting that nothing behind it is non-resident: the
    /// prefix property step 1b's FIFO pop relies on.
    fn evicted_churn_prefix(m: &Machine, id: ContainerId) -> usize {
        let churn = &m.container(id).churn_pages;
        let evicted = churn
            .iter()
            .take_while(|&&p| !m.mm().is_resident(p))
            .count();
        let stray = churn
            .iter()
            .skip(evicted)
            .position(|&p| !m.mm().is_resident(p));
        assert_eq!(
            stray, None,
            "evicted churn page behind a resident one (container {id}, prefix {evicted})"
        );
        evicted
    }

    #[test]
    fn evicted_churn_pages_form_a_prefix_that_the_next_tick_drops() {
        // Two churning containers on a host too small for their caches:
        // churn meets direct reclaim (each container's own and its
        // neighbour's), then proactive reclaim, then a kill and restart.
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(128),
            ..MachineConfig::default()
        });
        let ids = [
            m.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(48))),
            m.add_container(&apps::cache_a().with_mem_total(ByteSize::from_mib(32))),
        ];
        m.set_modulator(Box::new(FixedChurn(ByteSize::from_mib(3))));
        let mut dropped = 0;
        let mut tick = |m: &mut Machine, ticks: usize| {
            for _ in 0..ticks {
                // Pages evicted before the tick leave the list during
                // it. Their slots cannot come back as churn pages in the
                // same tick (each container allocates its churn before
                // dropping), so none of these ids may remain. Pages that
                // later phases of the tick evict wait for the next one.
                let gone: Vec<Vec<PageId>> = ids
                    .iter()
                    .map(|&id| {
                        let k = evicted_churn_prefix(m, id);
                        m.container(id).churn_pages.range(..k).copied().collect()
                    })
                    .collect();
                m.tick();
                for (&id, gone) in ids.iter().zip(&gone) {
                    evicted_churn_prefix(m, id);
                    let churn = &m.container(id).churn_pages;
                    assert!(
                        gone.iter().all(|p| !churn.contains(p)),
                        "{id} kept evicted pages"
                    );
                    dropped += gone.len();
                }
            }
        };
        // Memory pressure: ~6 MiB/s of junk on 48 MiB of headroom.
        tick(&mut m, 300);
        // Proactive reclaim sweeps the never-read pages off the tails.
        for &id in &ids {
            m.reclaim(id, ByteSize::from_mib(24));
            assert!(
                evicted_churn_prefix(&m, id) > 0,
                "{id}: reclaim evicted no churn"
            );
        }
        tick(&mut m, 50);
        m.kill_container(ids[0]);
        assert!(m.container(ids[0]).churn_pages.is_empty());
        evicted_churn_prefix(&m, ids[1]);
        tick(&mut m, 50);
        assert!(m.restart_container(ids[0]));
        evicted_churn_prefix(&m, ids[0]);
        tick(&mut m, 300);
        assert!(dropped > 1000, "only {dropped} evicted churn pages dropped");
    }

    #[test]
    fn swap_latency_summary_tracks_the_backend() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Ssd(SsdModel::B), // ~5.2 ms p99 reads
            ..MachineConfig::default()
        });
        let id = m.add_container(&small_profile());
        assert_eq!(m.swap_latency_p99_ms(), 0.0);
        // Force heavy churn so plenty of swap-ins happen.
        for _ in 0..10 {
            m.reclaim(id, ByteSize::from_mib(24));
            m.run(SimDuration::from_secs(10));
        }
        // Device B's p99 is ~5.2 ms on an idle device.
        let p99 = m.swap_latency_p99_ms();
        assert!((1.0..20.0).contains(&p99), "p99 {p99} ms");
    }

    #[test]
    fn cpu_pressure_appears_under_oversubscription() {
        // One CPU, enormous per-access cost: demand far exceeds capacity.
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            cpus: 1,
            access_cpu: SimDuration::from_millis(20),
            ..MachineConfig::default()
        });
        let id = m.add_container(&small_profile());
        m.run(SimDuration::from_secs(30));
        let cpu = m.container(id).psi().some_avg10(Resource::Cpu);
        assert!(cpu > 0.1, "cpu pressure {cpu}");
        // And an amply provisioned machine shows none.
        let mut calm = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            cpus: 32,
            ..MachineConfig::default()
        });
        let id = calm.add_container(&small_profile());
        calm.run(SimDuration::from_secs(30));
        assert_eq!(calm.container(id).psi().some_avg10(Resource::Cpu), 0.0);
    }

    #[test]
    fn kill_container_frees_everything() {
        let mut m = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            ..MachineConfig::default()
        });
        let id = m.add_container(&small_profile());
        m.reclaim(id, ByteSize::from_mib(8)); // some pages offloaded
        m.run(SimDuration::from_secs(5));
        assert!(m.is_alive(id));
        let free_before = m.free_fraction();
        m.kill_container(id);
        assert!(!m.is_alive(id));
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        assert_eq!(stat.resident().as_u64(), 0);
        assert_eq!(stat.anon_offloaded.as_u64(), 0);
        assert_eq!(m.mm().global_stat().zswap_pool_bytes, ByteSize::ZERO);
        assert!(m.free_fraction() > free_before);
        // Ticking a machine with a dead container is harmless.
        m.run(SimDuration::from_secs(5));
        assert_eq!(m.container(id).last_tick().accesses, 0);
    }

    #[test]
    fn failed_restart_rolls_back_its_partial_footprint() {
        let mut m = machine();
        let id = m.add_container(&small_profile());
        m.kill_container(id);
        // Fill the host with anon pages that cannot be reclaimed (no
        // swap), leaving room for about half of the killed footprint:
        // the restart fails part-way through its classes.
        let footprint: u64 = m.containers[id.0].planner.pages_per_class().iter().sum();
        let filler = m.mm_mut().create_cgroup("filler", None);
        let fill = m.mm().free_pages() - footprint / 2;
        m.mm_mut()
            .alloc_pages(filler, PageKind::Anon, fill, SimTime::ZERO)
            .expect("fits");
        let free_before = m.mm().free_pages();
        assert!(!m.restart_container(id));
        assert!(!m.is_alive(id));
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        assert_eq!(stat.resident().as_u64(), 0);
        assert_eq!(m.mm().free_pages(), free_before);
    }

    #[test]
    #[should_panic(expected = "zswap fraction")]
    fn bad_zswap_fraction_panics() {
        let _ = Machine::new(MachineConfig {
            swap: SwapKind::Zswap {
                capacity_fraction: 1.5,
                allocator: ZswapAllocator::Zsmalloc,
            },
            ..MachineConfig::default()
        });
    }

    fn faulted_machine(faults: FaultConfig) -> Machine {
        Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            swap: SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            faults: Some(faults),
            ..MachineConfig::default()
        })
    }

    #[test]
    fn zero_intensity_faults_are_byte_identical_to_none() {
        let mut clean = machine();
        let mut off = Machine::new(MachineConfig {
            dram: ByteSize::from_mib(256),
            faults: Some(FaultConfig::off()),
            ..MachineConfig::default()
        });
        let a = clean.add_container(&small_profile());
        let b = off.add_container(&small_profile());
        clean.run(SimDuration::from_secs(30));
        off.run(SimDuration::from_secs(30));
        assert_eq!(
            format!("{:?}", clean.mm().global_stat()),
            format!("{:?}", off.mm().global_stat())
        );
        assert_eq!(clean.savings_fraction(a), off.savings_fraction(b));
    }

    #[test]
    fn crash_churn_kills_and_restarts_containers() {
        // Crash roughly every tick so churn is guaranteed quickly.
        let mut m = faulted_machine(FaultConfig {
            intensity: 1.0,
            crash_per_min: 600.0,
            ..FaultConfig::off()
        });
        let id = m.add_container(&small_profile());
        m.run(SimDuration::from_secs(10));
        let name = m.container(id).name().to_string();
        let killed = m.recorder().series(&format!("{name}.killed"));
        let restarted = m.recorder().series(&format!("{name}.restarted"));
        assert!(m.kill_count(id) > 0, "no kills recorded");
        assert_eq!(killed.map(|s| s.len() as u64), Some(m.kill_count(id)));
        assert!(restarted.is_some_and(|s| !s.is_empty()), "no restarts");
        assert!(m.is_alive(id), "restart should leave the container live");
        assert!(m.container(id).last_tick().accesses > 0);
    }

    #[test]
    #[should_panic(expected = "injected host panic")]
    fn panic_faults_panic_the_host() {
        let mut m = faulted_machine(FaultConfig {
            intensity: 1.0,
            panic_per_min: 6000.0,
            ..FaultConfig::off()
        });
        m.add_container(&small_profile());
        m.run(SimDuration::from_secs(10));
    }

    #[test]
    fn guarded_signal_reads_follow_the_fault_schedule() {
        let faults = FaultConfig {
            intensity: 1.0,
            stale_signal_rate: 0.3,
            dropped_signal_rate: 0.2,
            ..FaultConfig::off()
        };
        let mut m = faulted_machine(faults);
        let id = m.add_container(&small_profile());
        let mut fresh = 0;
        let mut stale = 0;
        let mut dropped = 0;
        for _ in 0..200 {
            m.tick();
            match m.senpai_signal_guarded(id) {
                None => dropped += 1,
                Some(sig) if sig.stale => stale += 1,
                Some(_) => fresh += 1,
            }
        }
        assert!(fresh > 0, "no fresh reads");
        assert!(stale > 0, "no stale reads");
        assert!(dropped > 0, "no dropped reads");
        // The guarded read agrees with the raw fate draw each tick, and
        // the oomd view flags every non-fresh read as stale.
        for _ in 0..50 {
            m.tick();
            let fate = m.signal_fate(id);
            let guarded = m.senpai_signal_guarded(id);
            let oomd = m.oomd_signal(id);
            match fate {
                SignalFate::Fresh => {
                    assert!(guarded.is_some_and(|s| !s.stale));
                    assert!(!oomd.stale);
                }
                SignalFate::Stale => {
                    assert!(guarded.is_some_and(|s| s.stale));
                    assert!(oomd.stale);
                }
                SignalFate::Dropped => {
                    assert!(guarded.is_none());
                    assert!(oomd.stale);
                }
            }
        }
    }

    #[test]
    fn restart_after_manual_kill_reallocates_the_footprint() {
        let mut m = machine();
        let id = m.add_container(&small_profile());
        m.run(SimDuration::from_secs(2));
        m.kill_container(id);
        assert_eq!(
            m.mm()
                .cgroup_stat(m.container(id).cgroup())
                .resident()
                .as_u64(),
            0
        );
        assert!(m.restart_container(id));
        assert!(m.is_alive(id));
        let stat = m.mm().cgroup_stat(m.container(id).cgroup());
        assert_eq!(stat.resident().as_u64(), 4096);
        m.run(SimDuration::from_secs(2));
        assert!(m.container(id).last_tick().accesses > 0);
    }
}
