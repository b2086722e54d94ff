//! The memory manager: allocation, fault, and reclaim paths.
//!
//! [`MemoryManager`] exposes the same contract the real kernel exposes
//! to TMO's userspace: containers allocate and touch pages; the manager
//! answers with stall times (which the machine layer feeds into PSI);
//! and controllers drive proactive reclaim through the stateless
//! `memory.reclaim`-equivalent [`MemoryManager::reclaim`].

use std::collections::BTreeMap;

use tmo_backends::{BackendKind, BackendStats, DeviceFault, IoKind, OffloadBackend, SsdDevice};
use tmo_sim::{ByteSize, DetRng, PageCount, SimDuration, SimTime};

use crate::cgroup::{Cgroup, CgroupId, ReclaimPriority};
use crate::lru::Lrus;
use crate::page::{
    ColdMeta, LruTier, Page, PageId, PageKind, PageMeta, PageState, FLAG_INACTIVE, FLAG_REFERENCED,
};
use crate::reclaim::{BalanceInputs, ReclaimPolicy};
use crate::stats::{
    AccessOutcome, BatchAccessStats, CgroupStat, FaultKind, GlobalStat, ReclaimOutcome,
};

/// Modelled CPU cost of scanning one page during reclaim.
const SCAN_COST: SimDuration = SimDuration::from_nanos(500);

/// Pages reclaimed per direct-reclaim batch.
const DIRECT_RECLAIM_BATCH: u64 = 32;

/// Scan budget multiplier: give up after scanning `4 ×` the target.
const SCAN_BUDGET_FACTOR: u64 = 4;

/// Configuration of a [`MemoryManager`].
///
/// `swap` is the offload backend for anonymous pages (`None` = file-only
/// mode, the paper's first deployment step); `fs_device` is the SSD that
/// serves file-cache reads.
#[derive(Debug)]
pub struct MmConfig {
    /// Simulated page granularity.
    pub page_size: ByteSize,
    /// Total DRAM.
    pub total_dram: ByteSize,
    /// Swap backend (SSD swap partition, zswap pool, or both tiered).
    pub swap: Option<Box<dyn OffloadBackend>>,
    /// Filesystem device for file-cache reads.
    pub fs_device: SsdDevice,
    /// Reclaim balancing policy.
    pub policy: ReclaimPolicy,
    /// RNG seed for device latency draws.
    pub seed: u64,
}

impl Default for MmConfig {
    fn default() -> Self {
        MmConfig {
            page_size: ByteSize::from_kib(16),
            total_dram: ByteSize::from_mib(1024),
            swap: None,
            fs_device: tmo_backends::catalog::fleet_device(tmo_backends::SsdModel::C),
            policy: ReclaimPolicy::RefaultBalanced,
            seed: 42,
        }
    }
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Machine DRAM exhausted and reclaim could not free enough.
    OutOfMemory,
    /// A `memory.max` limit on the cgroup (or an ancestor) could not be
    /// satisfied even after reclaiming from the subtree.
    CgroupLimit(CgroupId),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "machine out of memory"),
            AllocError::CgroupLimit(cg) => write!(f, "memory.max limit hit on {cg}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Result of a successful allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocOutcome {
    /// The newly allocated pages, resident on the inactive list.
    pub pages: Vec<PageId>,
    /// Stall spent in direct reclaim / limit enforcement to make room.
    /// Qualifies as memory pressure.
    pub reclaim_stall: SimDuration,
}

/// One accumulated reclaim-provenance charge: `victim` paid `stall`
/// of fault latency because memory pressure attributed to `offender`
/// pushed its pages out (see [`MemoryManager::enable_provenance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceCharge {
    /// The cgroup that paid the stall.
    pub victim: CgroupId,
    /// The cgroup whose demand triggered the eviction being paid for.
    pub offender: CgroupId,
    /// The stall charged since the last drain.
    pub stall: SimDuration,
}

/// Reclaim-pressure provenance bookkeeping, present only when a caller
/// opted in via [`MemoryManager::enable_provenance`].
///
/// The tracker answers "whose demand evicted this page?" at the moment
/// the cost of that eviction is actually paid. The host sets `trigger`
/// to the cgroup driving the current mm entry point (the allocator on
/// an allocation, the accessor on a fault, the reclaim target on a
/// proactive `memory.reclaim`); every eviction records the trigger
/// against the page slot; every fault-back charges its stall to the
/// recorded evictor. Pure bookkeeping — no RNG draws, no output — so an
/// enabled tracker leaves simulation results byte-identical.
#[derive(Debug, Default)]
struct ProvenanceTracker {
    /// The cgroup whose demand is driving the current mm entry point.
    trigger: Option<CgroupId>,
    /// Per page-slot eviction trigger, parallel to `pages`. Entries are
    /// consumed at fault-back and cleared on slot reuse.
    evicted_by: Vec<Option<CgroupId>>,
    /// `(victim, offender)` → accumulated stall nanos since last drain.
    charges: BTreeMap<(CgroupId, CgroupId), u64>,
}

/// The simulated kernel memory-management subsystem of one machine.
///
/// See the [crate docs](crate) for an overview and example.
#[derive(Debug)]
pub struct MemoryManager {
    page_size: ByteSize,
    total_pages: u64,
    /// Dense slab of hot page records indexed by `PageId` slot; freed
    /// slots are recycled through `free_slots`. O(1) state lookup on
    /// the access path, no map traversal.
    pages: Vec<PageMeta>,
    /// Cold page records, parallel to `pages`: owner and offload token
    /// or eviction shadow, off the resident access fast path.
    cold: Vec<ColdMeta>,
    free_slots: Vec<u32>,
    cgroups: Vec<Cgroup>,
    swap: Option<Box<dyn OffloadBackend>>,
    /// Whether `swap` reports [`BackendKind::Zswap`]. A backend's kind
    /// is fixed for its lifetime; caching it keeps the free-page
    /// computation — on the per-fault path via `ensure_free` — from
    /// going through the vtable for non-zswap machines.
    swap_is_zswap: bool,
    fs: SsdDevice,
    policy: ReclaimPolicy,
    rng: DetRng,
    resident_global: u64,
    direct_reclaims: u64,
    alloc_failures: u64,
    lost_loads: u64,
    /// Reclaim-pressure provenance; `None` (the default) keeps every
    /// hook on the alloc/fault/reclaim paths a single branch.
    provenance: Option<ProvenanceTracker>,
    /// Emptied LRU lists adopted from a previous manager, in pop order:
    /// the last entry goes to the next cgroup created.
    spare_lrus: Vec<Lrus>,
}

/// A retired [`MemoryManager`]'s reusable heap capacity: the hot and
/// cold page arrays, the free-slot list and each cgroup's four LRU
/// deques.
///
/// It carries capacity, never values: the manager empties every buffer
/// when it adopts a scratch and again when it retires one, so a manager
/// built by [`MemoryManager::with_scratch`] behaves bit-identically to
/// one built by [`MemoryManager::new`], whatever the scratch held.
#[derive(Debug, Default)]
pub struct MmScratch {
    pages: Vec<PageMeta>,
    cold: Vec<ColdMeta>,
    free_slots: Vec<u32>,
    /// In pop order: the last entry held cgroup 0's lists, so cgroup `i`
    /// of the next manager reuses the lists of the previous one's `i`.
    lrus: Vec<Lrus>,
}

impl MmScratch {
    /// Empties every buffer, keeping its capacity.
    fn scrub(&mut self) {
        self.pages.clear();
        self.cold.clear();
        self.free_slots.clear();
        for lrus in &mut self.lrus {
            lrus.clear();
        }
    }
}

impl MemoryManager {
    /// Builds a manager from the config.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or larger than `total_dram`.
    pub fn new(config: MmConfig) -> Self {
        MemoryManager::with_scratch(config, MmScratch::default())
    }

    /// Like [`MemoryManager::new`], but adopts `scratch`'s buffer
    /// capacity (emptied first) for the hot and cold page arrays, the
    /// free-slot list and the LRU lists of the cgroups it creates.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or larger than `total_dram`.
    pub fn with_scratch(config: MmConfig, mut scratch: MmScratch) -> Self {
        scratch.scrub();
        assert!(!config.page_size.is_zero(), "page size must be non-zero");
        let total_pages = config.total_dram.as_u64() / config.page_size.as_u64();
        assert!(total_pages > 0, "DRAM smaller than one page");
        let swap_is_zswap = config
            .swap
            .as_ref()
            .is_some_and(|b| b.kind() == BackendKind::Zswap);
        MemoryManager {
            page_size: config.page_size,
            total_pages,
            pages: scratch.pages,
            cold: scratch.cold,
            free_slots: scratch.free_slots,
            cgroups: Vec::new(),
            swap: config.swap,
            swap_is_zswap,
            fs: config.fs_device,
            policy: config.policy,
            rng: DetRng::seed_from_u64(config.seed),
            resident_global: 0,
            direct_reclaims: 0,
            alloc_failures: 0,
            lost_loads: 0,
            provenance: None,
            spare_lrus: scratch.lrus,
        }
    }

    /// Retires the manager, returning its buffer capacity (emptied) for
    /// the next manager to adopt via [`MemoryManager::with_scratch`].
    /// Only this manager's cgroups hand on their LRU lists: carrying
    /// lists no cgroup used would pin capacity that no host needs.
    pub fn into_scratch(self) -> MmScratch {
        let lrus = self.cgroups.into_iter().rev().map(|c| c.lrus).collect();
        let mut scratch = MmScratch {
            pages: self.pages,
            cold: self.cold,
            free_slots: self.free_slots,
            lrus,
        };
        scratch.scrub();
        scratch
    }

    /// The simulated page size.
    pub fn page_size(&self) -> ByteSize {
        self.page_size
    }

    /// The reclaim policy in force.
    pub fn policy(&self) -> ReclaimPolicy {
        self.policy
    }

    // ------------------------------------------------------------------
    // Reclaim-pressure provenance
    // ------------------------------------------------------------------

    /// Turns on reclaim-pressure provenance tracking (idempotent).
    ///
    /// While enabled, every eviction records which cgroup's demand
    /// triggered it (the current [`MemoryManager::set_reclaim_trigger`]
    /// value) against the evicted page's slot, and every later
    /// fault-back of that page charges its full stall — device latency
    /// plus any nested direct-reclaim scan time — to the recorded
    /// trigger. Direct-reclaim stall paid inside an allocation is
    /// charged to the allocator itself. Accumulated charges are read
    /// with [`MemoryManager::drain_provenance_charges`].
    ///
    /// Tracking draws no RNG and emits nothing, so enabling it leaves
    /// all simulation output byte-identical.
    pub fn enable_provenance(&mut self) {
        if self.provenance.is_none() {
            self.provenance = Some(ProvenanceTracker::default());
        }
    }

    /// Names the cgroup whose demand is driving the mm entry points
    /// that follow (the allocating container, the faulting accessor, or
    /// the target of a proactive `memory.reclaim`). `None` detaches the
    /// trigger; evictions recorded without one fall back to blaming the
    /// page's own cgroup. No-op unless provenance is enabled.
    pub fn set_reclaim_trigger(&mut self, cg: Option<CgroupId>) {
        if let Some(p) = &mut self.provenance {
            p.trigger = cg;
        }
    }

    /// Moves every accumulated `(victim, offender)` charge into `out`
    /// (cleared first), ordered by `(victim, offender)` id, and resets
    /// the accumulator. Empty when provenance is disabled.
    pub fn drain_provenance_charges(&mut self, out: &mut Vec<ProvenanceCharge>) {
        out.clear();
        if let Some(p) = &mut self.provenance {
            for (&(victim, offender), &nanos) in p.charges.iter() {
                out.push(ProvenanceCharge {
                    victim,
                    offender,
                    stall: SimDuration::from_nanos(nanos),
                });
            }
            p.charges.clear();
        }
    }

    /// Records the current trigger as the evictor of `id` (owner `cg`
    /// blames itself when no trigger is attached).
    fn note_eviction_provenance(&mut self, id: PageId, owner: CgroupId) {
        if let Some(p) = &mut self.provenance {
            let slot = id.slot();
            if p.evicted_by.len() <= slot {
                p.evicted_by.resize(slot + 1, None);
            }
            p.evicted_by[slot] = Some(p.trigger.unwrap_or(owner));
        }
    }

    /// Charges `stall` paid by `victim` faulting `id` back in to the
    /// eviction trigger recorded for the slot, consuming the record.
    fn charge_fault_provenance(&mut self, id: PageId, victim: CgroupId, stall: SimDuration) {
        if let Some(p) = &mut self.provenance {
            let offender = p
                .evicted_by
                .get_mut(id.slot())
                .and_then(Option::take)
                .unwrap_or(victim);
            let nanos = stall.as_nanos();
            if nanos > 0 {
                *p.charges.entry((victim, offender)).or_insert(0) += nanos;
            }
        }
    }

    /// Charges direct-reclaim stall paid inside `cg`'s own allocation:
    /// self-inflicted pressure, billed to the trigger (the allocator).
    fn charge_alloc_provenance(&mut self, cg: CgroupId, stall: SimDuration) {
        if let Some(p) = &mut self.provenance {
            let offender = p.trigger.unwrap_or(cg);
            let nanos = stall.as_nanos();
            if nanos > 0 {
                *p.charges.entry((cg, offender)).or_insert(0) += nanos;
            }
        }
    }

    // ------------------------------------------------------------------
    // Cgroups
    // ------------------------------------------------------------------

    /// Creates a cgroup under `parent` (or as a root).
    pub fn create_cgroup(&mut self, name: &str, parent: Option<CgroupId>) -> CgroupId {
        let id = CgroupId(self.cgroups.len());
        let mut cgroup = Cgroup::new(name, parent);
        if let Some(lrus) = self.spare_lrus.pop() {
            cgroup.lrus = lrus;
        }
        self.cgroups.push(cgroup);
        if let Some(p) = parent {
            self.cgroups[p.0].children.push(id);
        }
        id
    }

    /// Access to a cgroup.
    ///
    /// # Panics
    ///
    /// Panics if `cg` does not belong to this manager.
    pub fn cgroup(&self, cg: CgroupId) -> &Cgroup {
        &self.cgroups[cg.0]
    }

    /// All cgroup ids, in creation order.
    pub fn cgroup_ids(&self) -> impl Iterator<Item = CgroupId> {
        (0..self.cgroups.len()).map(CgroupId)
    }

    /// Sets the `memory.max` subtree limit.
    pub fn set_memory_max(&mut self, cg: CgroupId, max: Option<ByteSize>) {
        self.cgroups[cg.0].memory_max = max;
    }

    /// Sets `memory.low`: best-effort protection. While the subtree's
    /// usage is at or below this value, global reclaim and subtree
    /// distribution skip it (unless nothing unprotected remains).
    pub fn set_memory_low(&mut self, cg: CgroupId, low: ByteSize) {
        self.cgroups[cg.0].memory_low = low;
    }

    /// Whether the cgroup is currently under its `memory.low`
    /// protection.
    pub fn is_low_protected(&self, cg: CgroupId) -> bool {
        let c = &self.cgroups[cg.0];
        !c.memory_low.is_zero() && c.subtree_resident.to_bytes(self.page_size) <= c.memory_low
    }

    /// Sets the mean compression ratio of the cgroup's anonymous memory.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1.0`.
    pub fn set_compress_ratio(&mut self, cg: CgroupId, ratio: f64) {
        assert!(ratio >= 1.0, "compression ratio below 1: {ratio}");
        self.cgroups[cg.0].compress_ratio = ratio;
    }

    /// Sets the container's reclaim priority.
    pub fn set_priority(&mut self, cg: CgroupId, priority: ReclaimPriority) {
        self.cgroups[cg.0].priority = priority;
    }

    /// `memory.current`: bytes resident in the cgroup's subtree.
    pub fn memory_current(&self, cg: CgroupId) -> ByteSize {
        self.cgroups[cg.0].subtree_resident.to_bytes(self.page_size)
    }

    /// A `memory.stat`-style snapshot.
    pub fn cgroup_stat(&self, cg: CgroupId) -> CgroupStat {
        let c = &self.cgroups[cg.0];
        CgroupStat {
            anon_resident: c.anon_resident,
            file_resident: c.file_resident,
            anon_offloaded: c.anon_offloaded,
            file_evicted: c.file_evicted,
            subtree_resident: c.subtree_resident,
            refaults_total: c.refault_rate.total(),
            swapins_total: c.swapin_rate.total(),
            swapouts_total: c.swapout_rate.total(),
            refault_rate: c.refault_rate.rate(),
            swapin_rate: c.swapin_rate.rate(),
            swapout_rate: c.swapout_rate.rate(),
            lost_loads: c.lost_loads,
        }
    }

    // ------------------------------------------------------------------
    // Global accounting
    // ------------------------------------------------------------------

    fn zswap_pool_pages(&self) -> u64 {
        if !self.swap_is_zswap {
            return 0;
        }
        match &self.swap {
            Some(b) => b
                .stats()
                .bytes_stored
                .div_ceil_pages(self.page_size)
                .as_u64(),
            None => 0,
        }
    }

    /// Free DRAM pages (total minus resident minus zswap pool).
    pub fn free_pages(&self) -> u64 {
        self.total_pages
            .saturating_sub(self.resident_global)
            .saturating_sub(self.zswap_pool_pages())
    }

    /// Machine-wide statistics.
    pub fn global_stat(&self) -> GlobalStat {
        let zswap_pool = match &self.swap {
            Some(b) if b.kind() == BackendKind::Zswap => b.stats().bytes_stored,
            _ => ByteSize::ZERO,
        };
        GlobalStat {
            total_dram: ByteSize::new(self.total_pages * self.page_size.as_u64()),
            resident_bytes: ByteSize::new(self.resident_global * self.page_size.as_u64()),
            zswap_pool_bytes: zswap_pool,
            free_bytes: ByteSize::new(self.free_pages() * self.page_size.as_u64()),
            direct_reclaims: self.direct_reclaims,
            alloc_failures: self.alloc_failures,
            lost_loads: self.lost_loads,
        }
    }

    /// Statistics of the swap backend, if any.
    pub fn swap_stats(&self) -> Option<BackendStats> {
        self.swap.as_ref().map(|b| b.stats())
    }

    /// Injects a device fault into the swap backend, if any (fault
    /// experiments and tests).
    pub fn inject_swap_fault(&mut self, fault: DeviceFault) {
        if let Some(swap) = self.swap.as_mut() {
            swap.inject(fault);
        }
    }

    /// Kind of the swap backend, if any.
    pub fn swap_kind(&self) -> Option<BackendKind> {
        self.swap.as_ref().map(|b| b.kind())
    }

    /// The filesystem SSD (for endurance / rate inspection).
    pub fn fs_device(&self) -> &SsdDevice {
        &self.fs
    }

    /// The swap backend, if the host has one — zswap, SSD or tiered
    /// (for §4.5 write-rate and device-health inspection).
    pub fn swap(&self) -> Option<&dyn OffloadBackend> {
        self.swap.as_deref()
    }

    /// A page's current descriptor, decoded by value from its hot and
    /// cold records.
    ///
    /// # Panics
    ///
    /// Panics on an id not produced by this manager.
    pub fn page(&self, id: PageId) -> Page {
        let slot = id.slot();
        self.pages[slot].view(&self.cold[slot])
    }

    /// Whether the page is resident in DRAM. Equals
    /// `page(id).is_resident()` but reads only the hot record.
    ///
    /// # Panics
    ///
    /// Panics on an id not produced by this manager.
    pub fn is_resident(&self, id: PageId) -> bool {
        self.pages[id.slot()].is_resident()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `count` pages of `kind` in `cg`, reclaiming if DRAM or
    /// a `memory.max` limit requires it. The allocation is atomic: on
    /// failure no pages remain allocated.
    ///
    /// Pages are inserted in bulk up to the current headroom (the free
    /// pool capped by every ancestor's `memory.max` room); past it, one
    /// checked page at a time may reclaim. Either way the pages, their
    /// LRU order, the stall and the counters equal `count` single-page
    /// allocations.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when reclaim cannot make room;
    /// [`AllocError::CgroupLimit`] when a limit cannot be satisfied.
    pub fn alloc_pages(
        &mut self,
        cg: CgroupId,
        kind: PageKind,
        count: u64,
        now: SimTime,
    ) -> Result<AllocOutcome, AllocError> {
        // A request beyond DRAM fails or evicts its own earlier pages,
        // so it cannot be sized up front.
        let mut pages = Vec::with_capacity(count.min(self.total_pages) as usize);
        let reclaim_stall = self.alloc_pages_into(cg, kind, count, now, &mut pages)?;
        Ok(AllocOutcome {
            pages,
            reclaim_stall,
        })
    }

    /// [`MemoryManager::alloc_pages`] appending the new pages to `out`
    /// instead of a fresh vector, for callers that reuse one buffer
    /// across ticks. Returns the reclaim stall; on failure `out` is
    /// left as it was.
    ///
    /// # Errors
    ///
    /// As [`MemoryManager::alloc_pages`].
    pub fn alloc_pages_into(
        &mut self,
        cg: CgroupId,
        kind: PageKind,
        count: u64,
        now: SimTime,
        out: &mut Vec<PageId>,
    ) -> Result<SimDuration, AllocError> {
        let start = out.len();
        let mut stall = SimDuration::ZERO;
        while ((out.len() - start) as u64) < count {
            let mut n = self.headroom(cg).min(count - (out.len() - start) as u64);
            if n == 0 {
                let step = self
                    .enforce_limits(cg, 1)
                    .and_then(|s1| self.ensure_free(1).map(|s2| s1 + s2));
                match step {
                    Ok(s) => stall += s,
                    Err(e) => {
                        self.free_pages_of(&out[start..]);
                        out.truncate(start);
                        return Err(e);
                    }
                }
                n = 1;
            }
            self.insert_pages(cg, kind, n, now, out);
        }
        self.charge_alloc_provenance(cg, stall);
        Ok(stall)
    }

    /// Pages `cg` can take now with neither `enforce_limits` nor
    /// `ensure_free` having anything to do: the free pool, capped by the
    /// `memory.max` room of `cg` and each ancestor.
    fn headroom(&self, cg: CgroupId) -> u64 {
        let mut room = self.free_pages();
        let mut cursor = Some(cg);
        while let Some(c) = cursor {
            let group = &self.cgroups[c.0];
            if let Some(max) = group.memory_max {
                let limit_pages = max.as_u64() / self.page_size.as_u64();
                room = room.min(limit_pages.saturating_sub(group.subtree_resident.as_u64()));
            }
            cursor = group.parent;
        }
        room
    }

    /// Inserts `n` resident pages of `kind` owned by `cg` at the head of
    /// its inactive list, appending their ids to `out`. Recycled slots
    /// go first, in `free_slots` pop order; the rest are new slab slots,
    /// filled with one `resize` per array. Each group joins the list
    /// with one append, in the order of `out`.
    fn insert_pages(
        &mut self,
        cg: CgroupId,
        kind: PageKind,
        n: u64,
        now: SimTime,
        out: &mut Vec<PageId>,
    ) {
        let hot = PageMeta::new(kind, now, 0);
        let cold = ColdMeta::new(cg);
        let lru = self.cgroups[cg.0].lrus.list_mut(kind, LruTier::Inactive);
        let recycled = self.free_slots.len().min(n as usize);
        let first = out.len();
        let split = self.free_slots.len() - recycled;
        out.extend(self.free_slots.drain(split..).rev().map(PageId));
        lru.push_all(out[first..].iter().map(|&id| {
            // A recycled slot must not inherit the previous tenant's
            // eviction provenance.
            if let Some(p) = &mut self.provenance {
                if let Some(e) = p.evicted_by.get_mut(id.slot()) {
                    *e = None;
                }
            }
            // Preserve the slot's generation across reuse: the free
            // already bumped it past every stale LRU entry of the
            // previous tenant, so none can validate against the new page.
            let meta = &mut self.pages[id.slot()];
            *meta = PageMeta {
                gen: meta.gen,
                ..hot
            };
            self.cold[id.slot()] = cold;
            (id, meta.gen)
        }));
        let fresh = n as usize - recycled;
        if fresh > 0 {
            let start = self.pages.len();
            let end = start + fresh;
            // One range check covers every new slot below `end`, so the
            // casts below are lossless.
            PageId::from_slot(end - 1);
            self.pages.resize(end, hot);
            self.cold.resize(end, cold);
            lru.push_all((start..end).map(|slot| (PageId(slot as u32), hot.gen)));
            out.extend((start..end).map(|slot| PageId(slot as u32)));
        }
        self.note_resident(cg, kind, n);
    }

    /// Frees pages (container shrink or exit). Offloaded copies are
    /// discarded from the backend; shadow entries are dropped.
    pub fn free_pages_of(&mut self, ids: &[PageId]) {
        for &id in ids {
            let (meta, cold) = (&self.pages[id.slot()], &self.cold[id.slot()]);
            let (kind, owner, state) = (meta.kind(), cold.owner(), meta.state(cold));
            match state {
                PageState::Resident { tier } => {
                    self.cgroups[owner.0].lrus.list_mut(kind, tier).forget_one();
                    self.note_unresident(owner, kind, 1);
                }
                PageState::Offloaded { token } => {
                    if let Some(swap) = &mut self.swap {
                        swap.discard(token);
                    }
                    self.cgroups[owner.0].anon_offloaded -= PageCount::new(1);
                }
                PageState::EvictedFile { .. } => {
                    self.cgroups[owner.0].file_evicted -= PageCount::new(1);
                }
                PageState::Freed => continue,
            }
            let meta = &mut self.pages[id.slot()];
            meta.set_freed();
            // Invalidate any LRU entry left behind so it can never
            // validate against this slot's next tenant.
            meta.gen = meta.gen.wrapping_add(1);
            self.free_slots.push(id.0);
        }
    }

    fn note_resident(&mut self, cg: CgroupId, kind: PageKind, n: u64) {
        let delta = PageCount::new(n);
        match kind {
            PageKind::Anon => self.cgroups[cg.0].anon_resident += delta,
            PageKind::File => self.cgroups[cg.0].file_resident += delta,
        }
        self.resident_global += n;
        let mut cursor = Some(cg);
        while let Some(c) = cursor {
            self.cgroups[c.0].subtree_resident += delta;
            cursor = self.cgroups[c.0].parent;
        }
    }

    fn note_unresident(&mut self, cg: CgroupId, kind: PageKind, n: u64) {
        let delta = PageCount::new(n);
        match kind {
            PageKind::Anon => self.cgroups[cg.0].anon_resident -= delta,
            PageKind::File => self.cgroups[cg.0].file_resident -= delta,
        }
        self.resident_global -= n;
        let mut cursor = Some(cg);
        while let Some(c) = cursor {
            self.cgroups[c.0].subtree_resident -= delta;
            cursor = self.cgroups[c.0].parent;
        }
    }

    /// Walks ancestors enforcing `memory.max` before `incoming` pages
    /// are charged; reclaims from over-limit subtrees synchronously
    /// (this statefulness is exactly what the stateless
    /// `memory.reclaim` knob was added to avoid — see the
    /// `ablation_reclaim_knob` bench).
    fn enforce_limits(&mut self, cg: CgroupId, incoming: u64) -> Result<SimDuration, AllocError> {
        let mut stall = SimDuration::ZERO;
        let mut cursor = Some(cg);
        while let Some(c) = cursor {
            if let Some(max) = self.cgroups[c.0].memory_max {
                let limit_pages = max.as_u64() / self.page_size.as_u64();
                let used = self.cgroups[c.0].subtree_resident.as_u64();
                if used + incoming > limit_pages {
                    let excess = used + incoming - limit_pages;
                    let outcome = self.reclaim_subtree(c, excess.max(DIRECT_RECLAIM_BATCH));
                    stall += SCAN_COST * outcome.scanned.as_u64();
                    let used = self.cgroups[c.0].subtree_resident.as_u64();
                    if used + incoming > limit_pages {
                        self.alloc_failures += 1;
                        return Err(AllocError::CgroupLimit(c));
                    }
                }
            }
            cursor = self.cgroups[c.0].parent;
        }
        Ok(stall)
    }

    /// Makes sure at least `n` DRAM pages are free, running direct
    /// reclaim against the largest cgroups if not.
    fn ensure_free(&mut self, n: u64) -> Result<SimDuration, AllocError> {
        let mut stall = SimDuration::ZERO;
        let mut rounds = 0;
        while self.free_pages() < n {
            rounds += 1;
            if rounds > 64 {
                self.alloc_failures += 1;
                return Err(AllocError::OutOfMemory);
            }
            self.direct_reclaims += 1;
            let victim = self.largest_cgroup();
            let Some(victim) = victim else {
                self.alloc_failures += 1;
                return Err(AllocError::OutOfMemory);
            };
            let outcome = self.reclaim_one_cgroup(victim, n.max(DIRECT_RECLAIM_BATCH));
            stall += SCAN_COST * outcome.scanned.as_u64();
            if outcome.reclaimed().is_zero() {
                // Nothing reclaimable in the largest group; try an
                // emergency sweep over every group before giving up.
                let mut any = false;
                for id in 0..self.cgroups.len() {
                    let out = self.reclaim_one_cgroup(CgroupId(id), DIRECT_RECLAIM_BATCH);
                    stall += SCAN_COST * out.scanned.as_u64();
                    if !out.reclaimed().is_zero() {
                        any = true;
                        break;
                    }
                }
                if !any {
                    self.alloc_failures += 1;
                    return Err(AllocError::OutOfMemory);
                }
            }
        }
        Ok(stall)
    }

    fn largest_cgroup(&self) -> Option<CgroupId> {
        // memory.low: prefer unprotected victims; fall back to protected
        // ones only when nothing else has reclaimable pages.
        let candidates = |protected: bool| {
            self.cgroups
                .iter()
                .enumerate()
                .filter(move |(i, c)| {
                    !c.resident_pages().is_zero()
                        && self.is_low_protected(CgroupId(*i)) == protected
                })
                .max_by_key(|(_, c)| c.resident_pages())
                .map(|(i, _)| CgroupId(i))
        };
        candidates(false).or_else(|| candidates(true))
    }

    // ------------------------------------------------------------------
    // Access / fault path
    // ------------------------------------------------------------------

    /// Touches a page at `now`, returning the access outcome with any
    /// fault stall. Implements `mark_page_accessed` semantics for
    /// resident pages (second access promotes inactive → active) and the
    /// swap-in / refault fault paths for non-resident ones.
    ///
    /// # Panics
    ///
    /// Panics if the page was freed.
    pub fn access(&mut self, id: PageId, now: SimTime) -> AccessOutcome {
        let meta = &mut self.pages[id.slot()];
        if meta.is_resident() {
            meta.last_access = now;
            if meta.flags & (FLAG_INACTIVE | FLAG_REFERENCED) == (FLAG_INACTIVE | FLAG_REFERENCED) {
                // Second access while inactive: activate. The gen bump
                // invalidates the page's inactive-list entry in O(1).
                meta.set_referenced(false);
                meta.set_resident(LruTier::Active);
                meta.gen = meta.gen.wrapping_add(1);
                let (kind, owner, gen) = (meta.kind(), self.cold[id.slot()].owner(), meta.gen);
                let lrus = &mut self.cgroups[owner.0].lrus;
                lrus.list_mut(kind, LruTier::Inactive).forget_one();
                lrus.list_mut(kind, LruTier::Active).push(id, gen);
            } else {
                meta.set_referenced(true);
            }
            return AccessOutcome::Hit;
        }
        let cold = &self.cold[id.slot()];
        let owner = cold.owner();
        match meta.state(cold) {
            PageState::Offloaded { token } => self.swap_in(id, owner, token, now),
            PageState::EvictedFile { shadow } => self.file_fault(id, owner, shadow, now),
            PageState::Freed => panic!("access to freed {id}"),
            PageState::Resident { .. } => unreachable!("handled above"),
        }
    }

    /// Batched [`MemoryManager::access`]: touches `ids` in order at
    /// `now` and folds each outcome into aggregate [`BatchAccessStats`]
    /// instead of materializing an outcome per page. Swap-in fault
    /// latencies are appended to `swap_latencies_secs` (in seconds,
    /// occurrence order) for latency-quantile tracking. Behavior and
    /// RNG-draw order are identical to calling `access` in a loop and
    /// folding with [`BatchAccessStats::fold`]; the win is that the
    /// overwhelmingly common case — a resident page that stays on its
    /// list — is handled inline against the packed metadata slab.
    pub fn access_batch(
        &mut self,
        ids: &[PageId],
        now: SimTime,
        swap_latencies_secs: &mut Vec<f64>,
    ) -> BatchAccessStats {
        let mut stats = BatchAccessStats::default();
        for &id in ids {
            let meta = &mut self.pages[id.slot()];
            let fast = meta.is_resident()
                && meta.flags & (FLAG_INACTIVE | FLAG_REFERENCED)
                    != (FLAG_INACTIVE | FLAG_REFERENCED);
            if fast {
                // Resident, no LRU move needed: mark referenced, stamp
                // the access time, done.
                meta.last_access = now;
                meta.flags |= FLAG_REFERENCED;
                stats.accesses += 1;
                continue;
            }
            // Slow path: activation or fault.
            let outcome = self.access(id, now);
            if let AccessOutcome::Fault {
                kind: FaultKind::SwapIn,
                latency,
                ..
            } = outcome
            {
                swap_latencies_secs.push(latency.as_secs_f64());
            }
            stats.fold(outcome);
        }
        stats
    }

    fn swap_in(&mut self, id: PageId, owner: CgroupId, token: u64, now: SimTime) -> AccessOutcome {
        let swap = self
            .swap
            .as_mut()
            .expect("page offloaded but no swap backend");
        // A backend that lost the page (device death) returns `None`;
        // degrade by re-establishing the page zero-filled — the moral
        // equivalent of a fresh anonymous page after data loss — rather
        // than panicking the host. The loss is visible as `lost_loads`.
        let (latency, block_io, lost) = match swap.load(token, &mut self.rng) {
            Some(latency) => (latency, swap.kind() != BackendKind::Zswap, false),
            None => (SimDuration::ZERO, false, true),
        };
        if lost {
            self.cgroups[owner.0].lost_loads += 1;
            self.lost_loads += 1;
        }
        self.cgroups[owner.0].anon_offloaded -= PageCount::new(1);
        let reclaim_stall = self.ensure_free(1).unwrap_or(SimDuration::ZERO);
        let meta = &mut self.pages[id.slot()];
        meta.set_resident(LruTier::Inactive);
        meta.set_referenced(true);
        meta.last_access = now;
        // No gen bump: the page left its list physically at swap-out, so
        // no entry with the current stamp exists anywhere.
        let gen = meta.gen;
        self.note_resident(owner, PageKind::Anon, 1);
        self.cgroups[owner.0]
            .lrus
            .list_mut(PageKind::Anon, LruTier::Inactive)
            .push(id, gen);
        self.cgroups[owner.0].swapin_rate.add(1);
        self.charge_fault_provenance(id, owner, latency + reclaim_stall);
        AccessOutcome::Fault {
            kind: FaultKind::SwapIn,
            latency,
            reclaim_stall,
            block_io,
        }
    }

    fn file_fault(
        &mut self,
        id: PageId,
        owner: CgroupId,
        shadow: u64,
        now: SimTime,
    ) -> AccessOutcome {
        let latency = self.fs.access(IoKind::Read, self.page_size, &mut self.rng);
        let resident = self.cgroups[owner.0].resident_pages().as_u64();
        let is_refault = self.cgroups[owner.0].evictions.is_refault(shadow, resident);
        self.cgroups[owner.0].file_evicted -= PageCount::new(1);
        let reclaim_stall = self.ensure_free(1).unwrap_or(SimDuration::ZERO);
        let tier = if is_refault {
            // Workingset refault: activate immediately (§3.4).
            LruTier::Active
        } else {
            LruTier::Inactive
        };
        let meta = &mut self.pages[id.slot()];
        meta.set_resident(tier);
        meta.set_referenced(false);
        meta.last_access = now;
        let gen = meta.gen;
        self.note_resident(owner, PageKind::File, 1);
        self.cgroups[owner.0]
            .lrus
            .list_mut(PageKind::File, tier)
            .push(id, gen);
        self.charge_fault_provenance(id, owner, latency + reclaim_stall);
        if is_refault {
            self.cgroups[owner.0].refault_rate.add(1);
            AccessOutcome::Fault {
                kind: FaultKind::Refault,
                latency,
                reclaim_stall,
                block_io: true,
            }
        } else {
            AccessOutcome::Fault {
                kind: FaultKind::ColdFileRead,
                latency,
                reclaim_stall,
                block_io: true,
            }
        }
    }

    // ------------------------------------------------------------------
    // Reclaim
    // ------------------------------------------------------------------

    /// The stateless `memory.reclaim` knob (§3.3): reclaims up to
    /// `bytes` from the cgroup's subtree without installing any limit.
    pub fn reclaim(&mut self, cg: CgroupId, bytes: ByteSize) -> ReclaimOutcome {
        let target = bytes.div_ceil_pages(self.page_size).as_u64();
        self.reclaim_subtree(cg, target)
    }

    fn reclaim_subtree(&mut self, cg: CgroupId, target_pages: u64) -> ReclaimOutcome {
        let mut outcome = ReclaimOutcome::default();
        let mut remaining = target_pages;
        // Reclaim from descendants proportionally, largest first.
        let mut members = self.subtree_members(cg);
        // Descendants under their memory.low protection are skipped;
        // the target itself is always eligible (an explicit
        // memory.reclaim write overrides its own protection).
        members.retain(|&m| m == cg || !self.is_low_protected(m));
        members.sort_by_key(|&c| std::cmp::Reverse(self.cgroups[c.0].resident_pages()));
        let total_resident: u64 = members
            .iter()
            .map(|&c| self.cgroups[c.0].resident_pages().as_u64())
            .sum();
        if total_resident == 0 {
            return outcome;
        }
        for &member in &members {
            if remaining == 0 {
                break;
            }
            let share =
                self.cgroups[member.0].resident_pages().as_u64() as f64 / total_resident as f64;
            let want = ((target_pages as f64 * share).ceil() as u64).min(remaining);
            if want == 0 {
                continue;
            }
            let got = self.reclaim_one_cgroup(member, want);
            remaining = remaining.saturating_sub(got.reclaimed().as_u64());
            outcome.merge(got);
        }
        outcome
    }

    fn subtree_members(&self, cg: CgroupId) -> Vec<CgroupId> {
        let mut out = Vec::new();
        let mut stack = vec![cg];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(&self.cgroups[c.0].children);
        }
        out
    }

    /// Reclaims up to `target` pages from a single cgroup's own LRUs,
    /// splitting between file and anon per the policy.
    fn reclaim_one_cgroup(&mut self, cg: CgroupId, target: u64) -> ReclaimOutcome {
        let c = &self.cgroups[cg.0];
        let inputs = BalanceInputs {
            file_pages: c.file_resident.as_u64(),
            anon_pages: c.anon_resident.as_u64(),
            refault_rate: c.refault_rate.rate(),
            swapin_rate: c.swapin_rate.rate(),
            swap_available: self
                .swap
                .as_ref()
                .map(|s| s.available() >= self.page_size)
                .unwrap_or(false),
        };
        let split = self.policy.split(&inputs);
        let file_target = split.file_share(target);
        let anon_target = target - file_target;

        let mut outcome = ReclaimOutcome::default();
        let anon_out = self.shrink_list(cg, PageKind::Anon, anon_target);
        outcome.merge(anon_out);
        // Redirect unmet anon target (e.g. swap full) to file.
        let shortfall = anon_target.saturating_sub(anon_out.reclaimed().as_u64());
        let file_out = self.shrink_list(cg, PageKind::File, file_target + shortfall);
        outcome.merge(file_out);
        // And unmet file target back to anon: when the file pool is
        // exhausted mid-call the kernel keeps scanning the swap-backed
        // pool rather than returning short.
        let shortfall = (file_target + shortfall).saturating_sub(file_out.reclaimed().as_u64());
        if shortfall > 0 {
            outcome.merge(self.shrink_list(cg, PageKind::Anon, shortfall));
        }
        outcome
    }

    /// Core shrinker: demotes from the active list when inactive is low,
    /// then evicts unreferenced pages from the inactive tail with
    /// second-chance rotation.
    fn shrink_list(&mut self, cg: CgroupId, kind: PageKind, want: u64) -> ReclaimOutcome {
        let mut outcome = ReclaimOutcome::default();
        if want == 0 {
            return outcome;
        }
        let budget = want * SCAN_BUDGET_FACTOR + 8;
        let mut scanned = 0u64;
        while outcome.reclaimed().as_u64() < want && scanned < budget {
            scanned += 1;
            // Keep the inactive list fed.
            if self.cgroups[cg.0].lrus.inactive_is_low(kind) {
                self.demote_one(cg, kind);
            }
            let candidate = {
                let pages = &self.pages;
                self.cgroups[cg.0]
                    .lrus
                    .list_mut(kind, LruTier::Inactive)
                    .pop_valid(|id| pages[id.slot()].gen)
            };
            let Some(id) = candidate else {
                // Inactive exhausted; force a demotion or give up.
                if !self.demote_one(cg, kind) {
                    break;
                }
                continue;
            };
            debug_assert_eq!(
                self.page(id).state(),
                PageState::Resident {
                    tier: LruTier::Inactive
                },
                "stamp-fresh inactive entry out of sync with page state"
            );
            debug_assert_eq!(self.page(id).owner(), cg);
            debug_assert_eq!(self.page(id).kind(), kind);
            let slot = id.slot();
            if self.pages[slot].referenced() {
                // Second chance: activate and clear the bit.
                let meta = &mut self.pages[slot];
                meta.set_referenced(false);
                meta.set_resident(LruTier::Active);
                let gen = meta.gen;
                self.cgroups[cg.0]
                    .lrus
                    .list_mut(kind, LruTier::Active)
                    .push(id, gen);
                continue;
            }
            match kind {
                PageKind::File => {
                    let shadow = self.cgroups[cg.0].evictions.record_eviction();
                    self.pages[slot].set_evicted(&mut self.cold[slot], shadow);
                    self.note_eviction_provenance(id, cg);
                    self.cgroups[cg.0].file_evicted += PageCount::new(1);
                    self.note_unresident(cg, PageKind::File, 1);
                    outcome.reclaimed_file += PageCount::new(1);
                }
                PageKind::Anon => {
                    let ratio = self.cgroups[cg.0].compress_ratio;
                    let stored = match self.swap.as_mut() {
                        Some(swap) => swap.store(self.page_size, ratio, &mut self.rng),
                        None => None,
                    };
                    match stored {
                        Some(out) => {
                            self.pages[slot].set_offloaded(&mut self.cold[slot], out.token);
                            self.note_eviction_provenance(id, cg);
                            self.cgroups[cg.0].anon_offloaded += PageCount::new(1);
                            self.cgroups[cg.0].swapout_rate.add(1);
                            self.note_unresident(cg, PageKind::Anon, 1);
                            outcome.reclaimed_anon += PageCount::new(1);
                        }
                        None => {
                            // Swap full: rotate back and stop anon scan.
                            outcome.swap_full = true;
                            let meta = &mut self.pages[slot];
                            meta.set_resident(LruTier::Active);
                            let gen = meta.gen;
                            self.cgroups[cg.0]
                                .lrus
                                .list_mut(kind, LruTier::Active)
                                .push(id, gen);
                            break;
                        }
                    }
                }
            }
        }
        outcome.scanned += PageCount::new(scanned);
        outcome
    }

    /// Moves one page from the active tail to the inactive head with its
    /// reference bit cleared. Returns whether a page moved.
    fn demote_one(&mut self, cg: CgroupId, kind: PageKind) -> bool {
        let candidate = {
            let pages = &self.pages;
            self.cgroups[cg.0]
                .lrus
                .list_mut(kind, LruTier::Active)
                .pop_valid(|id| pages[id.slot()].gen)
        };
        match candidate {
            Some(id) => {
                debug_assert_eq!(
                    self.page(id).state(),
                    PageState::Resident {
                        tier: LruTier::Active
                    },
                    "stamp-fresh active entry out of sync with page state"
                );
                debug_assert_eq!(self.page(id).owner(), cg);
                debug_assert_eq!(self.page(id).kind(), kind);
                let meta = &mut self.pages[id.slot()];
                meta.set_referenced(false);
                meta.set_resident(LruTier::Inactive);
                let gen = meta.gen;
                self.cgroups[cg.0]
                    .lrus
                    .list_mut(kind, LruTier::Inactive)
                    .push(id, gen);
                true
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Advances device and rate-counter clocks by one tick.
    pub fn tick(&mut self, dt: SimDuration) {
        self.fs.tick(dt);
        if let Some(swap) = &mut self.swap {
            swap.tick(dt);
        }
        for cg in &mut self.cgroups {
            cg.tick_rates(dt);
        }
        self.compact_lrus();
    }

    fn compact_lrus(&mut self) {
        for ci in 0..self.cgroups.len() {
            for kind in PageKind::ALL {
                for tier in [LruTier::Active, LruTier::Inactive] {
                    let pages = &self.pages;
                    self.cgroups[ci]
                        .lrus
                        .list_mut(kind, tier)
                        .maybe_compact(|id| pages[id.slot()].gen);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Coldness / idle tracking (Figure 2)
    // ------------------------------------------------------------------

    /// Histogram of the cgroup's pages by recency: returns the fraction
    /// of the footprint last touched within each of `thresholds`
    /// (cumulative, ascending) and, implicitly, the remainder is colder
    /// than the last threshold.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` is not ascending.
    pub fn coldness(&self, cg: CgroupId, now: SimTime, thresholds: &[SimDuration]) -> Vec<f64> {
        assert!(
            thresholds.windows(2).all(|w| w[0] <= w[1]),
            "thresholds must ascend"
        );
        let mut counts = vec![0u64; thresholds.len()];
        let mut total = 0u64;
        for (meta, cold) in self.pages.iter().zip(&self.cold) {
            if cold.owner() != cg || meta.is_freed() {
                continue;
            }
            total += 1;
            let age = now.saturating_since(meta.last_access);
            for (i, &t) in thresholds.iter().enumerate() {
                if age <= t {
                    counts[i] += 1;
                    break;
                }
            }
        }
        if total == 0 {
            return vec![0.0; thresholds.len()];
        }
        counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmo_backends::{ZswapAllocator, ZswapPool};

    fn small_config(swap: Option<Box<dyn OffloadBackend>>) -> MmConfig {
        MmConfig {
            page_size: ByteSize::from_kib(4),
            total_dram: ByteSize::from_kib(4 * 128), // 128 pages
            swap,
            ..MmConfig::default()
        }
    }

    fn ssd_swap() -> Option<Box<dyn OffloadBackend>> {
        Some(Box::new(tmo_backends::catalog::fleet_device(
            tmo_backends::SsdModel::C,
        )))
    }

    fn zswap() -> Option<Box<dyn OffloadBackend>> {
        Some(Box::new(ZswapPool::new(
            ByteSize::from_kib(4 * 64),
            ZswapAllocator::Zsmalloc,
        )))
    }

    #[test]
    fn alloc_and_account() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        let out = mm
            .alloc_pages(cg, PageKind::Anon, 10, SimTime::ZERO)
            .expect("fits");
        assert_eq!(out.pages.len(), 10);
        assert_eq!(out.reclaim_stall, SimDuration::ZERO);
        assert_eq!(mm.cgroup_stat(cg).anon_resident, PageCount::new(10));
        assert_eq!(mm.free_pages(), 118);
        assert_eq!(mm.memory_current(cg), ByteSize::from_kib(40));
    }

    #[test]
    fn subtree_accounting_rolls_up() {
        let mut mm = MemoryManager::new(small_config(None));
        let root = mm.create_cgroup("root", None);
        let child = mm.create_cgroup("child", Some(root));
        mm.alloc_pages(child, PageKind::File, 8, SimTime::ZERO)
            .expect("fits");
        assert_eq!(mm.cgroup_stat(root).subtree_resident, PageCount::new(8));
        assert_eq!(mm.cgroup_stat(root).file_resident, PageCount::ZERO);
        assert_eq!(mm.cgroup_stat(child).subtree_resident, PageCount::new(8));
    }

    #[test]
    fn file_reclaim_and_refault_round_trip() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        let out = mm
            .alloc_pages(cg, PageKind::File, 20, SimTime::ZERO)
            .expect("fits");
        let reclaimed = mm.reclaim(cg, ByteSize::from_kib(4 * 5));
        assert_eq!(reclaimed.reclaimed_file, PageCount::new(5));
        assert_eq!(mm.cgroup_stat(cg).file_evicted, PageCount::new(5));
        // Touch an evicted page: it faults back with IO latency and,
        // being recently evicted, is a workingset refault.
        let evicted: Vec<PageId> = out
            .pages
            .iter()
            .copied()
            .filter(|&p| !mm.page(p).is_resident())
            .collect();
        assert_eq!(evicted.len(), 5);
        let outcome = mm.access(evicted[0], SimTime::from_secs(1));
        match outcome {
            AccessOutcome::Fault {
                kind: FaultKind::Refault,
                latency,
                block_io: true,
                ..
            } => assert!(latency > SimDuration::ZERO),
            other => panic!("expected refault, got {other:?}"),
        }
        assert_eq!(mm.cgroup_stat(cg).refaults_total, 1);
        assert_eq!(mm.cgroup_stat(cg).file_evicted, PageCount::new(4));
    }

    #[test]
    fn anon_reclaim_requires_swap() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        mm.alloc_pages(cg, PageKind::Anon, 20, SimTime::ZERO)
            .expect("fits");
        let out = mm.reclaim(cg, ByteSize::from_kib(4 * 5));
        // File-only mode: no anon pages can be reclaimed.
        assert_eq!(out.reclaimed_anon, PageCount::ZERO);
        assert_eq!(mm.cgroup_stat(cg).anon_resident, PageCount::new(20));
    }

    #[test]
    fn anon_swap_out_and_swap_in() {
        let mut mm = MemoryManager::new(small_config(ssd_swap()));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 20, SimTime::ZERO)
            .expect("fits");
        let out = mm.reclaim(cg, ByteSize::from_kib(4 * 6));
        assert_eq!(out.reclaimed_anon, PageCount::new(6));
        assert_eq!(mm.cgroup_stat(cg).anon_offloaded, PageCount::new(6));
        assert_eq!(mm.cgroup_stat(cg).swapouts_total, 6);
        let swapped: Vec<PageId> = alloc
            .pages
            .iter()
            .copied()
            .filter(|&p| !mm.page(p).is_resident())
            .collect();
        let outcome = mm.access(swapped[0], SimTime::from_secs(1));
        match outcome {
            AccessOutcome::Fault {
                kind: FaultKind::SwapIn,
                block_io: true,
                ..
            } => {}
            other => panic!("expected swap-in, got {other:?}"),
        }
        assert_eq!(mm.cgroup_stat(cg).swapins_total, 1);
        assert_eq!(mm.cgroup_stat(cg).anon_offloaded, PageCount::new(5));
    }

    #[test]
    fn zswap_fault_is_not_block_io() {
        let mut mm = MemoryManager::new(small_config(zswap()));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 20, SimTime::ZERO)
            .expect("fits");
        mm.reclaim(cg, ByteSize::from_kib(4 * 4));
        let swapped: Vec<PageId> = alloc
            .pages
            .iter()
            .copied()
            .filter(|&p| !mm.page(p).is_resident())
            .collect();
        assert!(!swapped.is_empty());
        match mm.access(swapped[0], SimTime::from_secs(1)) {
            AccessOutcome::Fault {
                kind: FaultKind::SwapIn,
                block_io: false,
                latency,
                ..
            } => assert!(latency < SimDuration::from_micros(500)),
            other => panic!("expected zswap fault, got {other:?}"),
        }
    }

    #[test]
    fn dead_backend_load_degrades_to_zero_fill_and_counts_lost_loads() {
        let mut mm = MemoryManager::new(small_config(ssd_swap()));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 20, SimTime::ZERO)
            .expect("fits");
        mm.reclaim(cg, ByteSize::from_kib(4 * 10));
        let swapped: Vec<PageId> = alloc
            .pages
            .iter()
            .copied()
            .filter(|&p| !mm.page(p).is_resident())
            .collect();
        assert!(!swapped.is_empty());
        mm.inject_swap_fault(DeviceFault::Die);
        // Every offloaded page is gone, but accessing them must not
        // panic: pages come back zero-filled with zero device latency.
        for &p in &swapped {
            match mm.access(p, SimTime::from_secs(1)) {
                AccessOutcome::Fault {
                    kind: FaultKind::SwapIn,
                    latency,
                    block_io,
                    ..
                } => {
                    assert_eq!(latency, SimDuration::ZERO);
                    assert!(!block_io);
                }
                other => panic!("expected degraded swap-in, got {other:?}"),
            }
            assert!(mm.page(p).is_resident());
        }
        let lost = swapped.len() as u64;
        assert_eq!(mm.cgroup_stat(cg).lost_loads, lost);
        assert_eq!(mm.global_stat().lost_loads, lost);
        assert_eq!(mm.cgroup_stat(cg).anon_offloaded, PageCount::ZERO);
    }

    #[test]
    fn zswap_pool_consumes_dram() {
        let mut mm = MemoryManager::new(small_config(zswap()));
        let cg = mm.create_cgroup("a", None);
        mm.set_compress_ratio(cg, 2.0);
        mm.alloc_pages(cg, PageKind::Anon, 40, SimTime::ZERO)
            .expect("fits");
        let free_before = mm.free_pages();
        mm.reclaim(cg, ByteSize::from_kib(4 * 20));
        // 20 pages freed, but pool grew by ~10 pages of compressed data.
        let freed = mm.free_pages() - free_before;
        assert!((9..=11).contains(&freed), "net freed {freed}");
        assert!(mm.global_stat().zswap_pool_bytes > ByteSize::ZERO);
    }

    #[test]
    fn referenced_pages_survive_one_reclaim_pass() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::File, 20, SimTime::ZERO)
            .expect("fits");
        // Touch the first 10 pages so they are referenced.
        for &p in &alloc.pages[..10] {
            mm.access(p, SimTime::from_secs(1));
        }
        mm.reclaim(cg, ByteSize::from_kib(4 * 10));
        let survivors: Vec<bool> = alloc
            .pages
            .iter()
            .map(|&p| mm.page(p).is_resident())
            .collect();
        // The referenced first half survives; the untouched half went.
        assert!(survivors[..10].iter().all(|&s| s));
        assert_eq!(survivors[10..].iter().filter(|&&s| s).count(), 0);
    }

    #[test]
    fn direct_reclaim_kicks_in_when_dram_full() {
        let mut mm = MemoryManager::new(small_config(ssd_swap()));
        let a = mm.create_cgroup("a", None);
        let b = mm.create_cgroup("b", None);
        mm.alloc_pages(a, PageKind::File, 120, SimTime::ZERO)
            .expect("fits");
        // DRAM has 8 pages left; this allocation forces direct reclaim.
        let out = mm
            .alloc_pages(b, PageKind::Anon, 20, SimTime::ZERO)
            .expect("reclaim makes room");
        assert!(out.reclaim_stall > SimDuration::ZERO);
        assert!(mm.global_stat().direct_reclaims > 0);
        assert_eq!(mm.cgroup_stat(b).anon_resident, PageCount::new(20));
    }

    #[test]
    fn memory_max_blocks_over_limit_growth() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        mm.set_memory_max(cg, Some(ByteSize::from_kib(4 * 10)));
        // Anon pages without swap cannot be reclaimed, so growth beyond
        // the limit must fail.
        let err = mm
            .alloc_pages(cg, PageKind::Anon, 11, SimTime::ZERO)
            .expect_err("limit must bind");
        assert_eq!(err, AllocError::CgroupLimit(cg));
        assert!(mm.cgroup_stat(cg).anon_resident.as_u64() <= 10);
    }

    #[test]
    fn memory_max_reclaims_file_to_stay_under() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        mm.set_memory_max(cg, Some(ByteSize::from_kib(4 * 10)));
        let out = mm
            .alloc_pages(cg, PageKind::File, 30, SimTime::ZERO)
            .expect("file pages reclaim to fit");
        assert_eq!(out.pages.len(), 30);
        assert!(mm.cgroup_stat(cg).file_resident.as_u64() <= 10);
        assert!(out.reclaim_stall > SimDuration::ZERO);
    }

    #[test]
    fn oom_when_nothing_reclaimable() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        // Fill DRAM with unreclaimable anon (no swap).
        mm.alloc_pages(cg, PageKind::Anon, 128, SimTime::ZERO)
            .expect("exactly fits");
        let err = mm
            .alloc_pages(cg, PageKind::Anon, 1, SimTime::ZERO)
            .expect_err("nothing to reclaim");
        assert_eq!(err, AllocError::OutOfMemory);
        assert!(mm.global_stat().alloc_failures > 0);
    }

    #[test]
    fn oversized_request_fails_instead_of_aborting() {
        // Sizing the result by `count` would ask for 8 TiB of page ids
        // and abort the process, out of reach of any panic isolation.
        let mut mm = MemoryManager::new(MmConfig {
            total_dram: ByteSize::from_mib(64),
            ..small_config(None)
        });
        let cg = mm.create_cgroup("a", None);
        let err = mm
            .alloc_pages(cg, PageKind::Anon, 1 << 40, SimTime::ZERO)
            .expect_err("beyond DRAM");
        assert_eq!(err, AllocError::OutOfMemory);
        assert_eq!(mm.cgroup_stat(cg).resident(), PageCount::ZERO);
        assert_eq!(mm.free_pages(), 16_384);
        assert_eq!(mm.global_stat().alloc_failures, 1);
    }

    #[test]
    fn adopted_scratch_behaves_like_a_fresh_manager() {
        let script = |mm: &mut MemoryManager| {
            let a = mm.create_cgroup("a", None);
            let b = mm.create_cgroup("b", Some(a));
            let mut ids = mm
                .alloc_pages(b, PageKind::Anon, 60, SimTime::ZERO)
                .expect("fits")
                .pages;
            ids.extend(
                mm.alloc_pages(a, PageKind::File, 50, SimTime::ZERO)
                    .expect("fits")
                    .pages,
            );
            mm.reclaim(a, ByteSize::from_kib(4 * 30));
            mm.free_pages_of(&ids[..20]);
            ids.extend(
                mm.alloc_pages(b, PageKind::File, 40, SimTime::from_secs(1))
                    .expect("reclaim makes room")
                    .pages,
            );
            // `state` and `owner` come from the cold records.
            let views: Vec<(PageState, CgroupId)> = ids
                .iter()
                .map(|&p| (mm.page(p).state(), mm.page(p).owner()))
                .collect();
            let stats: Vec<CgroupStat> = mm.cgroup_ids().map(|c| mm.cgroup_stat(c)).collect();
            (ids, views, stats, mm.global_stat())
        };
        let fresh = script(&mut MemoryManager::new(small_config(zswap())));
        // A donor with more cgroups, stale LRU entries and free slots.
        let mut donor = MemoryManager::new(small_config(zswap()));
        let cgs: Vec<CgroupId> = (0..4)
            .map(|i| donor.create_cgroup(&format!("d{i}"), None))
            .collect();
        for &cg in &cgs {
            let pages = donor
                .alloc_pages(cg, PageKind::File, 30, SimTime::ZERO)
                .expect("fits")
                .pages;
            for &p in &pages[..10] {
                donor.access(p, SimTime::from_secs(1));
                donor.access(p, SimTime::from_secs(2));
            }
            donor.free_pages_of(&pages[5..15]);
        }
        let mut adopted = MemoryManager::with_scratch(small_config(zswap()), donor.into_scratch());
        // The hot slab, the cold array and the free slots start empty.
        let lens = (
            adopted.pages.len(),
            adopted.cold.len(),
            adopted.free_slots.len(),
        );
        assert_eq!(lens, (0, 0, 0), "scratch not emptied at adoption");
        assert_eq!(script(&mut adopted), fresh);
    }

    #[test]
    fn free_pages_of_releases_everything() {
        let mut mm = MemoryManager::new(small_config(ssd_swap()));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 20, SimTime::ZERO)
            .expect("fits");
        mm.reclaim(cg, ByteSize::from_kib(4 * 5));
        mm.free_pages_of(&alloc.pages);
        assert_eq!(mm.cgroup_stat(cg).anon_resident, PageCount::ZERO);
        assert_eq!(mm.cgroup_stat(cg).anon_offloaded, PageCount::ZERO);
        assert_eq!(mm.free_pages(), 128);
        // Slots are reused by the next allocation.
        let again = mm
            .alloc_pages(cg, PageKind::File, 5, SimTime::ZERO)
            .expect("fits");
        assert!(again.pages.iter().all(|p| alloc.pages.contains(p)));
    }

    #[test]
    fn coldness_buckets_by_recency() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 10, SimTime::ZERO)
            .expect("fits");
        let now = SimTime::from_secs(600);
        // Touch 5 pages recently.
        for &p in &alloc.pages[..5] {
            mm.access(p, SimTime::from_secs(570)); // 30 s ago
        }
        let hist = mm.coldness(
            cg,
            now,
            &[SimDuration::from_mins(1), SimDuration::from_mins(5)],
        );
        assert!((hist[0] - 0.5).abs() < 1e-9, "recent {}", hist[0]);
        assert_eq!(hist[1], 0.0);
        // The other 5 (touched at t=0, ten minutes ago) are cold.
        assert!((hist.iter().sum::<f64>() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn legacy_policy_exhausts_file_before_swapping() {
        let mut mm = MemoryManager::new(MmConfig {
            policy: ReclaimPolicy::LegacyFileFirst,
            ..small_config(ssd_swap())
        });
        let cg = mm.create_cgroup("a", None);
        mm.alloc_pages(cg, PageKind::File, 40, SimTime::ZERO)
            .expect("fits");
        mm.alloc_pages(cg, PageKind::Anon, 40, SimTime::ZERO)
            .expect("fits");
        let out = mm.reclaim(cg, ByteSize::from_kib(4 * 20));
        assert_eq!(out.reclaimed_anon, PageCount::ZERO);
        assert_eq!(out.reclaimed_file, PageCount::new(20));
    }

    #[test]
    fn memory_low_protects_from_global_reclaim() {
        let mut mm = MemoryManager::new(small_config(None));
        let protected = mm.create_cgroup("protected", None);
        let victim = mm.create_cgroup("victim", None);
        mm.alloc_pages(protected, PageKind::File, 50, SimTime::ZERO)
            .expect("fits");
        mm.alloc_pages(victim, PageKind::File, 50, SimTime::ZERO)
            .expect("fits");
        mm.set_memory_low(protected, ByteSize::from_kib(4 * 60));
        assert!(mm.is_low_protected(protected));
        // Fill DRAM: direct reclaim must take from the victim only.
        mm.alloc_pages(victim, PageKind::Anon, 40, SimTime::ZERO)
            .expect("reclaim makes room");
        assert_eq!(
            mm.cgroup_stat(protected).file_resident,
            PageCount::new(50),
            "protected cgroup was reclaimed"
        );
        assert!(mm.cgroup_stat(victim).file_resident < PageCount::new(50));
    }

    #[test]
    fn memory_low_falls_back_when_nothing_else_reclaimable() {
        let mut mm = MemoryManager::new(small_config(None));
        let only = mm.create_cgroup("only", None);
        mm.alloc_pages(only, PageKind::File, 100, SimTime::ZERO)
            .expect("fits");
        mm.set_memory_low(only, ByteSize::from_mib(1)); // fully protected
                                                        // DRAM exhaustion with no unprotected victim: protection yields.
        let out = mm.alloc_pages(only, PageKind::Anon, 40, SimTime::ZERO);
        assert!(out.is_ok(), "protection must be best-effort: {out:?}");
    }

    #[test]
    fn explicit_reclaim_overrides_own_protection() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        mm.alloc_pages(cg, PageKind::File, 50, SimTime::ZERO)
            .expect("fits");
        mm.set_memory_low(cg, ByteSize::from_mib(10));
        // A direct memory.reclaim write on the cgroup itself still works.
        let out = mm.reclaim(cg, ByteSize::from_kib(4 * 10));
        assert_eq!(out.reclaimed_file, PageCount::new(10));
    }

    #[test]
    fn subtree_reclaim_skips_protected_children() {
        let mut mm = MemoryManager::new(small_config(None));
        let root = mm.create_cgroup("root", None);
        let shielded = mm.create_cgroup("shielded", Some(root));
        let open = mm.create_cgroup("open", Some(root));
        mm.alloc_pages(shielded, PageKind::File, 40, SimTime::ZERO)
            .expect("fits");
        mm.alloc_pages(open, PageKind::File, 40, SimTime::ZERO)
            .expect("fits");
        mm.set_memory_low(shielded, ByteSize::from_kib(4 * 50));
        mm.reclaim(root, ByteSize::from_kib(4 * 30));
        assert_eq!(mm.cgroup_stat(shielded).file_resident, PageCount::new(40));
        assert!(mm.cgroup_stat(open).file_resident <= PageCount::new(10));
    }

    #[test]
    #[should_panic(expected = "access to freed")]
    fn access_freed_page_panics() {
        let mut mm = MemoryManager::new(small_config(None));
        let cg = mm.create_cgroup("a", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 1, SimTime::ZERO)
            .expect("fits");
        mm.free_pages_of(&alloc.pages);
        mm.access(alloc.pages[0], SimTime::ZERO);
    }

    #[test]
    fn tick_decays_rates() {
        let mut mm = MemoryManager::new(small_config(ssd_swap()));
        let cg = mm.create_cgroup("a", None);
        mm.alloc_pages(cg, PageKind::Anon, 20, SimTime::ZERO)
            .expect("fits");
        mm.reclaim(cg, ByteSize::from_kib(4 * 10));
        mm.tick(SimDuration::from_secs(1));
        let rate = mm.cgroup_stat(cg).swapout_rate;
        assert!(rate > 0.0);
        for _ in 0..300 {
            mm.tick(SimDuration::from_secs(1));
        }
        assert!(mm.cgroup_stat(cg).swapout_rate < rate * 0.01);
    }

    /// Fills DRAM with `victim`'s file pages, then allocates for
    /// `offender` under the given trigger so direct reclaim evicts the
    /// victim. Returns the victim's evicted pages.
    fn evict_victim_via(
        mm: &mut MemoryManager,
        victim: CgroupId,
        offender: CgroupId,
        trigger: Option<CgroupId>,
    ) -> Vec<PageId> {
        let out = mm
            .alloc_pages(victim, PageKind::File, 120, SimTime::ZERO)
            .expect("fits");
        mm.set_reclaim_trigger(trigger);
        mm.alloc_pages(offender, PageKind::File, 40, SimTime::ZERO)
            .expect("reclaims to fit");
        mm.set_reclaim_trigger(None);
        out.pages
            .iter()
            .copied()
            .filter(|&p| !mm.page(p).is_resident())
            .collect()
    }

    #[test]
    fn provenance_charges_fault_stall_to_the_triggering_cgroup() {
        let mut mm = MemoryManager::new(small_config(None));
        let victim = mm.create_cgroup("victim", None);
        let offender = mm.create_cgroup("offender", None);
        mm.enable_provenance();
        let evicted = evict_victim_via(&mut mm, victim, offender, Some(offender));
        assert!(!evicted.is_empty(), "direct reclaim must evict the victim");
        // The victim pays the refault; the bill lands on the offender.
        mm.set_reclaim_trigger(Some(victim));
        let outcome = mm.access(evicted[0], SimTime::from_secs(1));
        assert!(matches!(outcome, AccessOutcome::Fault { .. }));
        mm.set_reclaim_trigger(None);
        let mut charges = Vec::new();
        mm.drain_provenance_charges(&mut charges);
        let cross = charges
            .iter()
            .find(|c| c.victim == victim && c.offender == offender)
            .expect("cross-cgroup charge recorded");
        assert!(cross.stall > SimDuration::ZERO);
        // Draining resets the accumulator.
        mm.drain_provenance_charges(&mut charges);
        assert!(charges.is_empty());
    }

    #[test]
    fn provenance_without_trigger_blames_the_page_owner() {
        let mut mm = MemoryManager::new(small_config(None));
        let victim = mm.create_cgroup("victim", None);
        let offender = mm.create_cgroup("offender", None);
        mm.enable_provenance();
        let evicted = evict_victim_via(&mut mm, victim, offender, None);
        mm.access(evicted[0], SimTime::from_secs(1));
        let mut charges = Vec::new();
        mm.drain_provenance_charges(&mut charges);
        assert!(
            charges
                .iter()
                .any(|c| c.victim == victim && c.offender == victim),
            "untriggered evictions self-attribute: {charges:?}"
        );
        assert!(
            !charges
                .iter()
                .any(|c| c.victim == victim && c.offender == offender),
            "the victim may not blame the offender without a trigger: {charges:?}"
        );
    }

    #[test]
    fn provenance_disabled_records_nothing() {
        let mut mm = MemoryManager::new(small_config(None));
        let victim = mm.create_cgroup("victim", None);
        let offender = mm.create_cgroup("offender", None);
        let evicted = evict_victim_via(&mut mm, victim, offender, Some(offender));
        mm.access(evicted[0], SimTime::from_secs(1));
        let mut charges = vec![ProvenanceCharge {
            victim,
            offender,
            stall: SimDuration::ZERO,
        }];
        mm.drain_provenance_charges(&mut charges);
        assert!(charges.is_empty(), "drain clears even when disabled");
    }

    #[test]
    fn provenance_does_not_survive_slot_reuse() {
        let mut mm = MemoryManager::new(small_config(None));
        let victim = mm.create_cgroup("victim", None);
        let offender = mm.create_cgroup("offender", None);
        mm.enable_provenance();
        let evicted = evict_victim_via(&mut mm, victim, offender, Some(offender));
        // Free the evicted pages without faulting them back: their
        // slots still carry offender provenance internally.
        mm.free_pages_of(&evicted);
        let mut charges = Vec::new();
        mm.drain_provenance_charges(&mut charges);
        charges.retain(|c| c.victim == victim && c.offender == offender);
        assert!(charges.is_empty(), "no fault, no charge: {charges:?}");
        // Reuse the slots for fresh offender pages, evict and refault
        // them with no trigger: the stale record must not resurface.
        let out = mm
            .alloc_pages(
                offender,
                PageKind::File,
                evicted.len() as u64,
                SimTime::ZERO,
            )
            .expect("fits");
        // Evict the offender's whole footprint (LRU order would
        // otherwise pick its older pages before the recycled slots).
        mm.reclaim(offender, ByteSize::from_kib(4 * 200));
        let gone: Vec<PageId> = out
            .pages
            .iter()
            .copied()
            .filter(|&p| !mm.page(p).is_resident())
            .collect();
        assert!(!gone.is_empty());
        mm.access(gone[0], SimTime::from_secs(2));
        mm.drain_provenance_charges(&mut charges);
        for c in &charges {
            assert_eq!(
                c.offender, offender,
                "recycled slot leaked stale provenance: {charges:?}"
            );
        }
    }

    #[test]
    fn provenance_self_charges_direct_reclaim_alloc_stall() {
        let mut mm = MemoryManager::new(small_config(None));
        let victim = mm.create_cgroup("victim", None);
        let offender = mm.create_cgroup("offender", None);
        mm.enable_provenance();
        evict_victim_via(&mut mm, victim, offender, Some(offender));
        let mut charges = Vec::new();
        mm.drain_provenance_charges(&mut charges);
        let own = charges
            .iter()
            .find(|c| c.victim == offender && c.offender == offender)
            .expect("allocator self-charges its direct-reclaim scan time");
        assert!(own.stall > SimDuration::ZERO);
    }
}
