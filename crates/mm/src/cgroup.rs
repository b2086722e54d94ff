//! The container (cgroup) hierarchy.
//!
//! Memory in a TMO machine is distributed across a tree of cgroups —
//! workload containers, sidecar containers providing the datacenter and
//! microservice memory tax (§2.3), and intermediate slices. Each cgroup
//! carries its own LRU lists, workingset clock, rate counters, limit,
//! and reclaim priority; usage rolls up the tree so `memory.max` on an
//! inner node constrains its whole subtree.

use tmo_sim::{ByteSize, PageCount, RateCounter, SimDuration};

use crate::lru::Lrus;
use crate::workingset::EvictionClock;

/// Identity of a cgroup within one [`crate::MemoryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CgroupId(pub(crate) usize);

impl CgroupId {
    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for CgroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cgroup#{}", self.0)
    }
}

/// How aggressively Senpai may reclaim from a container.
///
/// The paper's first deployment targeted the memory tax because its
/// performance SLA is more relaxed than the workloads' (§2.3, §5.1);
/// priorities let a controller encode that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum ReclaimPriority {
    /// Infrastructure / tax containers: relaxed SLA, reclaim first.
    Relaxed,
    /// Ordinary workloads.
    #[default]
    Normal,
    /// Latency-critical containers: protect; reclaim only under its own
    /// pressure signal, never proactively beyond the threshold.
    Strict,
}

/// EWMA window for refault / swap-in rates used by reclaim balancing.
const RATE_WINDOW: SimDuration = SimDuration::from_secs(30);

/// One container in the hierarchy.
#[derive(Debug, Clone)]
pub struct Cgroup {
    pub(crate) name: String,
    pub(crate) parent: Option<CgroupId>,
    pub(crate) children: Vec<CgroupId>,
    /// LRU lists for this cgroup's resident pages.
    pub(crate) lrus: Lrus,
    /// Local resident counts (pages).
    pub(crate) anon_resident: PageCount,
    pub(crate) file_resident: PageCount,
    /// Pages offloaded to the swap backend.
    pub(crate) anon_offloaded: PageCount,
    /// File pages currently evicted with shadow entries.
    pub(crate) file_evicted: PageCount,
    /// Resident pages of this node plus all descendants.
    pub(crate) subtree_resident: PageCount,
    /// `memory.max`: subtree byte limit, if set.
    pub(crate) memory_max: Option<ByteSize>,
    /// `memory.low`: best-effort protection — reclaim avoids this
    /// subtree while its usage is below the value.
    pub(crate) memory_low: ByteSize,
    /// Eviction clock backing shadow entries.
    pub(crate) evictions: EvictionClock,
    /// Workingset refault rate (drives reclaim balancing and IO health).
    pub(crate) refault_rate: RateCounter,
    /// Swap-in rate (the "promotion rate" of §4.3).
    pub(crate) swapin_rate: RateCounter,
    /// Swap-out rate (drives §4.5 write regulation reporting).
    pub(crate) swapout_rate: RateCounter,
    /// Swap-ins whose page the backend had lost (device death); the
    /// page was re-established zero-filled instead of panicking.
    pub(crate) lost_loads: u64,
    /// Mean compression ratio of this container's anonymous memory.
    pub(crate) compress_ratio: f64,
    /// Reclaim priority for controllers.
    pub(crate) priority: ReclaimPriority,
}

impl Cgroup {
    pub(crate) fn new(name: impl Into<String>, parent: Option<CgroupId>) -> Self {
        Cgroup {
            name: name.into(),
            parent,
            children: Vec::new(),
            lrus: Lrus::new(),
            anon_resident: PageCount::ZERO,
            file_resident: PageCount::ZERO,
            anon_offloaded: PageCount::ZERO,
            file_evicted: PageCount::ZERO,
            subtree_resident: PageCount::ZERO,
            memory_max: None,
            memory_low: ByteSize::ZERO,
            evictions: EvictionClock::new(),
            refault_rate: RateCounter::new(RATE_WINDOW),
            swapin_rate: RateCounter::new(RATE_WINDOW),
            swapout_rate: RateCounter::new(RATE_WINDOW),
            lost_loads: 0,
            compress_ratio: 3.0,
            priority: ReclaimPriority::Normal,
        }
    }

    /// Container name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parent cgroup, `None` for roots.
    pub fn parent(&self) -> Option<CgroupId> {
        self.parent
    }

    /// Child cgroups.
    pub fn children(&self) -> &[CgroupId] {
        &self.children
    }

    /// Locally resident pages (anon + file).
    pub fn resident_pages(&self) -> PageCount {
        self.anon_resident + self.file_resident
    }

    /// The container's reclaim priority.
    pub fn priority(&self) -> ReclaimPriority {
        self.priority
    }

    /// Read access to the cgroup's LRU lists (for stats snapshots and
    /// invariant tests; mutation stays inside the crate).
    pub fn lrus(&self) -> &Lrus {
        &self.lrus
    }

    /// Mean anonymous-memory compression ratio.
    pub fn compress_ratio(&self) -> f64 {
        self.compress_ratio
    }

    pub(crate) fn tick_rates(&mut self, dt: SimDuration) {
        self.refault_rate.tick(dt);
        self.swapin_rate.tick(dt);
        self.swapout_rate.tick(dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_cgroup_is_empty() {
        let cg = Cgroup::new("web", None);
        assert_eq!(cg.name(), "web");
        assert_eq!(cg.resident_pages(), PageCount::ZERO);
        assert_eq!(cg.priority(), ReclaimPriority::Normal);
        assert!(cg.parent().is_none());
        assert!(cg.children().is_empty());
    }

    #[test]
    fn priority_ordering_matches_protection() {
        assert!(ReclaimPriority::Relaxed < ReclaimPriority::Normal);
        assert!(ReclaimPriority::Normal < ReclaimPriority::Strict);
    }

    #[test]
    fn tick_rates_decays_all_counters() {
        let mut cg = Cgroup::new("x", None);
        cg.refault_rate.add(100);
        cg.swapin_rate.add(50);
        cg.swapout_rate.add(25);
        cg.tick_rates(SimDuration::from_secs(1));
        assert!(cg.refault_rate.rate() > cg.swapin_rate.rate());
        assert!(cg.swapin_rate.rate() > cg.swapout_rate.rate());
    }
}
