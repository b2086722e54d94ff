//! Container instantiation and per-tick workload execution state.

use std::collections::VecDeque;

use tmo_mm::{CgroupId, PageId};
use tmo_psi::PsiGroup;
use tmo_sim::{ByteSize, SeriesId, SimDuration};
use tmo_workload::{AccessPlanner, AppProfile, WebServerModel};

/// Identity of a container within one [`crate::Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub usize);

impl ContainerId {
    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "container#{}", self.0)
    }
}

/// Fraction of the anonymous budget allocated up front when
/// [`ContainerConfig::anon_growth`] is set; the rest arrives at that
/// rate.
pub(crate) const ANON_PRELOAD_FRACTION: f64 = 0.1;

/// Optional behaviours layered on a profile when adding a container.
#[derive(Debug, Clone, Default)]
pub struct ContainerConfig {
    /// Attach the Web RPS admission model.
    pub web: Option<tmo_workload::WebServerConfig>,
    /// Lazily grow anonymous memory at this rate after start (the Web
    /// memory profile of §4.2: file cache loads up front, anon arrives
    /// with traffic). Growth stops at the profile's anon budget; the
    /// first tenth of it is allocated up front.
    pub anon_growth: Option<ByteSize>,
    /// Mark as strict-SLA (protected from proactive reclaim).
    pub protected: bool,
    /// `memory.low` kernel protection for the container's cgroup.
    pub memory_low: Option<ByteSize>,
    /// Parent slice cgroup to attach under (root when `None`).
    pub slice: Option<tmo_mm::CgroupId>,
    /// Mark as relaxed-SLA (memory tax; tolerate higher pressure).
    pub relaxed: bool,
}

/// Book-keeping for one tick of container execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickStats {
    /// Page touches executed.
    pub accesses: u64,
    /// Major faults (all kinds).
    pub faults: u64,
    /// Swap-ins among the faults.
    pub swapins: u64,
    /// Workingset refaults among the faults.
    pub refaults: u64,
    /// Total stall time across tasks.
    pub stall: SimDuration,
    /// Memory-PSI-qualifying stall.
    pub mem_stall: SimDuration,
    /// IO-PSI-qualifying stall.
    pub io_stall: SimDuration,
    /// CPU time the tick's work demanded.
    pub cpu_demand: SimDuration,
    /// Runnable-but-waiting time from CPU oversubscription.
    pub cpu_stall: SimDuration,
    /// Whether an allocation failed this tick (memory-bound signal).
    pub alloc_failed: bool,
}

/// One running container: profile + pages + PSI domain + optional web
/// model.
#[derive(Debug)]
pub struct Container {
    pub(crate) cg: CgroupId,
    pub(crate) profile: AppProfile,
    pub(crate) planner: AccessPlanner,
    /// Pages per temperature class (anon and file interleaved in the
    /// profile's proportion).
    pub(crate) class_pages: Vec<Vec<PageId>>,
    pub(crate) psi: PsiGroup,
    pub(crate) web: Option<WebServerModel>,
    /// Remaining anonymous pages to allocate lazily and the rate.
    pub(crate) growth_remaining_pages: u64,
    pub(crate) growth_pages_per_sec: f64,
    /// Each temperature class's page fraction, the weights growth
    /// spreads new pages by; empty when the container never grows.
    pub(crate) growth_weights: Vec<f64>,
    /// Fractional page carry between ticks for the growth model.
    pub(crate) growth_carry: f64,
    pub(crate) protected: bool,
    pub(crate) relaxed: bool,
    /// Swap-exhaustion flag from the last reclaim on this container.
    pub(crate) swap_full_seen: bool,
    /// False once the container has been killed.
    pub(crate) alive: bool,
    /// Fractional churn carry between ticks.
    pub(crate) churn_carry: f64,
    /// Write-once never-read file pages created by the churn, oldest
    /// first. The evicted ones always form a prefix (see step 1b of
    /// `Machine::run_container_tick`).
    pub(crate) churn_pages: VecDeque<PageId>,
    /// Anonymous pages leaked by a scenario modulator: allocated, never
    /// touched again, released only when the container is killed.
    pub(crate) leak_pages: Vec<PageId>,
    /// Fractional leak carry between ticks.
    pub(crate) leak_carry: f64,
    /// Initial resident footprint (pages), the savings baseline.
    pub(crate) initial_resident_pages: u64,
    /// Stats of the most recent tick.
    pub(crate) last_tick: TickStats,
    /// Cached recorder handles for this container's per-tick series,
    /// resolved (and the names formatted) once on the first recorded
    /// tick instead of on every tick.
    pub(crate) series: Option<ContainerSeriesIds>,
    /// Cached recorder handles for this container's event series.
    pub(crate) events: EventSeriesIds,
}

/// Recorder handles for one container's per-tick metric series.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContainerSeriesIds {
    pub(crate) resident_mib: SeriesId,
    pub(crate) swap_mib: SeriesId,
    pub(crate) file_cache_mib: SeriesId,
    pub(crate) psi_mem_some10: SeriesId,
    pub(crate) psi_io_some10: SeriesId,
    pub(crate) psi_cpu_some10: SeriesId,
    pub(crate) promotion_rate: SeriesId,
    pub(crate) refault_rate: SeriesId,
    pub(crate) swapout_rate_mbps: SeriesId,
    /// Only web containers record `{name}.rps`.
    pub(crate) rps: Option<SeriesId>,
}

/// Recorder handles for one container's event series. Each is resolved
/// on the container's first such event, so a series exists only once
/// its event has happened, and a reclaim before the first tick creates
/// no empty per-tick series.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EventSeriesIds {
    /// `{name}.reclaim_mib`: bytes asked of each `memory.reclaim` write.
    pub(crate) reclaim_mib: Option<SeriesId>,
    /// `{name}.reclaimed_pages`: pages each write actually reclaimed.
    pub(crate) reclaimed_pages: Option<SeriesId>,
    /// `{name}.killed`: one sample per kill.
    pub(crate) killed: Option<SeriesId>,
    /// `{name}.restarted`: one sample per restart.
    pub(crate) restarted: Option<SeriesId>,
}

impl Container {
    /// Container name (from the profile).
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// The backing cgroup.
    pub fn cgroup(&self) -> CgroupId {
        self.cg
    }

    /// The workload profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// This container's PSI domain.
    pub fn psi(&self) -> &PsiGroup {
        &self.psi
    }

    /// The web model, when attached.
    pub fn web(&self) -> Option<&WebServerModel> {
        self.web.as_ref()
    }

    /// Stats of the most recent tick.
    pub fn last_tick(&self) -> TickStats {
        self.last_tick
    }

    /// Whether the container is still running (not killed).
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_id_display() {
        assert_eq!(ContainerId(3).to_string(), "container#3");
        assert_eq!(ContainerId(3).as_usize(), 3);
    }

    #[test]
    fn default_config_is_plain() {
        let c = ContainerConfig::default();
        assert!(c.web.is_none());
        assert!(c.anon_growth.is_none());
        assert!(!c.protected);
        assert!(!c.relaxed);
    }
}
