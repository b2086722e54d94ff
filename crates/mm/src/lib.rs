//! Kernel memory-management substrate for the TMO reproduction.
//!
//! The TMO paper's "what memory to offload" half (§3.4) lives in the
//! Linux kernel: per-cgroup active/inactive LRU lists for anonymous and
//! file-backed pages, non-resident shadow entries for refault detection,
//! and a reclaim algorithm that — as modified by the TMO authors —
//! balances file-cache eviction against swapping by comparing the file
//! *refault* rate with the anonymous *swap-in* rate. This crate
//! implements that machinery as a page-granular simulator:
//!
//! * [`page`] — page identities, kinds, and the resident / offloaded /
//!   evicted state machine.
//! * [`lru`] — second-chance active/inactive LRU lists with lazy
//!   compaction, mirroring `mark_page_accessed` semantics.
//! * [`cgroup`] — the container hierarchy with per-cgroup accounting,
//!   `memory.max` limits, and subtree usage rollups.
//! * [`workingset`] — eviction counters, shadow entries, reuse-distance
//!   refault classification, and decaying rate counters.
//! * [`reclaim`] — the legacy file-skewed policy and TMO's
//!   refault-balanced policy.
//! * [`manager`] — [`MemoryManager`], tying pages, cgroups, reclaim, and
//!   the offload backends together behind the same contract the real
//!   kernel exposes to Senpai (`memory.current`, `memory.reclaim`,
//!   pressure-relevant stall results).
//!
//! # Example
//!
//! ```
//! use tmo_mm::{MemoryManager, MmConfig, PageKind};
//! use tmo_sim::{ByteSize, SimTime};
//!
//! let mut mm = MemoryManager::new(MmConfig::default());
//! let cg = mm.create_cgroup("web", None);
//! let alloc = mm
//!     .alloc_pages(cg, PageKind::Anon, 64, SimTime::ZERO)
//!     .expect("fits in DRAM");
//! assert_eq!(alloc.pages.len(), 64);
//! assert_eq!(mm.cgroup_stat(cg).anon_resident.as_u64(), 64);
//! ```

pub mod cgroup;
pub mod lru;
pub mod manager;
pub mod page;
pub mod reclaim;
pub mod render;
pub mod stats;
pub mod workingset;

pub use cgroup::{CgroupId, ReclaimPriority};
pub use manager::{MemoryManager, MmConfig, MmScratch, ProvenanceCharge};
pub use page::{LruTier, PageId, PageKind};
pub use reclaim::ReclaimPolicy;
pub use stats::{
    AccessOutcome, BatchAccessStats, CgroupStat, FaultKind, GlobalStat, ReclaimOutcome,
};
pub use workingset::RateCounter;
