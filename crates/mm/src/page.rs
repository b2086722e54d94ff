//! Page identities and the page state machine.

use std::fmt;

use tmo_sim::SimTime;

use crate::cgroup::CgroupId;

/// Identity of a simulated page, stable across offload and eviction:
/// its slot in the manager's page slab, held in 32 bits so id vectors
/// and LRU entries stay half the size of a `u64` index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub(crate) u32);

impl PageId {
    /// Raw index value.
    pub fn as_u64(self) -> u64 {
        u64::from(self.0)
    }

    /// The id of page-slab slot `slot`: the one way a slot becomes an id.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds `u32::MAX`; a slab holds at most 2^32
    /// pages.
    pub(crate) fn from_slot(slot: usize) -> PageId {
        match u32::try_from(slot) {
            Ok(raw) => PageId(raw),
            Err(_) => panic!("page slab overflow: slot {slot} exceeds the u32 page-id space"),
        }
    }

    /// The page-slab slot this id names.
    pub(crate) fn slot(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Anonymous vs file-backed memory (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Application-allocated memory not backed by a file; offloadable
    /// only via swap / zswap.
    Anon,
    /// Page-cache memory backed by a file; reclaimable by dropping (a
    /// later access re-reads from the filesystem).
    File,
}

impl PageKind {
    /// Both kinds, anon first.
    pub const ALL: [PageKind; 2] = [PageKind::Anon, PageKind::File];
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PageKind::Anon => "anon",
            PageKind::File => "file",
        })
    }
}

/// Which LRU list a resident page is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LruTier {
    /// Recently / frequently used.
    Active,
    /// Reclaim candidates.
    Inactive,
}

/// Where a page's contents currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// In DRAM, on the LRU list of its kind at `tier`.
    Resident {
        /// The LRU tier the page is on.
        tier: LruTier,
    },
    /// Anonymous page offloaded to the swap backend under `token`.
    Offloaded {
        /// The backend's handle for the stored page.
        token: u64,
    },
    /// File page dropped from cache; `shadow` is the cgroup eviction
    /// counter at eviction time (the non-resident shadow entry of §3.4).
    EvictedFile {
        /// Eviction-counter snapshot for reuse-distance computation.
        shadow: u64,
    },
    /// Page has been freed; terminal state.
    Freed,
}

/// One simulated page, as seen through [`crate::MemoryManager::page`].
///
/// This is a by-value *view* decoded from the manager's hot `PageMeta`
/// and cold `ColdMeta` records; mutating it has no effect on the
/// manager.
#[derive(Debug, Clone)]
pub struct Page {
    pub(crate) kind: PageKind,
    pub(crate) owner: CgroupId,
    pub(crate) state: PageState,
    /// Second-chance reference bit (`PG_referenced`).
    pub(crate) referenced: bool,
    /// Last access time, for idle/coldness tracking (Figure 2).
    pub(crate) last_access: SimTime,
}

impl Page {
    /// The page's kind.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// The owning cgroup.
    pub fn owner(&self) -> CgroupId {
        self.owner
    }

    /// Current state.
    pub fn state(&self) -> PageState {
        self.state
    }

    /// Whether the page is resident in DRAM.
    pub fn is_resident(&self) -> bool {
        matches!(self.state, PageState::Resident { .. })
    }

    /// Second-chance reference bit.
    pub fn referenced(&self) -> bool {
        self.referenced
    }

    /// Time of the last access.
    pub fn last_access(&self) -> SimTime {
        self.last_access
    }
}

// PageMeta flag layout. The state tag lives in the low two bits so the
// access fast path can test "resident and no LRU move needed" with one
// mask against a single byte.
const STATE_MASK: u8 = 0b0011;
const STATE_RESIDENT: u8 = 0b0000;
const STATE_OFFLOADED: u8 = 0b0001;
const STATE_EVICTED: u8 = 0b0010;
const STATE_FREED: u8 = 0b0011;
pub(crate) const FLAG_INACTIVE: u8 = 1 << 2;
const FLAG_FILE: u8 = 1 << 3;
pub(crate) const FLAG_REFERENCED: u8 = 1 << 4;

/// Hot per-page metadata: one 16-byte record in the manager's dense
/// page slab (`Vec<PageMeta>` indexed by `PageId` slot), holding all
/// the resident access fast path and the LRU scans read.
///
/// `state`/`tier`/`kind`/`referenced` pack into one flags byte; `gen`
/// is the generation stamp backing the LRU lists' lazy invalidation
/// (see [`crate::lru::LruList`]). The owner and the offload token or
/// eviction shadow live in the page's [`ColdMeta`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PageMeta {
    /// Last access time, for idle/coldness tracking (Figure 2).
    pub(crate) last_access: SimTime,
    /// Generation stamp; an LRU entry for this page is live iff its
    /// recorded stamp equals this value. Bumped on every *logical*
    /// removal from a list (activation, free) so stale entries
    /// invalidate in O(1) without a sweep.
    pub(crate) gen: u32,
    pub(crate) flags: u8,
}

/// Cold per-page metadata, in a side array parallel to the hot slab:
/// read only off the resident fast path, on activations, faults,
/// frees, evictions, [`Page`] views and coldness scans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdMeta {
    /// Owning cgroup index ([`CgroupId`] narrowed to u32).
    owner: u32,
    /// `token` while offloaded, `shadow` while evicted, unused otherwise.
    payload: u64,
}

impl ColdMeta {
    /// A freshly allocated page's cold record.
    pub(crate) fn new(owner: CgroupId) -> Self {
        ColdMeta {
            owner: u32::try_from(owner.0).expect("cgroup index exceeds u32"),
            payload: 0,
        }
    }

    pub(crate) fn owner(&self) -> CgroupId {
        CgroupId(self.owner as usize)
    }
}

impl PageMeta {
    /// A freshly allocated page: resident on the inactive list, not yet
    /// referenced. `gen` carries over from the slot's previous tenant
    /// (the manager preserves it across free/reuse so stale LRU entries
    /// for the old page can never validate against the new one).
    pub(crate) fn new(kind: PageKind, now: SimTime, gen: u32) -> Self {
        let kind_flag = match kind {
            PageKind::Anon => 0,
            PageKind::File => FLAG_FILE,
        };
        PageMeta {
            last_access: now,
            gen,
            flags: STATE_RESIDENT | FLAG_INACTIVE | kind_flag,
        }
    }

    pub(crate) fn kind(&self) -> PageKind {
        if self.flags & FLAG_FILE == 0 {
            PageKind::Anon
        } else {
            PageKind::File
        }
    }

    pub(crate) fn is_resident(&self) -> bool {
        self.flags & STATE_MASK == STATE_RESIDENT
    }

    pub(crate) fn is_freed(&self) -> bool {
        self.flags & STATE_MASK == STATE_FREED
    }

    pub(crate) fn tier(&self) -> LruTier {
        debug_assert!(self.is_resident());
        if self.flags & FLAG_INACTIVE == 0 {
            LruTier::Active
        } else {
            LruTier::Inactive
        }
    }

    pub(crate) fn referenced(&self) -> bool {
        self.flags & FLAG_REFERENCED != 0
    }

    /// The page's state; `cold` supplies the offload token or eviction
    /// shadow.
    pub(crate) fn state(&self, cold: &ColdMeta) -> PageState {
        match self.flags & STATE_MASK {
            STATE_RESIDENT => PageState::Resident { tier: self.tier() },
            STATE_OFFLOADED => PageState::Offloaded {
                token: cold.payload,
            },
            STATE_EVICTED => PageState::EvictedFile {
                shadow: cold.payload,
            },
            _ => PageState::Freed,
        }
    }

    pub(crate) fn set_resident(&mut self, tier: LruTier) {
        let tier_flag = match tier {
            LruTier::Active => 0,
            LruTier::Inactive => FLAG_INACTIVE,
        };
        self.flags = (self.flags & !(STATE_MASK | FLAG_INACTIVE)) | STATE_RESIDENT | tier_flag;
    }

    pub(crate) fn set_offloaded(&mut self, cold: &mut ColdMeta, token: u64) {
        self.flags = (self.flags & !(STATE_MASK | FLAG_INACTIVE)) | STATE_OFFLOADED;
        cold.payload = token;
    }

    pub(crate) fn set_evicted(&mut self, cold: &mut ColdMeta, shadow: u64) {
        self.flags = (self.flags & !(STATE_MASK | FLAG_INACTIVE)) | STATE_EVICTED;
        cold.payload = shadow;
    }

    pub(crate) fn set_freed(&mut self) {
        self.flags = (self.flags & !(STATE_MASK | FLAG_INACTIVE)) | STATE_FREED;
    }

    pub(crate) fn set_referenced(&mut self, referenced: bool) {
        if referenced {
            self.flags |= FLAG_REFERENCED;
        } else {
            self.flags &= !FLAG_REFERENCED;
        }
    }

    /// Decodes the hot and cold records into the public [`Page`] view.
    pub(crate) fn view(&self, cold: &ColdMeta) -> Page {
        Page {
            kind: self.kind(),
            owner: cold.owner(),
            state: self.state(cold),
            referenced: self.referenced(),
            last_access: self.last_access,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_pages_start_inactive_resident() {
        let p = PageMeta::new(PageKind::Anon, SimTime::ZERO, 0).view(&ColdMeta::new(CgroupId(0)));
        assert_eq!(
            p.state(),
            PageState::Resident {
                tier: LruTier::Inactive
            }
        );
        assert!(p.is_resident());
        assert!(!p.referenced);
    }

    #[test]
    fn meta_round_trips_every_state() {
        let mut m = PageMeta::new(PageKind::File, SimTime::from_secs(1), 7);
        let mut cold = ColdMeta::new(CgroupId(3));
        assert_eq!(m.kind(), PageKind::File);
        assert_eq!(cold.owner(), CgroupId(3));
        assert_eq!(m.gen, 7);
        m.set_resident(LruTier::Active);
        assert_eq!(
            m.state(&cold),
            PageState::Resident {
                tier: LruTier::Active
            }
        );
        m.set_referenced(true);
        assert!(m.referenced());
        m.set_offloaded(&mut cold, 0xdead_beef);
        assert_eq!(m.state(&cold), PageState::Offloaded { token: 0xdead_beef });
        assert!(!m.is_resident());
        // The reference bit is orthogonal to the state tag.
        assert!(m.referenced());
        m.set_referenced(false);
        m.set_evicted(&mut cold, 41);
        assert_eq!(m.state(&cold), PageState::EvictedFile { shadow: 41 });
        m.set_freed();
        assert!(m.is_freed());
        assert_eq!(m.state(&cold), PageState::Freed);
        // Kind and owner survive every transition.
        assert_eq!(m.kind(), PageKind::File);
        assert_eq!(cold.owner(), CgroupId(3));
    }

    #[test]
    fn layouts_are_pinned() {
        // What one page access touches: a 16-byte hot record, a 4-byte
        // id in the sampled id vectors, and an 8-byte LRU entry.
        assert_eq!(std::mem::size_of::<PageMeta>(), 16);
        assert_eq!(std::mem::size_of::<PageId>(), 4);
        assert_eq!(std::mem::size_of::<(PageId, u32)>(), 8);
    }

    #[test]
    fn slot_ids_span_the_u32_space() {
        assert_eq!(PageId::from_slot(0), PageId(0));
        let last = PageId::from_slot(u32::MAX as usize);
        assert_eq!(last.as_u64(), u64::from(u32::MAX));
        assert_eq!(last.slot(), u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "page slab overflow: slot 4294967296 exceeds the u32 page-id space")]
    fn slot_past_u32_max_panics() {
        PageId::from_slot(u32::MAX as usize + 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PageId(7).to_string(), "page#7");
        assert_eq!(PageKind::Anon.to_string(), "anon");
        assert_eq!(PageKind::File.to_string(), "file");
    }
}
