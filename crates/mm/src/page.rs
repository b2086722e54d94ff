//! Page identities and the page state machine.

use std::fmt;

use tmo_sim::SimTime;

use crate::cgroup::CgroupId;

/// Identity of a simulated page, stable across offload and eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub(crate) u64);

impl PageId {
    /// Raw index value.
    pub fn as_u64(self) -> u64 {
        self.0
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
/// This is a by-value *view* decoded from the manager's packed
/// `PageMeta` slab; mutating it has no effect on the manager.
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

/// Packed per-page metadata: one 32-byte record in the manager's dense
/// page slab (`Vec<PageMeta>` indexed by `PageId`), replacing the wider
/// enum-based descriptor on the hot access path.
///
/// `state`/`tier`/`kind`/`referenced` pack into one flags byte; `token`
/// and `shadow` share the payload word (a page is never offloaded and
/// evicted at once); `gen` is the generation stamp backing the LRU
/// lists' lazy invalidation (see [`crate::lru::LruList`]).
#[derive(Debug, Clone)]
pub(crate) struct PageMeta {
    pub(crate) flags: u8,
    /// Generation stamp; an LRU entry for this page is live iff its
    /// recorded stamp equals this value. Bumped on every *logical*
    /// removal from a list (activation, free) so stale entries
    /// invalidate in O(1) without a sweep.
    pub(crate) gen: u32,
    /// Owning cgroup index ([`CgroupId`] narrowed to u32).
    owner: u32,
    /// `token` while offloaded, `shadow` while evicted, unused otherwise.
    payload: u64,
    /// Last access time, for idle/coldness tracking (Figure 2).
    pub(crate) last_access: SimTime,
}

impl PageMeta {
    /// A freshly allocated page: resident on the inactive list, not yet
    /// referenced. `gen` carries over from the slot's previous tenant
    /// (the manager preserves it across free/reuse so stale LRU entries
    /// for the old page can never validate against the new one).
    pub(crate) fn new(kind: PageKind, owner: CgroupId, now: SimTime, gen: u32) -> Self {
        let kind_flag = match kind {
            PageKind::Anon => 0,
            PageKind::File => FLAG_FILE,
        };
        PageMeta {
            flags: STATE_RESIDENT | FLAG_INACTIVE | kind_flag,
            gen,
            owner: u32::try_from(owner.0).expect("cgroup index exceeds u32"),
            payload: 0,
            last_access: now,
        }
    }

    pub(crate) fn kind(&self) -> PageKind {
        if self.flags & FLAG_FILE == 0 {
            PageKind::Anon
        } else {
            PageKind::File
        }
    }

    pub(crate) fn owner(&self) -> CgroupId {
        CgroupId(self.owner as usize)
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

    pub(crate) fn state(&self) -> PageState {
        match self.flags & STATE_MASK {
            STATE_RESIDENT => PageState::Resident { tier: self.tier() },
            STATE_OFFLOADED => PageState::Offloaded {
                token: self.payload,
            },
            STATE_EVICTED => PageState::EvictedFile {
                shadow: self.payload,
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

    pub(crate) fn set_offloaded(&mut self, token: u64) {
        self.flags = (self.flags & !(STATE_MASK | FLAG_INACTIVE)) | STATE_OFFLOADED;
        self.payload = token;
    }

    pub(crate) fn set_evicted(&mut self, shadow: u64) {
        self.flags = (self.flags & !(STATE_MASK | FLAG_INACTIVE)) | STATE_EVICTED;
        self.payload = shadow;
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

    /// Decodes the packed record into the public [`Page`] view.
    pub(crate) fn view(&self) -> Page {
        Page {
            kind: self.kind(),
            owner: self.owner(),
            state: self.state(),
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
        let p = PageMeta::new(PageKind::Anon, CgroupId(0), SimTime::ZERO, 0).view();
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
        let mut m = PageMeta::new(PageKind::File, CgroupId(3), SimTime::from_secs(1), 7);
        assert_eq!(m.kind(), PageKind::File);
        assert_eq!(m.owner(), CgroupId(3));
        assert_eq!(m.gen, 7);
        m.set_resident(LruTier::Active);
        assert_eq!(
            m.state(),
            PageState::Resident {
                tier: LruTier::Active
            }
        );
        m.set_referenced(true);
        assert!(m.referenced());
        m.set_offloaded(0xdead_beef);
        assert_eq!(m.state(), PageState::Offloaded { token: 0xdead_beef });
        assert!(!m.is_resident());
        // The reference bit is orthogonal to the state tag.
        assert!(m.referenced());
        m.set_referenced(false);
        m.set_evicted(41);
        assert_eq!(m.state(), PageState::EvictedFile { shadow: 41 });
        m.set_freed();
        assert!(m.is_freed());
        assert_eq!(m.state(), PageState::Freed);
        // Kind and owner survive every transition.
        assert_eq!(m.kind(), PageKind::File);
        assert_eq!(m.owner(), CgroupId(3));
    }

    #[test]
    fn meta_is_compact() {
        // The whole point of the packed layout: at most 32 bytes per
        // page, two records per cache line pair.
        assert!(std::mem::size_of::<PageMeta>() <= 32);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PageId(7).to_string(), "page#7");
        assert_eq!(PageKind::Anon.to_string(), "anon");
        assert_eq!(PageKind::File.to_string(), "file");
    }
}
