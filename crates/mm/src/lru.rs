//! Active/inactive LRU lists with generation-stamped lazy invalidation.
//!
//! The kernel maintains, per cgroup, a pair of LRU lists for each of
//! anonymous and file-backed pages. We store `(page, generation)` pairs
//! in `VecDeque`s and tolerate *stale* entries: when a page logically
//! moves between lists (or is freed) the manager bumps the page's
//! generation stamp, which invalidates the old entry in O(1) — scans
//! simply skip entries whose recorded stamp no longer matches the
//! page's current one. Because a bump precedes every re-insertion, a
//! page has at most one matching entry across all lists, so the live
//! count can never drift from the physically matching entries (the
//! historical `forget_one`/`maybe_compact` duplicate-counting bug).
//! Lists compact themselves when stale entries dominate.

use std::collections::VecDeque;

use crate::page::{LruTier, PageId, PageKind};

/// One LRU list. The head (front) holds the most recently inserted
/// pages; reclaim scans pop from the tail (back).
#[derive(Debug, Clone, Default)]
pub struct LruList {
    deque: VecDeque<(PageId, u32)>,
    /// Number of entries that are logically live (the rest are stale).
    live: u64,
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList::default()
    }

    /// Logical (live) length.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Pushes a page at the head with its current generation stamp and
    /// counts it live. The caller must have bumped the page's generation
    /// beforehand if an older entry for it may still be present.
    pub fn push(&mut self, page: PageId, gen: u32) {
        self.deque.push_front((page, gen));
        self.live += 1;
    }

    /// Marks one live entry as logically removed (the physical entry is
    /// skipped later once its generation stamp mismatches).
    pub fn forget_one(&mut self) {
        debug_assert!(self.live > 0, "forgetting from an empty list");
        self.live = self.live.saturating_sub(1);
    }

    /// Pops entries from the tail until one's stamp matches the page's
    /// current generation per `gen_of`, discarding stale entries on the
    /// way. Returns `None` when the list is physically exhausted.
    /// Decrements the live count for the returned entry; the caller
    /// re-`push`es the page (possibly to another list) if it survives.
    pub fn pop_valid(&mut self, mut gen_of: impl FnMut(PageId) -> u32) -> Option<PageId> {
        while let Some((page, stamp)) = self.deque.pop_back() {
            if gen_of(page) == stamp {
                self.live = self.live.saturating_sub(1);
                return Some(page);
            }
            // Stale entry: drop it silently.
        }
        debug_assert_eq!(self.live, 0, "live entries but deque exhausted");
        None
    }

    /// Empties the list, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.deque.clear();
        self.live = 0;
    }

    /// Physical length including stale entries (for compaction
    /// heuristics and tests).
    pub fn physical_len(&self) -> usize {
        self.deque.len()
    }

    /// Drops stale entries when they dominate, preserving order of the
    /// live ones. Because generation stamps identify liveness exactly
    /// (at most one matching entry per page exists), compaction recounts
    /// `len()` without any risk of double-counting a page.
    pub fn maybe_compact(&mut self, mut gen_of: impl FnMut(PageId) -> u32) {
        if self.deque.len() < 64 || (self.deque.len() as u64) < self.live * 2 {
            return;
        }
        self.deque.retain(|&(p, stamp)| gen_of(p) == stamp);
        debug_assert_eq!(self.deque.len() as u64, self.live, "live count drifted");
        self.live = self.deque.len() as u64;
    }
}

/// The four LRU lists of one cgroup.
#[derive(Debug, Clone, Default)]
pub struct Lrus {
    anon_active: LruList,
    anon_inactive: LruList,
    file_active: LruList,
    file_inactive: LruList,
}

impl Lrus {
    /// Creates four empty lists.
    pub fn new() -> Self {
        Lrus::default()
    }

    /// The list for `(kind, tier)`.
    pub fn list(&self, kind: PageKind, tier: LruTier) -> &LruList {
        match (kind, tier) {
            (PageKind::Anon, LruTier::Active) => &self.anon_active,
            (PageKind::Anon, LruTier::Inactive) => &self.anon_inactive,
            (PageKind::File, LruTier::Active) => &self.file_active,
            (PageKind::File, LruTier::Inactive) => &self.file_inactive,
        }
    }

    /// Mutable access to the list for `(kind, tier)`.
    pub fn list_mut(&mut self, kind: PageKind, tier: LruTier) -> &mut LruList {
        match (kind, tier) {
            (PageKind::Anon, LruTier::Active) => &mut self.anon_active,
            (PageKind::Anon, LruTier::Inactive) => &mut self.anon_inactive,
            (PageKind::File, LruTier::Active) => &mut self.file_active,
            (PageKind::File, LruTier::Inactive) => &mut self.file_inactive,
        }
    }

    /// Empties all four lists, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.anon_active.clear();
        self.anon_inactive.clear();
        self.file_active.clear();
        self.file_inactive.clear();
    }

    /// Live pages of `kind` across both tiers.
    pub fn kind_len(&self, kind: PageKind) -> u64 {
        self.list(kind, LruTier::Active).len() + self.list(kind, LruTier::Inactive).len()
    }

    /// Whether the inactive list of `kind` is low relative to active
    /// (the kernel's `inactive_is_low` heuristic, ratio 1:1 for our page
    /// counts).
    pub fn inactive_is_low(&self, kind: PageKind) -> bool {
        self.list(kind, LruTier::Inactive).len() < self.list(kind, LruTier::Active).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId(n)
    }

    #[test]
    fn push_pop_is_fifo_from_tail() {
        let mut l = LruList::new();
        l.push(pid(1), 0);
        l.push(pid(2), 0);
        l.push(pid(3), 0);
        assert_eq!(l.pop_valid(|_| 0), Some(pid(1)));
        assert_eq!(l.pop_valid(|_| 0), Some(pid(2)));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn pop_skips_stale_entries() {
        let mut l = LruList::new();
        l.push(pid(1), 0);
        l.push(pid(2), 0);
        l.forget_one(); // pid(1) logically moved away (its gen bumped)
        let gen_of = |p: PageId| if p == pid(1) { 1 } else { 0 };
        assert_eq!(l.pop_valid(gen_of), Some(pid(2)));
        assert_eq!(l.pop_valid(gen_of), None);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn pop_on_empty_returns_none() {
        let mut l = LruList::new();
        assert_eq!(l.pop_valid(|_| 0), None);
    }

    #[test]
    fn compaction_removes_stale() {
        let mut l = LruList::new();
        for i in 0..100 {
            l.push(pid(i), 0);
        }
        // Invalidate the 80 low entries (their pages' gens moved on).
        for _ in 0..80 {
            l.forget_one();
        }
        l.maybe_compact(|p| if p.as_u64() >= 80 { 0 } else { 1 });
        assert_eq!(l.physical_len(), 20);
        assert_eq!(l.len(), 20);
    }

    #[test]
    fn small_lists_do_not_compact() {
        let mut l = LruList::new();
        for i in 0..10 {
            l.push(pid(i), 0);
        }
        for _ in 0..9 {
            l.forget_one();
        }
        l.maybe_compact(|_| 1);
        assert_eq!(l.physical_len(), 10); // untouched below threshold
    }

    #[test]
    fn stamps_distinguish_reinsertions_of_the_same_page() {
        // The drift regression: a page re-pushed after a forget used to
        // leave two entries that both validated, inflating the live
        // count at compaction. With stamps, only the newest matches.
        let mut l = LruList::new();
        for i in 0..70 {
            l.push(pid(i), 0);
        }
        // Page 0 logically leaves (activation: gen 0 -> 1) and comes
        // back (demotion re-push with the new stamp).
        l.forget_one();
        l.push(pid(0), 1);
        assert_eq!(l.len(), 70);
        assert_eq!(l.physical_len(), 71);
        // Invalidate everything except page 0 to force a compaction.
        for _ in 0..69 {
            l.forget_one();
        }
        let gen_of = |p: PageId| if p == pid(0) { 1u32 } else { 99 };
        l.maybe_compact(gen_of);
        assert_eq!(l.len(), 1, "only the stamped-current entry survives");
        assert_eq!(l.physical_len(), 1);
        assert_eq!(l.pop_valid(gen_of), Some(pid(0)));
    }

    #[test]
    fn lrus_kind_len_sums_tiers() {
        let mut ls = Lrus::new();
        ls.list_mut(PageKind::File, LruTier::Active).push(pid(1), 0);
        ls.list_mut(PageKind::File, LruTier::Inactive)
            .push(pid(2), 0);
        ls.list_mut(PageKind::Anon, LruTier::Inactive)
            .push(pid(3), 0);
        assert_eq!(ls.kind_len(PageKind::File), 2);
        assert_eq!(ls.kind_len(PageKind::Anon), 1);
    }

    #[test]
    fn inactive_is_low_tracks_balance() {
        let mut ls = Lrus::new();
        ls.list_mut(PageKind::Anon, LruTier::Active).push(pid(1), 0);
        assert!(ls.inactive_is_low(PageKind::Anon));
        ls.list_mut(PageKind::Anon, LruTier::Inactive)
            .push(pid(2), 0);
        assert!(!ls.inactive_is_low(PageKind::Anon));
    }
}
