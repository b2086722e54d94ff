//! Generation-tagged slot map for backend page tables.
//!
//! Every offload backend hands out a `u64` token per stored page and
//! later looks it up exactly once (`load`) or drops it (`discard`). Like
//! the kernel's swap map, the table reuses the slots of pages that have
//! left, so its size tracks the peak number of pages stored at once,
//! not the number of pages ever stored: a freed slot goes on a LIFO
//! free list and the next insert takes it back.
//!
//! A token is `(gen << 32) | slot`. A slot's generation is bumped on
//! insert and again on remove, so it is odd exactly while the slot is
//! live, and a token names only the tenant it was issued to: a stale
//! token (already removed, or issued to an earlier tenant of the slot)
//! and a never-issued one both miss. This is the idiom the memory
//! manager's gen-stamped LRU entries and `free_slots` use. Tokens are
//! opaque handles; no backend table is ever iterated.

use tmo_sim::ByteSize;

/// One slot: the generation stamp and the stored page's size.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    gen: u32,
    bytes: u32,
}

/// A map from issued tokens to stored page sizes, with their running
/// total.
///
/// # Example
///
/// ```
/// use tmo_backends::slab::TokenSlab;
/// use tmo_sim::ByteSize;
///
/// let mut slab = TokenSlab::new();
/// let a = slab.insert(ByteSize::from_kib(4));
/// slab.insert(ByteSize::new(1085));
/// assert_eq!(slab.remove(a), Some(ByteSize::from_kib(4)));
/// assert_eq!(slab.remove(a), None);
/// // The freed slot is reused under a new generation; `a` stays stale.
/// let c = slab.insert(ByteSize::from_kib(4));
/// assert_ne!(c, a);
/// assert_eq!(slab.remove(a), None);
/// assert_eq!(slab.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TokenSlab {
    slots: Vec<Slot>,
    /// Free slot indices, reused in LIFO order.
    free: Vec<u32>,
    len: usize,
    /// Sum of the live entries' sizes.
    bytes: u64,
}

impl TokenSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        TokenSlab::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Total size of the live entries.
    pub fn bytes(&self) -> ByteSize {
        ByteSize::new(self.bytes)
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `bytes` in a free slot and returns its token.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u32::MAX` or the slab would exceed
    /// 2^32 slots.
    pub fn insert(&mut self, bytes: ByteSize) -> u64 {
        let bytes = match u32::try_from(bytes.as_u64()) {
            Ok(b) => b,
            Err(_) => panic!("token slab overflow: a {bytes} page exceeds a slot's u32 size"),
        };
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                let index = match u32::try_from(self.slots.len()) {
                    Ok(i) => i,
                    Err(_) => panic!("token slab overflow: more than 2^32 live pages"),
                };
                self.slots.push(Slot::default());
                index
            }
        };
        let slot = &mut self.slots[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.bytes = bytes;
        self.len += 1;
        self.bytes += u64::from(bytes);
        (u64::from(slot.gen) << 32) | u64::from(index)
    }

    /// Removes and returns the size stored under `token`. Returns
    /// `None` for a stale or never-issued token.
    pub fn remove(&mut self, token: u64) -> Option<ByteSize> {
        let gen = (token >> 32) as u32;
        let index = token as u32;
        let slot = self.slots.get_mut(index as usize)?;
        if slot.gen != gen || gen & 1 == 0 {
            return None;
        }
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(index);
        self.len -= 1;
        self.bytes -= u64::from(slot.bytes);
        Some(ByteSize::new(u64::from(slot.bytes)))
    }

    /// Drops every entry. Every token issued so far stays stale.
    pub fn clear(&mut self) {
        self.free.clear();
        for (index, slot) in self.slots.iter_mut().enumerate().rev() {
            if slot.gen & 1 == 1 {
                slot.gen = slot.gen.wrapping_add(1);
            }
            self.free.push(index as u32);
        }
        self.len = 0;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn kib(n: u64) -> ByteSize {
        ByteSize::from_kib(n)
    }

    #[test]
    fn slot_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut slab = TokenSlab::new();
        let tokens: Vec<u64> = (1..=10).map(|n| slab.insert(kib(n))).collect();
        assert_eq!(slab.len(), 10);
        assert_eq!(slab.remove(tokens[4]), Some(kib(5)));
        assert_eq!(slab.remove(tokens[4]), None);
        assert_eq!(slab.len(), 9);
        assert_eq!(slab.bytes(), kib(50));
    }

    #[test]
    fn stale_token_misses_after_slot_reuse() {
        let mut slab = TokenSlab::new();
        let old = slab.insert(kib(4));
        assert_eq!(slab.remove(old), Some(kib(4)));
        // The freed slot is taken back, under a new generation.
        let new = slab.insert(kib(8));
        assert_eq!(new as u32, old as u32);
        assert_ne!(new, old);
        assert_eq!(slab.remove(old), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(new), Some(kib(8)));
    }

    #[test]
    fn never_issued_tokens_miss() {
        let mut slab = TokenSlab::new();
        assert_eq!(slab.remove(0), None);
        let t = slab.insert(kib(4));
        // Same slot, wrong (even: free) generation; a slot never handed out.
        assert_eq!(slab.remove(t & u64::from(u32::MAX)), None);
        assert_eq!(slab.remove(t + 1), None);
        assert_eq!(slab.remove(u64::MAX), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn clear_leaves_issued_tokens_stale() {
        let mut slab = TokenSlab::new();
        let a = slab.insert(kib(4));
        let b = slab.insert(kib(4));
        slab.remove(b);
        slab.clear();
        assert!(slab.is_empty());
        let c = slab.insert(kib(1));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.remove(b), None);
        assert_eq!(slab.remove(c), Some(kib(1)));
        // Clearing kept the two slots and recycles them.
        assert_eq!(slab.slots.len(), 2);
    }

    #[test]
    fn slots_track_peak_live_not_token_span() {
        let mut slab = TokenSlab::new();
        // One long-lived page pins the oldest token for the whole run.
        let pinned = slab.insert(kib(4));
        let mut live = Vec::new();
        let mut peak = slab.len();
        for i in 0..100_000u64 {
            live.push(slab.insert(kib(4)));
            if i % 7 == 6 {
                live.push(slab.insert(kib(4)));
            }
            peak = peak.max(slab.len());
            while live.len() > 3 {
                assert_eq!(slab.remove(live.remove(0)), Some(kib(4)));
            }
        }
        assert!(
            slab.slots.len() <= peak,
            "{} slots for a peak of {peak} live pages",
            slab.slots.len()
        );
        assert_eq!(slab.remove(pinned), Some(kib(4)));
    }

    #[test]
    #[should_panic(expected = "exceeds a slot's u32 size")]
    fn oversized_page_panics() {
        TokenSlab::new().insert(ByteSize::new(u64::from(u32::MAX) + 1));
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32),
        /// Remove the n-th token ever issued: live or stale.
        Remove(u16),
        /// Remove a token that may never have been issued.
        RemoveRaw(u64),
        Clear,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u32>().prop_map(Op::Insert),
            any::<u16>().prop_map(Op::Remove),
            any::<u16>().prop_map(Op::Remove),
            any::<u64>().prop_map(Op::RemoveRaw),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_a_btreemap_model(ops in prop::collection::vec(arb_op(), 1..200)) {
            let mut slab = TokenSlab::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut issued: Vec<u64> = Vec::new();
            for op in &ops {
                match *op {
                    Op::Insert(bytes) => {
                        let token = slab.insert(ByteSize::new(u64::from(bytes)));
                        prop_assert!(!model.contains_key(&token), "token {token} reissued while live");
                        model.insert(token, u64::from(bytes));
                        issued.push(token);
                    }
                    Op::Remove(n) => {
                        if !issued.is_empty() {
                            let token = issued[n as usize % issued.len()];
                            prop_assert_eq!(
                                slab.remove(token).map(ByteSize::as_u64),
                                model.remove(&token)
                            );
                        }
                    }
                    Op::RemoveRaw(token) => {
                        prop_assert_eq!(
                            slab.remove(token).map(ByteSize::as_u64),
                            model.remove(&token)
                        );
                    }
                    Op::Clear => {
                        slab.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(slab.len(), model.len());
                prop_assert_eq!(slab.bytes().as_u64(), model.values().sum::<u64>());
            }
        }
    }
}
