//! Invariant suite for the refactored mm engine: the dense page slab,
//! generation-stamped LRU lists, and the batched access path must keep
//! the cgroup counters, the LRU live lengths, and the per-page states
//! mutually consistent under arbitrary operation interleavings.
//!
//! These are the checks that would have caught the historical
//! `forget_one`/`maybe_compact` drift bug: a stale entry revalidating
//! after compaction inflated an LRU's live length past the cgroup's
//! resident counter.

use std::collections::VecDeque;

use proptest::prelude::*;
use tmo_backends::{OffloadBackend, ZswapAllocator, ZswapPool};
use tmo_mm::manager::{AllocError, AllocOutcome};
use tmo_mm::page::PageState;
use tmo_mm::{
    AccessOutcome, BatchAccessStats, CgroupId, FaultKind, LruTier, MemoryManager, MmConfig, PageId,
    PageKind, ReclaimPolicy,
};
use tmo_sim::{ByteSize, SimDuration, SimTime};

const PAGE: ByteSize = ByteSize::from_kib(4);
const DRAM_PAGES: u64 = 256;

#[derive(Debug, Clone)]
enum Op {
    AllocAnon(u8),
    AllocFile(u8),
    /// Touch up to 8 pages starting at a pseudo-index (batched).
    Access(u16, u8),
    Reclaim(u8),
    Free(u16),
    Tick,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u8..20).prop_map(Op::AllocAnon),
        (1u8..20).prop_map(Op::AllocFile),
        (any::<u16>(), 1u8..8).prop_map(|(i, n)| Op::Access(i, n)),
        (1u8..30).prop_map(Op::Reclaim),
        any::<u16>().prop_map(Op::Free),
        Just(Op::Tick),
    ]
}

fn build_mm() -> MemoryManager {
    let swap: Option<Box<dyn OffloadBackend>> = Some(Box::new(ZswapPool::new(
        ByteSize::new(PAGE.as_u64() * DRAM_PAGES / 2),
        ZswapAllocator::Zsmalloc,
    )));
    MemoryManager::new(MmConfig {
        page_size: PAGE,
        total_dram: ByteSize::new(PAGE.as_u64() * DRAM_PAGES),
        swap,
        policy: ReclaimPolicy::RefaultBalanced,
        ..MmConfig::default()
    })
}

/// The load-bearing invariant: for every cgroup, the resident counters
/// (what `memory.current` is built from) equal the live lengths of the
/// LRU lists, per kind, and no list's live length exceeds its physical
/// length.
fn assert_lru_accounting(mm: &MemoryManager) {
    for cg in mm.cgroup_ids() {
        let stat = mm.cgroup_stat(cg);
        let lrus = mm.cgroup(cg).lrus();
        assert_eq!(
            stat.anon_resident.as_u64(),
            lrus.kind_len(PageKind::Anon),
            "anon resident counter != anon LRU live length"
        );
        assert_eq!(
            stat.file_resident.as_u64(),
            lrus.kind_len(PageKind::File),
            "file resident counter != file LRU live length"
        );
        for kind in PageKind::ALL {
            for tier in [LruTier::Active, LruTier::Inactive] {
                let list = lrus.list(kind, tier);
                assert!(
                    list.len() <= list.physical_len() as u64,
                    "live length {} exceeds physical length {} for {kind}/{tier:?}",
                    list.len(),
                    list.physical_len()
                );
            }
        }
    }
}

/// Applies one op to `mm`, keeping `live` in sync. Batched accesses go
/// through `access_batch`.
fn apply(mm: &mut MemoryManager, live: &mut Vec<PageId>, now: SimTime, op: &Op) {
    match op {
        Op::AllocAnon(n) => {
            if let Ok(out) = mm.alloc_pages(
                mm.cgroup_ids().next().unwrap(),
                PageKind::Anon,
                *n as u64,
                now,
            ) {
                live.extend(out.pages);
            }
        }
        Op::AllocFile(n) => {
            if let Ok(out) = mm.alloc_pages(
                mm.cgroup_ids().next().unwrap(),
                PageKind::File,
                *n as u64,
                now,
            ) {
                live.extend(out.pages);
            }
        }
        Op::Access(idx, n) => {
            if !live.is_empty() {
                let ids: Vec<PageId> = (0..*n as usize)
                    .map(|k| live[(*idx as usize + k) % live.len()])
                    .collect();
                let _ = mm.access_batch(&ids, now, &mut Vec::new());
            }
        }
        Op::Reclaim(n) => {
            let cg = mm.cgroup_ids().next().unwrap();
            let _ = mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * *n as u64));
        }
        Op::Free(idx) => {
            if !live.is_empty() {
                let i = *idx as usize % live.len();
                let id = live.swap_remove(i);
                mm.free_pages_of(&[id]);
            }
        }
        Op::Tick => mm.tick(SimDuration::from_secs(1)),
    }
}

/// A setup step of the bulk-allocation differential, applied alike to
/// both managers. Cgroup selectors index `[slice, a, b, c]`.
#[derive(Debug, Clone)]
enum DiffOp {
    /// `n` pages in `a`, `b` or `c`; file pages when the flag is set.
    Alloc(u8, bool, u8),
    Free(u16),
    Reclaim(u8, u8),
    Access(u16, u8),
    Tick,
}

fn arb_diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        (any::<u8>(), any::<bool>(), 1u8..60).prop_map(|(c, f, n)| DiffOp::Alloc(c, f, n)),
        any::<u16>().prop_map(DiffOp::Free),
        (any::<u8>(), 1u8..40).prop_map(|(c, n)| DiffOp::Reclaim(c, n)),
        (any::<u16>(), 1u8..8).prop_map(|(i, n)| DiffOp::Access(i, n)),
        Just(DiffOp::Tick),
    ]
}

/// The differential's host: [`build_mm`] with provenance on and the
/// cgroups `[slice, a, b, c]`, where `a` and `b` sit under `slice`
/// (`memory.max` of `slice_max` pages) and `c` is a root of its own.
fn build_diff_mm(slice_max: u64) -> (MemoryManager, [CgroupId; 4]) {
    let mut mm = build_mm();
    mm.enable_provenance();
    let slice = mm.create_cgroup("slice", None);
    let a = mm.create_cgroup("a", Some(slice));
    let b = mm.create_cgroup("b", Some(slice));
    let c = mm.create_cgroup("c", None);
    mm.set_memory_max(slice, Some(ByteSize::new(PAGE.as_u64() * slice_max)));
    (mm, [slice, a, b, c])
}

/// Applies one setup step, naming the acting cgroup as the reclaim
/// trigger. `live` holds the allocated pages; `seen` is one past the
/// highest page id ever handed out.
fn apply_diff(
    mm: &mut MemoryManager,
    cgs: &[CgroupId; 4],
    live: &mut Vec<PageId>,
    seen: &mut u64,
    now: SimTime,
    op: &DiffOp,
) {
    match *op {
        DiffOp::Alloc(c, file, n) => {
            let cg = cgs[1 + c as usize % 3];
            let kind = if file { PageKind::File } else { PageKind::Anon };
            mm.set_reclaim_trigger(Some(cg));
            if let Ok(out) = mm.alloc_pages(cg, kind, n as u64, now) {
                for id in &out.pages {
                    *seen = (*seen).max(id.as_u64() + 1);
                }
                live.extend(out.pages);
            }
        }
        DiffOp::Free(i) => {
            if !live.is_empty() {
                let id = live.swap_remove(i as usize % live.len());
                mm.free_pages_of(&[id]);
            }
        }
        DiffOp::Reclaim(c, n) => {
            let cg = cgs[c as usize % 4];
            mm.set_reclaim_trigger(Some(cg));
            mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * n as u64));
        }
        DiffOp::Access(i, n) => {
            if !live.is_empty() {
                let ids: Vec<PageId> = (0..n as usize)
                    .map(|k| live[(i as usize + k) % live.len()])
                    .collect();
                mm.set_reclaim_trigger(Some(mm.page(ids[0]).owner()));
                mm.access_batch(&ids, now, &mut Vec::new());
            }
        }
        DiffOp::Tick => mm.tick(SimDuration::from_secs(1)),
    }
}

/// One step of the churn-order check, on [`build_diff_mm`]'s host:
/// `a` holds a FIFO of never-touched File pages (the machine's file
/// churn) among everything [`DiffOp`] does to the other pages.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// `n` File pages in `a`, appended to the churn FIFO and never
    /// accessed.
    Churn(u8),
    /// Allocation, access, reclaim, free or tick on the other pages.
    Other(DiffOp),
    /// `memory.max` of the slice (`false`) or of `a` (`true`), in
    /// pages; 0 lifts it.
    SetMax(bool, u16),
    /// Frees the FIFO's non-resident front, as the machine's churn
    /// bookkeeping does each tick.
    DropEvicted,
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (1u8..40).prop_map(ChurnOp::Churn),
        arb_diff_op().prop_map(ChurnOp::Other),
        arb_diff_op().prop_map(ChurnOp::Other),
        (any::<bool>(), 0u16..240).prop_map(|(a, max)| ChurnOp::SetMax(a, max)),
        Just(ChurnOp::DropEvicted),
    ]
}

/// The length of the churn FIFO's non-resident front. Every page
/// behind it must still be resident — churn pages leave in insertion
/// order — and every page in it evicted, not freed.
fn evicted_prefix(mm: &MemoryManager, churn: &VecDeque<PageId>) -> Result<usize, TestCaseError> {
    let evicted = churn.iter().take_while(|&&p| !mm.is_resident(p)).count();
    for (i, &p) in churn.iter().enumerate() {
        if i < evicted {
            prop_assert!(
                matches!(mm.page(p).state(), PageState::EvictedFile { .. }),
                "churn page {p:?} left DRAM other than by eviction"
            );
        } else {
            prop_assert!(
                mm.is_resident(p),
                "churn page {i} evicted while {evicted} older ones were the only ones gone"
            );
        }
    }
    Ok(evicted)
}

/// What the bulk side of one differential run did.
#[derive(Debug)]
struct BulkRun {
    outcome: Result<AllocOutcome, AllocError>,
    /// Pages of the request that reused a freed slot.
    recycled: usize,
    /// Whether the bulk manager reported any provenance charge.
    charged: bool,
}

/// Runs `ops` on two identical managers, then asks one for `n` pages of
/// `kind` in `cgs[target]` with a single `alloc_pages` call and the
/// other with `n` one-page calls (freeing them all on the first error,
/// as the bulk call does). Both managers must end identical: ids,
/// stall, error, every cgroup's and the global stats, provenance
/// charges, and the order, page by page, in which later reclaims take
/// pages.
fn bulk_vs_singles(
    slice_max: u64,
    ops: &[DiffOp],
    target: usize,
    kind: PageKind,
    n: u64,
) -> Result<BulkRun, TestCaseError> {
    let (mut bulk, cgs) = build_diff_mm(slice_max);
    let (mut single, _) = build_diff_mm(slice_max);
    let (mut live, mut live_single) = (Vec::new(), Vec::new());
    let (mut seen, mut seen_single) = (0, 0);
    let mut now = SimTime::ZERO;
    for op in ops {
        now += SimDuration::from_millis(100);
        apply_diff(&mut bulk, &cgs, &mut live, &mut seen, now, op);
        apply_diff(
            &mut single,
            &cgs,
            &mut live_single,
            &mut seen_single,
            now,
            op,
        );
    }
    prop_assert_eq!(&live, &live_single);
    let (mut charges, mut charges_single) = (Vec::new(), Vec::new());
    bulk.drain_provenance_charges(&mut charges);
    single.drain_provenance_charges(&mut charges_single);
    prop_assert_eq!(&charges, &charges_single);

    let cg = cgs[target];
    now += SimDuration::from_millis(100);
    bulk.set_reclaim_trigger(Some(cg));
    single.set_reclaim_trigger(Some(cg));
    let outcome = bulk.alloc_pages(cg, kind, n, now);
    let mut ids = Vec::new();
    let mut stall = SimDuration::ZERO;
    let mut error = None;
    for _ in 0..n {
        match single.alloc_pages(cg, kind, 1, now) {
            Ok(out) => {
                ids.extend(out.pages);
                stall += out.reclaim_stall;
            }
            Err(e) => {
                single.free_pages_of(&ids);
                error = Some(e);
                break;
            }
        }
    }
    bulk.drain_provenance_charges(&mut charges);
    single.drain_provenance_charges(&mut charges_single);
    match (&outcome, error) {
        (Ok(out), None) => {
            prop_assert_eq!(&out.pages, &ids);
            prop_assert_eq!(out.reclaim_stall, stall);
            prop_assert_eq!(&charges, &charges_single);
            live.extend(ids.iter().copied());
        }
        (Err(e), Some(e_single)) => {
            prop_assert_eq!(*e, e_single);
            // A failed call charges none of its stall; the one-page
            // calls before the failure each charged theirs, so the
            // drained charges are not compared here.
            for &id in &ids {
                prop_assert_eq!(bulk.page(id).state(), PageState::Freed);
            }
        }
        (outcome, error) => {
            return Err(TestCaseError::Fail(format!(
                "bulk {outcome:?} but one-page calls ended in {error:?}"
            )));
        }
    }
    for &c in &cgs {
        prop_assert_eq!(bulk.cgroup_stat(c), single.cgroup_stat(c));
    }
    prop_assert_eq!(bulk.global_stat(), single.global_stat());
    assert_lru_accounting(&bulk);
    assert_lru_accounting(&single);
    // Later reclaim takes pages in the same order from both.
    for &c in cgs.iter().cycle().take(8) {
        bulk.reclaim(c, ByteSize::new(PAGE.as_u64() * 8));
        single.reclaim(c, ByteSize::new(PAGE.as_u64() * 8));
        let states: Vec<PageState> = live.iter().map(|&p| bulk.page(p).state()).collect();
        let states_single: Vec<PageState> = live.iter().map(|&p| single.page(p).state()).collect();
        prop_assert_eq!(states, states_single);
    }
    // Then one page at a time until nothing is left to take, so the
    // two must agree on the order of every page, not only on which
    // eight go next.
    let mut idle = 0;
    for &c in cgs.iter().cycle().take(4 * live.len() + 8) {
        let taken = bulk.reclaim(c, PAGE).reclaimed();
        prop_assert_eq!(taken, single.reclaim(c, PAGE).reclaimed());
        let states: Vec<PageState> = live.iter().map(|&p| bulk.page(p).state()).collect();
        let states_single: Vec<PageState> = live.iter().map(|&p| single.page(p).state()).collect();
        prop_assert_eq!(states, states_single);
        idle = if taken.as_u64() == 0 { idle + 1 } else { 0 };
        if idle == cgs.len() {
            break;
        }
    }
    let recycled = match &outcome {
        Ok(out) => out.pages.iter().filter(|id| id.as_u64() < seen).count(),
        Err(_) => 0,
    };
    Ok(BulkRun {
        outcome,
        recycled,
        charged: !charges.is_empty(),
    })
}

#[test]
fn bulk_alloc_matches_singles_when_slice_limit_bites_mid_request() {
    // 40 file pages in `a` leave the 64-page slice 24 pages of room; the
    // 60-page request in `b` must reclaim inside the slice for the rest.
    let ops = [DiffOp::Alloc(1, true, 40)];
    let run = bulk_vs_singles(64, &ops, 2, PageKind::File, 60).expect("differential holds");
    let out = run.outcome.expect("file pages reclaim to fit");
    assert!(out.reclaim_stall > SimDuration::ZERO, "the limit never bit");
    assert!(run.charged, "the reclaim stall was not charged");
}

#[test]
fn bulk_alloc_matches_singles_when_dram_runs_out_into_zswap() {
    // `c` fills DRAM with anon pages; the request must swap its own and
    // earlier pages into the zswap pool, which itself eats DRAM, until
    // the pool is full and the request fails.
    let ops = [
        DiffOp::Alloc(2, false, 59),
        DiffOp::Alloc(2, false, 59),
        DiffOp::Alloc(2, false, 59),
        DiffOp::Alloc(2, false, 59),
    ];
    let run = bulk_vs_singles(16, &ops, 3, PageKind::Anon, 120).expect("differential holds");
    let out = run.outcome.expect("zswap makes room");
    assert!(out.reclaim_stall > SimDuration::ZERO, "DRAM never ran out");
    let run = bulk_vs_singles(16, &ops, 3, PageKind::Anon, 2_000).expect("differential holds");
    assert_eq!(run.outcome, Err(AllocError::OutOfMemory));
}

#[test]
fn bulk_alloc_matches_singles_on_recycled_slots() {
    let mut ops = vec![DiffOp::Alloc(0, false, 50), DiffOp::Reclaim(1, 20)];
    ops.extend((0..30).map(|i| DiffOp::Free(i * 7)));
    let run = bulk_vs_singles(200, &ops, 1, PageKind::Anon, 45).expect("differential holds");
    run.outcome.expect("fits");
    assert_eq!(run.recycled, 30, "freed slots were not reused");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `alloc_pages(cg, kind, n)` call ends exactly where `n`
    /// one-page calls do, after an arbitrary setup: a slice limit that
    /// may bite mid-request, DRAM that may run out into the zswap pool,
    /// recycled slots and provenance tracking.
    #[test]
    fn bulk_alloc_matches_single_page_calls(
        slice_max in 16u64..200,
        ops in prop::collection::vec(arb_diff_op(), 0..60),
        request in (1usize..4, any::<bool>(), 1u64..400),
    ) {
        let (target, file, n) = request;
        let kind = if file { PageKind::File } else { PageKind::Anon };
        bulk_vs_singles(slice_max, &ops, target, kind, n)?;
    }

    /// After every single operation, counters and LRU live lengths
    /// agree. This is deliberately checked per-op, not just at the end:
    /// drift that a later compaction would mask still fails.
    #[test]
    fn lru_live_lengths_track_resident_counters(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let mut mm = build_mm();
        mm.create_cgroup("fuzz", None);
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            apply(&mut mm, &mut live, now, op);
            assert_lru_accounting(&mm);
        }
    }

    /// Counters never underflow: the sum of all page-state buckets
    /// equals exactly the number of live (not-freed) pages, so no
    /// bucket can have wrapped past zero.
    #[test]
    fn no_counter_underflow(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mm = build_mm();
        mm.create_cgroup("fuzz", None);
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            apply(&mut mm, &mut live, now, op);
            let cg = mm.cgroup_ids().next().unwrap();
            let stat = mm.cgroup_stat(cg);
            let tracked = stat.anon_resident.as_u64()
                + stat.file_resident.as_u64()
                + stat.anon_offloaded.as_u64()
                + stat.file_evicted.as_u64();
            prop_assert_eq!(tracked, live.len() as u64);
            // A wrapped-around u64 would dwarf the page population.
            prop_assert!(tracked <= DRAM_PAGES * 4);
        }
    }

    /// Ticking (which compacts the LRU lists) changes no observable
    /// state: same counters, same live lengths, same per-page states.
    #[test]
    fn compaction_preserves_live_set(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut mm = build_mm();
        mm.create_cgroup("fuzz", None);
        let mut live = Vec::new();
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            apply(&mut mm, &mut live, now, op);
        }
        let cg = mm.cgroup_ids().next().unwrap();
        let before_stat = mm.cgroup_stat(cg);
        let before_states: Vec<_> = live.iter().map(|&p| mm.page(p).state()).collect();
        // Rate counters decay on tick, so compare the conserved parts.
        mm.tick(SimDuration::from_secs(1));
        let after_stat = mm.cgroup_stat(cg);
        prop_assert_eq!(before_stat.anon_resident, after_stat.anon_resident);
        prop_assert_eq!(before_stat.file_resident, after_stat.file_resident);
        prop_assert_eq!(before_stat.anon_offloaded, after_stat.anon_offloaded);
        prop_assert_eq!(before_stat.file_evicted, after_stat.file_evicted);
        let after_states: Vec<_> = live.iter().map(|&p| mm.page(p).state()).collect();
        prop_assert_eq!(before_states, after_states);
        assert_lru_accounting(&mm);
    }

    /// Never-touched File pages of one cgroup leave DRAM in insertion
    /// order, whatever drives the reclaim: proactive reclaim of any
    /// cgroup, `memory.max` (changed along the way) on the page's own
    /// cgroup or its parent, or direct reclaim for any cgroup's
    /// allocation — with other pages of the same list accessed, freed
    /// and reclaimed in between. So the evicted pages of a churn FIFO
    /// are always its prefix, which is what lets the machine drop them
    /// by popping its front.
    #[test]
    fn untouched_file_pages_are_evicted_in_insertion_order(
        slice_max in 32u64..200,
        ops in prop::collection::vec(arb_churn_op(), 1..200),
    ) {
        let (mut mm, cgs) = build_diff_mm(slice_max);
        let [slice, a, ..] = cgs;
        let mut churn = VecDeque::new();
        let (mut live, mut seen) = (Vec::new(), 0);
        let mut now = SimTime::ZERO;
        for op in &ops {
            now += SimDuration::from_millis(100);
            match op {
                ChurnOp::Churn(n) => {
                    mm.set_reclaim_trigger(Some(a));
                    if let Ok(out) = mm.alloc_pages(a, PageKind::File, *n as u64, now) {
                        churn.extend(out.pages);
                    }
                }
                ChurnOp::Other(op) => apply_diff(&mut mm, &cgs, &mut live, &mut seen, now, op),
                ChurnOp::SetMax(on_a, pages) => {
                    let max = (*pages > 0).then(|| ByteSize::new(PAGE.as_u64() * *pages as u64));
                    mm.set_memory_max(if *on_a { a } else { slice }, max);
                }
                ChurnOp::DropEvicted => {
                    let evicted = evicted_prefix(&mm, &churn)?;
                    let dead: Vec<PageId> = churn.drain(..evicted).collect();
                    mm.free_pages_of(&dead);
                }
            }
            evicted_prefix(&mm, &churn)?;
        }
    }

    /// Differential check of the batched fast path: the same access
    /// sequence driven one page at a time through the scalar `access`
    /// reference and as `access_batch` chunks produces, chunk by chunk,
    /// the identical `BatchAccessStats` (the scalar outcomes folded with
    /// `BatchAccessStats::fold`) and swap-in latency sequence, and the
    /// identical final state on two managers built from the same config.
    #[test]
    fn batch_access_matches_singles(
        n_anon in 1u64..60,
        n_file in 1u64..60,
        reclaim_pages in 0u64..80,
        picks in prop::collection::vec(any::<u16>(), 1..120),
        chunk in 1usize..16,
    ) {
        let mut mm_single = build_mm();
        let mut mm_batch = build_mm();
        let cg_s = mm_single.create_cgroup("w", None);
        let cg_b = mm_batch.create_cgroup("w", None);
        let mut pages_s = Vec::new();
        let mut pages_b = Vec::new();
        for (mm, cg, pages) in [
            (&mut mm_single, cg_s, &mut pages_s),
            (&mut mm_batch, cg_b, &mut pages_b),
        ] {
            pages.extend(mm.alloc_pages(cg, PageKind::Anon, n_anon, SimTime::ZERO).expect("fits").pages);
            pages.extend(mm.alloc_pages(cg, PageKind::File, n_file, SimTime::ZERO).expect("fits").pages);
            mm.reclaim(cg, ByteSize::new(PAGE.as_u64() * reclaim_pages));
        }
        prop_assert_eq!(&pages_s, &pages_b);
        let now = SimTime::from_secs(3);
        let ids: Vec<PageId> = picks
            .iter()
            .map(|&i| pages_s[i as usize % pages_s.len()])
            .collect();
        let mut single_lat = Vec::new();
        let mut batch_lat = Vec::new();
        for chunk_ids in ids.chunks(chunk) {
            let mut single = BatchAccessStats::default();
            for &id in chunk_ids {
                let outcome = mm_single.access(id, now);
                if let AccessOutcome::Fault { kind: FaultKind::SwapIn, latency, .. } = outcome {
                    single_lat.push(latency.as_secs_f64());
                }
                single.fold(outcome);
            }
            let batch = mm_batch.access_batch(chunk_ids, now, &mut batch_lat);
            prop_assert_eq!(single, batch);
        }
        prop_assert_eq!(single_lat, batch_lat);
        prop_assert_eq!(mm_single.cgroup_stat(cg_s), mm_batch.cgroup_stat(cg_b));
        prop_assert_eq!(mm_single.global_stat(), mm_batch.global_stat());
        for (&a, &b) in pages_s.iter().zip(&pages_b) {
            prop_assert_eq!(mm_single.page(a).state(), mm_batch.page(b).state());
        }
        assert_lru_accounting(&mm_single);
        assert_lru_accounting(&mm_batch);
    }
}
