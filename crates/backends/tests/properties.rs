//! Property-based tests of backend conservation invariants, run against
//! every backend type behind the `OffloadBackend` trait object.

use proptest::prelude::*;
use tmo_backends::{catalog, OffloadBackend, SsdModel, TieredBackend, ZswapAllocator, ZswapPool};
use tmo_sim::{ByteSize, DetRng, SimDuration};

const PAGE: ByteSize = ByteSize::from_kib(4);

#[derive(Debug, Clone)]
enum Op {
    Store(u8), // compressibility class index
    Load(u16), // index into live tokens
    Discard(u16),
    Tick,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Store),
        any::<u16>().prop_map(Op::Load),
        any::<u16>().prop_map(Op::Discard),
        Just(Op::Tick),
    ]
}

fn ratios() -> [f64; 4] {
    [1.0, 1.35, 3.0, 4.0]
}

fn backends() -> Vec<Box<dyn OffloadBackend>> {
    vec![
        Box::new(catalog::fleet_device(SsdModel::C)),
        Box::new(ZswapPool::new(
            ByteSize::from_mib(4),
            ZswapAllocator::Zsmalloc,
        )),
        Box::new(ZswapPool::new(ByteSize::from_mib(4), ZswapAllocator::Zbud)),
        Box::new(TieredBackend::new(
            ZswapPool::new(ByteSize::from_mib(1), ZswapAllocator::Zsmalloc),
            catalog::fleet_device(SsdModel::C),
            SimDuration::from_secs(5),
        )),
    ]
}

fn check_invariants(backend: &mut dyn OffloadBackend, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut rng = DetRng::seed_from_u64(77);
    let mut live: Vec<u64> = Vec::new();
    let mut stored_count: u64 = 0;
    for op in ops {
        match op {
            Op::Store(class) => {
                let ratio = ratios()[*class as usize % 4];
                if let Some(out) = backend.store(PAGE, ratio, &mut rng) {
                    // A page never costs more than its raw size.
                    prop_assert!(out.stored_bytes <= PAGE);
                    live.push(out.token);
                    stored_count += 1;
                }
            }
            Op::Load(idx) => {
                if !live.is_empty() {
                    let i = *idx as usize % live.len();
                    let token = live.swap_remove(i);
                    let lat = backend.load(token, &mut rng);
                    prop_assert!(lat.is_some(), "live token must load");
                    prop_assert!(lat.expect("checked") > SimDuration::ZERO);
                    stored_count -= 1;
                    // Loading again must fail: the page was removed.
                    prop_assert!(backend.load(token, &mut rng).is_none());
                }
            }
            Op::Discard(idx) => {
                if !live.is_empty() {
                    let i = *idx as usize % live.len();
                    let token = live.swap_remove(i);
                    prop_assert!(backend.discard(token));
                    prop_assert!(!backend.discard(token));
                    stored_count -= 1;
                }
            }
            Op::Tick => backend.tick(SimDuration::from_secs(1)),
        }
        // Aggregate page count always equals our ledger.
        prop_assert_eq!(backend.stats().pages_stored, stored_count);
        // Capacity accounting never goes negative or above capacity.
        prop_assert!(backend.stats().bytes_stored <= backend.capacity());
        prop_assert!(backend.available() <= backend.capacity());
    }
    // Drain everything: the backend must return every page exactly once.
    for token in live {
        prop_assert!(backend.load(token, &mut rng).is_some());
    }
    prop_assert_eq!(backend.stats().pages_stored, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_across_all_backends(ops in prop::collection::vec(arb_op(), 1..120)) {
        for mut backend in backends() {
            check_invariants(backend.as_mut(), &ops)?;
        }
    }

    #[test]
    fn latency_draws_are_positive_and_finite(
        seeds in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        for seed in seeds {
            let mut rng = DetRng::seed_from_u64(seed);
            for mut backend in backends() {
                let lat = backend.access(
                    tmo_backends::IoKind::Read,
                    PAGE,
                    &mut rng,
                );
                prop_assert!(lat > SimDuration::ZERO);
                prop_assert!(lat < SimDuration::from_secs(2), "absurd latency {lat}");
            }
        }
    }

    #[test]
    fn zswap_stored_size_monotone_in_ratio(
        r1 in 1.0f64..8.0,
        r2 in 1.0f64..8.0,
    ) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        for alloc in ZswapAllocator::ALL {
            let big = alloc.stored_size(PAGE, lo);
            let small = alloc.stored_size(PAGE, hi);
            prop_assert!(small <= big, "{alloc}: ratio {hi} stored {small} > ratio {lo} stored {big}");
        }
    }
}
