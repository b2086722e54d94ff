//! Property tests for the shard-chunked fleet runner.
//!
//! Two contracts underwrite the `--jobs N` bit-identity guarantee:
//!
//! 1. [`shard_plan`] is an **exact cover** of `0..hosts` — contiguous,
//!    ascending, no gaps, no overlaps — for *arbitrary* fleet sizes and
//!    worker counts. The deterministic
//!    merge concatenates shard results in shard order; any hole or
//!    overlap would silently drop or duplicate hosts.
//! 2. The shard-chunked execution path (arenas, work-stealing claim
//!    order) produces output identical to a plain sequential per-host
//!    loop that ignores its arena, for any worker count.

use proptest::prelude::*;

use tmo::runner::{shard_plan, FleetRunner, OVERSUBSCRIBE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shard_plan_is_an_exact_cover_of_the_fleet(
        hosts in 0usize..5000,
        workers in 0usize..64,
    ) {
        let shards = shard_plan(hosts, workers);
        if hosts == 0 {
            prop_assert!(shards.is_empty(), "empty fleet must have no shards");
            return Ok(());
        }
        prop_assert!(!shards.is_empty(), "non-empty fleet must be sharded");
        // Contiguous ascending cover: each shard starts where the
        // previous one ended, first at 0, last at `hosts`.
        let mut next = 0usize;
        for shard in &shards {
            prop_assert_eq!(shard.start, next, "gap or overlap at host {}", next);
            prop_assert!(shard.start < shard.end, "empty shard {:?}", shard);
            next = shard.end;
        }
        prop_assert_eq!(next, hosts, "cover must end exactly at the fleet size");
        // Equal chunks except the tail.
        let chunk = shards[0].len();
        for shard in &shards[..shards.len() - 1] {
            prop_assert_eq!(shard.len(), chunk, "only the last shard may be short");
        }
        prop_assert!(shards[shards.len() - 1].len() <= chunk);
        // The plan never produces more shards than claim slots: chunk is
        // ceil(hosts / (workers * OVERSUBSCRIBE)).
        let slots = workers.max(1) * OVERSUBSCRIBE;
        prop_assert!(
            shards.len() <= slots,
            "{} shards for {} slots (hosts={}, workers={})",
            shards.len(), slots, hosts, workers
        );
    }
}

proptest! {
    // Each case runs two fleets; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sharded_path_is_identical_to_the_per_host_path(
        hosts in 1usize..300,
        jobs in 1usize..9,
        seed in any::<u64>(),
    ) {
        // The reference: one closure call per host, arena unused. The
        // host function must be a pure function of (seed, index), so a
        // keyed mix of both stands in for a simulation.
        let mix = |index: usize, host_seed: u64| {
            let mut x = host_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            (index, x)
        };
        let (plain, _) = FleetRunner::sequential()
            .try_run(seed, hosts, |host, _| mix(host.index, host.seed))
            .expect("pure hosts never panic");
        // `exact` bypasses the machine clamp: the multi-worker shard
        // claim/merge path runs even on a single-core machine.
        let (sharded, _) = FleetRunner::exact(jobs)
            .try_run(seed, hosts, |host, arena| {
                // Exercise the arena plumbing; parked scratch must not
                // influence results.
                let scratch = arena.take_scratch();
                let out = mix(host.index, host.seed);
                arena.put_scratch(scratch);
                out
            })
            .expect("pure hosts never panic");
        prop_assert_eq!(plain, sharded);
    }
}
