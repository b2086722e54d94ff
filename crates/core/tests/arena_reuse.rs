//! Invariant suite: a worker's shard arena is a pure capacity carrier.
//!
//! Host `i` simulated alone on a fresh arena and host `i` simulated
//! mid-shard — behind other hosts whose retired scratch it adopts —
//! must produce bit-identical outcomes. The same must hold when the
//! schedule injects container crash churn and mid-run host panics: a
//! lost scratch (the panicking host dies holding it) may degrade buffer
//! reuse, but never results. Nor may scratch retired by a bigger,
//! differently shaped host: its page slab and LRU lists are emptied
//! when the next host adopts them, and its recorder's series, which the
//! scratch carries too, are cleared.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tmo::fleet::{host_savings, HostSavings};
use tmo::prelude::*;
use tmo::runner::{FleetRunner, HostCtx, ShardArena};
use tmo_mm::page::PageState;
use tmo_mm::{CgroupId, PageId, PageKind};

/// What one host reports: savings, final sim clock and every recorded
/// sample as CSV — enough bits that any divergence in the
/// access/reclaim/fault path or the recorder shows up.
type Fingerprint = (HostSavings, SimTime, String);

/// One small Feed host, optionally under fault injection, built on an
/// adopted scratch and run to its end. Panics mid-run when the host's
/// fault schedule says so.
fn simulate(
    seed: u64,
    faults: Option<FaultConfig>,
    scratch: MachineScratch,
) -> (Machine, ContainerId) {
    let dram = ByteSize::from_mib(64);
    let mut machine = Machine::with_scratch(
        MachineConfig {
            dram,
            swap: SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            seed,
            faults,
            ..MachineConfig::default()
        },
        scratch,
    );
    let app = machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(24)));
    for _ in 0..12 {
        machine.tick();
    }
    machine.reclaim(app, ByteSize::from_mib(6));
    for _ in 0..4 {
        machine.tick();
    }
    (machine, app)
}

/// [`simulate`]'s host, fingerprinted, retiring its scratch.
fn run_host(
    seed: u64,
    faults: Option<FaultConfig>,
    scratch: MachineScratch,
) -> (Fingerprint, MachineScratch) {
    let (machine, _) = simulate(seed, faults, scratch);
    let fp = (
        host_savings(&machine),
        machine.now(),
        machine.recorder().to_csv(),
    );
    (fp, machine.into_scratch())
}

/// The fleet closure shape every test uses: thread the arena through.
fn fleet_host(
    faults: Option<FaultConfig>,
) -> impl Fn(HostCtx, &mut ShardArena) -> Fingerprint + Sync {
    move |host, arena| {
        let (fp, scratch) = run_host(host.seed, faults, arena.take_scratch());
        arena.put_scratch(scratch);
        fp
    }
}

/// Runs host `i` of `experiment_seed` in isolation: fresh arena, no
/// neighbours, exactly what a one-host fleet would do.
fn solo(experiment_seed: u64, index: usize, faults: Option<FaultConfig>) -> Fingerprint {
    let mut arena = ShardArena::new();
    let ctx = HostCtx {
        index,
        seed: FleetRunner::host_seed(experiment_seed, index),
    };
    fleet_host(faults)(ctx, &mut arena)
}

/// A crash-churn schedule: full chaos with host panics disabled, so
/// every host completes but containers crash, devices die, and signals
/// go stale along the way.
fn crash_churn() -> FaultConfig {
    FaultConfig {
        panic_per_min: 0.0,
        crash_per_min: 1.0,
        ..FaultConfig::chaos(1.0)
    }
}

/// A panic-heavy schedule: enough mid-run host panics that a small
/// fleet reliably contains both casualties and survivors.
fn panicky() -> FaultConfig {
    FaultConfig {
        panic_per_min: 2.0,
        ..FaultConfig::chaos(1.0)
    }
}

#[test]
fn host_alone_matches_host_in_shard() {
    const SEED: u64 = 4242;
    const HOSTS: usize = 40;
    let alone: Vec<Fingerprint> = (0..HOSTS).map(|i| solo(SEED, i, None)).collect();
    // exact() bypasses the machine clamp, so the multi-worker shard
    // merge really runs even on a single-core machine.
    for workers in [1, 2, 4] {
        let (fleet, _) = FleetRunner::exact(workers)
            .try_run(SEED, HOSTS, fleet_host(None))
            .expect("no host panics");
        assert_eq!(alone, fleet, "workers={workers} diverged from solo runs");
    }
}

#[test]
fn adopted_scratch_from_any_host_changes_nothing() {
    const SEED: u64 = 99;
    let fresh = solo(SEED, 7, None);
    // Retire scratch from a *different* host (different seed, different
    // buffer sizes at retirement) and make host 7 adopt it.
    for donor in [0usize, 3, 11] {
        let (_, dirty) = run_host(
            FleetRunner::host_seed(SEED ^ 0xdead_beef, donor),
            Some(crash_churn()),
            MachineScratch::default(),
        );
        let (adopted, _) = run_host(FleetRunner::host_seed(SEED, 7), None, dirty);
        assert_eq!(fresh, adopted, "scratch from donor {donor} leaked state");
    }
}

/// A bigger, differently shaped donor: four containers, two of them in
/// a slice under `memory.max`, one killed and restarted, and enough
/// ticks and reclaim that its LRU lists hold stale entries and its page
/// slab has free slots when the scratch is retired.
fn donor_scratch(seed: u64) -> MachineScratch {
    let dram = ByteSize::from_mib(256);
    let mut machine = Machine::with_scratch(
        MachineConfig {
            dram,
            swap: SwapKind::Zswap {
                capacity_fraction: 0.25,
                allocator: ZswapAllocator::Zsmalloc,
            },
            seed,
            ..MachineConfig::default()
        },
        MachineScratch::default(),
    );
    let slice = machine.create_slice("workload.slice");
    machine
        .mm_mut()
        .set_memory_max(slice, Some(ByteSize::from_mib(110)));
    let web = machine.add_container_with(
        &apps::web().with_mem_total(ByteSize::from_mib(60)),
        ContainerConfig {
            web: Some(WebServerConfig::default()),
            slice: Some(slice),
            ..ContainerConfig::default()
        },
    );
    let feed = machine.add_container_with(
        &apps::feed().with_mem_total(ByteSize::from_mib(40)),
        ContainerConfig {
            slice: Some(slice),
            ..ContainerConfig::default()
        },
    );
    machine.add_container_with(
        &tax::datacenter_tax(dram),
        ContainerConfig {
            relaxed: true,
            ..ContainerConfig::default()
        },
    );
    machine.add_container(&apps::cache_a().with_mem_total(ByteSize::from_mib(40)));
    for _ in 0..10 {
        machine.tick();
    }
    machine.kill_container(feed);
    assert!(machine.restart_container(feed));
    machine.reclaim(web, ByteSize::from_mib(8));
    for _ in 0..10 {
        machine.tick();
    }
    machine.into_scratch()
}

/// What a host built on `scratch` hands out first: 64 page ids, read
/// off the hot slab, each with the owner and state its cold record
/// holds. A slot the adopted scratch failed to empty shows up as a
/// recycled id or as a donor page's owner.
fn first_pages(scratch: MachineScratch) -> Vec<(PageId, CgroupId, PageState)> {
    let mut machine = Machine::with_scratch(MachineConfig::default(), scratch);
    let cg = machine.create_slice("probe");
    let pages = machine
        .mm_mut()
        .alloc_pages(cg, PageKind::Anon, 64, SimTime::ZERO)
        .expect("fits")
        .pages;
    pages
        .into_iter()
        .map(|p| {
            let page = machine.mm().page(p);
            (p, page.owner(), page.state())
        })
        .collect()
}

#[test]
fn scratch_from_a_bigger_host_is_clean_at_adoption() {
    const SEED: u64 = 77;
    let fresh = solo(SEED, 5, None);
    let (adopted, _) = run_host(FleetRunner::host_seed(SEED, 5), None, donor_scratch(3));
    assert_eq!(fresh, adopted, "the donor's mm capacity leaked state");
    assert_eq!(
        first_pages(donor_scratch(3)),
        first_pages(MachineScratch::default()),
        "the adopted hot slab or cold array was not emptied"
    );
    // The donor's Web, cache and event series must not leak into the
    // adopting Feed host's series list, nor its Feed kill.
    let seed = FleetRunner::host_seed(SEED, 5);
    let (fresh, _) = simulate(seed, None, MachineScratch::default());
    let (adopted, app) = simulate(seed, None, donor_scratch(3));
    assert_eq!(adopted.recorder().names(), fresh.recorder().names());
    assert_eq!(adopted.kill_count(app), 0);
}

#[test]
fn crash_churn_schedule_is_arena_invariant() {
    const SEED: u64 = 1300;
    const HOSTS: usize = 24;
    let faults = Some(crash_churn());
    let alone: Vec<Fingerprint> = (0..HOSTS).map(|i| solo(SEED, i, faults)).collect();
    for workers in [1, 3, 4] {
        let (fleet, _) = FleetRunner::exact(workers)
            .try_run(SEED, HOSTS, fleet_host(faults))
            .expect("no host panics");
        assert_eq!(alone, fleet, "workers={workers} diverged under crash churn");
    }
}

#[test]
fn host_panic_schedule_is_arena_invariant() {
    const SEED: u64 = 555;
    const HOSTS: usize = 24;
    let faults = Some(panicky());
    // Ground truth per host, in isolation: either a fingerprint or a
    // panic, observed without any arena sharing.
    let alone: Vec<Option<Fingerprint>> = (0..HOSTS)
        .map(|i| catch_unwind(AssertUnwindSafe(|| solo(SEED, i, faults))).ok())
        .collect();
    let survivors = alone.iter().flatten().count();
    assert!(
        survivors < HOSTS,
        "panic schedule never fired; the test is vacuous"
    );
    assert!(survivors > 0, "every host panicked; the test is vacuous");
    for workers in [1, 4] {
        let (outcomes, _) =
            FleetRunner::exact(workers).run_collect_seeded_sharded(SEED, HOSTS, fleet_host(faults));
        assert_eq!(outcomes.len(), HOSTS);
        for (i, (outcome, expected)) in outcomes.iter().zip(&alone).enumerate() {
            match expected {
                Some(fp) => assert_eq!(
                    outcome.completed(),
                    Some(fp),
                    "workers={workers}: host {i} diverged from its solo run"
                ),
                None => assert!(
                    outcome.is_failed(),
                    "workers={workers}: host {i} panicked solo but completed in-shard"
                ),
            }
        }
    }
}
