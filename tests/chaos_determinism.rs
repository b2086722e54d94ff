//! Property tests for the deterministic fault-injection layer.
//!
//! The chaos contract extends the seed-stability contract: a faulted
//! fleet is still a pure function of `(experiment_seed, fault_config)`.
//! Identical inputs must give an identical fault schedule and an
//! identical fleet outcome — including *which hosts fail* — and a
//! parallel run must be bit-identical to a sequential one even while
//! hosts are panicking mid-run.

use proptest::prelude::*;
use tmo::prelude::*;
use tmo::runner::{FleetRunner, HostOutcome};
use tmo_repro::{tmo, tmo_faults, tmo_workload};

use tmo_faults::{FaultPlan, HostFaults, SignalFate};
use tmo_sim::SimDuration as Dt;

const FLEET_HOSTS: usize = 5;

/// A compact, comparable digest of one host's run under faults.
#[derive(Debug, Clone, PartialEq)]
struct HostDigest {
    savings_bits: u64,
    lost_loads: u64,
    failovers: u64,
    faults_injected: u64,
    sim_secs_bits: u64,
}

/// Runs a small faulted fleet and digests every host outcome. Injected
/// panics become `Err(host, message)` digests, so failure placement is
/// part of the compared value.
fn run_chaos_fleet(
    jobs: usize,
    experiment_seed: u64,
    faults: FaultConfig,
) -> Vec<Result<HostDigest, (usize, String)>> {
    // exact(): really spawn `jobs` workers even on a small machine, so
    // the jobs=4 comparisons exercise the multi-worker merge path
    // instead of clamping down to the inline sequential one.
    let runner = FleetRunner::exact(jobs);
    let (outcomes, _) =
        runner.run_collect_seeded_sharded(experiment_seed, FLEET_HOSTS, |host, _| {
            let server = ByteSize::from_mib(128);
            let swap = if host.index % 2 == 0 {
                SwapKind::Tiered {
                    zswap_fraction: 0.1,
                    allocator: ZswapAllocator::Zsmalloc,
                    ssd: SsdModel::C,
                    demote_after: SimDuration::from_secs(20),
                    min_compress_ratio: 2.0,
                }
            } else {
                SwapKind::Ssd(SsdModel::C)
            };
            let mut machine = Machine::new(MachineConfig {
                dram: server,
                swap,
                seed: host.seed,
                faults: Some(faults),
                ..MachineConfig::default()
            });
            machine.add_container(&tmo_workload::apps::feed().with_mem_total(server.mul_f64(0.5)));
            let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(40.0));
            rt.run(SimDuration::from_mins(2));
            let m = rt.machine();
            let stats = m.mm().swap_stats().unwrap_or_default();
            HostDigest {
                savings_bits: m.savings_fraction(ContainerId(0)).to_bits(),
                lost_loads: m.mm().global_stat().lost_loads,
                failovers: stats.failovers,
                faults_injected: stats.faults_injected,
                sim_secs_bits: m.now().as_secs_f64().to_bits(),
            }
        });
    outcomes
        .into_iter()
        .map(|o| match o {
            HostOutcome::Completed(digest) => Ok(digest),
            HostOutcome::Failed(e) => Err((e.host, e.message)),
        })
        .collect()
}

/// The raw fault schedule over a tick window, for pure-schedule
/// comparison without running a simulation.
fn fault_schedule(seed: u64, host: u64, faults: FaultConfig, ticks: u64) -> Vec<u32> {
    let plan = FaultPlan::new(seed, host);
    let hf = HostFaults::new(seed, host, faults);
    let dt = Dt::from_millis(100);
    (0..ticks)
        .map(|t| {
            let mut word = 0u32;
            if plan.chance(t, 0x51, faults.per_tick(faults.spike_per_min, dt)) {
                word |= 1;
            }
            if plan.chance(t, 0xD1E, faults.per_tick(faults.device_death_per_min, dt)) {
                word |= 2;
            }
            word |= match hf.signal_fate(t, 0) {
                SignalFate::Fresh => 0,
                SignalFate::Stale => 4,
                SignalFate::Dropped => 8,
            };
            if hf.crash_victim(t, dt, 3).is_some() {
                word |= 16;
            }
            if hf.panics_at(t, dt) {
                word |= 32;
            }
            word
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same `(seed, fault_config)` ⇒ same fault schedule, queried twice.
    #[test]
    fn identical_inputs_give_identical_fault_schedules(
        seed in 0u64..u64::MAX,
        host in 0u64..64,
        intensity in 0.0f64..1.0,
    ) {
        let faults = FaultConfig::chaos(intensity);
        let a = fault_schedule(seed, host, faults, 2000);
        let b = fault_schedule(seed, host, faults, 2000);
        prop_assert_eq!(a, b);
    }

    /// Different seeds ⇒ different schedules (the seed actually drives
    /// the draws; a constant schedule would also pass the purity test).
    #[test]
    fn different_seeds_give_different_fault_schedules(
        seed in 0u64..(u64::MAX - 1),
        host in 0u64..64,
    ) {
        let faults = FaultConfig::chaos(1.0);
        let a = fault_schedule(seed, host, faults, 4000);
        let b = fault_schedule(seed + 1, host, faults, 4000);
        prop_assert!(a != b, "seed change left the schedule unchanged");
    }
}

proptest! {
    // Each case runs a 10-host-equivalent of simulation; keep it tiny.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Identical `(seed, fault_config)` ⇒ identical fleet outcome, and
    /// `jobs=4` is bit-identical to `jobs=1` even with hosts panicking
    /// and devices dying mid-run.
    #[test]
    fn faulted_fleet_is_pure_and_jobs_invariant(
        seed in 0u64..1_000_000,
        intensity in 0.25f64..1.0,
    ) {
        // Boosted rates so short runs reliably exercise every path.
        let faults = FaultConfig {
            device_death_per_min: 1.0,
            panic_per_min: 0.3,
            ..FaultConfig::chaos(intensity)
        };
        let seq = run_chaos_fleet(1, seed, faults);
        let par = run_chaos_fleet(4, seed, faults);
        prop_assert_eq!(&seq, &par, "worker count changed a chaos outcome");
        let rerun = run_chaos_fleet(4, seed, faults);
        prop_assert_eq!(&par, &rerun, "identical inputs diverged across runs");
    }
}

/// Non-property pin: at the documented chaos seed the fleet degrades
/// gracefully — some fault lands, yet the fleet is never wiped out.
#[test]
fn chaos_fleet_keeps_survivors_at_the_documented_seed() {
    let faults = FaultConfig {
        device_death_per_min: 1.0,
        panic_per_min: 0.3,
        ..FaultConfig::chaos(1.0)
    };
    let outcomes = run_chaos_fleet(4, tmo_experiments::ext_chaos::EXPERIMENT_SEED, faults);
    let survivors: Vec<&HostDigest> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    assert!(!survivors.is_empty(), "the whole fleet died: {outcomes:?}");
    assert!(
        survivors
            .iter()
            .any(|d| d.faults_injected > 0 && (d.failovers > 0 || d.lost_loads > 0)),
        "no surviving host degraded through a device fault: {outcomes:?}"
    );
}
