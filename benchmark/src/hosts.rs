//! The four workloads: how each builds a host, how it drives the host
//! through the library's own loops, and the traced copies of those
//! loops that time each layer.
//!
//! Hosts are built and driven only through the public API. The traced
//! loops repeat `TmoRuntime::tick` and `run_scenario` call for call, so
//! a traced host must end in the same state as an untraced one; the
//! repetition digest checks that it does.

use std::time::{Duration, Instant};

use tmo::fleet::{host_savings, HostSavings};
use tmo::prelude::*;
use tmo_scenarios::prelude::*;
use tmo_senpai::{OomdMonitor, Senpai};

use crate::spans::Lane;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many tiny hosts on the sharded fleet runner.
    FleetTiny,
    /// Long steady-state runs of a mixed zswap host under Senpai.
    ZswapSteady,
    /// An SSD-backed host under Senpai's write regulation.
    SsdWriteRegulated,
    /// One host per adversarial catalog scenario.
    ScenarioCatalog,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetTiny,
        Workload::ZswapSteady,
        Workload::SsdWriteRegulated,
        Workload::ScenarioCatalog,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetTiny => "fleet_tiny",
            Workload::ZswapSteady => "zswap_steady",
            Workload::SsdWriteRegulated => "ssd_write_regulated",
            Workload::ScenarioCatalog => "scenario_catalog",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Hosts in one full-size `fleet_tiny` repetition.
pub const FLEET_TINY_HOSTS: usize = 25_000;

/// Worker threads `fleet_tiny` asks for; the runner clamps the request
/// to the machine's available parallelism.
pub const FLEET_TINY_JOBS: usize = 2;

/// Senpai acceleration shared by the controller workloads.
const SPEEDUP: f64 = 20.0;

/// What one repetition runs: a workload at a fraction of its full size.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Hosts per repetition.
    pub hosts: usize,
    /// Worker threads requested from the fleet runner.
    pub jobs: usize,
    /// Simulated run length per host (per phase for the SSD workload);
    /// unused by `fleet_tiny`, whose hosts run a fixed tick script.
    pub run: SimDuration,
    /// The scenario each host replays (`scenario_catalog` only).
    pub scenarios: Vec<Scenario>,
}

impl Plan {
    /// `workload` at `fraction` of its full size: `fleet_tiny` scales
    /// its host count, the others their simulated run length.
    pub fn new(workload: Workload, fraction: f64) -> Plan {
        let minutes = |full: f64| SimDuration::from_secs_f64((full * 60.0 * fraction).max(1.0));
        let (hosts, jobs, run) = match workload {
            Workload::FleetTiny => (
                ((FLEET_TINY_HOSTS as f64 * fraction).round() as usize).max(1),
                FLEET_TINY_JOBS,
                SimDuration::ZERO,
            ),
            Workload::ZswapSteady => (1, 1, minutes(120.0)),
            Workload::SsdWriteRegulated => (1, 1, minutes(30.0)),
            Workload::ScenarioCatalog => (7, 1, minutes(20.0)),
        };
        let scenarios = if workload == Workload::ScenarioCatalog {
            catalog::all(run, scenario_dram())
        } else {
            Vec::new()
        };
        Plan {
            workload,
            hosts,
            jobs,
            run,
            scenarios,
        }
    }
}

fn scenario_dram() -> ByteSize {
    ByteSize::from_gib(1)
}

/// Simulated layer counts a traced host gathers at span boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Page touches, summed from every container's tick stats.
    pub accesses: u64,
    /// Major faults.
    pub faults: u64,
    /// Bytes asked of `Machine::reclaim`.
    pub reclaim_requested_bytes: u64,
    /// Bytes `Machine::reclaim` freed.
    pub reclaimed_bytes: u64,
    /// Pages `Machine::reclaim` freed.
    pub reclaimed_pages: u64,
    /// Pages reclaim scanned.
    pub scanned_pages: u64,
    /// Senpai signal reads that came back empty (telemetry faults).
    pub signals_dropped: u64,
    /// Senpai decisions made.
    pub decisions: u64,
    /// Decisions that asked for a non-zero reclaim.
    pub acts: u64,
}

impl LayerCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &LayerCounts) {
        self.accesses += other.accesses;
        self.faults += other.faults;
        self.reclaim_requested_bytes += other.reclaim_requested_bytes;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.reclaimed_pages += other.reclaimed_pages;
        self.scanned_pages += other.scanned_pages;
        self.signals_dropped += other.signals_dropped;
        self.decisions += other.decisions;
        self.acts += other.acts;
    }

    fn observe_tick(&mut self, machine: &Machine) {
        for id in machine.container_ids() {
            let t = machine.container(id).last_tick();
            self.accesses += t.accesses;
            self.faults += t.faults;
        }
    }
}

/// The scored scenario fields a host's digest covers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScenarioScore {
    /// Sum of per-container degradation scores.
    pub degradation: f64,
    /// Host-level stall fraction.
    pub stall_fraction: f64,
    /// Worst time-to-recover, seconds.
    pub worst_recovery_secs: f64,
    /// Containers that violated their SLO.
    pub violations: u64,
}

impl ScenarioScore {
    fn of(outcome: &ScenarioOutcome) -> ScenarioScore {
        ScenarioScore {
            degradation: outcome.total_degradation,
            stall_fraction: outcome.stall_fraction,
            worst_recovery_secs: outcome.worst_recovery_secs,
            violations: outcome.reports.iter().filter(|r| r.violated).count() as u64,
        }
    }
}

/// A host's simulated end state: every value is a pure function of the
/// workload and the host seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostState {
    /// Savings attribution.
    pub savings: HostSavings,
    /// Simulated time reached, nanoseconds.
    pub sim_ns: u64,
    /// Tick length, nanoseconds.
    pub tick_ns: u64,
    /// Simulated page size, bytes.
    pub page_size: u64,
    /// Host PSI wall time observed, nanoseconds.
    pub psi_wall_ns: u64,
    /// Host PSI `some` totals for memory, IO and CPU, nanoseconds.
    pub psi_some_ns: [u64; 3],
    /// Host PSI `full` totals for memory, IO and CPU, nanoseconds.
    pub psi_full_ns: [u64; 3],
    /// Direct reclaims the allocator ran.
    pub direct_reclaims: u64,
    /// Allocations that failed.
    pub alloc_failures: u64,
    /// Loads the swap backend could not serve.
    pub lost_loads: u64,
    /// Free DRAM at the end, bytes.
    pub free_bytes: u64,
    /// zswap pool size at the end, bytes.
    pub zswap_pool_bytes: u64,
    /// Refaults summed over the containers' cgroups.
    pub refaults: u64,
    /// Swap-ins summed over the containers' cgroups.
    pub swapins: u64,
    /// Swap-outs summed over the containers' cgroups.
    pub swapouts: u64,
    /// Swap backend reads.
    pub backend_reads: u64,
    /// Swap backend writes.
    pub backend_writes: u64,
    /// Bytes read from the swap backend.
    pub backend_read_bytes: u64,
    /// Bytes written to the swap backend.
    pub backend_written_bytes: u64,
    /// Pages stored in the swap backend at the end.
    pub backend_pages_stored: u64,
    /// Backend capacity in use at the end, bytes.
    pub backend_stored_bytes: u64,
    /// Transient backend IO errors.
    pub backend_io_errors: u64,
    /// Retries spent on transient errors.
    pub backend_retries: u64,
    /// Stores redirected around a dead tier.
    pub backend_failovers: u64,
    /// Permanent device faults injected.
    pub backend_faults_injected: u64,
    /// Samples held by the metric recorder.
    pub series_samples: u64,
    /// Container kills (oomd, crash churn and storms).
    pub kills: u64,
    /// Scenario score (`scenario_catalog` only).
    pub score: ScenarioScore,
}

impl HostState {
    fn capture(machine: &Machine, kills: u64, score: ScenarioScore) -> HostState {
        let mm = machine.mm();
        let global = mm.global_stat();
        let psi = machine.host_psi();
        let resources = [Resource::Memory, Resource::Io, Resource::Cpu];
        let mut state = HostState {
            savings: host_savings(machine),
            sim_ns: machine.now().as_nanos(),
            tick_ns: machine.config().tick.as_nanos(),
            page_size: machine.config().page_size.as_u64(),
            psi_wall_ns: psi.wall_total().as_nanos(),
            psi_some_ns: resources.map(|r| psi.snapshot(r).some_total.as_nanos()),
            psi_full_ns: resources.map(|r| psi.snapshot(r).full_total.as_nanos()),
            direct_reclaims: global.direct_reclaims,
            alloc_failures: global.alloc_failures,
            lost_loads: global.lost_loads,
            free_bytes: global.free_bytes.as_u64(),
            zswap_pool_bytes: global.zswap_pool_bytes.as_u64(),
            series_samples: machine.recorder().iter().map(|s| s.len() as u64).sum(),
            kills,
            score,
            ..HostState::default()
        };
        for id in machine.container_ids() {
            let stat = mm.cgroup_stat(machine.container(id).cgroup());
            state.refaults += stat.refaults_total;
            state.swapins += stat.swapins_total;
            state.swapouts += stat.swapouts_total;
        }
        if let Some(b) = mm.swap_stats() {
            state.backend_reads = b.reads;
            state.backend_writes = b.writes;
            state.backend_read_bytes = b.bytes_read.as_u64();
            state.backend_written_bytes = b.bytes_written.as_u64();
            state.backend_pages_stored = b.pages_stored;
            state.backend_stored_bytes = b.bytes_stored.as_u64();
            state.backend_io_errors = b.io_errors;
            state.backend_retries = b.retries;
            state.backend_failovers = b.failovers;
            state.backend_faults_injected = b.faults_injected;
        }
        state
    }

    /// Every field as a word, in a fixed order, for the digest.
    pub fn words(&self) -> Vec<u64> {
        let s = &self.savings;
        let mut words = vec![
            s.server_mem.as_u64(),
            s.workload_saved.as_u64(),
            s.datacenter_tax_saved.as_u64(),
            s.microservice_tax_saved.as_u64(),
            self.sim_ns,
            self.tick_ns,
            self.page_size,
            self.psi_wall_ns,
        ];
        words.extend(self.psi_some_ns);
        words.extend(self.psi_full_ns);
        words.extend([
            self.direct_reclaims,
            self.alloc_failures,
            self.lost_loads,
            self.free_bytes,
            self.zswap_pool_bytes,
            self.refaults,
            self.swapins,
            self.swapouts,
            self.backend_reads,
            self.backend_writes,
            self.backend_read_bytes,
            self.backend_written_bytes,
            self.backend_pages_stored,
            self.backend_stored_bytes,
            self.backend_io_errors,
            self.backend_retries,
            self.backend_failovers,
            self.backend_faults_injected,
            self.series_samples,
            self.kills,
            self.score.degradation.to_bits(),
            self.score.stall_fraction.to_bits(),
            self.score.worst_recovery_secs.to_bits(),
            self.score.violations,
        ]);
        words
    }

    /// FNV-1a over [`HostState::words`].
    pub fn digest(&self) -> u64 {
        fnv_fold(FNV_OFFSET, &self.words())
    }
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into `digest` byte by byte (FNV-1a, little endian).
pub fn fnv_fold(mut digest: u64, words: &[u64]) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// One host's result.
#[derive(Debug)]
pub struct HostRun {
    /// Simulated end state.
    pub state: HostState,
    /// Spans and counts, for a traced host.
    pub traced: Option<(Lane, LayerCounts)>,
}

/// Builds host `seed` of `plan` (host `index` picks its scenario).
fn build_bench_host(plan: &Plan, index: usize, seed: u64, scratch: MachineScratch) -> Machine {
    let relaxed = ContainerConfig {
        relaxed: true,
        ..ContainerConfig::default()
    };
    match plan.workload {
        // The `ext_paper_scale` host: 64 MiB DRAM, zswap, one Feed.
        Workload::FleetTiny => {
            let mut machine = Machine::with_scratch(
                MachineConfig {
                    dram: ByteSize::from_mib(64),
                    swap: SwapKind::Zswap {
                        capacity_fraction: 0.3,
                        allocator: ZswapAllocator::Zsmalloc,
                    },
                    seed,
                    ..MachineConfig::default()
                },
                scratch,
            );
            machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(24)));
            machine
        }
        Workload::ZswapSteady => {
            let dram = ByteSize::from_gib(4);
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
                scratch,
            );
            machine.add_container_with(
                &apps::web().with_mem_total(dram.mul_f64(0.35)),
                ContainerConfig {
                    web: Some(WebServerConfig::default()),
                    ..ContainerConfig::default()
                },
            );
            machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.30)));
            machine.add_container_with(&tax::datacenter_tax(dram), relaxed.clone());
            machine.add_container_with(&tax::microservice_tax(dram), relaxed);
            machine
        }
        Workload::SsdWriteRegulated => {
            let dram = ByteSize::from_gib(4);
            let mut machine = Machine::with_scratch(
                MachineConfig {
                    dram,
                    swap: SwapKind::Ssd(SsdModel::C),
                    seed,
                    ..MachineConfig::default()
                },
                scratch,
            );
            machine.add_container(&apps::ads_b().with_mem_total(dram.mul_f64(0.6)));
            machine
        }
        // The `ext_adversarial` host shape. Scenario faults are part of
        // the host's identity, so they go into the config; injected
        // host panics are left out so every host runs its whole script
        // and any panic is a real failure.
        Workload::ScenarioCatalog => {
            let dram = scenario_dram();
            let faults = plan.scenarios[index % plan.scenarios.len()]
                .faults
                .map(|f| FaultConfig {
                    panic_per_min: 0.0,
                    ..f
                });
            let mut machine = Machine::with_scratch(
                MachineConfig {
                    dram,
                    swap: SwapKind::Zswap {
                        capacity_fraction: 0.25,
                        allocator: ZswapAllocator::Zsmalloc,
                    },
                    seed,
                    faults,
                    ..MachineConfig::default()
                },
                scratch,
            );
            machine.add_container(&apps::feed().with_mem_total(dram.mul_f64(0.42)));
            machine.add_container_with(&tax::datacenter_tax(dram), relaxed);
            machine.add_container(&apps::cache_a().with_mem_total(dram.mul_f64(0.30)));
            machine
        }
    }
}

/// `fig14`'s controller: the pressure gate relaxed so the write rate,
/// not pressure, binds.
fn ssd_senpai(write_limit_mbps: Option<f64>) -> SenpaiConfig {
    SenpaiConfig {
        psi_threshold: 0.20,
        io_threshold: 0.80,
        reclaim_ratio: 0.005 * SPEEDUP,
        max_step_fraction: 0.20,
        interval: SimDuration::from_secs(3),
        write_limit_mbps,
        ..SenpaiConfig::accelerated(SPEEDUP)
    }
}

fn scenario_config(plan: &Plan) -> ScenarioRunConfig {
    ScenarioRunConfig {
        senpai: SenpaiConfig::accelerated(SPEEDUP),
        oomd: Some(OomdConfig::default()),
        slo: SloConfig::default(),
        duration: plan.run,
    }
}

/// `fleet_tiny`'s fixed script: six ticks, a 6 MiB reclaim, two ticks.
const FLEET_TINY_PRE_TICKS: usize = 6;
const FLEET_TINY_RECLAIM_MIB: u64 = 6;
const FLEET_TINY_POST_TICKS: usize = 2;

/// Drives a built host through the library's own loops.
fn drive_library(plan: &Plan, index: usize, mut machine: Machine) -> (Machine, u64, ScenarioScore) {
    match plan.workload {
        Workload::FleetTiny => {
            let app = ContainerId(0);
            for _ in 0..FLEET_TINY_PRE_TICKS {
                machine.tick();
            }
            machine.reclaim(app, ByteSize::from_mib(FLEET_TINY_RECLAIM_MIB));
            for _ in 0..FLEET_TINY_POST_TICKS {
                machine.tick();
            }
            (machine, 0, ScenarioScore::default())
        }
        Workload::ZswapSteady => {
            let mut rt = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(SPEEDUP))
                .with_oomd(OomdConfig::default());
            rt.run(plan.run);
            let kills = rt.oomd().map_or(0, |o| o.kills().len() as u64);
            (rt.into_machine(), kills, ScenarioScore::default())
        }
        Workload::SsdWriteRegulated => {
            let mut rt = TmoRuntime::with_senpai(machine, ssd_senpai(None));
            rt.run(plan.run);
            let mut rt = TmoRuntime::with_senpai(rt.into_machine(), ssd_senpai(Some(1.0)));
            rt.run(plan.run);
            (rt.into_machine(), 0, ScenarioScore::default())
        }
        Workload::ScenarioCatalog => {
            let scenario = &plan.scenarios[index % plan.scenarios.len()];
            let (outcome, machine) = run_scenario(machine, scenario, &scenario_config(plan));
            (machine, outcome.kills, ScenarioScore::of(&outcome))
        }
    }
}

/// One `TmoRuntime::tick` under Senpai (and oomd, if given), repeated
/// call for call with a span around each layer.
fn traced_tick(
    machine: &mut Machine,
    senpai: &mut Senpai,
    oomd: Option<&mut OomdMonitor>,
    lane: &mut Lane,
    counts: &mut LayerCounts,
) {
    lane.time("core.machine.tick", || machine.tick());
    counts.observe_tick(machine);
    let now = machine.now();
    let count = machine.container_count();
    if let Some(oomd) = oomd {
        lane.enter("senpai.oomd");
        let dt = machine.config().tick;
        for id in (0..count).map(ContainerId) {
            if !machine.is_alive(id) {
                continue;
            }
            let signal = machine.oomd_signal(id);
            if oomd.observe_signal(id.as_usize(), signal, dt).is_some() {
                machine.kill_container(id);
            }
        }
        lane.exit();
    }
    if !lane.time("senpai.decide", || senpai.due(now)) {
        return;
    }
    for id in (0..count).map(ContainerId) {
        if !machine.is_alive(id) {
            continue;
        }
        let Some(signal) = lane.time("senpai.signal", || machine.senpai_signal_guarded(id)) else {
            counts.signals_dropped += 1;
            continue;
        };
        let decision = lane.time("senpai.decide", || {
            senpai.decide_for(id.as_usize(), &signal)
        });
        counts.decisions += 1;
        if decision.reclaim > ByteSize::ZERO {
            counts.acts += 1;
            let ok = traced_reclaim(machine, id, decision.reclaim, lane, counts);
            lane.time("senpai.decide", || senpai.note_outcome(id.as_usize(), ok));
        }
    }
}

/// `Machine::reclaim` in a span; returns whether anything was freed.
fn traced_reclaim(
    machine: &mut Machine,
    id: ContainerId,
    bytes: ByteSize,
    lane: &mut Lane,
    counts: &mut LayerCounts,
) -> bool {
    let outcome = lane.time("mm.reclaim", || machine.reclaim(id, bytes));
    let page = machine.config().page_size;
    counts.reclaim_requested_bytes += bytes.as_u64();
    counts.reclaimed_bytes += outcome.reclaimed().to_bytes(page).as_u64();
    counts.reclaimed_pages += outcome.reclaimed().as_u64();
    counts.scanned_pages += outcome.scanned.as_u64();
    !outcome.reclaimed().is_zero()
}

/// `TmoRuntime::run` with the traced tick.
fn traced_run(
    machine: &mut Machine,
    senpai: &mut Senpai,
    mut oomd: Option<&mut OomdMonitor>,
    duration: SimDuration,
    lane: &mut Lane,
    counts: &mut LayerCounts,
) {
    let deadline = machine.now() + duration;
    while machine.now() < deadline {
        traced_tick(machine, senpai, oomd.as_deref_mut(), lane, counts);
    }
}

/// `run_scenario`, repeated call for call with the traced tick and a
/// span around the per-tick scoring and blame accounting.
fn traced_scenario(
    mut machine: Machine,
    scenario: &Scenario,
    cfg: &ScenarioRunConfig,
    lane: &mut Lane,
    counts: &mut LayerCounts,
) -> (ScenarioOutcome, Machine) {
    let n = machine.container_count();
    let names: Vec<String> = machine
        .container_ids()
        .map(|id| machine.container(id).name().to_string())
        .collect();
    let host_seed = machine.config().seed;
    machine.set_modulator(Box::new(ScenarioEngine::new(scenario.clone(), host_seed)));
    machine.enable_causal_tracking();
    let cgs: Vec<CgroupId> = (0..n)
        .map(|ci| machine.container(ContainerId(ci)).cgroup())
        .collect();
    let mut senpai = Senpai::new(cfg.senpai.clone());
    let mut oomd = cfg.oomd.clone().map(OomdMonitor::new);

    let mut tracker = SloTracker::new(cfg.slo, names.clone());
    let mut blame = BlameLedger::new(n);
    let mut prev_resident: Vec<f64> = cgs
        .iter()
        .map(|&cg| machine.mm().cgroup_stat(cg).resident().as_u64() as f64)
        .collect();
    let mut causal = CausalLedger::new(n);
    let mut charges: Vec<ProvenanceCharge> = Vec::new();
    let mut stalls = vec![SimDuration::ZERO; n];
    let mut psis = vec![0.0f64; n];
    let mut growth = vec![0.0f64; n];

    let deadline = machine.now() + cfg.duration;
    while machine.now() < deadline {
        traced_tick(&mut machine, &mut senpai, oomd.as_mut(), lane, counts);
        lane.enter("scenarios.account");
        machine.drain_causal_charges(&mut charges);
        for ch in &charges {
            let victim = cgs.iter().position(|&cg| cg == ch.victim);
            let offender = cgs.iter().position(|&cg| cg == ch.offender);
            if let (Some(victim), Some(offender)) = (victim, offender) {
                causal.charge(victim, offender, ch.stall);
            }
        }
        let dt = machine.config().tick;
        let now = machine.now();
        for ci in 0..n {
            let id = ContainerId(ci);
            let cg = machine.container(id).cgroup();
            stalls[ci] = machine.container(id).last_tick().mem_stall;
            psis[ci] = machine.container(id).psi().some_avg10(Resource::Memory);
            let resident = machine.mm().cgroup_stat(cg).resident().as_u64() as f64;
            growth[ci] = resident - prev_resident[ci];
            prev_resident[ci] = resident;
        }
        tracker.observe(now, dt, &stalls, &psis);
        blame.observe(&stalls, &growth);
        lane.exit();
    }

    machine.clear_modulator();
    let kills: Vec<u64> = names
        .iter()
        .map(|name| {
            machine
                .recorder()
                .series(&format!("{name}.killed"))
                .map_or(0, |s| s.len() as u64)
        })
        .collect();
    let reports = tracker.finish(scenario, &kills);
    let wall: f64 = reports.first().map_or(0.0, |r| r.wall_secs);
    let total_stall: f64 = reports.iter().map(|r| r.stall_secs).sum();
    let outcome = ScenarioOutcome {
        scenario: scenario.name.clone(),
        total_degradation: reports.iter().map(|r| r.degradation).sum(),
        kills: kills.iter().sum(),
        stall_fraction: if wall > 0.0 && n > 0 {
            total_stall / (wall * n as f64)
        } else {
            0.0
        },
        worst_recovery_secs: reports
            .iter()
            .map(|r| r.worst_recovery_secs)
            .fold(0.0, f64::max),
        reports,
        blame,
        causal,
    };
    (outcome, machine)
}

/// Drives a built host through the traced copies of the library loops.
fn drive_traced(
    plan: &Plan,
    index: usize,
    mut machine: Machine,
    lane: &mut Lane,
    counts: &mut LayerCounts,
) -> (Machine, u64, ScenarioScore) {
    match plan.workload {
        Workload::FleetTiny => {
            let app = ContainerId(0);
            for _ in 0..FLEET_TINY_PRE_TICKS {
                lane.time("core.machine.tick", || machine.tick());
                counts.observe_tick(&machine);
            }
            let bytes = ByteSize::from_mib(FLEET_TINY_RECLAIM_MIB);
            traced_reclaim(&mut machine, app, bytes, lane, counts);
            for _ in 0..FLEET_TINY_POST_TICKS {
                lane.time("core.machine.tick", || machine.tick());
                counts.observe_tick(&machine);
            }
            (machine, 0, ScenarioScore::default())
        }
        Workload::ZswapSteady => {
            let mut senpai = Senpai::new(SenpaiConfig::accelerated(SPEEDUP));
            let mut oomd = OomdMonitor::new(OomdConfig::default());
            traced_run(
                &mut machine,
                &mut senpai,
                Some(&mut oomd),
                plan.run,
                lane,
                counts,
            );
            (machine, oomd.kills().len() as u64, ScenarioScore::default())
        }
        Workload::SsdWriteRegulated => {
            for limit in [None, Some(1.0)] {
                let mut senpai = Senpai::new(ssd_senpai(limit));
                traced_run(&mut machine, &mut senpai, None, plan.run, lane, counts);
            }
            (machine, 0, ScenarioScore::default())
        }
        Workload::ScenarioCatalog => {
            let scenario = &plan.scenarios[index % plan.scenarios.len()];
            let cfg = scenario_config(plan);
            let (outcome, machine) = traced_scenario(machine, scenario, &cfg, lane, counts);
            (machine, outcome.kills, ScenarioScore::of(&outcome))
        }
    }
}

/// Builds and runs one host. With `trace_origin`, the host runs the
/// traced loops and records its spans on a lane of its own.
pub fn bench_host(
    plan: &Plan,
    ctx: HostCtx,
    arena: &mut ShardArena,
    trace_origin: Option<Instant>,
) -> HostRun {
    let Some(origin) = trace_origin else {
        let machine = build_bench_host(plan, ctx.index, ctx.seed, arena.take_scratch());
        let (machine, kills, score) = drive_library(plan, ctx.index, machine);
        let state = HostState::capture(&machine, kills, score);
        arena.put_scratch(machine.into_scratch());
        return HostRun {
            state,
            traced: None,
        };
    };
    let mut lane = Lane::new(Some(ctx.index), origin);
    let mut counts = LayerCounts::default();
    lane.enter("bench.host");
    let machine = lane.time("core.machine.build", || {
        build_bench_host(plan, ctx.index, ctx.seed, arena.take_scratch())
    });
    let (machine, kills, score) = drive_traced(plan, ctx.index, machine, &mut lane, &mut counts);
    let state = HostState::capture(&machine, kills, score);
    arena.put_scratch(machine.into_scratch());
    lane.exit();
    HostRun {
        state,
        traced: Some((lane, counts)),
    }
}

/// Builds every host of `plan` for `seed` in index order on the calling
/// thread, dropping each and recycling its scratch through `arena` as a
/// fleet worker would, and returns the time spent inside the builds.
pub fn time_builds(plan: &Plan, seed: u64, arena: &mut ShardArena) -> Duration {
    let mut total = Duration::ZERO;
    for index in 0..plan.hosts {
        let start = Instant::now();
        let machine = build_bench_host(
            plan,
            index,
            FleetRunner::host_seed(seed, index),
            arena.take_scratch(),
        );
        total += start.elapsed();
        arena.put_scratch(machine.into_scratch());
    }
    total
}
