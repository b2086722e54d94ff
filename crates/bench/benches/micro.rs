//! Micro-benchmarks of the reproduction's hot paths: PSI interval
//! accounting, LRU reclaim, page access/fault handling, device latency
//! draws, and whole-machine ticks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tmo_backends::{IoKind, OffloadBackend, SsdModel, ZswapAllocator, ZswapPool};
use tmo_mm::{MemoryManager, MmConfig, PageKind, ReclaimPolicy};
use tmo_psi::state::{StateTracker, TaskId};
use tmo_psi::{IntervalSet, PsiGroup, Resource, SpanBatch};
use tmo_sim::rng::Zipf;
use tmo_sim::stats::P2Quantile;
use tmo_sim::{ByteSize, DetRng, Series, SimDuration, SimTime};
use tmo_workload::{AccessPlanner, TemperatureClass};

fn psi_observe(c: &mut Criterion) {
    let mut group = c.benchmark_group("psi");
    // 8 tasks, each with a handful of stall intervals, per window: the
    // per-window update a machine tick pays for one PSI domain.
    group.bench_function("observe_8_tasks", |b| {
        let mut psi = PsiGroup::new();
        let window = SimDuration::from_millis(100);
        let mut batch = SpanBatch::new();
        for i in 0..8 {
            let base = i * 1_000_000;
            batch.push_non_idle_task();
            batch.push_span(Resource::Memory, base, base + 400_000);
            batch.push_span(Resource::Memory, base + 10_000_000, base + 10_400_000);
            batch.push_span(Resource::Io, base + 5_000_000, base + 5_300_000);
        }
        b.iter(|| {
            psi.observe(window, black_box(&batch));
            black_box(psi.some_avg10(Resource::Memory))
        })
    });
    group.bench_function("interval_union_64", |b| {
        let sets: Vec<IntervalSet> = (0..64u64)
            .map(|i| IntervalSet::from_spans(&[(i * 1000, i * 1000 + 1500)]))
            .collect();
        b.iter(|| black_box(tmo_psi::intervals::union_all(black_box(&sets)).total_len()))
    });
    group.finish();
}

fn mm_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("mm");
    group.bench_function("access_resident_page", |b| {
        let mut mm = MemoryManager::new(MmConfig {
            page_size: ByteSize::from_kib(4),
            total_dram: ByteSize::from_mib(64),
            ..MmConfig::default()
        });
        let cg = mm.create_cgroup("bench", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 4096, SimTime::ZERO)
            .expect("fits");
        let mut i = 0usize;
        b.iter(|| {
            let page = alloc.pages[i % alloc.pages.len()];
            i += 1;
            black_box(mm.access(page, SimTime::from_secs(1)))
        })
    });
    // The headline page-access benchmark: touch a 4096-page resident
    // working set once per iteration. BENCH_micro_baseline.json pins the
    // pre-batching numbers; scripts/bench.sh regenerates the current ones.
    group.bench_function("access_4096_resident", |b| {
        let mut mm = MemoryManager::new(MmConfig {
            page_size: ByteSize::from_kib(4),
            total_dram: ByteSize::from_mib(64),
            ..MmConfig::default()
        });
        let cg = mm.create_cgroup("bench", None);
        let alloc = mm
            .alloc_pages(cg, PageKind::Anon, 4096, SimTime::ZERO)
            .expect("fits");
        let mut swap_latencies = Vec::new();
        b.iter(|| {
            black_box(mm.access_batch(&alloc.pages, SimTime::from_secs(1), &mut swap_latencies))
        })
    });
    // The regime the 16-byte hot page record targets: 4096 scattered
    // touches of a 4 GiB host's 262,144 resident 16 KiB pages, whose
    // slab far exceeds the cache (access_4096_resident's sequential
    // 4096 pages stay in it). The ids are drawn once from a fixed seed,
    // and the host is built once, outside the closure the harness calls
    // per sample.
    let mut mm = MemoryManager::new(MmConfig {
        page_size: ByteSize::from_kib(16),
        total_dram: ByteSize::from_gib(4),
        ..MmConfig::default()
    });
    let cg = mm.create_cgroup("bench", None);
    let resident = mm
        .alloc_pages(cg, PageKind::Anon, 262_144, SimTime::ZERO)
        .expect("fits")
        .pages;
    let mut rng = DetRng::seed_from_u64(7);
    let ids: Vec<_> = (0..4096)
        .map(|_| resident[rng.below(resident.len() as u64) as usize])
        .collect();
    let mut swap_latencies = Vec::new();
    group.bench_function("access_4096_of_262144", |b| {
        b.iter(|| black_box(mm.access_batch(&ids, SimTime::from_secs(1), &mut swap_latencies)))
    });
    group.bench_function("reclaim_256_pages", |b| {
        b.iter_with_setup(
            || {
                let mut mm = MemoryManager::new(MmConfig {
                    page_size: ByteSize::from_kib(4),
                    total_dram: ByteSize::from_mib(64),
                    swap: Some(Box::new(ZswapPool::new(
                        ByteSize::from_mib(32),
                        ZswapAllocator::Zsmalloc,
                    ))),
                    policy: ReclaimPolicy::RefaultBalanced,
                    ..MmConfig::default()
                });
                let cg = mm.create_cgroup("bench", None);
                mm.alloc_pages(cg, PageKind::Anon, 4096, SimTime::ZERO)
                    .expect("fits");
                mm.alloc_pages(cg, PageKind::File, 4096, SimTime::ZERO)
                    .expect("fits");
                (mm, cg)
            },
            |(mut mm, cg)| black_box(mm.reclaim(cg, ByteSize::from_kib(4 * 256))),
        )
    });
    group.finish();
}

fn backend_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("backends");
    group.bench_function("ssd_read_latency_draw", |b| {
        let mut ssd = tmo_backends::catalog::fleet_device(SsdModel::C);
        let mut rng = DetRng::seed_from_u64(1);
        b.iter(|| black_box(ssd.access(IoKind::Read, ByteSize::from_kib(4), &mut rng)))
    });
    group.bench_function("ssd_store_load", |b| {
        let mut ssd = tmo_backends::catalog::fleet_device(SsdModel::C);
        let mut rng = DetRng::seed_from_u64(5);
        // One page swapped out early and never faulted back pins the
        // oldest token for the whole run, as a cold page does in a host.
        ssd.store(ByteSize::from_kib(4), 1.0, &mut rng)
            .expect("capacity");
        b.iter(|| {
            let out = ssd
                .store(ByteSize::from_kib(4), 1.0, &mut rng)
                .expect("capacity");
            black_box(ssd.load(out.token, &mut rng))
        })
    });
    group.bench_function("zswap_store_load", |b| {
        let mut pool = ZswapPool::new(ByteSize::from_gib(1), ZswapAllocator::Zsmalloc);
        let mut rng = DetRng::seed_from_u64(2);
        b.iter(|| {
            let out = pool
                .store(ByteSize::from_kib(4), 3.0, &mut rng)
                .expect("capacity");
            black_box(pool.load(out.token, &mut rng))
        })
    });
    group.finish();
}

fn rng_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.bench_function("zipf_sample_64k", |b| {
        let zipf = Zipf::new(65_536, 1.0);
        let mut rng = DetRng::seed_from_u64(3);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    group.bench_function("poisson_mean_100", |b| {
        let mut rng = DetRng::seed_from_u64(4);
        b.iter(|| black_box(rng.poisson(100.0)))
    });
    group.finish();
}

fn psi_state_tracker(c: &mut Criterion) {
    let mut group = c.benchmark_group("psi");
    group.bench_function("state_tracker_transition", |b| {
        let mut t = StateTracker::new();
        for task in 0..8 {
            t.set_non_idle(SimTime::ZERO, TaskId(task), true);
        }
        let mut now = 0u64;
        let mut stalled = false;
        b.iter(|| {
            now += 1_000_000;
            stalled = !stalled;
            t.set_stalled(
                SimTime::from_nanos(now),
                TaskId(now % 8),
                Resource::Memory,
                stalled,
            );
            black_box(&t);
        })
    });
    group.finish();
}

fn streaming_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("stats");
    group.bench_function("p2_quantile_observe", |b| {
        let mut p90 = P2Quantile::new(0.9);
        let mut rng = DetRng::seed_from_u64(6);
        b.iter(|| {
            p90.observe(rng.uniform());
            black_box(p90.value())
        })
    });
    group.finish();
}

fn series_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    // One `zswap_steady` per-tick series: 72,000 samples on a 100 ms
    // stride pushed into a fresh `Series`, which fills 18 value chunks.
    group.bench_function("series_push_72k", |b| {
        b.iter(|| {
            let mut series = Series::new("rps");
            for i in 0..72_000u64 {
                series.push(SimTime::from_nanos(i * 100_000_000), i as f64);
            }
            black_box(series.last())
        })
    });
    group.finish();
}

fn planner_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    let planner = AccessPlanner::new(
        vec![TemperatureClass::new(1.0, SimDuration::from_secs(10))],
        65_536,
    );
    group.bench_function("planner_plan", |b| {
        let mut rng = DetRng::seed_from_u64(8);
        b.iter(|| black_box(planner.plan(SimDuration::from_millis(100), &mut rng)))
    });
    group.finish();
}

fn machine_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");
    group.sample_size(20);
    group.bench_function("tick_one_container", |b| {
        let mut machine = tmo_bench::bench_machine(5);
        b.iter(|| {
            machine.tick();
            black_box(machine.now())
        })
    });
    // Building the `ext_paper_scale` host (`with_scratch` plus its Feed
    // container's footprint) on the scratch the previous build retired,
    // as a fleet worker's shard arena recycles it.
    group.bench_function("build_paper_scale_host", |b| {
        let mut arena = tmo::runner::ShardArena::new();
        b.iter(|| {
            let (machine, app) =
                tmo_experiments::ext_paper_scale::build_host(5, arena.take_scratch());
            black_box(app);
            arena.put_scratch(machine.into_scratch());
        })
    });
    group.finish();
}

fn lint_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("lint");
    group.sample_size(10);
    // The determinism analyzer is a CI gate, so its wall time is a
    // tracked cost: lex + parse + call graph + taint fixpoint over
    // every in-scope file in the workspace, per iteration.
    let root = tmo_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("bench runs inside the workspace");
    group.bench_function("lint_workspace", |b| {
        b.iter(|| {
            let analysis = tmo_lint::analyze_workspace(black_box(&root)).expect("readable tree");
            black_box((analysis.findings.len(), analysis.files_scanned))
        })
    });
    group.finish();
}

fn fleet_runner_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    // These entries are compared *against each other* (the committed
    // baseline asserts jobs_4 does not regress below jobs_1), so each
    // needs a long enough warm-up that the CPU reaches a steady thermal
    // state before its samples — otherwise whichever bench runs second
    // inherits a hotter, slower core and the comparison measures
    // ordering, not the runner. An interleaved A/B of the two bodies
    // shows a 1.00 ratio.
    group.warm_up_time(std::time::Duration::from_millis(400));
    // The same 8-host fleet at one and four requested workers. With the
    // shard-chunked runner, `new(4)` clamps to the machine's cores, so
    // on a small box both entries take the same inline path and jobs_4
    // must not regress below jobs_1 (the committed-baseline contract);
    // on a multicore box the gap is the runner's parallel speedup.
    // Results are bit-identical either way.
    for jobs in [1usize, 4] {
        group.bench_function(format!("run_8_hosts_jobs_{jobs}"), |b| {
            let runner = tmo::runner::FleetRunner::new(jobs);
            b.iter(|| {
                let ticks = runner.try_run(5, 8, |host, _| {
                    let mut machine = tmo_bench::bench_machine(host.seed);
                    for _ in 0..10 {
                        machine.tick();
                    }
                    machine.now()
                });
                black_box(ticks.expect("bench hosts are fault-free").0)
            })
        });
    }
    // A 1024-host fleet of the cheap paper_scale host, tracking the
    // scaling claim in the committed baseline: per-host cost must stay
    // flat (amortised claims, arena-recycled scratch) as the fleet
    // grows three orders of magnitude past the worker count.
    for jobs in [1usize, 4] {
        group.bench_function(format!("run_1024_hosts_jobs_{jobs}"), |b| {
            let runner = tmo::runner::FleetRunner::new(jobs);
            b.iter(|| {
                let (savings, _) = runner
                    .try_run(
                        tmo_experiments::ext_paper_scale::EXPERIMENT_SEED,
                        1024,
                        tmo_experiments::ext_paper_scale::run_host,
                    )
                    .expect("scaling hosts are fault-free");
                black_box(tmo_experiments::ext_paper_scale::checksum_savings(&savings))
            })
        });
    }
    group.finish();
}

criterion_group!(
    micro,
    psi_observe,
    psi_state_tracker,
    streaming_stats,
    series_push,
    planner_plan,
    mm_paths,
    backend_latency,
    rng_sampling,
    machine_tick,
    fleet_runner_scaling,
    lint_workspace
);
criterion_main!(micro);
