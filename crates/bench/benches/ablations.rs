//! Design-choice ablation benchmarks (the DESIGN.md ablation list):
//! each runs the corresponding `tmo-experiments::ablate` experiment at
//! Quick scale so `cargo bench` exercises every ablation path.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use tmo_backends::ZswapAllocator;
use tmo_experiments::{ablate, Scale};
use tmo_mm::ReclaimPolicy;
use tmo_sim::SimDuration;

fn ablation_reclaim_balance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("reclaim_balance_refault_balanced", |b| {
        b.iter(|| {
            black_box(ablate::reclaim_balance(
                ReclaimPolicy::RefaultBalanced,
                Scale::Quick,
            ))
        })
    });
    group.bench_function("reclaim_balance_legacy", |b| {
        b.iter(|| {
            black_box(ablate::reclaim_balance(
                ReclaimPolicy::LegacyFileFirst,
                Scale::Quick,
            ))
        })
    });
    group.finish();
}

fn ablation_reclaim_knob(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("reclaim_knob_stateless", |b| {
        b.iter(|| black_box(ablate::reclaim_knob(true, Scale::Quick)))
    });
    group.bench_function("reclaim_knob_stateful_limit", |b| {
        b.iter(|| black_box(ablate::reclaim_knob(false, Scale::Quick)))
    });
    group.finish();
}

fn ablation_io_psi(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("io_psi_gated", |b| {
        b.iter(|| black_box(ablate::io_psi_gate(true, Scale::Quick)))
    });
    group.bench_function("io_psi_ungated", |b| {
        b.iter(|| black_box(ablate::io_psi_gate(false, Scale::Quick)))
    });
    group.finish();
}

fn extension_tiered(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("tiered_hierarchy_mixed_host", |b| {
        let runner = tmo_experiments::FleetRunner::default();
        b.iter(|| black_box(tmo_experiments::ext_tiered::simulate(&runner, Scale::Quick)))
    });
    group.finish();
}

fn ablation_zswap_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for alloc in ZswapAllocator::ALL {
        group.bench_function(format!("zswap_allocator_{alloc}"), |b| {
            b.iter(|| black_box(ablate::zswap_allocator(alloc, Scale::Quick)))
        });
    }
    group.finish();
}

fn ablation_reclaim_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    for secs in [1u64, 6, 30] {
        group.bench_function(format!("reclaim_interval_{secs}s"), |b| {
            b.iter(|| {
                black_box(ablate::reclaim_interval(
                    SimDuration::from_secs(secs),
                    Scale::Quick,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    ablation_reclaim_balance,
    ablation_reclaim_knob,
    ablation_io_psi,
    ablation_zswap_allocator,
    ablation_reclaim_interval,
    extension_tiered
);
criterion_main!(ablations);
