//! One benchmark per paper figure: each runs the corresponding
//! `tmo-experiments` reproduction at Quick scale, so `cargo bench`
//! regenerates every figure's pipeline and reports its wall-clock cost.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use tmo_experiments::{find, FleetRunner, Key, Scale};

fn bench_figure(c: &mut Criterion, figure: u32, name: &str) {
    let mut group = c.benchmark_group("figures");
    // Each iteration is a complete (quick-scale) experiment run, so keep
    // the measurement window tight: the point is regeneration coverage
    // and a wall-clock figure, not nanosecond precision.
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let experiment = find(Key::Figure(figure)).expect("valid figure");
    let runner = FleetRunner::default();
    group.bench_function(name, |b| {
        b.iter(|| {
            let out = (experiment.run)(&runner, black_box(Scale::Quick));
            black_box(out.lines.len())
        })
    });
    group.finish();
}

fn fig01_cost_model(c: &mut Criterion) {
    bench_figure(c, 1, "fig01_cost_model");
}

fn fig02_coldness(c: &mut Criterion) {
    bench_figure(c, 2, "fig02_coldness");
}

fn fig03_tax(c: &mut Criterion) {
    bench_figure(c, 3, "fig03_tax");
}

fn fig04_anon_file(c: &mut Criterion) {
    bench_figure(c, 4, "fig04_anon_file");
}

fn fig05_ssd_catalog(c: &mut Criterion) {
    bench_figure(c, 5, "fig05_ssd_catalog");
}

fn fig06_architecture(c: &mut Criterion) {
    bench_figure(c, 6, "fig06_architecture");
}

fn fig07_psi_example(c: &mut Criterion) {
    bench_figure(c, 7, "fig07_psi_example");
}

fn fig08_senpai_tracking(c: &mut Criterion) {
    bench_figure(c, 8, "fig08_senpai_tracking");
}

fn fig09_app_savings(c: &mut Criterion) {
    bench_figure(c, 9, "fig09_app_savings");
}

fn fig10_tax_savings(c: &mut Criterion) {
    bench_figure(c, 10, "fig10_tax_savings");
}

fn fig11_web_memory_bound(c: &mut Criterion) {
    bench_figure(c, 11, "fig11_web_memory_bound");
}

fn fig12_psi_vs_promotion(c: &mut Criterion) {
    bench_figure(c, 12, "fig12_psi_vs_promotion");
}

fn fig13_config_tuning(c: &mut Criterion) {
    bench_figure(c, 13, "fig13_config_tuning");
}

fn fig14_write_regulation(c: &mut Criterion) {
    bench_figure(c, 14, "fig14_write_regulation");
}

criterion_group!(
    figures,
    fig01_cost_model,
    fig02_coldness,
    fig03_tax,
    fig04_anon_file,
    fig05_ssd_catalog,
    fig06_architecture,
    fig07_psi_example,
    fig08_senpai_tracking,
    fig09_app_savings,
    fig10_tax_savings,
    fig11_web_memory_bound,
    fig12_psi_vs_promotion,
    fig13_config_tuning,
    fig14_write_regulation,
);
criterion_main!(figures);
