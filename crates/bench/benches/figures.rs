//! One benchmark per paper figure: each runs the corresponding
//! `tmo-experiments` reproduction at Quick scale, so `cargo bench`
//! regenerates every figure's pipeline and reports its wall-clock cost.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use tmo_experiments::{FleetRunner, Key, Scale, Suite, EXPERIMENTS};

/// Bench name per figure number, in figure order.
const NAMES: [(u32, &str); 14] = [
    (1, "fig01_cost_model"),
    (2, "fig02_coldness"),
    (3, "fig03_tax"),
    (4, "fig04_anon_file"),
    (5, "fig05_ssd_catalog"),
    (6, "fig06_architecture"),
    (7, "fig07_psi_example"),
    (8, "fig08_senpai_tracking"),
    (9, "fig09_app_savings"),
    (10, "fig10_tax_savings"),
    (11, "fig11_web_memory_bound"),
    (12, "fig12_psi_vs_promotion"),
    (13, "fig13_config_tuning"),
    (14, "fig14_write_regulation"),
];

fn figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    // Each iteration is a complete (quick-scale) experiment run, so keep
    // the measurement window tight: the point is regeneration coverage
    // and a wall-clock figure, not nanosecond precision.
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let runner = FleetRunner::default();
    let figures = EXPERIMENTS.iter().filter(|e| e.suite == Suite::Figures);
    for (experiment, &(figure, name)) in figures.zip(&NAMES) {
        assert_eq!(
            experiment.key,
            Key::Figure(figure),
            "figure rows out of order"
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = (experiment.run)(&runner, black_box(Scale::Quick));
                black_box(out.lines.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, figures);
criterion_main!(benches);
