//! Repetitions, the metrics derived from them, and the result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tmo::fleet::summarize;
use tmo::prelude::*;

use crate::hosts::{bench_host, fnv_fold, HostState, LayerCounts, Plan, FNV_OFFSET};
use crate::spans::{layer_totals, to_jsonl, Lane, LayerTotals};

/// The end-to-end metrics, as `(name, unit)` in `BENCHMARK.json`'s
/// order; their direction and bounds live there.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_s_per_s", "sim-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("mem_saved_pct", "%"),
];

/// The per-layer metrics of a traced run, as `(name, unit)` in
/// `BENCHMARK.json`'s order.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("core.machine.build.busy_s", "s"),
    ("core.machine.tick.busy_s", "s"),
    ("core.machine.tick.calls", "count"),
    ("core.machine.tick.us_p50", "us"),
    ("core.machine.tick.us_p99", "us"),
    ("core.machine.tick.ns_per_access", "ns"),
    ("mm.reclaim.busy_s", "s"),
    ("mm.reclaim.calls", "count"),
    ("mm.reclaim.us_p50", "us"),
    ("mm.reclaim.us_p99", "us"),
    ("mm.reclaim.ns_per_scanned_page", "ns"),
    ("senpai.signal.busy_s", "s"),
    ("senpai.signal.calls", "count"),
    ("senpai.signal.dropped", "count"),
    ("senpai.decide.busy_s", "s"),
    ("senpai.decide.calls", "count"),
    ("senpai.decide.act_ratio", "ratio"),
    ("senpai.oomd.busy_s", "s"),
    ("senpai.oomd.calls", "count"),
    ("scenarios.account.busy_s", "s"),
    ("scenarios.account.calls", "count"),
    ("core.runner.host_ms_p50", "ms"),
    ("core.runner.host_ms_p99", "ms"),
    ("core.runner.overhead_s", "s"),
    ("core.runner.idle_s", "s"),
    ("core.runner.shards", "count"),
    ("bench.self_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("mm.accesses", "count"),
    ("mm.faults", "count"),
    ("mm.refaults", "count"),
    ("mm.swapins", "count"),
    ("mm.swapouts", "count"),
    ("mm.direct_reclaims", "count"),
    ("mm.alloc_failures", "count"),
    ("mm.lost_loads", "count"),
    ("mm.reclaim.requested_mib", "MiB"),
    ("mm.reclaim.reclaimed_mib", "MiB"),
    ("mm.reclaim.scanned_pages", "count"),
    ("mm.reclaim.efficiency", "ratio"),
    ("mm.reclaim.fill", "ratio"),
    ("backends.reads", "count"),
    ("backends.writes", "count"),
    ("backends.read_mib", "MiB"),
    ("backends.written_mib", "MiB"),
    ("backends.stored_mib", "MiB"),
    ("backends.compress_ratio", "ratio"),
    ("backends.io_errors", "count"),
    ("backends.retries", "count"),
    ("backends.failovers", "count"),
    ("backends.faults_injected", "count"),
    ("psi.mem_some_pct", "%"),
    ("psi.mem_full_pct", "%"),
    ("psi.io_some_pct", "%"),
    ("psi.cpu_some_pct", "%"),
    ("sim.series.samples", "count"),
    ("core.ticks", "count"),
    ("core.kills", "count"),
];

/// The traced half of a repetition.
#[derive(Debug)]
pub struct RepTrace {
    /// The main lane: `bench.rep` around `core.runner.run`.
    pub main: Lane,
    /// One lane per completed host, in host order.
    pub hosts: Vec<Lane>,
    /// Index of the `core.runner.run` span in the main lane.
    pub runner_span: Option<usize>,
    /// Layer counts summed over hosts.
    pub counts: LayerCounts,
}

/// One repetition: every host of a plan built and run once.
#[derive(Debug)]
pub struct Rep {
    /// Per-host digests in host order; `None` for a host that panicked.
    pub host_digests: Vec<Option<u64>>,
    /// Panics, as `(host, message)`.
    pub panics: Vec<(usize, String)>,
    /// End states of the hosts that completed, in host order.
    pub states: Vec<HostState>,
    /// Wall time of the whole repetition.
    pub wall: Duration,
    /// The fleet runner's own accounting.
    pub runner: FleetStats,
    /// Spans and counts, for a traced repetition.
    pub trace: Option<RepTrace>,
}

impl Rep {
    /// Digest over every host in index order.
    pub fn digest(&self) -> u64 {
        let words: Vec<u64> = self
            .host_digests
            .iter()
            .map(|d| d.unwrap_or(u64::MAX))
            .collect();
        fnv_fold(FNV_OFFSET, &words)
    }

    /// Simulated host-seconds the repetition covered.
    pub fn sim_seconds(&self) -> f64 {
        self.states.iter().map(|s| s.sim_ns as f64 / 1e9).sum()
    }

    /// Fleet memory saved: the mean host's total savings fraction, %.
    pub fn mem_saved_pct(&self) -> f64 {
        let savings: Vec<_> = self.states.iter().map(|s| s.savings).collect();
        summarize(&savings).total_fraction * 100.0
    }

    /// Host memory `some` pressure averaged over hosts, %.
    pub fn psi_mem_some_pct(&self) -> f64 {
        mean_pct(&self.states, |s| s.psi_some_ns[0])
    }
}

fn mean_pct(states: &[HostState], total: impl Fn(&HostState) -> u64) -> f64 {
    let n = states.len().max(1) as f64;
    states
        .iter()
        .filter(|s| s.psi_wall_ns > 0)
        .map(|s| total(s) as f64 / s.psi_wall_ns as f64 * 100.0)
        .sum::<f64>()
        / n
}

/// Runs every host of `plan` once. Traced repetitions run the traced
/// loops and record spans.
pub fn run_rep(plan: &Plan, seed: u64, traced: bool) -> Rep {
    let start = Instant::now();
    let mut main = Lane::new(None, start);
    if traced {
        main.enter("bench.rep");
        main.enter("core.runner.run");
    }
    let runner_span = main.current();
    let origin = traced.then_some(start);
    let runner = FleetRunner::new(plan.jobs);
    let (outcomes, runner_stats) =
        runner.run_collect_seeded_sharded(seed, plan.hosts, |ctx, arena| {
            bench_host(plan, ctx, arena, origin)
        });
    if traced {
        main.exit();
    }
    let mut rep = Rep {
        host_digests: Vec::with_capacity(outcomes.len()),
        panics: Vec::new(),
        states: Vec::with_capacity(outcomes.len()),
        wall: Duration::ZERO,
        runner: runner_stats,
        trace: None,
    };
    let mut lanes = Vec::new();
    let mut counts = LayerCounts::default();
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            HostOutcome::Completed(run) => {
                rep.host_digests.push(Some(run.state.digest()));
                rep.states.push(run.state);
                if let Some((lane, c)) = run.traced {
                    lanes.push(lane);
                    counts.add(&c);
                }
            }
            HostOutcome::Failed(e) => {
                rep.host_digests.push(None);
                rep.panics.push((index, e.message));
            }
        }
    }
    if traced {
        main.exit();
        rep.trace = Some(RepTrace {
            main,
            hosts: lanes,
            runner_span,
            counts,
        });
    }
    rep.wall = start.elapsed();
    rep
}

impl RepTrace {
    /// Self times per layer.
    pub fn totals(&self) -> LayerTotals {
        layer_totals(&self.main, &self.hosts, self.runner_span)
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        to_jsonl(&self.main, &self.hosts, self.runner_span)
    }
}

/// How far Σ self time (less the overlap of parallel hosts) is from
/// the repetition's wall time, as a share of the wall time.
pub fn reconcile_error(totals: &LayerTotals, wall: Duration) -> f64 {
    let traced_s = (totals.total_self_ns - totals.parallel_overlap_ns) as f64 / 1e9;
    let wall = wall.as_secs_f64();
    (traced_s - wall).abs() / wall
}

/// The median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The wall-clock summary of one repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepTiming {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Simulated host-seconds covered.
    pub sim_s: f64,
    /// The machine's speed during the repetition, from the reference
    /// kernel around it (see [`crate::calibrate`]).
    pub speed: f64,
}

impl Rep {
    /// The repetition's wall-clock summary, at machine speed `speed`.
    pub fn timing(&self, speed: f64) -> RepTiming {
        RepTiming {
            wall_s: self.wall.as_secs_f64(),
            sim_s: self.sim_seconds(),
            speed,
        }
    }
}

impl RepTiming {
    /// Simulated seconds per wall second, scaled to reference speed.
    pub fn throughput(&self) -> f64 {
        self.sim_s / self.wall_s / self.speed
    }
}

/// The end-to-end metrics: the median speed-scaled throughput of the
/// measured repetitions, the median speed-scaled set-up round
/// (`setups`, seconds), and the modelled values of the first
/// repetition.
pub fn end_to_end_metrics(
    first: &Rep,
    timings: &[RepTiming],
    setups: &[f64],
    peak_rss: f64,
) -> BTreeMap<&'static str, f64> {
    let throughput: Vec<f64> = timings.iter().map(RepTiming::throughput).collect();
    BTreeMap::from([
        ("sim_s_per_s", median(&throughput)),
        ("setup_s", median(setups)),
        ("peak_rss_mib", peak_rss),
        ("mem_saved_pct", first.mem_saved_pct()),
    ])
}

/// The simulated counts of a traced repetition: exact for a seed.
pub fn count_metrics(rep: &Rep, counts: &LayerCounts) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&HostState) -> u64| rep.states.iter().map(f).sum::<u64>() as f64;
    let mib = |bytes: f64| bytes / (1024.0 * 1024.0);
    let page_bytes = sum(&|s| s.backend_pages_stored * s.page_size);
    let requested = counts.reclaim_requested_bytes as f64;
    let reclaimed = counts.reclaimed_bytes as f64;
    BTreeMap::from([
        ("mm.accesses", counts.accesses as f64),
        ("mm.faults", counts.faults as f64),
        ("mm.refaults", sum(&|s| s.refaults)),
        ("mm.swapins", sum(&|s| s.swapins)),
        ("mm.swapouts", sum(&|s| s.swapouts)),
        ("mm.direct_reclaims", sum(&|s| s.direct_reclaims)),
        ("mm.alloc_failures", sum(&|s| s.alloc_failures)),
        ("mm.lost_loads", sum(&|s| s.lost_loads)),
        ("mm.reclaim.requested_mib", mib(requested)),
        ("mm.reclaim.reclaimed_mib", mib(reclaimed)),
        ("mm.reclaim.scanned_pages", counts.scanned_pages as f64),
        (
            "mm.reclaim.efficiency",
            ratio(counts.reclaimed_pages as f64, counts.scanned_pages as f64),
        ),
        ("mm.reclaim.fill", ratio(reclaimed, requested)),
        ("backends.reads", sum(&|s| s.backend_reads)),
        ("backends.writes", sum(&|s| s.backend_writes)),
        ("backends.read_mib", mib(sum(&|s| s.backend_read_bytes))),
        (
            "backends.written_mib",
            mib(sum(&|s| s.backend_written_bytes)),
        ),
        ("backends.stored_mib", mib(sum(&|s| s.backend_stored_bytes))),
        (
            "backends.compress_ratio",
            ratio(page_bytes, sum(&|s| s.backend_stored_bytes)),
        ),
        ("backends.io_errors", sum(&|s| s.backend_io_errors)),
        ("backends.retries", sum(&|s| s.backend_retries)),
        ("backends.failovers", sum(&|s| s.backend_failovers)),
        (
            "backends.faults_injected",
            sum(&|s| s.backend_faults_injected),
        ),
        ("psi.mem_some_pct", rep.psi_mem_some_pct()),
        (
            "psi.mem_full_pct",
            mean_pct(&rep.states, |s| s.psi_full_ns[0]),
        ),
        (
            "psi.io_some_pct",
            mean_pct(&rep.states, |s| s.psi_some_ns[1]),
        ),
        (
            "psi.cpu_some_pct",
            mean_pct(&rep.states, |s| s.psi_some_ns[2]),
        ),
        ("sim.series.samples", sum(&|s| s.series_samples)),
        ("core.ticks", sum(&|s| s.sim_ns / s.tick_ns.max(1))),
        ("core.kills", sum(&|s| s.kills)),
        ("senpai.signal.dropped", counts.signals_dropped as f64),
        ("senpai.decide.calls", counts.decisions as f64),
        (
            "senpai.decide.act_ratio",
            ratio(counts.acts as f64, counts.decisions as f64),
        ),
    ])
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Host-time metrics of one traced repetition.
pub fn layer_values(
    rep: &Rep,
    totals: &LayerTotals,
    counts: &LayerCounts,
) -> BTreeMap<&'static str, f64> {
    let tick_s = totals.busy_s("core.machine.tick");
    let reclaim_s = totals.busy_s("mm.reclaim");
    let busy = rep.runner.total_busy().as_secs_f64();
    BTreeMap::from([
        (
            "core.machine.build.busy_s",
            totals.busy_s("core.machine.build"),
        ),
        ("core.machine.tick.busy_s", tick_s),
        (
            "core.machine.tick.calls",
            totals.calls("core.machine.tick") as f64,
        ),
        (
            "core.machine.tick.us_p50",
            totals.quantile_ns("core.machine.tick", 0.50) / 1e3,
        ),
        (
            "core.machine.tick.us_p99",
            totals.quantile_ns("core.machine.tick", 0.99) / 1e3,
        ),
        (
            "core.machine.tick.ns_per_access",
            ratio(tick_s * 1e9, counts.accesses as f64),
        ),
        ("mm.reclaim.busy_s", reclaim_s),
        ("mm.reclaim.calls", totals.calls("mm.reclaim") as f64),
        (
            "mm.reclaim.us_p50",
            totals.quantile_ns("mm.reclaim", 0.50) / 1e3,
        ),
        (
            "mm.reclaim.us_p99",
            totals.quantile_ns("mm.reclaim", 0.99) / 1e3,
        ),
        (
            "mm.reclaim.ns_per_scanned_page",
            ratio(reclaim_s * 1e9, counts.scanned_pages as f64),
        ),
        ("senpai.signal.busy_s", totals.busy_s("senpai.signal")),
        ("senpai.signal.calls", totals.calls("senpai.signal") as f64),
        ("senpai.decide.busy_s", totals.busy_s("senpai.decide")),
        ("senpai.oomd.busy_s", totals.busy_s("senpai.oomd")),
        ("senpai.oomd.calls", totals.calls("senpai.oomd") as f64),
        (
            "scenarios.account.busy_s",
            totals.busy_s("scenarios.account"),
        ),
        (
            "scenarios.account.calls",
            totals.calls("scenarios.account") as f64,
        ),
        (
            "core.runner.host_ms_p50",
            totals.quantile_ns("bench.host", 0.50) / 1e6,
        ),
        (
            "core.runner.host_ms_p99",
            totals.quantile_ns("bench.host", 0.99) / 1e6,
        ),
        (
            "core.runner.overhead_s",
            busy - totals.duration_s("bench.host"),
        ),
        (
            "core.runner.idle_s",
            rep.runner.jobs as f64 * rep.runner.wall.as_secs_f64() - busy,
        ),
        ("core.runner.shards", rep.runner.shards as f64),
        ("bench.self_s", totals.busy_prefix_s("bench.")),
    ])
}

/// The median of each key over `maps`.
pub fn median_by_key(maps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for map in maps {
        for (&k, &v) in map {
            columns.entry(k).or_default().push(v);
        }
    }
    columns.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Formats one metric value for the result line: every digit, and
/// always valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The final result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Writes the spans of one traced repetition as JSON lines.
pub fn write_spans(path: &std::path::Path, trace: &RepTrace) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_flat_json() {
        let line = result_line(true, 3, 0, &[("a", "s", 1.5), ("b", "%", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"%\"}}}"
        );
    }
}
