//! Parser and validator for the `tmo-bench-v1` JSON reports the
//! criterion shim writes (`BENCH_micro.json` / `BENCH_figures.json`).
//!
//! The format is fixed-shape, so this is a small cursor parser rather
//! than a general JSON reader: object keys must appear in the exact
//! order the shim emits them, which doubles as the schema test's
//! "deterministic key order" check.

/// One benchmark's row in a report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Criterion group (`mm`, `psi`, `figures`, ...).
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median per-iteration time over the timed samples, nanoseconds.
    pub median_ns: f64,
    /// Mean per-iteration time over all timed iterations, nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample's mean per-iteration time, nanoseconds.
    pub best_ns: f64,
    /// Number of timed samples.
    pub samples: u64,
    /// Total timed iterations.
    pub iters: u64,
}

/// A parsed `tmo-bench-v1` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// `"full"` or `"smoke"`.
    pub mode: String,
    /// Benchmarks in execution order.
    pub results: Vec<BenchResult>,
}

/// Benchmarks `BENCH_micro.json` must always contain: the mm hot paths
/// (page access single and batched, reclaim scan, bulk allocation), the
/// PSI update path, and the SSD and zswap store/load paths, plus the
/// supporting micro groups.
pub const REQUIRED_MICRO: &[(&str, &str)] = &[
    ("psi", "observe_8_tasks"),
    ("psi", "interval_union_64"),
    ("psi", "state_tracker_transition"),
    ("stats", "p2_quantile_observe"),
    ("sim", "series_push_72k"),
    ("workload", "planner_plan"),
    ("mm", "access_resident_page"),
    ("mm", "access_4096_resident"),
    ("mm", "access_4096_of_262144"),
    ("mm", "reclaim_256_pages"),
    ("mm", "alloc_1536_fresh_pages"),
    ("backends", "ssd_read_latency_draw"),
    ("backends", "ssd_store_load"),
    ("backends", "zswap_store_load"),
    ("rng", "zipf_sample_64k"),
    ("rng", "poisson_mean_100"),
    ("machine", "tick_one_container"),
    ("machine", "build_paper_scale_host"),
    ("fleet", "run_8_hosts_jobs_1"),
    ("fleet", "run_8_hosts_jobs_4"),
    ("fleet", "run_1024_hosts_jobs_1"),
    ("fleet", "run_1024_hosts_jobs_4"),
    ("lint", "lint_workspace"),
];

/// Benchmarks `BENCH_figures.json` must always contain: one reduced-
/// scale reproduction per paper figure.
pub const REQUIRED_FIGURES: &[(&str, &str)] = &[
    ("figures", "fig01_cost_model"),
    ("figures", "fig02_coldness"),
    ("figures", "fig03_tax"),
    ("figures", "fig04_anon_file"),
    ("figures", "fig05_ssd_catalog"),
    ("figures", "fig06_architecture"),
    ("figures", "fig07_psi_example"),
    ("figures", "fig08_senpai_tracking"),
    ("figures", "fig09_app_savings"),
    ("figures", "fig10_tax_savings"),
    ("figures", "fig11_web_memory_bound"),
    ("figures", "fig12_psi_vs_promotion"),
    ("figures", "fig13_config_tuning"),
    ("figures", "fig14_write_regulation"),
];

impl BenchReport {
    /// Parses a `tmo-bench-v1` document, enforcing the shim's exact key
    /// order.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let mut c = Cursor { s: text, pos: 0 };
        c.expect("{")?;
        c.expect_key("schema")?;
        let schema = c.string()?;
        if schema != "tmo-bench-v1" {
            return Err(format!("unsupported schema {schema:?}"));
        }
        c.expect(",")?;
        c.expect_key("mode")?;
        let mode = c.string()?;
        if mode != "full" && mode != "smoke" {
            return Err(format!("unknown mode {mode:?}"));
        }
        c.expect(",")?;
        c.expect_key("results")?;
        c.expect("[")?;
        let mut results = Vec::new();
        loop {
            c.skip_ws();
            if c.peek() == Some(']') {
                c.pos += 1;
                break;
            }
            c.expect("{")?;
            c.expect_key("group")?;
            let group = c.string()?;
            c.expect(",")?;
            c.expect_key("name")?;
            let name = c.string()?;
            c.expect(",")?;
            c.expect_key("median_ns")?;
            let median_ns = c.number()?;
            c.expect(",")?;
            c.expect_key("mean_ns")?;
            let mean_ns = c.number()?;
            c.expect(",")?;
            c.expect_key("best_ns")?;
            let best_ns = c.number()?;
            c.expect(",")?;
            c.expect_key("samples")?;
            let samples = c.number()? as u64;
            c.expect(",")?;
            c.expect_key("iters")?;
            let iters = c.number()? as u64;
            c.expect("}")?;
            results.push(BenchResult {
                group,
                name,
                median_ns,
                mean_ns,
                best_ns,
                samples,
                iters,
            });
            c.skip_ws();
            if c.peek() == Some(',') {
                c.pos += 1;
            }
        }
        c.expect("}")?;
        c.skip_ws();
        if c.pos != c.s.len() {
            return Err(format!("trailing data at byte {}", c.pos));
        }
        Ok(BenchReport { mode, results })
    }

    /// Looks up one benchmark by group and name.
    pub fn find(&self, group: &str, name: &str) -> Option<&BenchResult> {
        self.results
            .iter()
            .find(|r| r.group == group && r.name == name)
    }

    /// Checks that every `required` benchmark is present with sane
    /// (positive, finite) timings and non-zero sample/iteration counts.
    pub fn validate(&self, required: &[(&str, &str)]) -> Result<(), String> {
        for &(group, name) in required {
            let r = self
                .find(group, name)
                .ok_or_else(|| format!("missing benchmark {group}/{name}"))?;
            for (field, v) in [
                ("median_ns", r.median_ns),
                ("mean_ns", r.mean_ns),
                ("best_ns", r.best_ns),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("{group}/{name}: {field} = {v} is not positive"));
                }
            }
            if r.samples == 0 || r.iters == 0 {
                return Err(format!(
                    "{group}/{name}: samples={} iters={} must be non-zero",
                    r.samples, r.iters
                ));
            }
        }
        Ok(())
    }
}

/// Figure benchmarks whose medians must beat the committed pre-PSI-batch
/// baseline (`BENCH_figures_baseline.json`) by at least the given
/// factor. These are the two scan-heavy figures the batched PSI
/// accounting and vectorized coldness scan were aimed at; the gate
/// keeps a regression from quietly re-inflating the full repro.
pub const FIGURE_SPEEDUP_GATES: &[(&str, &str, f64)] = &[
    ("figures", "fig02_coldness", 3.0),
    ("figures", "fig14_write_regulation", 3.0),
];

/// Checks every [`FIGURE_SPEEDUP_GATES`] entry: `current`'s median must
/// be at least `factor`× faster than `baseline`'s. The baseline must be
/// a full-mode report (the committed pre-optimisation recording);
/// `current` may be a smoke report — the shim's smoke mode clamps
/// sample counts, not figure scale, so per-iteration medians stay
/// comparable. Returns `(group/name, speedup)` pairs for printing.
pub fn validate_figure_speedups(
    baseline: &BenchReport,
    current: &BenchReport,
) -> Result<Vec<(String, f64)>, String> {
    if baseline.mode != "full" {
        return Err(format!(
            "baseline report is mode {:?}; the committed baseline must be a full run",
            baseline.mode
        ));
    }
    let mut speedups = Vec::with_capacity(FIGURE_SPEEDUP_GATES.len());
    for &(group, name, factor) in FIGURE_SPEEDUP_GATES {
        let base = baseline
            .find(group, name)
            .ok_or_else(|| format!("baseline lacks {group}/{name}"))?;
        let cur = current
            .find(group, name)
            .ok_or_else(|| format!("current report lacks {group}/{name}"))?;
        if !(base.median_ns > 0.0 && cur.median_ns > 0.0) {
            return Err(format!("{group}/{name}: non-positive median"));
        }
        let speedup = base.median_ns / cur.median_ns;
        if speedup < factor {
            return Err(format!(
                "{group}/{name}: median {:.0}ns is only {speedup:.2}x faster than the \
                 committed baseline {:.0}ns (gate: ≥{factor}x)",
                cur.median_ns, base.median_ns
            ));
        }
        speedups.push((format!("{group}/{name}"), speedup));
    }
    Ok(speedups)
}

/// Minimum parallel efficiency a full-scale `paper_scale` report must
/// reach at [`GATED_JOBS`] workers for fleets of at least
/// [`FULL_GATE_MIN_HOSTS`] hosts.
pub const MIN_EFFICIENCY_FULL: f64 = 0.7;

/// Minimum parallel efficiency every [`GATED_JOBS`]-worker cell of a
/// smoke (clamped) `paper_scale` report must reach.
pub const MIN_EFFICIENCY_SMOKE: f64 = 0.5;

/// Fleet size from which the full-mode efficiency gate applies.
pub const FULL_GATE_MIN_HOSTS: u64 = 10_000;

/// The worker count the efficiency gates are evaluated at.
pub const GATED_JOBS: u64 = 4;

/// One `(hosts, jobs)` cell of a `paper_scale` scaling report, with its
/// efficiency against the same fleet's `jobs = 1` baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingCell {
    /// Fleet size (the row's `iters`).
    pub hosts: u64,
    /// Requested worker count (from the row name).
    pub jobs: u64,
    /// Effective worker count after the machine clamp (the row's
    /// `samples` — see the `ext_paper_scale` docs).
    pub effective_jobs: u64,
    /// Wall time per host, nanoseconds (the row's `median_ns`).
    pub wall_ns_per_host: f64,
    /// `wall(hosts, 1) / (effective_jobs · wall(hosts, jobs))`.
    pub efficiency: f64,
}

/// Extracts the `paper_scale` cells from a scaling report and computes
/// each one's parallel efficiency against its fleet's `jobs = 1`
/// baseline. The efficiency denominator uses the *effective* worker
/// count (`samples`), so a machine that clamps every run to one core
/// scores ≈ 1.0 — the metric is scaling quality, not core count.
pub fn paper_scale_cells(report: &BenchReport) -> Result<Vec<ScalingCell>, String> {
    let rows: Vec<&BenchResult> = report
        .results
        .iter()
        .filter(|r| r.group == "paper_scale")
        .collect();
    if rows.is_empty() {
        return Err("no paper_scale rows in report".to_string());
    }
    let mut cells = Vec::with_capacity(rows.len());
    for row in &rows {
        let rest = row
            .name
            .strip_prefix("hosts_")
            .ok_or_else(|| format!("bad paper_scale row name {:?}", row.name))?;
        let (hosts_s, jobs_s) = rest
            .split_once("_jobs_")
            .ok_or_else(|| format!("bad paper_scale row name {:?}", row.name))?;
        let hosts: u64 = hosts_s
            .parse()
            .map_err(|_| format!("bad host count in {:?}", row.name))?;
        let jobs: u64 = jobs_s
            .parse()
            .map_err(|_| format!("bad job count in {:?}", row.name))?;
        if hosts != row.iters {
            return Err(format!(
                "{}: name says {hosts} hosts but iters = {}",
                row.name, row.iters
            ));
        }
        if row.samples == 0 {
            return Err(format!("{}: zero effective workers", row.name));
        }
        if !row.median_ns.is_finite() || row.median_ns <= 0.0 {
            return Err(format!(
                "{}: median_ns = {} not positive",
                row.name, row.median_ns
            ));
        }
        let baseline = rows
            .iter()
            .find(|r| r.iters == hosts && r.name.ends_with("_jobs_1"))
            .ok_or_else(|| format!("no jobs_1 baseline for {hosts} hosts"))?;
        cells.push(ScalingCell {
            hosts,
            jobs,
            effective_jobs: row.samples,
            wall_ns_per_host: row.median_ns,
            efficiency: baseline.median_ns / (row.samples as f64 * row.median_ns),
        });
    }
    Ok(cells)
}

/// The `paper_scale` efficiency gate: full reports must hold
/// [`MIN_EFFICIENCY_FULL`] at [`GATED_JOBS`] workers for every fleet of
/// at least [`FULL_GATE_MIN_HOSTS`] hosts; smoke reports must hold
/// [`MIN_EFFICIENCY_SMOKE`] on every [`GATED_JOBS`]-worker cell.
/// Returns the computed cells on success, so the caller can print them.
pub fn validate_paper_scale(report: &BenchReport) -> Result<Vec<ScalingCell>, String> {
    let cells = paper_scale_cells(report)?;
    let (min_eff, min_hosts) = if report.mode == "full" {
        (MIN_EFFICIENCY_FULL, FULL_GATE_MIN_HOSTS)
    } else {
        (MIN_EFFICIENCY_SMOKE, 0)
    };
    let mut gated = 0;
    for cell in &cells {
        if cell.jobs != GATED_JOBS || cell.hosts < min_hosts {
            continue;
        }
        gated += 1;
        if cell.efficiency < min_eff {
            return Err(format!(
                "hosts_{}_jobs_{}: parallel efficiency {:.2} below the {:.2} floor \
                 (eff_jobs={}, wall/host={:.0}ns)",
                cell.hosts,
                cell.jobs,
                cell.efficiency,
                min_eff,
                cell.effective_jobs,
                cell.wall_ns_per_host,
            ));
        }
    }
    if gated == 0 {
        return Err(format!(
            "no jobs_{GATED_JOBS} cells in scope — the efficiency gate never ran"
        ));
    }
    Ok(cells)
}

struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.s[self.pos..];
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!(
                "expected {lit:?} at byte {}, found {:?}",
                self.pos,
                &self.s[self.pos..self.s.len().min(self.pos + 24)]
            ))
        }
    }

    fn expect_key(&mut self, key: &str) -> Result<(), String> {
        self.expect(&format!("\"{key}\""))?;
        self.expect(":")
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        let mut chars = self.s[self.pos..].char_indices();
        while let Some((i, ch)) = chars.next() {
            match ch {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (_, h) = chars
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            code = code * 16
                                + h.to_digit(16)
                                    .ok_or_else(|| format!("bad hex digit {h:?}"))?;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u{code:04x} escape"))?,
                        );
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let rest = &self.s[self.pos..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(format!("expected number at byte {}", self.pos));
        }
        let v: f64 = rest[..len]
            .parse()
            .map_err(|e| format!("bad number {:?}: {e}", &rest[..len]))?;
        self.pos += len;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "tmo-bench-v1",
  "mode": "full",
  "results": [
    {"group": "mm", "name": "access_4096_resident", "median_ns": 12345.500, "mean_ns": 12400.100, "best_ns": 12000.000, "samples": 10, "iters": 4000},
    {"group": "psi", "name": "observe_8_tasks", "median_ns": 900.000, "mean_ns": 910.000, "best_ns": 880.000, "samples": 10, "iters": 100000}
  ]
}
"#;

    #[test]
    fn parses_sample_report() {
        let report = BenchReport::parse(SAMPLE).expect("parses");
        assert_eq!(report.mode, "full");
        assert_eq!(report.results.len(), 2);
        let mm = report.find("mm", "access_4096_resident").expect("present");
        assert_eq!(mm.median_ns, 12345.5);
        assert_eq!(mm.iters, 4000);
    }

    #[test]
    fn validate_flags_missing_and_nonpositive() {
        let report = BenchReport::parse(SAMPLE).expect("parses");
        report
            .validate(&[("mm", "access_4096_resident")])
            .expect("present is ok");
        let err = report.validate(&[("mm", "nope")]).unwrap_err();
        assert!(err.contains("missing benchmark mm/nope"), "{err}");

        let zeroed = SAMPLE.replace("\"median_ns\": 900.000", "\"median_ns\": 0.000");
        let err = BenchReport::parse(&zeroed)
            .expect("parses")
            .validate(&[("psi", "observe_8_tasks")])
            .unwrap_err();
        assert!(err.contains("median_ns"), "{err}");
    }

    #[test]
    fn rejects_out_of_order_keys() {
        let swapped = SAMPLE.replace(
            "\"group\": \"mm\", \"name\": \"access_4096_resident\"",
            "\"name\": \"access_4096_resident\", \"group\": \"mm\"",
        );
        assert!(BenchReport::parse(&swapped).is_err());
    }

    /// A minimal figures report with the two gated benchmarks at the
    /// given medians (ns).
    fn figures_report(mode: &str, fig02_ns: f64, fig14_ns: f64) -> BenchReport {
        let text = format!(
            r#"{{"schema": "tmo-bench-v1", "mode": "{mode}", "results": [
    {{"group": "figures", "name": "fig02_coldness", "median_ns": {fig02_ns:.3}, "mean_ns": {fig02_ns:.3}, "best_ns": {fig02_ns:.3}, "samples": 3, "iters": 3}},
    {{"group": "figures", "name": "fig14_write_regulation", "median_ns": {fig14_ns:.3}, "mean_ns": {fig14_ns:.3}, "best_ns": {fig14_ns:.3}, "samples": 3, "iters": 3}}
  ]}}"#
        );
        BenchReport::parse(&text).expect("parses")
    }

    #[test]
    fn figure_speedup_gate_passes_at_3x_and_fails_below() {
        let baseline = figures_report("full", 120_000_000.0, 360_000_000.0);
        // Exactly 3x on both figures: passes (gate is >=).
        let fast = figures_report("smoke", 40_000_000.0, 120_000_000.0);
        let speedups = validate_figure_speedups(&baseline, &fast).expect("3x passes");
        assert_eq!(speedups.len(), 2);
        assert!((speedups[0].1 - 3.0).abs() < 1e-9);

        // fig14 at only 2x: the gate names the offender.
        let slow = figures_report("smoke", 40_000_000.0, 180_000_000.0);
        let err = validate_figure_speedups(&baseline, &slow).unwrap_err();
        assert!(err.contains("fig14_write_regulation"), "{err}");
        assert!(err.contains("2.00x"), "{err}");
    }

    #[test]
    fn figure_speedup_gate_rejects_smoke_baseline_and_missing_rows() {
        let smoke_base = figures_report("smoke", 120_000_000.0, 360_000_000.0);
        let fast = figures_report("smoke", 1_000_000.0, 1_000_000.0);
        let err = validate_figure_speedups(&smoke_base, &fast).unwrap_err();
        assert!(err.contains("full run"), "{err}");

        let baseline = figures_report("full", 120_000_000.0, 360_000_000.0);
        let empty =
            BenchReport::parse(r#"{"schema": "tmo-bench-v1", "mode": "smoke", "results": []}"#)
                .expect("parses");
        let err = validate_figure_speedups(&baseline, &empty).unwrap_err();
        assert!(
            err.contains("current report lacks figures/fig02_coldness"),
            "{err}"
        );
    }

    #[test]
    fn rejects_bad_schema_and_mode() {
        assert!(BenchReport::parse(&SAMPLE.replace("tmo-bench-v1", "v0")).is_err());
        assert!(BenchReport::parse(&SAMPLE.replace("\"full\"", "\"warp\"")).is_err());
    }

    /// A scaling report where 4 effective workers cut per-host wall to
    /// ~30% of the sequential baseline (efficiency ≈ 0.83) at 10k
    /// hosts, while the 1k fleet only reaches 50%.
    fn scaling_report(mode: &str, wall_10k_jobs4: f64) -> String {
        format!(
            r#"{{
  "schema": "tmo-bench-v1",
  "mode": "{mode}",
  "results": [
    {{"group": "paper_scale", "name": "hosts_1000_jobs_1", "median_ns": 80000.0, "mean_ns": 80000.0, "best_ns": 79000.0, "samples": 1, "iters": 1000}},
    {{"group": "paper_scale", "name": "hosts_1000_jobs_4", "median_ns": 40000.0, "mean_ns": 40000.0, "best_ns": 39000.0, "samples": 4, "iters": 1000}},
    {{"group": "paper_scale", "name": "hosts_10000_jobs_1", "median_ns": 80000.0, "mean_ns": 80000.0, "best_ns": 79000.0, "samples": 1, "iters": 10000}},
    {{"group": "paper_scale", "name": "hosts_10000_jobs_4", "median_ns": {wall_10k_jobs4}, "mean_ns": {wall_10k_jobs4}, "best_ns": 20000.0, "samples": 4, "iters": 10000}}
  ]
}}
"#
        )
    }

    #[test]
    fn paper_scale_cells_compute_effective_jobs_efficiency() {
        let report = BenchReport::parse(&scaling_report("full", 24000.0)).expect("parses");
        let cells = paper_scale_cells(&report).expect("cells");
        let cell = cells
            .iter()
            .find(|c| c.hosts == 10_000 && c.jobs == 4)
            .expect("present");
        assert_eq!(cell.effective_jobs, 4);
        assert!(
            (cell.efficiency - 80000.0 / (4.0 * 24000.0)).abs() < 1e-9,
            "efficiency {}",
            cell.efficiency
        );
    }

    #[test]
    fn paper_scale_full_gate_ignores_small_fleets_but_gates_large_ones() {
        // 1k fleet at 0.5 efficiency: below 0.7 but out of full-mode
        // scope; 10k fleet at ~0.83: passes.
        let ok = BenchReport::parse(&scaling_report("full", 24000.0)).expect("parses");
        validate_paper_scale(&ok).expect("10k fleet holds the 0.7 floor");
        // 10k fleet degrades to 0.4 efficiency: gate trips.
        let bad = BenchReport::parse(&scaling_report("full", 50000.0)).expect("parses");
        let err = validate_paper_scale(&bad).unwrap_err();
        assert!(err.contains("hosts_10000_jobs_4"), "{err}");
        assert!(err.contains("0.70"), "{err}");
    }

    #[test]
    fn paper_scale_smoke_gate_holds_every_cell_to_half() {
        // Smoke mode gates all jobs=4 cells at 0.5: both fleets pass at
        // exactly 0.5 (1k) and 0.83 (10k)...
        let ok = BenchReport::parse(&scaling_report("smoke", 24000.0)).expect("parses");
        validate_paper_scale(&ok).expect("0.5 floor holds");
        // ...but a 1k cell below 0.5 trips it.
        let bad = BenchReport::parse(&scaling_report("smoke", 24000.0).replace(
            "\"hosts_1000_jobs_4\", \"median_ns\": 40000.0",
            "\"hosts_1000_jobs_4\", \"median_ns\": 45000.0",
        ))
        .expect("parses");
        let err = validate_paper_scale(&bad).unwrap_err();
        assert!(err.contains("hosts_1000_jobs_4"), "{err}");
    }

    #[test]
    fn paper_scale_rejects_malformed_rows() {
        let report = BenchReport::parse(SAMPLE).expect("parses");
        assert!(paper_scale_cells(&report)
            .unwrap_err()
            .contains("no paper_scale rows"));
        let mismatched = BenchReport::parse(
            &scaling_report("full", 24000.0).replace(
                "\"name\": \"hosts_10000_jobs_1\", \"median_ns\": 80000.0, \"mean_ns\": 80000.0, \"best_ns\": 79000.0, \"samples\": 1, \"iters\": 10000",
                "\"name\": \"hosts_10000_jobs_1\", \"median_ns\": 80000.0, \"mean_ns\": 80000.0, \"best_ns\": 79000.0, \"samples\": 1, \"iters\": 9999",
            ),
        )
        .expect("parses");
        assert!(paper_scale_cells(&mismatched)
            .unwrap_err()
            .contains("iters"));
    }
}
