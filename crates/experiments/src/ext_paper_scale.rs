//! Extension experiment: fleet-scale harness scaling laws.
//!
//! TMO's numbers are fleet aggregates over millions of hosts (§4), and
//! the reproduction's fidelity at scale is bounded by how many hosts
//! the harness can afford to simulate. This experiment measures the
//! harness itself: it sweeps fleet size × worker count and reports how
//! close the shard-chunked [`FleetRunner`] gets to linear scaling —
//! the property that makes every 100k-host study affordable.
//!
//! # Determinism split
//!
//! Stdout carries only values that are pure functions of
//! `(seed, host_index, tick)`: per-fleet-size result checksums (bit-
//! folded [`HostSavings`]) and the aggregate savings summary. They are
//! printed once per fleet size after verifying every swept `jobs` value
//! produced the identical checksum — the `--jobs` bit-identity
//! contract, demonstrated at up to 100k hosts.
//!
//! Wall-clock measurements (the whole point of the experiment) are
//! **never** written to stdout. They go to stderr for humans, and — when
//! `TMO_SCALING_JSON=<path>` is set — to a `tmo-bench-v1` report file
//! (the same side-channel pattern as the criterion shim's
//! `TMO_BENCH_JSON`), where `bench-check paper-scale` gates the
//! parallel efficiency.
//!
//! # Reading the efficiency report
//!
//! Each JSON row is one `(hosts, jobs)` cell: `median_ns`/`mean_ns` is
//! end-to-end wall time per host, `best_ns` is worker-busy time per
//! host, `iters` is the fleet size, and `samples` is the **effective**
//! worker count after [`FleetRunner::new`]'s machine clamp. Parallel
//! efficiency for a cell is
//! `wall(hosts, 1) / (effective_jobs · wall(hosts, jobs))`, so a
//! single-core machine (every cell clamps to 1 worker) scores ≈ 1.0 —
//! the metric measures scaling quality, not core count.

use std::collections::BTreeMap;
use std::time::Duration;

use tmo::fleet::{host_savings, summarize, FleetSummary, HostSavings};
use tmo::prelude::*;
use tmo::runner::{FleetRunner, ShardArena};

use crate::report::{pct, ExperimentOutput, Scale};

/// Experiment-level seed; host `i` runs with
/// `FleetRunner::host_seed(EXPERIMENT_SEED, i)`.
pub const EXPERIMENT_SEED: u64 = 1500;

/// The swept worker counts.
pub const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The swept fleet sizes: the full paper-scale ladder, or its first
/// rung for `--quick` (tests, CI smoke).
pub fn fleet_sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Paper => &[1_000, 10_000, 100_000],
        Scale::Quick => &[1_000],
    }
}

/// Runs one scaling host: a deliberately small Feed host — a few ticks
/// of access traffic, one Senpai-sized reclaim probe, two more ticks —
/// cheap enough that a 100k-host fleet is a seconds-scale run while
/// still exercising the allocator, the access/fault path, reclaim, and
/// the zswap backend. Scratch buffers are recycled through the worker's
/// [`ShardArena`].
pub fn run_host(ctx: HostCtx, arena: &mut ShardArena) -> HostSavings {
    let dram = ByteSize::from_mib(64);
    let mut machine = Machine::with_scratch(
        MachineConfig {
            dram,
            swap: SwapKind::Zswap {
                capacity_fraction: 0.3,
                allocator: ZswapAllocator::Zsmalloc,
            },
            seed: ctx.seed,
            ..MachineConfig::default()
        },
        arena.take_scratch(),
    );
    let app = machine.add_container(&apps::feed().with_mem_total(ByteSize::from_mib(24)));
    for _ in 0..6 {
        machine.tick();
    }
    machine.reclaim(app, ByteSize::from_mib(6));
    for _ in 0..2 {
        machine.tick();
    }
    let savings = host_savings(&machine);
    arena.put_scratch(machine.into_scratch());
    savings
}

/// One `(hosts, jobs)` cell of the sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Fleet size.
    pub hosts: usize,
    /// Requested worker count.
    pub jobs: usize,
    /// Worker count actually used after the machine clamp.
    pub effective_jobs: usize,
    /// Shards the fleet was partitioned into.
    pub shards: usize,
    /// End-to-end wall time (reporting only; never printed to stdout).
    pub wall: Duration,
    /// Sum of per-worker busy time (reporting only).
    pub busy: Duration,
    /// Bit-fold of every host's [`HostSavings`] — the determinism
    /// witness compared across `jobs` values.
    pub checksum: u64,
    /// Fleet aggregate over the per-host savings.
    pub summary: FleetSummary,
}

/// Folds per-host savings into an order-sensitive checksum: any host
/// whose result changes, or any reordering, changes the digest. FNV-1a
/// over the byte counters in host-index order.
pub fn checksum_savings(hosts: &[HostSavings]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            digest ^= byte as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for h in hosts {
        mix(h.server_mem.as_u64());
        mix(h.workload_saved.as_u64());
        mix(h.datacenter_tax_saved.as_u64());
        mix(h.microservice_tax_saved.as_u64());
    }
    digest
}

/// Runs one `(hosts, jobs)` cell.
pub fn run_point(hosts: usize, jobs: usize) -> ScalePoint {
    let runner = FleetRunner::new(jobs);
    let (savings, stats) = runner
        .try_run(EXPERIMENT_SEED, hosts, run_host)
        .expect("scaling hosts are fault-free");
    eprintln!(
        "paper_scale hosts={hosts} jobs={jobs}: {}",
        stats.summary_line()
    );
    ScalePoint {
        hosts,
        jobs,
        effective_jobs: stats.jobs,
        shards: stats.shards,
        wall: stats.wall,
        busy: stats.total_busy(),
        checksum: checksum_savings(&savings),
        summary: summarize(&savings),
    }
}

/// Runs the whole sweep: every fleet size at every worker count, in
/// order. Each fleet size's cells are verified bit-identical across
/// worker counts before anything is reported.
pub fn simulate(scale: Scale) -> Vec<ScalePoint> {
    let mut points = Vec::new();
    for &hosts in fleet_sizes(scale) {
        for &jobs in &JOB_COUNTS {
            points.push(run_point(hosts, jobs));
        }
    }
    points
}

/// Parallel efficiency of `point` against the same fleet's `jobs = 1`
/// baseline: `wall(hosts, 1) / (effective_jobs · wall(hosts, jobs))`.
/// ≈ 1.0 means each effective worker pulled its full weight.
pub fn efficiency(baseline: &ScalePoint, point: &ScalePoint) -> f64 {
    let denom = point.effective_jobs as f64 * point.wall.as_secs_f64();
    if denom <= 0.0 {
        return 1.0;
    }
    baseline.wall.as_secs_f64() / denom
}

/// Renders the sweep as a `tmo-bench-v1` report (the schema
/// `bench-check paper-scale` consumes): one row per cell, wall/busy
/// normalised per host, `samples` = effective workers, `iters` = fleet
/// size.
pub fn scaling_report_json(points: &[ScalePoint], scale: Scale) -> String {
    let mode = match scale {
        Scale::Paper => "full",
        Scale::Quick => "smoke",
    };
    let mut out = String::from("{\n  \"schema\": \"tmo-bench-v1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n  \"results\": [\n"));
    for (i, p) in points.iter().enumerate() {
        let hosts = p.hosts.max(1) as f64;
        // Floor at 1ns/host so a pathologically fast smoke cell still
        // passes the report validator's positivity check.
        let wall_ns = (p.wall.as_nanos() as f64 / hosts).max(1.0);
        let busy_ns = (p.busy.as_nanos() as f64 / hosts).max(1.0);
        out.push_str(&format!(
            "    {{\"group\": \"paper_scale\", \"name\": \"hosts_{}_jobs_{}\", \
             \"median_ns\": {:.3}, \"mean_ns\": {:.3}, \"best_ns\": {:.3}, \
             \"samples\": {}, \"iters\": {}}}{}\n",
            p.hosts,
            p.jobs,
            wall_ns,
            wall_ns,
            busy_ns,
            p.effective_jobs,
            p.hosts,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the sweep and renders the deterministic half of the report.
/// Wall-clock goes to stderr and (if `TMO_SCALING_JSON` is set) to the
/// report file; stdout is bit-identical for every `--jobs N` — the
/// sweep drives its own worker counts, so the CLI runner is unused.
pub fn run(scale: Scale) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "extension-paper-scale",
        "shard-chunked fleet scaling: hosts × workers sweep with bit-identity checks",
    );
    let points = simulate(scale);

    // Group cells by fleet size and verify the determinism contract:
    // every worker count must reproduce the jobs=1 checksum exactly.
    let mut by_hosts: BTreeMap<usize, Vec<&ScalePoint>> = BTreeMap::new();
    for p in &points {
        by_hosts.entry(p.hosts).or_default().push(p);
    }
    out.line(format!(
        "{:<10} {:>14} {:>10} {:>18} {:>12}",
        "hosts", "jobs swept", "identical", "checksum", "savings"
    ));
    for (hosts, cells) in &by_hosts {
        let baseline = cells[0];
        let identical = cells.iter().all(|p| p.checksum == baseline.checksum);
        assert!(
            identical,
            "fleet of {hosts} hosts is not bit-identical across worker counts"
        );
        let jobs: Vec<String> = cells.iter().map(|p| p.jobs.to_string()).collect();
        out.line(format!(
            "{:<10} {:>14} {:>10} {:>18} {:>12}",
            hosts,
            jobs.join(","),
            "yes",
            format!("{:016x}", baseline.checksum),
            pct(baseline.summary.total_fraction),
        ));
    }
    out.line(String::new());
    out.line("checksums fold every host's savings bits in index order; a matching".to_string());
    out.line(format!(
        "row means jobs ∈ {{{}}} produced byte-identical fleets",
        JOB_COUNTS.map(|j| j.to_string()).join(","),
    ));
    out.line("wall-clock scaling is reported out-of-band: stderr + TMO_SCALING_JSON".to_string());

    // The wall-clock half: stderr table + optional tmo-bench-v1 file.
    for (hosts, cells) in &by_hosts {
        let baseline = cells[0];
        for p in cells.iter().skip(1) {
            eprintln!(
                "paper_scale hosts={hosts} jobs={}: eff_jobs={} wall={:.3}s efficiency={:.2}",
                p.jobs,
                p.effective_jobs,
                p.wall.as_secs_f64(),
                efficiency(baseline, p),
            );
        }
    }
    // lint: allow(determinism-taint) opt-in side-channel report path; stdout and the returned output are unaffected
    if let Some(path) = std::env::var_os("TMO_SCALING_JSON") {
        let json = scaling_report_json(&points, scale);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("paper_scale: failed to write {path:?}: {e}");
        } else {
            eprintln!("paper_scale: wrote scaling report to {path:?}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_is_deterministic_and_nonzero() {
        let a = run_point(200, 1);
        let b = run_point(200, 4);
        assert_eq!(a.checksum, b.checksum, "jobs must not change results");
        assert_eq!(a.hosts, 200);
        assert!(a.summary.total_fraction > 0.0, "hosts must actually save");
        assert_eq!(a.summary.hosts, 200);
    }

    #[test]
    fn oversubscribed_exact_runner_matches_clamped_runner() {
        // The clamped `new(8)` path and a genuinely 8-worker `exact(8)`
        // run must agree bit-for-bit — the merge path is exercised even
        // on a single-core machine.
        let clamped = FleetRunner::new(8)
            .try_run(EXPERIMENT_SEED, 120, run_host)
            .expect("fault-free")
            .0;
        let exact = FleetRunner::exact(8)
            .try_run(EXPERIMENT_SEED, 120, run_host)
            .expect("fault-free")
            .0;
        assert_eq!(clamped, exact);
        assert_eq!(checksum_savings(&clamped), checksum_savings(&exact));
    }

    #[test]
    fn checksum_is_order_and_value_sensitive() {
        let a = HostSavings {
            server_mem: ByteSize::from_mib(64),
            workload_saved: ByteSize::from_mib(8),
            datacenter_tax_saved: ByteSize::from_mib(2),
            microservice_tax_saved: ByteSize::from_mib(1),
        };
        let b = HostSavings {
            workload_saved: ByteSize::from_mib(9),
            ..a
        };
        assert_ne!(checksum_savings(&[a]), checksum_savings(&[b]));
        assert_ne!(
            checksum_savings(&[a, b]),
            checksum_savings(&[b, a]),
            "reordering hosts must change the digest"
        );
        assert_eq!(checksum_savings(&[a, b]), checksum_savings(&[a, b]));
    }

    #[test]
    fn scaling_report_parses_as_tmo_bench_v1_shape() {
        // Mirror of the cursor parser's key-order contract in
        // crates/bench: spot-check the exact key sequence here so a
        // drift fails in this crate too, not only in bench-check.
        let points = vec![run_point(64, 1), run_point(64, 2)];
        let json = scaling_report_json(&points, Scale::Quick);
        assert!(json.starts_with("{\n  \"schema\": \"tmo-bench-v1\",\n  \"mode\": \"smoke\","));
        let row = json.lines().nth(4).expect("first result row");
        for (a, b) in [
            ("\"group\"", "\"name\""),
            ("\"name\"", "\"median_ns\""),
            ("\"median_ns\"", "\"mean_ns\""),
            ("\"mean_ns\"", "\"best_ns\""),
            ("\"best_ns\"", "\"samples\""),
            ("\"samples\"", "\"iters\""),
        ] {
            let pa = row.find(a).unwrap_or_else(|| panic!("{a} missing: {row}"));
            let pb = row.find(b).unwrap_or_else(|| panic!("{b} missing: {row}"));
            assert!(pa < pb, "key order {a} < {b} violated: {row}");
        }
        assert!(json.contains("\"name\": \"hosts_64_jobs_1\""), "{json}");
        assert!(json.contains("\"iters\": 64"), "{json}");
    }
}
