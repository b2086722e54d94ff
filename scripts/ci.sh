#!/usr/bin/env bash
# Tier-1 verification plus lint gates. Run from anywhere; operates on
# the repo root. All cargo invocations are --offline: every dependency
# is a workspace path crate (including the proptest/criterion shims
# under shims/), so no registry access is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> seed stability: 1k-host jobs sweep (release)"
# The determinism contract at scale, as a hard gate: a 1000-host fleet
# swept across jobs ∈ {1,3,8} must produce a bit-identical FleetSummary
# (tests/seed_stability.rs). Release mode keeps the sweep to seconds and
# matches how the paper_scale experiment actually runs.
cargo test --release -q --offline --test seed_stability

echo "==> scenario stability: full catalog jobs sweep (release)"
# Every shipped adversarial scenario (tmo-scenarios catalog::all)
# replayed over a small fleet, in one grid pass per worker count, at
# jobs ∈ {1,4,8} must produce bit-identical ScenarioOutcomes — SLO reports, blame ledgers,
# and degradation scalars compared field-for-field
# (tests/scenario_stability.rs).
cargo test --release -q --offline --test scenario_stability

echo "==> blame ground truth: causal vs pro-rata differential (release)"
# Planted single-offender scenarios with counterfactual ground truth
# (tests/blame_ground_truth.rs): the provenance CausalLedger must name
# the planted offender on every host, carry strictly less per-edge
# charge error than the growth-pro-rata heuristic, and stay silent on
# steady innocent hosts. Release mode: one grid pass runs each host's
# event-free baseline once and every planted case beside it.
cargo test --release -q --offline --test blame_ground_truth

echo "==> benchmark package: build and test (release)"
# benchmark/ is its own workspace, so `cargo test --workspace` never
# compiles it, yet it calls the library APIs directly (run_scenario,
# Machine::with_scratch, Senpai::decide_for, ...). Building and testing
# it here makes an API change that breaks the benchmark fail CI.
cargo test --release -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark simulated output: four workloads at seed 1 vs golden"
# The benchmark's stdout is simulated values only (digest over every
# host's end state, simulated seconds, savings, pressure), identical for
# any --seconds, except each run's last line: the JSON result with the
# measured times, dropped here. The golden pins all four workloads, so
# a change that moves any simulated value on the benchmark's hosts
# fails here. About 20 s.
cargo build --release -q --offline --manifest-path benchmark/Cargo.toml
for workload in fleet_tiny zswap_steady ssd_write_regulated scenario_catalog; do
    benchmark/target/release/tmo-benchmark \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 2>/dev/null | sed '$d'
done | diff -u scripts/golden/benchmark_seed1.txt - \
    || { echo "benchmark output drifted from scripts/golden/benchmark_seed1.txt"; exit 1; }

echo "==> benchmark simulated counts: four workloads traced at seed 2 vs golden"
# With --trace 1 the benchmark also prints every simulated count behind
# its per-layer metrics (backends.{reads,writes,read_mib,written_mib,
# stored_mib}, the mm, PSI and controller counts), none of which the
# untraced run above prints. The golden pins them at a second seed, so
# a change meant to be speed-only cannot move a count unseen. Traced
# runs write their spans under bench-out/. About 17 s.
for workload in fleet_tiny zswap_steady ssd_write_regulated scenario_catalog; do
    benchmark/target/release/tmo-benchmark \
        --workload "$workload" --seed 2 --seconds 1 --trace 1 2>/dev/null | sed '$d'
done | diff -u scripts/golden/benchmark_seed2_trace.txt - \
    || { echo "traced benchmark output drifted from scripts/golden/benchmark_seed2_trace.txt"; exit 1; }

echo "==> tmo-lint: determinism contract gate"
# Static determinism analysis (DESIGN.md "Determinism contract"): the
# per-file rules (hash-ordered iteration, ambient wall-clock/entropy,
# unordered float reduction, unwrap in fault paths, atomics outside the
# shard cursor, seed-namespace hygiene) plus the interprocedural
# determinism-taint pass and the stale-allow audit. Any unannotated
# finding is a hard failure, exactly like clippy. The human-readable
# gate runs first so failures print rustc-style diagnostics; the SARIF
# artifact is emitted afterwards for tooling.
./target/release/tmo-lint --root .
./target/release/tmo-lint --root . --format sarif > target/tmo-lint.sarif
echo "    sarif artifact: target/tmo-lint.sarif"

echo "==> tmo-lint --allows vs golden"
# The allow-annotation inventory is pinned: a new escape hatch must be
# added to scripts/golden/lint_clean.txt in the same PR, so it shows up
# in review instead of slipping in silently.
./target/release/tmo-lint --root . --allows \
    | diff -u scripts/golden/lint_clean.txt - \
    || { echo "lint allow inventory drifted from scripts/golden/lint_clean.txt"; exit 1; }

echo "==> repro input boundary: bad flags fail with empty stdout"
# An unknown figure or experiment, or a bad --jobs value, must fail
# before anything runs: a non-zero exit, the error on stderr, and
# nothing on stdout. --all does not excuse an unknown --figure.
for bad in "--figure 99" "--all --figure 99" "--experiment nope" "--jobs x" "--jobs"; do
    # shellcheck disable=SC2086 # word-split the flags on purpose
    if out=$(./target/release/repro $bad 2>/dev/null); then
        echo "repro $bad exited 0"; exit 1
    fi
    [ -z "$out" ] || { echo "repro $bad wrote to stdout"; exit 1; }
done

echo "==> PSI worked example: figure 7 --quick vs golden"
# Figure 7 replays the paper's two-process some/full trace through
# PsiGroup::observe; the quarter table and the rendered
# /proc/pressure/memory lines pin the PSI accounting and its averages.
./target/release/repro --figure 7 --quick 2>/dev/null \
    | diff -u scripts/golden/fig07.txt - \
    || { echo "figure 7 output drifted from scripts/golden/fig07.txt"; exit 1; }

echo "==> chaos smoke: ext_chaos --quick --jobs 4 and 1 vs golden"
# Fault schedules are pure hashes of (seed, host index, tick), so the
# quick chaos sweep's stdout is byte-stable across runs and worker
# counts; a diff against the checked-in golden file catches any
# accidental nondeterminism or schedule drift. Every (intensity, host)
# pair runs in one grid pass, which deals each worker a different mix
# of cells at each worker count, so both counts must reproduce it.
for jobs in 4 1; do
    ./target/release/repro --experiment ext_chaos --quick --jobs "$jobs" 2>/dev/null \
        | diff -u scripts/golden/ext_chaos_quick.txt - \
        || { echo "ext_chaos --jobs $jobs output drifted from scripts/golden/ext_chaos_quick.txt"; exit 1; }
done

echo "==> figure suite: repro --all --jobs 4 vs docs/repro_output.txt"
# Every paper figure at full scale. Stdout is byte-identical for any
# --jobs N, so the checked-in transcript pins the whole suite: any
# change to a figure's numbers must regenerate it in the same change.
./target/release/repro --all --jobs 4 2>/dev/null \
    | diff -u docs/repro_output.txt - \
    || { echo "repro --all output drifted from docs/repro_output.txt"; exit 1; }

echo "==> adversarial smoke: ext_adversarial --quick --jobs 4 and 1 vs golden"
# The scenario engine draws only from FaultPlan hashes of (seed, host
# index, tick), so the quick adversarial sweep — degradation table,
# blame edges, and the paired A/B verdict — is byte-stable across runs
# and worker counts. Diffing against the golden pins both the engine's
# determinism and the SLO/blame scoring pipeline. Every catalog
# scenario and the config-B tier run in one grid pass, and the A/B
# verdict pairs config-B with the catalog's own flash_crowd runs.
for jobs in 4 1; do
    ./target/release/repro --experiment ext_adversarial --quick --jobs "$jobs" 2>/dev/null \
        | diff -u scripts/golden/ext_adversarial_quick.txt - \
        || { echo "ext_adversarial --jobs $jobs output drifted from scripts/golden/ext_adversarial_quick.txt"; exit 1; }
done

echo "==> blame-validation smoke: ext_blame_validation --quick --jobs 4 and 1 vs golden"
# Provenance tags reclaim with the already-chosen trigger and draws
# nothing, so the precision table is byte-stable across runs and
# worker counts. The golden pins the measured causal-vs-pro-rata
# differential (top-offender precision and per-edge charge error);
# the hard pass/fail thresholds live in tests/blame_ground_truth.rs.
# The event-free baseline and every planted case run in one grid pass,
# and each host's baseline is shared by all its planted cases, so both
# worker counts must reproduce the golden.
for jobs in 4 1; do
    ./target/release/repro --experiment ext_blame_validation --quick --jobs "$jobs" 2>/dev/null \
        | diff -u scripts/golden/ext_blame_validation_quick.txt - \
        || { echo "ext_blame_validation --jobs $jobs output drifted from scripts/golden/ext_blame_validation_quick.txt"; exit 1; }
done

echo "==> examples: stdout vs golden"
# The examples are the library's tutorial surface and call its public
# API directly; pinning their stdout (built in release, about 0.25 s for
# all six) keeps them compiling and keeps what they teach current.
cargo build --release -q --offline --examples
for example in quickstart psi_monitor tiered_hierarchy fleet_savings web_loadtest file_cache_anomaly; do
    "./target/release/examples/$example" 2>/dev/null
done | diff -u scripts/golden/examples.txt - \
    || { echo "example output drifted from scripts/golden/examples.txt"; exit 1; }

echo "==> recorder CSV: fig08 + fig11 --csv at quick and full scale vs golden checksums"
# The CSV export is the recorder's whole observable surface: every
# series name, sample time and value. fig08 mixes per-tick series with
# the sparse Feed.reclaim_mib and swap.read_p90_ms series, so the
# checksums pin both the strided and the explicit time storage. Quick
# scale holds 1,200 samples per series, inside one 4,096-sample column
# chunk; full scale holds 6,000, so its series cross a chunk boundary.
# Both together take about half a second.
for scale in quick full; do
    flag=""
    [ "$scale" = quick ] && flag="--quick"
    rm -rf "target/csv_$scale"
    # shellcheck disable=SC2086 # an empty $flag must vanish
    ./target/release/repro --figure 8 --figure 11 $flag --jobs 4 --csv "target/csv_$scale" >/dev/null 2>&1
    (cd "target/csv_$scale" && sha256sum -- *) | LC_ALL=C sort -k 2 \
        | diff -u "scripts/golden/csv_$scale.sha256" - \
        || { echo "recorder CSV drifted from scripts/golden/csv_$scale.sha256"; exit 1; }
done

echo "==> bench smoke: scripts/bench.sh --smoke"
# Compiles and exercises every benchmark with clamped sample counts and
# validates the emitted BENCH_*.json against the required-benchmark
# schema. Timings in smoke mode are meaningless; this gate is about the
# harness, the JSON shape, and keeping the benches compiling.
./scripts/bench.sh --smoke

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping"
fi

echo "==> cargo doc: rustdoc warnings are errors"
# Intra-doc links must name real items: a renamed or deleted API takes
# its doc links down with it instead of leaving them to rot.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --check"
    cargo fmt --check
else
    echo "==> rustfmt not installed; skipping"
fi

echo "==> ci.sh: all gates passed"
