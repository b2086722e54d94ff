//! Blame ground-truth differential gate (hard CI gate).
//!
//! The growth-pro-rata `BlameLedger` is a heuristic; the provenance
//! `CausalLedger` claims to be causal. This suite is what makes either
//! claim falsifiable: every planted single-offender scenario (one
//! container leaks or churns, everything else steady) is replayed with
//! and without the plant on seeded-identical hosts, the counterfactual
//! stall delta becomes the ground-truth charge matrix, and both
//! ledgers are scored against it. The gate requires:
//!
//! 1. **Perfect planted precision** — the causal ledger's top
//!    cross-container offender is the planted offender on *every* host
//!    of *every* planted case;
//! 2. **Strict differential win** — the causal ledger's per-edge L1
//!    charge error is strictly below the pro-rata heuristic's, summed
//!    over the planted set;
//! 3. **Silence on innocent hosts** — a steady baseline run charges
//!    nothing across container boundaries (no phantom antagonists).
//!
//! The same rows render as the `ext_blame_validation` golden, so a
//! regression shows up both here and as a byte diff in CI.

use tmo::runner::FleetRunner;
use tmo::MachineScratch;
use tmo_experiments::ext_adversarial::build_host;
use tmo_experiments::ext_blame_validation::{planted_cases, run_config, simulate, POOL_FRACTION};
use tmo_experiments::Scale;
use tmo_repro::{tmo, tmo_scenarios};
use tmo_scenarios::prelude::*;

#[test]
fn causal_ledger_names_the_planted_offender_on_every_host() {
    let cases = simulate(&FleetRunner::new(2), Scale::Quick);
    assert!(!cases.is_empty());
    for c in &cases {
        assert!(c.hosts > 0, "no hosts survived {c:?}");
        assert_eq!(
            c.causal_hits, c.hosts,
            "causal ledger missed the planted offender: {c:?}"
        );
        assert!(
            c.extra_stall_secs >= 0.0,
            "counterfactual stall must be non-negative: {c:?}"
        );
    }
}

#[test]
fn causal_ledger_strictly_beats_growth_pro_rata_on_edge_error() {
    let cases = simulate(&FleetRunner::new(2), Scale::Quick);
    let causal: f64 = cases.iter().map(|c| c.causal_err_secs).sum();
    let prorata: f64 = cases.iter().map(|c| c.prorata_err_secs).sum();
    assert!(
        causal < prorata,
        "causal per-edge error {causal:.3}s must be strictly below pro-rata {prorata:.3}s \
         ({cases:?})"
    );
}

#[test]
fn steady_hosts_accuse_no_one() {
    // An innocent host must stay innocent: with no planted offender the
    // causal ledger may self-charge (Senpai squeezing each container is
    // that container's own business) but must not invent cross-container
    // antagonists. Pro-rata cannot make this guarantee — that asymmetry
    // is the point of provenance.
    let scale = Scale::Quick;
    let cfg = run_config(scale);
    let steady = Scenario::new("steady_innocent", "no events at all");
    for seed in [7u64, 1234] {
        let machine = build_host(seed, scale, POOL_FRACTION, None, MachineScratch::default());
        let (outcome, _) = run_scenario(machine, &steady, &cfg);
        let n = outcome.causal.len();
        for v in 0..n {
            for o in 0..n {
                if v != o {
                    assert_eq!(
                        outcome.causal.charged(v, o),
                        0.0,
                        "phantom causal edge {v}<-{o} on a steady host (seed {seed})"
                    );
                }
            }
        }
        assert_eq!(outcome.causal.top_cross_offender(), None);
    }
}

#[test]
fn planted_verdicts_are_bit_identical_across_jobs() {
    // The provenance path is part of the sim: the whole differential
    // table must not care how many workers computed it.
    let seq = simulate(&FleetRunner::sequential(), Scale::Quick);
    for jobs in [4usize, 8] {
        let par = simulate(&FleetRunner::exact(jobs), Scale::Quick);
        assert_eq!(seq, par, "ground-truth table diverged at jobs={jobs}");
    }
}

#[test]
fn every_planted_case_has_exactly_one_offender_event() {
    for case in planted_cases(Scale::Quick) {
        assert_eq!(
            case.scenario.events.len(),
            1,
            "{} is not single-offender",
            case.scenario.name
        );
        assert!(case.baseline.events.is_empty());
        assert_eq!(
            case.scenario.events[0].target,
            Target::Container(case.offender)
        );
    }
}
