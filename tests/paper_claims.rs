//! Integration tests asserting the paper's qualitative claims hold in
//! the reproduction at reduced (Quick) scale. Each test names the claim
//! and the section/figure it comes from.

use tmo_experiments::{ablate, fig02, fig07, fig09, fig11, fig12, fig13, FleetRunner, Scale};
use tmo_repro::{tmo_mm, tmo_workload};

#[test]
fn claim_s2_2_cold_memory_averages_a_third_of_footprints() {
    // §2.2: "the memory offloading opportunity (i.e., fraction of cold
    // memory) averages about 35% ... in a range of 19-62%".
    let rows: Vec<_> = tmo_workload::apps::figure2_apps()
        .iter()
        .map(|app| fig02::measure(app, Scale::Quick))
        .collect();
    let avg = rows.iter().map(|r| r.cold).sum::<f64>() / rows.len() as f64;
    assert!((avg - 0.35).abs() < 0.05, "average cold fraction {avg}");
    assert!(rows.iter().any(|r| r.cold < 0.25), "a hot app exists");
    assert!(rows.iter().any(|r| r.cold > 0.55), "a cold app exists");
}

#[test]
fn claim_s3_2_psi_worked_example_is_exact() {
    // Figure 7's annotated quarters reproduce exactly.
    let (rows, _) = fig07::replay();
    assert_eq!(rows.len(), 4);
    assert!((rows[0].some - 0.125).abs() < 1e-12);
    assert!((rows[1].full - 0.0625).abs() < 1e-12);
}

#[test]
fn claim_s4_1_savings_differ_by_backend_fit() {
    // §4.1: compressible apps save on zswap; quantized byte-encoded
    // models need SSD because their net zswap savings collapse.
    let compressible = fig09::measure(&tmo_workload::apps::web(), true, Scale::Quick);
    let quantized_on_zswap = fig09::measure(&tmo_workload::apps::ml(), true, Scale::Quick);
    let quantized_on_ssd = fig09::measure(&tmo_workload::apps::ml(), false, Scale::Quick);
    assert!(compressible.savings.total() > 0.03);
    assert!(
        quantized_on_ssd.savings.anon_fraction > quantized_on_zswap.savings.anon_fraction * 1.5,
        "ssd {} vs zswap {}",
        quantized_on_ssd.savings.anon_fraction,
        quantized_on_zswap.savings.anon_fraction
    );
}

#[test]
fn claim_s4_2_tmo_eliminates_memory_bound_rps_decay() {
    // Figure 11: the baseline tier decays; TMO's zswap tier does not.
    let phases = fig11::simulate(&FleetRunner::default(), Scale::Quick);
    let drop = |p: &fig11::PhaseResult| 1.0 - p.late_rps / p.early_rps.max(1.0);
    assert!(drop(&phases[0]) - drop(&phases[2]) > 0.05);
}

#[test]
fn claim_s4_3_promotion_rate_contradicts_performance() {
    // §4.3: "with a faster offloading device, a higher promotion rate
    // actually improves the application's performance" — i.e. promotion
    // rate and RPS move together across devices, not inversely.
    let (fast, slow) = fig12::simulate(Scale::Quick);
    assert!(fast.promotion_rate >= slow.promotion_rate);
    assert!(fast.rps >= slow.rps * 0.98);
    // And the controller held pressure in the same regime on both.
    assert!(fast.mem_pressure < 1.0);
    assert!(slow.mem_pressure < 1.0);
}

#[test]
fn claim_s4_4_aggressive_config_regresses_through_io() {
    // Figure 13: Config B's damage shows up in IO pressure and the file
    // cache, not primarily in memory pressure.
    let tiers = fig13::simulate(&FleetRunner::default(), Scale::Quick);
    let (a, b) = (&tiers[1], &tiers[2]);
    assert!(b.io_pressure > a.io_pressure);
    assert!(b.ssd_read_iops > a.ssd_read_iops);
    assert!(b.rps < a.rps);
}

#[test]
fn claim_s3_4_refault_balancing_reduces_paging() {
    // §3.4: balancing by refault/swap-in rates minimises the aggregate
    // amount of paging relative to the legacy file-first heuristic.
    let balanced = ablate::reclaim_balance(tmo_mm::ReclaimPolicy::RefaultBalanced, Scale::Quick);
    let legacy = ablate::reclaim_balance(tmo_mm::ReclaimPolicy::LegacyFileFirst, Scale::Quick);
    assert!(
        legacy.refault_rate > balanced.refault_rate,
        "legacy refaults {} vs balanced {}",
        legacy.refault_rate,
        balanced.refault_rate
    );
}

#[test]
fn claim_s3_3_stateless_knob_does_not_block_growth() {
    // §3.3: the memory.max driver can block a rapidly expanding
    // workload; memory.reclaim cannot.
    let stateless = ablate::reclaim_knob(true, Scale::Quick);
    let stateful = ablate::reclaim_knob(false, Scale::Quick);
    assert_eq!(stateless.alloc_failures, 0);
    assert!(stateful.alloc_failures > 0);
}
