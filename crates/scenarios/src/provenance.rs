//! Causal blame attribution from reclaim-pressure provenance.
//!
//! The growth-pro-rata [`BlameLedger::observe`] fill is a
//! heuristic: it charges a victim's stall to whoever *grew* that tick,
//! which conflates correlation with causation. This module holds the
//! causal alternative: the core [`tmo::Machine`] threads a provenance
//! tag through the memory manager's reclaim path (who was allocating
//! when this page was pushed out?), and every refault or direct-reclaim
//! stall is charged to the cgroup that actually triggered the eviction
//! — at the reclaim decision point, not post-hoc from resident-growth
//! series. [`run_scenario`](crate::run_scenario) drains those charges
//! each tick into a second [`BlameLedger`] through
//! [`BlameLedger::charge`].
//!
//! The second half of the module is the validation harness the ledger
//! ships with: [`PlantedScenario`]s with a *known* single offender, and
//! [`evaluate_planted`], which compares the planted run's outcome with
//! its baseline's (the same host seed without the planted event) to
//! derive counterfactual ground truth, then scores both ledgers on
//! top-offender precision and per-edge charge error. This is the blame
//! ground-truth differential suite.

use crate::blame::BlameLedger;
use crate::run::ScenarioOutcome;
use crate::scenario::Scenario;
use tmo_sim::SimDuration;

/// The causal ledger: a [`BlameLedger`] filled through
/// [`BlameLedger::charge`] from drained [`tmo::ProvenanceCharge`]s
/// instead of growth coincidence. The alias exists only because the
/// benchmark package (`benchmark/`, its own workspace) builds it as
/// `CausalLedger::new`; new code names [`BlameLedger`].
pub type CausalLedger = BlameLedger;

/// A scenario with a *known* single offender, paired with its
/// offender-free baseline for counterfactual ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedScenario {
    /// The scenario containing exactly one misbehaving container.
    pub scenario: Scenario,
    /// The same scenario with the planted event removed (here: no
    /// events at all — every other container is steady by design).
    pub baseline: Scenario,
    /// Container index of the planted offender.
    pub offender: usize,
}

/// Planted-offender builders: each misbehaves exactly one container
/// while every other container runs steady, so the blame answer has a
/// known ground truth.
pub mod planted {
    use super::*;
    use crate::event::{EventKind, Target, Window};
    use tmo_sim::{ByteSize, SimTime};

    fn window(run: SimDuration, start: f64, len: f64) -> Window {
        Window::new(
            SimTime::from_secs((run.as_secs_f64() * start) as u64),
            SimDuration::from_secs((run.as_secs_f64() * len) as u64),
        )
    }

    /// `offender` leaks ~40% of DRAM per minute from 20% in to the end.
    ///
    /// The rate is deliberately brutal: a gentle leak is *absorbed* by
    /// TMO — reclaim eats the leaker's own cold pages first, zswap
    /// swallows the overflow, and the neighbours never stall, leaving
    /// no causal signal to validate (the counterfactual stall delta is
    /// milliseconds). The plant must outrun the offload machinery so
    /// direct reclaim genuinely bites the victims' warm memory.
    pub fn leak(run: SimDuration, dram: ByteSize, offender: usize) -> PlantedScenario {
        let rate = ByteSize::new((dram.as_u64() as f64 * 0.40 / 60.0) as u64);
        PlantedScenario {
            scenario: Scenario::new("planted_leak", "single planted leaker, all else steady")
                .with_event(
                    Target::Container(offender),
                    window(run, 0.2, 0.8),
                    EventKind::MemoryLeak { rate },
                ),
            baseline: Scenario::new("planted_leak_baseline", "the same host, no leak"),
            offender,
        }
    }

    /// `offender` churns write-once file cache at ~100% of DRAM per
    /// minute from 20% in to the end (sized like [`leak`]: weaker
    /// spikes are fully absorbed by the offload path and leave no
    /// counterfactual victim stall to attribute).
    pub fn spike(run: SimDuration, dram: ByteSize, offender: usize) -> PlantedScenario {
        let churn = ByteSize::new(dram.as_u64() / 60);
        PlantedScenario {
            scenario: Scenario::new(
                "planted_spike",
                "single planted churn spike, all else steady",
            )
            .with_event(
                Target::Container(offender),
                window(run, 0.2, 0.8),
                EventKind::SidecarSpike { churn },
            ),
            baseline: Scenario::new("planted_spike_baseline", "the same host, no spike"),
            offender,
        }
    }

    /// The whole planted set against one offender, in report order.
    pub fn all(run: SimDuration, dram: ByteSize, offender: usize) -> Vec<PlantedScenario> {
        vec![leak(run, dram, offender), spike(run, dram, offender)]
    }
}

/// One planted scenario's differential verdict: how each ledger did
/// against the counterfactual ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthRow {
    /// Planted scenario name.
    pub scenario: String,
    /// The planted offender's container index.
    pub offender: usize,
    /// The causal ledger's top cross-container offender.
    pub causal_top: Option<usize>,
    /// The pro-rata ledger's top cross-container offender.
    pub prorata_top: Option<usize>,
    /// Causal ledger's per-edge L1 charge error vs ground truth,
    /// seconds, over cross-container edges.
    pub causal_err_secs: f64,
    /// Pro-rata ledger's per-edge L1 charge error, same units.
    pub prorata_err_secs: f64,
    /// Total counterfactual extra stall the planted event caused
    /// across all victims, seconds (the mass being attributed).
    pub extra_stall_secs: f64,
}

impl GroundTruthRow {
    /// Whether the causal ledger named the planted offender.
    pub fn causal_hit(&self) -> bool {
        self.causal_top == Some(self.offender)
    }

    /// Whether the pro-rata heuristic named the planted offender.
    pub fn prorata_hit(&self) -> bool {
        self.prorata_top == Some(self.offender)
    }
}

/// Per-edge L1 error of a ledger against the planted ground truth,
/// summed over cross-container edges only (self-charges are a policy
/// choice, not an attribution error).
fn cross_edge_error(ledger: &BlameLedger, offender: usize, gt_extra: &[f64]) -> f64 {
    let n = ledger.len();
    let mut err = 0.0;
    for (victim, &extra) in gt_extra.iter().enumerate().take(n) {
        for o in 0..n {
            if o == victim {
                continue;
            }
            let truth = if o == offender && victim != offender {
                extra
            } else {
                0.0
            };
            err += (ledger.charged(victim, o) - truth).abs();
        }
    }
    err
}

/// Scores both ledgers of `with`, the planted scenario's outcome on one
/// host, against the counterfactual ground truth: the extra stall each
/// victim suffered *because* the planted event ran, over `baseline`,
/// the outcome of [`PlantedScenario::baseline`] on an
/// identically-seeded host. [`run_scenario`](crate::run_scenario) reads
/// a scenario's name only as a label, so planted cases with the same
/// baseline events and faults can share one baseline run per host.
pub fn evaluate_planted(
    planted: &PlantedScenario,
    with: &ScenarioOutcome,
    baseline: &ScenarioOutcome,
) -> GroundTruthRow {
    let n = with.reports.len();
    let gt_extra: Vec<f64> = (0..n)
        .map(|v| {
            if v == planted.offender {
                // The offender's own extra stall is self-inflicted by
                // definition; ground truth has no cross edge for it.
                0.0
            } else {
                (with.reports[v].stall_secs - baseline.reports[v].stall_secs).max(0.0)
            }
        })
        .collect();
    GroundTruthRow {
        scenario: planted.scenario.name.clone(),
        offender: planted.offender,
        causal_top: with.causal.top_cross_offender().map(|(o, _)| o),
        prorata_top: with.blame.top_cross_offender().map(|(o, _)| o),
        causal_err_secs: cross_edge_error(&with.causal, planted.offender, &gt_extra),
        prorata_err_secs: cross_edge_error(&with.blame, planted.offender, &gt_extra),
        extra_stall_secs: gt_extra.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmo_sim::SimDuration;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn edge_error_is_zero_for_a_perfect_ledger() {
        // Ground truth: offender 1 cost victim 0 exactly 2 s.
        let gt = [2.0, 0.0];
        let mut perfect = BlameLedger::new(2);
        perfect.charge(0, 1, secs(2.0));
        assert_eq!(cross_edge_error(&perfect, 1, &gt), 0.0);
        // A ledger that split the charge across both neighbours pays
        // for both the shortfall and the phantom edge.
        let mut sloppy = BlameLedger::new(2);
        sloppy.charge(0, 1, secs(1.0));
        sloppy.charge(1, 0, secs(1.0));
        assert_eq!(cross_edge_error(&sloppy, 1, &gt), 2.0);
    }

    #[test]
    fn planted_builders_have_one_offender_and_steady_baselines() {
        let run = SimDuration::from_mins(4);
        let dram = tmo_sim::ByteSize::from_mib(256);
        for p in planted::all(run, dram, 1) {
            assert_eq!(p.offender, 1);
            assert_eq!(p.scenario.events.len(), 1, "{}", p.scenario.name);
            assert!(p.baseline.events.is_empty(), "{}", p.scenario.name);
            assert_eq!(
                p.scenario.events[0].target,
                crate::event::Target::Container(1)
            );
            assert!(!p.scenario.events[0].window.is_empty());
        }
    }
}
