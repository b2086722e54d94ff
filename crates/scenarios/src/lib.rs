//! # tmo-scenarios: adversarial scenario engine
//!
//! Production memory offloading is judged on its worst days: traffic
//! waves, flash crowds, slow leaks, sidecar bloat, deployment storms —
//! usually several at once, on top of flaky infrastructure. This crate
//! scripts those days against the simulated hosts of the [`tmo`] core
//! and scores how the control plane (Senpai + oomd) holds up.
//!
//! The pieces, in data-flow order:
//!
//! * [`event`] — the vocabulary: [`ScenarioEvent`]s pairing an
//!   [`EventKind`] (flash crowd, diurnal wave, memory leak, sidecar
//!   churn spike, churn storm) with a [`Target`] and a time [`Window`].
//! * [`scenario`] — [`Scenario`] scripts plus the shipped
//!   [`catalog`](scenario::catalog), parametrised by run length and
//!   DRAM so magnitudes scale with the experiment.
//! * [`engine`] — [`ScenarioEngine`] compiles a script into a
//!   [`tmo::WorkloadModulator`]: a pure `(tick, container)` → behaviour
//!   function, hash-driven like
//!   [`tmo_faults::FaultPlan`], so modulated fleets stay bit-identical
//!   for any `--jobs N`.
//! * [`slo`] — [`SloTracker`] scores each container against a stall
//!   budget, kill count, and per-event time-to-recover, producing
//!   [`SloReport`]s and one scalar degradation number.
//! * [`blame`] — [`BlameLedger`], the one victim×offender matrix of
//!   stalled seconds: "who caused whose pressure". It fills either
//!   pro-rata by footprint growth ([`BlameLedger::observe`]) or from
//!   reclaim-pressure provenance threaded through the core
//!   [`tmo::Machine`] ([`BlameLedger::charge`]).
//! * [`provenance`] — the planted-offender ground-truth harness that
//!   scores both fills, and [`CausalLedger`], the provenance-filled
//!   ledger's name kept as an alias.
//! * [`trace`] — [`RecordedTrace`], a versioned byte format for
//!   recorded per-container demand/leak/churn series, compiled into
//!   scenario event lists.
//! * [`run`] — [`run_scenario`] wires all of the above around a
//!   [`tmo::TmoRuntime`] tick loop.
//! * [`ab`] — [`paired_significance`] compares two controller configs
//!   on identically-seeded traffic with a paired t-statistic.
//!
//! # Example
//!
//! ```
//! use tmo::prelude::*;
//! use tmo_scenarios::prelude::*;
//!
//! let dram = ByteSize::from_mib(256);
//! let run = SimDuration::from_mins(2);
//! let mut machine = Machine::new(MachineConfig {
//!     dram,
//!     swap: SwapKind::Zswap {
//!         capacity_fraction: 0.25,
//!         allocator: ZswapAllocator::Zsmalloc,
//!     },
//!     seed: 7,
//!     ..MachineConfig::default()
//! });
//! machine.add_container(&tmo_workload::apps::feed().with_mem_total(dram.mul_f64(0.4)));
//! machine.add_container(&tmo_workload::tax::datacenter_tax(dram));
//!
//! let scenario = catalog::flash_crowd(run, dram);
//! let cfg = ScenarioRunConfig {
//!     senpai: SenpaiConfig::accelerated(40.0),
//!     oomd: Some(OomdConfig::default()),
//!     slo: SloConfig::default(),
//!     duration: run,
//! };
//! let (outcome, _machine) = run_scenario(machine, &scenario, &cfg);
//! assert_eq!(outcome.reports.len(), 2);
//! assert!(outcome.total_degradation >= 0.0);
//! ```

pub mod ab;
pub mod blame;
pub mod engine;
pub mod event;
pub mod provenance;
pub mod run;
pub mod scenario;
pub mod slo;
pub mod trace;

pub use ab::{paired_significance, Significance};
pub use blame::{BlameAttribution, BlameLedger};
pub use engine::ScenarioEngine;
pub use event::{EventKind, ScenarioEvent, Target, Window};
pub use provenance::{evaluate_planted, CausalLedger, GroundTruthRow, PlantedScenario};
pub use run::{run_scenario, ScenarioOutcome, ScenarioRunConfig};
pub use scenario::Scenario;
pub use slo::{SloConfig, SloReport, SloTracker};
pub use trace::{ContainerTrace, RecordedTrace, TraceError, TraceSample};

/// Glob-import surface for experiments and tests.
pub mod prelude {
    pub use crate::ab::{paired_significance, Significance};
    pub use crate::blame::{BlameAttribution, BlameLedger};
    pub use crate::engine::ScenarioEngine;
    pub use crate::event::{EventKind, ScenarioEvent, Target, Window};
    pub use crate::provenance::{
        evaluate_planted, planted, CausalLedger, GroundTruthRow, PlantedScenario,
    };
    pub use crate::run::{run_scenario, ScenarioOutcome, ScenarioRunConfig};
    pub use crate::scenario::{catalog, Scenario};
    pub use crate::slo::{SloConfig, SloReport, SloTracker};
    pub use crate::trace::{ContainerTrace, RecordedTrace, TraceError, TraceSample};
}
