//! The Senpai userspace controller (§3.3).
//!
//! Senpai answers TMO's "how much memory to offload" question: once
//! every few seconds, for each container, it computes
//!
//! ```text
//! reclaim_mem = current_mem × reclaim_ratio × max(0, 1 − PSI_some / PSI_threshold)
//! ```
//!
//! and asks the kernel to reclaim that amount through the stateless
//! `memory.reclaim` knob. As the container's `some` memory pressure
//! approaches the threshold the step shrinks, settling the workload at a
//! mild steady-state pressure where it holds exactly the memory it needs
//! to function well. The production configuration uses
//! `reclaim_ratio = 0.0005`, `PSI_threshold = 0.1%`, a 6-second period,
//! and a 1%-of-workload-size cap per period.
//!
//! Beyond the memory-pressure law, Senpai (per §3.3 and §4.5) also:
//!
//! * gates on **IO pressure**, because refaults it induces can hurt the
//!   workload through device contention without showing up as memory
//!   stalls (the Figure 13 Config-B failure mode);
//! * regulates **SSD write endurance**, modulating reclaim so the
//!   swap-out rate stays near a safe threshold (1 MB/s in the paper's
//!   fleet, Figure 14);
//! * backs off on **swap-space exhaustion**;
//! * respects container priorities (tax first, strict-SLA containers
//!   protected).
//!
//! Like production, which ships "a single globally optimal Senpai
//! configuration", one [`SenpaiConfig`] drives every container of a
//! host. Per-container tolerance comes from the signal instead:
//! [`ContainerSignal::protected`] containers are never reclaimed, and
//! [`ContainerSignal::relaxed`] ones (memory tax) run at four times
//! both pressure thresholds.
//!
//! # Example
//!
//! ```
//! use tmo_senpai::{ContainerSignal, Senpai, SenpaiConfig};
//! use tmo_sim::ByteSize;
//!
//! let senpai = Senpai::new(SenpaiConfig::production());
//! let calm = ContainerSignal {
//!     current_mem: ByteSize::from_gib(1),
//!     ..ContainerSignal::default()
//! };
//! // No pressure: reclaim the full ratio step (0.05% of 1 GiB).
//! let d = senpai.decide(&calm);
//! assert_eq!(d.reclaim, ByteSize::from_gib(1).mul_f64(0.0005));
//! ```

pub mod config;
pub mod controller;
pub mod oomd;

pub use config::SenpaiConfig;
pub use controller::{ContainerSignal, Limiter, ReclaimDecision, Senpai};
pub use oomd::{KillDecision, OomdConfig, OomdMonitor, OomdSignal};
