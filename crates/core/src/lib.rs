//! # TMO: Transparent Memory Offloading — reproduction library
//!
//! This crate is the top of the reproduction stack for *TMO: Transparent
//! Memory Offloading in Datacenters* (Weiner et al., ASPLOS '22). It
//! assembles the substrates — the PSI engine ([`tmo_psi`]), the kernel
//! memory-management simulator ([`tmo_mm`]), the offload backend device
//! models ([`tmo_backends`]), the workload profiles ([`tmo_workload`]),
//! and the Senpai / g-swap controllers ([`tmo_senpai`], [`tmo_gswap`]) —
//! into simulated datacenter hosts that can run every experiment in the
//! paper's evaluation.
//!
//! * [`machine`] — [`Machine`]: one host (DRAM, CPUs, cgroup tree, swap
//!   backend, filesystem SSD) running containerised workloads, with
//!   per-container PSI and metric recording.
//! * [`container`] — container instantiation from an
//!   [`tmo_workload::AppProfile`], including the Web RPS model and lazy
//!   anonymous-memory growth.
//! * [`runtime`] — [`TmoRuntime`]: the machine plus a controller
//!   (Senpai, g-swap, or none), closing the control loop each period.
//! * [`cost`] — the Figure 1 hardware cost model.
//! * [`fleet`] — multi-host aggregation for the fleet-wide savings
//!   figures.
//!
//! # Quickstart
//!
//! ```
//! use tmo::prelude::*;
//!
//! // A small host with a zswap backend.
//! let mut machine = Machine::new(MachineConfig {
//!     dram: ByteSize::from_mib(256),
//!     swap: SwapKind::Zswap {
//!         capacity_fraction: 0.3,
//!         allocator: ZswapAllocator::Zsmalloc,
//!     },
//!     ..MachineConfig::default()
//! });
//!
//! // Run the Feed profile under the production Senpai config.
//! let profile = tmo_workload::apps::feed().with_mem_total(ByteSize::from_mib(128));
//! machine.add_container(&profile);
//! let mut runtime = TmoRuntime::with_senpai(machine, SenpaiConfig::accelerated(20.0));
//! runtime.run(SimDuration::from_mins(5));
//!
//! // Senpai found Feed's cold memory and offloaded part of it.
//! let saved = runtime.machine().savings_fraction(ContainerId(0));
//! assert!(saved > 0.02, "saved {saved}");
//! ```

pub mod container;
pub mod cost;
pub mod fleet;
pub mod machine;
pub mod modulate;
pub mod runner;
pub mod runtime;

pub use container::{ContainerConfig, ContainerId};
pub use machine::{Machine, MachineConfig, MachineScratch, SwapKind};
pub use modulate::WorkloadModulator;
pub use runner::{FleetError, FleetRunner, FleetStats, HostCtx, HostOutcome, ShardArena};
pub use runtime::TmoRuntime;
pub use tmo_mm::ProvenanceCharge;

/// Convenient glob-import surface for examples and experiments.
pub mod prelude {
    pub use crate::container::{ContainerConfig, ContainerId};
    pub use crate::machine::{Machine, MachineConfig, MachineScratch, SwapKind};
    pub use crate::modulate::WorkloadModulator;
    pub use crate::runner::{FleetRunner, FleetStats, HostCtx, HostOutcome, ShardArena};
    pub use crate::runtime::TmoRuntime;
    pub use tmo_backends::{SsdModel, ZswapAllocator};
    pub use tmo_faults::FaultConfig;
    pub use tmo_gswap::GswapConfig;
    pub use tmo_mm::{CgroupId, ProvenanceCharge, ReclaimPolicy, ReclaimPriority};
    pub use tmo_psi::Resource;
    pub use tmo_senpai::{OomdConfig, SenpaiConfig};
    pub use tmo_sim::{ByteSize, SimDuration, SimTime};
    pub use tmo_workload::{apps, tax, AppProfile, WebServerConfig};
}
