//! Offload backend device models for the TMO reproduction.
//!
//! TMO (§2.5, §3.4.1) offloads cold memory to a *memory offload
//! backend*: in production either an NVMe SSD swap device or a zswap
//! compressed-memory pool. The defining property of the fleet is
//! *heterogeneity* — p99 read latency alone spans 470 µs to 9.3 ms
//! across SSD generations (Figure 5) — and TMO's central claim is that
//! a PSI-driven controller adapts to that heterogeneity automatically.
//!
//! This crate models those devices:
//!
//! * [`SsdDevice`] — an NVMe SSD with log-normal access latency, an
//!   IOPS-capacity congestion model ([`queue`]), and endurance (pTBW)
//!   accounting. The fleet catalog of devices A–G from Figure 5 lives in
//!   [`catalog`].
//! * [`ZswapPool`] — a compressed-memory pool with a configurable
//!   allocator model (zsmalloc / zbud / z3fold, §5.1) and ~40 µs reads.
//! * [`TieredBackend`] — the §5.2 future-work hierarchy: zswap for warm
//!   compressible pages over SSD for cold or incompressible ones, with
//!   background demotion.
//!
//! All devices implement [`OffloadBackend`], the interface the machine
//! and reclaim layers program against.
//!
//! # Example
//!
//! ```
//! use tmo_backends::{catalog, IoKind, OffloadBackend};
//! use tmo_sim::{ByteSize, DetRng};
//!
//! let mut ssd = catalog::fleet_device(catalog::SsdModel::C); // the "fast SSD"
//! let mut rng = DetRng::seed_from_u64(1);
//! let latency = ssd.access(IoKind::Read, ByteSize::from_kib(4), &mut rng);
//! assert!(latency.as_micros() > 0);
//! ```

pub mod catalog;
pub mod queue;
pub mod slab;
pub mod ssd;
pub mod tiered;
pub mod traits;
pub mod zswap;

pub use catalog::SsdModel;
pub use queue::CongestionModel;
pub use slab::TokenSlab;
pub use ssd::SsdDevice;
pub use tiered::TieredBackend;
pub use traits::{BackendKind, BackendStats, DeviceFault, IoKind, OffloadBackend, StoreOutcome};
pub use zswap::{ZswapAllocator, ZswapPool};
