//! Synthetic workload models for the TMO reproduction.
//!
//! The paper's evaluation runs on Meta production applications whose
//! memory behaviour is characterised quantitatively in §2: coldness
//! histograms (Figure 2), anonymous/file splits (Figure 4), memory-tax
//! shares (Figure 3), and compressibility (4x for Web, 1.3–1.4x for ML
//! models, 3x fleet average). This crate synthesises workloads with
//! those published shapes:
//!
//! * [`temperature`] — page *temperature classes*: each class is a
//!   fraction of the footprint with a mean re-access interval; a
//!   Poisson planner turns that into per-tick access plans.
//! * [`profile`] — [`AppProfile`]: footprint, anon/file split,
//!   compressibility, temperature classes, latency sensitivity.
//! * [`apps`] — the named application profiles from the paper's
//!   figures.
//! * [`webserver`] — the Web RPS model: request admission throttled to
//!   a tail-latency target, reproducing the self-regulation of §4.2.
//! * [`tax`] — datacenter and microservice memory-tax sidecars (§2.3).
//!
//! How a workload changes over time (diurnal waves, flash crowds,
//! leaks, file churn) is not a profile property: the core's
//! `WorkloadModulator` hook, driven by the scenario engine, shapes it.
//!
//! # Example
//!
//! ```
//! use tmo_workload::apps;
//!
//! let feed = apps::feed();
//! // Figure 2: 30% of Feed's memory stays cold past 5 minutes.
//! assert!((feed.cold_fraction() - 0.30).abs() < 1e-9);
//! ```

pub mod apps;
pub mod profile;
pub mod tax;
pub mod temperature;
pub mod webserver;

pub use profile::AppProfile;
pub use temperature::{AccessPlanner, TemperatureClass};
pub use webserver::{DiurnalPattern, WebServerConfig, WebServerModel, PAGES_PER_REQUEST};
