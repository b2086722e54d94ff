//! Discrete-time simulation substrate for the TMO reproduction.
//!
//! This crate provides the deterministic foundation the rest of the stack
//! is built on:
//!
//! * [`time`] — simulated wall-clock types ([`SimTime`], [`SimDuration`])
//!   with nanosecond resolution and saturating arithmetic.
//! * [`units`] — size newtypes ([`ByteSize`], [`PageCount`]) so byte
//!   quantities and page quantities cannot be confused.
//! * [`rng`] — a seeded, deterministic random number generator
//!   ([`DetRng`]) plus the sampling distributions the simulator needs
//!   (exponential, log-normal, Zipf, Bernoulli) implemented from scratch
//!   so runs are bit-for-bit reproducible.
//! * [`series`] — lightweight metric recording ([`Series`], [`Recorder`])
//!   used by every experiment to capture the per-tick signals that the
//!   paper's figures plot.
//! * [`stats`] — constant-space streaming quantiles ([`P2Quantile`])
//!   for run-level percentiles.
//! * [`ewma`] — the time-decayed average ([`Ewma`]) behind PSI's
//!   running averages, and the event-rate estimate ([`RateCounter`])
//!   behind the reclaim-balancing rates and the SSD models.
//! * [`clock`] — the simulation clock and fixed-step tick loop driver.
//!
//! # Example
//!
//! ```
//! use tmo_sim::{Clock, SimDuration};
//!
//! let mut clock = Clock::new(SimDuration::from_millis(100));
//! assert_eq!(clock.now().as_secs_f64(), 0.0);
//! clock.tick();
//! assert_eq!(clock.now().as_millis(), 100);
//! ```

pub mod clock;
pub mod ewma;
pub mod rng;
pub mod seed_ns;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;

pub use clock::Clock;
pub use ewma::{Ewma, RateCounter};
pub use rng::{derive_host_seed, DetRng};
pub use series::{Recorder, Sample, Series, SeriesId};
pub use stats::P2Quantile;
pub use time::{SimDuration, SimTime};
pub use units::{ByteSize, PageCount};
