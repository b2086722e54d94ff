//! Pressure Stall Information (PSI) for the TMO reproduction.
//!
//! PSI is the Linux kernel mechanism introduced by the TMO paper
//! (Weiner et al., ASPLOS '22, §3.2) that measures, in real time, the
//! amount of *lost work* due to a shortage of CPU, memory, or I/O. This
//! crate implements PSI's accounting model exactly as the paper defines
//! it:
//!
//! * For each resource, the **`some`** metric tracks the share of wall
//!   time during which *at least one* non-idle task in the domain was
//!   stalled waiting on that resource.
//! * The **`full`** metric tracks the share of wall time during which
//!   *all* non-idle tasks were stalled simultaneously — completely
//!   unproductive time.
//!
//! The engine is *exact*: per observation window, every non-idle task's
//! stall intervals arrive in one [`SpanBatch`], and `some`/`full` are
//! computed as the measure of the union / intersection of those sets
//! ([`intervals`]). Totals accumulate in nanoseconds and are folded into
//! avg10 / avg60 / avg300 exponential running averages, mirroring the
//! kernel's `/proc/pressure/*` files ([`avg`], [`render`]).
//!
//! # Example
//!
//! ```
//! use tmo_psi::{PsiGroup, Resource, SpanBatch};
//! use tmo_sim::SimDuration;
//!
//! let mut psi = PsiGroup::new();
//! let window = SimDuration::from_secs(1);
//!
//! // Two non-idle tasks; the first stalled on memory for 100 ms of the
//! // 1 s window.
//! let mut batch = SpanBatch::new();
//! batch.push_non_idle_task();
//! batch.push_span(Resource::Memory, 0, 100_000_000);
//! batch.push_non_idle_task();
//! psi.observe(window, &batch);
//!
//! let snap = psi.snapshot(Resource::Memory);
//! assert!((snap.some_ratio_last_window - 0.1).abs() < 1e-9);
//! assert_eq!(snap.full_ratio_last_window, 0.0);
//! ```

pub mod avg;
pub mod group;
pub mod intervals;
pub mod render;
pub mod state;

pub use avg::RunningAvg;
pub use group::{PsiGroup, PsiSnapshot, Resource, SpanBatch};
pub use intervals::{Interval, IntervalSet, SweepScratch};
pub use render::render_pressure_file;
