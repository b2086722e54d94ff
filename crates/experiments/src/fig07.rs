//! Figure 7: the PSI `some`/`full` worked example.
//!
//! Two processes run over a normalised window split into four quarters;
//! the figure annotates Q1 as 12.5% `some` (one process stalled at a
//! time) and Q2 as 6.25% `full` plus 18.75% additional `some`. This
//! experiment replays that exact trace through the PSI engine and
//! verifies the accounting.

use tmo_psi::{render_pressure_file, IntervalSet, PsiGroup, Resource, SpanBatch};
use tmo_sim::SimDuration;

use crate::report::{pct, ExperimentOutput};

/// One quarter's accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarterRow {
    /// Quarter number, 1-based.
    pub quarter: u32,
    /// `some` ratio within the quarter.
    pub some: f64,
    /// `full` ratio within the quarter.
    pub full: f64,
}

/// Quarter length of the replayed trace.
const QUARTER: u64 = 1_000_000_000;
/// One 6.25% stall unit.
const U: u64 = QUARTER / 16;

fn quarter_trace(q: u32) -> (IntervalSet, IntervalSet) {
    match q {
        // Q1: A and B stall 6.25% each, never simultaneously.
        1 => (
            IntervalSet::from_spans(&[(0, U)]),
            IntervalSet::from_spans(&[(QUARTER / 2, QUARTER / 2 + U)]),
        ),
        // Q2: A stalls [0, 3u), B [2u, 4u): 6.25% overlap (full),
        // 18.75% exclusive (some beyond full), union 25%.
        2 => (
            IntervalSet::from_spans(&[(0, 3 * U)]),
            IntervalSet::from_spans(&[(2 * U, 4 * U)]),
        ),
        // Q3: only A stalls, 12.5%.
        3 => (IntervalSet::from_spans(&[(0, 2 * U)]), IntervalSet::new()),
        // Q4: both stall the same 6.25%: some == full.
        4 => (
            IntervalSet::from_spans(&[(0, U)]),
            IntervalSet::from_spans(&[(0, U)]),
        ),
        _ => unreachable!("four quarters"),
    }
}

/// Replays the trace, returning per-quarter rows and the final pressure
/// state.
pub fn replay() -> (Vec<QuarterRow>, PsiGroup) {
    let mut psi = PsiGroup::new();
    let mut batch = SpanBatch::new();
    let mut rows = Vec::new();
    for q in 1..=4 {
        let (a_stalls, b_stalls) = quarter_trace(q);
        batch.clear();
        for stalls in [a_stalls, b_stalls] {
            batch.push_non_idle_task();
            for iv in stalls.intervals() {
                batch.push_span(Resource::Memory, iv.start, iv.end);
            }
        }
        psi.observe(SimDuration::from_nanos(QUARTER), &batch);
        let snap = psi.snapshot(Resource::Memory);
        rows.push(QuarterRow {
            quarter: q,
            some: snap.some_ratio_last_window,
            full: snap.full_ratio_last_window,
        });
    }
    (rows, psi)
}

/// Regenerates Figure 7.
pub fn run() -> ExperimentOutput {
    let mut out = ExperimentOutput::new("figure-07", "PSI some/full worked example");
    let (rows, psi) = replay();
    out.line(format!(
        "{:<10} {:>8} {:>8} {:>12}",
        "Quarter", "some", "full", "some-not-full"
    ));
    for row in &rows {
        out.line(format!(
            "Q{:<9} {:>8} {:>8} {:>12}",
            row.quarter,
            pct(row.some),
            pct(row.full),
            pct(row.some - row.full)
        ));
    }
    out.line("paper Q1: some accounts 12.5%;  Q2: full 6.25% + some 18.75%".to_string());
    out.line(String::new());
    out.line("/proc/pressure/memory after the full window:".to_string());
    for l in render_pressure_file(&psi.snapshot(Resource::Memory)).lines() {
        out.line(format!("  {l}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter1_matches_paper_annotation() {
        let (rows, _) = replay();
        assert!((rows[0].some - 0.125).abs() < 1e-12);
        assert_eq!(rows[0].full, 0.0);
    }

    #[test]
    fn quarter2_matches_paper_annotation() {
        let (rows, _) = replay();
        assert!((rows[1].full - 0.0625).abs() < 1e-12);
        assert!((rows[1].some - rows[1].full - 0.1875).abs() < 1e-12);
    }

    #[test]
    fn quarter4_full_equals_some() {
        let (rows, _) = replay();
        assert_eq!(rows[3].some, rows[3].full);
        assert!((rows[3].full - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate_across_quarters() {
        let (rows, psi) = replay();
        let expected: f64 = rows.iter().map(|r| r.some).sum::<f64>() / 4.0;
        let snap = psi.snapshot(Resource::Memory);
        let total_ratio = snap.some_total.as_secs_f64() / 4.0;
        assert!((total_ratio - expected).abs() < 1e-9);
    }
}
