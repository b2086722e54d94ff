//! `/proc/pressure`-style text rendering.
//!
//! Renders a [`PsiSnapshot`] in the exact format of the kernel's
//! pressure files, which is also the interface Senpai consumes in
//! production:
//!
//! ```text
//! some avg10=0.22 avg60=0.17 avg300=1.11 total=58761459
//! full avg10=0.00 avg60=0.13 avg300=0.96 total=57651003
//! ```

use crate::group::PsiSnapshot;

/// Renders one resource's pressure state as the two-line pressure-file
/// format (`total` in microseconds, averages as percentages).
///
/// # Example
///
/// ```
/// use tmo_psi::{PsiGroup, Resource, render_pressure_file};
///
/// let psi = PsiGroup::new();
/// let text = render_pressure_file(&psi.snapshot(Resource::Memory));
/// assert!(text.starts_with("some avg10=0.00"));
/// assert!(text.lines().nth(1).expect("two lines").starts_with("full"));
/// ```
pub fn render_pressure_file(snap: &PsiSnapshot) -> String {
    format!(
        "some avg10={:.2} avg60={:.2} avg300={:.2} total={}\n\
         full avg10={:.2} avg60={:.2} avg300={:.2} total={}\n",
        snap.some_avg10 * 100.0,
        snap.some_avg60 * 100.0,
        snap.some_avg300 * 100.0,
        snap.some_total.as_micros(),
        snap.full_avg10 * 100.0,
        snap.full_avg60 * 100.0,
        snap.full_avg300 * 100.0,
        snap.full_total.as_micros(),
    )
}

/// Parses a pressure-file line back into `(avg10, avg60, avg300,
/// total_us)` ratios; the inverse of [`render_pressure_file`] for one
/// line. Returns `None` on malformed input.
pub fn parse_pressure_line(line: &str) -> Option<(f64, f64, f64, u64)> {
    let mut avg10 = None;
    let mut avg60 = None;
    let mut avg300 = None;
    let mut total = None;
    for field in line.split_whitespace().skip(1) {
        let (key, value) = field.split_once('=')?;
        match key {
            "avg10" => avg10 = value.parse::<f64>().ok().map(|v| v / 100.0),
            "avg60" => avg60 = value.parse::<f64>().ok().map(|v| v / 100.0),
            "avg300" => avg300 = value.parse::<f64>().ok().map(|v| v / 100.0),
            "total" => total = value.parse::<u64>().ok(),
            _ => return None,
        }
    }
    Some((avg10?, avg60?, avg300?, total?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{PsiGroup, Resource, SpanBatch};
    use tmo_sim::SimDuration;

    #[test]
    fn render_zero_pressure() {
        let psi = PsiGroup::new();
        let text = render_pressure_file(&psi.snapshot(Resource::Io));
        assert_eq!(
            text,
            "some avg10=0.00 avg60=0.00 avg300=0.00 total=0\n\
             full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n"
        );
    }

    #[test]
    fn render_and_parse_round_trip() {
        let mut psi = PsiGroup::new();
        let mut batch = SpanBatch::new();
        batch.push_non_idle_task();
        batch.push_span(Resource::Memory, 0, 500_000_000);
        psi.observe(SimDuration::from_secs(1), &batch);
        let snap = psi.snapshot(Resource::Memory);
        let text = render_pressure_file(&snap);
        let some_line = text.lines().next().expect("some line");
        let (a10, _a60, _a300, total) = parse_pressure_line(some_line).expect("parses");
        assert!((a10 - snap.some_avg10).abs() < 1e-3);
        assert_eq!(total, 500_000);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_pressure_line("garbage").is_none());
        assert!(parse_pressure_line("some avg10=x avg60=0 avg300=0 total=0").is_none());
        assert!(parse_pressure_line("some avg10=1.0 bogus=2").is_none());
    }
}
