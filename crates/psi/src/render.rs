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
/// line. Returns `None` on malformed input: a line that does not start
/// with `some` or `full`, a key other than the four, a key given twice
/// or missing, or an average that is not a finite percentage in
/// `[0, 100]`.
pub fn parse_pressure_line(line: &str) -> Option<(f64, f64, f64, u64)> {
    let mut fields = line.split_whitespace();
    if !matches!(fields.next()?, "some" | "full") {
        return None;
    }
    let mut avgs = [None; 3];
    let mut total = None;
    for field in fields {
        let (key, value) = field.split_once('=')?;
        let slot = match key {
            "avg10" => &mut avgs[0],
            "avg60" => &mut avgs[1],
            "avg300" => &mut avgs[2],
            "total" => {
                if total.replace(value.parse::<u64>().ok()?).is_some() {
                    return None;
                }
                continue;
            }
            _ => return None,
        };
        // The range check also rejects NaN and the infinities.
        let pct = value
            .parse::<f64>()
            .ok()
            .filter(|v| (0.0..=100.0).contains(v))?;
        if slot.replace(pct / 100.0).is_some() {
            return None;
        }
    }
    Some((avgs[0]?, avgs[1]?, avgs[2]?, total?))
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
    fn parse_accepts_both_prefixes_and_the_full_range() {
        assert_eq!(
            parse_pressure_line("full avg10=100.00 avg60=0.00 avg300=50.00 total=7"),
            Some((1.0, 0.0, 0.5, 7))
        );
        assert!(parse_pressure_line("some avg10=0 avg60=0 avg300=0 total=0").is_some());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_pressure_line("garbage").is_none());
        assert!(parse_pressure_line("").is_none());
        assert!(parse_pressure_line("some avg10=x avg60=0 avg300=0 total=0").is_none());
        assert!(parse_pressure_line("some avg10=1.0 bogus=2").is_none());
    }

    #[test]
    fn parse_rejects_an_unknown_prefix() {
        assert!(parse_pressure_line("foo avg10=0.10 avg60=0.00 avg300=0.00 total=1").is_none());
    }

    #[test]
    fn parse_rejects_a_missing_prefix() {
        assert!(parse_pressure_line("avg10=0.10 avg60=0.00 avg300=0.00 total=1").is_none());
    }

    #[test]
    fn parse_rejects_a_duplicate_average() {
        let line = "some avg10=0.10 avg10=0.20 avg60=0.00 avg300=0.00 total=1";
        assert!(parse_pressure_line(line).is_none());
    }

    #[test]
    fn parse_rejects_a_duplicate_total() {
        let line = "some avg10=0.10 avg60=0.00 avg300=0.00 total=1 total=2";
        assert!(parse_pressure_line(line).is_none());
    }

    #[test]
    fn parse_rejects_a_missing_key() {
        assert!(parse_pressure_line("some avg10=0.10 avg60=0.00 total=1").is_none());
    }

    #[test]
    fn parse_rejects_a_nan_average() {
        assert!(parse_pressure_line("some avg10=NaN avg60=0.00 avg300=0.00 total=1").is_none());
    }

    #[test]
    fn parse_rejects_an_infinite_average() {
        assert!(parse_pressure_line("some avg10=0.10 avg60=inf avg300=0.00 total=1").is_none());
    }

    #[test]
    fn parse_rejects_a_negative_average() {
        assert!(parse_pressure_line("some avg10=0.10 avg60=0.00 avg300=-1 total=1").is_none());
    }

    #[test]
    fn parse_rejects_an_average_above_100() {
        assert!(parse_pressure_line("some avg10=100.01 avg60=0.00 avg300=0.00 total=1").is_none());
    }
}
