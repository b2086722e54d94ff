//! In-memory span tracing for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's own code
//! around a public library call. Spans live in *lanes*: the main lane
//! holds the repetition's root and the fleet-runner call, and each host
//! gets a lane of its own (hosts may run on worker threads, so their
//! lanes are filled independently and stitched together afterwards).
//! Every lane shares one origin `Instant`, so start and end times are
//! comparable across threads.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover. Children of one span on one lane never
//! overlap, but a host-lane root has the runner span as its parent, and
//! with several workers those roots do overlap; the union handles both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the parent span within the same lane, if any.
    pub parent: Option<usize>,
    /// Layer name, e.g. `core.machine.tick`.
    pub name: &'static str,
    /// Start, nanoseconds since the repetition's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the repetition's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one thread of control recorded, in start order.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Host index, or `None` for the main lane.
    pub host: Option<usize>,
    /// Spans, in the order they were opened.
    pub spans: Vec<Span>,
    origin: Instant,
    open: Vec<usize>,
}

impl Lane {
    /// An empty lane measuring from `origin`.
    pub fn new(host: Option<usize>, origin: Instant) -> Self {
        Lane {
            host,
            spans: Vec::new(),
            origin,
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open, which is a bug in the caller.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
    }

    /// Times `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }
}

/// Per-layer totals derived from one repetition's lanes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    /// Σ self time per span name, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Every span's duration per name, nanoseconds, for percentiles.
    pub durations_ns: BTreeMap<&'static str, Vec<u64>>,
    /// Σ self time over every span, nanoseconds.
    pub total_self_ns: u64,
    /// How far host-lane roots overlapped one another (parallel
    /// workers), nanoseconds: Σ root durations minus their union.
    pub parallel_overlap_ns: u64,
}

impl LayerTotals {
    /// Self seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Σ duration of the spans named `name`, seconds.
    pub fn duration_s(&self, name: &str) -> f64 {
        self.durations_ns
            .get(name)
            .map_or(0.0, |d| d.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Self seconds of every span whose name starts with `prefix`.
    pub fn busy_prefix_s(&self, prefix: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// The `q` quantile (nearest rank) of the durations of spans named
    /// `name`, in nanoseconds; 0 when there are none.
    pub fn quantile_ns(&self, name: &str, q: f64) -> f64 {
        match self.durations_ns.get(name) {
            Some(d) if !d.is_empty() => {
                let mut sorted = d.clone();
                sorted.sort_unstable();
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1] as f64
            }
            _ => 0.0,
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Computes self times over `main` plus `hosts`. A host lane's first
/// span is its root; `host_parent` names the main-lane span it hangs
/// under (the fleet-runner call).
pub fn layer_totals(main: &Lane, hosts: &[Lane], host_parent: Option<usize>) -> LayerTotals {
    let mut out = LayerTotals::default();
    let mut account = |lane: &Lane, extra_children: &[(usize, Vec<(u64, u64)>)]| {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); lane.spans.len()];
        for span in &lane.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        for (p, extra) in extra_children {
            children[*p].extend_from_slice(extra);
        }
        for (span, kids) in lane.spans.iter().zip(children.iter_mut()) {
            let self_ns = span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns);
            *out.self_ns.entry(span.name).or_default() += self_ns;
            *out.calls.entry(span.name).or_default() += 1;
            out.durations_ns
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
            out.total_self_ns += self_ns;
        }
    };
    let mut roots: Vec<(u64, u64)> = hosts
        .iter()
        .filter_map(|lane| lane.spans.first())
        .map(|root| (root.start_ns, root.end_ns))
        .collect();
    let extra: Vec<(usize, Vec<(u64, u64)>)> = host_parent
        .map(|p| vec![(p, roots.clone())])
        .unwrap_or_default();
    account(main, &extra);
    for lane in hosts {
        account(lane, &[]);
    }
    let sum: u64 = roots.iter().map(|(s, e)| e - s).sum();
    let union = covered_ns(&mut roots, 0, u64::MAX);
    out.parallel_overlap_ns = sum.saturating_sub(union);
    out
}

/// Renders the lanes as JSON lines `{id, parent, host, name, start_ns,
/// end_ns}`. Ids are global: the main lane first, then host lanes in
/// host order; a host root's parent is `host_parent` in the main lane.
pub fn to_jsonl(main: &Lane, hosts: &[Lane], host_parent: Option<usize>) -> String {
    let mut out = String::new();
    let mut base = 0usize;
    for lane in std::iter::once(main).chain(hosts) {
        let is_main = std::ptr::eq(lane, main);
        for (i, span) in lane.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => Some(base + p),
                None if !is_main => host_parent,
                None => None,
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"host\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                base + i,
                parent.map_or("null".to_string(), |p| p.to_string()),
                lane.host.map_or("null".to_string(), |h| h.to_string()),
                span.name,
                span.start_ns,
                span.end_ns,
            );
        }
        base += lane.spans.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    fn lane(host: Option<usize>, spans: Vec<Span>) -> Lane {
        Lane {
            host,
            spans,
            origin: Instant::now(),
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let main = lane(
            None,
            vec![
                span(None, "bench.rep", 0, 100),
                span(Some(0), "a", 10, 40),
                span(Some(1), "b", 20, 30),
                span(Some(0), "a", 50, 60),
            ],
        );
        let t = layer_totals(&main, &[], None);
        assert_eq!(t.self_ns["bench.rep"], 60);
        assert_eq!(t.self_ns["a"], 30);
        assert_eq!(t.self_ns["b"], 10);
        assert_eq!(t.calls("a"), 2);
        assert_eq!(t.total_self_ns, 100);
        assert_eq!(t.parallel_overlap_ns, 0);
    }

    #[test]
    fn overlapping_host_roots_count_once_against_the_runner() {
        let main = lane(
            None,
            vec![
                span(None, "bench.rep", 0, 100),
                span(Some(0), "core.runner.run", 0, 100),
            ],
        );
        let hosts = [
            lane(Some(0), vec![span(None, "bench.host", 0, 80)]),
            lane(Some(1), vec![span(None, "bench.host", 10, 90)]),
        ];
        let t = layer_totals(&main, &hosts, Some(1));
        assert_eq!(t.self_ns["core.runner.run"], 10);
        assert_eq!(t.self_ns["bench.host"], 160);
        assert_eq!(t.parallel_overlap_ns, 70);
        // Σ self − overlap is the rep's wall time.
        assert_eq!(t.total_self_ns - t.parallel_overlap_ns, 100);
    }

    #[test]
    fn escaping_child_breaks_reconciliation_with_the_root() {
        let main = lane(
            None,
            vec![span(None, "bench.rep", 0, 10), span(Some(0), "a", 5, 30)],
        );
        let t = layer_totals(&main, &[], None);
        assert_eq!(t.total_self_ns, 30, "{t:?}");
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let spans = (1..=100).map(|i| span(None, "t", 0, i)).collect();
        let t = layer_totals(&lane(None, spans), &[], None);
        assert_eq!(t.quantile_ns("t", 0.5), 50.0);
        assert_eq!(t.quantile_ns("t", 0.99), 99.0);
        assert_eq!(t.quantile_ns("missing", 0.5), 0.0);
    }

    #[test]
    fn jsonl_ids_are_global_and_host_roots_hang_off_the_runner() {
        let main = lane(
            None,
            vec![
                span(None, "bench.rep", 0, 100),
                span(Some(0), "core.runner.run", 0, 100),
            ],
        );
        let hosts = [lane(
            Some(3),
            vec![
                span(None, "bench.host", 0, 80),
                span(Some(0), "core.machine.tick", 5, 9),
            ],
        )];
        let text = to_jsonl(&main, &hosts, Some(1));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"parent\":null,\"host\":null,\"name\":\"bench.rep\",\"start_ns\":0,\"end_ns\":100}"
        );
        assert!(lines[2].starts_with("{\"id\":2,\"parent\":1,\"host\":3,"));
        assert!(lines[3].starts_with("{\"id\":3,\"parent\":2,\"host\":3,"));
    }
}
