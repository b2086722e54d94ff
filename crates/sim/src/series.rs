//! Metric time series.
//!
//! Experiments record per-tick signals (RPS, resident memory, PSI, swap
//! rate, ...) into named [`Series`] collected by a [`Recorder`]. The
//! experiment harness then prints the same rows/series the paper's
//! figures plot, and can export them as CSV.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::time::SimTime;

/// One `(time, value)` sample of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time of the observation, in seconds since run start.
    pub time_secs: f64,
    /// Observed value.
    pub value: f64,
}

/// A named sequence of samples, stored as columns.
///
/// Values live in one chunked `Column`. Times live in a time axis
/// that costs nothing per sample while every pushed time falls on a
/// fixed nanosecond stride (the per-tick series), and falls back to
/// one `u64` per sample on the first push that breaks it (sparse event
/// series). Either way a sample's `time_secs` is rebuilt as
/// `SimTime::as_secs_f64` of the pushed time, bit for bit.
///
/// # Example
///
/// ```
/// use tmo_sim::{Series, SimTime};
///
/// let mut s = Series::new("rps");
/// s.push(SimTime::from_secs(1), 650.0);
/// s.push(SimTime::from_secs(2), 640.0);
/// assert_eq!(s.len(), 2);
/// assert!((s.mean() - 645.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Series {
    name: String,
    times: TimeAxis,
    values: Column<f64>,
}

/// Samples per full chunk of a [`Column`]: 32 KiB of `f64`.
const CHUNK: usize = 4096;

/// An append-only column stored in chunks of [`CHUNK`] elements.
///
/// The open chunk, `tail`, grows like a plain `Vec` until it holds
/// `CHUNK` elements, so a short series allocates exactly what a `Vec`
/// would. A full tail moves to `full` unchanged, and the next tail is
/// allocated once with capacity exactly `CHUNK` and never reallocated,
/// so a long column is never copied and never holds more than one
/// chunk of unused room. Element `i` lives at `i % CHUNK` of chunk
/// `i / CHUNK` (the tail when that is `full.len()`), and iteration
/// walks the chunks in order, so every fold sees the elements in push
/// order.
#[derive(Debug, Clone)]
struct Column<T> {
    full: Vec<Vec<T>>,
    tail: Vec<T>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T: Copy> Column<T> {
    fn push(&mut self, value: T) {
        if self.tail.len() == CHUNK {
            self.retire_tail();
        }
        self.tail.push(value);
    }

    /// Moves the full tail to `full` and opens a tail at its final
    /// size. Kept out of line so the per-sample path stays small.
    #[cold]
    #[inline(never)]
    fn retire_tail(&mut self) {
        let tail = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK));
        self.full.push(tail);
    }

    fn len(&self) -> usize {
        self.full.len() * CHUNK + self.tail.len()
    }

    fn get(&self, i: usize) -> T {
        let (chunk, offset) = (i / CHUNK, i % CHUNK);
        if chunk == self.full.len() {
            self.tail[offset]
        } else {
            self.full[chunk][offset]
        }
    }

    fn last(&self) -> Option<T> {
        // A tail is only opened by the push that fills it, so it is
        // empty only while the whole column is.
        self.tail.last().copied()
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.full.iter().flatten().chain(&self.tail).copied()
    }

    /// The elements copied into one `Vec`.
    fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.full {
            out.extend_from_slice(chunk);
        }
        out.extend_from_slice(&self.tail);
        out
    }

    /// Empties the column, freeing every full chunk and keeping the
    /// tail's capacity, which is at most `CHUNK` elements.
    fn clear(&mut self) {
        self.full = Vec::new();
        self.tail.clear();
    }

    /// Elements the column has room for without allocating.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.full.iter().map(Vec::capacity).sum::<usize>() + self.tail.capacity()
    }
}

/// Sample times of a [`Series`], in integer simulated nanoseconds.
///
/// The stride test is exact integer arithmetic on `SimTime`
/// nanoseconds: comparing rebuilt `f64` seconds instead would let
/// rounding accept a time that is a nanosecond off the stride, and
/// the rebuilt time would then differ from the pushed one.
#[derive(Debug, Clone)]
enum TimeAxis {
    /// Sample `i` was pushed at `start_ns + i * step_ns`. With fewer
    /// than two samples the unused fields are placeholders.
    Stride { start_ns: u64, step_ns: u64 },
    /// One pushed time per sample.
    Explicit(Column<u64>),
}

impl Default for TimeAxis {
    fn default() -> Self {
        TimeAxis::Stride {
            start_ns: 0,
            step_ns: 0,
        }
    }
}

impl Series {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            ..Series::default()
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample at `time`.
    ///
    /// Inlined across crates: `Machine::record_tick` pushes to every
    /// per-tick series once a tick.
    #[inline]
    pub fn push(&mut self, time: SimTime, value: f64) {
        let ns = time.as_nanos();
        let n = self.values.len() as u64;
        if let TimeAxis::Stride { start_ns, step_ns } = &mut self.times {
            let expected = n
                .checked_mul(*step_ns)
                .and_then(|offset| start_ns.checked_add(offset));
            match n {
                0 => *start_ns = ns,
                1 if ns >= *start_ns => *step_ns = ns - *start_ns,
                _ if expected == Some(ns) => {}
                _ => {
                    let (start, step) = (*start_ns, *step_ns);
                    let mut times = Column::default();
                    for i in 0..n {
                        times.push(start + i * step);
                    }
                    self.times = TimeAxis::Explicit(times);
                }
            }
        }
        if let TimeAxis::Explicit(times) = &mut self.times {
            times.push(ns);
        }
        self.values.push(value);
    }

    /// Drops every sample and the time axis, keeping the name and the
    /// value column's open chunk (see [`Recorder::clear`]).
    fn clear(&mut self) {
        self.times = TimeAxis::default();
        self.values.clear();
    }

    /// Simulated nanoseconds of sample `i`.
    fn time_ns(&self, i: usize) -> u64 {
        match &self.times {
            TimeAxis::Stride { start_ns, step_ns } => start_ns + i as u64 * step_ns,
            TimeAxis::Explicit(times) => times.get(i),
        }
    }

    /// Sample `i`, its time rebuilt exactly as `push` received it.
    fn sample(&self, i: usize) -> Sample {
        Sample {
            time_secs: SimTime::from_nanos(self.time_ns(i)).as_secs_f64(),
            value: self.values.get(i),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All samples in insertion (time) order.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = Sample> + '_ {
        (0..self.len()).map(|i| self.sample(i))
    }

    /// Iterator over the values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.values.iter()
    }

    /// The final value, or `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.values.last()
    }

    /// Arithmetic mean of the values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.values().sum::<f64>() / self.len() as f64
    }

    /// Minimum value (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.values().fold(f64::INFINITY, f64::min).pipe_finite()
    }

    /// Maximum value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.values()
            .fold(f64::NEG_INFINITY, f64::max)
            .pipe_finite()
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank on sorted values;
    /// returns 0.0 when empty.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.is_empty() {
            return 0.0;
        }
        let mut vals = self.values.to_vec();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let idx = ((vals.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        vals[idx]
    }

    /// Mean of the values whose sample time lies in `[from_secs, to_secs)`.
    pub fn mean_between(&self, from_secs: f64, to_secs: f64) -> f64 {
        // -0.0 is the identity `f64: Sum` starts from, so this fold adds
        // in the same order and to the same bits as summing the window.
        let (sum, count) = self
            .samples()
            .filter(|s| s.time_secs >= from_secs && s.time_secs < to_secs)
            .fold((-0.0, 0usize), |(sum, count), s| (sum + s.value, count + 1));
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Downsamples to at most `n` evenly spaced samples (for printing).
    pub fn downsample(&self, n: usize) -> Vec<Sample> {
        if n == 0 || self.is_empty() {
            return Vec::new();
        }
        if self.len() <= n {
            return self.samples().collect();
        }
        let step = self.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.sample((i as f64 * step) as usize))
            .collect()
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// Stable handle to one series inside a [`Recorder`].
///
/// A name is resolved to a `SeriesId` once, with
/// [`Recorder::series_id`], and samples are then appended via
/// [`Recorder::record_id`] without a per-sample name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A collection of named series recorded during one simulation run.
///
/// Series live in insertion-ordered slots addressed by [`SeriesId`]; a
/// name index keeps every observable surface (`series`, `iter`,
/// `names`, `to_csv`) sorted by name exactly as before, so creation
/// order never leaks into output. Each slot carries a live flag:
/// [`Recorder::clear`] marks every slot dead but keeps its name and
/// open chunk, and resolving the name again revives it, so a recorder
/// reused for a run with the same series names allocates nothing.
///
/// # Example
///
/// ```
/// use tmo_sim::{Recorder, SimTime};
///
/// let mut rec = Recorder::new();
/// let id = rec.series_id("psi.some");
/// rec.record_id(id, SimTime::from_secs(6), 0.08);
/// rec.record_id(id, SimTime::from_secs(12), 0.10);
/// assert_eq!(rec.series("psi.some").expect("recorded").len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    index: BTreeMap<String, usize>,
    slots: Vec<Series>,
    /// Whether each slot exists in the current run; dead slots are
    /// hidden from every observable surface.
    live: Vec<bool>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Removes every series, as if the recorder were new. Each slot
    /// keeps its name, its index entry and its open chunk's capacity
    /// (at most one chunk of values) for [`Recorder::series_id`] to
    /// revive; full chunks and explicit time columns are freed.
    /// [`SeriesId`]s resolved before the clear must be resolved again.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(Series::clear);
        self.live.fill(false);
    }

    /// Resolves the named series to a stable [`SeriesId`], creating an
    /// empty series on first use.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&slot) = self.index.get(name) {
            self.live[slot] = true;
            return SeriesId(slot);
        }
        let slot = self.slots.len();
        self.slots.push(Series::new(name));
        self.live.push(true);
        self.index.insert(name.to_string(), slot);
        SeriesId(slot)
    }

    /// Appends a sample to the series behind `id`.
    pub fn record_id(&mut self, id: SeriesId, time: SimTime, value: f64) {
        self.slots[id.0].push(time, value);
    }

    /// The series behind `id`.
    pub fn get(&self, id: SeriesId) -> &Series {
        &self.slots[id.0]
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.index
            .get(name)
            .filter(|&&slot| self.live[slot])
            .map(|&slot| &self.slots[slot])
    }

    /// All series, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = &Series> {
        self.live_slots().map(|(_, slot)| &self.slots[slot])
    }

    /// Names of all recorded series, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.live_slots().map(|(name, _)| name).collect()
    }

    /// The live slots' names and indices, sorted by name.
    fn live_slots(&self) -> impl Iterator<Item = (&str, usize)> {
        self.index
            .iter()
            .filter(|&(_, &slot)| self.live[slot])
            .map(|(name, &slot)| (name.as_str(), slot))
    }

    /// Renders all series as CSV (`series,time_secs,value` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,time_secs,value\n");
        for s in self.iter() {
            for sample in s.samples() {
                // Writing to a `String` cannot fail.
                let _ = writeln!(
                    out,
                    "{},{:.3},{:.6}",
                    s.name(),
                    sample.time_secs,
                    sample.value
                );
            }
        }
        out
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={:.4} min={:.4} max={:.4}",
            self.name,
            self.len(),
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn series_stats() {
        let mut s = Series::new("x");
        for (i, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            s.push(t(i as u64), v);
        }
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.last(), Some(4.0));
    }

    #[test]
    fn empty_series_is_safe() {
        let s = Series::new("empty");
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.last(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Series::new("q");
        for v in 1..=100 {
            s.push(t(v), v as f64);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.quantile(0.5) - 50.0).abs() <= 1.0);
        assert!((s.quantile(0.9) - 90.0).abs() <= 1.0);
    }

    #[test]
    fn mean_between_windows() {
        let mut s = Series::new("w");
        for i in 0..10 {
            s.push(t(i), i as f64);
        }
        assert_eq!(s.mean_between(0.0, 5.0), 2.0);
        assert_eq!(s.mean_between(5.0, 10.0), 7.0);
        assert_eq!(s.mean_between(100.0, 200.0), 0.0);
    }

    #[test]
    fn downsample_bounds() {
        let mut s = Series::new("d");
        for i in 0..1000 {
            s.push(t(i), i as f64);
        }
        assert_eq!(s.downsample(10).len(), 10);
        assert_eq!(s.downsample(0).len(), 0);
        assert_eq!(s.downsample(5000).len(), 1000);
    }

    #[test]
    fn recorder_creates_and_appends() {
        let mut rec = Recorder::new();
        let a = rec.series_id("a");
        rec.record_id(a, t(1), 1.0);
        rec.record_id(a, t(2), 2.0);
        let b = rec.series_id("b");
        rec.record_id(b, t(1), 9.0);
        assert_eq!(rec.names(), vec!["a", "b"]);
        assert_eq!(rec.series("a").expect("a").len(), 2);
        assert!(rec.series("missing").is_none());
    }

    #[test]
    fn recorder_ids_alias_names_and_sort_observably() {
        let mut rec = Recorder::new();
        // Create out of name order so slot order != name order.
        let zb = rec.series_id("z.b");
        let aa = rec.series_id("a.a");
        rec.record_id(zb, t(1), 1.0);
        rec.record_id(aa, t(1), 2.0);
        let again = rec.series_id("z.b");
        assert_eq!(again, zb);
        rec.record_id(again, t(2), 3.0);
        assert_eq!(rec.names(), vec!["a.a", "z.b"]);
        let ordered: Vec<&str> = rec.iter().map(Series::name).collect();
        assert_eq!(ordered, vec!["a.a", "z.b"]);
        assert_eq!(rec.series("z.b").expect("z.b").len(), 2);
    }

    #[test]
    fn long_columns_hold_at_most_one_chunk_of_slack() {
        let mut strided = Series::new("per_tick");
        let mut explicit = Series::new("event");
        for i in 0..72_000u64 {
            strided.push(SimTime::from_nanos(100_000_000 * i), i as f64);
            // Two pushes per second: a zero step that the third push breaks.
            explicit.push(t(i / 2), i as f64);
        }
        assert!(matches!(strided.times, TimeAxis::Stride { .. }));
        let TimeAxis::Explicit(times) = &explicit.times else {
            panic!("repeated times must switch to explicit storage");
        };
        for (name, len, capacity) in [
            (
                "strided values",
                strided.values.len(),
                strided.values.capacity(),
            ),
            (
                "explicit values",
                explicit.values.len(),
                explicit.values.capacity(),
            ),
            ("explicit times", times.len(), times.capacity()),
        ] {
            assert_eq!(len, 72_000, "{name}");
            assert!(
                capacity <= len + CHUNK,
                "{name}: capacity {capacity} for {len}"
            );
        }
    }

    #[test]
    fn short_columns_allocate_like_a_vec() {
        let mut s = Series::new("short");
        let mut v = Vec::new();
        for i in 0..CHUNK as u64 {
            s.push(t(i), i as f64);
            v.push(i as f64);
            assert_eq!(s.values.capacity(), v.capacity());
        }
        assert!(s.values.full.is_empty());
        s.push(t(CHUNK as u64), 0.0);
        assert_eq!(s.values.full.len(), 1);
        assert_eq!(s.values.full[0].capacity(), CHUNK);
        assert_eq!(s.values.tail.capacity(), CHUNK);
    }

    #[test]
    fn clear_keeps_at_most_one_open_chunk_per_slot() {
        let mut rec = Recorder::new();
        let long = rec.series_id("long");
        let event = rec.series_id("event");
        for i in 0..(2 * CHUNK + 5) as u64 {
            rec.record_id(long, SimTime::from_nanos(100_000_000 * i), i as f64);
            // Repeated times switch the series to explicit storage.
            rec.record_id(event, t(i / 2), i as f64);
        }
        let short = rec.series_id("short");
        rec.record_id(short, t(1), 1.0);
        rec.clear();
        assert!(rec.names().is_empty());
        assert_eq!(rec.iter().count(), 0);
        assert!(rec.series("long").is_none());
        for s in &rec.slots {
            assert!(s.is_empty(), "{}", s.name());
            assert!(
                s.values.capacity() <= CHUNK,
                "{}: capacity {}",
                s.name(),
                s.values.capacity()
            );
            assert!(
                matches!(
                    s.times,
                    TimeAxis::Stride {
                        start_ns: 0,
                        step_ns: 0
                    }
                ),
                "{}: {:?}",
                s.name(),
                s.times
            );
        }
        // A revived name gets its old slot back, empty.
        assert_eq!(rec.series_id("event"), event);
        assert_eq!(rec.names(), vec!["event"]);
        assert!(rec.get(event).is_empty());
    }

    #[test]
    fn csv_export_shape() {
        let mut rec = Recorder::new();
        let m = rec.series_id("m");
        rec.record_id(m, t(1), 0.5);
        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,time_secs,value");
        assert!(lines[1].starts_with("m,1.000,0.5"));
    }
}
