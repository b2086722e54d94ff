//! Differential test of the columnar [`Series`] against a naive model.
//!
//! `Series` keeps one value column and a time axis that stays a
//! `(start, step)` stride until a push breaks it, then switches to one
//! stored time per sample. Both columns are stored in chunks of 4,096
//! samples. The model is the plain `Vec<(ns, value)>` that storage
//! replaces. Every reading — the samples themselves, the summaries,
//! downsampling and the CSV export — must agree bit for bit on push
//! sequences that keep, break, repeat and reverse the stride, short
//! ones and ones that cross chunk boundaries, so a switch or a chunk
//! index that drops or shifts a sample fails here.
//!
//! A [`Recorder`] that is cleared and reused must read exactly like a
//! fresh one fed only the operations since the last clear.

use proptest::collection;
use proptest::prelude::*;
use tmo_sim::{Recorder, Sample, Series, SeriesId, SimTime};

/// Pushed `(nanoseconds, value)` pairs, in push order.
type Model = Vec<(u64, f64)>;

/// Samples per full chunk of a series column.
const CHUNK: usize = 4096;

/// Breaks the stride at `times[at]`, if it exists. Edit kinds: 0
/// shifts this and every later time (the stride resumes at an offset),
/// 1 repeats the previous time, 2 steps back in time, 3 moves one time
/// by 1 ns.
fn edit(times: &mut [u64], at: usize, kind: u8, delta: u64) {
    if at >= times.len() {
        return;
    }
    let prev = at.checked_sub(1).map(|p| times[p]);
    match kind {
        0 => times[at..].iter_mut().for_each(|t| *t += delta),
        1 => times[at] = prev.unwrap_or(times[at]),
        2 => times[at] = prev.unwrap_or(times[at]).saturating_sub(delta),
        _ => times[at] += 1,
    }
}

fn arb_start() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..5_000_000_000]
}

fn arb_step() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..1_000, Just(100_000_000u64)]
}

fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6f64..1e6, Just(-0.0), Just(0.0)]
}

fn stride(start: u64, step: u64, len: usize) -> Vec<u64> {
    (0..len as u64).map(|i| start + i * step).collect()
}

/// Push times: a stride from `start` by `step` (both possibly zero),
/// then up to four edits that break it.
fn arb_times() -> impl Strategy<Value = Vec<u64>> {
    (
        arb_start(),
        arb_step(),
        0usize..40,
        collection::vec((0usize..40, 0u8..4, 1u64..2_000_000_000), 0..5),
    )
        .prop_map(|(start, step, len, edits)| {
            let mut times = stride(start, step, len);
            for (at, kind, delta) in edits {
                edit(&mut times, at, kind, delta);
            }
            times
        })
}

/// Push times that fill one to three chunks, just short of, at or just
/// past a chunk boundary, with up to three edits placed within two
/// samples of a boundary.
fn arb_long_times() -> impl Strategy<Value = Vec<u64>> {
    (
        arb_start(),
        arb_step(),
        prop_oneof![
            CHUNK - 3..CHUNK + 3,
            2 * CHUNK - 3..2 * CHUNK + 3,
            3 * CHUNK - 3..3 * CHUNK + 3
        ],
        collection::vec((1usize..4, 0usize..5, 0u8..4, 1u64..2_000_000_000), 0..4),
    )
        .prop_map(|(start, step, len, edits)| {
            let mut times = stride(start, step, len);
            for (boundary, offset, kind, delta) in edits {
                edit(&mut times, boundary * CHUNK + offset - 2, kind, delta);
            }
            times
        })
}

fn with_values(times: Vec<u64>, values: Vec<f64>) -> Model {
    times.into_iter().zip(values).collect()
}

/// A push sequence with values, including negative zero.
fn arb_pushes() -> impl Strategy<Value = Model> {
    (arb_times(), collection::vec(arb_value(), 40)).prop_map(|(t, v)| with_values(t, v))
}

/// A push sequence that crosses one or more chunk boundaries.
fn arb_long_pushes() -> impl Strategy<Value = Model> {
    (
        arb_long_times(),
        collection::vec(arb_value(), 3 * CHUNK + 3),
    )
        .prop_map(|(t, v)| with_values(t, v))
}

fn secs(ns: u64) -> f64 {
    SimTime::from_nanos(ns).as_secs_f64()
}

fn build(name: &str, model: &Model) -> Series {
    let mut s = Series::new(name);
    for &(ns, v) in model {
        s.push(SimTime::from_nanos(ns), v);
    }
    s
}

/// Samples as bit patterns, so `-0.0` and `0.0` differ.
fn bits(samples: impl IntoIterator<Item = Sample>) -> Vec<(u64, u64)> {
    samples
        .into_iter()
        .map(|s| (s.time_secs.to_bits(), s.value.to_bits()))
        .collect()
}

fn model_samples(model: &Model) -> Vec<Sample> {
    model
        .iter()
        .map(|&(ns, value)| Sample {
            time_secs: secs(ns),
            value,
        })
        .collect()
}

fn model_mean_between(model: &Model, from: f64, to: f64) -> f64 {
    let window: Vec<f64> = model
        .iter()
        .filter(|&&(ns, _)| secs(ns) >= from && secs(ns) < to)
        .map(|&(_, v)| v)
        .collect();
    if window.is_empty() {
        0.0
    } else {
        window.iter().sum::<f64>() / window.len() as f64
    }
}

fn model_downsample(model: &Model, n: usize) -> Vec<Sample> {
    let all = model_samples(model);
    if n == 0 {
        return Vec::new();
    }
    if all.len() <= n {
        return all;
    }
    let step = all.len() as f64 / n as f64;
    (0..n).map(|i| all[(i as f64 * step) as usize]).collect()
}

fn model_quantile(model: &Model, q: f64) -> f64 {
    let mut vals: Vec<f64> = model.iter().map(|&(_, v)| v).collect();
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    vals[((vals.len() - 1) as f64 * q).round() as usize]
}

fn model_csv(series: &[(&str, &Model)]) -> String {
    let mut out = String::from("series,time_secs,value\n");
    for (name, model) in series {
        for &(ns, v) in model.iter() {
            out.push_str(&format!("{name},{:.3},{:.6}\n", secs(ns), v));
        }
    }
    out
}

/// Every per-series reading of `s` matches `model` bit for bit;
/// `cuts` place one `mean_between` window inside the series.
fn check_series(s: &Series, model: &Model, cuts: (f64, f64)) -> TestCaseResult {
    prop_assert_eq!(s.len(), model.len());
    prop_assert_eq!(s.is_empty(), model.is_empty());
    prop_assert_eq!(s.samples().len(), model.len());
    prop_assert_eq!(bits(s.samples()), bits(model_samples(model)));
    let model_values: Vec<f64> = model.iter().map(|&(_, v)| v).collect();
    let values: Vec<u64> = s.values().map(f64::to_bits).collect();
    let value_bits: Vec<u64> = model_values.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(values, value_bits);
    prop_assert_eq!(
        s.last().map(f64::to_bits),
        model.last().map(|&(_, v)| v.to_bits())
    );
    let mean = if model.is_empty() {
        0.0
    } else {
        model_values.iter().sum::<f64>() / model.len() as f64
    };
    let min = model_values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = model_values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    prop_assert_eq!(s.mean().to_bits(), mean.to_bits());
    prop_assert_eq!(
        s.min().to_bits(),
        if model.is_empty() { 0.0 } else { min }.to_bits()
    );
    prop_assert_eq!(
        s.max().to_bits(),
        if model.is_empty() { 0.0 } else { max }.to_bits()
    );

    let horizon = model.iter().map(|&(ns, _)| secs(ns)).fold(0.0, f64::max) + 1.0;
    let (lo, hi) = if cuts.0 <= cuts.1 {
        cuts
    } else {
        (cuts.1, cuts.0)
    };
    for (from, to) in [
        (0.0, horizon),
        (lo * horizon, hi * horizon),
        (horizon, 2.0 * horizon),
    ] {
        prop_assert_eq!(
            s.mean_between(from, to).to_bits(),
            model_mean_between(model, from, to).to_bits(),
            "mean_between({}, {})",
            from,
            to
        );
    }
    for n in [
        0,
        1,
        3,
        7,
        39,
        40,
        100,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        3 * CHUNK,
    ] {
        prop_assert_eq!(
            bits(s.downsample(n)),
            bits(model_downsample(model, n)),
            "downsample({})",
            n
        );
    }
    for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
        prop_assert_eq!(
            s.quantile(q).to_bits(),
            model_quantile(model, q).to_bits(),
            "quantile({})",
            q
        );
    }
    Ok(())
}

/// The CSV export of `a` and `b`, recorded in interleaved order, `a`
/// resolving its name on every push and `b` through one id resolved up
/// front, replays exactly the pushed times.
fn check_recorder(a: &Model, b: &Model) -> TestCaseResult {
    let mut rec = Recorder::new();
    let b_id = rec.series_id("b");
    for i in 0..a.len().max(b.len()) {
        if let Some(&(ns, v)) = a.get(i) {
            let a_id = rec.series_id("a");
            rec.record_id(a_id, SimTime::from_nanos(ns), v);
        }
        if let Some(&(ns, v)) = b.get(i) {
            rec.record_id(b_id, SimTime::from_nanos(ns), v);
        }
    }
    prop_assert_eq!(bits(rec.get(b_id).samples()), bits(model_samples(b)));
    if a.is_empty() {
        prop_assert!(rec.series("a").is_none());
        prop_assert_eq!(rec.to_csv(), model_csv(&[("b", b)]));
    } else {
        prop_assert_eq!(rec.to_csv(), model_csv(&[("a", a), ("b", b)]));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every per-series reading matches the model bit for bit.
    #[test]
    fn series_matches_the_naive_model(model in arb_pushes(), cuts in (0.0f64..1.0, 0.0f64..1.0)) {
        check_series(&build("x", &model), &model, cuts)?;
    }

    /// The CSV export replays exactly the pushed times.
    #[test]
    fn recorder_csv_matches_the_model(a in arb_pushes(), b in arb_pushes()) {
        check_recorder(&a, &b)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Series that fill whole chunks and cross chunk boundaries, with
    /// stride breaks beside them, match the model bit for bit.
    #[test]
    fn chunked_series_match_the_naive_model(model in arb_long_pushes(), cuts in (0.0f64..1.0, 0.0f64..1.0)) {
        check_series(&build("x", &model), &model, cuts)?;
    }

    /// A long and a short series export the same CSV as the model.
    #[test]
    fn chunked_recorder_csv_matches_the_model(a in arb_long_pushes(), b in arb_pushes()) {
        check_recorder(&a, &b)?;
    }
}

/// Stride breaks of every kind at each index within two samples of the
/// first and second chunk boundaries, on a series three samples past
/// the second boundary. The second series in the CSV check stops just
/// before the break.
#[test]
fn stride_breaks_beside_every_boundary_match_the_model() {
    let len = 2 * CHUNK + 3;
    let values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
    for boundary in [CHUNK, 2 * CHUNK] {
        for at in boundary - 2..=boundary + 2 {
            for kind in 0..4u8 {
                let mut times = stride(1_000, 100_000_000, len);
                edit(&mut times, at, kind, 250_000_000);
                let model = with_values(times, values.clone());
                let s = build("x", &model);
                check_series(&s, &model, (0.3, 0.6))
                    .unwrap_or_else(|e| panic!("break of kind {kind} at {at}: {e}"));
                check_recorder(&model, &model[..at].to_vec())
                    .unwrap_or_else(|e| panic!("CSV, break of kind {kind} at {at}: {e}"));
            }
        }
    }
}

/// Series names a recorder op sequence draws from.
const NAMES: [&str; 3] = ["web.rps", "a", "web.killed"];

/// Spacing of a series' next strided sample.
const STEP_NS: u64 = 100_000_000;

/// One operation on a recorder. Names are indices into [`NAMES`]; a
/// `None` time continues the series' stride, a `Some` time usually
/// breaks it.
#[derive(Debug, Clone)]
enum Op {
    Resolve(usize),
    /// A `record_id` push through the id resolved since the last clear.
    RecordId(usize, Option<u64>, f64),
    /// A `record_id` push through an id resolved by name just before.
    RecordByName(usize, Option<u64>, f64),
    /// `count` strided `record_id` pushes; with `true` the middle one
    /// repeats its predecessor's time.
    Burst(usize, usize, bool),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let time = prop_oneof![Just(None), Just(None), (0u64..5_000_000_000).prop_map(Some)];
    (
        0u8..12,
        0..NAMES.len(),
        time,
        (arb_value(), prop_oneof![1usize..40, CHUNK - 2..CHUNK + 3]),
    )
        .prop_map(|(kind, name, time, (value, count))| match kind {
            0 | 1 => Op::Resolve(name),
            2..=5 => Op::RecordId(name, time, value),
            6..=9 => Op::RecordByName(name, time, value),
            10 => Op::Burst(name, count, value < 0.0),
            _ => Op::Clear,
        })
}

/// A recorder and the ids it has resolved since its last clear.
struct Side {
    rec: Recorder,
    ids: [Option<SeriesId>; 3],
}

impl Side {
    fn new() -> Self {
        Side {
            rec: Recorder::new(),
            ids: [None; 3],
        }
    }

    fn resolve(&mut self, name: usize) -> SeriesId {
        let rec = &mut self.rec;
        *self.ids[name].get_or_insert_with(|| rec.series_id(NAMES[name]))
    }
}

/// Every observable reading of `reused` matches `fresh` bit for bit.
fn check_same_recorder(reused: &Recorder, fresh: &Recorder) -> TestCaseResult {
    prop_assert_eq!(reused.names(), fresh.names());
    for name in NAMES {
        prop_assert_eq!(
            reused.series(name).map(|s| bits(s.samples())),
            fresh.series(name).map(|s| bits(s.samples())),
            "series({})",
            name
        );
    }
    prop_assert_eq!(reused.iter().count(), fresh.iter().count());
    for (a, b) in reused.iter().zip(fresh.iter()) {
        prop_assert_eq!(a.name(), b.name());
        prop_assert_eq!(bits(a.samples()), bits(b.samples()));
    }
    prop_assert_eq!(reused.to_csv(), fresh.to_csv());
    Ok(())
}

/// A recorder that is cleared on every `Clear` beside a fresh one that
/// is replaced instead, fed the same pushes.
struct Pair {
    reused: Side,
    fresh: Side,
    /// Each name's next strided time.
    next_ns: [u64; 3],
}

impl Pair {
    fn push(&mut self, name: usize, time: Option<u64>, value: f64, by_id: bool) {
        let ns = time.unwrap_or(self.next_ns[name]);
        self.next_ns[name] = ns + STEP_NS;
        let time = SimTime::from_nanos(ns);
        for side in [&mut self.reused, &mut self.fresh] {
            if by_id {
                let id = side.resolve(name);
                side.rec.record_id(id, time, value);
            } else {
                let id = side.rec.series_id(NAMES[name]);
                side.rec.record_id(id, time, value);
            }
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::Resolve(name) => {
                self.reused.resolve(name);
                self.fresh.resolve(name);
            }
            Op::RecordId(name, time, value) => self.push(name, time, value, true),
            Op::RecordByName(name, time, value) => self.push(name, time, value, false),
            Op::Burst(name, count, repeat) => {
                for i in 0..count {
                    let repeated = self.next_ns[name].saturating_sub(STEP_NS);
                    let time = (repeat && i == count / 2).then_some(repeated);
                    self.push(name, time, i as f64, true);
                }
            }
            Op::Clear => {
                self.reused.rec.clear();
                self.reused.ids = [None; 3];
                self.fresh = Side::new();
            }
        }
    }
}

/// Applies `ops` to both recorders of a [`Pair`], comparing after each.
fn check_clear_and_reuse(ops: &[Op]) -> TestCaseResult {
    let mut pair = Pair {
        reused: Side::new(),
        fresh: Side::new(),
        next_ns: [0; 3],
    };
    for op in ops {
        pair.apply(op);
        check_same_recorder(&pair.reused.rec, &pair.fresh.rec)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A recorder cleared between runs, with strided, explicit-time and
    /// chunk-crossing series and names revived after each clear, reads
    /// exactly like a fresh recorder fed only the current run.
    #[test]
    fn cleared_recorder_matches_a_fresh_one(ops in collection::vec(arb_op(), 1..40)) {
        check_clear_and_reuse(&ops)?;
    }
}

/// A long run, a clear, then a short run over the same names and one
/// new name: the shape a fleet host leaves for the next.
#[test]
fn reuse_after_a_chunk_crossing_run_matches_a_fresh_recorder() {
    let ops = [
        Op::Burst(0, CHUNK + 2, false),
        Op::Burst(1, 7, true),
        Op::RecordByName(2, Some(3), 1.0),
        Op::RecordByName(2, Some(1), 2.0),
        Op::Clear,
        Op::Resolve(1),
        Op::RecordId(0, None, 5.0),
        Op::RecordByName(0, None, 6.0),
        Op::RecordByName(2, None, -0.0),
        Op::Clear,
        Op::Clear,
        Op::Burst(1, CHUNK, false),
    ];
    check_clear_and_reuse(&ops).unwrap_or_else(|e| panic!("{e}"));
}
