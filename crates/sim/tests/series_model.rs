//! Differential test of the columnar [`Series`] against a naive model.
//!
//! `Series` keeps one value column and a time axis that stays a
//! `(start, step)` stride until a push breaks it, then switches to one
//! stored time per sample. The model is the plain `Vec<(ns, value)>`
//! that storage replaces. Every reading — the samples themselves, the
//! summaries, downsampling and the CSV export — must agree bit
//! for bit on push sequences that keep, break, repeat and reverse the
//! stride, so a switch that drops or shifts a time fails here.

use proptest::collection;
use proptest::prelude::*;
use tmo_sim::{Recorder, Sample, Series, SimTime};

/// Pushed `(nanoseconds, value)` pairs, in push order.
type Model = Vec<(u64, f64)>;

/// Push times: a stride from `start` by `step` (both possibly zero),
/// then up to four edits that break it. Edit kinds: 0 shifts this and
/// every later time (the stride resumes at an offset), 1 repeats the
/// previous time, 2 steps back in time, 3 moves one time by 1 ns.
fn arb_times() -> impl Strategy<Value = Vec<u64>> {
    (
        prop_oneof![Just(0u64), 0u64..5_000_000_000],
        prop_oneof![Just(0u64), 1u64..1_000, Just(100_000_000u64)],
        0usize..40,
        collection::vec((0usize..40, 0u8..4, 1u64..2_000_000_000), 0..5),
    )
        .prop_map(|(start, step, len, edits)| {
            let mut times: Vec<u64> = (0..len as u64).map(|i| start + i * step).collect();
            for (at, kind, delta) in edits {
                if at >= times.len() {
                    continue;
                }
                let prev = at.checked_sub(1).map(|p| times[p]);
                match kind {
                    0 => times[at..].iter_mut().for_each(|t| *t += delta),
                    1 => times[at] = prev.unwrap_or(times[at]),
                    2 => times[at] = prev.unwrap_or(times[at]).saturating_sub(delta),
                    _ => times[at] += 1,
                }
            }
            times
        })
}

/// A push sequence with values, including negative zero.
fn arb_pushes() -> impl Strategy<Value = Model> {
    (
        arb_times(),
        collection::vec(prop_oneof![-1e6f64..1e6, Just(-0.0), Just(0.0)], 40),
    )
        .prop_map(|(times, values)| times.into_iter().zip(values).collect())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every per-series reading matches the model bit for bit.
    #[test]
    fn series_matches_the_naive_model(model in arb_pushes(), cuts in (0.0f64..1.0, 0.0f64..1.0)) {
        let s = build("x", &model);
        prop_assert_eq!(s.len(), model.len());
        prop_assert_eq!(s.is_empty(), model.is_empty());
        prop_assert_eq!(s.samples().len(), model.len());
        prop_assert_eq!(bits(s.samples()), bits(model_samples(&model)));
        let values: Vec<u64> = s.values().map(f64::to_bits).collect();
        let model_values: Vec<u64> = model.iter().map(|&(_, v)| v.to_bits()).collect();
        prop_assert_eq!(values, model_values);
        prop_assert_eq!(s.last().map(f64::to_bits), model.last().map(|&(_, v)| v.to_bits()));

        let horizon = model.iter().map(|&(ns, _)| secs(ns)).fold(0.0, f64::max) + 1.0;
        let (lo, hi) = if cuts.0 <= cuts.1 { cuts } else { (cuts.1, cuts.0) };
        for (from, to) in [(0.0, horizon), (lo * horizon, hi * horizon), (horizon, 2.0 * horizon)] {
            prop_assert_eq!(
                s.mean_between(from, to).to_bits(),
                model_mean_between(&model, from, to).to_bits(),
                "mean_between({}, {})", from, to
            );
        }
        for n in [0, 1, 3, 7, 39, 40, 100] {
            prop_assert_eq!(bits(s.downsample(n)), bits(model_downsample(&model, n)), "downsample({})", n);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            prop_assert_eq!(s.quantile(q).to_bits(), model_quantile(&model, q).to_bits(), "quantile({})", q);
        }
    }

    /// The CSV export replays exactly the pushed times, for two series
    /// written in interleaved order through both recorder entry points.
    #[test]
    fn recorder_csv_matches_the_model(a in arb_pushes(), b in arb_pushes()) {
        let mut rec = Recorder::new();
        let b_id = rec.series_id("b");
        for i in 0..a.len().max(b.len()) {
            if let Some(&(ns, v)) = a.get(i) {
                rec.record("a", SimTime::from_nanos(ns), v);
            }
            if let Some(&(ns, v)) = b.get(i) {
                rec.record_id(b_id, SimTime::from_nanos(ns), v);
            }
        }
        prop_assert_eq!(bits(rec.get(b_id).samples()), bits(model_samples(&b)));
        if a.is_empty() {
            prop_assert!(rec.series("a").is_none());
            prop_assert_eq!(rec.to_csv(), model_csv(&[("b", &b)]));
        } else {
            prop_assert_eq!(rec.to_csv(), model_csv(&[("a", &a), ("b", &b)]));
        }
    }
}
