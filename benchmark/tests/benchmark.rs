//! Runs every workload at a hundredth of its size through the same code
//! paths as the benchmark proper, and checks its determinism contract
//! and its result line against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --offline --manifest-path
//! benchmark/Cargo.toml` from the repository root.

// A traced host needs a clock origin; see the waiver in the library.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;

use tmo::prelude::*;
use tmo_benchmark::hosts::{bench_host, Plan, Workload};
use tmo_benchmark::measure::run_rep;
use tmo_benchmark::{run_benchmark, Args, Report};

const FRACTION: f64 = 0.01;

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    run_benchmark(&Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        fraction: FRACTION,
        spans_path: None,
    })
}

#[test]
fn simulated_output_repeats_for_a_seed_and_differs_across_seeds() {
    for workload in Workload::ALL {
        let a = small(workload, 1, false);
        let b = small(workload, 1, false);
        let c = small(workload, 2, false);
        assert!(a.correct && a.failed == 0, "{}: {a:?}", workload.name());
        assert_eq!(a.lines, b.lines, "{}", workload.name());
        assert_ne!(a.lines, c.lines, "{}", workload.name());
        assert_ne!(a.digest, c.digest, "{}", workload.name());
    }
}

#[test]
fn traced_loops_reproduce_the_library_loops() {
    for workload in Workload::ALL {
        let plan = Plan::new(workload, FRACTION);
        let untraced = run_rep(&plan, 7, false);
        let traced = run_rep(&plan, 7, true);
        assert!(untraced.panics.is_empty(), "{}", workload.name());
        assert_eq!(
            untraced.host_digests,
            traced.host_digests,
            "{}",
            workload.name()
        );
        let report = small(workload, 7, true);
        assert!(report.correct, "{}: {report:?}", workload.name());
        assert_eq!(report.digest, untraced.digest(), "{}", workload.name());
    }
}

#[test]
fn fleet_tiny_digest_does_not_depend_on_worker_count() {
    let mut plan = Plan::new(Workload::FleetTiny, FRACTION);
    plan.jobs = 1;
    let sequential = run_rep(&plan, 3, false);
    plan.jobs = 2;
    let parallel = run_rep(&plan, 3, false);
    assert_eq!(sequential.digest(), parallel.digest());
}

#[test]
fn fleet_tiny_host_matches_the_paper_scale_host() {
    let plan = Plan::new(Workload::FleetTiny, FRACTION);
    let mut arena = ShardArena::new();
    let mut reference_arena = ShardArena::new();
    for index in 0..16 {
        let ctx = HostCtx {
            index,
            seed: FleetRunner::host_seed(11, index),
        };
        for traced in [None, Some(std::time::Instant::now())] {
            let bench = bench_host(&plan, ctx, &mut arena, traced);
            let reference = tmo_experiments::ext_paper_scale::run_host(ctx, &mut reference_arena);
            assert_eq!(bench.state.savings, reference, "host {index}");
        }
    }
}

/// A JSON value, parsed by the small reader below.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>, Vec<String>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map, _) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn keys(&self) -> &[String] {
        match self {
            Json::Obj(_, keys) => keys,
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn parse(text: &str) -> Json {
        let mut r = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = r.value();
        r.ws();
        assert_eq!(r.pos, r.bytes.len(), "trailing bytes");
        v
    }

    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.bytes[self.pos], c, "at byte {}", self.pos);
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        self.bytes[self.pos]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                let mut keys = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let Json::Str(k) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        let v = self.value();
                        assert!(map.insert(k.clone(), v).is_none(), "duplicate key {k}");
                        keys.push(k);
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Obj(map, keys)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => {
                self.eat(b'"');
                let start = self.pos;
                while self.bytes[self.pos] != b'"' {
                    assert_ne!(self.bytes[self.pos], b'\\', "escapes are not used");
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                self.pos += 1;
                Json::Str(s.to_string())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.pos)
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Reader::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Checks a result line against `BENCHMARK.json`: every metric of the
/// run's kind appears exactly once with its declared unit and a finite
/// value, and nothing else appears.
fn check_result_line(spec: &Json, line: &str, traced: bool) {
    let result = Reader::parse(line);
    assert_eq!(
        result.keys(),
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    assert_eq!(result.get("correct"), &Json::Bool(true), "{line}");
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let declared = spec
        .get(if traced { "per_layer" } else { "end_to_end" })
        .arr();
    let metrics = result.get("metrics");
    let emitted: Vec<&str> = metrics.keys().iter().map(String::as_str).collect();
    let names: Vec<&str> = declared.iter().map(|m| m.get("name").str()).collect();
    assert_eq!(emitted, names);
    for m in declared {
        let got = metrics.get(m.get("name").str());
        assert_eq!(got.keys(), ["value", "unit"]);
        assert_eq!(got.get("unit").str(), m.get("unit").str());
        assert!(got.get("value").num().is_finite());
    }
}

#[test]
fn benchmark_json_is_within_its_limits() {
    let spec = benchmark_json();
    assert_eq!(
        spec.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = spec.get("workloads").arr();
    let e2e = spec.get("end_to_end").arr();
    let layers = spec.get("per_layer").arr();
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let listed: Vec<&str> = workloads.iter().map(|w| w.get("name").str()).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
    let mut seen = std::collections::BTreeSet::new();
    for w in workloads {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(w.get("why").str().len() <= 200);
    }
    for m in e2e.iter().chain(layers) {
        let name = m.get("name").str();
        assert!(well_formed_name(name), "{name}");
        assert!(seen.insert(name), "{name} listed twice");
        let unit = m.get("unit").str();
        assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        assert!(matches!(m.get("better").str(), "higher" | "lower"));
    }
    for m in e2e {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{bound}");
    }
    for m in layers {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
    let largest = e2e.iter().map(|m| m.get("bound").num()).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").num(), largest);
    let run_seconds = spec.get("run_seconds").num();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
}

#[test]
fn result_lines_match_benchmark_json() {
    let spec = benchmark_json();
    for workload in [Workload::FleetTiny, Workload::ScenarioCatalog] {
        for traced in [false, true] {
            let report = small(workload, 5, traced);
            check_result_line(&spec, &report.result_line(), traced);
        }
    }
}
