//! Self-tests of the benchmark: the metric tables match `BENCHMARK.json`,
//! every run emits every metric of its table with its unit, and broken
//! outputs are reported as failures rather than as metrics. Workloads run
//! at a reduced scale so the tests finish in a debug build.

use std::process::Command;
use std::time::Duration;

use zbench::metrics::{END_TO_END, PER_LAYER};
use zbench::{replay, FuzzPin, Outcome, Params, Scale, SweepPin, Workload};

/// Small inputs whose pinned digests were taken from this scale's own
/// pinned references.
const TINY: Scale = Scale {
    sweep_homes: 6,
    sweep_budget: Duration::from_secs(60),
    fuzz_campaigns: 2,
    fuzz_budget: Duration::from_secs(120),
    fuzz_bugs: 0,
    replay_traces: 1,
    replay_budget: Duration::from_secs(120),
    setup_reps: 1,
    sweep_pin: SweepPin { homes: 3, seed: 42, union: &[], packets: 0, frames: 0 },
    fuzz_pin: FuzzPin { seed: 42, budget: Duration::from_secs(120), bugs: 0, packets: 0 },
};

const QUICK: Params = Params { seed: 5, seconds: 0.0, traced: false };

// ───────────────────────── a minimal JSON reader ─────────────────────────

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
        let value = parser.value();
        parser.skip_ws();
        assert_eq!(parser.at, text.len(), "trailing input after JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                &fields.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no key {key}")).1
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "expected {:?} at {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                while self.peek() != b'}' {
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                for (word, value) in
                    [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
                {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return value;
                    }
                }
                panic!("bad literal at {}", self.at)
            }
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && b"+-.eE0123456789".contains(&self.bytes[self.at])
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => return out,
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    match escaped {
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.at..self.at + 4])
                                .expect("hex");
                            out.push(
                                char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                    .expect("char"),
                            );
                            self.at += 4;
                        }
                        b'n' => out.push('\n'),
                        other => out.push(other as char),
                    }
                }
                _ => {
                    let len = match byte {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.at - 1;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..start + len]).expect("utf-8"),
                    );
                    self.at = start + len;
                }
            }
        }
    }
}

// ───────────────────────── helpers ─────────────────────────

/// `TINY` with the pinned digests this build produces, so the positive
/// tests pass and the negative ones can perturb a known-good digest.
fn tiny() -> Scale {
    let mut scale = TINY;
    let pin = zbench::sweep::config(scale.sweep_pin.homes, &scale, scale.sweep_pin.seed);
    let (summary, _) =
        zcover::run_sweep(&zcover::CampaignExecutor::new(1), &pin).expect("pin sweep");
    scale.sweep_pin.union = summary.union_bug_ids().leak();
    scale.sweep_pin.packets = summary.counters.packets_sent;
    scale.sweep_pin.frames = summary.channel.frames_sent;
    let fuzz = zcover::FuzzConfig::full(scale.fuzz_pin.budget, scale.fuzz_pin.seed);
    let (result, _, _) = zbench::fuzz::campaign(fuzz).expect("pin campaign");
    scale.fuzz_pin.bugs = result.unique_vulns();
    scale.fuzz_pin.packets = result.packets_sent;
    // Every fuzz-deep campaign must find the same number of bugs; at this
    // budget that is what the first campaign of seed 5 finds.
    let first =
        zcover::FuzzConfig::full(scale.fuzz_budget, zcover::derive_trial_seed(QUICK.seed, 0));
    scale.fuzz_bugs = zbench::fuzz::campaign(first).expect("campaign").0.unique_vulns();
    scale
}

fn result_json(out: &Outcome, traced: bool) -> Json {
    Json::parse(&out.result_line(traced).expect("every metric measured"))
}

fn benchmark_json() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json"))
}

// ───────────────────────── tests ─────────────────────────

#[test]
fn metric_tables_and_workloads_match_benchmark_json() {
    let bench = benchmark_json();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str)> = bench
            .get(key)
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("unit").str()))
            .collect();
        assert_eq!(listed, table.to_vec(), "{key} in BENCHMARK.json");
    }
    let workloads: Vec<&str> =
        bench.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name).to_vec());
    assert!(END_TO_END.iter().any(|&(name, unit)| (name, unit) == ("setup_s", "s")));
    let command: Vec<&str> = bench.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"zbench/Cargo.toml"), "the command builds this package");
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let scale = tiny();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = zbench::run(workload, &Params { traced, ..QUICK }, &scale);
            assert!(out.correct(), "{} trace={traced}: {:?}", workload.name(), out.failures);
            assert!(out.attempted >= 1);
            let result = result_json(&out, traced);
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let metrics = result.get("metrics");
            let table = if traced { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.keys(), table.iter().map(|(n, _)| *n).collect::<Vec<_>>());
            for (name, unit) in table {
                assert_eq!(metrics.get(name).get("unit").str(), *unit);
                assert!(matches!(metrics.get(name).get("value"), Json::Num(_)));
            }
            if traced {
                let coverage = out.metrics.get("spans.coverage").expect("coverage");
                assert!(coverage > 0.5 && coverage <= 1.0, "span coverage {coverage}");
            } else {
                for (name, _) in END_TO_END {
                    let value = out.metrics.get(name).expect("measured");
                    assert!(value > 0.0, "{} {name} = {value}", workload.name());
                }
            }
        }
    }
}

#[test]
fn perturbed_digests_are_failures_not_metrics() {
    let good = tiny();
    let mut sweep = good;
    sweep.sweep_pin.packets += 1;
    let mut fuzz = good;
    fuzz.fuzz_pin.packets += 1;
    let mut bugs = good;
    bugs.fuzz_bugs += 1;
    for (workload, scale) in
        [(Workload::SweepMesh, sweep), (Workload::FuzzDeep, fuzz), (Workload::FuzzDeep, bugs)]
    {
        let out = zbench::run(workload, &QUICK, &scale);
        assert!(!out.correct(), "{} accepted a perturbed digest", workload.name());
        let result = result_json(&out, false);
        assert_eq!(result.get("correct"), &Json::Bool(false));
        assert!(matches!(result.get("failed"), Json::Num(n) if *n >= 1.0));
        assert_eq!(result.get("metrics"), &Json::Obj(Vec::new()));
    }
}

#[test]
fn corrupted_or_mismatched_replay_inputs_are_failures_not_metrics() {
    let scale = tiny();
    let input = replay::record(QUICK.seed, 0, &scale).expect("recording");

    let mut corrupted = input.clone();
    let middle = corrupted.bytes.len() / 2;
    corrupted.bytes[middle] ^= 0x5A;
    let mut miscounted = input.clone();
    miscounted.events += 1;

    for (what, broken) in [("corrupted bytes", corrupted), ("wrong event count", miscounted)] {
        let mut out = Outcome::default();
        if let Err(error) = replay::measure(&QUICK, &[broken], &mut out) {
            out.fail(error);
        }
        assert!(!out.correct(), "{what} was accepted");
        assert_eq!(result_json(&out, false).get("metrics"), &Json::Obj(Vec::new()));
    }

    let mut out = Outcome::default();
    replay::measure(&QUICK, &[input], &mut out).expect("clean replay");
    assert!(out.correct(), "{:?}", out.failures);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "fuzz-deep", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "fuzz-deep", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--workload", "fuzz-deep", "--seed", "1", "--seconds", "1"],
        &[
            "--workload",
            "fuzz-deep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--extra",
            "1",
        ],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_zbench")).args(args).output().expect("runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
