//! Three-way ZCover / coverage-guided / VFuzz comparison harness.
//!
//! Runs the same multi-trial campaign on D1 under each of the three
//! engines selected by [`zcover::FuzzMode`]:
//!
//! - **zcover** — the paper's position-sensitive Algorithm 1 (`full`);
//! - **coverage** — the coverage-guided mode: APL dispatch-edge feedback,
//!   corpus retention on new-edge discovery, power-schedule mutation;
//! - **vfuzz** — the VFuzz baseline: MAC-level mutation of the frames
//!   fingerprinting captured, injected raw (no APL awareness).
//!
//! For every Table III bug each mode finds, the harness reports the mean
//! and median virtual time to first discovery across trials, plus the
//! edges-over-time curve sampled from trial 0's campaign trace (the
//! dispatch-edge instrumentation observes all three modes, so the curves
//! are directly comparable). Results land in `BENCH_coverage.json`;
//! `--out PATH` overrides.
//!
//! Two properties are asserted before the record is written:
//!
//! - **determinism** — re-running the coverage campaigns on a different
//!   worker count reproduces the exact per-trial injected-packet counts,
//!   findings and corpus contents;
//! - **acceptance** — on at least half of the bugs both engines measure,
//!   the coverage mode's median discovery time is no worse than the
//!   zcover positional mode's.
//!
//! Shares the campaign flags of the table binaries (`--trials`, `--seed`,
//! `--workers`, `--impairment`, `--paper`); `--smoke` shrinks to two
//! trials on a half-hour budget for CI.

use std::collections::BTreeMap;
use std::time::Duration;

use zcover::cli::{probe, Command};
use zcover::{CampaignExecutor, FuzzConfig, TrialSummary};
use zcover_bench::CampaignSpec;
use zwave_controller::testbed::{DeviceModel, Testbed};

/// The three engines, as (label, canonical config name) pairs. The label
/// keys the JSON record; the config name feeds [`FuzzConfig::named`].
const MODES: [(&str, &str); 3] = [("zcover", "full"), ("coverage", "coverage"), ("vfuzz", "vfuzz")];

/// Points kept in each emitted edges-over-time curve: enough to plot the
/// knee sharply without dumping every sampled trace event.
const CURVE_POINTS: usize = 100;

fn run_mode(spec: &CampaignSpec, config_name: &str, workers: usize) -> TrialSummary {
    let mut config = FuzzConfig::named(config_name, spec.budget, 0)
        .unwrap_or_else(|| panic!("{config_name} is a canonical config name"));
    config.impairment = spec.profile;
    CampaignExecutor::new(workers)
        .run(spec.trials, spec.seed, |seed| Testbed::new(DeviceModel::D1, seed), &config)
        .expect("fingerprinting succeeds on D1")
}

/// Per-bug first-discovery times (seconds of virtual time), one sample
/// per trial that found the bug.
fn discovery_times(summary: &TrialSummary) -> BTreeMap<u8, Vec<f64>> {
    let mut times: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    for trial in &summary.per_trial {
        for f in &trial.findings {
            times
                .entry(f.bug_id)
                .or_default()
                .push(f.found_at.duration_since(trial.started).as_secs_f64());
        }
    }
    times
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("discovery times are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Downsamples trial 0's trace into at most [`CURVE_POINTS`] `[t_s,
/// edges]` pairs, always keeping the final sample.
fn edges_curve(summary: &TrialSummary) -> Vec<(f64, u64)> {
    let trial = &summary.per_trial[0];
    let events = &trial.trace;
    if events.is_empty() {
        return Vec::new();
    }
    let step = events.len().div_ceil(CURVE_POINTS);
    let mut curve: Vec<(f64, u64)> = events
        .iter()
        .step_by(step)
        .map(|e| (e.at.duration_since(trial.started).as_secs_f64(), e.edges))
        .collect();
    let last = events.last().expect("non-empty");
    let last_point = (last.at.duration_since(trial.started).as_secs_f64(), last.edges);
    if curve.last() != Some(&last_point) {
        curve.push(last_point);
    }
    curve
}

/// Mean of a per-trial counter: `edges_seen`/`corpus_size` are absolute
/// gauges, so the summary's summed counters would overstate them.
fn mean_counter(summary: &TrialSummary, get: impl Fn(&zcover::CampaignCounters) -> u64) -> f64 {
    mean(&summary.per_trial.iter().map(|r| get(&r.counters) as f64).collect::<Vec<_>>())
}

fn mode_json(summary: &TrialSummary, config_name: &str) -> String {
    let times = discovery_times(summary);
    let per_bug: Vec<String> = times
        .iter()
        .map(|(bug, ts)| {
            format!(
                "      \"{bug}\": {{\"hits\": {}, \"mean_s\": {:.1}, \"median_s\": {:.1}}}",
                ts.len(),
                mean(ts),
                median(ts)
            )
        })
        .collect();
    let curve: Vec<String> =
        edges_curve(summary).iter().map(|(t, e)| format!("[{t:.1}, {e}]")).collect();
    format!(
        "{{\n    \"config\": \"{config_name}\",\n    \"union_bug_ids\": [{}],\n    \
         \"mean_packets\": {:.1},\n    \"mean_unique_vulns\": {:.2},\n    \
         \"mean_edges_seen\": {:.1},\n    \"mean_corpus_size\": {:.1},\n    \
         \"mean_retained_inputs\": {:.1},\n    \
         \"discovery\": {{\n{}\n    }},\n    \"edges_over_time\": [{}]\n  }}",
        summary.union_bug_ids.iter().map(u8::to_string).collect::<Vec<_>>().join(", "),
        summary.mean_packets,
        summary.mean_unique_vulns(),
        mean_counter(summary, |c| c.edges_seen),
        mean_counter(summary, |c| c.corpus_size),
        mean_counter(summary, |c| c.retained_inputs),
        per_bug.join(",\n"),
        curve.join(", ")
    )
}

fn main() {
    let flags = &[
        "--seed N --trials N --workers N --paper --impairment clean|lossy|bursty|adversarial",
        "--smoke --out FILE",
    ];
    let args = Command { name: "bench_coverage", flags }.env_args();
    let smoke = args.switch("--smoke");
    let mut spec =
        CampaignSpec::from_cli(&args, 1, if smoke { 2 } else { 5 }).unwrap_or_else(|e| e.exit());
    if smoke && !args.switch("--paper") {
        spec.budget = Duration::from_secs(1800);
    }
    let out = args.get("--out").unwrap_or("BENCH_coverage.json");
    probe(out).unwrap_or_else(|e| e.exit());

    eprintln!("{}", spec.banner("per mode (zcover/coverage/vfuzz) on D1"));
    let summaries: Vec<(&str, &str, TrialSummary)> = MODES
        .iter()
        .map(|(label, config_name)| {
            eprintln!("mode {label} ({config_name}) ...");
            (*label, *config_name, run_mode(&spec, config_name, spec.workers))
        })
        .collect();

    // Determinism: the coverage campaigns must be bit-identical under a
    // different worker count — same injected-packet counts, findings and
    // corpus, trial for trial.
    let alternate_workers = if spec.workers == 1 { 2 } else { 1 };
    eprintln!("re-running coverage mode on {alternate_workers} worker(s) for determinism ...");
    let replay = run_mode(&spec, "coverage", alternate_workers);
    let coverage = &summaries[1].2;
    for (a, b) in coverage.per_trial.iter().zip(&replay.per_trial) {
        assert_eq!(
            a.packets_sent, b.packets_sent,
            "injected-packet count diverged across worker counts"
        );
        assert_eq!(a.findings, b.findings, "findings diverged across worker counts");
        assert_eq!(a.corpus, b.corpus, "corpus contents diverged across worker counts");
    }

    // Acceptance: coverage mode's median discovery time beats or matches
    // zcover's on at least half of the bugs both engines measure.
    let zcover_times = discovery_times(&summaries[0].2);
    let coverage_times = discovery_times(coverage);
    let mut compared = 0usize;
    let mut wins = 0usize;
    let mut per_bug: Vec<String> = Vec::new();
    for (bug, zc) in &zcover_times {
        let Some(cv) = coverage_times.get(bug) else { continue };
        let (zc_med, cv_med) = (median(zc), median(cv));
        compared += 1;
        if cv_med <= zc_med {
            wins += 1;
        }
        per_bug.push(format!(
            "      \"{bug}\": {{\"zcover_median_s\": {zc_med:.1}, \
             \"coverage_median_s\": {cv_med:.1}}}"
        ));
    }

    let modes_json: Vec<String> = summaries
        .iter()
        .map(|(label, config_name, summary)| {
            format!("  \"{label}\": {}", mode_json(summary, config_name))
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"coverage\",\n  \"cpu_count\": {},\n  \"device\": \"D1\",\n  \
         \"trials\": {},\n  \
         \"budget_s\": {},\n  \"workers\": {},\n  \"impairment\": \"{}\",\n  \"seed\": {},\n\
         {},\n  \"comparison\": {{\n    \"bugs_compared\": {compared},\n    \
         \"coverage_median_not_worse\": {wins},\n    \"per_bug\": {{\n{}\n    }}\n  }}\n}}\n",
        zcover_bench::cpu_count(),
        spec.trials,
        spec.budget.as_secs(),
        spec.workers,
        spec.profile,
        spec.seed,
        modes_json.join(",\n"),
        per_bug.join(",\n")
    );
    std::fs::write(out, &json).expect("writing the benchmark record");
    eprintln!("wrote {out}");
    println!(
        "coverage median <= zcover median on {wins}/{compared} bugs | \
         mean edges: zcover {:.0} / coverage {:.0} / vfuzz {:.0}",
        mean_counter(&summaries[0].2, |c| c.edges_seen),
        mean_counter(&summaries[1].2, |c| c.edges_seen),
        mean_counter(&summaries[2].2, |c| c.edges_seen),
    );
    assert!(compared > 0, "the two engines must overlap on at least one bug");
    assert!(
        wins * 2 >= compared,
        "coverage mode must match or beat zcover's median discovery time on at \
         least half of the shared bugs, got {wins}/{compared}"
    );
}
