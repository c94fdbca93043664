//! The ZCover benchmark: three workloads driven through the public library
//! API in one process, each a closed loop from one client (every home,
//! campaign or replay starts when the previous one has finished).
//!
//! - `sweep-mesh`: `run_sweep` over 512 mesh homes, one worker.
//! - `fuzz-deep`: `ZCover::run_campaign` on the flat D1 testbed, 24 h
//!   virtual budget.
//! - `replay-lossy`: `Trace::from_bytes` plus `zcover::replay` of D1
//!   campaigns recorded under the `lossy` channel profile.
//!
//! An untraced run (`--trace 0`) times the public calls and reports the
//! end-to-end metrics. A traced run (`--trace 1`) also runs each operation
//! decomposed into its public steps, with spans around each call, checks
//! that the decomposition reproduces the untraced result exactly, and
//! reports the per-layer metrics. Every run checks its outputs; a mismatch
//! is a failed operation and the run reports no metrics.

#![forbid(unsafe_code)]

pub mod fuzz;
pub mod metrics;
mod phases;
pub mod replay;
mod spans;
pub mod stats;
pub mod sweep;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use zcover::CampaignResult;

use metrics::Metrics;
use spans::Spans;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// City sweep of mesh homes.
    SweepMesh,
    /// One long campaign at a time on the D1 testbed.
    FuzzDeep,
    /// Decode and replay of lossy-channel recordings.
    ReplayLossy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SweepMesh, Workload::FuzzDeep, Workload::ReplayLossy];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepMesh => "sweep-mesh",
            Workload::FuzzDeep => "fuzz-deep",
            Workload::ReplayLossy => "replay-lossy",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's arguments.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Measuring time; a run also finishes its first full cycle of
    /// distinct inputs, so its deterministic metrics never depend on speed.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub traced: bool,
}

/// A pinned reference sweep whose digest is known in advance.
#[derive(Debug, Clone, Copy)]
pub struct SweepPin {
    /// Homes swept.
    pub homes: u64,
    /// Sweep seed.
    pub seed: u64,
    /// Expected union of bug ids.
    pub union: &'static [u8],
    /// Expected fuzz packets, summed over homes.
    pub packets: u64,
    /// Expected frames sent, summed over homes.
    pub frames: u64,
}

/// A pinned reference campaign on D1 whose digest is known in advance.
#[derive(Debug, Clone, Copy)]
pub struct FuzzPin {
    /// Campaign seed.
    pub seed: u64,
    /// Virtual budget.
    pub budget: Duration,
    /// Expected unique bugs.
    pub bugs: usize,
    /// Expected fuzz packets.
    pub packets: u64,
}

/// Input sizes. [`Scale::FULL`] is the benchmark; the self-tests use a
/// smaller one so they finish in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Homes per sweep.
    pub sweep_homes: u64,
    /// Virtual budget per sweep home.
    pub sweep_budget: Duration,
    /// Distinct campaigns (seeds) per fuzz-deep run.
    pub fuzz_campaigns: u64,
    /// Virtual budget per fuzz-deep campaign.
    pub fuzz_budget: Duration,
    /// Unique bugs every fuzz-deep campaign must find.
    pub fuzz_bugs: usize,
    /// Distinct recordings per replay-lossy run.
    pub replay_traces: u64,
    /// Virtual budget per recording.
    pub replay_budget: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Sweep set-up reference.
    pub sweep_pin: SweepPin,
    /// Fuzz set-up reference.
    pub fuzz_pin: FuzzPin,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        sweep_homes: 512,
        sweep_budget: Duration::from_secs(180),
        fuzz_campaigns: 8,
        fuzz_budget: Duration::from_secs(24 * 3600),
        fuzz_bugs: 15,
        replay_traces: 8,
        replay_budget: Duration::from_secs(24 * 3600),
        setup_reps: 5,
        sweep_pin: SweepPin {
            homes: 64,
            seed: 42,
            union: &[5, 14, 19],
            packets: 3841,
            frames: 159_764,
        },
        fuzz_pin: FuzzPin {
            seed: 42,
            budget: Duration::from_secs(6 * 3600),
            bugs: 15,
            packets: 28_410,
        },
    };
}

/// The known digest of the 512-home, seed-42 mesh sweep at the
/// default budget: checked whenever a run sweeps exactly that input.
pub(crate) const SWEEP_512_SEED_42: (&[u8], u64) = (&[1, 2, 5, 14, 19], 30_379);

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweeps, campaigns, recordings, replays,
    /// pinned references).
    pub attempted: u64,
    /// Operations whose output failed a check or that returned an error.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Metric values.
    pub metrics: Metrics,
    /// Timing sample sets behind the metrics, for the context line.
    pub timings: BTreeMap<&'static str, Vec<f64>>,
    /// Span table of a traced run.
    pub span_table: Option<String>,
}

impl Outcome {
    /// Counts one attempted operation.
    pub(crate) fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Records a failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        self.failures.push(message);
    }

    /// Records a failure when `ok` is false.
    pub(crate) fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Whether every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The final JSON line for a run of `traced` kind.
    ///
    /// # Errors
    ///
    /// A metric the table names was not measured (a benchmark bug).
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        metrics::result_line(
            metrics::table(traced),
            self.correct(),
            self.attempted,
            self.failed,
            &self.metrics,
        )
    }
}

/// Runs `workload` once and returns what it measured and checked.
pub fn run(workload: Workload, params: &Params, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let result = match workload {
        Workload::SweepMesh => sweep::run(params, scale, &mut out),
        Workload::FuzzDeep => fuzz::run(params, scale, &mut out),
        Workload::ReplayLossy => replay::run(params, scale, &mut out),
    };
    if let Err(error) = result {
        out.fail(error);
    }
    if !params.traced {
        match peak_rss_mb() {
            Some(mb) => out.metrics.set("peak_rss_mb", mb),
            None => out.fail("peak RSS unavailable (/proc/self/status has no VmHWM)".into()),
        }
    }
    out
}

/// Runs `op(0)`, `op(1)`, ... back to back until `seconds` have passed and
/// at least `min_ops` operations ran. Returns the number run.
///
/// # Errors
///
/// The first error `op` returns.
pub(crate) fn closed_loop(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<u64, String> {
    let started = Instant::now();
    let mut ran = 0;
    while ran < min_ops.max(1) || started.elapsed().as_secs_f64() < seconds {
        op(ran)?;
        ran += 1;
    }
    Ok(ran)
}

/// Host seconds of each of `reps` calls of `setup` (at least one).
///
/// # Errors
///
/// The first error `setup` returns.
pub(crate) fn timed_setups(
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    (0..reps.max(1))
        .map(|rep| {
            let started = Instant::now();
            setup(rep)?;
            Ok(started.elapsed().as_secs_f64())
        })
        .collect()
}

/// Virtual seconds from fuzz start to the campaign's last finding of a
/// seeded bug (MAC-layer quirks, ids 100 and up, arrive at random under an
/// impaired channel and are left out). `None` when nothing was found.
pub(crate) fn last_bug_s(campaign: &CampaignResult) -> Option<f64> {
    campaign
        .findings
        .iter()
        .filter(|f| f.bug_id < 100)
        .map(|f| f.found_at.duration_since(campaign.started).as_secs_f64())
        .reduce(f64::max)
}

/// Mean of `values`; `0.0` for none.
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sets the per-layer seconds metrics from `spans`, each the mean per
/// operation over `ops` traced operations. Layers the workload never
/// entered read 0.
pub(crate) fn layer_seconds(spans: &Spans, ops: u64, metrics: &mut Metrics) {
    const LAYERS: [(&str, &str); 9] = [
        ("network.setup_s", "network.setup"),
        ("passive.fingerprint_s", "passive.fingerprint"),
        ("active.scan_s", "active.scan"),
        ("discovery.run_s", "discovery.run"),
        ("fuzzer.run_s", "fuzzer.run"),
        ("sweep.merge_s", "sweep.merge"),
        ("trace.decode_s", "trace.decode"),
        ("trace.rerun_s", "trace.rerun"),
        ("trace.diff_s", "trace.diff"),
    ];
    let totals = spans.totals();
    for (metric, span) in LAYERS {
        let seconds = totals.get(span).map_or(0.0, |t| t.total.as_secs_f64());
        metrics.set(metric, seconds / ops.max(1) as f64);
    }
}

/// Sets the span-fidelity metrics of a traced run: how much of the traced
/// region the top-level layer spans cover, and what tracing cost per
/// operation against the untraced run of the same operations.
pub(crate) fn span_metrics(
    spans: &Spans,
    traced_s: f64,
    untraced_s: f64,
    ops: u64,
    metrics: &mut Metrics,
) {
    let per_op = |s: f64| s / ops.max(1) as f64;
    metrics.set("spans.coverage", spans.top_level().as_secs_f64() / traced_s.max(f64::EPSILON));
    metrics.set("spans.overhead_s", per_op(traced_s) - per_op(untraced_s));
    metrics.set("spans.untraced_s", per_op(untraced_s));
}

/// Sets the per-operation host time metrics from `op_s` (seconds).
pub(crate) fn home_metrics(op_s: &[f64], metrics: &mut Metrics) {
    let ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    metrics.set("home.host_ms_p50", stats::median(&ms));
    metrics.set("home.host_ms_p98", stats::percentile(&ms, 98.0));
    metrics.set("home.samples", ms.len() as f64);
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub(crate) fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The highest of the usual percentiles that has at least ten of `n`
/// samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}
