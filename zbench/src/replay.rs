//! `replay-lossy`: D1 campaigns recorded under the `lossy` channel profile
//! during set-up, then decoded with `Trace::from_bytes` and re-executed and
//! diffed with `zcover::replay`.

use std::time::Instant;

use zcover::{
    derive_trial_seed, diff_traces, record_campaign, replay, FuzzConfig, ImpairmentProfile,
    ReplayReport, Trace, TraceRecorder, ZCover,
};
use zwave_controller::{DeviceModel, Testbed};

use crate::phases::{run_phases, Tally};
use crate::spans::Spans;
use crate::{stats, Outcome, Params, Scale};

/// One recorded campaign, as the timed loop replays it.
#[derive(Debug, Clone)]
pub struct Input {
    /// The `.zct` encoding of the recorded trace.
    pub bytes: Vec<u8>,
    /// Events in the recorded journal.
    pub events: usize,
    /// Fuzz packets the recorded campaign injected.
    pub packets: u64,
    /// Unique bugs the recorded campaign found.
    pub bugs: usize,
    /// Virtual seconds to its last seeded bug.
    pub last_bug_s: Option<f64>,
    /// Host seconds recording took.
    pub record_s: f64,
    /// Host seconds encoding took.
    pub encode_s: f64,
}

/// Records campaign `index` of a run seeded with `seed`.
///
/// # Errors
///
/// The pipeline's own errors.
pub fn record(seed: u64, index: u64, scale: &Scale) -> Result<Input, String> {
    let config = FuzzConfig::full(scale.replay_budget, derive_trial_seed(seed, index))
        .with_impairment(ImpairmentProfile::Lossy);
    let started = Instant::now();
    let recorded = record_campaign(DeviceModel::D1, "full", config)
        .map_err(|e| format!("recording {index}: {e}"))?;
    let record_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let bytes = recorded.trace.to_zct_bytes();
    let encode_s = started.elapsed().as_secs_f64();
    let campaign = &recorded.report.campaign;
    Ok(Input {
        bytes,
        events: recorded.trace.events.len(),
        packets: campaign.packets_sent,
        bugs: campaign.unique_vulns(),
        last_bug_s: crate::last_bug_s(campaign),
        record_s,
        encode_s,
    })
}

/// Decodes and replays `input`: the timed operation of an untraced run.
///
/// # Errors
///
/// A decode or re-execution error.
pub(crate) fn replay_once(input: &Input) -> Result<ReplayReport, String> {
    let trace = Trace::from_bytes(&input.bytes).map_err(|e| format!("decode: {e}"))?;
    replay(&trace).map_err(|e| format!("replay: {e}"))
}

/// Checks a replay: zero divergence and the recorded event count on both
/// sides.
///
/// # Errors
///
/// Describes the mismatch.
pub(crate) fn check(input: &Input, report: &ReplayReport) -> Result<(), String> {
    if !report.is_clean() {
        return Err(format!("replay diverged: {}", report.render().trim_end()));
    }
    if (report.recorded_events, report.replayed_events) != (input.events, input.events) {
        return Err(format!(
            "replay event counts {} recorded / {} replayed, want {}",
            report.recorded_events, report.replayed_events, input.events
        ));
    }
    Ok(())
}

/// `replay_once` decomposed into its public steps, each in a span: decode,
/// re-execution (network set-up, the campaign phases, journal finish) and
/// diff. Returns the report and the re-executed operation's tally entry.
fn replay_traced(
    input: &Input,
    spans: &mut Spans,
    tally: Option<&mut Tally>,
) -> Result<ReplayReport, String> {
    let recorded = spans
        .time("trace.decode", || Trace::from_bytes(&input.bytes))
        .map_err(|e| format!("decode: {e}"))?;
    let meta = recorded.meta.clone();
    let rerun = spans.begin("trace.rerun");
    let model = DeviceModel::all()
        .into_iter()
        .find(|m| m.idx().eq_ignore_ascii_case(&meta.device))
        .ok_or_else(|| format!("unknown device {}", meta.device))?;
    let config = FuzzConfig::named(&meta.config, meta.budget, meta.seed)
        .ok_or_else(|| format!("unknown config {}", meta.config))?
        .with_impairment(meta.impairment)
        .with_scenario(meta.scenario);
    let (mut testbed, mut recorder, mut zcover) = spans.time("network.setup", || {
        let testbed = Testbed::new(model, config.seed);
        let recorder = TraceRecorder::attach(testbed.medium(), meta);
        let zcover = ZCover::attach(&testbed, 70.0);
        (testbed, recorder, zcover)
    });
    let run = run_phases(&mut testbed, &mut zcover, config, &mut recorder, spans)
        .map_err(|e| format!("re-execution: {e}"))?;
    let replayed = recorder.finish(&run.campaign);
    if let Some(tally) = tally {
        tally.add(&run, &testbed.medium().stats(), &testbed.medium().scheduler().stats());
    }
    drop(zcover);
    drop(testbed);
    spans.end(rerun);
    Ok(spans.time("trace.diff", || {
        let report = diff_traces(&recorded, &replayed);
        drop(replayed);
        drop(recorded);
        report
    }))
}

/// Runs the workload.
///
/// # Errors
///
/// A pipeline error (counted as one failed operation).
pub(crate) fn run(params: &Params, scale: &Scale, out: &mut Outcome) -> Result<(), String> {
    let mut inputs = Vec::new();
    let setups = crate::timed_setups(scale.replay_traces as usize, |index| {
        inputs.push(record(params.seed, index as u64, scale)?);
        out.attempt();
        Ok(())
    })?;
    out.metrics.set("setup_s", stats::median(&setups));
    out.timings.insert("setup_s", setups);
    measure(params, &inputs, out)
}

/// The timed part of the workload over recorded `inputs`.
///
/// # Errors
///
/// A decode or re-execution error (counted as one failed operation).
pub fn measure(params: &Params, inputs: &[Input], out: &mut Outcome) -> Result<(), String> {
    let distinct = inputs.len() as u64;
    let mut times = Vec::new();
    let mut repeats = vec![Vec::new(); inputs.len()];
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let (mut traced_s, mut op_s) = (0.0, Vec::new());
    crate::closed_loop(params.seconds, distinct, |op| {
        let input = &inputs[(op % distinct) as usize];
        let started = Instant::now();
        let report = replay_once(input)?;
        let elapsed = started.elapsed().as_secs_f64();
        out.attempt();
        if let Err(mismatch) = check(input, &report) {
            out.fail(format!("replay {op}: {mismatch}"));
        }
        times.push(elapsed);
        repeats[(op % distinct) as usize].push(elapsed);

        if params.traced {
            let started = Instant::now();
            let traced = replay_traced(input, &mut spans, (op < distinct).then_some(&mut tally))?;
            let seconds = started.elapsed().as_secs_f64();
            traced_s += seconds;
            op_s.push(seconds);
            out.attempt();
            out.check(traced == report, || format!("traced replay {op} differs from replay()"));
        }
        Ok(())
    })?;

    let per_input = |f: fn(&Input) -> f64| crate::mean(&inputs.iter().map(f).collect::<Vec<_>>());
    if params.traced {
        let ops = op_s.len() as u64;
        let metrics = &mut out.metrics;
        crate::layer_seconds(&spans, ops, metrics);
        tally.report(spans.seconds("fuzzer.run") / ops as f64, traced_s / ops as f64, metrics);
        crate::home_metrics(&op_s, metrics);
        crate::span_metrics(&spans, traced_s, times.iter().sum::<f64>(), ops, metrics);
        metrics.set("trace.record_s", per_input(|i| i.record_s));
        metrics.set("trace.encode_s", per_input(|i| i.encode_s));
        metrics.set("trace.events", per_input(|i| i.events as f64));
        metrics.set(
            "trace.bytes_per_event",
            per_input(|i| i.bytes.len() as f64) / per_input(|i| i.events as f64).max(1.0),
        );
        metrics.set("sweep.shard_s_max_over_median", 0.0);
        metrics.set("executor.worker_efficiency", 0.0);
        out.timings.insert("traced_replay_s", op_s);
        out.span_table = Some(spans.render());
    } else {
        let last_bugs: Vec<f64> = inputs.iter().filter_map(|i| i.last_bug_s).collect();
        let pass_s = stats::fastest_pass(&repeats);
        let total = |f: fn(&Input) -> f64| inputs.iter().map(f).sum::<f64>();
        out.metrics.set("homes_per_s", inputs.len() as f64 / pass_s);
        out.metrics.set("packets_per_s", total(|i| i.packets as f64) / pass_s);
        out.metrics.set("events_per_s", total(|i| i.events as f64) / pass_s);
        out.metrics.set("unique_bugs", per_input(|i| i.bugs as f64));
        out.metrics.set("sim_s_to_last_bug", stats::median(&last_bugs));
    }
    out.timings.insert("replay_s", times);
    Ok(())
}
