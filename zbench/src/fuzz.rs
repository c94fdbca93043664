//! `fuzz-deep`: one long `ZCover::run_campaign` at a time on the flat D1
//! testbed, clean channel.

use std::collections::BTreeMap;
use std::time::Instant;

use zcover::{derive_trial_seed, CampaignResult, FuzzConfig, NullSink, ZCover};
use zwave_controller::{DeviceModel, Testbed};
use zwave_radio::MediumStats;

use crate::phases::{run_phases, Tally};
use crate::spans::Spans;
use crate::{stats, FuzzPin, Outcome, Params, Scale};

/// Builds D1, attaches ZCover and runs the whole campaign: the timed
/// operation of an untraced run. Returns the result, its host seconds and
/// the medium's totals.
///
/// # Errors
///
/// The pipeline's own errors.
pub fn campaign(config: FuzzConfig) -> Result<(CampaignResult, f64, MediumStats), String> {
    let started = Instant::now();
    let mut testbed = Testbed::new(DeviceModel::D1, config.seed);
    let mut zcover = ZCover::attach(&testbed, 70.0);
    let report = zcover.run_campaign(&mut testbed, config).map_err(|e| format!("campaign: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    Ok((report.campaign, elapsed, testbed.medium().stats()))
}

/// Compares a campaign against a pinned digest.
///
/// # Errors
///
/// Describes the mismatch.
pub(crate) fn check_pin(result: &CampaignResult, pin: &FuzzPin) -> Result<(), String> {
    let got = (result.unique_vulns(), result.packets_sent);
    let want = (pin.bugs, pin.packets);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "pinned campaign (D1, seed {}) digest mismatch: got bugs/packets {got:?}, want {want:?}",
            pin.seed
        ))
    }
}

/// What a repeat of the same campaign seed must reproduce.
fn digest(result: &CampaignResult) -> (u64, Vec<(u8, u64)>, u64) {
    let findings = result.findings.iter().map(|f| (f.bug_id, f.found_at.as_micros())).collect();
    (result.packets_sent, findings, result.ended.as_micros())
}

/// Runs the workload.
///
/// # Errors
///
/// A pipeline error (counted as one failed operation).
pub(crate) fn run(params: &Params, scale: &Scale, out: &mut Outcome) -> Result<(), String> {
    let pin = scale.fuzz_pin;
    let setups = crate::timed_setups(scale.setup_reps, |_| {
        let (result, _, _) = campaign(FuzzConfig::full(pin.budget, pin.seed))?;
        out.attempt();
        if let Err(mismatch) = check_pin(&result, &pin) {
            out.fail(mismatch);
        }
        Ok(())
    })?;
    out.metrics.set("setup_s", stats::median(&setups));
    out.timings.insert("setup_s", setups);

    let distinct = scale.fuzz_campaigns.max(1);
    let config_of = |op: u64| {
        FuzzConfig::full(scale.fuzz_budget, derive_trial_seed(params.seed, op % distinct))
    };
    let mut digests: BTreeMap<u64, _> = BTreeMap::new();
    let mut times = Vec::new();
    let mut repeats = vec![Vec::new(); distinct as usize];
    // Per distinct campaign: packets, deliveries, unique bugs, last bug.
    let mut work = Vec::new();
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let (mut traced_s, mut op_s) = (0.0, Vec::new());

    crate::closed_loop(params.seconds, distinct, |op| {
        let (result, elapsed, channel) = campaign(config_of(op))?;
        out.attempt();
        times.push(elapsed);
        repeats[(op % distinct) as usize].push(elapsed);
        out.check(result.unique_vulns() == scale.fuzz_bugs, || {
            format!(
                "campaign {op}: {} unique bugs, want {}",
                result.unique_vulns(),
                scale.fuzz_bugs
            )
        });
        let first = digests.entry(op % distinct).or_insert_with(|| digest(&result));
        out.check(*first == digest(&result), || {
            format!("campaign {op} differs from its first run")
        });
        if op < distinct {
            let last_bug = crate::last_bug_s(&result);
            work.push((result.packets_sent, channel.deliveries, result.unique_vulns(), last_bug));
        }

        if params.traced {
            let started = Instant::now();
            let (mut testbed, mut zcover) = spans.time("network.setup", || {
                let testbed = Testbed::new(DeviceModel::D1, config_of(op).seed);
                let zcover = ZCover::attach(&testbed, 70.0);
                (testbed, zcover)
            });
            let run =
                run_phases(&mut testbed, &mut zcover, config_of(op), &mut NullSink, &mut spans)
                    .map_err(|e| format!("traced campaign {op}: {e}"))?;
            let seconds = started.elapsed().as_secs_f64();
            traced_s += seconds;
            op_s.push(seconds);
            out.attempt();
            let traced_channel = testbed.medium().stats();
            out.check(run.campaign == result && traced_channel == channel, || {
                format!("traced decomposition of campaign {op} differs from run_campaign")
            });
            if op < distinct {
                tally.add(&run, &traced_channel, &testbed.medium().scheduler().stats());
            }
        }
        Ok(())
    })?;

    if params.traced {
        let ops = op_s.len() as u64;
        let metrics = &mut out.metrics;
        crate::layer_seconds(&spans, ops, metrics);
        tally.report(spans.seconds("fuzzer.run") / ops as f64, traced_s / ops as f64, metrics);
        crate::home_metrics(&op_s, metrics);
        crate::span_metrics(&spans, traced_s, times.iter().sum::<f64>(), ops, metrics);
        for name in [
            "sweep.shard_s_max_over_median",
            "executor.worker_efficiency",
            "trace.record_s",
            "trace.encode_s",
            "trace.events",
            "trace.bytes_per_event",
        ] {
            metrics.set(name, 0.0);
        }
        out.timings.insert("traced_campaign_s", op_s);
        out.span_table = Some(spans.render());
    } else {
        let pass_s = stats::fastest_pass(&repeats);
        let packets: u64 = work.iter().map(|w| w.0).sum();
        let deliveries: u64 = work.iter().map(|w| w.1).sum();
        let bugs: Vec<f64> = work.iter().map(|w| w.2 as f64).collect();
        let last_bugs: Vec<f64> = work.iter().filter_map(|w| w.3).collect();
        out.metrics.set("homes_per_s", distinct as f64 / pass_s);
        out.metrics.set("packets_per_s", packets as f64 / pass_s);
        out.metrics.set("events_per_s", deliveries as f64 / pass_s);
        out.metrics.set("unique_bugs", crate::mean(&bugs));
        out.metrics.set("sim_s_to_last_bug", stats::median(&last_bugs));
    }
    out.timings.insert("campaign_s", times);
    Ok(())
}
