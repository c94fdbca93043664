//! `sweep-mesh`: `run_sweep` over mesh homes at the CLI default per-home
//! budget, clean channel, one worker.

use std::collections::BTreeMap;
use std::time::Instant;

use zcover::{
    run_sweep, CampaignCounters, CampaignExecutor, FuzzConfig, NullSink, ShardSummary, SweepConfig,
    SweepSummary, ZCover,
};
use zwave_controller::{CoverageMap, HomeNetwork, Topology};
use zwave_radio::{MediumStats, SimScheduler};

use crate::phases::{run_phases, Tally};
use crate::spans::Spans;
use crate::{stats, Outcome, Params, Scale, SweepPin, SWEEP_512_SEED_42};

/// The sweep a run measures: `homes` mesh homes, sweep seed `seed`.
pub fn config(homes: u64, scale: &Scale, seed: u64) -> SweepConfig {
    SweepConfig::new(homes, Topology::Mesh, FuzzConfig::full(scale.sweep_budget, seed))
}

/// Compares a sweep against a pinned digest.
///
/// # Errors
///
/// Describes the mismatch.
pub(crate) fn check_pin(summary: &SweepSummary, pin: &SweepPin) -> Result<(), String> {
    let got = (summary.union_bug_ids(), summary.counters.packets_sent, summary.channel.frames_sent);
    let want = (pin.union.to_vec(), pin.packets, pin.frames);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "pinned sweep ({} homes, seed {}) digest mismatch: got union/packets/frames {got:?}, \
             want {want:?}",
            pin.homes, pin.seed
        ))
    }
}

/// Host time and last-bug time of one decomposed home.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HomeSample {
    /// Host seconds from network assembly to release.
    pub host_s: f64,
    /// Virtual seconds to the home's last seeded bug.
    pub last_bug_s: Option<f64>,
}

/// Runs shard `shard` of `config` home by home through the public steps of
/// `run_sweep`'s per-home campaign, with spans, and returns the shard
/// aggregate `run_sweep` would have produced.
///
/// # Errors
///
/// The pipeline's own errors.
pub(crate) fn decompose_shard(
    config: &SweepConfig,
    shard: u64,
    spans: &mut Spans,
    tally: &mut Tally,
    homes: &mut Vec<HomeSample>,
) -> Result<ShardSummary, String> {
    let first_home = shard * config.shard_size;
    let end = (first_home + config.shard_size).min(config.homes);
    let mut summary = ShardSummary {
        shard,
        first_home,
        homes: 0,
        counters: CampaignCounters::default(),
        channel: MediumStats::default(),
        hit_counts: BTreeMap::new(),
        coverage: CoverageMap::new(),
    };
    // As in `run_sweep`: the shard's first home allocates the scheduler
    // kernel and every later home recycles it.
    let mut kernel: Option<SimScheduler> = None;
    for home in first_home..end {
        let started = Instant::now();
        let seed = config.home_seed(home);
        let model = config.home_model(home);
        let (mut net, mut zcover) = spans.time("network.setup", || {
            let net = match &kernel {
                Some(kernel) => HomeNetwork::new_recycled(model, config.topology, seed, kernel),
                None => HomeNetwork::new(model, config.topology, seed),
            };
            let zcover = ZCover::attach(&net, 70.0);
            (net, zcover)
        });
        let fuzz = FuzzConfig { seed, ..config.base.clone() };
        let run = run_phases(&mut net, &mut zcover, fuzz, &mut NullSink, spans)
            .map_err(|e| format!("home {home}: {e}"))?;
        let channel = net.medium().stats();
        tally.add(&run, &channel, &net.medium().scheduler().stats());
        spans.time("sweep.merge", || {
            let coverage = net.coverage();
            kernel = Some(net.medium().scheduler().clone());
            drop(zcover);
            drop(net);
            let mut seen: Vec<u8> = run.campaign.findings.iter().map(|f| f.bug_id).collect();
            seen.sort_unstable();
            seen.dedup();
            for bug in seen {
                *summary.hit_counts.entry(bug).or_default() += 1;
            }
            summary.counters.merge(&run.campaign.counters);
            summary.channel.merge(&channel);
            summary.coverage.merge(&coverage);
            summary.homes += 1;
        });
        homes.push(HomeSample {
            host_s: started.elapsed().as_secs_f64(),
            last_bug_s: crate::last_bug_s(&run.campaign),
        });
    }
    Ok(summary)
}

/// Merges decomposed shards in shard order, as `run_sweep` does.
pub(crate) fn merge_shards(config: &SweepConfig, shards: Vec<ShardSummary>) -> SweepSummary {
    let mut counters = CampaignCounters::default();
    let mut channel = MediumStats::default();
    let mut hit_counts: BTreeMap<u8, u64> = BTreeMap::new();
    let mut coverage = CoverageMap::new();
    for shard in &shards {
        counters.merge(&shard.counters);
        channel.merge(&shard.channel);
        for (bug, homes) in &shard.hit_counts {
            *hit_counts.entry(*bug).or_default() += homes;
        }
        coverage.merge(&shard.coverage);
    }
    SweepSummary {
        homes: config.homes,
        topology: config.topology,
        shard_size: config.shard_size,
        mode: config.base.mode,
        scenario: config.base.scenario,
        impairment: config.base.impairment,
        shards,
        counters,
        channel,
        hit_counts,
        coverage_edges: coverage.edges(),
    }
}

/// The untraced sweep everything else is checked against, with the
/// known 512-home digest applied when the input is the pinned one.
fn sweep_once(
    executor: &CampaignExecutor,
    config: &SweepConfig,
    reference: &mut Option<SweepSummary>,
    out: &mut Outcome,
) -> Result<(f64, Vec<f64>), String> {
    let started = Instant::now();
    let (summary, timing) = run_sweep(executor, config).map_err(|e| format!("sweep: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    out.attempt();
    match reference {
        Some(first) => {
            out.check(*first == summary, || "sweep summary changed between repeats".into());
        }
        None => {
            if (config.homes, config.base.seed) == (512, 42) {
                let (union, packets) = SWEEP_512_SEED_42;
                let got = (summary.union_bug_ids(), summary.counters.packets_sent);
                out.check(got == (union.to_vec(), packets), || {
                    format!("512-home seed-42 sweep digest {got:?}, want ({union:?}, {packets})")
                });
            }
            out.check(summary.shards.iter().map(|s| s.homes).sum::<u64>() == config.homes, || {
                "shard home counts do not add up to the sweep".into()
            });
            *reference = Some(summary);
        }
    }
    Ok((elapsed, timing.per_shard_s))
}

/// Runs the workload.
///
/// # Errors
///
/// A pipeline error (counted as one failed operation).
pub(crate) fn run(params: &Params, scale: &Scale, out: &mut Outcome) -> Result<(), String> {
    let executor = CampaignExecutor::new(1);
    let pin = scale.sweep_pin;
    let pin_config = config(pin.homes, scale, pin.seed);
    let setups = crate::timed_setups(scale.setup_reps, |_| {
        let (summary, _) =
            run_sweep(&executor, &pin_config).map_err(|e| format!("pin sweep: {e}"))?;
        out.attempt();
        if let Err(mismatch) = check_pin(&summary, &pin) {
            out.fail(mismatch);
        }
        Ok(())
    })?;
    out.metrics.set("setup_s", stats::median(&setups));
    out.timings.insert("setup_s", setups);

    let config = config(scale.sweep_homes, scale, params.seed);
    if params.traced {
        traced(params, &config, &executor, out)
    } else {
        untraced(params, &config, &executor, out)
    }
}

fn untraced(
    params: &Params,
    config: &SweepConfig,
    executor: &CampaignExecutor,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut reference = None;
    let mut times = Vec::new();
    // Repeats of each shard's time, plus (last) the time the sweep spent
    // outside its shards, as measured around the call.
    let mut repeats = vec![Vec::new(); config.shard_count() as usize + 1];
    crate::closed_loop(params.seconds, 1, |_| {
        let (elapsed, per_shard_s) = sweep_once(executor, config, &mut reference, out)?;
        repeats.last_mut().expect("overhead slot").push(elapsed - per_shard_s.iter().sum::<f64>());
        for (shard, seconds) in per_shard_s.into_iter().enumerate() {
            repeats[shard].push(seconds);
        }
        times.push(elapsed);
        Ok(())
    })?;
    let summary = reference.expect("the loop runs at least once");

    // Untimed: the first shard decomposed into public steps must equal the
    // sweep's own first shard; its homes also give the last-bug times.
    let mut homes = Vec::new();
    let shard = decompose_shard(config, 0, &mut Spans::new(), &mut Tally::default(), &mut homes)?;
    out.attempt();
    out.check(summary.shards.first() == Some(&shard), || {
        "decomposed first shard differs from run_sweep's".into()
    });
    let last_bugs: Vec<f64> = homes.iter().filter_map(|h| h.last_bug_s).collect();

    let sweep_s = stats::fastest_pass(&repeats);
    let homes_found: u64 = summary.hit_counts.values().sum();
    out.metrics.set("homes_per_s", config.homes as f64 / sweep_s);
    out.metrics.set("packets_per_s", summary.counters.packets_sent as f64 / sweep_s);
    out.metrics.set("events_per_s", summary.channel.deliveries as f64 / sweep_s);
    out.metrics.set("unique_bugs", homes_found as f64 / config.homes as f64);
    out.metrics.set("sim_s_to_last_bug", stats::median(&last_bugs));
    out.timings.insert("sweep_s", times);
    Ok(())
}

fn traced(
    params: &Params,
    config: &SweepConfig,
    executor: &CampaignExecutor,
    out: &mut Outcome,
) -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pair = (cpus >= 2).then(|| CampaignExecutor::new(2));
    let mut reference = None;
    let mut spans = Spans::new();
    let mut tally = None;
    let mut homes = Vec::new();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut shard_ratios, mut efficiency) = (Vec::new(), Vec::new());
    let ran = crate::closed_loop(params.seconds, 1, |_| {
        let (one_worker_s, per_shard_s) = sweep_once(executor, config, &mut reference, out)?;
        untraced_s += one_worker_s;
        shard_ratios.push(stats::max(&per_shard_s) / stats::median(&per_shard_s));

        let started = Instant::now();
        let mut sweep_tally = Tally::default();
        let shards = (0..config.shard_count())
            .map(|shard| decompose_shard(config, shard, &mut spans, &mut sweep_tally, &mut homes))
            .collect::<Result<Vec<_>, _>>()?;
        let merged = spans.time("sweep.merge", || merge_shards(config, shards));
        traced_s += started.elapsed().as_secs_f64();
        out.attempt();
        out.check(reference.as_ref() == Some(&merged), || {
            "traced decomposition differs from run_sweep's summary".into()
        });
        tally.get_or_insert(sweep_tally);

        if let Some(pair) = &pair {
            let started = Instant::now();
            let (two, _) = run_sweep(pair, config).map_err(|e| format!("2-worker sweep: {e}"))?;
            efficiency.push(one_worker_s / (2.0 * started.elapsed().as_secs_f64()));
            out.attempt();
            out.check(reference.as_ref() == Some(&two), || {
                "2-worker sweep summary differs from 1-worker".into()
            });
        }
        Ok(())
    })?;

    let ops = ran * config.homes;
    let metrics = &mut out.metrics;
    crate::layer_seconds(&spans, ops, metrics);
    let fuzz_s = spans.seconds("fuzzer.run") / ops as f64;
    tally.expect("the loop runs at least once").report(fuzz_s, traced_s / ops as f64, metrics);
    crate::home_metrics(&homes.iter().map(|h| h.host_s).collect::<Vec<_>>(), metrics);
    crate::span_metrics(&spans, traced_s, untraced_s, ops, metrics);
    metrics.set("sweep.shard_s_max_over_median", stats::median(&shard_ratios));
    metrics.set("executor.worker_efficiency", stats::median(&efficiency));
    for name in ["trace.record_s", "trace.encode_s", "trace.events", "trace.bytes_per_event"] {
        metrics.set(name, 0.0);
    }
    out.timings.insert("home_s", homes.iter().map(|h| h.host_s).collect());
    out.span_table = Some(spans.render());
    Ok(())
}
