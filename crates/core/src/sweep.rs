//! City-scale sharded sweep: thousands of independent smart homes fuzzed
//! in one process.
//!
//! The paper evaluates one controller at a time on one physical testbed.
//! The simulation removes that constraint: a *sweep* builds `N` fully
//! independent [`HomeNetwork`]s — each with its own medium, clock,
//! topology and per-home seed — and runs a complete ZCover campaign
//! against every one of them. Homes are grouped into fixed-size *shards*
//! (contiguous blocks of home indices), and the shards are scheduled
//! across the [`CampaignExecutor`] worker pool via the same claim/slot
//! discipline the multi-trial runner uses, so:
//!
//! - shard boundaries are a pure function of `(homes, shard_size)` —
//!   never of the worker count — and
//! - every aggregate is merged in home-index order from order-independent
//!   pieces ([`MediumStats::merge`], [`CampaignCounters::merge`],
//!   `CoverageMap::merge`, bug-id multisets),
//!
//! which together make the merged [`SweepSummary`] bit-identical for any
//! worker count (`tests/sweep_matrix.rs` pins this for workers 1/2/4).
//!
//! Wall-clock throughput (homes/sec per shard and aggregate) is reported
//! *next to* the summary in [`SweepTiming`], never inside it: timing is
//! real, everything in the summary is reproducible.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use zwave_controller::{CoverageMap, DeviceModel, HomeNetwork, Topology};
use zwave_radio::MediumStats;

use crate::executor::{derive_trial_seed, CampaignExecutor};
use crate::fuzzer::{CampaignCounters, FuzzConfig};
use crate::trace::run_maybe_recorded;
use crate::ZCoverError;

/// Homes per shard when the caller does not choose: small enough that a
/// four-worker pool stays busy on a 256-home sweep, large enough that the
/// per-shard bookkeeping vanishes against the campaigns themselves.
pub const DEFAULT_SHARD_SIZE: u64 = 64;

/// What to sweep: how many homes, their mesh shape, and the per-home
/// campaign configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of independent home networks.
    pub homes: u64,
    /// Mesh shape every home is built with (each home draws its own
    /// repeater count / chord set from its per-home seed).
    pub topology: Topology,
    /// Campaign configuration template; each home runs it with the
    /// per-home seed substituted (exactly like the multi-trial runner).
    pub base: FuzzConfig,
    /// Homes per shard (clamped to at least 1).
    pub shard_size: u64,
    /// Directory per-home traces are recorded into (`zcover sweep
    /// --record-dir`), when requested: one compact binary trace per home
    /// at [`SweepConfig::home_trace_path`], written by whichever worker
    /// runs the home's shard. A home's journal is a pure function of its
    /// derived seed, so the files are bit-identical for any worker count.
    /// They are analytics artifacts for `zcover trace export|stats`:
    /// `zcover replay` re-executes the flat single-home testbed named by
    /// the header, so a multi-hop home's journal reports a divergence
    /// rather than re-running its mesh.
    pub record_dir: Option<PathBuf>,
}

impl SweepConfig {
    /// A sweep of `homes` homes on `topology`, with the default shard
    /// size. The sweep seed is `base.seed`.
    pub fn new(homes: u64, topology: Topology, base: FuzzConfig) -> Self {
        SweepConfig { homes, topology, base, shard_size: DEFAULT_SHARD_SIZE, record_dir: None }
    }

    /// Overrides the shard size.
    pub fn with_shard_size(mut self, shard_size: u64) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Enables per-home trace recording into `dir` (created on demand).
    pub fn with_record_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.record_dir = Some(dir.into());
        self
    }

    /// The trace file home `home` records to under `dir`:
    /// `{dir}/home{N}.zct`.
    pub fn home_trace_path(dir: &Path, home: u64) -> PathBuf {
        dir.join(format!("home{home}.zct"))
    }

    /// Number of shards: `ceil(homes / shard_size)` — a pure function of
    /// the configuration, never of the worker count.
    pub fn shard_count(&self) -> u64 {
        self.homes.div_ceil(self.shard_size.max(1))
    }

    /// The seed home `home` fuzzes with — the same splitmix64 stream the
    /// trial executor uses, keyed on the sweep seed (`base.seed`).
    pub fn home_seed(&self, home: u64) -> u64 {
        derive_trial_seed(self.base.seed, home)
    }

    /// The controller model installed in home `home`: the Table II
    /// population D1..D7, rotated so every shard holds a mixed city
    /// block rather than 10 000 copies of one firmware.
    pub fn home_model(&self, home: u64) -> DeviceModel {
        DeviceModel::all()[(home % 7) as usize]
    }
}

/// Deterministic aggregate of one shard (a contiguous block of homes),
/// merged in home-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u64,
    /// First home index in the shard.
    pub first_home: u64,
    /// Homes actually run (the last shard may be short).
    pub homes: u64,
    /// Summed campaign event counters across the shard's homes.
    pub counters: CampaignCounters,
    /// Summed channel statistics across the shard's (independent) media.
    pub channel: MediumStats,
    /// For each bug id, how many of the shard's homes found it.
    pub hit_counts: BTreeMap<u8, u64>,
    /// OR-merged APL dispatch coverage across the shard's devices.
    pub coverage: CoverageMap,
}

impl ShardSummary {
    /// An empty shard aggregate (the merge identity).
    fn empty(shard: u64, first_home: u64) -> Self {
        ShardSummary {
            shard,
            first_home,
            homes: 0,
            counters: CampaignCounters::default(),
            channel: MediumStats::default(),
            hit_counts: BTreeMap::new(),
            coverage: CoverageMap::new(),
        }
    }

    /// Distinct bug ids the shard found, ascending.
    pub fn bug_ids(&self) -> Vec<u8> {
        self.hit_counts.keys().copied().collect()
    }
}

/// The deterministic result of a sweep: per-shard aggregates plus the
/// city-wide merge. Bit-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Homes swept.
    pub homes: u64,
    /// Mesh shape the homes were built with.
    pub topology: Topology,
    /// Homes per shard.
    pub shard_size: u64,
    /// Engine that drove every campaign (zcover / vfuzz / coverage).
    pub mode: crate::fuzzer::FuzzMode,
    /// Scripted adversary each home's campaign ran against.
    pub scenario: crate::scenarios::Scenario,
    /// Channel impairment profile every home's medium was shaped with.
    pub impairment: crate::ImpairmentProfile,
    /// Per-shard aggregates, in shard order.
    pub shards: Vec<ShardSummary>,
    /// City-wide campaign counters (sum over every home).
    pub counters: CampaignCounters,
    /// City-wide channel statistics (sum over every independent medium).
    pub channel: MediumStats,
    /// For each bug id, how many homes found it.
    pub hit_counts: BTreeMap<u8, u64>,
    /// Distinct APL dispatch edges lit anywhere in the city (OR-merge of
    /// every home's coverage map — *not* the sum of per-home counts).
    pub coverage_edges: u64,
}

impl SweepSummary {
    /// Distinct bug ids found anywhere in the city, ascending.
    pub fn union_bug_ids(&self) -> Vec<u8> {
        self.hit_counts.keys().copied().collect()
    }

    /// Fraction of homes that found `bug_id`.
    pub fn hit_rate(&self, bug_id: u8) -> f64 {
        *self.hit_counts.get(&bug_id).unwrap_or(&0) as f64 / self.homes.max(1) as f64
    }
}

/// Wall-clock timing of a sweep, kept apart from the deterministic
/// summary (real seconds are not reproducible; everything in
/// [`SweepSummary`] is).
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Real seconds each shard took, in shard order.
    pub per_shard_s: Vec<f64>,
    /// Real seconds for the whole sweep.
    pub total_s: f64,
    /// Homes swept (copied so rates need no second argument).
    pub homes: u64,
}

impl SweepTiming {
    /// Aggregate throughput in homes per real second.
    pub fn homes_per_sec(&self) -> f64 {
        self.homes as f64 / self.total_s.max(f64::EPSILON)
    }
}

/// One home's campaign distilled to what the shard merge needs.
struct HomeRun {
    bug_ids: Vec<u8>,
    counters: CampaignCounters,
    channel: MediumStats,
    coverage: CoverageMap,
}

/// Builds home `home` and runs its full campaign (fingerprint, scan,
/// discovery, fuzzing) against a fresh attacker stack, recorded to the
/// home's own `.zct` file when the sweep records. The finished home comes
/// back too: its scheduler kernel is the next home's to recycle.
fn run_home(
    config: &SweepConfig,
    home: u64,
    kernel: Option<&zwave_radio::SimScheduler>,
) -> Result<(HomeRun, HomeNetwork), ZCoverError> {
    let seed = config.home_seed(home);
    let model = config.home_model(home);
    let mut net = match kernel {
        // Recycle the shard's kernel and its event queue instead of building a
        // kernel per home; the simulation is bit-identical either way.
        Some(kernel) => HomeNetwork::new_recycled(model, config.topology, seed, kernel),
        None => HomeNetwork::new(model, config.topology, seed),
    };
    let fuzz = FuzzConfig { seed, ..config.base.clone() };
    let record = config
        .record_dir
        .as_deref()
        .map(|dir| (model.idx(), SweepConfig::home_trace_path(dir, home)));
    let campaign = run_maybe_recorded(&mut net, fuzz, record)?;
    let run = HomeRun {
        bug_ids: campaign.findings.iter().map(|f| f.bug_id).collect(),
        counters: campaign.counters,
        channel: net.medium().stats(),
        coverage: net.coverage(),
    };
    Ok((run, net))
}

/// Runs one shard's homes sequentially in home-index order. An error
/// carries the failing home index so the cross-shard merge can surface
/// the lowest-indexed failure regardless of scheduling.
fn run_shard(config: &SweepConfig, shard: u64) -> Result<(ShardSummary, f64), (u64, ZCoverError)> {
    let first_home = shard * config.shard_size.max(1);
    let end = (first_home + config.shard_size.max(1)).min(config.homes);
    let started = Instant::now();
    let mut summary = ShardSummary::empty(shard, first_home);
    // One kernel per shard: the first home allocates it, every
    // later home recycles it (reset, not reallocated).
    let mut kernel: Option<zwave_radio::SimScheduler> = None;
    for home in first_home..end {
        let (run, net) = run_home(config, home, kernel.as_ref()).map_err(|e| (home, e))?;
        kernel = Some(net.medium().scheduler().clone());
        let mut seen = run.bug_ids;
        seen.sort_unstable();
        seen.dedup();
        for bug in seen {
            *summary.hit_counts.entry(bug).or_default() += 1;
        }
        summary.counters.merge(&run.counters);
        summary.channel.merge(&run.channel);
        summary.coverage.merge(&run.coverage);
        summary.homes += 1;
    }
    Ok((summary, started.elapsed().as_secs_f64()))
}

/// Runs the sweep across `executor`'s worker pool and merges shard
/// aggregates in shard order. The summary is bit-identical for any
/// worker count; only [`SweepTiming`] varies between runs.
///
/// # Errors
///
/// When a home's campaign fails, returns [`ZCoverError::SweepHome`] for
/// the lowest-indexed failing home (independent of scheduling).
pub fn run_sweep(
    executor: &CampaignExecutor,
    config: &SweepConfig,
) -> Result<(SweepSummary, SweepTiming), ZCoverError> {
    let sweep_started = Instant::now();
    let results = executor.map_indexed(config.shard_count(), |shard| run_shard(config, shard));

    let mut shards = Vec::with_capacity(results.len());
    let mut per_shard_s = Vec::with_capacity(results.len());
    let mut failure: Option<(u64, ZCoverError)> = None;
    for outcome in results {
        match outcome {
            Ok((summary, elapsed)) => {
                shards.push(summary);
                per_shard_s.push(elapsed);
            }
            Err((home, error)) => {
                if failure.as_ref().is_none_or(|(h, _)| home < *h) {
                    failure = Some((home, error));
                }
            }
        }
    }
    if let Some((home, error)) = failure {
        return Err(ZCoverError::SweepHome { home, source: Box::new(error) });
    }

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

    let summary = SweepSummary {
        homes: config.homes,
        topology: config.topology,
        shard_size: config.shard_size.max(1),
        mode: config.base.mode,
        scenario: config.base.scenario,
        impairment: config.base.impairment,
        shards,
        counters,
        channel,
        hit_counts,
        coverage_edges: coverage.edges(),
    };
    let timing = SweepTiming {
        per_shard_s,
        total_s: sweep_started.elapsed().as_secs_f64(),
        homes: config.homes,
    };
    Ok((summary, timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use zwave_radio::ImpairmentProfile;

    fn tiny(homes: u64, topology: Topology) -> SweepConfig {
        SweepConfig::new(homes, topology, FuzzConfig::full(Duration::from_secs(30), 11))
            .with_shard_size(2)
    }

    #[test]
    fn shard_boundaries_are_a_pure_function_of_the_config() {
        let config = tiny(5, Topology::Star);
        assert_eq!(config.shard_count(), 3);
        assert_eq!(SweepConfig::new(0, Topology::Star, config.base.clone()).shard_count(), 0);
        // Model rotation covers the whole Table II population.
        let models: Vec<_> = (0..7).map(|h| config.home_model(h)).collect();
        assert_eq!(models, DeviceModel::all().to_vec());
        assert_eq!(config.home_model(7), DeviceModel::all()[0]);
    }

    #[test]
    fn sweep_summary_is_worker_count_invariant() {
        let config = tiny(5, Topology::Star);
        let (one, _) = run_sweep(&CampaignExecutor::new(1), &config).unwrap();
        let (four, _) = run_sweep(&CampaignExecutor::new(4), &config).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.shards.len(), 3);
        assert_eq!(one.shards.iter().map(|s| s.homes).sum::<u64>(), 5);
        assert!(one.counters.packets_sent > 0);
        assert!(one.coverage_edges > 0);
    }

    #[test]
    fn clean_mesh_sweep_homes_never_hit_the_pump_cap() {
        let config =
            SweepConfig::new(64, Topology::Mesh, FuzzConfig::full(Duration::from_secs(180), 42));
        for home in 0..config.homes {
            let (_, net) = run_home(&config, home, None).unwrap();
            assert_eq!(net.pump_cap_hits(), 0, "home {home}");
        }
    }

    #[test]
    fn clean_mesh_protocol_stations_other_than_the_sensor_never_overflow() {
        // The controller, lock, switch and repeaters service their radios
        // every pump. The sleeping S0 sensor does not: it sheds the
        // broadcasts of its sleep (see ROADMAP item 2).
        let config =
            SweepConfig::new(16, Topology::Mesh, FuzzConfig::full(Duration::from_secs(180), 42));
        let mut sensor_homes = 0;
        for home in 0..config.homes {
            let (_, net) = run_home(&config, home, None).unwrap();
            for (node, overflows) in net.station_rx_overflows() {
                if node == zwave_controller::testbed::SENSOR_NODE {
                    sensor_homes += 1;
                    assert!(overflows > 0, "home {home}: the sleeping sensor kept up");
                } else {
                    assert_eq!(overflows, 0, "home {home}: node {node}");
                }
            }
        }
        assert!(sensor_homes > 0, "no sampled home has a sensor");
    }

    #[test]
    fn a_failing_home_is_named_in_the_sweep_error() {
        // Star home 66 (D4) gets no NIF reply under the lossy profile; the
        // 66 homes before it pass.
        let base = FuzzConfig::full(Duration::from_secs(180), 42)
            .with_impairment(ImpairmentProfile::Lossy);
        let config = SweepConfig::new(67, Topology::Star, base);
        let err = run_sweep(&CampaignExecutor::new(2), &config).unwrap_err();
        assert_eq!(
            err,
            ZCoverError::SweepHome { home: 66, source: Box::new(ZCoverError::NoNifResponse) }
        );
    }

    #[test]
    fn hit_counts_count_homes_not_findings() {
        let config = tiny(3, Topology::Star);
        let (summary, timing) = run_sweep(&CampaignExecutor::new(1), &config).unwrap();
        for homes in summary.hit_counts.values() {
            assert!(*homes <= summary.homes);
        }
        assert!(summary.hit_rate(0xFF) == 0.0);
        assert_eq!(timing.per_shard_s.len(), 2);
        assert!(timing.homes_per_sec() > 0.0);
    }
}
