//! The traced decomposition of one campaign: the public steps of
//! `ZCover::run_campaign_with_sink`, called in the same order, each inside
//! its own span, with medium and scheduler counters read between phases.

use zcover::{
    ActiveScanner, CampaignResult, FuzzConfig, FuzzTarget, Fuzzer, TraceSink, UnknownDiscovery,
    ZCover, ZCoverError,
};
use zwave_radio::{MediumStats, SchedStats};

use crate::metrics::Metrics;
use crate::spans::Spans;

/// One decomposed campaign and the counter deltas of its phases.
#[derive(Debug)]
pub struct PhaseRun {
    /// The campaign result, identical to `ZCover::run_campaign`'s.
    pub campaign: CampaignResult,
    /// Frames sent on the medium during unknown-property discovery.
    pub discovery_frames: u64,
    /// Frames sent on the medium during the fuzz loop.
    pub fuzz_frames: u64,
    /// Scheduler events released during the fuzz loop.
    pub fuzz_events: u64,
}

/// Runs fingerprinting, active scanning, discovery and the fuzz loop on
/// `target` exactly as `ZCover::run_campaign_with_sink` does, recording a
/// span per phase.
///
/// # Errors
///
/// The pipeline's own errors (no traffic, no NIF answer).
pub fn run_phases<T: FuzzTarget>(
    target: &mut T,
    zcover: &mut ZCover,
    config: FuzzConfig,
    sink: &mut dyn TraceSink,
    spans: &mut Spans,
) -> Result<PhaseRun, ZCoverError> {
    let scan = spans.time("passive.fingerprint", || {
        target.medium().set_impairment(config.impairment.schedule());
        target.prepare_scenario(config.scenario);
        zcover.fingerprint(target)
    })?;
    let active = spans
        .time("active.scan", || ActiveScanner::scan(target, zcover.dongle_mut(), &scan))
        .ok_or(ZCoverError::NoNifResponse)?;
    let before_discovery = target.medium().stats();
    let discovery = spans.time("discovery.run", || {
        let discovery =
            UnknownDiscovery::run(target, zcover.dongle_mut(), &scan, active.listed.clone());
        zcover.dongle_mut().set_route(target.injection_route());
        discovery
    });
    let before_fuzz = target.medium().stats();
    let sched_before_fuzz = target.medium().scheduler().stats();
    let campaign = spans.time("fuzzer.run", || {
        Fuzzer::new(config).run_with_sink(target, zcover.dongle_mut(), &scan, &discovery, sink)
    });
    let after = target.medium().stats();
    let sched_after = target.medium().scheduler().stats();
    Ok(PhaseRun {
        campaign,
        discovery_frames: before_fuzz.since(&before_discovery).frames_sent,
        fuzz_frames: after.since(&before_fuzz).frames_sent,
        fuzz_events: sched_after.since(&sched_before_fuzz).processed,
    })
}

/// Deterministic per-layer work summed over a set of operations (homes,
/// campaigns or replays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations summed.
    pub ops: u64,
    /// Frames sent during discovery.
    pub discovery_frames: u64,
    /// Frames sent during the fuzz loop.
    pub fuzz_frames: u64,
    /// Scheduler events released during the fuzz loop.
    pub fuzz_events: u64,
    /// Frames sent on the medium, whole operation.
    pub frames: u64,
    /// Per-receiver deliveries, whole operation.
    pub deliveries: u64,
    /// Deliveries lost to the channel.
    pub losses: u64,
    /// Extra copies delivered by the channel.
    pub duplicates: u64,
    /// Scheduler events scheduled.
    pub scheduled: u64,
    /// Scheduler events released.
    pub processed: u64,
    /// Timers cancelled.
    pub cancelled: u64,
    /// Fuzz packets injected.
    pub packets: u64,
    /// Unique findings.
    pub findings: u64,
    /// APL dispatch edges lit on the target by campaign end.
    pub edges: u64,
}

impl Tally {
    /// Adds one operation: its decomposed campaign plus the medium and
    /// scheduler totals read when it ended.
    pub fn add(&mut self, run: &PhaseRun, channel: &MediumStats, sched: &SchedStats) {
        self.ops += 1;
        self.discovery_frames += run.discovery_frames;
        self.fuzz_frames += run.fuzz_frames;
        self.fuzz_events += run.fuzz_events;
        self.frames += channel.frames_sent;
        self.deliveries += channel.deliveries;
        self.losses += channel.losses;
        self.duplicates += channel.duplicates;
        self.scheduled += sched.scheduled;
        self.processed += sched.processed;
        self.cancelled += sched.cancelled;
        self.packets += run.campaign.packets_sent;
        self.findings += run.campaign.unique_vulns() as u64;
        self.edges += run.campaign.counters.edges_seen;
    }

    fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ops.max(1) as f64
    }

    /// Sets the count metrics (per operation) and the ratios, each over the
    /// base the table names. `fuzz_s` and `op_s` are mean host seconds per
    /// operation in the fuzz loop and in the whole traced operation.
    pub fn report(&self, fuzz_s: f64, op_s: f64, metrics: &mut Metrics) {
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        metrics.set("discovery.frames", self.per_op(self.discovery_frames));
        metrics.set("fuzzer.packets", self.per_op(self.packets));
        metrics.set("fuzzer.frames", self.per_op(self.fuzz_frames));
        metrics.set("fuzzer.us_per_packet", fuzz_s * 1e6 / self.per_op(self.packets).max(1.0));
        metrics.set("fuzzer.findings_per_kpacket", 1000.0 * ratio(self.findings, self.packets));
        metrics.set("medium.frames", self.per_op(self.frames));
        metrics.set("medium.deliveries", self.per_op(self.deliveries));
        metrics.set("medium.deliveries_per_frame", ratio(self.deliveries, self.frames));
        metrics.set("impairment.losses", self.per_op(self.losses));
        metrics.set("impairment.duplicates", self.per_op(self.duplicates));
        metrics.set("sched.scheduled", self.per_op(self.scheduled));
        metrics.set("sched.processed", self.per_op(self.processed));
        metrics.set("sched.cancelled", self.per_op(self.cancelled));
        metrics.set("sched.events_per_packet", ratio(self.fuzz_events, self.packets));
        metrics.set("sched.ns_per_event", op_s * 1e9 / self.per_op(self.processed).max(1.0));
        metrics.set("coverage.edges", self.per_op(self.edges));
    }
}
