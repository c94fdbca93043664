//! # ZCover — Z-Wave COntroller Vulnerability discovERy
//!
//! A reproduction of the DSN 2025 paper *"ZCover: Uncovering Z-Wave
//! Controller Vulnerabilities Through Systematic Security Analysis of
//! Application Layer Implementation"* (Nkuba et al.).
//!
//! ZCover analyses a Z-Wave controller as a black box reachable only over
//! the radio, in three phases:
//!
//! 1. **Known properties fingerprinting** ([`passive`], [`active`]): sniff
//!    normal traffic to recover the home id and node ids, then query the
//!    controller's NIF for its listed command classes.
//! 2. **Unknown properties discovery** ([`discovery`]): cluster the public
//!    specification for controller-relevant classes the NIF omitted, and
//!    sweep the CMDCL space on air to confirm proprietary classes the
//!    specification itself omits.
//! 3. **Position-sensitive mutation fuzzing** ([`mutation`], [`fuzzer`]):
//!    Algorithm 1 — a priority queue over the 45 discovered classes,
//!    semi-valid packet generation respecting the CMDCL → CMD → PARAM
//!    hierarchy, spec-informed mutation operators, boundary testing,
//!    NOP-ping liveness monitoring, and a deduplicating bug log.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use zcover::{FuzzConfig, ZCover};
//! use zwave_controller::testbed::{DeviceModel, Testbed};
//!
//! let mut testbed = Testbed::new(DeviceModel::D1, 42);
//! let mut zcover = ZCover::attach(&testbed, 70.0);
//! let report = zcover
//!     .run_campaign(&mut testbed, FuzzConfig::full(Duration::from_secs(1800), 42))
//!     .expect("fingerprinting succeeds on a live network");
//! assert!(report.campaign.unique_vulns() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod buglog;
pub mod cli;
pub mod corpus;
pub mod discovery;
pub mod dongle;
pub mod executor;
pub mod fuzzer;
pub mod minimize;
pub mod mutation;
pub mod passive;
pub mod report;
pub mod scenarios;
pub mod sweep;
pub mod target;
pub mod trace;
pub mod trials;

pub use active::{ActiveScanReport, ActiveScanner};
pub use buglog::{BugLog, VulnFinding};
pub use corpus::{Corpus, CorpusEntry, PowerSchedule};
pub use discovery::{DiscoveryReport, UnknownDiscovery};
pub use dongle::{Dongle, PingOutcome};
pub use executor::{derive_trial_seed, CampaignExecutor, TraceSpec};
pub use fuzzer::{
    CampaignCounters, CampaignResult, FuzzConfig, FuzzMode, Fuzzer, NullSink, TraceEvent, TraceSink,
};
pub use minimize::minimize;
pub use mutation::{MutationOp, Mutator};
pub use passive::{PassiveScanner, ScanReport, TrafficStats};
pub use scenarios::{Scenario, ScenarioDriver, ATTACKER_KEY, GHOST_NODE};
pub use sweep::{
    run_sweep, ShardSummary, SweepConfig, SweepSummary, SweepTiming, DEFAULT_SHARD_SIZE,
};
pub use target::FuzzTarget;
pub use trace::{
    cross_trial_summary, describe_header, diff_traces, event_locus, record_campaign, record_on,
    replay, Record, RecordedCampaign, ReplayReport, SchedKind, Trace, TraceError, TraceMeta,
    TraceRecorder, TraceStats,
};
pub use trials::TrialSummary;
pub use zwave_radio::{ImpairmentProfile, ImpairmentSchedule, ImpairmentStage};

/// Errors from the end-to-end ZCover pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZCoverError {
    /// Passive scanning observed no Z-Wave traffic.
    NoTraffic,
    /// The controller never answered the NIF request.
    NoNifResponse,
    /// A trace file could not be written while recording a trial.
    TraceIo(String),
    /// Home `home` of a sweep failed with `source`.
    SweepHome {
        /// Index of the failing home.
        home: u64,
        /// What went wrong in that home's campaign.
        source: Box<ZCoverError>,
    },
    /// Trial `trial` of a multi-trial campaign failed with `source`.
    Trial {
        /// Index of the failing trial.
        trial: u64,
        /// What went wrong in that trial's campaign.
        source: Box<ZCoverError>,
    },
}

impl std::fmt::Display for ZCoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZCoverError::NoTraffic => f.write_str("passive scanning observed no z-wave traffic"),
            ZCoverError::NoNifResponse => f.write_str("controller did not answer the NIF request"),
            ZCoverError::TraceIo(e) => write!(f, "trace recording failed: {e}"),
            ZCoverError::SweepHome { home, source } => write!(f, "home {home}: {source}"),
            ZCoverError::Trial { trial, source } => write!(f, "trial {trial}: {source}"),
        }
    }
}

impl std::error::Error for ZCoverError {}

/// The combined output of all three ZCover phases.
#[derive(Debug, Clone)]
pub struct ZCoverReport {
    /// Phase 1a: network fingerprint.
    pub scan: ScanReport,
    /// Phase 1b: listed command classes.
    pub active: ActiveScanReport,
    /// Phase 2: unknown-property discovery.
    pub discovery: DiscoveryReport,
    /// Phase 3: fuzzing campaign result.
    pub campaign: CampaignResult,
}

/// The end-to-end ZCover pipeline bound to one attacker dongle.
#[derive(Debug)]
pub struct ZCover {
    passive: PassiveScanner,
    dongle: Dongle,
}

impl ZCover {
    /// Attaches ZCover's transceiver to the target's medium at
    /// `position_m` metres (10-70 m in the paper's threat model).
    pub fn attach<T: FuzzTarget>(target: &T, position_m: f64) -> Self {
        ZCover {
            passive: PassiveScanner::new(target.medium(), position_m),
            dongle: Dongle::attach(target.medium(), position_m),
        }
    }

    /// Phase 1a only: fingerprint the network from sniffed traffic.
    ///
    /// # Errors
    ///
    /// [`ZCoverError::NoTraffic`] when nothing was captured.
    pub fn fingerprint<T: FuzzTarget>(
        &mut self,
        target: &mut T,
    ) -> Result<ScanReport, ZCoverError> {
        // Listen through a few rounds of benign traffic.
        for _ in 0..3 {
            target.generate_normal_traffic();
        }
        self.passive.analyze().ok_or(ZCoverError::NoTraffic)
    }

    /// Runs all three phases and a fuzzing campaign.
    ///
    /// # Errors
    ///
    /// [`ZCoverError::NoTraffic`] when passive scanning captured nothing;
    /// [`ZCoverError::NoNifResponse`] when active scanning got no NIF.
    pub fn run_campaign<T: FuzzTarget>(
        &mut self,
        target: &mut T,
        config: FuzzConfig,
    ) -> Result<ZCoverReport, ZCoverError> {
        self.run_campaign_with_sink(target, config, &mut NullSink)
    }

    /// [`ZCover::run_campaign`] with a [`TraceSink`] observing the fuzzing
    /// phase as it executes (the sink cannot perturb the campaign).
    ///
    /// # Errors
    ///
    /// Same as [`ZCover::run_campaign`].
    pub(crate) fn run_campaign_with_sink<T: FuzzTarget>(
        &mut self,
        target: &mut T,
        config: FuzzConfig,
        sink: &mut dyn TraceSink,
    ) -> Result<ZCoverReport, ZCoverError> {
        // The named impairment profile shapes the channel for every phase:
        // fingerprinting, discovery and the fuzzing campaign all face the
        // same (deterministically) hostile medium.
        target.medium().set_impairment(config.impairment.schedule());
        // Scenario preconditions (an offline node record, an armed
        // re-inclusion window) exist before the attacker ever listens.
        target.prepare_scenario(config.scenario);
        let scan = self.fingerprint(target)?;
        let active = ActiveScanner::scan(target, &mut self.dongle, &scan)
            .ok_or(ZCoverError::NoNifResponse)?;
        let discovery =
            UnknownDiscovery::run(target, &mut self.dongle, &scan, active.listed.clone());
        // Reconnaissance probes go direct; once the target's mesh shape is
        // known, the campaign's crafted frames ride the repeater chain the
        // topology demands (a no-op on flat, direct-range testbeds).
        self.dongle.set_route(target.injection_route());
        let fuzzer = Fuzzer::new(config);
        let campaign = fuzzer.run_with_sink(target, &mut self.dongle, &scan, &discovery, sink);
        Ok(ZCoverReport { scan, active, discovery, campaign })
    }

    /// The attacker dongle (for custom injection experiments).
    pub fn dongle_mut(&mut self) -> &mut Dongle {
        &mut self.dongle
    }
}
