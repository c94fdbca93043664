//! The position-sensitive-mutation fuzzing campaign: Algorithm 1 plus the
//! feedback loop of Figure 7 (properties acquisition → test-case generation
//! → execution & response monitoring).

use std::collections::BTreeSet;
use std::time::Duration;

use zwave_protocol::apl::ApplicationPayload;
use zwave_protocol::registry::Registry;
use zwave_protocol::CommandClassId;
use zwave_radio::{ImpairmentProfile, MediumStats, SchedStats, SimInstant};

use crate::buglog::{BugLog, VulnFinding};
use crate::corpus::{Corpus, CorpusEntry, PowerSchedule};
use crate::discovery::DiscoveryReport;
use crate::dongle::{Dongle, PingOutcome};
use crate::mutation::Mutator;
use crate::passive::ScanReport;
use crate::scenarios::{Scenario, ScenarioDriver};
use crate::target::FuzzTarget;

/// Which campaign configuration drives the fuzzer: one variant per
/// canonical configuration name of the paper's evaluation (full ZCover,
/// the Table VI ablations, the extended ablations, the Table V VFuzz
/// baseline, and the coverage-guided mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FuzzMode {
    /// The paper's positional fuzzer (Algorithm 1), full configuration
    /// (Table VI test 1).
    #[default]
    Zcover,
    /// ZCover β: known (NIF-listed) CMDCLs only (Table VI test 2).
    Beta,
    /// ZCover γ: uniform random CMDCL, CMD and PARAMs, no
    /// position-sensitive mutation (Table VI test 3).
    Gamma,
    /// Extended ablation: no command-count prioritisation (queue scanned
    /// ascending by CMDCL id).
    NoPriority,
    /// Extended ablation: no semantic/boundary exploration plans (random
    /// position-sensitive mutation only).
    NoPlans,
    /// The VFuzz baseline (Nkuba et al., Table V): captured frames
    /// mutated at the MAC layer and injected raw, behind the same
    /// injection/oracle machinery so discovery times are comparable.
    Vfuzz,
    /// Coverage-guided: deterministic plan bootstrap, then mutation of a
    /// corpus of edge-discovering inputs under a power schedule.
    Coverage,
}

impl FuzzMode {
    /// The engine name reported in JSON output: `zcover` for the
    /// positional fuzzer and its ablations, else `vfuzz` / `coverage`.
    pub fn name(self) -> &'static str {
        match self {
            FuzzMode::Vfuzz => "vfuzz",
            FuzzMode::Coverage => "coverage",
            _ => "zcover",
        }
    }

    /// The canonical configuration name: the `--config` vocabulary of
    /// the `zcover` CLI and the `config` field of recorded traces
    /// ([`FuzzConfig::named`] parses it back).
    pub fn config_name(self) -> &'static str {
        match self {
            FuzzMode::Zcover => "full",
            FuzzMode::Beta => "beta",
            FuzzMode::Gamma => "gamma",
            FuzzMode::NoPriority => "no-priority",
            FuzzMode::NoPlans => "no-plans",
            FuzzMode::Vfuzz => "vfuzz",
            FuzzMode::Coverage => "coverage",
        }
    }
}

impl std::fmt::Display for FuzzMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-CMDCL packet budget (the `C_T` window of Algorithm 1, expressed in
/// packets so that outage-recovery waits do not eat the window).
const PER_CMDCL_PACKETS: u64 = 400;

/// Random mutation packets appended after the deterministic plans of each
/// CMDCL window.
const EXTRA_RANDOM_PACKETS: u32 = 20;

/// Fuzzing configuration: which campaign ([`FuzzMode`]), for how long,
/// from which seed, on which channel, against which adversary.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Total campaign budget (`Testing_T`, "0.1 to 24 hours").
    pub testing_duration: Duration,
    /// RNG seed for the trial.
    pub seed: u64,
    /// Named channel-impairment profile applied to the simulated medium
    /// for the whole campaign (Section IV's noisy-environment runs).
    pub impairment: ImpairmentProfile,
    /// Which campaign configuration drives the fuzzer.
    pub mode: FuzzMode,
    /// Scripted adversary sharing the medium with the campaign
    /// ([`Scenario::None`] for plain fuzzing).
    pub scenario: Scenario,
}

impl FuzzConfig {
    /// The full ZCover configuration (Table VI test 1).
    pub fn full(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig {
            testing_duration,
            seed,
            impairment: ImpairmentProfile::Clean,
            mode: FuzzMode::Zcover,
            scenario: Scenario::None,
        }
    }

    /// Returns the same configuration with `profile` applied to the
    /// simulated channel.
    pub fn with_impairment(self, profile: ImpairmentProfile) -> Self {
        FuzzConfig { impairment: profile, ..self }
    }

    /// Returns the same configuration with a scripted adversary running
    /// `scenario` alongside the campaign.
    pub fn with_scenario(self, scenario: Scenario) -> Self {
        FuzzConfig { scenario, ..self }
    }

    /// Extended ablation [`FuzzMode::NoPriority`].
    pub fn without_prioritization(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig { mode: FuzzMode::NoPriority, ..FuzzConfig::full(testing_duration, seed) }
    }

    /// Extended ablation [`FuzzMode::NoPlans`].
    pub fn without_semantic_plans(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig { mode: FuzzMode::NoPlans, ..FuzzConfig::full(testing_duration, seed) }
    }

    /// ZCover β ([`FuzzMode::Beta`], Table VI test 2).
    pub fn beta(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig { mode: FuzzMode::Beta, ..FuzzConfig::full(testing_duration, seed) }
    }

    /// ZCover γ ([`FuzzMode::Gamma`], Table VI test 3).
    pub fn gamma(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig { mode: FuzzMode::Gamma, ..FuzzConfig::full(testing_duration, seed) }
    }

    /// The coverage-guided mode: plan bootstrap plus corpus-biased
    /// mutation under a power schedule (ROADMAP item 2).
    pub fn coverage(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig { mode: FuzzMode::Coverage, ..FuzzConfig::full(testing_duration, seed) }
    }

    /// The VFuzz baseline: MAC-level mutation of the frames fingerprinting
    /// captured ([`Mutator::mac_mutant`]), injected raw. Raw mutants carry
    /// no routing header, so on multi-hop homes they test direct reach only.
    pub fn vfuzz(testing_duration: Duration, seed: u64) -> Self {
        FuzzConfig { mode: FuzzMode::Vfuzz, ..FuzzConfig::full(testing_duration, seed) }
    }

    /// Builds a configuration from its canonical name
    /// ([`FuzzMode::config_name`]): `full`, `beta`, `gamma`,
    /// `no-priority`, `no-plans`, `coverage`, or `vfuzz`. Returns `None`
    /// for an unknown name.
    pub fn named(name: &str, testing_duration: Duration, seed: u64) -> Option<Self> {
        Some(match name {
            "full" => FuzzConfig::full(testing_duration, seed),
            "beta" => FuzzConfig::beta(testing_duration, seed),
            "gamma" => FuzzConfig::gamma(testing_duration, seed),
            "no-priority" => FuzzConfig::without_prioritization(testing_duration, seed),
            "no-plans" => FuzzConfig::without_semantic_plans(testing_duration, seed),
            "coverage" => FuzzConfig::coverage(testing_duration, seed),
            "vfuzz" => FuzzConfig::vfuzz(testing_duration, seed),
            _ => return None,
        })
    }
}

/// Structured observer of campaign progress, called synchronously from the
/// fuzzing loop. Implementations must not perturb the campaign (they see
/// events; they cannot influence scheduling), so the same seed produces
/// the same campaign regardless of which sink is attached.
pub trait TraceSink {
    /// One fuzz packet was injected (liveness pings excluded).
    fn packet_sent(&mut self) {}
    /// One deterministic exploration plan was executed.
    fn plan_executed(&mut self) {}
    /// A packet caused a timed outage (hang) of the controller.
    fn outage_observed(&mut self) {}
    /// A new unique vulnerability entered the bug log.
    fn finding(&mut self, _finding: &VulnFinding) {}
    /// A fuzz packet went unacknowledged and was retransmitted.
    fn retransmission(&mut self) {}
    /// A fuzz packet exhausted its retransmission budget without an ack.
    fn ack_timeout(&mut self) {}
    /// A payload discovered new coverage edges and entered the corpus
    /// (coverage mode only).
    fn corpus_retained(&mut self, _new_edges: u64, _corpus_size: usize) {}
    /// The scripted adversary transmitted attack frame `index` of its
    /// scenario schedule.
    fn attack_frame(&mut self, _index: u64) {}
}

/// A sink that discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Per-campaign event counters. The executor sums these across trials for
/// the merged [`crate::TrialSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounters {
    /// Fuzz packets injected (excluding liveness pings).
    pub packets_sent: u64,
    /// Deterministic exploration plans executed.
    pub plans_executed: u64,
    /// Timed outages (hangs) observed.
    pub outages_observed: u64,
    /// Unique vulnerability findings recorded.
    pub findings: u64,
    /// Frames the impaired channel dropped (noise plus impairment stages).
    pub losses: u64,
    /// Frames the impaired channel delivered twice.
    pub duplicates: u64,
    /// Frames the impaired channel delivered out of order.
    pub reorders: u64,
    /// Frames the impaired channel truncated.
    pub truncations: u64,
    /// Frames silenced by a scripted blackout window.
    pub blackout_drops: u64,
    /// Unacknowledged fuzz packets retransmitted by the dongle.
    pub retransmissions: u64,
    /// Fuzz packets that exhausted the retransmission budget unacked.
    pub ack_timeouts: u64,
    /// Distinct APL dispatch edges lit on the target by campaign end
    /// (recorded in every mode; only coverage mode *uses* the feedback).
    pub edges_seen: u64,
    /// Corpus entries held at campaign end (coverage mode).
    pub corpus_size: u64,
    /// Inputs retained into the corpus over the campaign (coverage mode).
    pub retained_inputs: u64,
    /// Frames transmitted by the scripted adversary station.
    pub attack_frames: u64,
    /// Findings attributable to an attack scenario (bugs #16-#18).
    pub attack_verdicts: u64,
    /// High-water mark of live events in the simulation kernel — across
    /// trials/homes the *maximum* is kept, not the sum (it is a mark).
    pub sched_peak_pending: u64,
    /// Timers cancelled before firing.
    pub sched_cancelled: u64,
}

impl CampaignCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &CampaignCounters) {
        self.packets_sent += other.packets_sent;
        self.plans_executed += other.plans_executed;
        self.outages_observed += other.outages_observed;
        self.findings += other.findings;
        self.losses += other.losses;
        self.duplicates += other.duplicates;
        self.reorders += other.reorders;
        self.truncations += other.truncations;
        self.blackout_drops += other.blackout_drops;
        self.retransmissions += other.retransmissions;
        self.ack_timeouts += other.ack_timeouts;
        self.edges_seen += other.edges_seen;
        self.corpus_size += other.corpus_size;
        self.retained_inputs += other.retained_inputs;
        self.attack_frames += other.attack_frames;
        self.attack_verdicts += other.attack_verdicts;
        self.sched_peak_pending = self.sched_peak_pending.max(other.sched_peak_pending);
        self.sched_cancelled += other.sched_cancelled;
    }

    /// Copies the channel-side tallies out of a [`MediumStats`] delta.
    pub fn absorb_channel(&mut self, delta: &MediumStats) {
        self.losses += delta.losses;
        self.duplicates += delta.duplicates;
        self.reorders += delta.reorders;
        self.truncations += delta.truncations;
        self.blackout_drops += delta.blackout_drops;
    }

    /// Copies the kernel-side occupancy tallies out of a [`SchedStats`]
    /// delta (peak pending is a mark, so max rather than sum).
    pub fn absorb_sched(&mut self, delta: &SchedStats) {
        self.sched_peak_pending = self.sched_peak_pending.max(delta.peak_pending);
        self.sched_cancelled += delta.cancelled;
    }
}

/// One point of the Figure 12 detection-over-time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimInstant,
    /// Packets injected so far.
    pub packets: u64,
    /// A unique bug discovered at this point, if any (the red crosses).
    pub bug_id: Option<u8>,
    /// Distinct APL dispatch edges lit so far (the edges-over-time curve
    /// `bench_coverage` plots; zero on targets without instrumentation).
    pub edges: u64,
}

/// The outcome of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignResult {
    /// Fuzz packets injected (excluding liveness pings).
    pub packets_sent: u64,
    /// Unique verified findings, in discovery order.
    pub findings: Vec<VulnFinding>,
    /// Sampled timeline plus one event per discovery (Figure 12).
    pub trace: Vec<TraceEvent>,
    /// Distinct CMDCL bytes exercised (Table V coverage).
    pub cmdcl_coverage: BTreeSet<u8>,
    /// Distinct CMD bytes exercised (Table V coverage).
    pub cmd_coverage: BTreeSet<u8>,
    /// Structured event counters for the campaign.
    pub counters: CampaignCounters,
    /// The engine that produced this result.
    pub mode: FuzzMode,
    /// The scripted adversary that shared the medium (if any).
    pub scenario: Scenario,
    /// The retained corpus (empty outside coverage mode). Part of the
    /// result so determinism tests can compare corpus contents bit for
    /// bit across worker counts.
    pub corpus: Vec<CorpusEntry>,
    /// Campaign start (virtual).
    pub started: SimInstant,
    /// Campaign end (virtual).
    pub ended: SimInstant,
}

impl CampaignResult {
    /// Number of unique vulnerabilities found.
    pub fn unique_vulns(&self) -> usize {
        self.findings.len()
    }

    /// Virtual duration of the campaign.
    pub fn duration(&self) -> Duration {
        self.ended.duration_since(self.started)
    }
}

/// One test case as handed to the shared oracle: an application payload
/// the dongle frames (MAC-valid), or raw MAC bytes injected verbatim.
#[derive(Clone, Copy)]
enum Probe<'a> {
    Apl(&'a ApplicationPayload),
    Mac(&'a [u8]),
}

/// The fuzzing engine.
#[derive(Debug)]
pub struct Fuzzer {
    config: FuzzConfig,
}

struct CampaignState<'a, T: FuzzTarget> {
    target: &'a mut T,
    dongle: &'a mut Dongle,
    scan: &'a ScanReport,
    sink: &'a mut dyn TraceSink,
    mutator: Mutator,
    log: BugLog,
    trace: Vec<TraceEvent>,
    counters: CampaignCounters,
    cmdcl_coverage: BTreeSet<u8>,
    cmd_coverage: BTreeSet<u8>,
    deadline: SimInstant,
    driver: Option<ScenarioDriver>,
}

impl Fuzzer {
    /// Creates a fuzzer with `config`.
    pub fn new(config: FuzzConfig) -> Self {
        Fuzzer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FuzzConfig {
        &self.config
    }

    /// Runs one campaign against `target` using the fingerprinting and
    /// discovery results. Implements Algorithm 1: a priority queue of
    /// CMDCLs, per-class windows of semi-valid packet generation and
    /// mutation, response monitoring with NOP liveness pings, and bug
    /// logging.
    pub fn run<T: FuzzTarget>(
        &self,
        target: &mut T,
        dongle: &mut Dongle,
        scan: &ScanReport,
        discovery: &DiscoveryReport,
    ) -> CampaignResult {
        self.run_with_sink(target, dongle, scan, discovery, &mut NullSink)
    }

    /// [`Fuzzer::run`] with a [`TraceSink`] observing the campaign as it
    /// executes. The sink sees every packet, plan, outage, and finding
    /// synchronously; the campaign itself is bit-identical whichever sink
    /// is attached (the sink cannot influence scheduling or the RNG).
    pub fn run_with_sink<T: FuzzTarget>(
        &self,
        target: &mut T,
        dongle: &mut Dongle,
        scan: &ScanReport,
        discovery: &DiscoveryReport,
        sink: &mut dyn TraceSink,
    ) -> CampaignResult {
        let clock = target.medium().clock().clone();
        let started = clock.now();
        let channel_before = target.medium().stats();
        let sched_before = target.medium().scheduler().stats();
        let semantic = Mutator::semantic_pool(scan.controller, &scan.slaves);
        // The scripted adversary joins the medium anchored at campaign
        // start; its whole schedule is a pure function of (scenario,
        // seed), so it cannot perturb non-scenario campaigns.
        let driver = ScenarioDriver::new(
            self.config.scenario,
            target.medium(),
            started,
            self.config.seed,
            scan.home_id,
            scan.controller,
        );
        let mut state = CampaignState {
            target,
            dongle,
            scan,
            sink,
            mutator: Mutator::new(self.config.seed, semantic),
            log: BugLog::new(),
            trace: Vec::new(),
            counters: CampaignCounters::default(),
            cmdcl_coverage: BTreeSet::new(),
            cmd_coverage: BTreeSet::new(),
            deadline: started.plus(self.config.testing_duration),
            driver,
        };

        let mut corpus = Vec::new();
        match self.config.mode {
            FuzzMode::Coverage => {
                corpus = self.run_coverage(&mut state, discovery);
                state.counters.corpus_size = corpus.len() as u64;
            }
            FuzzMode::Vfuzz => {
                // MAC-level mutation of the sniffed traffic; a synthetic
                // Basic Set seeds the corpus when nothing was captured.
                let fallback = zwave_protocol::MacFrame::singlecast(
                    scan.home_id,
                    scan.spoof_source(),
                    scan.controller,
                    vec![0x20, 0x01, 0xFF],
                )
                .encode();
                while clock.now() < state.deadline {
                    let frame = state.mutator.mac_mutant(&scan.captures, &fallback);
                    Self::send_and_observe(&mut state, Probe::Mac(&frame));
                }
            }
            FuzzMode::Gamma => {
                // γ: uniform random CMDCL/CMD/PARAM packets.
                while clock.now() < state.deadline {
                    let payload = state.mutator.random_payload();
                    Self::send_and_observe(&mut state, Probe::Apl(&payload));
                }
            }
            mode @ (FuzzMode::Zcover
            | FuzzMode::Beta
            | FuzzMode::NoPriority
            | FuzzMode::NoPlans) => {
                let queue: Vec<CommandClassId> = match mode {
                    // β: only the NIF-listed classes, by command count.
                    FuzzMode::Beta => {
                        let mut listed = discovery.listed.clone();
                        let reg = Registry::global();
                        listed.sort_by_key(|id| {
                            (std::cmp::Reverse(reg.get(*id).map_or(0, |s| s.command_count())), id.0)
                        });
                        listed
                    }
                    FuzzMode::NoPriority => {
                        let mut queue = discovery.prioritized_targets();
                        queue.sort_by_key(|id| id.0);
                        queue
                    }
                    _ => discovery.prioritized_targets(),
                };
                // First pass: deterministic plans per class.
                'outer: loop {
                    for &cc in &queue {
                        if clock.now() >= state.deadline {
                            break 'outer;
                        }
                        self.fuzz_cmdcl_window(&mut state, cc);
                    }
                    // Subsequent passes: keep mutating randomly until the
                    // budget is exhausted (24-hour trials re-cover the queue).
                    if clock.now() >= state.deadline {
                        break;
                    }
                    for &cc in &queue {
                        if clock.now() >= state.deadline {
                            break 'outer;
                        }
                        self.refuzz_random(&mut state, cc, 50);
                    }
                }
            }
        }

        let channel_delta = state.target.medium().stats().since(&channel_before);
        state.counters.absorb_channel(&channel_delta);
        let sched_delta = state.target.medium().scheduler().stats().since(&sched_before);
        state.counters.absorb_sched(&sched_delta);

        CampaignResult {
            packets_sent: state.counters.packets_sent,
            findings: state.log.findings().to_vec(),
            trace: state.trace,
            cmdcl_coverage: state.cmdcl_coverage,
            cmd_coverage: state.cmd_coverage,
            counters: state.counters,
            mode: self.config.mode,
            scenario: self.config.scenario,
            corpus,
            started,
            ended: clock.now(),
        }
    }

    /// The coverage-guided campaign (ROADMAP item 2).
    ///
    /// Phase 1 bootstraps with the deterministic exploration plans over the
    /// prioritized queue — no random bursts or window tails, so the sweep
    /// reaches late-queue classes far sooner than Algorithm 1's 400-packet
    /// windows. Phase 2 mutates corpus entries picked by the energy-
    /// weighted power schedule until the budget runs out. Every injected
    /// payload that lights a new dispatch edge is retained; an entry whose
    /// mutation discovers more gets an energy boost.
    fn run_coverage<T: FuzzTarget>(
        &self,
        state: &mut CampaignState<'_, T>,
        discovery: &DiscoveryReport,
    ) -> Vec<CorpusEntry> {
        let clock = state.target.medium().clock().clone();
        let mut corpus = Corpus::new();
        let mut schedule = PowerSchedule::new(self.config.seed);

        let observe_retention = |state: &mut CampaignState<'_, T>,
                                 corpus: &mut Corpus,
                                 payload: &ApplicationPayload,
                                 before: u64| {
            let gained = state.target.coverage_edges().saturating_sub(before);
            if gained > 0 {
                corpus.retain(payload.encode(), gained, state.counters.packets_sent);
                state.counters.retained_inputs += 1;
                state.sink.corpus_retained(gained, corpus.len());
            }
            gained
        };

        // Phase 1: deterministic plan bootstrap over the prioritized queue.
        let queue = discovery.prioritized_targets();
        'boot: for &cc in &queue {
            let spec = Registry::global().get(cc);
            for cmd in Self::command_candidates(spec) {
                if clock.now() >= state.deadline {
                    break 'boot;
                }
                for params in state.mutator.exploration_plans(cc, cmd) {
                    if clock.now() >= state.deadline {
                        break 'boot;
                    }
                    let payload = ApplicationPayload::new(cc, cmd, params);
                    state.counters.plans_executed += 1;
                    state.sink.plan_executed();
                    let before = state.target.coverage_edges();
                    let hung = Self::send_and_observe(state, Probe::Apl(&payload));
                    observe_retention(state, &mut corpus, &payload, before);
                    if hung {
                        // Same starvation guard as Algorithm 1: a hanging
                        // command is conclusively vulnerable already.
                        break;
                    }
                }
            }
        }

        // Phase 2: corpus-biased mutation under the power schedule.
        while clock.now() < state.deadline {
            let Some(index) = schedule.choose(&corpus) else {
                // Nothing retained yet (fully patched target): fall back
                // to blind payloads until something lights an edge.
                let payload = state.mutator.random_payload();
                let before = state.target.coverage_edges();
                Self::send_and_observe(state, Probe::Apl(&payload));
                observe_retention(state, &mut corpus, &payload, before);
                continue;
            };
            let base = corpus.entries()[index].payload.clone();
            let Ok(parsed) = ApplicationPayload::parse(&base) else { continue };
            let cc = parsed.command_class();
            let spec = Registry::global().get(cc);
            let mut payload = parsed;
            let rounds = 1 + schedule.next_u64() % 4;
            for _ in 0..rounds {
                state.mutator.mutate(&mut payload, spec);
            }
            let before = state.target.coverage_edges();
            Self::send_and_observe(state, Probe::Apl(&payload));
            if observe_retention(state, &mut corpus, &payload, before) > 0 {
                // The parent keeps paying off: schedule it more often.
                corpus.boost(index, 1);
            }
        }

        corpus.into_entries()
    }

    /// One Algorithm 1 window: for each command candidate of `cc`, send
    /// the semi-valid seed, walk the deterministic exploration plans, then
    /// mutate randomly.
    fn fuzz_cmdcl_window<T: FuzzTarget>(
        &self,
        state: &mut CampaignState<'_, T>,
        cc: CommandClassId,
    ) {
        let spec = Registry::global().get(cc);
        let window_start_packets = state.counters.packets_sent;
        let clock = state.target.medium().clock().clone();
        let window_spent = |state: &CampaignState<'_, T>| {
            state.counters.packets_sent - window_start_packets >= PER_CMDCL_PACKETS
                || clock.now() >= state.deadline
        };

        let cmds = Self::command_candidates(spec);

        let plans_for = |state: &mut CampaignState<'_, T>, cmd: u8| -> Vec<Vec<u8>> {
            if self.config.mode == FuzzMode::NoPlans {
                // Extended ablation: only the Algorithm 1 seed shape.
                vec![vec![0x00]]
            } else {
                state.mutator.exploration_plans(cc, cmd)
            }
        };
        'window: for cmd in cmds {
            let mut hung = false;
            for params in plans_for(state, cmd) {
                if window_spent(state) {
                    break 'window;
                }
                let payload = ApplicationPayload::new(cc, cmd, params);
                state.counters.plans_executed += 1;
                state.sink.plan_executed();
                // A hang/outage means this command is conclusively
                // vulnerable; spending further plans (and 60-240 s recovery
                // waits each) on it would starve the rest of the queue.
                if Self::send_and_observe(state, Probe::Apl(&payload)) {
                    hung = true;
                    break;
                }
            }
            if hung {
                continue;
            }
            // A short burst of random mutation from the seed payload.
            let mut payload = state.mutator.seed_payload(cc, cmd);
            for _ in 0..3 {
                if window_spent(state) {
                    break 'window;
                }
                state.mutator.mutate(&mut payload, spec);
                if Self::send_and_observe(state, Probe::Apl(&payload)) {
                    break;
                }
            }
        }

        // Window tail: free-form mutation across the class.
        let mut payload = state.mutator.seed_payload(cc, 0x00);
        for _ in 0..EXTRA_RANDOM_PACKETS {
            if window_spent(state) {
                break;
            }
            state.mutator.mutate(&mut payload, spec);
            Self::send_and_observe(state, Probe::Apl(&payload));
        }
    }

    /// The command candidates for one class: the specified commands plus
    /// undefined-command probes, or a 0x00..0x17 sweep for unknown
    /// classes (Section III-C2).
    fn command_candidates(spec: Option<&zwave_protocol::CommandClassSpec>) -> Vec<u8> {
        match spec {
            Some(s) if !s.commands.is_empty() => {
                let mut v: Vec<u8> = s.commands.iter().map(|c| c.id).collect();
                // Undefined-command probes around the defined set.
                let max = v.iter().copied().max().unwrap_or(0);
                for probe in [0x00, max.wrapping_add(1), 0x7F] {
                    if !v.contains(&probe) {
                        v.push(probe);
                    }
                }
                v
            }
            _ => (0x00..=0x17).collect(),
        }
    }

    /// Later-pass random mutation over one class.
    fn refuzz_random<T: FuzzTarget>(
        &self,
        state: &mut CampaignState<'_, T>,
        cc: CommandClassId,
        packets: u32,
    ) {
        let spec = Registry::global().get(cc);
        let clock = state.target.medium().clock().clone();
        let mut payload = state.mutator.seed_payload(cc, 0x00);
        for i in 0..packets {
            if clock.now() >= state.deadline {
                return;
            }
            // Reseed periodically so cumulative arithmetic mutations do
            // not random-walk the CMD byte out of the plausible space.
            if i % 10 == 0 {
                payload = state.mutator.seed_payload(cc, 0x00);
            }
            state.mutator.mutate(&mut payload, spec);
            let _ = Self::send_and_observe(state, Probe::Apl(&payload));
        }
    }

    /// Executes one test case: inject, pump the network, wait, collect the
    /// verification oracle, monitor liveness, and wait out any outage.
    /// Returns `true` when the packet caused a timed outage (hang).
    fn send_and_observe<T: FuzzTarget>(state: &mut CampaignState<'_, T>, probe: Probe<'_>) -> bool {
        let src = state.scan.spoof_source();
        let dst = state.scan.controller;
        let home = state.scan.home_id;

        // Service the scripted adversary first: every attack frame whose
        // fire time has passed goes on the air (in index order) before
        // this test case, and the attacker's wakeup keeps outage-recovery
        // event hops landing on attack instants.
        if let Some(driver) = state.driver.as_mut() {
            let fired = driver.step();
            if !fired.is_empty() {
                state.counters.attack_frames += fired.len() as u64;
                for index in fired {
                    state.sink.attack_frame(index);
                }
                state.target.pump();
            }
        }

        // Transmit with G.9959 MAC retransmission: the frame is injected
        // once and, when no acknowledgement arrives, resent *byte-
        // identically* up to twice, so a receiver whose ack was lost
        // suppresses the copy instead of reprocessing it. On a clean
        // channel a live controller acks the first attempt.
        let check_ack = |state: &mut CampaignState<'_, T>| {
            state.target.pump();
            state.dongle.wait_for_responses();
            state.target.pump();
            state.dongle.drain_any(|bytes| {
                zwave_protocol::MacFrame::decode(bytes).is_ok_and(|m| m.is_ack() && m.src() == dst)
            })
        };
        state.dongle.flush();
        match probe {
            Probe::Apl(payload) => state.dongle.inject_apl(home, src, dst, payload.encode()),
            Probe::Mac(frame) => state.dongle.inject_raw(frame),
        }
        let mut acked = check_ack(state);
        for _retry in 0..2 {
            if acked {
                break;
            }
            if !state.dongle.retransmit_last() {
                break;
            }
            state.counters.retransmissions += 1;
            state.sink.retransmission();
            acked = check_ack(state);
        }
        if !acked {
            state.counters.ack_timeouts += 1;
            state.sink.ack_timeout();
        }
        state.counters.packets_sent += 1;
        state.sink.packet_sent();
        // Table V counts the generated bytes at the CMDCL/CMD positions.
        let (cmdcl, cmd) = match probe {
            Probe::Apl(payload) => (Some(payload.command_class().0), payload.command()),
            Probe::Mac(frame) => (frame.get(9).copied(), frame.get(10).copied()),
        };
        state.cmdcl_coverage.extend(cmdcl);
        state.cmd_coverage.extend(cmd);
        // Absolute (not additive): the target's map is already cumulative.
        state.counters.edges_seen = state.target.coverage_edges();

        // Verification oracle: record any fault this packet caused.
        let mut new_bug = false;
        let mut outage_fired = false;
        for fault in state.target.take_faults() {
            if fault.outage.is_some() {
                outage_fired = true;
            }
            if state.log.record(&fault, state.counters.packets_sent) {
                state.trace.push(TraceEvent {
                    at: fault.at,
                    packets: state.counters.packets_sent,
                    bug_id: Some(fault.bug_id),
                    edges: state.counters.edges_seen,
                });
                new_bug = true;
                state.counters.findings += 1;
                // Only the scripted-adversary bugs are attack verdicts;
                // later implementation bugs (#19's routed-path corruption)
                // are ordinary fuzzing findings.
                if (16..=18).contains(&fault.bug_id) {
                    state.counters.attack_verdicts += 1;
                }
                if let Some(finding) = state.log.findings().last() {
                    state.sink.finding(finding);
                }
            }
        }
        if outage_fired {
            state.counters.outages_observed += 1;
            state.sink.outage_observed();
        }

        // Liveness monitoring via NOP ping; a couple of quick retries
        // filter channel loss from genuine outages. The oracle then
        // distinguishes "target crashed/hung" (a fault fired — wait out
        // the recovery so later test cases are not wasted on a deaf
        // device) from "frame never arrived" (no fault observed: the
        // impaired channel ate the ping, so move on without burning 300 s
        // of recovery budget on a live controller).
        if !Self::ping_alive(state) && outage_fired {
            // Hop straight to the next scheduled event — normally the
            // controller's recovery wakeup — instead of stepping virtual
            // seconds one ping at a time. The 300 s cap bounds the wait
            // exactly like the stepping loop did.
            let deadline = state.target.medium().clock().now().plus(Duration::from_secs(300));
            loop {
                let hopped = state.target.advance_to_event(deadline);
                // Same 3-attempt retry as the liveness check above: the
                // stepping loop was naturally loss-tolerant (a ping every
                // second), a single ping per hop is not.
                if Self::ping_alive(state) || !hopped {
                    break;
                }
            }
        }

        // Sample the timeline for Figure 12.
        if !new_bug && state.counters.packets_sent.is_multiple_of(10) {
            state.trace.push(TraceEvent {
                at: state.target.medium().clock().now(),
                packets: state.counters.packets_sent,
                bug_id: None,
                edges: state.counters.edges_seen,
            });
        }
        outage_fired
    }

    /// One liveness check: a NOP ping to the controller, sent up to three
    /// times until it is acknowledged, so a lost frame is not mistaken for
    /// an unresponsive target.
    fn ping_alive<T: FuzzTarget>(state: &mut CampaignState<'_, T>) -> bool {
        let scan = state.scan;
        for _ in 0..3 {
            state.dongle.send_ping(scan.home_id, scan.spoof_source(), scan.controller);
            state.target.pump();
            if state.dongle.check_ping(scan.controller) == PingOutcome::Alive {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::ActiveScanner;
    use crate::discovery::UnknownDiscovery;
    use crate::passive::PassiveScanner;
    use zwave_controller::testbed::{DeviceModel, Testbed};
    use zwave_controller::HomeNetwork;

    fn prepare(
        model: DeviceModel,
        seed: u64,
    ) -> (HomeNetwork, Dongle, ScanReport, DiscoveryReport) {
        let mut tb = Testbed::new(model, seed);
        let mut passive = PassiveScanner::new(tb.medium(), 70.0);
        tb.exchange_normal_traffic();
        let scan = passive.analyze().unwrap();
        let mut dongle = Dongle::attach(tb.medium(), 70.0);
        let active = ActiveScanner::scan(&mut tb, &mut dongle, &scan).unwrap();
        let discovery = UnknownDiscovery::run(&mut tb, &mut dongle, &scan, active.listed);
        // Discovery probes advance the clock; findings are timed from the
        // fuzzing start either way.
        (tb, dongle, scan, discovery)
    }

    #[test]
    fn every_mode_round_trips_through_its_config_name() {
        use FuzzMode::*;
        let budget = Duration::from_secs(60);
        for mode in [Zcover, Beta, Gamma, NoPriority, NoPlans, Vfuzz, Coverage] {
            let config = FuzzConfig::named(mode.config_name(), budget, 3).expect("canonical name");
            assert_eq!(config.mode, mode);
            let positional = matches!(mode, Zcover | Beta | Gamma | NoPriority | NoPlans);
            assert_eq!(mode.name() == "zcover", positional, "{mode:?}");
        }
        assert!(FuzzConfig::named("zcover", budget, 3).is_none());
    }

    #[test]
    fn full_campaign_finds_all_15_bugs_within_an_hour_on_d1() {
        // Table VI test 1: 15 unique vulnerabilities on the ZooZ device.
        let (mut tb, mut dongle, scan, discovery) = prepare(DeviceModel::D1, 1);
        let fuzzer = Fuzzer::new(FuzzConfig::full(Duration::from_secs(3600), 1));
        let result = fuzzer.run(&mut tb, &mut dongle, &scan, &discovery);
        let mut ids: Vec<u8> = result.findings.iter().map(|f| f.bug_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=15).collect::<Vec<u8>>(), "packets={}", result.packets_sent);
    }

    #[test]
    fn beta_finds_exactly_the_8_listed_class_bugs() {
        // Table VI test 2.
        let (mut tb, mut dongle, scan, discovery) = prepare(DeviceModel::D1, 2);
        let fuzzer = Fuzzer::new(FuzzConfig::beta(Duration::from_secs(3600), 2));
        let result = fuzzer.run(&mut tb, &mut dongle, &scan, &discovery);
        let mut ids: Vec<u8> = result.findings.iter().map(|f| f.bug_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![6, 7, 8, 9, 10, 11, 13, 15]);
    }

    #[test]
    fn gamma_finds_markedly_fewer() {
        // Table VI test 3: random fuzzing is the least effective.
        let (mut tb, mut dongle, scan, discovery) = prepare(DeviceModel::D1, 3);
        let fuzzer = Fuzzer::new(FuzzConfig::gamma(Duration::from_secs(3600), 3));
        let result = fuzzer.run(&mut tb, &mut dongle, &scan, &discovery);
        assert!(
            (3..=9).contains(&result.unique_vulns()),
            "gamma found {} bugs",
            result.unique_vulns()
        );
    }

    #[test]
    fn coverage_matches_table5_shape() {
        let (mut tb, mut dongle, scan, discovery) = prepare(DeviceModel::D2, 4);
        // A Table V-style 24-hour trial (virtual time).
        let fuzzer = Fuzzer::new(FuzzConfig::full(Duration::from_secs(24 * 3600), 4));
        let result = fuzzer.run(&mut tb, &mut dongle, &scan, &discovery);
        // 45 prioritized CMDCLs.
        assert_eq!(result.cmdcl_coverage.len(), 45);
        // CMD coverage stays *focused* — well below VFuzz's indiscriminate
        // 256 (the paper reports 53; our mutator explores a somewhat wider
        // neighbourhood, recorded in EXPERIMENTS.md).
        assert!(
            (40..=190).contains(&result.cmd_coverage.len()),
            "cmd coverage {}",
            result.cmd_coverage.len()
        );
    }

    #[test]
    fn trace_contains_discovery_marks() {
        let (mut tb, mut dongle, scan, discovery) = prepare(DeviceModel::D1, 5);
        let fuzzer = Fuzzer::new(FuzzConfig::full(Duration::from_secs(1800), 5));
        let result = fuzzer.run(&mut tb, &mut dongle, &scan, &discovery);
        let marks: Vec<&TraceEvent> = result.trace.iter().filter(|e| e.bug_id.is_some()).collect();
        assert_eq!(marks.len(), result.unique_vulns());
        // Trace is time ordered.
        for pair in result.trace.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn most_bugs_found_early_like_figure12() {
        // Section IV-B2: "within an average of 600 seconds and 800 test
        // packets" for many vulnerabilities.
        let (mut tb, mut dongle, scan, discovery) = prepare(DeviceModel::D1, 6);
        let start = tb.clock().now();
        let fuzzer = Fuzzer::new(FuzzConfig::full(Duration::from_secs(3600), 6));
        let result = fuzzer.run(&mut tb, &mut dongle, &scan, &discovery);
        let early = result
            .findings
            .iter()
            .filter(|f| f.found_at.duration_since(start) < Duration::from_secs(600))
            .count();
        assert!(early >= 7, "only {early} bugs inside the first 600 s");
    }
}
