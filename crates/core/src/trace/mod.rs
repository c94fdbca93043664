//! Campaign trace record/replay: the regression backbone that *pins* the
//! determinism PR 1–3 established.
//!
//! A [`TraceRecorder`] journals one trial's full event stream — every
//! scheduler dequeue (frame arrivals with a content hash, timers, blackout
//! window edges, via [`zwave_radio::sched::EventObserver`]), every fuzzer
//! event ([`TraceSink`] callbacks with virtual timestamps), and every
//! oracle verdict — as structured [`Record`]s. Because the whole
//! simulation is a pure function of `(device, seed, config, impairment)`,
//! the trace header alone suffices to re-execute the trial: [`replay`]
//! reruns it and compares each record against the recording as the re-run
//! emits it, reporting the *first divergence* with surrounding context. A
//! regression anywhere in the stack — scheduler ordering, impairment RNG
//! streams, mutator draw order, oracle timing — therefore surfaces as a
//! precise `(event index, virtual time)` instead of a silently different
//! Table III.
//!
//! A trace serializes in two interchangeable formats:
//!
//! - **JSONL** (`.jsonl`, the PR 4 format): one flat object per event,
//!   human-greppable, byte-stable. Rendering lives in [`lines`].
//! - **ZCT binary** (`.zct`): the `trace-format` crate's compact
//!   varint/delta encoding with a seekable block index — roughly an order
//!   of magnitude smaller and several times faster to write and decode
//!   (see EXPERIMENTS.md "Trace at scale"). Mapping lives in [`binary`].
//!
//! [`Trace::save`] picks the format from the file extension;
//! [`Trace::load`] auto-detects from the leading magic, so `zcover
//! replay` accepts either. `zcover trace export` converts losslessly in
//! both directions — the JSONL rendering of a binary trace is
//! byte-identical to what a JSONL recording of the same trial would have
//! written (pinned by `tests/trace_binary.rs` against every golden).
//!
//! Golden traces for a small seed/profile matrix live under
//! `tests/golden_traces/` and are pinned byte-for-byte by
//! `tests/trace_replay.rs`.

pub mod binary;
pub mod lines;
pub mod stats;

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

use zwave_controller::testbed::{DeviceModel, Testbed};
use zwave_radio::sched::{Event, EventKind, EventObserver};
use zwave_radio::{ImpairmentProfile, Medium, SimClock, SimScheduler};

pub use trace_format::{Record, SchedKind};

use crate::buglog::VulnFinding;
use crate::fuzzer::{CampaignResult, FuzzConfig, TraceSink};
use crate::scenarios::Scenario;
use crate::target::FuzzTarget;
use crate::{ZCover, ZCoverError, ZCoverReport};

pub use stats::{cross_trial_summary, CmdclStats, TraceStats};

/// Trace format version emitted and accepted by this build (shared by the
/// JSONL header field and the ZCT binary header).
pub const TRACE_VERSION: u64 = 1;

/// Errors loading or replaying a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The file could not be read or written.
    Io(String),
    /// Structurally broken input. The message pinpoints the damage: a
    /// byte offset for binary traces, a line locus for JSONL.
    Malformed(String),
    /// The header declares a version this build does not understand.
    UnsupportedVersion(u64),
    /// The header names a device, config, or profile this build lacks.
    UnknownMeta(String),
    /// Re-executing the recorded trial failed (fingerprinting error).
    Replay(ZCoverError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::Malformed(e) => write!(f, "malformed trace: {e}"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::UnknownMeta(e) => write!(f, "unknown trace metadata: {e}"),
            TraceError::Replay(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Everything needed to re-execute the recorded trial: the trace header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Device model index (`D1`..`D7`).
    pub device: String,
    /// The trial's RNG seed (for executor-recorded trials, the *derived*
    /// per-trial seed, so each trial trace replays independently).
    pub seed: u64,
    /// Canonical configuration name ([`FuzzConfig::named`] vocabulary).
    pub config: String,
    /// Channel impairment profile.
    pub impairment: ImpairmentProfile,
    /// Virtual fuzzing budget.
    pub budget: Duration,
    /// Scripted adversary scenario sharing the medium with the trial.
    pub scenario: Scenario,
}

impl TraceMeta {
    /// The header of a trial of `config` on device `device` (`D1`..`D7`):
    /// the configuration is recorded by its canonical name, so
    /// [`FuzzConfig::named`] rebuilds it on replay.
    pub fn new(device: &str, config: &FuzzConfig) -> TraceMeta {
        TraceMeta {
            device: device.to_string(),
            seed: config.seed,
            config: config.mode.config_name().to_string(),
            impairment: config.impairment,
            budget: config.testing_duration,
            scenario: config.scenario,
        }
    }

    /// Serializes the header line. The `scenario` field is emitted only
    /// when one is set, so traces of plain campaigns — including every
    /// golden recorded before scenarios existed — keep their exact bytes.
    fn header_line(&self) -> String {
        let mut line = format!(
            "{{\"zcover_trace\":{TRACE_VERSION},\"device\":\"{}\",\"seed\":{},\
             \"config\":\"{}\",\"impairment\":\"{}\",\"budget_s\":{:.3}",
            self.device,
            self.seed,
            self.config,
            self.impairment,
            self.budget.as_secs_f64()
        );
        if self.scenario != Scenario::None {
            line.push_str(&format!(",\"scenario\":\"{}\"", self.scenario));
        }
        line.push('}');
        line
    }

    /// Parses a header line.
    fn from_header_line(line: &str) -> Result<TraceMeta, TraceError> {
        let field = lines::field;
        let version: u64 = field(line, "zcover_trace")
            .ok_or_else(|| TraceError::Malformed("missing zcover_trace version".into()))?
            .parse()
            .map_err(|_| TraceError::Malformed("non-numeric trace version".into()))?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let device =
            field(line, "device").ok_or_else(|| TraceError::Malformed("missing device".into()))?;
        let seed: u64 = field(line, "seed")
            .ok_or_else(|| TraceError::Malformed("missing seed".into()))?
            .parse()
            .map_err(|_| TraceError::Malformed("non-numeric seed".into()))?;
        let config =
            field(line, "config").ok_or_else(|| TraceError::Malformed("missing config".into()))?;
        let profile_name = field(line, "impairment")
            .ok_or_else(|| TraceError::Malformed("missing impairment".into()))?;
        let impairment = ImpairmentProfile::parse(&profile_name)
            .ok_or_else(|| TraceError::UnknownMeta(format!("impairment {profile_name}")))?;
        let budget_text = field(line, "budget_s")
            .ok_or_else(|| TraceError::Malformed("missing budget_s".into()))?;
        let budget_s: f64 = budget_text
            .parse()
            .map_err(|_| TraceError::Malformed("non-numeric budget_s".into()))?;
        if !crate::cli::budget_fits(budget_s) {
            return Err(TraceError::Malformed(format!(
                "budget_s {budget_text} is not a finite number of seconds >= 0 that fits the \
                 simulated clock"
            )));
        }
        // Absent on pre-scenario traces: those trials ran without an
        // adversary station.
        let scenario = match field(line, "scenario") {
            Some(name) => Scenario::parse(&name)
                .ok_or_else(|| TraceError::UnknownMeta(format!("scenario {name}")))?,
            None => Scenario::None,
        };
        Ok(TraceMeta {
            device,
            seed,
            config,
            impairment,
            budget: Duration::from_secs_f64(budget_s),
            scenario,
        })
    }

    /// One-line human summary of the header (used by `zcover replay`'s
    /// progress and error messages, identical for both formats).
    pub fn describe(&self) -> String {
        let mut out = format!(
            "device {}, seed {}, config {}, channel {}, budget {:.0} s",
            self.device,
            self.seed,
            self.config,
            self.impairment,
            self.budget.as_secs_f64()
        );
        if self.scenario != Scenario::None {
            out.push_str(&format!(", scenario {}", self.scenario));
        }
        out
    }

    /// The device model named in the header.
    fn model(&self) -> Result<DeviceModel, TraceError> {
        DeviceModel::parse(&self.device)
            .ok_or_else(|| TraceError::UnknownMeta(format!("device {}", self.device)))
    }

    /// The fuzzing configuration the header describes.
    fn fuzz_config(&self) -> Result<FuzzConfig, TraceError> {
        FuzzConfig::named(&self.config, self.budget, self.seed)
            .ok_or_else(|| TraceError::UnknownMeta(format!("config {}", self.config)))
            .map(|c| c.with_impairment(self.impairment).with_scenario(self.scenario))
    }
}

/// A recorded trial: header metadata plus the structured event records, in
/// execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Re-execution parameters (the header).
    pub meta: TraceMeta,
    /// One [`Record`] per journal event.
    pub events: Vec<Record>,
}

impl Trace {
    /// Serializes the whole trace as JSONL (header first, one event per
    /// line, trailing newline). Byte-identical to what a JSONL recording
    /// of the same trial writes, whatever format this trace was loaded
    /// from — the export-parity property `tests/trace_binary.rs` pins.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 * (self.events.len() + 1));
        out.push_str(&self.meta.header_line());
        out.push('\n');
        for record in &self.events {
            out.push_str(&lines::render(record));
            out.push('\n');
        }
        out
    }

    /// Serializes the trace in the ZCT binary format.
    pub fn to_zct_bytes(&self) -> Vec<u8> {
        binary::to_zct_bytes(self)
    }

    /// Writes the trace to `path`. A `.zct` extension selects the binary
    /// format; anything else writes JSONL.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| TraceError::Io(format!("{}: {e}", dir.display())))?;
        }
        let bytes = if path.extension().is_some_and(|e| e == "zct") {
            self.to_zct_bytes()
        } else {
            self.to_jsonl().into_bytes()
        };
        std::fs::write(path, bytes).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads a trace back from `path`, auto-detecting the format from the
    /// leading bytes (ZCT magic → binary, otherwise JSONL).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on read failure, [`TraceError::Malformed`] /
    /// [`TraceError::UnsupportedVersion`] / [`TraceError::UnknownMeta`] on
    /// broken content (with the byte offset or line locus of the damage).
    pub fn load(path: &Path) -> Result<Trace, TraceError> {
        let bytes =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Trace::from_bytes(&bytes)
    }

    /// Parses a trace from raw file bytes, auto-detecting the format.
    ///
    /// # Errors
    ///
    /// Same content errors as [`Trace::load`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        if trace_format::is_zct(bytes) {
            return binary::from_zct_bytes(bytes);
        }
        let text = std::str::from_utf8(bytes).map_err(|e| {
            TraceError::Malformed(format!(
                "byte offset {}: neither a ZCT trace nor UTF-8 JSONL",
                e.valid_up_to()
            ))
        })?;
        Trace::from_jsonl(text)
    }

    /// Parses a trace from its JSONL serialization. Event lines this
    /// build has no structured shape for survive as [`Record::Raw`] —
    /// they round-trip verbatim through either format.
    ///
    /// # Errors
    ///
    /// Header errors as in [`Trace::load`], each prefixed with `line 1`.
    pub fn from_jsonl(text: &str) -> Result<Trace, TraceError> {
        let mut jsonl_lines = text.lines();
        let header = jsonl_lines
            .next()
            .ok_or_else(|| TraceError::Malformed("line 1: empty trace".into()))?;
        let meta = TraceMeta::from_header_line(header).map_err(|e| match e {
            TraceError::Malformed(m) => TraceError::Malformed(format!("line 1: {m}")),
            other => other,
        })?;
        let events: Vec<Record> = jsonl_lines.filter(|l| !l.is_empty()).map(lines::parse).collect();
        Ok(Trace { meta, events })
    }

    /// The virtual timestamp recorded on event `index`, if present.
    pub fn at_us(&self, index: usize) -> Option<u64> {
        self.events.get(index).and_then(event_at_us)
    }
}

/// The virtual timestamp a record carries; a [`Record::Raw`] line is read
/// for an `at_us` field.
fn event_at_us(record: &Record) -> Option<u64> {
    record.at_us().or_else(|| match record {
        Record::Raw(line) => lines::field(line, "at_us").and_then(|v| v.parse().ok()),
        _ => None,
    })
}

/// Best-effort header summary of raw trace bytes, for error paths: even
/// when the body is malformed, the (CRC- or line-delimited) header often
/// still decodes, and naming the campaign it belonged to turns "corrupt
/// file" into an actionable message. Returns `None` when not even the
/// header survives.
pub fn describe_header(bytes: &[u8]) -> Option<String> {
    if trace_format::is_zct(bytes) {
        return binary::peek_meta(bytes).map(|meta| meta.describe());
    }
    let text = std::str::from_utf8(bytes).ok()?;
    TraceMeta::from_header_line(text.lines().next()?).ok().map(|meta| meta.describe())
}

/// Where event `index` lives in the serialized file: the line number for
/// JSONL, the block and byte offset for binary. Divergence messages from
/// `zcover replay` cite this so the damaged region can be inspected with
/// ordinary tools (`sed -n`, `xxd -s`).
pub fn event_locus(bytes: &[u8], index: usize) -> String {
    if trace_format::is_zct(bytes) {
        return binary::event_locus(bytes, index as u64);
    }
    // Line 1 is the header; events start on line 2.
    format!("line {}", index + 2)
}

// ───────────────────────── recording ─────────────────────────

/// Maps one released scheduler event to its journal record.
fn sched_record(event: &Event) -> Record {
    let actor = if event.actor == SimScheduler::MEDIUM_ACTOR { -1 } else { event.actor as i64 };
    let kind = match &event.kind {
        EventKind::FrameArrival(deliveries) => {
            SchedKind::Frame { n: deliveries.len() as u64, hash: event.content_hash() }
        }
        EventKind::Timer(token) => SchedKind::Timer { id: token.id() },
        EventKind::BlackoutStart { generation, stage } => {
            SchedKind::BlackoutStart { generation: *generation, stage: *stage as u64 }
        }
        EventKind::BlackoutEnd { generation, stage } => {
            SchedKind::BlackoutEnd { generation: *generation, stage: *stage as u64 }
        }
    };
    Record::Sched { at_us: event.at.as_micros(), seq: event.seq, actor, kind }
}

/// The shared journal both halves of the recorder append to: the scheduler
/// observer (dequeue hook) and the [`TraceSink`] (fuzzer hook). One trial
/// is single-threaded, so records interleave in true execution order, and
/// the journal is a plain `RefCell` (the home it observes is `!Send`).
/// Events are stored structurally — no string formatting happens during
/// the campaign; rendering (JSONL) or encoding (binary) is deferred to
/// serialization time.
struct Journal {
    records: RefCell<Vec<Record>>,
    clock: SimClock,
}

impl Journal {
    fn push(&self, record: Record) {
        self.records.borrow_mut().push(record);
    }

    fn fuzz(&self, ev: &str) {
        self.push(Record::Fuzz { at_us: self.clock.now().as_micros(), ev: ev.to_string() });
    }
}

impl EventObserver for Journal {
    fn event_dequeued(&self, event: &Event) {
        self.push(sched_record(event));
    }
}

/// Records one trial's event journal. Create with [`TraceRecorder::attach`]
/// *before* running the pipeline, pass as the campaign's [`TraceSink`],
/// then call [`TraceRecorder::finish`].
///
/// The recorder is a pure observer: a campaign runs bit-identically with
/// or without one attached.
pub struct TraceRecorder {
    meta: TraceMeta,
    journal: Rc<Journal>,
    medium: Medium,
}

impl TraceRecorder {
    /// Hooks the recorder onto `medium`'s scheduler. Everything the
    /// simulation dequeues from this point on — fingerprinting, discovery,
    /// and the campaign itself — lands in the journal, so replaying from
    /// the same header reproduces the identical stream.
    pub fn attach(medium: &Medium, meta: TraceMeta) -> TraceRecorder {
        let journal =
            Rc::new(Journal { records: RefCell::new(Vec::new()), clock: medium.clock().clone() });
        medium.scheduler().set_observer(Some(journal.clone()));
        TraceRecorder { meta, journal, medium: medium.clone() }
    }

    /// Detaches the scheduler hook, appends the summary footer, and
    /// returns the finished trace.
    pub fn finish(self, result: &CampaignResult) -> Trace {
        let end = self.close(result);
        let mut events = self.journal.records.take();
        events.push(end);
        Trace { meta: self.meta, events }
    }

    /// Detaches the scheduler hook and builds the summary footer record.
    fn close(&self, result: &CampaignResult) -> Record {
        self.medium.scheduler().set_observer(None);
        Record::End {
            at_us: result.ended.as_micros(),
            packets: result.packets_sent,
            findings: result.unique_vulns() as u64,
            sched_events: self.medium.scheduler().events_processed(),
        }
    }
}

impl TraceSink for TraceRecorder {
    fn packet_sent(&mut self) {
        self.journal.fuzz("packet");
    }

    fn plan_executed(&mut self) {
        self.journal.fuzz("plan");
    }

    fn outage_observed(&mut self) {
        self.journal.fuzz("outage");
    }

    fn finding(&mut self, finding: &VulnFinding) {
        self.journal.push(Record::Oracle {
            at_us: finding.found_at.as_micros(),
            bug: u64::from(finding.bug_id),
            cmdcl: u64::from(finding.cmdcl),
            cmd: u64::from(finding.cmd),
        });
    }

    fn retransmission(&mut self) {
        self.journal.fuzz("retransmission");
    }

    fn ack_timeout(&mut self) {
        self.journal.fuzz("ack_timeout");
    }

    fn corpus_retained(&mut self, new_edges: u64, corpus_size: usize) {
        self.journal.push(Record::Corpus {
            at_us: self.journal.clock.now().as_micros(),
            edges: new_edges,
            size: corpus_size as u64,
        });
    }

    fn attack_frame(&mut self, index: u64) {
        self.journal.push(Record::Attack { at_us: self.journal.clock.now().as_micros(), index });
    }
}

/// A recorded trial: the trace plus the pipeline report it journaled.
pub struct RecordedCampaign {
    /// The finished event journal.
    pub trace: Trace,
    /// The three-phase pipeline report of the recorded run.
    pub report: ZCoverReport,
}

/// Runs the full three-phase pipeline on `target` with a recorder
/// attached, the header naming `device` (`D1`..`D7`). `zcover fuzz
/// --record`, per-trial and per-home recording journal through it, and
/// [`replay`] re-runs through the same private path, so a recorded trace
/// and its replay journal the exact same execution.
///
/// # Errors
///
/// Propagates pipeline [`ZCoverError`]s.
pub fn record_on<T: FuzzTarget>(
    target: &mut T,
    device: &str,
    config: FuzzConfig,
) -> Result<RecordedCampaign, ZCoverError> {
    let (recorder, report) = journaled(target, device, config, |recorder| recorder)?;
    let trace = recorder.finish(&report.campaign);
    Ok(RecordedCampaign { trace, report })
}

/// The only place a [`TraceRecorder`] is attached: hooks one onto
/// `target`, hands it to `sink` (the recorder itself, or [`replay`]'s
/// comparator around it), and runs the pipeline with that sink.
fn journaled<T: FuzzTarget, S: TraceSink>(
    target: &mut T,
    device: &str,
    config: FuzzConfig,
    sink: impl FnOnce(TraceRecorder) -> S,
) -> Result<(S, ZCoverReport), ZCoverError> {
    let mut sink = sink(TraceRecorder::attach(target.medium(), TraceMeta::new(device, &config)));
    let mut zcover = ZCover::attach(target, 70.0);
    let report = zcover.run_campaign_with_sink(target, config, &mut sink)?;
    Ok((sink, report))
}

/// [`record_on`] a fresh flat testbed of `model`. `config_name` must be
/// `config.mode.config_name()`, the name the header records.
///
/// # Errors
///
/// Propagates pipeline [`ZCoverError`]s.
pub fn record_campaign(
    model: DeviceModel,
    config_name: &str,
    config: FuzzConfig,
) -> Result<RecordedCampaign, ZCoverError> {
    debug_assert_eq!(config_name, config.mode.config_name());
    record_on(&mut Testbed::new(model, config.seed), model.idx(), config)
}

/// Runs one campaign on `target`. With `record` set to `(device, path)`
/// it is recorded through [`record_on`] and the trace saved to `path`;
/// the recorder is a pure observer, so the campaign is bit-identical
/// either way. The multi-trial executor and the sweep share this path.
///
/// # Errors
///
/// Pipeline [`ZCoverError`]s, plus [`ZCoverError::TraceIo`] when the
/// trace file cannot be written.
pub(crate) fn run_maybe_recorded<T: FuzzTarget>(
    target: &mut T,
    config: FuzzConfig,
    record: Option<(&str, PathBuf)>,
) -> Result<CampaignResult, ZCoverError> {
    let Some((device, path)) = record else {
        return Ok(ZCover::attach(target, 70.0).run_campaign(target, config)?.campaign);
    };
    let recorded = record_on(target, device, config)?;
    recorded.trace.save(&path).map_err(|e| ZCoverError::TraceIo(e.to_string()))?;
    Ok(recorded.report.campaign)
}

// ───────────────────────── replay & diffing ─────────────────────────

/// The first point where a replayed journal departs from the recorded one.
/// The event payloads are carried in their JSONL rendering — the format
/// both humans and the golden files speak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index into the event stream (header excluded).
    pub index: usize,
    /// Virtual timestamp of the divergent event (from the recorded record
    /// when present, else from the replayed one).
    pub at_us: Option<u64>,
    /// The recorded event (`None`: the replay produced *extra* events).
    pub expected: Option<String>,
    /// The replayed event (`None`: the replay ended *early*).
    pub actual: Option<String>,
    /// Up to three recorded events immediately before the divergence.
    pub context: Vec<String>,
}

/// Outcome of diffing a recorded trace against its replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events in the recorded trace.
    pub recorded_events: usize,
    /// Events the replay produced.
    pub replayed_events: usize,
    /// The first divergence, or `None` when the journals are identical.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the replay matched the recording event-for-event.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }

    /// Human-readable verdict for the `zcover replay` subcommand.
    pub fn render(&self) -> String {
        match &self.divergence {
            None => format!("replay OK: {} events, zero divergence", self.recorded_events),
            Some(d) => {
                let mut out = String::new();
                let when = d
                    .at_us
                    .map(|us| format!("{:.6} s", us as f64 / 1e6))
                    .unwrap_or_else(|| "?".to_string());
                out.push_str(&format!(
                    "DIVERGENCE at event {} (virtual t = {when}); \
                     recorded {} events, replayed {}\n",
                    d.index, self.recorded_events, self.replayed_events
                ));
                let context_start = d.index.saturating_sub(d.context.len());
                for (offset, line) in d.context.iter().enumerate() {
                    out.push_str(&format!("  {:>8} | {line}\n", context_start + offset));
                }
                match &d.expected {
                    Some(line) => out.push_str(&format!("  expected | {line}\n")),
                    None => out.push_str("  expected | <end of recorded trace>\n"),
                }
                match &d.actual {
                    Some(line) => out.push_str(&format!("  actual   | {line}\n")),
                    None => out.push_str("  actual   | <replay ended early>\n"),
                }
                out
            }
        }
    }
}

/// Compares a stream of records, fed one at a time, against a recorded
/// trace. It keeps the first [`Divergence`] and from then on only counts,
/// so it holds no record of the stream it is fed.
struct Comparator<'a> {
    recorded: &'a [Record],
    /// Records fed so far.
    fed: usize,
    divergence: Option<Divergence>,
}

impl<'a> Comparator<'a> {
    fn new(recorded: &'a Trace) -> Comparator<'a> {
        Comparator { recorded: &recorded.events, fed: 0, divergence: None }
    }

    /// Compares `actual` with the recorded event at the same index.
    fn push(&mut self, actual: &Record) {
        let index = self.fed;
        self.fed += 1;
        if self.divergence.is_none() && self.recorded.get(index) != Some(actual) {
            self.diverge(index, Some(actual));
        }
    }

    /// The divergence at `index`, where the fed stream holds `actual`
    /// (`None`: the stream ended there). The virtual time is the recorded
    /// event's when it has one, else the fed event's.
    fn diverge(&mut self, index: usize, actual: Option<&Record>) {
        let expected = self.recorded.get(index);
        self.divergence = Some(Divergence {
            index,
            at_us: expected.and_then(event_at_us).or_else(|| actual.and_then(event_at_us)),
            expected: expected.map(lines::render),
            actual: actual.map(lines::render),
            context: self.recorded[index.saturating_sub(3)..index]
                .iter()
                .map(lines::render)
                .collect(),
        });
    }

    /// The verdict once the stream has ended: a stream shorter than the
    /// recording diverges at its end.
    fn finish(mut self) -> ReplayReport {
        if self.divergence.is_none() && self.fed < self.recorded.len() {
            self.diverge(self.fed, None);
        }
        ReplayReport {
            recorded_events: self.recorded.len(),
            replayed_events: self.fed,
            divergence: self.divergence,
        }
    }
}

/// [`replay`]'s campaign sink: forwards every callback to the re-run's
/// recorder, then compares the records the journal holds (the scheduler
/// events dequeued since the last callback, then the callback's own) and
/// drops them. Only the records between two callbacks are ever pending.
struct ReplayComparator<'a> {
    recorder: TraceRecorder,
    comparator: Comparator<'a>,
}

impl ReplayComparator<'_> {
    fn forward(&mut self, callback: impl FnOnce(&mut TraceRecorder)) {
        callback(&mut self.recorder);
        for record in self.recorder.journal.records.borrow_mut().drain(..) {
            self.comparator.push(&record);
        }
    }

    /// Compares the footer [`TraceRecorder::finish`] would append, then
    /// returns the verdict.
    fn finish(mut self, result: &CampaignResult) -> ReplayReport {
        let end = self.recorder.close(result);
        self.forward(|recorder| recorder.journal.push(end));
        self.comparator.finish()
    }
}

impl TraceSink for ReplayComparator<'_> {
    fn packet_sent(&mut self) {
        self.forward(TraceRecorder::packet_sent);
    }

    fn plan_executed(&mut self) {
        self.forward(TraceRecorder::plan_executed);
    }

    fn outage_observed(&mut self) {
        self.forward(TraceRecorder::outage_observed);
    }

    fn finding(&mut self, finding: &VulnFinding) {
        self.forward(|recorder| recorder.finding(finding));
    }

    fn retransmission(&mut self) {
        self.forward(TraceRecorder::retransmission);
    }

    fn ack_timeout(&mut self) {
        self.forward(TraceRecorder::ack_timeout);
    }

    fn corpus_retained(&mut self, new_edges: u64, corpus_size: usize) {
        self.forward(|recorder| recorder.corpus_retained(new_edges, corpus_size));
    }

    fn attack_frame(&mut self, index: u64) {
        self.forward(|recorder| recorder.attack_frame(index));
    }
}

/// Diffs two event streams, reporting the first differing index. This is
/// [`replay`]'s comparator fed from `replayed`'s events, so both report
/// alike.
pub fn diff_traces(recorded: &Trace, replayed: &Trace) -> ReplayReport {
    let mut comparator = Comparator::new(recorded);
    for record in &replayed.events {
        comparator.push(record);
    }
    comparator.finish()
}

/// Re-executes the trial described by `recorded`'s header and compares
/// each journal record against the recorded one as the re-run emits it.
/// The re-run's journal is never kept whole: replay holds the recorded
/// trace, the re-executed home, and the records between two fuzzer
/// callbacks. The report equals [`diff_traces`] of `recorded` against a
/// fresh recording.
///
/// # Errors
///
/// [`TraceError::UnknownMeta`] when the header names an unknown device,
/// config, or profile; [`TraceError::Replay`] when the re-executed
/// pipeline fails outright.
pub fn replay(recorded: &Trace) -> Result<ReplayReport, TraceError> {
    let model = recorded.meta.model()?;
    let config = recorded.meta.fuzz_config()?;
    let mut testbed = Testbed::new(model, config.seed);
    let (sink, report) = journaled(&mut testbed, model.idx(), config, |recorder| {
        ReplayComparator { recorder, comparator: Comparator::new(recorded) }
    })
    .map_err(TraceError::Replay)?;
    Ok(sink.finish(&report.campaign))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_meta() -> TraceMeta {
        TraceMeta {
            device: "D1".to_string(),
            seed: 5,
            config: "full".to_string(),
            impairment: ImpairmentProfile::Lossy,
            budget: Duration::from_secs(60),
            scenario: Scenario::None,
        }
    }

    #[test]
    fn header_roundtrips_through_serialization() {
        let meta = short_meta();
        let parsed = TraceMeta::from_header_line(&meta.header_line()).unwrap();
        assert_eq!(parsed, meta);
    }

    #[test]
    fn scenario_header_field_is_conditional() {
        // No scenario → no field: pre-scenario golden traces keep their
        // exact header bytes.
        let plain = short_meta();
        assert!(!plain.header_line().contains("scenario"));
        // With a scenario the field round-trips.
        let meta = TraceMeta { scenario: Scenario::S0NoMore, ..short_meta() };
        let line = meta.header_line();
        assert!(line.contains("\"scenario\":\"s0-no-more\""));
        let parsed = TraceMeta::from_header_line(&line).unwrap();
        assert_eq!(parsed, meta);
        assert_eq!(parsed.fuzz_config().unwrap().scenario, Scenario::S0NoMore);
        // An unknown scenario name is rejected, not silently dropped.
        let bad = line.replace("s0-no-more", "s9-no-more");
        assert!(matches!(TraceMeta::from_header_line(&bad), Err(TraceError::UnknownMeta(_))));
    }

    #[test]
    fn header_version_gate() {
        let line = short_meta().header_line().replace("\"zcover_trace\":1", "\"zcover_trace\":9");
        assert_eq!(TraceMeta::from_header_line(&line), Err(TraceError::UnsupportedVersion(9)));
        assert!(matches!(
            TraceMeta::from_header_line("{\"not\":\"a trace\"}"),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn jsonl_roundtrip_preserves_events() {
        let trace = Trace {
            meta: short_meta(),
            events: vec![
                Record::Fuzz { at_us: 0, ev: "packet".to_string() },
                Record::Fuzz { at_us: 0, ev: "plan".to_string() },
                Record::Raw("{\"t\":\"future\",\"x\":1}".to_string()),
            ],
        };
        let back = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_and_jsonl_serializations_are_interchangeable() {
        let trace = Trace {
            meta: TraceMeta { scenario: Scenario::S0NoMore, ..short_meta() },
            events: vec![
                Record::Sched {
                    at_us: 4800,
                    seq: 0,
                    actor: -1,
                    kind: SchedKind::Frame { n: 2, hash: 0xDEAD_BEEF },
                },
                Record::Fuzz { at_us: 5000, ev: "packet".to_string() },
                Record::End { at_us: 9000, packets: 1, findings: 0, sched_events: 1 },
            ],
        };
        let bytes = trace.to_zct_bytes();
        assert!(trace_format::is_zct(&bytes));
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_jsonl(), trace.to_jsonl());
        // Auto-detection picks JSONL for the textual serialization.
        let text = trace.to_jsonl();
        assert_eq!(Trace::from_bytes(text.as_bytes()).unwrap(), trace);
    }

    #[test]
    fn describe_header_survives_a_damaged_body() {
        let trace = Trace {
            meta: short_meta(),
            events: vec![Record::Fuzz { at_us: 10, ev: "packet".to_string() }],
        };
        let mut bytes = trace.to_zct_bytes();
        // Truncate mid-body: parsing fails, but the header still names
        // the campaign.
        bytes.truncate(bytes.len() - 6);
        assert!(Trace::from_bytes(&bytes).is_err());
        let summary = describe_header(&bytes).expect("header survives truncation");
        assert!(summary.contains("device D1"), "{summary}");
        assert!(summary.contains("seed 5"), "{summary}");
        let jsonl = trace.to_jsonl();
        assert_eq!(describe_header(jsonl.as_bytes()).as_deref(), Some(summary.as_str()));
    }

    #[test]
    fn event_locus_names_lines_and_blocks() {
        let trace = Trace {
            meta: short_meta(),
            events: (0..700).map(|i| Record::Fuzz { at_us: i, ev: "packet".to_string() }).collect(),
        };
        assert_eq!(event_locus(trace.to_jsonl().as_bytes(), 0), "line 2");
        assert_eq!(event_locus(trace.to_jsonl().as_bytes(), 41), "line 43");
        // Default block size is 512: event 600 lives in block 1.
        let locus = event_locus(&trace.to_zct_bytes(), 600);
        assert!(locus.contains("block 1"), "{locus}");
        assert!(locus.contains("byte offset"), "{locus}");
    }

    #[test]
    fn recording_does_not_perturb_the_campaign() {
        // The same trial with and without a recorder attached must produce
        // identical campaign results — the recorder is a pure observer.
        let model = DeviceModel::D1;
        let config =
            FuzzConfig::full(Duration::from_secs(120), 9).with_impairment(ImpairmentProfile::Lossy);
        let recorded = record_campaign(model, "full", config.clone()).unwrap();
        let mut tb = Testbed::new(model, 9);
        let mut zc = ZCover::attach(&tb, 70.0);
        let bare = zc.run_campaign(&mut tb, config).unwrap();
        assert_eq!(recorded.report.campaign, bare.campaign);
    }

    #[test]
    fn recording_twice_is_bit_identical_and_replays_clean() {
        let config = FuzzConfig::full(Duration::from_secs(90), 3);
        let a = record_campaign(DeviceModel::D1, "full", config.clone()).unwrap();
        let b = record_campaign(DeviceModel::D1, "full", config).unwrap();
        assert_eq!(a.trace.to_jsonl(), b.trace.to_jsonl());
        assert_eq!(a.trace.to_zct_bytes(), b.trace.to_zct_bytes());
        assert!(!a.trace.events.is_empty());
        let report = replay(&a.trace).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.render().contains("zero divergence"));
    }

    #[test]
    fn diff_pinpoints_first_divergent_event() {
        let meta = short_meta();
        let mk = |ats: &[(u64, &str)]| Trace {
            meta: meta.clone(),
            events: ats
                .iter()
                .map(|&(at_us, ev)| Record::Fuzz { at_us, ev: ev.to_string() })
                .collect(),
        };
        let recorded = mk(&[(10, "packet"), (20, "packet"), (30, "plan")]);
        let replayed = mk(&[(10, "packet"), (20, "packet"), (31, "plan")]);
        let report = diff_traces(&recorded, &replayed);
        assert!(report.render().contains("DIVERGENCE at event 2"));
        let d = report.divergence.expect("must diverge");
        assert_eq!(d.index, 2);
        assert_eq!(d.at_us, Some(30));
        assert_eq!(d.context.len(), 2);
        assert_eq!(d.expected.as_deref(), Some("{\"t\":\"fuzz\",\"at_us\":30,\"ev\":\"plan\"}"));
        // Length mismatch: replay ended early.
        let short = mk(&[(10, "packet")]);
        let d = diff_traces(&recorded, &short).divergence.unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.actual, None);
    }
}
