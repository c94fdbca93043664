//! At-scale trace analytics: `zcover trace stats`.
//!
//! Everything here is computed in **one streaming pass** over the record
//! stream — a binary trace is decoded block by block and each record is
//! fed to `TraceStats::observe` exactly once, so a multi-gigabyte
//! city-sweep trace analyses in O(blocks) memory. The metrics answer the
//! questions the paper's evaluation asks of a campaign:
//!
//! - **Per-CMDCL finding latency**: for each command class, how many
//!   verdicts the oracle produced, which bug ids, and the virtual time to
//!   the first one (Table III's time-to-find, per class).
//! - **Outage histogram**: when in the campaign the controller was
//!   observed unavailable (Section IV's availability analysis), as counts
//!   over ten equal slices of the virtual span.
//! - **Edges over time**: the coverage-mode corpus trajectory — each
//!   retention's cumulative new-edge total and corpus size.
//! - **Cross-trial divergence**: for several traces of the *same*
//!   campaign, where the journals first depart (they should not — see
//!   [`cross_trial_summary`]).

use std::collections::{BTreeMap, BTreeSet};

use trace_format::{Record, SchedKind};

use super::{diff_traces, Trace};

/// Oracle aggregate for one command class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CmdclStats {
    /// Verdicts recorded against this class.
    pub findings: u64,
    /// Distinct Table III bug ids among them.
    pub bugs: BTreeSet<u64>,
    /// Virtual time (µs) of the first verdict — the class's finding
    /// latency.
    pub first_at_us: u64,
}

/// Single-pass aggregate of one trace's event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total records observed.
    pub events: u64,
    /// Scheduler frame-arrival dequeues.
    pub sched_frames: u64,
    /// Scheduler timer dequeues.
    pub sched_timers: u64,
    /// Timer ids the kernel issued, inferred from the largest journaled
    /// id (+1). Ids are handed out sequentially at *schedule* time but
    /// only dequeues are journaled, so this is a lower bound on timers
    /// scheduled; together with [`TraceStats::sched_timers`] it exposes
    /// the kernel's live-vs-cancelled split from the trace alone.
    pub timers_scheduled: u64,
    /// Scheduler blackout-edge dequeues (starts + ends).
    pub sched_blackouts: u64,
    /// Fuzzer lifecycle events by name (`packet`, `plan`, `outage`, ...).
    pub fuzz: BTreeMap<String, u64>,
    /// Oracle aggregates keyed by CMDCL.
    pub per_cmdcl: BTreeMap<u64, CmdclStats>,
    /// Virtual timestamps (µs) of every observed outage.
    pub outage_at_us: Vec<u64>,
    /// Corpus trajectory: `(at_us, cumulative new edges, corpus size)`
    /// per retention, in stream order.
    pub edges_over_time: Vec<(u64, u64, u64)>,
    /// Scripted adversary frames.
    pub attack_frames: u64,
    /// Lines preserved as [`Record::Raw`] (unknown shapes).
    pub raw_events: u64,
    /// The closing summary, when the trace carries one:
    /// `(at_us, packets, findings, sched_events)`.
    pub end: Option<(u64, u64, u64, u64)>,
    /// Largest virtual timestamp seen (µs) — the span the histogram
    /// buckets divide.
    pub span_us: u64,
}

impl TraceStats {
    /// Feeds one record into the aggregate.
    pub(crate) fn observe(&mut self, record: &Record) {
        self.events += 1;
        if let Some(at_us) = record.at_us() {
            self.span_us = self.span_us.max(at_us);
        }
        match record {
            Record::Sched { kind, .. } => match kind {
                SchedKind::Frame { .. } => self.sched_frames += 1,
                SchedKind::Timer { id } => {
                    self.sched_timers += 1;
                    self.timers_scheduled = self.timers_scheduled.max(id + 1);
                }
                SchedKind::BlackoutStart { .. } | SchedKind::BlackoutEnd { .. } => {
                    self.sched_blackouts += 1
                }
            },
            Record::Fuzz { at_us, ev } => {
                *self.fuzz.entry(ev.clone()).or_default() += 1;
                if ev == "outage" {
                    self.outage_at_us.push(*at_us);
                }
            }
            Record::Oracle { at_us, bug, cmdcl, .. } => {
                let entry = self.per_cmdcl.entry(*cmdcl).or_default();
                if entry.findings == 0 {
                    entry.first_at_us = *at_us;
                }
                entry.findings += 1;
                entry.bugs.insert(*bug);
            }
            Record::Corpus { at_us, edges, size } => {
                let cumulative =
                    self.edges_over_time.last().map(|&(_, e, _)| e).unwrap_or(0) + edges;
                self.edges_over_time.push((*at_us, cumulative, *size));
            }
            Record::Attack { .. } => self.attack_frames += 1,
            Record::End { at_us, packets, findings, sched_events } => {
                self.end = Some((*at_us, *packets, *findings, *sched_events));
            }
            Record::Raw(_) => self.raw_events += 1,
        }
    }

    /// Aggregates a whole record stream.
    pub fn scan<'a>(records: impl IntoIterator<Item = &'a Record>) -> TraceStats {
        let mut stats = TraceStats::default();
        for record in records {
            stats.observe(record);
        }
        stats
    }

    /// Timers the id sequence proves were scheduled but that never fired
    /// in the journal: cancelled or still pending at end.
    pub(crate) fn timers_unfired(&self) -> u64 {
        self.timers_scheduled.saturating_sub(self.sched_timers)
    }

    /// Outage counts over `buckets` equal slices of the virtual span.
    pub(crate) fn outage_histogram(&self, buckets: usize) -> Vec<u64> {
        let buckets = buckets.max(1);
        let mut hist = vec![0u64; buckets];
        let span = self.span_us.max(1);
        for &at in &self.outage_at_us {
            let b = ((at as u128 * buckets as u128) / (span as u128 + 1)) as usize;
            hist[b.min(buckets - 1)] += 1;
        }
        hist
    }

    /// Renders the aggregate as the `zcover trace stats` text report.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!("trace stats: {label}\n");
        out.push_str(&format!(
            "  events: {} ({} frames, {} timers, {} blackout edges, {} attack, {} raw)\n",
            self.events,
            self.sched_frames,
            self.sched_timers,
            self.sched_blackouts,
            self.attack_frames,
            self.raw_events
        ));
        out.push_str(&format!(
            "  timers: {} fired of >= {} issued ({} cancelled or pending)\n",
            self.sched_timers,
            self.timers_scheduled,
            self.timers_unfired()
        ));
        out.push_str(&format!("  virtual span: {:.3} s\n", self.span_us as f64 / 1e6));
        if let Some((at_us, packets, findings, sched_events)) = self.end {
            out.push_str(&format!(
                "  campaign end: {:.3} s, {packets} packets, {findings} unique findings, \
                 {sched_events} scheduler events\n",
                at_us as f64 / 1e6
            ));
        }
        if !self.fuzz.is_empty() {
            out.push_str("  fuzz events:");
            for (ev, count) in &self.fuzz {
                out.push_str(&format!(" {ev} {count}"));
            }
            out.push('\n');
        }
        let hist = self.outage_histogram(10);
        out.push_str(&format!(
            "  outages: {} total; per-decile histogram {:?}\n",
            self.outage_at_us.len(),
            hist
        ));
        if self.per_cmdcl.is_empty() {
            out.push_str("  findings: none\n");
        } else {
            out.push_str("  per-CMDCL findings (class: verdicts, bugs, first at):\n");
            for (cmdcl, stats) in &self.per_cmdcl {
                let bugs: Vec<String> = stats.bugs.iter().map(|b| b.to_string()).collect();
                out.push_str(&format!(
                    "    0x{cmdcl:02x}: {} verdict(s), bugs [{}], first at {:.3} s\n",
                    stats.findings,
                    bugs.join(","),
                    stats.first_at_us as f64 / 1e6
                ));
            }
        }
        match self.edges_over_time.last() {
            None => out.push_str("  coverage: no corpus events (not a coverage-mode trace)\n"),
            Some(&(at_us, edges, size)) => {
                out.push_str(&format!(
                    "  coverage: {} retentions, {edges} cumulative new edges, final corpus \
                     size {size} (last retain at {:.3} s)\n",
                    self.edges_over_time.len(),
                    at_us as f64 / 1e6
                ));
            }
        }
        out
    }
}

/// Compares several traces of the same campaign and summarizes where each
/// departs from the first — the cross-trial divergence report of `zcover
/// trace stats a.zct b.zct ...`. Traces of *different* campaigns (headers
/// differ) are called out rather than diffed event by event.
pub fn cross_trial_summary(traces: &[(String, Trace)]) -> String {
    let mut out = String::new();
    let Some((base_name, base)) = traces.first() else { return out };
    out.push_str(&format!(
        "cross-trial divergence (baseline {base_name}, {} events):\n",
        base.events.len()
    ));
    for (name, trace) in &traces[1..] {
        if trace.meta != base.meta {
            out.push_str(&format!(
                "  {name}: different campaign header ({})\n",
                trace.meta.describe()
            ));
            continue;
        }
        let report = diff_traces(base, trace);
        match report.divergence {
            None => out.push_str(&format!("  {name}: identical ({} events)\n", trace.events.len())),
            Some(d) => {
                let when = d
                    .at_us
                    .map(|us| format!("{:.6} s", us as f64 / 1e6))
                    .unwrap_or_else(|| "?".to_string());
                out.push_str(&format!(
                    "  {name}: first divergence at event {} (virtual t = {when}), \
                     {} vs {} events\n",
                    d.index, report.recorded_events, report.replayed_events
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use crate::trace::TraceMeta;
    use std::time::Duration;
    use zwave_radio::ImpairmentProfile;

    fn sample() -> Vec<Record> {
        vec![
            Record::Sched {
                at_us: 100,
                seq: 0,
                actor: 0,
                kind: SchedKind::Frame { n: 1, hash: 7 },
            },
            Record::Sched { at_us: 200, seq: 1, actor: -1, kind: SchedKind::Timer { id: 3 } },
            Record::Sched {
                at_us: 300,
                seq: 2,
                actor: -1,
                kind: SchedKind::BlackoutStart { generation: 1, stage: 0 },
            },
            Record::Fuzz { at_us: 400, ev: "packet".to_string() },
            Record::Fuzz { at_us: 450, ev: "outage".to_string() },
            Record::Fuzz { at_us: 9_000, ev: "outage".to_string() },
            Record::Oracle { at_us: 500, bug: 3, cmdcl: 0x25, cmd: 1 },
            Record::Oracle { at_us: 700, bug: 5, cmdcl: 0x25, cmd: 2 },
            Record::Oracle { at_us: 900, bug: 9, cmdcl: 0x71, cmd: 5 },
            Record::Corpus { at_us: 600, edges: 4, size: 1 },
            Record::Corpus { at_us: 800, edges: 2, size: 2 },
            Record::Attack { at_us: 950, index: 0 },
            Record::Raw("{\"t\":\"novel\"}".to_string()),
            Record::End { at_us: 10_000, packets: 2, findings: 3, sched_events: 3 },
        ]
    }

    #[test]
    fn scan_aggregates_every_dimension() {
        let stats = TraceStats::scan(&sample());
        assert_eq!(stats.events, 14);
        assert_eq!(stats.sched_frames, 1);
        assert_eq!(stats.sched_timers, 1);
        // Timer id 3 fired, so ids 0..=3 were issued and three of them
        // never surfaced: cancelled or pending at end.
        assert_eq!(stats.timers_scheduled, 4);
        assert_eq!(stats.timers_unfired(), 3);
        assert_eq!(stats.sched_blackouts, 1);
        assert_eq!(stats.fuzz["packet"], 1);
        assert_eq!(stats.fuzz["outage"], 2);
        assert_eq!(stats.attack_frames, 1);
        assert_eq!(stats.raw_events, 1);
        assert_eq!(stats.span_us, 10_000);
        assert_eq!(stats.end, Some((10_000, 2, 3, 3)));
        // Per-CMDCL: two verdicts on 0x25 (first at 500), one on 0x71.
        assert_eq!(stats.per_cmdcl[&0x25].findings, 2);
        assert_eq!(stats.per_cmdcl[&0x25].first_at_us, 500);
        assert_eq!(stats.per_cmdcl[&0x25].bugs, BTreeSet::from([3, 5]));
        assert_eq!(stats.per_cmdcl[&0x71].findings, 1);
        // Edges accumulate across retentions.
        assert_eq!(stats.edges_over_time, vec![(600, 4, 1), (800, 6, 2)]);
        // Outages at 450 and 9000 µs of a 10 ms span: deciles 0 and 8.
        let hist = stats.outage_histogram(10);
        assert_eq!(hist.iter().sum::<u64>(), 2);
        assert_eq!(hist[0], 1);
        assert_eq!(hist[8], 1);
        let text = stats.render("sample");
        assert!(text.contains("0x25: 2 verdict(s), bugs [3,5]"), "{text}");
        assert!(text.contains("outages: 2 total"), "{text}");
        assert!(text.contains("6 cumulative new edges"), "{text}");
    }

    #[test]
    fn histogram_handles_empty_and_degenerate_spans() {
        let stats = TraceStats::default();
        assert_eq!(stats.outage_histogram(10), vec![0; 10]);
        let mut stats = TraceStats::default();
        stats.observe(&Record::Fuzz { at_us: 0, ev: "outage".to_string() });
        // Span 0: the single outage lands in bucket 0, no division by 0.
        assert_eq!(stats.outage_histogram(4)[0], 1);
    }

    #[test]
    fn cross_trial_summary_flags_divergence_and_identity() {
        let meta = TraceMeta {
            device: "D1".to_string(),
            seed: 5,
            config: "full".to_string(),
            impairment: ImpairmentProfile::Clean,
            budget: Duration::from_secs(60),
            scenario: Scenario::None,
        };
        let base = Trace { meta: meta.clone(), events: sample() };
        let twin = base.clone();
        let mut forked = base.clone();
        forked.events[4] = Record::Fuzz { at_us: 451, ev: "outage".to_string() };
        let mut foreign = base.clone();
        foreign.meta.seed = 6;
        let text = cross_trial_summary(&[
            ("a.zct".to_string(), base),
            ("b.zct".to_string(), twin),
            ("c.zct".to_string(), forked),
            ("d.zct".to_string(), foreign),
        ]);
        assert!(text.contains("b.zct: identical"), "{text}");
        assert!(text.contains("c.zct: first divergence at event 4"), "{text}");
        assert!(text.contains("d.zct: different campaign header"), "{text}");
    }
}
