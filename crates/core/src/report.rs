//! Campaign report rendering: turns a [`ZCoverReport`] into the
//! human-readable assessment document an operator files after a test
//! engagement, and campaign/trial results into machine-readable JSON for
//! `zcover --format json`.

use std::fmt::Write as _;

use crate::buglog::VulnFinding;
use crate::fuzzer::{CampaignCounters, CampaignResult};
use crate::sweep::{ShardSummary, SweepSummary};
use crate::trace::TraceStats;
use crate::trials::TrialSummary;
use crate::ZCoverReport;
use zwave_radio::{MediumStats, SimInstant};

/// Renders a complete markdown assessment report.
pub fn to_markdown(report: &ZCoverReport, target_label: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# ZCover assessment — {target_label}\n");

    let _ = writeln!(out, "## Phase 1 — known properties fingerprinting\n");
    let _ = writeln!(out, "* home id: `{}`", report.scan.home_id);
    let _ = writeln!(out, "* controller node: `{}`", report.scan.controller);
    let slaves: Vec<String> = report.scan.slaves.iter().map(|n| n.to_string()).collect();
    let _ = writeln!(out, "* slave nodes: {}", slaves.join(", "));
    let _ = writeln!(out, "* NIF-listed command classes: {}", report.active.listed.len());
    let _ = writeln!(
        out,
        "* observed traffic: {} frames captured, {:.0} % of application traffic encrypted\n",
        report.scan.frames_captured,
        report.scan.traffic.encrypted_fraction() * 100.0
    );

    let _ = writeln!(out, "## Phase 2 — unknown properties discovery\n");
    let _ = writeln!(
        out,
        "* specification-inferred unlisted classes: {}",
        report.discovery.unlisted_from_spec.len()
    );
    let proprietary: Vec<String> =
        report.discovery.proprietary.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "* proprietary classes (validation testing): {}", proprietary.join(", "));
    let _ = writeln!(
        out,
        "* total prioritized fuzzing targets: {}\n",
        report.discovery.prioritized_targets().len()
    );

    let _ = writeln!(out, "## Phase 3 — position-sensitive fuzzing\n");
    let _ = writeln!(out, "* packets injected: {}", report.campaign.packets_sent);
    let _ = writeln!(out, "* virtual duration: {:.0} s", report.campaign.duration().as_secs_f64());
    let _ = writeln!(out, "* CMDCL coverage: {}", report.campaign.cmdcl_coverage.len());
    let _ = writeln!(out, "* unique vulnerabilities: {}\n", report.campaign.unique_vulns());

    if report.campaign.findings.is_empty() {
        let _ = writeln!(out, "No vulnerabilities were found within the budget.");
    } else {
        let _ = writeln!(
            out,
            "| bug | CMDCL | CMD | effect | duration | root cause | found at | trigger |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
        for f in &report.campaign.findings {
            let trigger: Vec<String> = f.trigger.iter().map(|b| format!("{b:02X}")).collect();
            let _ = writeln!(
                out,
                "| #{:02} | 0x{:02X} | 0x{:02X} | {} | {} | {} | {:.0} s | `{}` |",
                f.bug_id,
                f.cmdcl,
                f.cmd,
                f.effect,
                f.duration_label(),
                f.root_cause,
                f.found_at.duration_since(report.campaign.started).as_secs_f64(),
                trigger.join(" ")
            );
        }
    }
    out
}

/// Escapes a string for embedding in a JSON value.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn counters_json(c: &CampaignCounters) -> String {
    format!(
        "{{\"packets_sent\":{},\"plans_executed\":{},\"outages_observed\":{},\"findings\":{},\
         \"losses\":{},\"duplicates\":{},\"reorders\":{},\"truncations\":{},\
         \"blackout_drops\":{},\"retransmissions\":{},\"ack_timeouts\":{},\
         \"edges_seen\":{},\"corpus_size\":{},\"retained_inputs\":{},\
         \"attack_frames\":{},\"attack_verdicts\":{},\"sched_peak_pending\":{},\
         \"sched_cancelled\":{}}}",
        c.packets_sent,
        c.plans_executed,
        c.outages_observed,
        c.findings,
        c.losses,
        c.duplicates,
        c.reorders,
        c.truncations,
        c.blackout_drops,
        c.retransmissions,
        c.ack_timeouts,
        c.edges_seen,
        c.corpus_size,
        c.retained_inputs,
        c.attack_frames,
        c.attack_verdicts,
        c.sched_peak_pending,
        c.sched_cancelled
    )
}

fn finding_json(f: &VulnFinding, started: SimInstant) -> String {
    let trigger: Vec<String> = f.trigger.iter().map(|b| format!("{b:02X}")).collect();
    format!(
        "{{\"bug_id\":{},\"cmdcl\":{},\"cmd\":{},\"effect\":\"{}\",\"root_cause\":\"{}\",\
         \"duration\":\"{}\",\"found_at_s\":{:.3},\"found_after_packets\":{},\"trigger\":\"{}\"}}",
        f.bug_id,
        f.cmdcl,
        f.cmd,
        json_escape(&f.effect.to_string()),
        json_escape(&f.root_cause.to_string()),
        json_escape(&f.duration_label()),
        f.found_at.duration_since(started).as_secs_f64(),
        f.found_after_packets,
        trigger.join(" ")
    )
}

/// Renders one campaign result as a single JSON object (`zcover fuzz
/// --format json`). All keys are emitted in a fixed order so the output
/// is byte-stable for a given campaign.
pub fn campaign_to_json(result: &CampaignResult) -> String {
    let findings: Vec<String> =
        result.findings.iter().map(|f| finding_json(f, result.started)).collect();
    format!(
        "{{\"packets_sent\":{},\"virtual_duration_s\":{:.3},\"cmdcl_coverage\":{},\
         \"cmd_coverage\":{},\"unique_vulns\":{},\"mode\":\"{}\",\"scenario\":\"{}\",\
         \"counters\":{},\"findings\":[{}]}}",
        result.packets_sent,
        result.duration().as_secs_f64(),
        result.cmdcl_coverage.len(),
        result.cmd_coverage.len(),
        result.unique_vulns(),
        result.mode,
        result.scenario,
        counters_json(&result.counters),
        findings.join(",")
    )
}

/// Renders a multi-trial summary as JSON (`zcover trials --format json`):
/// one object per trial under `"trials"` plus the merged aggregate under
/// `"merged"`.
pub fn summary_to_json(summary: &TrialSummary) -> String {
    let trials: Vec<String> = summary.per_trial.iter().map(campaign_to_json).collect();
    let union: Vec<String> = summary.union_bug_ids.iter().map(u8::to_string).collect();
    let core: Vec<String> = summary.found_in_all_trials().iter().map(u8::to_string).collect();
    let hits: Vec<String> =
        summary.hit_counts.iter().map(|(bug, hits)| format!("\"{bug}\":{hits}")).collect();
    let times: Vec<String> = summary
        .hit_counts
        .keys()
        .filter_map(|bug| {
            summary.mean_time_to_find(*bug).map(|d| format!("\"{bug}\":{:.3}", d.as_secs_f64()))
        })
        .collect();
    format!(
        "{{\"trials\":[{}],\"merged\":{{\"union_bug_ids\":[{}],\"stable_core\":[{}],\
         \"mean_packets\":{:.1},\"mean_unique_vulns\":{:.2},\"hit_counts\":{{{}}},\
         \"mean_time_to_find_s\":{{{}}},\"counters\":{}}}}}",
        trials.join(","),
        union.join(","),
        core.join(","),
        summary.mean_packets,
        summary.mean_unique_vulns(),
        hits.join(","),
        times.join(","),
        counters_json(&summary.counters)
    )
}

fn channel_json(s: &MediumStats) -> String {
    format!(
        "{{\"frames_sent\":{},\"deliveries\":{},\"losses\":{},\"corruptions\":{},\
         \"duplicates\":{},\"reorders\":{},\"truncations\":{},\"blackout_drops\":{},\
         \"rx_overflows\":{}}}",
        s.frames_sent,
        s.deliveries,
        s.losses,
        s.corruptions,
        s.duplicates,
        s.reorders,
        s.truncations,
        s.blackout_drops,
        s.rx_overflows
    )
}

fn shard_json(shard: &ShardSummary) -> String {
    let bugs: Vec<String> = shard.bug_ids().iter().map(u8::to_string).collect();
    format!(
        "{{\"shard\":{},\"first_home\":{},\"homes\":{},\"bug_ids\":[{}],\
         \"coverage_edges\":{},\"counters\":{},\"channel\":{}}}",
        shard.shard,
        shard.first_home,
        shard.homes,
        bugs.join(","),
        shard.coverage.edges(),
        counters_json(&shard.counters),
        channel_json(&shard.channel)
    )
}

/// Renders a sweep summary as JSON (`zcover sweep --format json`): the
/// city-wide aggregate plus one object per shard. Every key is emitted in
/// a fixed order and nothing here depends on wall-clock time or worker
/// count, so the output is byte-stable for a given sweep configuration
/// (throughput goes to stderr, not into this document).
pub fn sweep_to_json(summary: &SweepSummary) -> String {
    let union: Vec<String> = summary.union_bug_ids().iter().map(u8::to_string).collect();
    let hits: Vec<String> =
        summary.hit_counts.iter().map(|(bug, homes)| format!("\"{bug}\":{homes}")).collect();
    let shards: Vec<String> = summary.shards.iter().map(shard_json).collect();
    format!(
        "{{\"homes\":{},\"topology\":\"{}\",\"shard_size\":{},\"mode\":\"{}\",\
         \"scenario\":\"{}\",\"impairment\":\"{}\",\"union_bug_ids\":[{}],\
         \"hit_counts\":{{{}}},\"coverage_edges\":{},\"counters\":{},\"channel\":{},\
         \"shards\":[{}]}}",
        summary.homes,
        summary.topology,
        summary.shard_size,
        summary.mode,
        summary.scenario,
        summary.impairment,
        union.join(","),
        hits.join(","),
        summary.coverage_edges,
        counters_json(&summary.counters),
        channel_json(&summary.channel),
        shards.join(",")
    )
}

/// Renders one trace's streaming analytics as JSON (`zcover trace stats
/// --format json`): event-shape counts, the outage decile histogram,
/// per-CMDCL oracle latencies, and the corpus edges-over-time trajectory.
pub fn trace_stats_to_json(stats: &TraceStats, label: &str) -> String {
    let fuzz: Vec<String> =
        stats.fuzz.iter().map(|(ev, count)| format!("\"{ev}\":{count}")).collect();
    let hist: Vec<String> = stats.outage_histogram(10).iter().map(u64::to_string).collect();
    let per_cmdcl: Vec<String> = stats
        .per_cmdcl
        .iter()
        .map(|(cmdcl, c)| {
            let bugs: Vec<String> = c.bugs.iter().map(u64::to_string).collect();
            format!(
                "\"{cmdcl}\":{{\"findings\":{},\"bugs\":[{}],\"first_at_us\":{}}}",
                c.findings,
                bugs.join(","),
                c.first_at_us
            )
        })
        .collect();
    let edges: Vec<String> = stats
        .edges_over_time
        .iter()
        .map(|(at_us, edges, size)| format!("[{at_us},{edges},{size}]"))
        .collect();
    let end = match stats.end {
        None => "null".to_string(),
        Some((at_us, packets, findings, sched_events)) => format!(
            "{{\"at_us\":{at_us},\"packets\":{packets},\"findings\":{findings},\
             \"sched_events\":{sched_events}}}"
        ),
    };
    format!(
        "{{\"trace\":\"{label}\",\"events\":{},\"sched_frames\":{},\"sched_timers\":{},\
         \"timers_scheduled\":{},\"timers_unfired\":{},\
         \"sched_blackouts\":{},\"attack_frames\":{},\"raw_events\":{},\"span_us\":{},\
         \"fuzz\":{{{}}},\"outage_histogram\":[{}],\"per_cmdcl\":{{{}}},\
         \"edges_over_time\":[{}],\"end\":{}}}",
        stats.events,
        stats.sched_frames,
        stats.sched_timers,
        stats.timers_scheduled,
        stats.timers_unfired(),
        stats.sched_blackouts,
        stats.attack_frames,
        stats.raw_events,
        stats.span_us,
        fuzz.join(","),
        hist.join(","),
        per_cmdcl.join(","),
        edges.join(","),
        end
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuzzConfig, ZCover};
    use std::time::Duration;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    /// A stack-based structural check that `s` is one balanced JSON value
    /// (braces/brackets match, quotes close) — enough to catch escaping
    /// and comma mistakes without a full parser.
    fn assert_balanced_json(s: &str) {
        let mut stack = Vec::new();
        let mut in_string = false;
        let mut escaped = false;
        for ch in s.chars() {
            if in_string {
                match (escaped, ch) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_string = false,
                    _ => {}
                }
                continue;
            }
            match ch {
                '"' => in_string = true,
                '{' | '[' => stack.push(ch),
                '}' => assert_eq!(stack.pop(), Some('{'), "unbalanced brace in {s}"),
                ']' => assert_eq!(stack.pop(), Some('['), "unbalanced bracket in {s}"),
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string in {s}");
        assert!(stack.is_empty(), "unclosed scopes in {s}");
    }

    #[test]
    fn json_escape_handles_quotes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn campaign_json_is_balanced_and_lists_every_finding() {
        let mut tb = Testbed::new(DeviceModel::D1, 3);
        let mut zc = ZCover::attach(&tb, 70.0);
        let report =
            zc.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(900), 3)).unwrap();
        let json = campaign_to_json(&report.campaign);
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"packets_sent\":"));
        assert_eq!(
            json.matches("\"bug_id\":").count(),
            report.campaign.unique_vulns(),
            "one finding object per unique vulnerability"
        );
        assert!(json.contains("\"counters\":{\"packets_sent\":"));
    }

    #[test]
    fn summary_json_nests_per_trial_objects_and_merged_aggregate() {
        let config = FuzzConfig::full(Duration::from_secs(900), 0);
        let summary = crate::CampaignExecutor::new(1)
            .run(2, 7, |seed| Testbed::new(DeviceModel::D1, seed), &config)
            .unwrap();
        let json = summary_to_json(&summary);
        assert_balanced_json(&json);
        assert_eq!(json.matches("\"virtual_duration_s\":").count(), 2, "one object per trial");
        assert!(json.contains("\"merged\":{\"union_bug_ids\":["));
        assert!(json.contains("\"stable_core\":["));
        assert!(json.contains("\"mean_time_to_find_s\":{"));
    }

    #[test]
    fn sweep_json_is_balanced_and_lists_every_shard() {
        let config = crate::sweep::SweepConfig::new(
            3,
            zwave_controller::Topology::Line,
            FuzzConfig::full(Duration::from_secs(45), 5),
        )
        .with_shard_size(2);
        let (summary, _) =
            crate::sweep::run_sweep(&crate::executor::CampaignExecutor::new(1), &config).unwrap();
        let json = sweep_to_json(&summary);
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"homes\":3,\"topology\":\"line\","));
        assert_eq!(json.matches("\"shard\":").count(), 2, "one object per shard");
        assert!(json.contains("\"channel\":{\"frames_sent\":"));
        // The routed-path bug is visible in the hit counts on a line mesh.
        assert!(json.contains("\"19\":3"));
    }

    #[test]
    fn report_renders_every_section_and_finding() {
        let mut tb = Testbed::new(DeviceModel::D1, 3);
        let mut zc = ZCover::attach(&tb, 70.0);
        let report =
            zc.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(900), 3)).unwrap();
        let md = to_markdown(&report, "ZooZ ZST10 (D1)");
        assert!(md.contains("# ZCover assessment — ZooZ ZST10 (D1)"));
        assert!(md.contains("`E7DE3F3D`"));
        assert!(md.contains("Phase 2"));
        assert!(md.contains("0x01, 0x02"));
        assert!(md.contains("| #0"));
        // One table row per finding.
        let rows = md.lines().filter(|l| l.starts_with("| #")).count();
        assert_eq!(rows, report.campaign.unique_vulns());
    }

    #[test]
    fn empty_campaign_renders_cleanly() {
        let mut tb = Testbed::new(DeviceModel::D1, 4);
        tb.controller_mut().apply_patches(&(1..=15).collect::<Vec<u8>>());
        let mut zc = ZCover::attach(&tb, 70.0);
        let report =
            zc.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(600), 4)).unwrap();
        let md = to_markdown(&report, "patched D1");
        assert!(md.contains("No vulnerabilities were found"));
    }
}
