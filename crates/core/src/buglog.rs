//! The bug log: unique vulnerability findings with their triggering
//! packets, serialisable to the plain-text log file of Figure 3.

use std::collections::BTreeSet;
use std::time::Duration;

use zwave_controller::{EffectKind, FaultRecord, RootCause};
use zwave_radio::SimInstant;

/// One verified unique vulnerability finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VulnFinding {
    /// Table III bug id (1-15; 100+ for MAC quirks).
    pub bug_id: u8,
    /// CMDCL of the triggering payload.
    pub cmdcl: u8,
    /// CMD of the triggering payload.
    pub cmd: u8,
    /// Observable effect class.
    pub effect: EffectKind,
    /// Root cause per Table III.
    pub root_cause: RootCause,
    /// Outage duration; `None` renders as "Infinite".
    pub outage: Option<Duration>,
    /// Virtual time of first discovery.
    pub found_at: SimInstant,
    /// Packets injected before first discovery.
    pub found_after_packets: u64,
    /// The bug-inducing application payload.
    pub trigger: Vec<u8>,
}

impl VulnFinding {
    /// Renders the Duration column of Table III.
    pub fn duration_label(&self) -> String {
        match self.outage {
            None => "Infinite".to_string(),
            Some(d) if d.as_secs() >= 60 && d.as_secs() % 60 == 0 => {
                format!("{} min", d.as_secs() / 60)
            }
            Some(d) => format!("{} sec", d.as_secs()),
        }
    }
}

/// A deduplicating log of unique findings.
#[derive(Debug, Clone, Default)]
pub struct BugLog {
    findings: Vec<VulnFinding>,
    seen: BTreeSet<u8>,
}

impl BugLog {
    /// An empty log.
    pub fn new() -> Self {
        BugLog::default()
    }

    /// Records a fault if its bug id is new; returns `true` when the
    /// finding is unique.
    pub fn record(&mut self, fault: &FaultRecord, packets: u64) -> bool {
        if !self.seen.insert(fault.bug_id) {
            return false;
        }
        self.findings.push(VulnFinding {
            bug_id: fault.bug_id,
            cmdcl: fault.cmdcl,
            cmd: fault.cmd,
            effect: fault.effect,
            root_cause: fault.root_cause,
            outage: fault.outage,
            found_at: fault.at,
            found_after_packets: packets,
            trigger: fault.trigger.clone(),
        });
        true
    }

    /// Absorbs an already-verified finding from another log (e.g. a
    /// parallel trial's); returns `true` when its bug id is new here. The
    /// first-absorbed occurrence is kept, so merging trial logs in trial
    /// order is deterministic.
    pub fn absorb(&mut self, finding: &VulnFinding) -> bool {
        if !self.seen.insert(finding.bug_id) {
            return false;
        }
        self.findings.push(finding.clone());
        true
    }

    /// All unique findings, in discovery order.
    pub(crate) fn findings(&self) -> &[VulnFinding] {
        &self.findings
    }

    /// Number of unique findings.
    pub fn unique_count(&self) -> usize {
        self.findings.len()
    }

    /// Renders the log file of Figure 3: one line per finding.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# bug_id | cmdcl | cmd | duration | root_cause | t_found_s | packets | trigger\n",
        );
        for f in &self.findings {
            let trigger: Vec<String> = f.trigger.iter().map(|b| format!("{b:02X}")).collect();
            out.push_str(&format!(
                "{:02} | 0x{:02X} | 0x{:02X} | {} | {} | {:.1} | {} | {}\n",
                f.bug_id,
                f.cmdcl,
                f.cmd,
                f.duration_label(),
                f.root_cause,
                f.found_at.as_secs_f64(),
                f.found_after_packets,
                trigger.join(" ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(bug_id: u8) -> FaultRecord {
        FaultRecord {
            at: SimInstant::ZERO.plus(Duration::from_secs(12)),
            bug_id,
            cmdcl: 0x01,
            cmd: 0x0D,
            effect: EffectKind::RogueNodeInserted,
            root_cause: RootCause::Specification,
            outage: None,
            trigger: vec![0x01, 0x0D, 0x0A],
        }
    }

    #[test]
    fn record_dedupes_by_bug_id() {
        let mut log = BugLog::new();
        assert!(log.record(&fault(2), 10));
        assert!(!log.record(&fault(2), 20));
        assert!(log.record(&fault(3), 30));
        assert_eq!(log.unique_count(), 2);
        let ids: Vec<u8> = log.findings().iter().map(|f| f.bug_id).collect();
        assert_eq!(ids, vec![2, 3]);
        // The first occurrence is kept.
        assert_eq!(log.findings()[0].found_after_packets, 10);
    }

    #[test]
    fn duration_labels_match_table3_style() {
        let mut f = fault(7);
        f.outage = Some(Duration::from_secs(68));
        let mut log = BugLog::new();
        log.record(&f, 1);
        assert_eq!(log.findings()[0].duration_label(), "68 sec");

        let mut f = fault(14);
        f.bug_id = 14;
        f.outage = Some(Duration::from_secs(240));
        log.record(&f, 2);
        assert_eq!(log.findings()[1].duration_label(), "4 min");

        assert_eq!(
            VulnFinding {
                bug_id: 1,
                cmdcl: 1,
                cmd: 13,
                effect: EffectKind::NodePropertiesTampered,
                root_cause: RootCause::Specification,
                outage: None,
                found_at: SimInstant::ZERO,
                found_after_packets: 0,
                trigger: vec![],
            }
            .duration_label(),
            "Infinite"
        );
    }

    #[test]
    fn text_rendering_contains_all_columns() {
        let mut log = BugLog::new();
        log.record(&fault(2), 42);
        let text = log.to_text();
        assert!(text.contains("02 | 0x01 | 0x0D | Infinite | Specification"));
        assert!(text.contains("01 0D 0A"));
        assert!(text.contains("| 42 |"));
    }
}
