//! Multi-trial campaign aggregation.
//!
//! "Following recommended fuzzing practices, we conducted five 24-hour
//! fuzzing trials for each controller" (Section IV). This module defines
//! the merged [`TrialSummary`] over N independently-seeded campaigns; the
//! scheduling itself — one worker or a pool — lives in
//! [`crate::executor::CampaignExecutor`].

use std::collections::BTreeMap;
use std::time::Duration;

use crate::buglog::{BugLog, VulnFinding};
use crate::fuzzer::{CampaignCounters, CampaignResult};

/// Aggregate of several independent trials on the same device model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSummary {
    /// Each trial's campaign result, in trial order.
    pub per_trial: Vec<CampaignResult>,
    /// Union of unique bug ids across trials, ascending.
    pub union_bug_ids: Vec<u8>,
    /// Deduplicated findings across trials: the first trial (by index) to
    /// find a bug contributes its record, so the merge is independent of
    /// worker scheduling.
    pub unique_findings: Vec<VulnFinding>,
    /// For each bug id, how many of the trials found it.
    pub hit_counts: BTreeMap<u8, usize>,
    /// Summed event counters across all trials.
    pub counters: CampaignCounters,
    /// Mean packets sent per trial.
    pub mean_packets: f64,
}

impl TrialSummary {
    /// Merges per-trial campaign results (already in trial order) into the
    /// summary. This is the single merge path used by both the sequential
    /// and the parallel executor, so the two are identical by
    /// construction.
    pub fn from_trials(per_trial: Vec<CampaignResult>) -> Self {
        let mut hit_counts: BTreeMap<u8, usize> = BTreeMap::new();
        let mut merged_log = BugLog::new();
        let mut counters = CampaignCounters::default();
        for result in &per_trial {
            for finding in &result.findings {
                *hit_counts.entry(finding.bug_id).or_default() += 1;
                merged_log.absorb(finding);
            }
            counters.merge(&result.counters);
        }
        let union_bug_ids: Vec<u8> = hit_counts.keys().copied().collect();
        let mean_packets = per_trial.iter().map(|r| r.packets_sent as f64).sum::<f64>()
            / per_trial.len().max(1) as f64;

        TrialSummary {
            per_trial,
            union_bug_ids,
            unique_findings: merged_log.findings().to_vec(),
            hit_counts,
            counters,
            mean_packets,
        }
    }

    /// Number of trials executed.
    pub fn trials(&self) -> usize {
        self.per_trial.len()
    }

    /// Bugs found by *every* trial (the stable core).
    pub fn found_in_all_trials(&self) -> Vec<u8> {
        let n = self.trials();
        self.hit_counts.iter().filter(|(_, c)| **c == n).map(|(id, _)| *id).collect()
    }

    /// Mean unique vulnerabilities found per trial (the Table VI ablation
    /// metric when averaged over several trials).
    pub fn mean_unique_vulns(&self) -> f64 {
        self.per_trial.iter().map(|r| r.unique_vulns() as f64).sum::<f64>()
            / self.trials().max(1) as f64
    }

    /// Mean virtual time until the bug was first found, across the trials
    /// that found it. `None` if no trial found it.
    pub fn mean_time_to_find(&self, bug_id: u8) -> Option<Duration> {
        let times: Vec<Duration> = self
            .per_trial
            .iter()
            .filter_map(|r| {
                r.findings
                    .iter()
                    .find(|f| f.bug_id == bug_id)
                    .map(|f| f.found_at.duration_since(r.started))
            })
            .collect();
        if times.is_empty() {
            return None;
        }
        Some(times.iter().sum::<Duration>() / times.len() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::CampaignExecutor;
    use crate::fuzzer::FuzzConfig;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    fn d1_trials(trials: u64, campaign_seed: u64, config: &FuzzConfig) -> TrialSummary {
        CampaignExecutor::new(1)
            .run(trials, campaign_seed, |seed| Testbed::new(DeviceModel::D1, seed), config)
            .unwrap()
    }

    #[test]
    fn three_trials_agree_on_the_stable_core() {
        let config = FuzzConfig::full(Duration::from_secs(3600), 0);
        let summary = d1_trials(3, 100, &config);
        assert_eq!(summary.trials(), 3);
        assert_eq!(summary.union_bug_ids, (1..=15).collect::<Vec<u8>>());
        // The deterministic exploration plans make every bug a stable find.
        assert_eq!(summary.found_in_all_trials().len(), 15);
        assert!(summary.mean_packets > 1000.0);
        // The merged findings are the union, deduplicated.
        let mut ids: Vec<u8> = summary.unique_findings.iter().map(|f| f.bug_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, summary.union_bug_ids);
        // Counters aggregate across trials.
        assert_eq!(
            summary.counters.packets_sent,
            summary.per_trial.iter().map(|r| r.packets_sent).sum::<u64>()
        );
        assert_eq!(summary.counters.findings, 45);
        assert!(summary.counters.plans_executed > 0);
        assert!(summary.counters.outages_observed > 0);
    }

    #[test]
    fn time_to_find_is_ordered_by_queue_priority() {
        let config = FuzzConfig::full(Duration::from_secs(3600), 0);
        let summary = d1_trials(2, 7, &config);
        // Proprietary-class bugs (CMDCL 0x01 fuzzed first) are found
        // before the late listed-class ones.
        let early = summary.mean_time_to_find(2).expect("bug 2 found");
        let late = summary.mean_time_to_find(7).expect("bug 7 found");
        assert!(early < late, "{early:?} vs {late:?}");
        assert_eq!(summary.mean_time_to_find(99), None);
    }
}
