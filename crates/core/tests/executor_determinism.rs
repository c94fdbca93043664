//! Regression tests for the campaign executor's core contract: the merged
//! [`TrialSummary`] is bit-identical whatever the worker count.

use std::time::Duration;

use zcover::{CampaignExecutor, FuzzConfig};
use zwave_controller::testbed::{DeviceModel, Testbed};

const CAMPAIGN_SEED: u64 = 2025;

fn config() -> FuzzConfig {
    FuzzConfig::full(Duration::from_secs(1800), CAMPAIGN_SEED)
}

#[test]
fn parallel_summaries_are_bit_identical_across_worker_counts() {
    let trials = 6;
    let make = |seed| Testbed::new(DeviceModel::D1, seed);

    let sequential = CampaignExecutor::new(1)
        .run(trials, CAMPAIGN_SEED, make, &config())
        .expect("sequential run");
    for workers in [2, 8] {
        let parallel = CampaignExecutor::new(workers)
            .run(trials, CAMPAIGN_SEED, make, &config())
            .expect("parallel run");
        // Full structural equality: per-trial results (packets, findings,
        // traces, coverage, counters, timestamps), the merged dedup, and
        // the aggregate counters.
        assert_eq!(sequential, parallel, "{workers}-worker summary diverged");
    }
}

#[test]
fn repeated_runs_reproduce_exactly() {
    let make = |seed| Testbed::new(DeviceModel::D3, seed);
    let first = CampaignExecutor::new(4).run(4, 7, make, &config()).expect("first");
    let second = CampaignExecutor::new(4).run(4, 7, make, &config()).expect("second");
    assert_eq!(first, second);
}

#[test]
fn merged_summary_dedups_and_counts() {
    let summary = CampaignExecutor::new(4)
        .run(4, CAMPAIGN_SEED, |seed| Testbed::new(DeviceModel::D1, seed), &config())
        .expect("run");
    assert_eq!(summary.trials(), 4);
    // unique_findings carries each union bug exactly once, from the first
    // trial (by index) that found it.
    let mut ids: Vec<u8> = summary.unique_findings.iter().map(|f| f.bug_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, summary.union_bug_ids);
    for finding in &summary.unique_findings {
        let first_trial = summary
            .per_trial
            .iter()
            .find(|r| r.findings.iter().any(|f| f.bug_id == finding.bug_id))
            .expect("some trial found it");
        let original = first_trial.findings.iter().find(|f| f.bug_id == finding.bug_id).unwrap();
        assert_eq!(finding, original);
    }
    // Aggregate counters are the per-trial sums.
    assert_eq!(
        summary.counters.packets_sent,
        summary.per_trial.iter().map(|r| r.counters.packets_sent).sum::<u64>()
    );
    assert_eq!(
        summary.counters.findings,
        summary.per_trial.iter().map(|r| r.counters.findings).sum::<u64>()
    );
}
