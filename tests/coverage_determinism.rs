//! The coverage-guided mode's determinism matrix, mirroring the
//! impairment matrix: coverage campaigns must be bit-identical —
//! verdicts, counters, *and corpus contents* — across executor worker
//! counts and under every named impairment profile.
//!
//! Coverage-guided scheduling is the riskiest mode for determinism: the
//! corpus grows from feedback, so any ordering leak (worker scheduling,
//! map iteration, shared RNG) would compound over the campaign instead of
//! averaging out. Pinning full [`CampaignResult`] equality (the struct
//! includes the retained corpus) makes any such leak a loud failure.

use std::time::Duration;

use zcover_suite::zcover::{
    CampaignExecutor, CampaignResult, FuzzConfig, FuzzMode, ImpairmentProfile,
};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};

fn run_coverage_trials(
    model: DeviceModel,
    profile: ImpairmentProfile,
    trials: u64,
    workers: usize,
    budget: Duration,
) -> Vec<CampaignResult> {
    let config = FuzzConfig::coverage(budget, 0).with_impairment(profile);
    let summary = CampaignExecutor::new(workers)
        .run(trials, 0xC0FFEE, |seed| Testbed::new(model, seed), &config)
        .expect("fingerprinting succeeds under every profile");
    summary.per_trial
}

#[test]
fn coverage_trials_are_bit_identical_across_worker_counts_for_every_profile() {
    // Full-struct equality: packets, findings, trace, counters, corpus.
    let budget = Duration::from_secs(1800);
    for profile in ImpairmentProfile::all() {
        let baseline = run_coverage_trials(DeviceModel::D1, profile, 3, 1, budget);
        for workers in [2, 4] {
            let multi = run_coverage_trials(DeviceModel::D1, profile, 3, workers, budget);
            assert_eq!(
                baseline, multi,
                "profile {profile}: coverage trials diverged between 1 and {workers} workers"
            );
        }
    }
}

#[test]
fn rerunning_a_coverage_campaign_reproduces_the_same_corpus() {
    for profile in [ImpairmentProfile::Lossy, ImpairmentProfile::Adversarial] {
        let a = run_coverage_trials(DeviceModel::D3, profile, 2, 2, Duration::from_secs(1200));
        let b = run_coverage_trials(DeviceModel::D3, profile, 2, 2, Duration::from_secs(1200));
        assert_eq!(a, b, "coverage campaign under {profile} is not reproducible");
    }
}

#[test]
fn coverage_results_carry_the_corpus_and_feedback_counters() {
    let trials = run_coverage_trials(
        DeviceModel::D1,
        ImpairmentProfile::Clean,
        2,
        1,
        Duration::from_secs(1800),
    );
    for (i, result) in trials.iter().enumerate() {
        assert_eq!(result.mode, FuzzMode::Coverage);
        assert!(result.counters.edges_seen > 0, "trial {i} saw no dispatch edges");
        assert!(!result.corpus.is_empty(), "trial {i} retained nothing");
        assert_eq!(result.counters.corpus_size, result.corpus.len() as u64);
        assert_eq!(result.counters.retained_inputs, result.corpus.len() as u64);
        // Retention order is campaign order: the packet counter at
        // retention time never decreases, every entry earned its keep.
        let mut last = 0;
        for entry in &result.corpus {
            assert!(entry.new_edges > 0, "trial {i} retained an input with no new edges");
            assert!(entry.retained_at_packets >= last, "trial {i} corpus out of order");
            last = entry.retained_at_packets;
        }
    }
}

#[test]
fn zcover_mode_results_are_unchanged_by_the_instrumentation() {
    // The coverage map is a pure observer: position-sensitive campaigns
    // must report the same verdicts and packet counts as before, with an
    // empty corpus and zero retention.
    let config = FuzzConfig::full(Duration::from_secs(1800), 0);
    let summary = CampaignExecutor::new(1)
        .run(2, 0xC0FFEE, |seed| Testbed::new(DeviceModel::D1, seed), &config)
        .expect("fingerprinting succeeds");
    for result in &summary.per_trial {
        assert_eq!(result.mode, FuzzMode::Zcover);
        assert!(result.corpus.is_empty());
        assert_eq!(result.counters.corpus_size, 0);
        assert_eq!(result.counters.retained_inputs, 0);
        // The instrumentation still observes: edges accumulate even when
        // no feedback loop consumes them.
        assert!(result.counters.edges_seen > 0);
    }
}
