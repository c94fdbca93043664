//! Integration tests for the ZCover-vs-VFuzz comparison property the paper
//! highlights: "there were no vulnerabilities found in common between both
//! tools" (Section IV-C) — plus the three-way regression gate for the
//! coverage-guided mode: within the same virtual budget, coverage mode
//! must discover every Table III bug the positional zcover mode does.

use std::collections::BTreeSet;
use std::time::Duration;

use zcover_suite::zcover::{CampaignResult, FuzzConfig, ZCover};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};

fn campaign(model: DeviceModel, seed: u64, config: FuzzConfig) -> CampaignResult {
    let mut tb = Testbed::new(model, seed);
    let mut zc = ZCover::attach(&tb, 70.0);
    zc.run_campaign(&mut tb, config).unwrap().campaign
}

fn campaign_findings(model: DeviceModel, seed: u64, config: FuzzConfig) -> BTreeSet<u8> {
    campaign(model, seed, config).findings.iter().map(|f| f.bug_id).collect()
}

fn zcover_findings(model: DeviceModel, seed: u64) -> BTreeSet<u8> {
    campaign_findings(model, seed, FuzzConfig::full(Duration::from_secs(2 * 3600), seed))
}

fn vfuzz_findings(model: DeviceModel, seed: u64) -> BTreeSet<u8> {
    campaign_findings(model, seed, FuzzConfig::vfuzz(Duration::from_secs(12 * 3600), seed))
}

fn vfuzz_hours(model: DeviceModel, hours: u64, seed: u64) -> CampaignResult {
    campaign(model, seed, FuzzConfig::vfuzz(Duration::from_secs(hours * 3600), seed))
}

#[test]
fn no_findings_in_common_on_d4() {
    let z = zcover_findings(DeviceModel::D4, 4);
    let v = vfuzz_findings(DeviceModel::D4, 4);
    assert!(!z.is_empty() && !v.is_empty());
    assert!(z.is_disjoint(&v), "overlap: {:?}", z.intersection(&v).collect::<Vec<_>>());
    // ZCover's findings are the Table III zero-days (ids ≤ 15); VFuzz's
    // are the shallow one-day MAC quirks (ids > 100).
    assert!(z.iter().all(|&id| id <= 15));
    assert!(v.iter().all(|&id| id > 100));
}

#[test]
fn zcover_beats_vfuzz_on_every_usb_device() {
    for model in DeviceModel::usb_models() {
        let z = zcover_findings(model, 8);
        let v = vfuzz_findings(model, 8);
        assert!(z.len() > v.len(), "{model:?}: zcover {} vs vfuzz {}", z.len(), v.len());
    }
}

#[test]
fn vfuzz_never_reaches_the_application_layer_bugs() {
    // Even a long VFuzz run on the bug-rich D1 finds no Table III ids.
    let v = vfuzz_findings(DeviceModel::D1, 15);
    assert!(v.iter().all(|&id| id > 100), "vfuzz found zero-days: {v:?}");
}

#[test]
fn coverage_mode_subsumes_zcover_findings_on_every_device() {
    // The three-way regression gate: on D1-D7 within the same 2 h virtual
    // budget, the coverage-guided engine discovers every Table III bug
    // the positional engine does. Coverage guidance may only add reach,
    // never lose it.
    let budget = Duration::from_secs(2 * 3600);
    for model in DeviceModel::all() {
        let z: BTreeSet<u8> = campaign_findings(model, 6, FuzzConfig::full(budget, 6))
            .into_iter()
            .filter(|&id| id <= 15)
            .collect();
        let c: BTreeSet<u8> = campaign_findings(model, 6, FuzzConfig::coverage(budget, 6))
            .into_iter()
            .filter(|&id| id <= 15)
            .collect();
        assert!(!z.is_empty(), "{model:?}: zcover mode found nothing to compare against");
        assert!(
            c.is_superset(&z),
            "{model:?}: coverage mode missed {:?}",
            z.difference(&c).collect::<Vec<_>>()
        );
    }
}

#[test]
fn in_suite_vfuzz_mode_matches_the_blind_baseline_profile() {
    // The `--mode vfuzz` engine keeps the paper's comparison profile: MAC
    // mutation through the same oracle finds at most the shallow one-day
    // quirks (ids > 100), never the deep Table III set the guided engines
    // reach.
    let budget = Duration::from_secs(2 * 3600);
    let v = campaign_findings(DeviceModel::D1, 6, FuzzConfig::vfuzz(budget, 6));
    let z = campaign_findings(DeviceModel::D1, 6, FuzzConfig::full(budget, 6));
    assert!(v.iter().all(|&id| id > 100), "vfuzz found Table III bugs: {v:?}");
    assert!(
        v.len() < z.len(),
        "vfuzz found {} bugs vs zcover's {} — it should trail the guided engines",
        v.len(),
        z.len()
    );
}

#[test]
fn vfuzz_finds_the_mac_quirks_on_d4_but_no_zcover_bugs() {
    // Table V: D4 yields 4 findings for VFuzz; none overlap with
    // ZCover's fifteen.
    let ids: BTreeSet<u8> =
        vfuzz_hours(DeviceModel::D4, 24, 42).findings.iter().map(|f| f.bug_id).collect();
    assert_eq!(ids, BTreeSet::from([101, 102, 103, 104]), "found {ids:?}");
}

#[test]
fn vfuzz_finds_nothing_on_d3() {
    // Table V: D3 and D5 yield zero findings for VFuzz.
    let result = vfuzz_hours(DeviceModel::D3, 24, 7);
    assert_eq!(result.unique_vulns(), 0);
    assert!(result.packets_sent > 50_000, "sent {}", result.packets_sent);
}

#[test]
fn vfuzz_generated_coverage_is_indiscriminate() {
    // Table V: 256 CMDCLs / 256 CMDs for VFuzz.
    let result = vfuzz_hours(DeviceModel::D5, 24, 9);
    assert_eq!(result.cmdcl_coverage.len(), 256);
    assert_eq!(result.cmd_coverage.len(), 256);
}

#[test]
fn one_hour_of_vfuzz_is_mostly_fruitless() {
    assert!(vfuzz_hours(DeviceModel::D1, 1, 3).unique_vulns() <= 1);
}

#[test]
fn no_priority_ablation_is_pinned_on_d1() {
    // The extended ablation that scans the queue ascending by CMDCL id.
    let result = campaign(
        DeviceModel::D1,
        5,
        FuzzConfig::without_prioritization(Duration::from_secs(900), 5),
    );
    let ids: BTreeSet<u8> = result.findings.iter().map(|f| f.bug_id).collect();
    assert_eq!(result.packets_sent, 1822);
    assert_eq!(ids, BTreeSet::from([1, 2, 3, 4, 5, 12, 14]));
}

#[test]
fn no_plans_ablation_is_pinned_on_d1() {
    // The extended ablation that skips the semantic/boundary plans.
    let result = campaign(
        DeviceModel::D1,
        5,
        FuzzConfig::without_semantic_plans(Duration::from_secs(900), 5),
    );
    let ids: BTreeSet<u8> = result.findings.iter().map(|f| f.bug_id).collect();
    assert_eq!(result.packets_sent, 505);
    assert_eq!(ids, BTreeSet::from([5, 6, 9, 14, 15]));
}
