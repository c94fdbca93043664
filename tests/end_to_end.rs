//! End-to-end integration tests: the full ZCover pipeline against every
//! testbed controller, spanning all six crates.

use std::time::Duration;

use zcover_suite::zcover::{FuzzConfig, ImpairmentProfile, ZCover};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};

fn campaign(model: DeviceModel, seed: u64) -> zcover_suite::zcover::ZCoverReport {
    let mut tb = Testbed::new(model, seed);
    let mut zc = ZCover::attach(&tb, 70.0);
    zc.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(2 * 3600), seed))
        .expect("fingerprinting succeeds")
}

#[test]
fn usb_controllers_yield_all_15_bugs() {
    for model in DeviceModel::usb_models() {
        let report = campaign(model, 0xD1CE);
        let mut ids: Vec<u8> = report.campaign.findings.iter().map(|f| f.bug_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=15).collect::<Vec<u8>>(), "{model:?}");
    }
}

#[test]
fn smart_hubs_yield_13_bugs_missing_the_host_only_pair() {
    // D6/D7 have no PC controller program, so bugs #06 and #13 (host
    // crash / host DoS) cannot manifest there — exactly Table III's
    // "affected devices" column.
    for model in [DeviceModel::D6, DeviceModel::D7] {
        let report = campaign(model, 0xD1CE);
        let mut ids: Vec<u8> = report.campaign.findings.iter().map(|f| f.bug_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 14, 15], "{model:?}");
    }
}

#[test]
fn clean_campaigns_never_hit_the_pump_cap() {
    // A pump that runs out of rounds leaves traffic for later; on a clean
    // channel every pump of a D1 hour must quiesce on its own.
    let mut tb = Testbed::new(DeviceModel::D1, 0xD1CE);
    let mut zc = ZCover::attach(&tb, 70.0);
    let report = zc
        .run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(3600), 0xD1CE))
        .expect("fingerprinting succeeds");
    assert!(!report.campaign.findings.is_empty());
    assert_eq!(tb.pump_cap_hits(), 0);
}

#[test]
fn protocol_stations_never_overflow_their_rx_rings_on_flat_campaigns() {
    // Every overflow of a flat campaign belongs to the attacker's own
    // radios; a protocol station that shed frames would lose traffic the
    // lost-frame-versus-crash oracle never sees.
    for profile in [ImpairmentProfile::Clean, ImpairmentProfile::Lossy, ImpairmentProfile::Bursty] {
        for model in DeviceModel::all() {
            let mut tb = Testbed::new(model, 5);
            let mut zc = ZCover::attach(&tb, 70.0);
            let config = FuzzConfig::full(Duration::from_secs(3600), 5).with_impairment(profile);
            zc.run_campaign(&mut tb, config).expect("fingerprinting succeeds");
            for (node, overflows) in tb.station_rx_overflows() {
                assert_eq!(overflows, 0, "{model:?} {profile}: node {node}");
            }
        }
    }
}

#[test]
fn discovery_reports_match_table4_for_every_device() {
    for model in DeviceModel::all() {
        let report = campaign(model, 3);
        let expected_listed = model.listed_classes().len();
        assert_eq!(report.discovery.listed.len(), expected_listed);
        assert_eq!(report.discovery.unknown_count(), 45 - expected_listed);
        assert_eq!(report.discovery.proprietary.len(), 2);
    }
}

#[test]
fn campaigns_are_deterministic_per_seed() {
    let a = campaign(DeviceModel::D3, 1234);
    let b = campaign(DeviceModel::D3, 1234);
    let ids = |r: &zcover_suite::zcover::ZCoverReport| {
        r.campaign.findings.iter().map(|f| (f.bug_id, f.found_after_packets)).collect::<Vec<_>>()
    };
    assert_eq!(ids(&a), ids(&b));
    assert_eq!(a.campaign.packets_sent, b.campaign.packets_sent);
}

#[test]
fn different_seeds_change_the_packet_stream_but_not_the_verdict() {
    let a = campaign(DeviceModel::D1, 1);
    let b = campaign(DeviceModel::D1, 2);
    assert_eq!(a.campaign.unique_vulns(), 15);
    assert_eq!(b.campaign.unique_vulns(), 15);
}

#[test]
fn findings_carry_minimized_triggers_that_replay() {
    // Every logged trigger, replayed against a fresh device, reproduces
    // its bug — the PoC-confirmation step of Section IV-A.
    let report = campaign(DeviceModel::D1, 77);
    for finding in report.campaign.findings.iter().filter(|f| f.bug_id <= 15) {
        let mut tb = Testbed::new(DeviceModel::D1, 99);
        let attacker = tb.attach_attacker(70.0);
        let frame = zcover_suite::zwave_protocol::MacFrame::singlecast(
            tb.controller().home_id(),
            zcover_suite::zwave_protocol::NodeId(0x03),
            zcover_suite::zwave_protocol::NodeId(0x01),
            finding.trigger.clone(),
        );
        attacker.transmit(&frame.encode());
        tb.pump();
        let replayed: Vec<u8> =
            tb.controller().fault_log().records().iter().map(|r| r.bug_id).collect();
        assert!(
            replayed.contains(&finding.bug_id),
            "bug #{:02} trigger {:02X?} did not replay (got {replayed:?})",
            finding.bug_id,
            finding.trigger
        );
    }
}

#[test]
fn bug_log_renders_a_complete_report() {
    let report = campaign(DeviceModel::D2, 5);
    let mut log = zcover_suite::zcover::BugLog::new();
    // Re-log through the public API to exercise text rendering.
    for f in &report.campaign.findings {
        let _ = f.duration_label();
    }
    assert_eq!(log.unique_count(), 0);
    log = {
        let mut tb = Testbed::new(DeviceModel::D2, 5);
        let attacker = tb.attach_attacker(70.0);
        let frame = zcover_suite::zwave_protocol::MacFrame::singlecast(
            tb.controller().home_id(),
            zcover_suite::zwave_protocol::NodeId(0x03),
            zcover_suite::zwave_protocol::NodeId(0x01),
            vec![0x01, 0x0D, 0xFF],
        );
        attacker.transmit(&frame.encode());
        tb.pump();
        let mut log = zcover_suite::zcover::BugLog::new();
        for fault in tb.controller_mut().take_new_faults() {
            log.record(&fault, 1);
        }
        log
    };
    let text = log.to_text();
    assert!(text.contains("04 | 0x01 | 0x0D | Infinite"));
}
