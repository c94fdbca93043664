//! Failure-injection integration tests: campaigns under channel loss and
//! corruption, verifying the fuzzer degrades gracefully and the oracle
//! never produces phantom findings.

use std::time::Duration;

use zcover_suite::zcover::{Dongle, FuzzConfig, PingOutcome, ZCover};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed, SWITCH_NODE};
use zcover_suite::zwave_protocol::NodeId;
use zcover_suite::zwave_radio::{
    ImpairmentProfile, ImpairmentSchedule, ImpairmentStage, NoiseModel,
};

#[test]
fn campaign_tolerates_a_lossy_channel() {
    let mut tb = Testbed::new(DeviceModel::D1, 31);
    // 20 % flat loss: pings and responses vanish regularly.
    tb.medium().set_noise(NoiseModel::lossy(0.2));
    let mut zcover = ZCover::attach(&tb, 70.0);
    let report =
        zcover.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(3600), 31)).unwrap();
    // Loss slows discovery but the deterministic plans still land; expect
    // the large majority of bugs within the hour.
    assert!(
        report.campaign.unique_vulns() >= 12,
        "only {} bugs under 20% loss",
        report.campaign.unique_vulns()
    );
    // Every reported finding is backed by a verified fault record — loss
    // cannot fabricate findings.
    for f in &report.campaign.findings {
        assert!(tb.controller().fault_log().records().iter().any(|r| r.bug_id == f.bug_id));
    }
}

#[test]
fn corrupted_frames_never_become_findings() {
    let mut tb = Testbed::new(DeviceModel::D3, 32);
    // Every delivered frame gets one corrupted byte. D3 has no MAC quirks,
    // so corrupted frames die at the checksum and nothing can fire except
    // through an intact (uncorrupted) frame — with corruption=1.0 there
    // are none.
    tb.medium().set_noise(NoiseModel { corruption: 1.0, ..NoiseModel::clean() });
    let mut zcover = ZCover::attach(&tb, 70.0);
    match zcover.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(600), 32)) {
        Ok(report) => {
            assert_eq!(report.campaign.unique_vulns(), 0);
        }
        Err(_) => {
            // Total corruption may already break fingerprinting — also a
            // graceful outcome.
        }
    }
    let zero_days = tb.controller().fault_log().records().iter().filter(|r| r.bug_id <= 15).count();
    assert_eq!(zero_days, 0, "corrupted frames must not trigger application-layer bugs");
}

#[test]
fn quirky_models_may_glitch_under_corruption_but_never_lose_nvm() {
    // D4 has pre-parse MAC quirks: corrupted frames can hit them (that is
    // exactly what they model), but the application layer stays sealed.
    let mut tb = Testbed::new(DeviceModel::D4, 33);
    tb.medium().set_noise(NoiseModel { corruption: 0.5, ..NoiseModel::clean() });
    let attacker = tb.attach_attacker(70.0);
    let nvm_before = tb.controller().nvm().snapshot();
    for i in 0..500u32 {
        let frame = zcover_suite::zwave_protocol::MacFrame::singlecast(
            tb.controller().home_id(),
            zcover_suite::zwave_protocol::NodeId(0x03),
            zcover_suite::zwave_protocol::NodeId(0x01),
            vec![0x20, 0x02, (i & 0xFF) as u8],
        );
        attacker.transmit(&frame.encode());
        tb.pump();
    }
    assert_eq!(tb.controller().nvm(), &nvm_before, "corruption must never tamper NVM");
    assert!(
        tb.controller().fault_log().records().iter().all(|r| r.bug_id > 100),
        "only MAC quirks may fire under corruption"
    );
}

#[test]
fn fingerprinting_succeeds_despite_moderate_loss() {
    let mut tb = Testbed::new(DeviceModel::D6, 34);
    tb.medium().set_noise(NoiseModel::lossy(0.3));
    let mut zcover = ZCover::attach(&tb, 70.0);
    let scan = zcover.fingerprint(&mut tb).expect("three rounds of traffic survive 30% loss");
    assert_eq!(scan.home_id, tb.controller().home_id());
}

// ──────────────── Adversarial-channel scenarios (impairment layer) ────────────────

#[test]
fn duplicated_channel_frames_are_reacked_but_not_reprocessed() {
    // A channel that duplicates every frame exercises the controller's
    // link-layer duplicate filter: the copy is acknowledged again (its ack
    // may have been the lost half of the exchange) but must not dispatch
    // to the application layer twice.
    let mut tb = Testbed::new(DeviceModel::D1, 41);
    tb.medium().set_impairment(
        ImpairmentSchedule::clean().with(ImpairmentStage::Duplicate { probability: 1.0 }),
    );
    let mut dongle = Dongle::attach(tb.medium(), 70.0);
    let before = tb.controller().stats();
    // VERSION_GET from the (spoofed) lock: a benign, answerable request.
    dongle.inject_apl(tb.controller().home_id(), NodeId(0x02), NodeId(0x01), vec![0x86, 0x11]);
    tb.pump();
    let after = tb.controller().stats();
    assert_eq!(after.apl_processed - before.apl_processed, 1, "duplicate was reprocessed");
    assert_eq!(after.acks_sent - before.acks_sent, 2, "duplicate was not re-acked");
    assert!(tb.controller().link_stats().duplicates_suppressed >= 1);
}

#[test]
fn blackout_window_silences_the_controller_then_recovers() {
    // A scripted 30 s blackout at the start of the timeline: pings inside
    // the window vanish (no crash is declared), pings after it answer.
    let mut tb = Testbed::new(DeviceModel::D2, 42);
    tb.medium().set_impairment(ImpairmentSchedule::clean().with(ImpairmentStage::Blackout {
        first_start: Duration::ZERO,
        every: Duration::ZERO,
        length: Duration::from_secs(30),
    }));
    let mut dongle = Dongle::attach(tb.medium(), 70.0);
    let home = tb.controller().home_id();

    dongle.send_ping(home, NodeId(0x02), NodeId(0x01));
    tb.pump();
    assert_eq!(
        dongle.check_ping(NodeId(0x01)),
        PingOutcome::Unresponsive,
        "the blackout window must silence the channel"
    );
    tb.clock().advance(Duration::from_secs(31));
    dongle.send_ping(home, NodeId(0x02), NodeId(0x01));
    tb.pump();
    assert_eq!(
        dongle.check_ping(NodeId(0x01)),
        PingOutcome::Alive,
        "the controller was healthy all along; only the channel was dark"
    );
    assert!(tb.medium().stats().blackout_drops > 0);
}

#[test]
fn controller_retransmits_its_unacked_responses_under_heavy_loss() {
    // When the channel eats the slave's ack, the controller's own link
    // layer retries its response with backoff instead of giving up.
    let mut tb = Testbed::new(DeviceModel::D1, 43);
    tb.medium().set_impairment(
        ImpairmentSchedule::clean().with(ImpairmentStage::Loss { probability: 0.6 }),
    );
    let mut dongle = Dongle::attach(tb.medium(), 70.0);
    let home = tb.controller().home_id();
    for _ in 0..20 {
        // Each VERSION_GET makes the controller answer the spoofed lock;
        // 60% loss guarantees some of those answers go unacked.
        dongle.inject_apl(home, NodeId(0x02), NodeId(0x01), vec![0x86, 0x11]);
        tb.pump();
        tb.clock().advance(Duration::from_millis(400));
        tb.pump();
    }
    let stats = tb.controller().link_stats();
    assert!(stats.retransmissions > 0, "no response was ever retried under 60% loss");
}

#[test]
fn campaign_under_the_adversarial_profile_degrades_gracefully() {
    // The nastiest named profile (burst loss + truncation + bit flips +
    // duplication + reordering + periodic blackouts): the campaign must
    // keep finding real bugs and must never report phantom ones.
    let mut tb = Testbed::new(DeviceModel::D1, 44);
    let mut zcover = ZCover::attach(&tb, 70.0);
    let config = FuzzConfig::full(Duration::from_secs(3600), 44)
        .with_impairment(ImpairmentProfile::Adversarial);
    let report = zcover.run_campaign(&mut tb, config).expect("fingerprinting survives");
    assert!(
        report.campaign.unique_vulns() >= 8,
        "only {} bugs under the adversarial profile",
        report.campaign.unique_vulns()
    );
    for f in &report.campaign.findings {
        assert!(tb.controller().fault_log().records().iter().any(|r| r.bug_id == f.bug_id));
    }
    // The channel accounting shows the profile actually bit.
    let c = report.campaign.counters;
    assert!(c.losses > 0 && c.truncations > 0 && c.blackout_drops > 0);
}

#[test]
fn recovery_storm_hops_event_to_event_on_the_adversarial_channel() {
    // Thirty outage triggers (bugs #7, #8, #9, #11, #15 each park D1 in a
    // 59-68 s Busy outage), each followed by a liveness wait that hops
    // the clock straight to the next scheduled event instead of stepping
    // it. Every outage must be seen to end, and the idle time between
    // hops must cost no frames or events: the counts and the virtual time
    // the storm ends at are exact.
    const TRIGGERS: [&[u8]; 5] = [
        &[0x5A, 0x01, 0x00],
        &[0x59, 0x03, 0x00, 0x00],
        &[0x7A, 0x01, 0x00],
        &[0x59, 0x05, 0x00, 0x00],
        &[0x7A, 0x03, 0x00],
    ];
    let mut tb = Testbed::new(DeviceModel::D1, 42);
    tb.medium().set_impairment(ImpairmentProfile::Adversarial.schedule());
    let mut dongle = Dongle::attach(tb.medium(), 70.0);
    let home = tb.controller().home_id();
    let (src, dst) = (SWITCH_NODE, NodeId(0x01));
    let clock = tb.clock().clone();
    let mut recoveries = 0;
    for trigger in TRIGGERS.iter().cycle().take(30) {
        dongle.inject_apl(home, src, dst, trigger);
        tb.pump();
        let deadline = clock.now().plus(Duration::from_secs(300));
        'wait: loop {
            let hopped = tb.medium().advance_to_next_wakeup(deadline);
            // Three pings per hop, as the fuzzer retries: one is not
            // loss-tolerant on this channel.
            for _ in 0..3 {
                dongle.send_ping(home, src, dst);
                tb.pump();
                if dongle.check_ping(dst) == PingOutcome::Alive {
                    recoveries += 1;
                    break 'wait;
                }
            }
            if !hopped {
                break;
            }
        }
    }
    let frames = tb.medium().stats().frames_sent;
    let events = tb.medium().scheduler().events_processed();
    assert_eq!((recoveries, frames, events), (30, 132, 161));
    assert_eq!(clock.now().as_micros(), 3_277_045_400);
}
