//! Integration tests for the controller's transport-encapsulation
//! handling: S0, CRC-16 and Supervision unwrapping, and the security
//! semantics each carries (a checksum is not a MAC; an S0 MAC is).

use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed, LOCK_NODE, SWITCH_NODE};
use zcover_suite::zwave_controller::HomeNetwork;
use zcover_suite::zwave_crypto::s0::{self, S0Keys};
use zcover_suite::zwave_protocol::checksum::crc16_ccitt;
use zcover_suite::zwave_protocol::{MacFrame, NodeId};

fn send(tb: &mut HomeNetwork, attacker: &zcover_suite::zwave_radio::Transceiver, payload: Vec<u8>) {
    let frame = MacFrame::singlecast(tb.controller().home_id(), SWITCH_NODE, NodeId(0x01), payload);
    attacker.transmit(&frame.encode());
    tb.pump();
}

fn crc16_encap(inner: &[u8]) -> Vec<u8> {
    let mut body = vec![0x56, 0x01];
    body.extend_from_slice(inner);
    let crc = crc16_ccitt(&body);
    body.extend_from_slice(&crc.to_be_bytes());
    body
}

#[test]
fn crc16_encapsulated_commands_are_processed() {
    let mut tb = Testbed::new(DeviceModel::D1, 41);
    let attacker = tb.attach_attacker(70.0);
    attacker.drain();
    // A benign Version Get wrapped in CRC-16 encapsulation gets a report.
    send(&mut tb, &attacker, crc16_encap(&[0x86, 0x11]));
    let frames = attacker.drain();
    let report = frames
        .iter()
        .filter_map(|f| MacFrame::decode(&f.bytes).ok())
        .find(|m| !m.is_ack())
        .expect("version report");
    assert_eq!(&report.payload()[..2], &[0x86, 0x12]);
}

#[test]
fn crc16_encapsulation_grants_no_authenticity() {
    // Wrapping an attack payload in CRC-16 encap must still trigger the
    // bug: a checksum is integrity against noise, not authentication.
    let mut tb = Testbed::new(DeviceModel::D1, 41);
    let attacker = tb.attach_attacker(70.0);
    send(&mut tb, &attacker, crc16_encap(&[0x01, 0x0D, LOCK_NODE.0]));
    assert!(!tb.controller().nvm().contains(LOCK_NODE));
    assert_eq!(tb.controller().fault_log().records()[0].bug_id, 3);
}

#[test]
fn corrupt_crc16_trailer_is_dropped() {
    let mut tb = Testbed::new(DeviceModel::D1, 41);
    let attacker = tb.attach_attacker(70.0);
    let mut encap = crc16_encap(&[0x01, 0x0D, LOCK_NODE.0]);
    let last = encap.len() - 1;
    encap[last] ^= 0x01;
    send(&mut tb, &attacker, encap);
    assert!(tb.controller().nvm().contains(LOCK_NODE));
    assert!(tb.controller().fault_log().is_empty());
}

#[test]
fn supervision_encapsulated_commands_are_confirmed() {
    let mut tb = Testbed::new(DeviceModel::D1, 42);
    let attacker = tb.attach_attacker(70.0);
    attacker.drain();
    // SUPERVISION GET { session 5, len 2, inner = Basic Get }.
    send(&mut tb, &attacker, vec![0x6C, 0x01, 0x05, 0x02, 0x20, 0x02]);
    let frames = attacker.drain();
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .filter_map(|f| MacFrame::decode(&f.bytes).ok())
        .filter(|m| !m.is_ack())
        .map(|m| m.payload().to_vec())
        .collect();
    // Inner Basic Get produced a Basic Report, and the wrapper produced a
    // SUPERVISION REPORT with success status.
    assert!(payloads.iter().any(|p| p.starts_with(&[0x20, 0x03])), "{payloads:?}");
    assert!(payloads.iter().any(|p| p.starts_with(&[0x6C, 0x02, 0x05, 0xFF])), "{payloads:?}");
}

#[test]
fn supervision_length_mismatch_is_dropped() {
    let mut tb = Testbed::new(DeviceModel::D1, 42);
    let attacker = tb.attach_attacker(70.0);
    attacker.drain();
    // Declared length 5 but only 2 inner bytes: dropped, no report.
    send(&mut tb, &attacker, vec![0x6C, 0x01, 0x05, 0x05, 0x20, 0x02]);
    let frames = attacker.drain();
    assert!(frames.iter().filter_map(|f| MacFrame::decode(&f.bytes).ok()).all(|m| m.is_ack()));
}

#[test]
fn s0_nonce_flow_and_encapsulated_dispatch() {
    let mut tb = Testbed::new(DeviceModel::D2, 43);
    let keys = S0Keys::derive(tb.controller().s0_key());
    let attacker = tb.attach_attacker(10.0);
    attacker.drain();

    // 1. Nonce Get → Nonce Report.
    send(&mut tb, &attacker, vec![0x98, 0x40]);
    let frames = attacker.drain();
    let nonce_report = frames
        .iter()
        .filter_map(|f| MacFrame::decode(&f.bytes).ok())
        .find(|m| !m.is_ack() && m.payload().starts_with(&[0x98, 0x80]))
        .expect("nonce report");
    let mut receiver_nonce = [0u8; 8];
    receiver_nonce.copy_from_slice(&nonce_report.payload()[2..10]);

    // 2. Encapsulate a Basic Get under the S0 key with that nonce.
    let sender_nonce = [0x77u8; 8];
    let encap =
        s0::encapsulate(&keys, SWITCH_NODE.0, 0x01, &sender_nonce, &receiver_nonce, &[0x20, 0x02]);
    attacker.drain();
    send(&mut tb, &attacker, encap);
    let frames = attacker.drain();
    assert!(
        frames
            .iter()
            .filter_map(|f| MacFrame::decode(&f.bytes).ok())
            .any(|m| !m.is_ack() && m.payload().starts_with(&[0x20, 0x03])),
        "expected a Basic Report to the S0-encapsulated Get"
    );
}

#[test]
fn s0_nonces_are_single_use() {
    let mut tb = Testbed::new(DeviceModel::D2, 44);
    let keys = S0Keys::derive(tb.controller().s0_key());
    let attacker = tb.attach_attacker(10.0);

    send(&mut tb, &attacker, vec![0x98, 0x40]);
    let frames = attacker.drain();
    let nonce_report = frames
        .iter()
        .filter_map(|f| MacFrame::decode(&f.bytes).ok())
        .find(|m| m.payload().starts_with(&[0x98, 0x80]))
        .unwrap();
    let mut nonce = [0u8; 8];
    nonce.copy_from_slice(&nonce_report.payload()[2..10]);

    let encap = s0::encapsulate(&keys, SWITCH_NODE.0, 0x01, &[1u8; 8], &nonce, &[0x20, 0x02]);
    send(&mut tb, &attacker, encap.clone());
    attacker.drain();
    // Replaying the same encapsulation (same nonce) yields nothing.
    send(&mut tb, &attacker, encap);
    let frames = attacker.drain();
    assert!(
        frames.iter().filter_map(|f| MacFrame::decode(&f.bytes).ok()).all(|m| m.is_ack()),
        "replay with a consumed nonce must be dropped"
    );
}

#[test]
fn s0_encapsulated_payloads_do_not_trigger_the_unencrypted_bugs() {
    // The Table III flaws are *unencrypted acceptance* flaws: the same
    // payload arriving under a verified S0 MAC takes the legitimate path.
    let mut tb = Testbed::new(DeviceModel::D2, 45);
    let keys = S0Keys::derive(tb.controller().s0_key());
    let attacker = tb.attach_attacker(10.0);

    send(&mut tb, &attacker, vec![0x98, 0x40]);
    let frames = attacker.drain();
    let nonce_report = frames
        .iter()
        .filter_map(|f| MacFrame::decode(&f.bytes).ok())
        .find(|m| m.payload().starts_with(&[0x98, 0x80]))
        .unwrap();
    let mut nonce = [0u8; 8];
    nonce.copy_from_slice(&nonce_report.payload()[2..10]);

    let attack = [0x01, 0x0D, LOCK_NODE.0];
    let encap = s0::encapsulate(&keys, SWITCH_NODE.0, 0x01, &[2u8; 8], &nonce, &attack);
    send(&mut tb, &attacker, encap);
    assert!(
        tb.controller().nvm().contains(LOCK_NODE),
        "S0-authenticated path must not fire the bug"
    );
    assert!(tb.controller().fault_log().is_empty());
}
