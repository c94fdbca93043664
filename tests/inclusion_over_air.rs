//! Integration test: the full S2 inclusion ceremony carried over the
//! simulated radio medium, frame by frame, with an eavesdropper present —
//! demonstrating that (unlike S0's fixed-temp-key exchange) a passive
//! sniffer learns nothing that decrypts subsequent traffic.

use zcover_suite::zwave_crypto::inclusion::{dsk_pin, IncludingController, JoiningNode};
use zcover_suite::zwave_crypto::{NetworkKey, SecurityClass};
use zcover_suite::zwave_protocol::{HomeId, MacFrame, NodeId};
use zcover_suite::zwave_radio::{Medium, SimClock, Sniffer};

const HOME: u32 = 0xC7E9DD54;

fn send(radio: &zcover_suite::zwave_radio::Transceiver, src: u8, dst: u8, payload: Vec<u8>) {
    let frame = MacFrame::singlecast(HomeId(HOME), NodeId(src), NodeId(dst), payload);
    radio.transmit(&frame.encode());
}

fn recv_payload(radio: &zcover_suite::zwave_radio::Transceiver, me: u8) -> Option<Vec<u8>> {
    while let Some(rx) = radio.recv_where(|_| true) {
        let Ok(frame) = MacFrame::decode(&rx.bytes) else { continue };
        if frame.dst() == NodeId(me) && !frame.payload().is_empty() {
            return Some(frame.payload().to_vec());
        }
    }
    None
}

#[test]
fn s2_pairing_over_the_air_with_an_eavesdropper() {
    let medium = Medium::new(SimClock::new(), 3);
    let hub_radio = medium.attach(0.0);
    let lock_radio = medium.attach(8.0);
    let mut eavesdropper = Sniffer::attach(&medium, 70.0);

    let mut lock = JoiningNode::new([0x42u8; 32], HOME, 0x01, 0x02);
    let mut hub = IncludingController::new(
        NetworkKey::from_seed(0xD4),
        SecurityClass::S2Access,
        [0x17u8; 32],
        Some(dsk_pin(lock.public())), // the operator typed the DSK pin
        HOME,
        0x01,
        0x02,
    );

    // Drive the ceremony over the radio.
    send(&hub_radio, 0x01, 0x02, hub.start());
    for _ in 0..16 {
        if let Some(payload) = recv_payload(&lock_radio, 0x02) {
            if let Some(reply) = lock.on_payload(&payload) {
                send(&lock_radio, 0x02, 0x01, reply);
            }
        }
        if let Some(payload) = recv_payload(&hub_radio, 0x01) {
            if let Some(reply) = hub.on_payload(&payload) {
                send(&hub_radio, 0x01, 0x02, reply);
            }
        }
        if hub.is_established() && lock.is_established() {
            break;
        }
    }
    assert!(hub.is_established(), "hub failure: {:?}", hub.failure());
    assert!(lock.is_established(), "lock failure: {:?}", lock.failure());
    assert_eq!(lock.granted().unwrap().0, SecurityClass::S2Access);

    // The established sessions protect application traffic end to end.
    let mut hub_session = hub.take_session().unwrap();
    let mut lock_session = lock.take_session().unwrap();
    let encap = hub_session.encapsulate(HOME, 0x01, 0x02, &[0x62, 0x01, 0xFF]);
    assert_eq!(lock_session.decapsulate(HOME, 0x01, 0x02, &encap).unwrap(), vec![0x62, 0x01, 0xFF]);

    // The eavesdropper captured the whole ceremony yet the network key
    // never appeared on the air in the clear.
    eavesdropper.poll();
    assert!(eavesdropper.captures().len() >= 9, "ceremony has at least 9 frames");
    let key = NetworkKey::from_seed(0xD4);
    for capture in eavesdropper.captures() {
        assert!(
            !capture.bytes.windows(16).any(|w| w == key.bytes()),
            "network key leaked in cleartext"
        );
    }
}

#[test]
fn lossy_air_aborts_cleanly_rather_than_hanging() {
    use zcover_suite::zwave_radio::NoiseModel;
    let medium = Medium::with_noise(SimClock::new(), 5, NoiseModel::lossy(1.0));
    let hub_radio = medium.attach(0.0);
    let lock_radio = medium.attach(8.0);

    let mut lock = JoiningNode::new([0x42u8; 32], HOME, 0x01, 0x02);
    let mut hub = IncludingController::new(
        NetworkKey::from_seed(1),
        SecurityClass::S2Authenticated,
        [0x17u8; 32],
        Some(dsk_pin(lock.public())),
        HOME,
        0x01,
        0x02,
    );
    send(&hub_radio, 0x01, 0x02, hub.start());
    for _ in 0..8 {
        if let Some(payload) = recv_payload(&lock_radio, 0x02) {
            if let Some(reply) = lock.on_payload(&payload) {
                send(&lock_radio, 0x02, 0x01, reply);
            }
        }
    }
    // Total loss: nothing establishes, nothing panics.
    assert!(!hub.is_established());
    assert!(!lock.is_established());
}
