//! Live end-to-end mesh delivery: the routed wire-format golden vector
//! (pinned byte-for-byte in `zwave-protocol/tests/golden_vectors.rs`) is
//! promoted from a parsing check to a *delivery* check. The exact golden
//! bytes are transmitted on a real `Medium`, relayed hop by hop through
//! live `SimRepeater` stations, accepted by the destination switch, and
//! answered with a routed acknowledgement that rides the reversed
//! repeater list back to the originator.

use zwave_controller::devices::SimSwitch;
use zwave_controller::SimRepeater;
use zwave_protocol::frame::HeaderType;
use zwave_protocol::{HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{Medium, SimClock};

/// The routed singlecast golden wire vector: home 0xCB95A34A, src 0x01 →
/// dst 0x06 via repeaters 0x03 and 0x04, carrying SWITCH_BINARY SET 0xFF.
const ROUTED_WIRE: [u8; 18] = [
    0xCB, 0x95, 0xA3, 0x4A, // home id
    0x01, // src
    0x48, // P1: routed, ack requested
    0x09, // P2: seq 9
    0x12, // length
    0x06, // dst
    0x01, 0x00, 0x02, 0x03, 0x04, // routing header: outbound, hop 0, {3, 4}
    0x25, 0x01, 0xFF, // SWITCH_BINARY SET 0xFF
    0xC3, // checksum
];

const HOME: HomeId = HomeId(0xCB95_A34A);
const ORIGIN: NodeId = NodeId(0x01);

/// One shared pump round: repeaters first (relay duty), destination last.
fn pump(repeaters: &mut [SimRepeater], switch: &mut SimSwitch) {
    for _ in 0..repeaters.len() + 2 {
        for repeater in repeaters.iter_mut() {
            repeater.poll();
        }
        switch.poll();
    }
}

#[test]
fn golden_routed_frame_is_delivered_through_live_repeaters() {
    let medium = Medium::new(SimClock::new(), 7);
    let sniffer = medium.attach(70.0);

    let mut repeaters = vec![
        SimRepeater::new(&medium, 16.0, HOME, NodeId(0x03)),
        SimRepeater::new(&medium, 20.0, HOME, NodeId(0x04)),
    ];
    let mut switch = SimSwitch::new(&medium, 30.0, HOME, NodeId(0x06), ORIGIN);
    assert!(!switch.is_on());

    // The golden bytes are exactly what the encoder produces — the wire
    // vector and the live path can never drift apart silently.
    let header = RoutingHeader::outbound(vec![NodeId(0x03), NodeId(0x04)]);
    let mut payload = header.encode();
    payload.extend_from_slice(&[0x25, 0x01, 0xFF]);
    let mut fc = zwave_protocol::frame::FrameControl::singlecast(9);
    fc.header_type = HeaderType::Routed;
    let frame = MacFrame::try_new(
        HOME,
        ORIGIN,
        fc,
        NodeId(0x06),
        payload,
        zwave_protocol::ChecksumKind::Cs8,
    )
    .expect("golden frame encodes");
    assert_eq!(frame.encode(), ROUTED_WIRE);

    sniffer.transmit(&ROUTED_WIRE);
    pump(&mut repeaters, &mut switch);

    // Hop 1: repeater 0x03; hop 2: repeater 0x04; final leg: the switch
    // applies the SET and turns on.
    assert!(switch.is_on(), "golden frame must reach the switch through both repeaters");
    assert!(repeaters[0].frames_forwarded() >= 1);
    assert!(repeaters[1].frames_forwarded() >= 1);

    // The destination's routed ack rides the reversed repeater list back
    // to the originator: sniff for the final-leg copy addressed to 0x01.
    let captures = sniffer.drain();
    let acked = captures.iter().any(|rx| {
        let Ok(m) = MacFrame::decode(&rx.bytes) else { return false };
        if m.frame_control().header_type != HeaderType::Routed || m.dst() != ORIGIN {
            return false;
        }
        let Ok((h, rest)) = RoutingHeader::decode(m.payload()) else { return false };
        !h.outbound && h.repeaters == vec![NodeId(0x04), NodeId(0x03)] && rest.is_empty()
    });
    assert!(acked, "the routed ack must travel the reversed repeater list");
    // Each repeater relayed the outbound leg and the returning ack.
    assert!(repeaters[0].frames_forwarded() >= 2);
    assert!(repeaters[1].frames_forwarded() >= 2);
}

#[test]
fn delivery_works_for_every_legal_chain_length() {
    for hops in 1usize..=4 {
        let medium = Medium::new(SimClock::new(), 7);
        let injector = medium.attach(70.0);

        let chain: Vec<NodeId> = (0..hops).map(|i| NodeId(0x10 + i as u8)).collect();
        let mut repeaters: Vec<SimRepeater> = chain
            .iter()
            .enumerate()
            .map(|(i, &node)| SimRepeater::new(&medium, 16.0 + 4.0 * i as f64, HOME, node))
            .collect();
        let mut switch = SimSwitch::new(&medium, 40.0, HOME, NodeId(0x06), ORIGIN);

        let mut payload = RoutingHeader::outbound(chain.clone()).encode();
        payload.extend_from_slice(&[0x25, 0x01, 0xFF]);
        let mut fc = zwave_protocol::frame::FrameControl::singlecast(1);
        fc.header_type = HeaderType::Routed;
        let frame = MacFrame::try_new(
            HOME,
            ORIGIN,
            fc,
            NodeId(0x06),
            payload,
            zwave_protocol::ChecksumKind::Cs8,
        )
        .expect("routed frame encodes");

        injector.transmit(&frame.encode());
        pump(&mut repeaters, &mut switch);

        assert!(switch.is_on(), "{hops}-repeater chain must deliver");
        for (i, repeater) in repeaters.iter().enumerate() {
            assert!(
                repeater.frames_forwarded() >= 2,
                "{hops}-hop chain: repeater {i} must relay the frame and its routed ack"
            );
        }
    }
}

#[test]
fn repeaters_ignore_frames_not_on_their_leg() {
    let medium = Medium::new(SimClock::new(), 7);
    let injector = medium.attach(70.0);

    // The chain names 0x03 then 0x04 — a bystander repeater 0x05 and the
    // not-yet-current 0x04 must both stay silent at hop 0.
    let mut on_route_late = SimRepeater::new(&medium, 20.0, HOME, NodeId(0x04));
    let mut bystander = SimRepeater::new(&medium, 24.0, HOME, NodeId(0x05));

    injector.transmit(&ROUTED_WIRE);
    on_route_late.poll();
    bystander.poll();

    assert_eq!(on_route_late.frames_forwarded(), 0, "hop 0 belongs to repeater 0x03");
    assert_eq!(bystander.frames_forwarded(), 0, "repeater 0x05 is not on the route at all");
}
