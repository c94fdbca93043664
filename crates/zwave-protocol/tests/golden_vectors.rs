//! Golden wire vectors pinning the MAC frame byte layout, the dissection
//! pipeline and both checksum algorithms. Unlike the round-trip property
//! tests these fix the exact bytes, so an accidental layout change (field
//! order, flag bit, LEN semantics, checksum seed) fails loudly instead of
//! round-tripping through the same bug twice.

use zwave_protocol::checksum::{crc16_ccitt, cs8};
use zwave_protocol::dissect::{to_hex, Dissection};
use zwave_protocol::frame::{FrameControl, HeaderType, MacFrame};
use zwave_protocol::multicast::MulticastHeader;
use zwave_protocol::routing::RoutingHeader;
use zwave_protocol::types::{ChecksumKind, HomeId, NodeId};
use zwave_protocol::CommandClassId;

/// Acknowledged singlecast, home 0xCB95A34A, 0x0F → 0x01, carrying
/// BASIC_SET 0xFF (the Figure 4 walkthrough network). Layout:
/// home(4) src P1 P2 LEN dst payload cs8.
const SINGLECAST_WIRE: [u8; 13] = [
    0xCB, 0x95, 0xA3, 0x4A, // home id
    0x0F, // src
    0x41, // P1: singlecast | ack requested
    0x00, // P2: sequence 0
    0x0D, // LEN = 13
    0x01, // dst
    0x20, 0x01, 0xFF, // BASIC_SET 0xFF
    0xD4, // CS-8
];

/// MAC acknowledgement, 0x01 → 0x0F, sequence 5.
const ACK_WIRE: [u8; 10] = [0xCB, 0x95, 0xA3, 0x4A, 0x01, 0x03, 0x05, 0x0A, 0x0F, 0x4A];

/// R3 singlecast with a CRC-16 trailer, home 0xE7DE3F3D, sequence 7,
/// carrying SWITCH_BINARY_GET.
const CRC16_WIRE: [u8; 13] =
    [0xE7, 0xDE, 0x3F, 0x3D, 0x01, 0x41, 0x07, 0x0D, 0x02, 0x25, 0x02, 0x5F, 0xA4];

fn singlecast_frame() -> MacFrame {
    MacFrame::singlecast(HomeId(0xCB95A34A), NodeId(0x0F), NodeId(0x01), vec![0x20, 0x01, 0xFF])
}

#[test]
fn singlecast_encodes_to_golden_bytes() {
    assert_eq!(singlecast_frame().encode(), SINGLECAST_WIRE);
}

#[test]
fn singlecast_decodes_from_golden_bytes() {
    let frame = MacFrame::decode(&SINGLECAST_WIRE).unwrap();
    assert_eq!(frame, singlecast_frame());
    assert_eq!(frame.home_id(), HomeId(0xCB95A34A));
    assert_eq!(frame.src(), NodeId(0x0F));
    assert_eq!(frame.dst(), NodeId(0x01));
    assert_eq!(frame.payload(), &[0x20, 0x01, 0xFF]);
    assert!(frame.frame_control().ack_requested);
}

#[test]
fn ack_encodes_to_golden_bytes() {
    let ack = MacFrame::ack(HomeId(0xCB95A34A), NodeId(0x01), NodeId(0x0F), 5);
    assert_eq!(ack.encode(), ACK_WIRE);
    let back = MacFrame::decode(&ACK_WIRE).unwrap();
    assert!(back.is_ack());
    assert_eq!(back.frame_control().sequence, 5);
}

#[test]
fn crc16_frame_encodes_to_golden_bytes() {
    let frame = MacFrame::try_new(
        HomeId(0xE7DE3F3D),
        NodeId(0x01),
        FrameControl::singlecast(7),
        NodeId(0x02),
        vec![0x25, 0x02],
        ChecksumKind::Crc16,
    )
    .unwrap();
    assert_eq!(frame.encode(), CRC16_WIRE);
    assert_eq!(MacFrame::decode_kind(&CRC16_WIRE, ChecksumKind::Crc16).unwrap(), frame);
}

#[test]
fn frame_control_flag_bits_are_pinned() {
    // P1: header-type nibble low, then speed 0x10 / low-power 0x20 /
    // ack 0x40. P2: beam nibble high, sequence nibble low.
    let fc = FrameControl {
        header_type: zwave_protocol::frame::HeaderType::Routed,
        ack_requested: true,
        low_power: true,
        speed_modified: true,
        sequence: 0x0A,
        beam_control: 0x3,
    };
    assert_eq!(fc.encode(), (0x78, 0x3A));
    assert_eq!(FrameControl::singlecast(0).encode(), (0x41, 0x00));
    assert_eq!(FrameControl::ack(5).encode(), (0x03, 0x05));
}

#[test]
fn dissection_of_golden_wire_recovers_figure4_fields() {
    let d = Dissection::from_wire(&SINGLECAST_WIRE).unwrap();
    assert_eq!(d.network_info(), (HomeId(0xCB95A34A), NodeId(0x0F)));
    assert_eq!(d.dst, NodeId(0x01));
    assert_eq!(d.raw, SINGLECAST_WIRE);
    let apl = d.apl.as_ref().expect("BASIC_SET parses");
    assert_eq!(apl.command_class(), CommandClassId::BASIC);
    assert_eq!(to_hex(&SINGLECAST_WIRE[8..12]), "0x01 0x20 0x01 0xFF", "Figure 4 hex rendering");
}

/// Multicast data frame, home 0xCB95A34A, controller 0x01 → broadcast
/// address, sequence 3, addressing nodes {2, 3, 4} via a one-byte mask
/// and carrying BASIC_SET 0x00 ("all off"). The multicast encapsulation
/// `[mask_len, mask..., APL...]` rides inside the ordinary MAC payload.
const MULTICAST_WIRE: [u8; 15] = [
    0xCB, 0x95, 0xA3, 0x4A, // home id
    0x01, // src (controller)
    0x02, // P1: multicast header type, no ack
    0x03, // P2: sequence 3
    0x0F, // LEN = 15
    0xFF, // dst: broadcast address
    0x01, 0x0E, // multicast header: 1 mask byte, bits for nodes 2..4
    0x20, 0x01, 0x00, // BASIC_SET 0x00
    0x96, // CS-8
];

/// Routed singlecast, home 0xCB95A34A, 0x01 → 0x06 through repeaters
/// {3, 4}, sequence 9, carrying SWITCH_BINARY_SET 0xFF. The routing
/// header `[flags, hop, count, repeaters...]` precedes the APL bytes.
const ROUTED_WIRE: [u8; 18] = [
    0xCB, 0x95, 0xA3, 0x4A, // home id
    0x01, // src (controller)
    0x48, // P1: routed header type | ack requested
    0x09, // P2: sequence 9
    0x12, // LEN = 18
    0x06, // dst (final destination)
    0x01, 0x00, 0x02, 0x03, 0x04, // routing: outbound, hop 0, 2 repeaters {3, 4}
    0x25, 0x01, 0xFF, // SWITCH_BINARY_SET 0xFF
    0xC3, // CS-8
];

#[test]
fn multicast_encapsulation_encodes_to_golden_bytes() {
    let mut payload = MulticastHeader::from_nodes(&[NodeId(2), NodeId(3), NodeId(4)]).encode();
    payload.extend_from_slice(&[0x20, 0x01, 0x00]);
    let fc = FrameControl {
        header_type: HeaderType::Multicast,
        ack_requested: false,
        low_power: false,
        speed_modified: false,
        sequence: 3,
        beam_control: 0,
    };
    let frame = MacFrame::try_new(
        HomeId(0xCB95A34A),
        NodeId(0x01),
        fc,
        NodeId(0xFF),
        payload,
        ChecksumKind::Cs8,
    )
    .unwrap();
    assert_eq!(frame.encode(), MULTICAST_WIRE);
}

#[test]
fn multicast_golden_bytes_decode_to_the_mask_and_apl() {
    let frame = MacFrame::decode(&MULTICAST_WIRE).unwrap();
    assert_eq!(frame.frame_control().header_type, HeaderType::Multicast);
    assert!(!frame.frame_control().ack_requested);
    let (header, apl) = MulticastHeader::decode(frame.payload()).unwrap();
    assert_eq!(header.nodes(), vec![NodeId(2), NodeId(3), NodeId(4)]);
    assert!(!header.contains(NodeId(1)), "the sender itself is not addressed");
    assert_eq!(apl, &[0x20, 0x01, 0x00]);
}

#[test]
fn routed_frame_encodes_to_golden_bytes() {
    let mut payload = RoutingHeader::outbound(vec![NodeId(3), NodeId(4)]).encode();
    payload.extend_from_slice(&[0x25, 0x01, 0xFF]);
    let fc = FrameControl {
        header_type: HeaderType::Routed,
        ack_requested: true,
        low_power: false,
        speed_modified: false,
        sequence: 9,
        beam_control: 0,
    };
    let frame = MacFrame::try_new(
        HomeId(0xCB95A34A),
        NodeId(0x01),
        fc,
        NodeId(0x06),
        payload,
        ChecksumKind::Cs8,
    )
    .unwrap();
    assert_eq!(frame.encode(), ROUTED_WIRE);
}

#[test]
fn routed_golden_bytes_decode_and_advance_through_the_route() {
    let frame = MacFrame::decode(&ROUTED_WIRE).unwrap();
    assert_eq!(frame.frame_control().header_type, HeaderType::Routed);
    let (mut header, apl) = RoutingHeader::decode(frame.payload()).unwrap();
    assert!(header.outbound);
    assert_eq!(header.current_repeater(), Some(NodeId(3)));
    assert_eq!(apl, &[0x25, 0x01, 0xFF]);
    // Walk the two hops: the wire bytes change only in the hop index.
    header.advance();
    assert_eq!(header.current_repeater(), Some(NodeId(4)));
    assert_eq!(header.encode(), vec![0x01, 0x01, 0x02, 0x03, 0x04]);
    header.advance();
    assert!(header.on_final_leg());
}

#[test]
fn cs8_golden_vectors() {
    // Seeded with 0xFF, XOR-folded.
    assert_eq!(cs8(&[]), 0xFF);
    assert_eq!(cs8(&[0xFF]), 0x00);
    assert_eq!(cs8(&[0x01, 0x02, 0x03]), 0xFF ^ 0x01 ^ 0x02 ^ 0x03);
    assert_eq!(cs8(&SINGLECAST_WIRE[..12]), 0xD4);
    assert_eq!(cs8(&ACK_WIRE[..9]), 0x4A);
}

#[test]
fn crc16_golden_vectors() {
    // CRC-16/AUG-CCITT: init 0x1D0F, poly 0x1021, no reflection.
    assert_eq!(crc16_ccitt(&[]), 0x1D0F);
    assert_eq!(crc16_ccitt(b"A"), 0x9479);
    assert_eq!(crc16_ccitt(b"123456789"), 0xE5CC);
    assert_eq!(crc16_ccitt(&[0x20, 0x01, 0xFF]), 0xBA0B);
    assert_eq!(crc16_ccitt(&CRC16_WIRE[..11]), 0x5FA4);
}
