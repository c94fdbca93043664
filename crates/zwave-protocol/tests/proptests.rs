//! Property-based tests for the frame codec, checksums, and APL model.

use proptest::prelude::*;

use zwave_protocol::apl::{ApplicationPayload, FieldPosition};
use zwave_protocol::checksum::{crc16_ccitt, cs8};
use zwave_protocol::dissect::{to_bits, to_hex, Dissection};
use zwave_protocol::frame::{FrameControl, HeaderType, MacFrame};
use zwave_protocol::nif::{BasicDeviceType, NodeInfoFrame};
use zwave_protocol::{ChecksumKind, CommandClassId, HomeId, NodeId};

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..=53)
}

/// A well-formed CS-8 frame — the trailer kind [`Dissection::from_wire`]
/// validates against, mirroring the passive scanner's capture path.
fn arb_cs8_frame() -> impl Strategy<Value = MacFrame> {
    (any::<u32>(), any::<u8>(), any::<u8>(), 0u8..16, arb_payload()).prop_map(
        |(home, src, dst, seq, mut payload)| {
            payload.truncate(zwave_protocol::MAX_MAC_FRAME_LEN - 9 - ChecksumKind::Cs8.len());
            MacFrame::try_new(
                HomeId(home),
                NodeId(src),
                FrameControl::singlecast(seq),
                NodeId(dst),
                payload,
                ChecksumKind::Cs8,
            )
            .expect("payload bounded above")
        },
    )
}

fn arb_frame() -> impl Strategy<Value = MacFrame> {
    (any::<u32>(), any::<u8>(), any::<u8>(), 0u8..16, arb_payload(), any::<bool>()).prop_map(
        |(home, src, dst, seq, payload, crc)| {
            let kind = if crc { ChecksumKind::Crc16 } else { ChecksumKind::Cs8 };
            // CRC-16 frames have one byte less payload headroom.
            let mut payload = payload;
            payload.truncate(zwave_protocol::MAX_MAC_FRAME_LEN - 9 - kind.len());
            MacFrame::try_new(
                HomeId(home),
                NodeId(src),
                FrameControl::singlecast(seq),
                NodeId(dst),
                payload,
                kind,
            )
            .expect("payload bounded above")
        },
    )
}

proptest! {
    /// encode → decode is the identity for every well-formed frame.
    #[test]
    fn frame_roundtrip(frame in arb_frame()) {
        let wire = frame.encode();
        let back = MacFrame::decode_kind(&wire, frame.checksum_kind()).unwrap();
        prop_assert_eq!(back, frame);
    }

    /// `to_buf` is `encode` in a shared buffer, and `encode_with_checksum`
    /// given the correct trailer writes the same bytes, for every
    /// well-formed frame and both checksum kinds.
    #[test]
    fn to_buf_and_encode_with_checksum_match_encode(frame in arb_frame()) {
        let wire = frame.encode();
        let buf = frame.to_buf();
        prop_assert_eq!(buf.as_slice(), wire.as_slice());
        let trailer = match frame.checksum_kind() {
            ChecksumKind::Cs8 => u16::from(wire[wire.len() - 1]),
            ChecksumKind::Crc16 => u16::from_be_bytes([wire[wire.len() - 2], wire[wire.len() - 1]]),
        };
        prop_assert_eq!(frame.encode_with_checksum(trailer), wire);
    }

    /// Flipping any single bit of the wire image is always detected: by the
    /// checksum, the LEN consistency check, or the header-type check.
    #[test]
    fn any_single_bitflip_is_rejected_or_changes_fields(
        frame in arb_frame(),
        byte_idx in 0usize..64,
        bit in 0u8..8,
    ) {
        let mut wire = frame.encode();
        let idx = byte_idx % wire.len();
        wire[idx] ^= 1 << bit;
        // CS-8 is weak but never lets a *single* bit flip through
        // unnoticed; CRC-16 detects all single-bit errors.
        if let Ok(decoded) = MacFrame::decode_kind(&wire, frame.checksum_kind()) {
            prop_assert_ne!(decoded, frame.clone());
        }
        // With CS-8/CRC intact semantics, decode of the pristine image
        // still succeeds.
        prop_assert!(MacFrame::decode_kind(&frame.encode(), frame.checksum_kind()).is_ok());
    }

    /// Decode never panics on arbitrary byte soup.
    #[test]
    fn decode_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..=80)) {
        let _ = MacFrame::decode(&bytes);
        let _ = MacFrame::decode_kind(&bytes, ChecksumKind::Crc16);
        let _ = ApplicationPayload::parse(&bytes);
    }

    /// CS-8 is a left fold of XOR: appending a byte XORs it in.
    #[test]
    fn cs8_incremental(data in arb_payload(), extra in any::<u8>()) {
        let mut with_extra = data.clone();
        with_extra.push(extra);
        prop_assert_eq!(cs8(&with_extra), cs8(&data) ^ extra);
    }

    /// CRC-16 distinguishes any two buffers differing in a single byte.
    #[test]
    fn crc16_detects_single_byte_change(data in proptest::collection::vec(any::<u8>(), 1..40), idx in 0usize..40, delta in 1u8..=255) {
        let mut changed = data.clone();
        let i = idx % changed.len();
        changed[i] = changed[i].wrapping_add(delta);
        prop_assert_ne!(crc16_ccitt(&data), crc16_ccitt(&changed));
    }

    /// APL parse → encode is the identity on non-empty payloads.
    #[test]
    fn apl_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..=40)) {
        let pld = ApplicationPayload::parse(&bytes).unwrap();
        prop_assert_eq!(pld.encode(), bytes);
    }

    /// set_field followed by field reads back the written value.
    #[test]
    fn set_then_get_field(
        bytes in proptest::collection::vec(any::<u8>(), 2..=20),
        pos_idx in 0usize..20,
        value in any::<u8>(),
    ) {
        let mut pld = ApplicationPayload::parse(&bytes).unwrap();
        let pos = match pos_idx % bytes.len() {
            0 => FieldPosition::CommandClass,
            1 => FieldPosition::Command,
            n => FieldPosition::Param(n - 2),
        };
        prop_assert!(pld.set_field(pos, value));
        prop_assert_eq!(pld.field(pos), Some(value));
    }

    /// NIF encode → decode is the identity.
    #[test]
    fn nif_roundtrip(classes in proptest::collection::vec(any::<u8>(), 0..=40), ty in 1u8..=4) {
        let nif = NodeInfoFrame {
            basic: BasicDeviceType::from_byte(ty).unwrap(),
            generic: 0x02,
            specific: 0x07,
            supported: classes.into_iter().map(CommandClassId).collect(),
        };
        prop_assert_eq!(NodeInfoFrame::decode(&nif.encode()).unwrap(), nif);
    }

    /// The dissector is total on arbitrary byte soup and idempotent on
    /// whatever it accepts: a successful dissection remembers the exact
    /// wire image, and re-dissecting that image reproduces it.
    #[test]
    fn dissect_total_and_stable_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..=80)) {
        let _ = to_hex(&bytes);
        let _ = to_bits(&bytes);
        if let Ok(d) = Dissection::from_wire(&bytes) {
            prop_assert_eq!(&d.raw, &bytes);
            prop_assert_eq!(Dissection::from_wire(&d.raw).unwrap(), d);
        }
    }

    /// Every well-formed CS-8 frame dissects: the MAC addressing fields
    /// come back exactly, and an accepted APL re-encodes into the frame
    /// payload (round-trips what it accepts).
    #[test]
    fn dissect_roundtrips_well_formed_frames(frame in arb_cs8_frame()) {
        let wire = frame.encode();
        let d = Dissection::from_wire(&wire).unwrap();
        prop_assert_eq!(d.home_id, frame.home_id());
        prop_assert_eq!(d.src, frame.src());
        prop_assert_eq!(d.dst, frame.dst());
        match &d.apl {
            Some(apl) => prop_assert_eq!(apl.encode(), frame.payload().to_vec()),
            None => prop_assert!(frame.payload().is_empty()),
        }
    }

    /// Frame-control bytes roundtrip for every valid header type.
    #[test]
    fn frame_control_roundtrip(seq in 0u8..16, beam in 0u8..16, a in any::<bool>(), l in any::<bool>(), s in any::<bool>()) {
        for ht in [HeaderType::Singlecast, HeaderType::Multicast, HeaderType::Ack, HeaderType::Routed] {
            let fc = FrameControl {
                header_type: ht,
                ack_requested: a,
                low_power: l,
                speed_modified: s,
                sequence: seq,
                beam_control: beam,
            };
            let (p1, p2) = fc.encode();
            prop_assert_eq!(FrameControl::decode(p1, p2).unwrap(), fc);
        }
    }
}
