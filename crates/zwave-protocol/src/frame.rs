//! MAC-layer frame model: the paper's Figure 1 byte layout with
//! encode/decode, validation, and mutation-friendly raw access.

use serde::{Deserialize, Serialize};

use crate::checksum::{crc16_ccitt, cs8};
use crate::error::ProtocolError;
use crate::types::{ChecksumKind, HomeId, NodeId, MAC_HEADER_LEN, MAX_MAC_FRAME_LEN};

/// The frame category carried in the low nibble of the P1 frame-control byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HeaderType {
    /// Point-to-point data frame (the common case).
    #[default]
    Singlecast,
    /// Frame addressed to a set of nodes via a node mask.
    Multicast,
    /// MAC-level acknowledgement.
    Ack,
    /// Routed frame relayed through intermediate nodes.
    Routed,
}

impl HeaderType {
    /// Wire value of the header-type nibble.
    pub fn to_nibble(self) -> u8 {
        match self {
            HeaderType::Singlecast => 0x1,
            HeaderType::Multicast => 0x2,
            HeaderType::Ack => 0x3,
            HeaderType::Routed => 0x8,
        }
    }

    /// Parses the header-type nibble.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidHeaderType`] for reserved values.
    pub fn from_nibble(raw: u8) -> Result<Self, ProtocolError> {
        match raw & 0x0F {
            0x1 => Ok(HeaderType::Singlecast),
            0x2 => Ok(HeaderType::Multicast),
            0x3 => Ok(HeaderType::Ack),
            0x8 => Ok(HeaderType::Routed),
            other => Err(ProtocolError::InvalidHeaderType(other)),
        }
    }
}

/// The two frame-control bytes (P1, P2) of a G.9959 MAC header.
///
/// P1 carries the header type plus the `ack requested`, `low power` and
/// `speed modified` flags; P2 carries the 4-bit sequence number and beam
/// control bits (modelled here as the raw upper nibble).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FrameControl {
    /// Frame category (singlecast/multicast/ack/routed).
    pub header_type: HeaderType,
    /// Sender requests a MAC-level acknowledgement.
    pub ack_requested: bool,
    /// Frame transmitted at reduced power (FLiRS wake-up beams).
    pub low_power: bool,
    /// Frame transmitted at a non-default data rate.
    pub speed_modified: bool,
    /// 4-bit rolling sequence number.
    pub sequence: u8,
    /// Raw beam-control bits (upper nibble of P2), kept verbatim.
    pub beam_control: u8,
}

impl FrameControl {
    /// Frame control for an ordinary acknowledged singlecast.
    pub fn singlecast(sequence: u8) -> Self {
        FrameControl {
            header_type: HeaderType::Singlecast,
            ack_requested: true,
            sequence: sequence & 0x0F,
            ..FrameControl::default()
        }
    }

    /// Frame control for a MAC acknowledgement of `sequence`.
    pub fn ack(sequence: u8) -> Self {
        FrameControl {
            header_type: HeaderType::Ack,
            ack_requested: false,
            sequence: sequence & 0x0F,
            ..FrameControl::default()
        }
    }

    /// Encodes into the (P1, P2) byte pair.
    pub fn encode(self) -> (u8, u8) {
        let mut p1 = self.header_type.to_nibble();
        if self.ack_requested {
            p1 |= 0x40;
        }
        if self.low_power {
            p1 |= 0x20;
        }
        if self.speed_modified {
            p1 |= 0x10;
        }
        let p2 = (self.beam_control << 4) | (self.sequence & 0x0F);
        (p1, p2)
    }

    /// Decodes from the (P1, P2) byte pair.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidHeaderType`] when P1 carries a
    /// reserved header-type nibble.
    pub fn decode(p1: u8, p2: u8) -> Result<Self, ProtocolError> {
        Ok(FrameControl {
            header_type: HeaderType::from_nibble(p1)?,
            ack_requested: p1 & 0x40 != 0,
            low_power: p1 & 0x20 != 0,
            speed_modified: p1 & 0x10 != 0,
            sequence: p2 & 0x0F,
            beam_control: p2 >> 4,
        })
    }
}

// Byte offsets of the Figure 1 header fields, shared by
// [`MacFrame::decode`] and [`MacFrame::peek`].
const HOME_ID_LEN: usize = 4;
const SRC_AT: usize = 4;
const P1_AT: usize = 5;
const P2_AT: usize = 6;
const LEN_AT: usize = 7;
const DST_AT: usize = 8;

/// The MAC header fields a receiver filters on, read in place by
/// [`MacFrame::peek`]: no checksum check, no allocation, no copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacPeek {
    /// The network home identifier.
    pub home_id: HomeId,
    /// The receiver node id (DST field).
    pub dst: NodeId,
    /// The header type, or `None` for a reserved nibble (such a frame
    /// never decodes).
    pub header_type: Option<HeaderType>,
    /// The LEN field as declared; a frame decodes only when it equals the
    /// wire length.
    pub len: u8,
}

impl MacPeek {
    /// Whether the declared length leaves room for a payload between the
    /// header and the CS-8 trailer [`MacFrame::decode`] expects. A frame
    /// that decodes while this is `false` carries an empty payload.
    pub fn carries_payload(&self) -> bool {
        usize::from(self.len) > MAC_HEADER_LEN + ChecksumKind::Cs8.len()
    }

    /// Whether this is a bare MAC acknowledgement: Ack type, no payload.
    pub fn is_empty_ack(&self) -> bool {
        self.header_type == Some(HeaderType::Ack) && !self.carries_payload()
    }
}

/// A complete Z-Wave MAC frame (Figure 1 of the paper).
///
/// Invariants maintained by constructors and [`MacFrame::decode`]:
/// the encoded frame never exceeds [`MAX_MAC_FRAME_LEN`] bytes, and the LEN
/// field always equals the true encoded size. The checksum is (re)computed
/// on [`MacFrame::encode`]; intentionally corrupt frames for fuzzing are
/// produced with [`MacFrame::encode_with_checksum`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacFrame {
    home_id: HomeId,
    src: NodeId,
    frame_control: FrameControl,
    dst: NodeId,
    payload: Vec<u8>,
    checksum_kind: ChecksumKind,
}

impl MacFrame {
    /// Builds an acknowledged singlecast data frame carrying `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `payload` would push the encoded frame past
    /// [`MAX_MAC_FRAME_LEN`]; use [`MacFrame::try_new`] for fallible
    /// construction from untrusted sizes.
    pub fn singlecast(home_id: HomeId, src: NodeId, dst: NodeId, payload: Vec<u8>) -> Self {
        MacFrame::try_new(
            home_id,
            src,
            FrameControl::singlecast(0),
            dst,
            payload,
            ChecksumKind::Cs8,
        )
        .expect("payload exceeds the 64-byte MAC frame limit")
    }

    /// Builds a MAC acknowledgement frame.
    pub fn ack(home_id: HomeId, src: NodeId, dst: NodeId, sequence: u8) -> Self {
        MacFrame::try_new(
            home_id,
            src,
            FrameControl::ack(sequence),
            dst,
            Vec::new(),
            ChecksumKind::Cs8,
        )
        .expect("empty ack always fits")
    }

    /// Fallible general constructor.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::FrameTooLong`] when the encoded frame would
    /// exceed [`MAX_MAC_FRAME_LEN`].
    pub fn try_new(
        home_id: HomeId,
        src: NodeId,
        frame_control: FrameControl,
        dst: NodeId,
        payload: Vec<u8>,
        checksum_kind: ChecksumKind,
    ) -> Result<Self, ProtocolError> {
        let total = MAC_HEADER_LEN + payload.len() + checksum_kind.len();
        if total > MAX_MAC_FRAME_LEN {
            return Err(ProtocolError::FrameTooLong { len: total });
        }
        Ok(MacFrame { home_id, src, frame_control, dst, payload, checksum_kind })
    }

    /// The network home identifier.
    pub fn home_id(&self) -> HomeId {
        self.home_id
    }

    /// The sender node id (SRC field).
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The receiver node id (DST field).
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// The frame-control (P1/P2) fields.
    pub fn frame_control(&self) -> FrameControl {
        self.frame_control
    }

    /// The application payload carried after the MAC header.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Replaces the application payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::FrameTooLong`] when the new payload would
    /// exceed the MAC limit; the frame is left unchanged in that case.
    pub fn set_payload(&mut self, payload: Vec<u8>) -> Result<(), ProtocolError> {
        let total = MAC_HEADER_LEN + payload.len() + self.checksum_kind.len();
        if total > MAX_MAC_FRAME_LEN {
            return Err(ProtocolError::FrameTooLong { len: total });
        }
        self.payload = payload;
        Ok(())
    }

    /// Which checksum protects this frame.
    pub fn checksum_kind(&self) -> ChecksumKind {
        self.checksum_kind
    }

    /// Whether this is a MAC acknowledgement frame.
    pub fn is_ack(&self) -> bool {
        self.frame_control.header_type == HeaderType::Ack
    }

    /// Total encoded size in bytes, including the checksum trailer.
    pub fn encoded_len(&self) -> usize {
        MAC_HEADER_LEN + self.payload.len() + self.checksum_kind.len()
    }

    /// Serializes the frame, computing a *correct* checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes the frame (correct checksum) into `out`, clearing it
    /// first. Lets hot paths reuse one allocation across frames instead of
    /// building a fresh vector per [`MacFrame::encode`] call.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.encoded_len());
        self.encode_without_checksum_into(out);
        match self.checksum_kind {
            ChecksumKind::Cs8 => out.push(cs8(out)),
            ChecksumKind::Crc16 => {
                let crc = crc16_ccitt(out);
                out.extend_from_slice(&crc.to_be_bytes());
            }
        }
    }

    /// Serializes the frame with a caller-supplied checksum value, letting
    /// fuzzers emit deliberately corrupt trailers.
    pub fn encode_with_checksum(&self, checksum: u16) -> Vec<u8> {
        let mut out = self.encode_without_checksum();
        match self.checksum_kind {
            ChecksumKind::Cs8 => out.push(checksum as u8),
            ChecksumKind::Crc16 => out.extend_from_slice(&checksum.to_be_bytes()),
        }
        out
    }

    fn encode_without_checksum(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_without_checksum_into(&mut out);
        out
    }

    fn encode_without_checksum_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.home_id.to_bytes());
        out.push(self.src.0);
        let (p1, p2) = self.frame_control.encode();
        out.push(p1);
        out.push(p2);
        out.push(self.encoded_len() as u8);
        out.push(self.dst.0);
        out.extend_from_slice(&self.payload);
    }

    /// The home id of raw wire bytes (`None` when shorter than the field):
    /// the transceiver's hardware filter, which sees frames too short or
    /// malformed to decode.
    pub fn peek_home_id(bytes: &[u8]) -> Option<HomeId> {
        bytes.first_chunk::<HOME_ID_LEN>().map(|id| HomeId::from_bytes(*id))
    }

    /// Reads the addressing fields of raw wire bytes in place, or `None`
    /// when the buffer is shorter than a MAC header. Nothing is validated:
    /// a frame that peeks may still fail [`MacFrame::decode`], so a
    /// receiver may only use a peek to drop frames it would discard anyway.
    pub fn peek(bytes: &[u8]) -> Option<MacPeek> {
        if bytes.len() < MAC_HEADER_LEN {
            return None;
        }
        Some(MacPeek {
            home_id: Self::peek_home_id(bytes)?,
            dst: NodeId(bytes[DST_AT]),
            header_type: HeaderType::from_nibble(bytes[P1_AT]).ok(),
            len: bytes[LEN_AT],
        })
    }

    /// Parses and validates a frame from raw wire bytes (CS-8 trailer).
    ///
    /// # Errors
    ///
    /// Returns an error when the buffer is truncated, the LEN field
    /// disagrees with the actual size, the header type is reserved, or the
    /// checksum fails — the same acceptance checks a real transceiver
    /// performs before a frame ever reaches the application layer.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        Self::decode_kind(bytes, ChecksumKind::Cs8)
    }

    /// Parses and validates a frame whose trailer uses `kind`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MacFrame::decode`].
    pub fn decode_kind(bytes: &[u8], kind: ChecksumKind) -> Result<Self, ProtocolError> {
        let min = MAC_HEADER_LEN + kind.len();
        if bytes.len() < min {
            return Err(ProtocolError::TruncatedFrame { got: bytes.len(), need: min });
        }
        if bytes.len() > MAX_MAC_FRAME_LEN {
            return Err(ProtocolError::FrameTooLong { len: bytes.len() });
        }
        let declared = bytes[LEN_AT] as usize;
        if declared != bytes.len() {
            return Err(ProtocolError::LengthMismatch { declared, actual: bytes.len() });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - kind.len());
        match kind {
            ChecksumKind::Cs8 => {
                let computed = cs8(body);
                if computed != trailer[0] {
                    return Err(ProtocolError::ChecksumMismatch {
                        computed: computed as u16,
                        received: trailer[0] as u16,
                    });
                }
            }
            ChecksumKind::Crc16 => {
                let computed = crc16_ccitt(body);
                let received = u16::from_be_bytes([trailer[0], trailer[1]]);
                if computed != received {
                    return Err(ProtocolError::ChecksumMismatch { computed, received });
                }
            }
        }
        let home_id = HomeId::from_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let src = NodeId(bytes[SRC_AT]);
        let frame_control = FrameControl::decode(bytes[P1_AT], bytes[P2_AT])?;
        let dst = NodeId(bytes[DST_AT]);
        let payload = body[MAC_HEADER_LEN..].to_vec();
        Ok(MacFrame { home_id, src, frame_control, dst, payload, checksum_kind: kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MacFrame {
        MacFrame::singlecast(HomeId(0xCB95A34A), NodeId(0x0F), NodeId(0x01), vec![0x20, 0x01, 0xFF])
    }

    #[test]
    fn roundtrip_singlecast() {
        let f = sample();
        let wire = f.encode();
        assert_eq!(wire.len(), f.encoded_len());
        let back = MacFrame::decode(&wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn peek_reads_the_fields_decode_would() {
        let wire = sample().encode();
        let peek = MacFrame::peek(&wire).unwrap();
        let frame = MacFrame::decode(&wire).unwrap();
        assert_eq!(peek.home_id, frame.home_id());
        assert_eq!(peek.dst, frame.dst());
        assert_eq!(peek.header_type, Some(frame.frame_control().header_type));
        assert_eq!(usize::from(peek.len), wire.len());
        assert!(peek.carries_payload() && !peek.is_empty_ack());
        assert_eq!(MacFrame::peek_home_id(&wire), Some(frame.home_id()));
    }

    #[test]
    fn peek_tells_bare_acks_from_acks_with_payload() {
        let ack = MacFrame::ack(HomeId(1), NodeId(2), NodeId(3), 4).encode();
        assert!(MacFrame::peek(&ack).unwrap().is_empty_ack());
        let mut loaded = MacFrame::ack(HomeId(1), NodeId(2), NodeId(3), 4);
        loaded.set_payload(vec![0x9F, 0x03]).unwrap();
        let peek = MacFrame::peek(&loaded.encode()).unwrap();
        assert_eq!(peek.header_type, Some(HeaderType::Ack));
        assert!(peek.carries_payload() && !peek.is_empty_ack());
    }

    #[test]
    fn peek_needs_only_the_bytes_it_reads() {
        let wire = sample().encode();
        assert_eq!(MacFrame::peek_home_id(&wire[..3]), None);
        assert_eq!(MacFrame::peek_home_id(&wire[..4]), Some(HomeId(0xCB95A34A)));
        assert_eq!(MacFrame::peek(&wire[..MAC_HEADER_LEN - 1]), None);
        let mut reserved = wire.clone();
        reserved[5] = 0x0F;
        assert_eq!(MacFrame::peek(&reserved).unwrap().header_type, None);
    }

    #[test]
    fn len_field_matches_wire_length() {
        let wire = sample().encode();
        assert_eq!(wire[7] as usize, wire.len());
    }

    #[test]
    fn corrupt_checksum_is_rejected() {
        let mut wire = sample().encode();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert!(matches!(MacFrame::decode(&wire), Err(ProtocolError::ChecksumMismatch { .. })));
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut wire = sample().encode();
        wire[10] ^= 0x01;
        assert!(matches!(MacFrame::decode(&wire), Err(ProtocolError::ChecksumMismatch { .. })));
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let wire = sample().encode();
        assert!(matches!(MacFrame::decode(&wire[..5]), Err(ProtocolError::TruncatedFrame { .. })));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut wire = sample().encode();
        wire[7] = wire[7].wrapping_add(1);
        assert!(matches!(MacFrame::decode(&wire), Err(ProtocolError::LengthMismatch { .. })));
    }

    #[test]
    fn oversized_payload_is_refused() {
        let err = MacFrame::try_new(
            HomeId(1),
            NodeId(1),
            FrameControl::singlecast(0),
            NodeId(2),
            vec![0u8; 60],
            ChecksumKind::Cs8,
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::FrameTooLong { .. }));
    }

    #[test]
    fn max_payload_fits_exactly() {
        let payload = vec![0xAB; MAX_MAC_FRAME_LEN - MAC_HEADER_LEN - 1];
        let f = MacFrame::try_new(
            HomeId(1),
            NodeId(1),
            FrameControl::singlecast(0),
            NodeId(2),
            payload,
            ChecksumKind::Cs8,
        )
        .unwrap();
        assert_eq!(f.encode().len(), MAX_MAC_FRAME_LEN);
        assert!(MacFrame::decode(&f.encode()).is_ok());
    }

    #[test]
    fn crc16_frames_roundtrip() {
        let f = MacFrame::try_new(
            HomeId(0xE7DE3F3D),
            NodeId(0x01),
            FrameControl::singlecast(7),
            NodeId(0x02),
            vec![0x25, 0x02],
            ChecksumKind::Crc16,
        )
        .unwrap();
        let wire = f.encode();
        let back = MacFrame::decode_kind(&wire, ChecksumKind::Crc16).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn ack_frames_are_recognised() {
        let ack = MacFrame::ack(HomeId(1), NodeId(2), NodeId(1), 5);
        assert!(ack.is_ack());
        assert!(ack.payload().is_empty());
        let back = MacFrame::decode(&ack.encode()).unwrap();
        assert!(back.is_ack());
        assert_eq!(back.frame_control().sequence, 5);
    }

    #[test]
    fn frame_control_flags_roundtrip() {
        let fc = FrameControl {
            header_type: HeaderType::Routed,
            ack_requested: true,
            low_power: true,
            speed_modified: true,
            sequence: 0x0A,
            beam_control: 0x3,
        };
        let (p1, p2) = fc.encode();
        assert_eq!(FrameControl::decode(p1, p2).unwrap(), fc);
    }

    #[test]
    fn reserved_header_type_is_rejected() {
        assert!(matches!(
            FrameControl::decode(0x47, 0x00),
            Err(ProtocolError::InvalidHeaderType(7))
        ));
    }

    #[test]
    fn set_payload_respects_limit() {
        let mut f = sample();
        assert!(f.set_payload(vec![0u8; 60]).is_err());
        // Unchanged after failed set.
        assert_eq!(f.payload(), &[0x20, 0x01, 0xFF]);
        f.set_payload(vec![0x62, 0x01]).unwrap();
        assert_eq!(f.payload(), &[0x62, 0x01]);
    }

    #[test]
    fn forged_checksum_helper_emits_requested_trailer() {
        let f = sample();
        let wire = f.encode_with_checksum(0x00AA);
        assert_eq!(*wire.last().unwrap(), 0xAA);
    }
}
