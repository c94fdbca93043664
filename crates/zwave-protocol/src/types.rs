//! Core newtypes and constants shared across the protocol model.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Maximum size of a Z-Wave MAC frame in bytes, including the checksum
/// (Section II-A of the paper: "The maximum MAC frame size is 64 bytes").
pub const MAX_MAC_FRAME_LEN: usize = 64;

/// Number of bytes of MAC header before the payload begins:
/// `H-ID (4) + SRC (1) + P1 (1) + P2 (1) + LEN (1) + DST (1)`.
pub(crate) const MAC_HEADER_LEN: usize = 9;

/// 32-bit Z-Wave network home identifier (bytes 0..4 of every frame).
///
/// Every device joined to the same network shares one home id; frames whose
/// home id does not match are dropped by receivers. ZCover's passive scanner
/// recovers this value by sniffing a single exchange (Section III-B).
///
/// ```
/// use zwave_protocol::HomeId;
/// let h = HomeId(0xCB95A34A);
/// assert_eq!(h.to_string(), "CB95A34A");
/// assert_eq!(h.to_bytes(), [0xCB, 0x95, 0xA3, 0x4A]);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct HomeId(pub u32);

impl HomeId {
    /// Big-endian wire representation (the order the bytes appear on air).
    pub fn to_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Reassembles a home id from its big-endian wire representation.
    pub(crate) fn from_bytes(bytes: [u8; 4]) -> Self {
        HomeId(u32::from_be_bytes(bytes))
    }
}

impl fmt::Display for HomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08X}", self.0)
    }
}

impl fmt::LowerHex for HomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for HomeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u32> for HomeId {
    fn from(raw: u32) -> Self {
        HomeId(raw)
    }
}

/// 8-bit Z-Wave node identifier.
///
/// The primary controller is conventionally node `0x01`; `0xFF` is broadcast.
///
/// ```
/// use zwave_protocol::NodeId;
/// assert!(NodeId(0xFF).is_broadcast());
/// assert!(!NodeId(0x01).is_broadcast());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The conventional node id of a network's primary controller.
    pub const CONTROLLER: NodeId = NodeId(0x01);

    /// Whether this id addresses every node in the network.
    pub fn is_broadcast(self) -> bool {
        self.0 == 0xFF
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02X}", self.0)
    }
}

impl From<u8> for NodeId {
    fn from(raw: u8) -> Self {
        NodeId(raw)
    }
}

/// Which integrity check protects a frame on the wire.
///
/// Legacy (R1/R2) Z-Wave frames carry an 8-bit XOR checksum; 100 kbps R3
/// frames carry CRC-16/CCITT (Section II-A1: "basic checksums CS-8/CRC-16").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ChecksumKind {
    /// 8-bit XOR checksum seeded with `0xFF` (R1/R2 data rates).
    #[default]
    Cs8,
    /// CRC-16/CCITT with initial value `0x1D0F` (R3 data rate).
    Crc16,
}

impl ChecksumKind {
    /// Width of the checksum trailer in bytes.
    pub fn len(self) -> usize {
        match self {
            ChecksumKind::Cs8 => 1,
            ChecksumKind::Crc16 => 2,
        }
    }

    /// `true` only for a hypothetical zero-width checksum; provided for
    /// `len`/`is_empty` pairing convention.
    pub fn is_empty(self) -> bool {
        false
    }
}

impl fmt::Display for ChecksumKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChecksumKind::Cs8 => f.write_str("CS-8"),
            ChecksumKind::Crc16 => f.write_str("CRC-16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_id_roundtrips_through_wire_bytes() {
        let h = HomeId(0xE7DE3F3D);
        assert_eq!(HomeId::from_bytes(h.to_bytes()), h);
    }

    #[test]
    fn home_id_displays_as_paper_table4_format() {
        // Table IV prints home ids as bare upper-case hex.
        assert_eq!(HomeId(0xC7E9DD54).to_string(), "C7E9DD54");
        assert_eq!(format!("{:x}", HomeId(0xC7E9DD54)), "c7e9dd54");
    }

    #[test]
    fn broadcast_detection() {
        assert!(NodeId(0xFF).is_broadcast());
        assert!(!NodeId::CONTROLLER.is_broadcast());
    }

    #[test]
    fn checksum_kind_lengths() {
        assert_eq!(ChecksumKind::Cs8.len(), 1);
        assert_eq!(ChecksumKind::Crc16.len(), 2);
        assert!(!ChecksumKind::Cs8.is_empty());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(0x0F).to_string(), "0x0F");
    }

    #[test]
    fn conversions_from_raw() {
        assert_eq!(HomeId::from(5u32), HomeId(5));
        assert_eq!(NodeId::from(7u8), NodeId(7));
    }
}
