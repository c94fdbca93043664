//! Multicast addressing: the G.9959 multicast frame carries a node
//! bit-mask ahead of the application payload, letting one transmission
//! address up to 232 nodes ("switch all off" scenes and the like).

use serde::{Deserialize, Serialize};

use crate::error::ProtocolError;
use crate::types::NodeId;

/// Maximum mask width in bytes (232 node bits).
pub(crate) const MAX_MASK_BYTES: usize = 29;

/// The multicast address header preceding the APL payload.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MulticastHeader {
    mask: Vec<u8>,
}

impl MulticastHeader {
    /// Builds a header addressing exactly `nodes`.
    pub fn from_nodes(nodes: &[NodeId]) -> Self {
        let mut mask = Vec::new();
        for node in nodes {
            if node.0 == 0 || node.is_broadcast() {
                continue;
            }
            let bit = (node.0 - 1) as usize;
            let byte = bit / 8;
            if byte >= MAX_MASK_BYTES {
                continue;
            }
            if mask.len() <= byte {
                mask.resize(byte + 1, 0);
            }
            mask[byte] |= 1 << (bit % 8);
        }
        MulticastHeader { mask }
    }

    /// Whether `node` is addressed.
    pub fn contains(&self, node: NodeId) -> bool {
        if node.0 == 0 || node.is_broadcast() {
            return false;
        }
        let bit = (node.0 - 1) as usize;
        self.mask.get(bit / 8).map(|b| b & (1 << (bit % 8)) != 0).unwrap_or(false)
    }

    /// Every addressed node, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (byte_idx, byte) in self.mask.iter().enumerate() {
            for bit in 0..8 {
                if byte & (1 << bit) != 0 {
                    out.push(NodeId((byte_idx * 8 + bit + 1) as u8));
                }
            }
        }
        out
    }

    /// Serializes as `[mask_len, mask...]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.mask.len());
        out.push(self.mask.len() as u8);
        out.extend_from_slice(&self.mask);
        out
    }

    /// Parses the header from the front of a multicast payload; returns
    /// the header and the remaining APL bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::TruncatedFrame`] when the buffer is
    /// shorter than the declared mask, and [`ProtocolError::FrameTooLong`]
    /// when the declared mask exceeds `MAX_MASK_BYTES`.
    pub fn decode(bytes: &[u8]) -> Result<(Self, &[u8]), ProtocolError> {
        let &len = bytes.first().ok_or(ProtocolError::TruncatedFrame { got: 0, need: 1 })?;
        let len = len as usize;
        if len > MAX_MASK_BYTES {
            return Err(ProtocolError::FrameTooLong { len });
        }
        if bytes.len() < 1 + len {
            return Err(ProtocolError::TruncatedFrame { got: bytes.len(), need: 1 + len });
        }
        Ok((MulticastHeader { mask: bytes[1..1 + len].to_vec() }, &bytes[1 + len..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_addressing() {
        let header = MulticastHeader::from_nodes(&[NodeId(2), NodeId(3), NodeId(16), NodeId(200)]);
        assert!(header.contains(NodeId(2)));
        assert!(header.contains(NodeId(200)));
        assert!(!header.contains(NodeId(4)));
        assert_eq!(header.nodes(), vec![NodeId(2), NodeId(3), NodeId(16), NodeId(200)]);
        let encoded = header.encode();
        let (back, rest) = MulticastHeader::decode(&encoded).unwrap();
        assert_eq!(back, header);
        assert!(rest.is_empty());
    }

    #[test]
    fn trailing_apl_survives_decode() {
        let mut bytes = MulticastHeader::from_nodes(&[NodeId(5)]).encode();
        bytes.extend_from_slice(&[0x20, 0x01, 0x00]);
        let (header, apl) = MulticastHeader::decode(&bytes).unwrap();
        assert!(header.contains(NodeId(5)));
        assert_eq!(apl, &[0x20, 0x01, 0x00]);
    }

    #[test]
    fn reserved_ids_are_never_addressed() {
        let header = MulticastHeader::from_nodes(&[NodeId(0), NodeId(0xFF), NodeId(7)]);
        assert_eq!(header.nodes(), vec![NodeId(7)]);
        assert!(!header.contains(NodeId(0)));
        assert!(!header.contains(NodeId(0xFF)));
    }

    #[test]
    fn malformed_headers_are_rejected() {
        assert!(MulticastHeader::decode(&[]).is_err());
        assert!(MulticastHeader::decode(&[5, 0x01]).is_err());
        assert!(MulticastHeader::decode(&[30]).is_err());
    }

    #[test]
    fn node_one_maps_to_bit_zero() {
        let header = MulticastHeader::from_nodes(&[NodeId(1)]);
        assert_eq!(header.encode(), vec![1, 0b0000_0001]);
    }

    #[test]
    fn empty_header_addresses_nothing() {
        let header = MulticastHeader::default();
        assert!(header.nodes().is_empty());
        assert_eq!(header.encode(), vec![0]);
        assert!(!header.contains(NodeId(1)));
    }
}
