//! Node Information Frames (NIF).
//!
//! ZCover's active scanner (Section III-B2) sends a NIF request to the
//! target controller; the controller answers with its NIF listing its
//! *listed* supported command classes — e.g. controller D4 listed only 17
//! (Table IV). Both directions are carried as Z-Wave protocol (`0x01`)
//! payloads.

use serde::{Deserialize, Serialize};

use crate::command_class::CommandClassId;
use crate::error::ProtocolError;

/// Z-Wave protocol command carrying a broadcast/solicited NIF.
pub const ZWAVE_PROTOCOL_CMD_NODE_INFO: u8 = 0x01;
/// Z-Wave protocol command requesting a node's NIF.
pub const ZWAVE_PROTOCOL_CMD_REQUEST_NODE_INFO: u8 = 0x02;

/// Basic device type advertised in a NIF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BasicDeviceType {
    /// Portable controller.
    Controller,
    /// Static (mains-powered) controller — the hubs under test.
    StaticController,
    /// Simple slave.
    Slave,
    /// Routing slave (what bug #01 turns the door lock's NVM entry into).
    RoutingSlave,
}

impl BasicDeviceType {
    /// Wire byte of this device type.
    pub(crate) fn to_byte(self) -> u8 {
        match self {
            BasicDeviceType::Controller => 0x01,
            BasicDeviceType::StaticController => 0x02,
            BasicDeviceType::Slave => 0x03,
            BasicDeviceType::RoutingSlave => 0x04,
        }
    }

    /// Parses a wire byte; `None` for reserved values.
    pub fn from_byte(raw: u8) -> Option<Self> {
        match raw {
            0x01 => Some(BasicDeviceType::Controller),
            0x02 => Some(BasicDeviceType::StaticController),
            0x03 => Some(BasicDeviceType::Slave),
            0x04 => Some(BasicDeviceType::RoutingSlave),
            _ => None,
        }
    }
}

/// A parsed Node Information Frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfoFrame {
    /// Basic device type.
    pub basic: BasicDeviceType,
    /// Generic device class byte (e.g. `0x02` static controller).
    pub generic: u8,
    /// Specific device class byte.
    pub specific: u8,
    /// The *listed* supported command classes, in advertisement order.
    pub supported: Vec<CommandClassId>,
}

impl NodeInfoFrame {
    /// Builds a NIF for a static controller advertising `supported`.
    pub fn static_controller(supported: Vec<CommandClassId>) -> Self {
        NodeInfoFrame {
            basic: BasicDeviceType::StaticController,
            generic: 0x02,
            specific: 0x07,
            supported,
        }
    }

    /// Encodes as a Z-Wave protocol application payload:
    /// `[0x01, NODE_INFO, basic, generic, specific, count, classes...]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(6 + self.supported.len());
        out.push(0x01);
        out.push(ZWAVE_PROTOCOL_CMD_NODE_INFO);
        out.push(self.basic.to_byte());
        out.push(self.generic);
        out.push(self.specific);
        out.push(self.supported.len() as u8);
        out.extend(self.supported.iter().map(|c| c.0));
        out
    }

    /// Parses a NIF payload produced by [`NodeInfoFrame::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::TruncatedFrame`] when the buffer is shorter
    /// than the fixed header or the declared class count, and
    /// [`ProtocolError::UnknownCommand`] when the payload is not a
    /// `0x01 / NODE_INFO` frame or carries a reserved device type.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        if payload.len() < 6 {
            return Err(ProtocolError::TruncatedFrame { got: payload.len(), need: 6 });
        }
        if payload[0] != 0x01 || payload[1] != ZWAVE_PROTOCOL_CMD_NODE_INFO {
            return Err(ProtocolError::UnknownCommand {
                command_class: payload[0],
                command: payload[1],
            });
        }
        let basic = BasicDeviceType::from_byte(payload[2])
            .ok_or(ProtocolError::UnknownCommand { command_class: 0x01, command: payload[2] })?;
        let count = payload[5] as usize;
        let classes = &payload[6..];
        if classes.len() < count {
            return Err(ProtocolError::TruncatedFrame { got: classes.len(), need: count });
        }
        Ok(NodeInfoFrame {
            basic,
            generic: payload[3],
            specific: payload[4],
            supported: classes[..count].iter().map(|&c| CommandClassId(c)).collect(),
        })
    }
}

/// Encodes a NIF *request* payload: `[0x01, REQUEST_NODE_INFO]`.
pub fn encode_nif_request() -> Vec<u8> {
    vec![0x01, ZWAVE_PROTOCOL_CMD_REQUEST_NODE_INFO]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeInfoFrame {
        NodeInfoFrame::static_controller(vec![
            CommandClassId::BASIC,
            CommandClassId::VERSION,
            CommandClassId::SECURITY_2,
        ])
    }

    #[test]
    fn nif_roundtrips() {
        let nif = sample();
        let back = NodeInfoFrame::decode(&nif.encode()).unwrap();
        assert_eq!(back, nif);
        assert_eq!(back.supported.len(), 3);
    }

    #[test]
    fn nif_request_is_two_bytes() {
        let req = encode_nif_request();
        assert_eq!(req, vec![0x01, 0x02]);
    }

    #[test]
    fn truncated_nif_rejected() {
        let mut wire = sample().encode();
        wire.truncate(7);
        assert!(matches!(NodeInfoFrame::decode(&wire), Err(ProtocolError::TruncatedFrame { .. })));
    }

    #[test]
    fn wrong_command_rejected() {
        assert!(NodeInfoFrame::decode(&[0x20, 0x01, 0x02, 0x02, 0x07, 0x00]).is_err());
    }

    #[test]
    fn reserved_device_type_rejected() {
        let mut wire = sample().encode();
        wire[2] = 0x09;
        assert!(NodeInfoFrame::decode(&wire).is_err());
    }

    #[test]
    fn device_type_bytes_roundtrip() {
        for t in [
            BasicDeviceType::Controller,
            BasicDeviceType::StaticController,
            BasicDeviceType::Slave,
            BasicDeviceType::RoutingSlave,
        ] {
            assert_eq!(BasicDeviceType::from_byte(t.to_byte()), Some(t));
        }
        assert_eq!(BasicDeviceType::from_byte(0x00), None);
    }

    #[test]
    fn empty_class_list_is_valid() {
        let nif = NodeInfoFrame::static_controller(Vec::new());
        let back = NodeInfoFrame::decode(&nif.encode()).unwrap();
        assert!(back.supported.is_empty());
    }
}
