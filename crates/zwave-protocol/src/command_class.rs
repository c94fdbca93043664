//! Command-class identifiers and command kinds.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A one-byte Z-Wave command class identifier (the CMDCL field, position 0
/// of the application-layer hierarchy in the paper's Figure 6).
///
/// Well-known identifiers are provided as associated constants; the full
/// specification data (commands, parameters, clusters) lives in
/// [`crate::registry`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CommandClassId(pub u8);

impl CommandClassId {
    /// No Operation — the liveness ping ZCover uses for crash detection.
    pub const NO_OPERATION: CommandClassId = CommandClassId(0x00);
    /// The proprietary Z-Wave protocol / network-management class, absent
    /// from the public specification (uncovered by validation testing;
    /// seven of the paper's fifteen bugs live here).
    pub const ZWAVE_PROTOCOL: CommandClassId = CommandClassId(0x01);
    /// Proprietary Zensor-Net class, the second class uncovered by
    /// systematic validation testing.
    pub const ZENSOR_NET: CommandClassId = CommandClassId(0x02);
    /// Basic (Set/Get/Report), the Section III-D running example.
    pub const BASIC: CommandClassId = CommandClassId(0x20);
    /// Binary Switch.
    pub const SWITCH_BINARY: CommandClassId = CommandClassId(0x25);
    /// CRC-16 Encapsulation.
    pub const CRC16_ENCAP: CommandClassId = CommandClassId(0x56);
    /// Door Lock (the Schlage BE469ZP slave, D8).
    pub const DOOR_LOCK: CommandClassId = CommandClassId(0x62);
    /// Supervision.
    pub const SUPERVISION: CommandClassId = CommandClassId(0x6C);
    /// Battery.
    pub const BATTERY: CommandClassId = CommandClassId(0x80);
    /// Wake Up (bug #12 removes wake-up intervals).
    pub const WAKE_UP: CommandClassId = CommandClassId(0x84);
    /// Version (bug #10).
    pub const VERSION: CommandClassId = CommandClassId(0x86);
    /// Security 0 (AES-128 with the fixed-temp-key weakness).
    pub const SECURITY_0: CommandClassId = CommandClassId(0x98);
    /// Security 2 (ECDH + AES-CCM; bug #06 crashes the PC controller here).
    pub const SECURITY_2: CommandClassId = CommandClassId(0x9F);

    /// Raw byte value.
    pub fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for CommandClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:02X}", self.0)
    }
}

impl From<u8> for CommandClassId {
    fn from(raw: u8) -> Self {
        CommandClassId(raw)
    }
}

impl From<CommandClassId> for u8 {
    fn from(id: CommandClassId) -> Self {
        id.0
    }
}

/// Coarse classification of a command within a class (Section III-C1:
/// "CMDs can be categorized into different types, e.g., Get to retrieve
/// information and Set to configure or control").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommandKind {
    /// Retrieves state from the receiver.
    Get,
    /// Configures or actuates the receiver.
    Set,
    /// Carries state back in response to a Get.
    Report,
    /// Anything else (notifications, encapsulation, protocol machinery).
    Other,
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CommandKind::Get => "Get",
            CommandKind::Set => "Set",
            CommandKind::Report => "Report",
            CommandKind::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Which side of the network originates a command: controlling commands are
/// sent by a controller, supporting commands by a slave in response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommandRole {
    /// Sent by a controller.
    Controlling,
    /// Sent by a slave device in response.
    Supporting,
}

impl fmt::Display for CommandRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandRole::Controlling => f.write_str("controlling"),
            CommandRole::Supporting => f.write_str("supporting"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(CommandClassId::ZWAVE_PROTOCOL.to_string(), "0x01");
        assert_eq!(CommandClassId::SECURITY_2.to_string(), "0x9F");
    }

    #[test]
    fn conversion_roundtrip() {
        let id = CommandClassId::from(0x62u8);
        assert_eq!(id, CommandClassId::DOOR_LOCK);
        assert_eq!(u8::from(id), 0x62);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(CommandKind::Get.to_string(), "Get");
        assert_eq!(CommandRole::Controlling.to_string(), "controlling");
    }

    #[test]
    fn table3_bug_classes_have_expected_ids() {
        // The CMDCL column of Table III.
        assert_eq!(CommandClassId::ZWAVE_PROTOCOL.raw(), 0x01);
        assert_eq!(CommandClassId::SECURITY_2.raw(), 0x9F);
        assert_eq!(CommandClassId::VERSION.raw(), 0x86);
    }
}
