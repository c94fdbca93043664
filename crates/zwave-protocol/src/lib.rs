//! Z-Wave (ITU-T G.9959) protocol model: MAC framing, the application-layer
//! `CMDCL / CMD / PARAM` hierarchy, and the command-class specification
//! registry.
//!
//! This crate is the substrate beneath the ZCover reproduction. It models the
//! exact frame structure of the paper's Figure 1:
//!
//! ```text
//! MAC:  H-ID (4B) | SRC (1B) | P1 (1B) | P2 (1B) | LEN (1B) | DST (1B) | payload | CS
//! APL:  CMDCL (1B) | CMD (1B) | PARAM1 .. PARAMn (1B each)
//! ```
//!
//! and the specification data that ZCover's *unknown properties discovery*
//! phase consumes: 122 public command classes with their commands, parameter
//! specifications, and functional clusters (the in-repo equivalent of the
//! Z-Wave Alliance specification plus the `ZWave_custom_cmd_classes.xml`
//! file the paper parses).
//!
//! # Quickstart
//!
//! ```
//! use zwave_protocol::{ApplicationPayload, CommandClassId, HomeId, MacFrame, NodeId};
//!
//! # fn main() -> Result<(), zwave_protocol::ProtocolError> {
//! // BASIC SET 0xFF ("turn the light on"), the example from Section III-D.
//! let apl = ApplicationPayload::new(CommandClassId::BASIC, 0x01, vec![0xFF]);
//! let frame = MacFrame::singlecast(HomeId(0xCB95_A34A), NodeId(0x0F), NodeId(0x01), apl.encode());
//! let wire = frame.encode();
//! let back = MacFrame::decode(&wire)?;
//! assert_eq!(back.home_id(), HomeId(0xCB95_A34A));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apl;
pub mod checksum;
pub mod command_class;
pub mod dissect;
pub mod error;
pub mod frame;
pub mod multicast;
pub mod nif;
pub mod registry;
pub mod routing;
pub mod types;

pub use apl::ApplicationPayload;
pub use command_class::{CommandClassId, CommandKind};
pub use error::ProtocolError;
pub use frame::{FrameControl, HeaderType, MacFrame, MacPeek};
pub use multicast::MulticastHeader;
pub use nif::{NodeInfoFrame, ZWAVE_PROTOCOL_CMD_NODE_INFO, ZWAVE_PROTOCOL_CMD_REQUEST_NODE_INFO};
pub use registry::{CommandClassSpec, CommandSpec, FunctionalCluster, ParamSpec, Registry};
pub use routing::RoutingHeader;
pub use types::{ChecksumKind, HomeId, NodeId, MAX_MAC_FRAME_LEN};
