//! Packet dissection: the raw-bits → hex → fields pipeline of ZCover's
//! passive scanner (Figure 4: packet capturing, packet dissection, packet
//! analysis).

use std::fmt;

use serde::{Deserialize, Serialize};

use zwave_radio::FrameBuf;

use crate::apl::ApplicationPayload;
use crate::error::ProtocolError;
use crate::frame::MacFrame;
use crate::types::{HomeId, NodeId};

/// Renders raw bytes as the space-separated hex string shown in Figure 4
/// ("Hex data: 0xCB95A34A ... 0x0F 0x20 0x01 0x00 0x2A").
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("0x{b:02X}")).collect::<Vec<_>>().join(" ")
}

/// Renders raw bytes as the bit string of Figure 4's "Raw data" row.
pub fn to_bits(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:08b}")).collect::<String>()
}

/// A fully dissected Z-Wave frame: MAC fields plus, when parseable, the
/// application-layer hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dissection {
    /// Network home id (bytes 0..4, as Section III-B1 notes).
    pub home_id: HomeId,
    /// Sender node id.
    pub src: NodeId,
    /// Receiver node id.
    pub dst: NodeId,
    /// Parsed application payload, absent for empty (ack) frames.
    pub apl: Option<ApplicationPayload>,
    /// The raw wire bytes the dissection was produced from — a shared
    /// frame buffer, so dissecting a captured frame keeps a reference to
    /// the capture instead of copying it.
    pub raw: FrameBuf,
}

impl Dissection {
    /// Dissects raw wire bytes through MAC validation into fields. The
    /// decode reads the bytes in place, and they are copied once, into the
    /// dissection's [`FrameBuf`]; sniffer paths that already hold a
    /// `FrameBuf` should prefer the zero-copy [`Dissection::from_buf`].
    ///
    /// # Errors
    ///
    /// Propagates every [`MacFrame::decode`] error: a frame a real
    /// transceiver would drop is not dissected.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, ProtocolError> {
        let frame = MacFrame::decode(bytes)?;
        Ok(Dissection::from_frame(&frame, bytes))
    }

    /// Dissects a captured frame buffer without copying it: the decode
    /// reads `buf` in place and the resulting dissection shares it (a
    /// ref-count bump). Only the application-layer parse allocates.
    ///
    /// # Errors
    ///
    /// Same as [`Dissection::from_wire`].
    pub fn from_buf(buf: &FrameBuf) -> Result<Self, ProtocolError> {
        let frame = MacFrame::decode(buf)?;
        Ok(Dissection::from_frame(&frame, buf.clone()))
    }

    /// Dissects an already-decoded frame.
    pub(crate) fn from_frame(frame: &MacFrame, raw: impl Into<FrameBuf>) -> Self {
        Dissection {
            home_id: frame.home_id(),
            src: frame.src(),
            dst: frame.dst(),
            apl: ApplicationPayload::parse(frame.payload()).ok(),
            raw: raw.into(),
        }
    }

    /// The "Network info" line of Figure 4: home id and sender node id.
    pub fn network_info(&self) -> (HomeId, NodeId) {
        (self.home_id, self.src)
    }
}

impl fmt::Display for Dissection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "home={} src={} dst={}", self.home_id, self.src, self.dst)?;
        match &self.apl {
            Some(apl) => write!(f, " apl={apl}"),
            None => f.write_str(" apl=<none>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command_class::CommandClassId;

    #[test]
    fn hex_rendering_matches_figure4_style() {
        assert_eq!(to_hex(&[0x0F, 0x20, 0x01]), "0x0F 0x20 0x01");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn bit_rendering() {
        assert_eq!(to_bits(&[0b1100_1011]), "11001011");
        assert_eq!(to_bits(&[0x00, 0xFF]).len(), 16);
    }

    #[test]
    fn dissect_recovers_network_info() {
        // The Figure 4 walkthrough: home 0xCB95A34A, sender 0x0F.
        let frame = MacFrame::singlecast(
            HomeId(0xCB95A34A),
            NodeId(0x0F),
            NodeId(0x01),
            vec![0x20, 0x01, 0x00],
        );
        let d = Dissection::from_wire(&frame.encode()).unwrap();
        assert_eq!(d.network_info(), (HomeId(0xCB95A34A), NodeId(0x0F)));
        let apl = d.apl.as_ref().unwrap();
        assert_eq!(apl.command_class(), CommandClassId::BASIC);
    }

    #[test]
    fn dissect_rejects_garbage() {
        assert!(Dissection::from_wire(&[0x00, 0x01]).is_err());
    }

    #[test]
    fn ack_frames_have_no_apl() {
        let ack = MacFrame::ack(HomeId(1), NodeId(1), NodeId(2), 0);
        let d = Dissection::from_wire(&ack.encode()).unwrap();
        assert!(d.apl.is_none());
        assert!(d.to_string().contains("apl=<none>"));
    }

    #[test]
    fn display_shows_fields() {
        let frame =
            MacFrame::singlecast(HomeId(0xE7DE3F3D), NodeId(0x01), NodeId(0x02), vec![0x00]);
        let d = Dissection::from_wire(&frame.encode()).unwrap();
        let s = d.to_string();
        assert!(s.contains("E7DE3F3D") && s.contains("0x01") && s.contains("[0x00]"));
    }
}
