//! A mains-powered routing slave whose only job is relaying source-routed
//! frames — the mesh backbone of line and mesh topologies. Repeaters are
//! the live counterpart of the `zwave-protocol::routing` hop machinery:
//! each one picks up routed frames naming it as the current repeater,
//! advances the hop index and retransmits, in both the outbound and the
//! routed-acknowledgement direction.

use zwave_protocol::{HeaderType, HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{Medium, Transceiver};

/// Simulated always-listening repeater node.
#[derive(Debug)]
pub struct SimRepeater {
    radio: Transceiver,
    home_id: HomeId,
    node_id: NodeId,
    seq: u8,
    frames_forwarded: u64,
}

impl SimRepeater {
    /// Attaches the repeater to `medium`.
    pub fn new(medium: &Medium, position_m: f64, home_id: HomeId, node_id: NodeId) -> Self {
        SimRepeater {
            radio: medium.attach(position_m),
            home_id,
            node_id,
            seq: 0,
            frames_forwarded: 0,
        }
    }

    /// The repeater's node id.
    pub(crate) fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Frames relayed so far (outbound and routed-ack legs both count).
    pub fn frames_forwarded(&self) -> u64 {
        self.frames_forwarded
    }

    pub(crate) fn station_index(&self) -> usize {
        self.radio.station_index()
    }

    pub(crate) fn rx_overflows(&self) -> u64 {
        self.radio.rx_overflows()
    }

    pub(crate) fn has_pending(&self) -> bool {
        self.radio.pending() > 0
    }

    /// Whether [`SimRepeater::poll`] could act on `raw`: a routed frame of
    /// this home.
    pub fn accepts(&self, raw: &[u8]) -> bool {
        MacFrame::peek(raw).is_some_and(|peek| {
            peek.home_id == self.home_id && peek.header_type == Some(HeaderType::Routed)
        })
    }

    /// Relays every pending routed frame that names us as the current
    /// repeater. The forwarded copy keeps the original source and
    /// destination but carries our rolled sequence number, so duplicate
    /// filters see each hop as a distinct transmission.
    pub fn poll(&mut self) {
        while let Some(rx) = self.radio.recv_where(|raw| self.accepts(raw)) {
            self.receive(&rx.bytes);
        }
    }

    /// Processes one frame as if it had just arrived, with no receive
    /// filter: what [`SimRepeater::poll`] does for each frame
    /// [`SimRepeater::accepts`] passes.
    pub fn receive(&mut self, raw: &[u8]) {
        let Ok(frame) = MacFrame::decode(raw) else { return };
        if frame.home_id() != self.home_id
            || frame.frame_control().header_type != HeaderType::Routed
        {
            return;
        }
        let Ok((mut header, apl)) = RoutingHeader::decode(frame.payload()) else { return };
        if header.current_repeater() != Some(self.node_id) {
            return;
        }
        header.advance();
        let mut payload = header.encode();
        payload.extend_from_slice(apl);
        let mut fc = frame.frame_control();
        fc.sequence = self.seq;
        self.seq = (self.seq + 1) & 0x0F;
        if let Ok(forwarded) = MacFrame::try_new(
            self.home_id,
            frame.src(),
            fc,
            frame.dst(),
            payload,
            zwave_protocol::ChecksumKind::Cs8,
        ) {
            self.radio.transmit_buf(&forwarded.to_buf());
            self.frames_forwarded += 1;
        }
    }
}
