//! The one MAC endpoint every simulated node speaks through.
//!
//! A [`NodeRadio`] owns a node's transceiver, home id, node id and 4-bit
//! sequence counter, and is the only place a node builds a G.9959 frame:
//! singlecast sends (plain, routed, and the unacknowledged routed ack),
//! MAC acks and routed relays. Callers hand it a destination and a payload
//! and never see the frame-control bits, the CS-8 checksum or the
//! sequence rule:
//!
//! - a send rolls the counter, then stamps the rolled value;
//! - a relay stamps the current value, then rolls;
//! - a MAC ack echoes the acked frame's sequence and leaves the counter;
//! - there is one counter per node, and nothing resets it.

use zwave_protocol::frame::FrameControl;
use zwave_protocol::{ChecksumKind, HeaderType, HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{FrameBuf, Medium, RxFrame, SimInstant, Transceiver};

/// A node's MAC endpoint on the shared medium.
#[derive(Debug)]
pub(crate) struct NodeRadio {
    radio: Transceiver,
    home_id: HomeId,
    node_id: NodeId,
    seq: u8,
}

/// A frame a [`NodeRadio`] put on the air.
pub(crate) struct Sent {
    /// The encoded frame, for a bit-identical retransmission.
    pub(crate) bytes: FrameBuf,
    /// When it lands at the receivers.
    pub(crate) arrival: SimInstant,
    /// The sequence number it carries.
    pub(crate) seq: u8,
}

impl NodeRadio {
    /// Attaches node `node_id` of home `home_id` to `medium`.
    pub(crate) fn attach(
        medium: &Medium,
        position_m: f64,
        home_id: HomeId,
        node_id: NodeId,
    ) -> Self {
        NodeRadio { radio: medium.attach(position_m), home_id, node_id, seq: 0 }
    }

    pub(crate) fn home_id(&self) -> HomeId {
        self.home_id
    }

    pub(crate) fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The transceiver, for its clock and wakeup timers.
    pub(crate) fn transceiver(&self) -> &Transceiver {
        &self.radio
    }

    /// Sends `payload` to `dst` as an acknowledged singlecast.
    pub(crate) fn send(&mut self, dst: NodeId, payload: &[u8]) -> Option<Sent> {
        self.send_as(HeaderType::Singlecast, true, dst, payload)
    }

    /// Sends `apl` to `dst` as an acknowledged routed frame through
    /// `route` (repeaters in forwarding order).
    pub(crate) fn send_routed(&mut self, dst: NodeId, route: Vec<NodeId>, apl: &[u8]) {
        let mut payload = RoutingHeader::outbound(route).encode();
        payload.extend_from_slice(apl);
        self.send_as(HeaderType::Routed, true, dst, &payload);
    }

    /// Confirms a routed delivery end-to-end to `origin`: the inbound
    /// route reversed, direction bit cleared, hop reset, empty APL, no MAC
    /// ack requested. Returns whether the frame went out.
    pub(crate) fn send_routed_ack(&mut self, origin: NodeId, inbound: &RoutingHeader) -> bool {
        self.send_as(HeaderType::Routed, false, origin, &inbound.routed_ack().encode()).is_some()
    }

    fn send_as(
        &mut self,
        header_type: HeaderType,
        ack_requested: bool,
        dst: NodeId,
        payload: &[u8],
    ) -> Option<Sent> {
        self.roll();
        let fc = FrameControl {
            header_type,
            ack_requested,
            sequence: self.seq,
            ..FrameControl::default()
        };
        self.emit(self.node_id, fc, dst, payload)
    }

    /// MAC-acks `frame` when its sender asked for one (an ack is never
    /// itself acked). Returns whether an ack went out.
    pub(crate) fn ack_if_requested(&self, frame: &MacFrame) -> bool {
        if !frame.frame_control().ack_requested || frame.is_ack() {
            return false;
        }
        let ack =
            MacFrame::ack(self.home_id, self.node_id, frame.src(), frame.frame_control().sequence);
        self.radio.transmit_buf(&ack.to_buf());
        true
    }

    /// Forwards the routed `frame` whose current repeater is this node:
    /// the hop index advances, source and destination stay, and the copy
    /// carries this node's sequence number so duplicate filters see each
    /// hop as a distinct transmission. `header` and `apl` are the frame's
    /// decoded payload. Returns whether the copy went out.
    pub(crate) fn relay(
        &mut self,
        frame: &MacFrame,
        mut header: RoutingHeader,
        apl: &[u8],
    ) -> bool {
        header.advance();
        let mut payload = header.encode();
        payload.extend_from_slice(apl);
        let mut fc = frame.frame_control();
        fc.sequence = self.roll();
        self.emit(frame.src(), fc, frame.dst(), &payload).is_some()
    }

    /// Puts an already-sent frame on the air again, bit for bit (same
    /// sequence number), returning when it lands.
    pub(crate) fn resend(&self, bytes: &FrameBuf) -> SimInstant {
        self.radio.transmit_buf(bytes)
    }

    /// Advances the counter, returning its value before the roll.
    fn roll(&mut self) -> u8 {
        let current = self.seq;
        self.seq = (current + 1) & 0x0F;
        current
    }

    /// Builds and transmits one frame; a payload too long for a MAC frame
    /// is dropped.
    fn emit(&self, src: NodeId, fc: FrameControl, dst: NodeId, payload: &[u8]) -> Option<Sent> {
        let frame =
            MacFrame::try_new(self.home_id, src, fc, dst, payload, ChecksumKind::Cs8).ok()?;
        let bytes = frame.to_buf();
        let arrival = self.radio.transmit_buf(&bytes);
        Some(Sent { bytes, arrival, seq: fc.sequence })
    }

    /// Pops the next received frame `wanted` accepts, dropping the
    /// rejected frames queued ahead of it.
    pub(crate) fn recv_where(&self, wanted: impl Fn(&[u8]) -> bool) -> Option<RxFrame> {
        self.radio.recv_where(wanted)
    }

    /// Empties the receive ring unread.
    pub(crate) fn discard_pending(&self) {
        self.radio.drain_any(|_| false);
    }

    /// Whether a pump round must poll this node: a wakeup of its station
    /// fired, or frames wait in its receive ring.
    pub(crate) fn is_due(&self, fired: &[usize]) -> bool {
        fired.contains(&self.radio.station_index()) || self.radio.pending() > 0
    }

    /// Frames this node's full receive ring evicted unread.
    pub(crate) fn rx_overflows(&self) -> u64 {
        self.radio.rx_overflows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zwave_radio::SimClock;

    const HOME: HomeId = HomeId(0xC0FF_EE01);
    const ME: NodeId = NodeId(0x05);
    const PEER: NodeId = NodeId(0x02);

    /// A node under test plus a listener that hears everything it sends.
    fn pair() -> (NodeRadio, Transceiver) {
        let medium = Medium::new(SimClock::new(), 1);
        let node = NodeRadio::attach(&medium, 0.0, HOME, ME);
        let listener = medium.attach(5.0);
        (node, listener)
    }

    /// Decodes every frame the listener heard since the last call.
    fn heard(listener: &Transceiver) -> Vec<MacFrame> {
        listener.drain().iter().map(|rx| MacFrame::decode(&rx.bytes).unwrap()).collect()
    }

    /// A routed frame from `PEER` whose current repeater is this node.
    fn routed_through_me(sequence: u8) -> (MacFrame, RoutingHeader, Vec<u8>) {
        let header = RoutingHeader::outbound(vec![ME]);
        let apl = vec![0x20, 0x01, 0xFF];
        let mut payload = header.encode();
        payload.extend_from_slice(&apl);
        let mut fc = FrameControl::singlecast(sequence);
        fc.header_type = HeaderType::Routed;
        let frame =
            MacFrame::try_new(HOME, PEER, fc, NodeId::CONTROLLER, payload, ChecksumKind::Cs8)
                .unwrap();
        (frame, header, apl)
    }

    #[test]
    fn a_send_stamps_the_rolled_sequence_and_a_relay_the_pre_roll_value() {
        let (mut node, listener) = pair();
        let sent = node.send(PEER, &[0x20, 0x02]).unwrap();
        assert_eq!(sent.seq, 1, "a send rolls 0 -> 1, then stamps 1");
        assert_eq!(node.seq, 1);

        let (frame, header, apl) = routed_through_me(0x0C);
        assert!(node.relay(&frame, header, &apl));
        assert_eq!(node.seq, 2, "a relay rolls after stamping");

        let frames = heard(&listener);
        assert_eq!(frames.len(), 2);
        let (send, relay) = (&frames[0], &frames[1]);
        assert_eq!((send.src(), send.dst()), (ME, PEER));
        assert_eq!(send.frame_control(), FrameControl::singlecast(1));
        assert_eq!(relay.frame_control().sequence, 1, "the relay stamps the pre-roll value");
        assert_eq!((relay.src(), relay.dst()), (PEER, NodeId::CONTROLLER));
        let (forwarded, rest) = RoutingHeader::decode(relay.payload()).unwrap();
        assert_eq!(forwarded.current_repeater(), None, "the hop index advanced past us");
        assert_eq!(rest, &apl[..]);
    }

    #[test]
    fn sends_and_relays_share_one_counter_that_wraps_at_sixteen() {
        let (mut node, listener) = pair();
        let mut stamped = Vec::new();
        for i in 0..20 {
            if i % 3 == 2 {
                let (frame, header, apl) = routed_through_me(0);
                assert!(node.relay(&frame, header, &apl));
            } else {
                node.send(PEER, &[0x20, 0x02]).unwrap();
            }
            stamped.extend(heard(&listener).iter().map(|f| f.frame_control().sequence));
        }
        // Sends stamp the counter after rolling, relays before: a relay
        // repeats the value the send ahead of it stamped.
        let mut expected = Vec::new();
        let mut seq = 0u8;
        for i in 0..20 {
            if i % 3 == 2 {
                expected.push(seq);
                seq = (seq + 1) & 0x0F;
            } else {
                seq = (seq + 1) & 0x0F;
                expected.push(seq);
            }
        }
        assert_eq!(stamped, expected);
        assert_eq!(node.seq, 20 % 16);

        // Sixteen sends from a fresh node: 1..=15, then the wrap to 0.
        let (mut fresh, _listener) = pair();
        let seqs: Vec<u8> = (0..16).map(|_| fresh.send(PEER, &[0x20, 0x02]).unwrap().seq).collect();
        assert_eq!(seqs, (1..=15).chain([0]).collect::<Vec<u8>>(), "0x0F wraps to 0");
    }

    #[test]
    fn an_ack_echoes_the_acked_sequence_and_leaves_the_counter() {
        let (mut node, listener) = pair();
        node.send(PEER, &[0x20, 0x02]).unwrap();
        heard(&listener);
        let acked = MacFrame::try_new(
            HOME,
            PEER,
            FrameControl::singlecast(0x0B),
            ME,
            [0x20, 0x02],
            ChecksumKind::Cs8,
        )
        .unwrap();
        assert!(node.ack_if_requested(&acked));
        assert_eq!(node.seq, 1, "an ack does not roll the counter");
        let ack = &heard(&listener)[0];
        assert!(ack.is_ack());
        assert_eq!((ack.src(), ack.dst(), ack.frame_control().sequence), (ME, PEER, 0x0B));

        let mut unacked = FrameControl::singlecast(0x0B);
        unacked.ack_requested = false;
        let quiet = MacFrame::try_new(HOME, PEER, unacked, ME, [], ChecksumKind::Cs8).unwrap();
        assert!(!node.ack_if_requested(&quiet), "no ack was requested");
        let mut ack_fc = FrameControl::ack(0x0B);
        ack_fc.ack_requested = true;
        let needy_ack = MacFrame::try_new(HOME, PEER, ack_fc, ME, [], ChecksumKind::Cs8).unwrap();
        assert!(!node.ack_if_requested(&needy_ack), "an ack is never acked");
        assert!(heard(&listener).is_empty());
    }
}
