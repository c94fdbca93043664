//! The attacker's transceiver dongle: the simulated YARD Stick One that
//! sniffs, crafts and injects Z-Wave frames (design assumption of Section
//! III-A: ZCover "operates externally using specialized hardware").

use std::time::Duration;

use zwave_protocol::frame::{FrameControl, HeaderType};
use zwave_protocol::{ChecksumKind, HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{FrameBuf, Medium, RxFrame, SimClock, Transceiver};

/// Default time the dongle waits for a device response after injecting.
/// Chosen so the paper's observed campaign rate (~800 packets in ~600 s,
/// Section IV-B2) is reproduced.
pub(crate) const DEFAULT_RESPONSE_WAIT: Duration = Duration::from_millis(350);

/// The attacker-side radio with spoofing and liveness-probe support.
#[derive(Debug)]
pub struct Dongle {
    radio: Transceiver,
    clock: SimClock,
    seq: u8,
    /// Source-routing header (repeater chain in forwarding order)
    /// prepended to every injected APL frame. `None` = direct range.
    route: Option<RoutingHeader>,
    /// The last frame injected, kept for byte-identical retransmission;
    /// `None` before the first injection and after a refused one.
    last_frame: Option<FrameBuf>,
    /// Reused scratch for assembling a routed payload (routing header,
    /// then the APL) before it is copied into the frame.
    scratch: Vec<u8>,
}

/// Outcome of a liveness ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingOutcome {
    /// The target MAC-acked the NOP within the wait window.
    Alive,
    /// No acknowledgement: the target is hung, busy, or down.
    Unresponsive,
}

impl Dongle {
    /// Attaches the dongle to `medium` at `position_m` metres (the paper's
    /// attacker operates from 10-70 m away).
    pub fn attach(medium: &Medium, position_m: f64) -> Self {
        let radio = medium.attach(position_m);
        Dongle {
            radio,
            clock: medium.clock().clone(),
            seq: 0,
            route: None,
            last_frame: None,
            scratch: Vec::new(),
        }
    }

    /// Sets the repeater chain injected APL frames ride to the target
    /// (forwarding order), or clears it. On a multi-hop topology the
    /// controller is out of the attacker's direct range, so every crafted
    /// frame must carry a source-routing header naming live repeaters —
    /// exactly what a real attacker learns by sniffing routed traffic.
    /// An empty chain is normalised to `None`.
    ///
    /// # Panics
    ///
    /// Panics on a chain of more than four repeaters, which no routing
    /// header can carry.
    pub fn set_route(&mut self, route: Option<Vec<NodeId>>) {
        self.route = route.filter(|r| !r.is_empty()).map(RoutingHeader::outbound);
    }

    /// Crafts and injects an application payload as `src` → `dst` with a
    /// valid checksum (ZCover always sends MAC-valid frames; only the APL
    /// content is fuzzed, per Table I).
    ///
    /// A payload too large for one MAC frame is refused: nothing goes on
    /// the air, the sequence number does not move, and there is nothing
    /// left for `Dongle::retransmit_last` to resend.
    pub fn inject_apl(
        &mut self,
        home_id: HomeId,
        src: NodeId,
        dst: NodeId,
        payload: impl AsRef<[u8]>,
    ) {
        let seq = (self.seq + 1) & 0x0F;
        let mut fc = FrameControl::singlecast(seq);
        fc.sequence = seq;
        let payload = match &self.route {
            None => payload.as_ref(),
            Some(header) => {
                // Ride the mesh: routing header first, fuzzed APL after.
                fc.header_type = HeaderType::Routed;
                header.encode_into(&mut self.scratch);
                self.scratch.extend_from_slice(payload.as_ref());
                &self.scratch
            }
        };
        let Ok(frame) = MacFrame::try_new(home_id, src, fc, dst, payload, ChecksumKind::Cs8) else {
            // Oversized mutants are silently clamped by the caller.
            self.last_frame = None;
            return;
        };
        self.seq = seq;
        self.send_buf(frame.to_buf());
    }

    /// Injects raw bytes verbatim, with no routing header even when a
    /// route is set (`FuzzMode::Vfuzz`'s MAC mutants and replay attacks
    /// use this).
    pub(crate) fn inject_raw(&mut self, bytes: &[u8]) {
        self.send_buf(FrameBuf::from_slice(bytes));
    }

    /// Transmits `buf` and keeps it for byte-identical retransmission.
    fn send_buf(&mut self, buf: FrameBuf) {
        self.radio.transmit_buf(&buf);
        self.last_frame = Some(buf);
    }

    /// G.9959-style retransmission: resends the last injected frame
    /// *byte-identically* (same sequence number), so a receiver whose ack
    /// was lost recognises the copy as a duplicate instead of reprocessing
    /// it. Returns `false` when nothing has been injected yet.
    pub(crate) fn retransmit_last(&mut self) -> bool {
        let Some(frame) = &self.last_frame else {
            return false;
        };
        // A resend is a ref-count bump per receiver, never a copy.
        self.radio.transmit_buf(frame);
        true
    }

    /// Advances virtual time by the response-wait window.
    pub(crate) fn wait_for_responses(&self) {
        self.clock.advance(DEFAULT_RESPONSE_WAIT);
    }

    /// Drains all frames captured by the dongle.
    pub(crate) fn drain(&self) -> Vec<RxFrame> {
        self.radio.drain()
    }

    /// Drops every frame captured so far and reports whether any of them
    /// satisfies `matches` (tried in capture order, up to the first hit),
    /// without collecting them.
    pub(crate) fn drain_any(&self, matches: impl FnMut(&[u8]) -> bool) -> bool {
        self.radio.drain_any(matches)
    }

    /// Drops any stale captures.
    pub(crate) fn flush(&self) {
        self.drain_any(|_| false);
    }

    /// Sends a NOP liveness ping spoofed as `src` and reports whether the
    /// target acked — the crash-verification probe of Section IV-A. The
    /// caller must pump the target between injection and the check, so the
    /// probe is split: [`Dongle::send_ping`] then [`Dongle::check_ping`].
    pub fn send_ping(&mut self, home_id: HomeId, src: NodeId, dst: NodeId) {
        self.flush();
        self.inject_apl(home_id, src, dst, [0x00]);
    }

    /// Checks captures for the MAC ack answering a previous
    /// [`Dongle::send_ping`].
    pub fn check_ping(&self, target: NodeId) -> PingOutcome {
        let acked = self.drain_any(|bytes| {
            MacFrame::decode(bytes).is_ok_and(|m| m.is_ack() && m.src() == target)
        });
        if acked {
            PingOutcome::Alive
        } else {
            PingOutcome::Unresponsive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    #[test]
    fn ping_detects_liveness_and_outage() {
        let mut tb = Testbed::new(DeviceModel::D1, 5);
        let home = tb.controller().home_id();
        let mut dongle = Dongle::attach(tb.medium(), 70.0);

        dongle.send_ping(home, NodeId(0x03), NodeId(0x01));
        tb.pump();
        assert_eq!(dongle.check_ping(NodeId(0x01)), PingOutcome::Alive);

        // Trigger bug #07 (68 s outage) and ping again.
        dongle.inject_apl(home, NodeId(0x03), NodeId(0x01), vec![0x5A, 0x01, 0x00]);
        tb.pump();
        dongle.send_ping(home, NodeId(0x03), NodeId(0x01));
        tb.pump();
        assert_eq!(dongle.check_ping(NodeId(0x01)), PingOutcome::Unresponsive);

        // After the outage the controller answers again.
        tb.clock().advance(Duration::from_secs(69));
        dongle.send_ping(home, NodeId(0x03), NodeId(0x01));
        tb.pump();
        assert_eq!(dongle.check_ping(NodeId(0x01)), PingOutcome::Alive);
    }

    #[test]
    fn injection_counts_and_oversize_clamp() {
        let tb = Testbed::new(DeviceModel::D1, 5);
        let mut dongle = Dongle::attach(tb.medium(), 70.0);
        let sent = || tb.medium().stats().frames_sent;
        let before = sent();
        dongle.inject_apl(tb.controller().home_id(), NodeId(2), NodeId(1), vec![0x20, 0x01]);
        assert_eq!(sent() - before, 1);
        // A payload beyond the MAC limit is refused, not panicked on.
        dongle.inject_apl(tb.controller().home_id(), NodeId(2), NodeId(1), vec![0u8; 60]);
        assert_eq!(sent() - before, 1);
    }

    #[test]
    fn a_refused_payload_leaves_nothing_to_retransmit_and_keeps_the_sequence() {
        let medium = Medium::new(SimClock::new(), 5);
        let listener = medium.attach(0.0);
        let mut dongle = Dongle::attach(&medium, 70.0);
        let (home, src, dst) = (HomeId(0xCB95_A34A), NodeId(2), NodeId(1));
        let sequence = |bytes: &[u8]| MacFrame::decode(bytes).unwrap().frame_control().sequence;

        dongle.inject_apl(home, src, dst, [0x20, 0x01]);
        let first = listener.drain();
        assert_eq!(first.len(), 1);
        dongle.inject_apl(home, src, dst, [0u8; 60]);
        assert_eq!(listener.pending(), 0, "a refused payload goes nowhere");
        assert!(!dongle.retransmit_last(), "nothing to resend for a refused payload");
        assert_eq!(medium.stats().frames_sent, 1);

        // The next accepted frame takes the sequence number the refused one
        // would have had, and it is what a retransmission resends.
        dongle.inject_apl(home, src, dst, [0x20, 0x02]);
        assert!(dongle.retransmit_last());
        let next = listener.drain();
        assert_eq!(next.len(), 2);
        assert_eq!(sequence(&next[0].bytes), (sequence(&first[0].bytes) + 1) & 0x0F);
        assert_eq!(next[0].bytes, next[1].bytes, "the resend is the current frame");
    }

    #[test]
    fn wait_advances_virtual_time() {
        let tb = Testbed::new(DeviceModel::D1, 5);
        let dongle = Dongle::attach(tb.medium(), 70.0);
        let t0 = tb.clock().now();
        dongle.wait_for_responses();
        assert_eq!(tb.clock().now().duration_since(t0), DEFAULT_RESPONSE_WAIT);
    }
}
