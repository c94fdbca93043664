//! The attacker's transceiver dongle: the simulated YARD Stick One that
//! sniffs, crafts and injects Z-Wave frames (design assumption of Section
//! III-A: ZCover "operates externally using specialized hardware").

use std::time::Duration;

use zwave_protocol::frame::{FrameControl, HeaderType};
use zwave_protocol::{ChecksumKind, HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{FrameBuf, FrameBufPool, Medium, RxFrame, SimClock, Transceiver};

/// Default time the dongle waits for a device response after injecting.
/// Chosen so the paper's observed campaign rate (~800 packets in ~600 s,
/// Section IV-B2) is reproduced.
pub const DEFAULT_RESPONSE_WAIT: Duration = Duration::from_millis(350);

/// The attacker-side radio with spoofing and liveness-probe support.
#[derive(Debug)]
pub struct Dongle {
    radio: Transceiver,
    clock: SimClock,
    seq: u8,
    response_wait: Duration,
    frames_injected: u64,
    retransmissions: u64,
    /// Repeater chain (forwarding order) prepended to every injected APL
    /// frame as a source-routing header. `None` = direct range.
    route: Option<Vec<NodeId>>,
    last_frame: Option<FrameBuf>,
    /// Scratch buffers for frame encoding: each injection reuses a retired
    /// allocation once the receivers have dropped their clones, so the
    /// fuzzing hot loop stops allocating a fresh `Vec` per trial packet.
    pool: FrameBufPool,
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
        radio.set_promiscuous(true);
        Dongle {
            radio,
            clock: medium.clock().clone(),
            seq: 0,
            response_wait: DEFAULT_RESPONSE_WAIT,
            frames_injected: 0,
            retransmissions: 0,
            route: None,
            last_frame: None,
            pool: FrameBufPool::new(),
        }
    }

    /// Overrides the per-packet response wait.
    pub fn set_response_wait(&mut self, wait: Duration) {
        self.response_wait = wait;
    }

    /// The per-packet response wait.
    pub fn response_wait(&self) -> Duration {
        self.response_wait
    }

    /// Total frames injected so far.
    pub fn frames_injected(&self) -> u64 {
        self.frames_injected
    }

    /// Total link-layer retransmissions performed so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Sets the repeater chain injected APL frames ride to the target
    /// (forwarding order), or clears it. On a multi-hop topology the
    /// controller is out of the attacker's direct range, so every crafted
    /// frame must carry a source-routing header naming live repeaters —
    /// exactly what a real attacker learns by sniffing routed traffic.
    /// An empty chain is normalised to `None`.
    pub fn set_route(&mut self, route: Option<Vec<NodeId>>) {
        self.route = route.filter(|r| !r.is_empty());
    }

    /// The currently configured injection route, if any.
    pub fn route(&self) -> Option<&[NodeId]> {
        self.route.as_deref()
    }

    /// Crafts and injects an application payload as `src` → `dst` with a
    /// valid checksum (ZCover always sends MAC-valid frames; only the APL
    /// content is fuzzed, per Table I).
    pub fn inject_apl(&mut self, home_id: HomeId, src: NodeId, dst: NodeId, payload: Vec<u8>) {
        self.seq = (self.seq + 1) & 0x0F;
        let mut fc = FrameControl::singlecast(self.seq);
        fc.sequence = self.seq;
        let payload = match &self.route {
            None => payload,
            Some(route) => {
                // Ride the mesh: routing header first, fuzzed APL after.
                fc.header_type = HeaderType::Routed;
                let mut routed = RoutingHeader::outbound(route.clone()).encode();
                routed.extend_from_slice(&payload);
                routed
            }
        };
        let Ok(frame) = MacFrame::try_new(home_id, src, fc, dst, payload, ChecksumKind::Cs8) else {
            return; // oversized mutants are silently clamped by the caller
        };
        let mut buf = self.pool.acquire();
        frame.encode_into(buf.make_mut());
        self.send_buf(buf);
    }

    /// Injects raw bytes verbatim, with no routing header even when a
    /// route is set (`FuzzMode::Vfuzz`'s MAC mutants and replay attacks
    /// use this).
    pub fn inject_raw(&mut self, bytes: &[u8]) {
        let mut buf = self.pool.acquire();
        buf.make_mut().extend_from_slice(bytes);
        self.send_buf(buf);
    }

    /// Transmits `buf`, retires the previously held frame's allocation to
    /// the scratch pool, and keeps `buf` for byte-identical retransmission.
    fn send_buf(&mut self, buf: FrameBuf) {
        self.radio.transmit_buf(&buf);
        if let Some(old) = self.last_frame.replace(buf) {
            self.pool.retire(old);
        }
        self.frames_injected += 1;
    }

    /// G.9959-style retransmission: resends the last injected frame
    /// *byte-identically* (same sequence number), so a receiver whose ack
    /// was lost recognises the copy as a duplicate instead of reprocessing
    /// it. Returns `false` when nothing has been injected yet.
    pub fn retransmit_last(&mut self) -> bool {
        let Some(frame) = &self.last_frame else {
            return false;
        };
        // A resend is a ref-count bump per receiver, never a copy.
        self.radio.transmit_buf(frame);
        self.retransmissions += 1;
        true
    }

    /// Advances virtual time by the response-wait window.
    pub fn wait_for_responses(&self) {
        self.clock.advance(self.response_wait);
    }

    /// Drains all frames captured by the dongle.
    pub fn drain(&self) -> Vec<RxFrame> {
        self.radio.drain()
    }

    /// Drops any stale captures.
    pub fn flush(&self) {
        let _ = self.radio.drain();
    }

    /// Sends a NOP liveness ping spoofed as `src` and reports whether the
    /// target acked — the crash-verification probe of Section IV-A. The
    /// caller must pump the target between injection and the check, so the
    /// probe is split: [`Dongle::send_ping`] then [`Dongle::check_ping`].
    pub fn send_ping(&mut self, home_id: HomeId, src: NodeId, dst: NodeId) {
        self.flush();
        self.inject_apl(home_id, src, dst, vec![0x00]);
    }

    /// Checks captures for the MAC ack answering a previous
    /// [`Dongle::send_ping`].
    pub fn check_ping(&self, target: NodeId) -> PingOutcome {
        let acked = self.drain().iter().any(|f| {
            MacFrame::decode(&f.bytes).map(|m| m.is_ack() && m.src() == target).unwrap_or(false)
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
        dongle.inject_apl(tb.controller().home_id(), NodeId(2), NodeId(1), vec![0x20, 0x01]);
        assert_eq!(dongle.frames_injected(), 1);
        // A payload beyond the MAC limit is refused, not panicked on.
        dongle.inject_apl(tb.controller().home_id(), NodeId(2), NodeId(1), vec![0u8; 60]);
        assert_eq!(dongle.frames_injected(), 1);
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
