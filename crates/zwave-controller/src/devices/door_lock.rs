//! The S2-secured smart door lock (testbed device D8).

use zwave_crypto::s2::S2Session;
use zwave_protocol::apl::ApplicationPayload;
use zwave_protocol::{CommandClassId, HomeId, MacFrame, NodeId};
use zwave_radio::{Medium, Transceiver};

use crate::coverage::{state as cov, CoverageMap};

/// Simulated Schlage BE469ZP door lock, paired with its controller via S2.
#[derive(Debug)]
pub struct SimDoorLock {
    radio: Transceiver,
    home_id: HomeId,
    node_id: NodeId,
    session: S2Session,
    locked: bool,
    seq: u8,
    coverage: CoverageMap,
}

impl SimDoorLock {
    /// Attaches the lock to `medium` with an established S2 session.
    pub fn new(
        medium: &Medium,
        position_m: f64,
        home_id: HomeId,
        node_id: NodeId,
        session: S2Session,
    ) -> Self {
        SimDoorLock {
            radio: medium.attach(position_m),
            home_id,
            node_id,
            session,
            locked: true,
            seq: 0,
            coverage: CoverageMap::new(),
        }
    }

    /// APL dispatch-edge coverage of the lock's secure handler.
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
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

    /// Whether the bolt is currently thrown.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    fn send(&mut self, dst: NodeId, payload: Vec<u8>) {
        let mut fc = zwave_protocol::frame::FrameControl::singlecast(self.seq);
        self.seq = (self.seq + 1) & 0x0F;
        fc.sequence = self.seq;
        let frame = MacFrame::try_new(
            self.home_id,
            self.node_id,
            fc,
            dst,
            payload,
            zwave_protocol::ChecksumKind::Cs8,
        )
        .expect("lock payloads are bounded");
        self.radio.transmit_buf(&frame.to_buf());
    }

    /// Processes pending frames: answers S2-encapsulated door-lock
    /// operations and ignores everything unencrypted (a properly
    /// implemented S2 slave).
    pub fn poll(&mut self) {
        while let Some(rx) = self.radio.recv_where(|raw| self.accepts(raw)) {
            self.receive(&rx.bytes);
        }
    }

    /// Processes one frame as if it had just arrived, with no receive
    /// filter: what [`SimDoorLock::poll`] does for each frame
    /// [`SimDoorLock::accepts`] passes.
    pub fn receive(&mut self, raw: &[u8]) {
        let Ok(frame) = MacFrame::decode(raw) else { return };
        if frame.home_id() != self.home_id || frame.dst() != self.node_id {
            return;
        }
        if frame.frame_control().ack_requested && !frame.is_ack() {
            let ack = MacFrame::ack(
                self.home_id,
                self.node_id,
                frame.src(),
                frame.frame_control().sequence,
            );
            self.radio.transmit_buf(&ack.to_buf());
        }
        let Ok(payload) = ApplicationPayload::parse(frame.payload()) else { return };
        if payload.command_class() != CommandClassId::SECURITY_2 || payload.command() != Some(0x03)
        {
            return; // unencrypted application traffic is refused
        }
        let bytes = payload.encode();
        let Ok(inner) =
            self.session.decapsulate(self.home_id.0, frame.src().0, self.node_id.0, &bytes)
        else {
            return;
        };
        let Ok(inner_payload) = ApplicationPayload::parse(&inner) else { return };
        self.handle_secure(frame.src(), &inner_payload);
    }

    /// Whether [`SimDoorLock::poll`] could act on `raw`: a frame of this
    /// home addressed to the lock, other than a bare MAC ack (which it
    /// neither acks nor parses). An Ack-type frame that carries a payload
    /// still passes, since the lock decapsulates S2 from any frame type.
    pub fn accepts(&self, raw: &[u8]) -> bool {
        MacFrame::peek(raw).is_some_and(|peek| {
            peek.home_id == self.home_id && peek.dst == self.node_id && !peek.is_empty_ack()
        })
    }

    fn handle_secure(&mut self, src: NodeId, payload: &ApplicationPayload) {
        self.coverage.record(
            payload.command_class().0,
            payload.command().unwrap_or(0),
            cov::DEVICE,
        );
        match (payload.command_class().0, payload.command()) {
            // Door Lock Operation Set.
            (0x62, Some(0x01)) => {
                self.locked = payload.params().first() == Some(&0xFF);
                self.report_state(src);
            }
            // Door Lock Operation Get.
            (0x62, Some(0x02)) => self.report_state(src),
            // Battery Get.
            (0x80, Some(0x02)) => {
                let report = self.session.encapsulate(
                    self.home_id.0,
                    self.node_id.0,
                    src.0,
                    &[0x80, 0x03, 0x5F],
                );
                self.send(src, report);
            }
            _ => {}
        }
    }

    fn report_state(&mut self, dst: NodeId) {
        let mode = if self.locked { 0xFF } else { 0x00 };
        let report =
            self.session.encapsulate(self.home_id.0, self.node_id.0, dst.0, &[0x62, 0x03, mode]);
        self.send(dst, report);
    }
}
