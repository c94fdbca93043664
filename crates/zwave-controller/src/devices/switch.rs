//! The legacy no-security smart switch (testbed device D9).

use zwave_protocol::apl::ApplicationPayload;
use zwave_protocol::{HeaderType, HomeId, MacFrame, NodeId, RoutingHeader};
use zwave_radio::{Medium, Transceiver};

use crate::coverage::{state as cov, CoverageMap};

/// Simulated GE Jasco ZW4201 switch: plain-text Basic / Switch Binary.
#[derive(Debug)]
pub struct SimSwitch {
    radio: Transceiver,
    home_id: HomeId,
    node_id: NodeId,
    controller: NodeId,
    on: bool,
    seq: u8,
    coverage: CoverageMap,
    /// Repeater chain for reports to the controller (`None` = direct RF).
    /// Set by the network builder when the switch sits beyond the
    /// controller's direct range on a meshed topology.
    report_route: Option<Vec<NodeId>>,
    /// End-to-end routed acknowledgements received for our routed reports.
    routed_acks_received: u64,
}

impl SimSwitch {
    /// Attaches the switch to `medium`.
    pub fn new(
        medium: &Medium,
        position_m: f64,
        home_id: HomeId,
        node_id: NodeId,
        controller: NodeId,
    ) -> Self {
        SimSwitch {
            radio: medium.attach(position_m),
            home_id,
            node_id,
            controller,
            on: false,
            seq: 0,
            coverage: CoverageMap::new(),
            report_route: None,
            routed_acks_received: 0,
        }
    }

    /// Routes status reports through `route` (1–4 repeaters, forwarding
    /// order) instead of transmitting directly to the controller. `None`
    /// or an empty route restores direct transmission.
    pub(crate) fn set_report_route(&mut self, route: Option<Vec<NodeId>>) {
        self.report_route = route.filter(|r| !r.is_empty());
    }

    /// End-to-end routed acknowledgements received so far — the network
    /// builder's signal that a report actually traversed its route.
    pub fn routed_acks_received(&self) -> u64 {
        self.routed_acks_received
    }

    /// APL dispatch-edge coverage of the switch's command handler.
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

    /// Whether the load is powered.
    pub fn is_on(&self) -> bool {
        self.on
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
        .expect("switch payloads are bounded");
        self.radio.transmit_buf(&frame.to_buf());
    }

    /// Processes pending frames (legacy devices accept unencrypted
    /// commands — the injection-prone class of Section II-A1).
    pub fn poll(&mut self) {
        while let Some(rx) = self.radio.recv_where(|raw| self.accepts(raw)) {
            self.receive(&rx.bytes);
        }
    }

    /// Processes one frame as if it had just arrived, with no receive
    /// filter: what [`SimSwitch::poll`] does for each frame
    /// [`SimSwitch::accepts`] passes.
    pub fn receive(&mut self, raw: &[u8]) {
        let Ok(frame) = MacFrame::decode(raw) else { return };
        if frame.home_id() != self.home_id {
            return;
        }
        // Routing-slave duty: forward routed frames whose current
        // repeater is us, advancing the hop index; accept routed
        // frames that completed their final leg addressed to us.
        if frame.frame_control().header_type == HeaderType::Routed {
            let Ok((mut header, apl)) = RoutingHeader::decode(frame.payload()) else { return };
            if header.current_repeater() == Some(self.node_id) {
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
                }
            } else if header.on_final_leg() && frame.dst() == self.node_id {
                if frame.frame_control().ack_requested {
                    let ack = MacFrame::ack(
                        self.home_id,
                        self.node_id,
                        frame.src(),
                        frame.frame_control().sequence,
                    );
                    self.radio.transmit_buf(&ack.to_buf());
                }
                if header.outbound {
                    self.send_routed_ack(frame.src(), &header);
                    if let Ok(payload) = ApplicationPayload::parse(apl) {
                        self.handle_apl(frame.src(), &payload);
                    }
                } else {
                    // The routed acknowledgement for one of our own routed
                    // reports made it back.
                    self.routed_acks_received += 1;
                }
            }
            return;
        }
        if frame.dst() != self.node_id {
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
        self.handle_apl(frame.src(), &payload);
    }

    /// Whether [`SimSwitch::poll`] could act on `raw`: a routed frame of
    /// this home (it may be ours to relay), or one addressed to the switch
    /// other than a bare MAC ack. An Ack-type frame that carries a payload
    /// still passes, since the switch parses any frame type's payload.
    pub fn accepts(&self, raw: &[u8]) -> bool {
        MacFrame::peek(raw).is_some_and(|peek| {
            peek.home_id == self.home_id
                && (peek.header_type == Some(HeaderType::Routed)
                    || (peek.dst == self.node_id && !peek.is_empty_ack()))
        })
    }

    fn handle_apl(&mut self, src: NodeId, payload: &ApplicationPayload) {
        self.coverage.record(
            payload.command_class().0,
            payload.command().unwrap_or(0),
            cov::DEVICE,
        );
        match (payload.command_class().0, payload.command()) {
            (0x20 | 0x25, Some(0x01)) => {
                self.on = payload.params().first() == Some(&0xFF);
                self.report_state(src);
            }
            (0x20 | 0x25, Some(0x02)) => {
                self.report_state(src);
            }
            _ => {}
        }
    }

    /// Confirms a routed delivery end-to-end: same repeaters reversed,
    /// direction bit cleared, hop reset, empty APL.
    fn send_routed_ack(&mut self, origin: NodeId, inbound: &RoutingHeader) {
        let mut fc = zwave_protocol::frame::FrameControl::singlecast(self.seq);
        self.seq = (self.seq + 1) & 0x0F;
        fc.sequence = self.seq;
        fc.header_type = HeaderType::Routed;
        fc.ack_requested = false;
        if let Ok(frame) = MacFrame::try_new(
            self.home_id,
            self.node_id,
            fc,
            origin,
            inbound.routed_ack().encode(),
            zwave_protocol::ChecksumKind::Cs8,
        ) {
            self.radio.transmit_buf(&frame.to_buf());
        }
    }

    fn report_state(&mut self, dst: NodeId) {
        let level = if self.on { 0xFF } else { 0x00 };
        self.send(dst, vec![0x25, 0x03, level]);
    }

    /// Proactively reports status to the controller — through the
    /// configured repeater route when one is set, directly otherwise.
    pub(crate) fn report_to_controller(&mut self) {
        let level = if self.on { 0xFF } else { 0x00 };
        match self.report_route.clone() {
            Some(route) => self.send_routed(self.controller, route, &[0x25, 0x03, level]),
            None => self.report_state(self.controller),
        }
    }

    fn send_routed(&mut self, dst: NodeId, route: Vec<NodeId>, apl: &[u8]) {
        let mut payload = RoutingHeader::outbound(route).encode();
        payload.extend_from_slice(apl);
        let mut fc = zwave_protocol::frame::FrameControl::singlecast(self.seq);
        self.seq = (self.seq + 1) & 0x0F;
        fc.sequence = self.seq;
        fc.header_type = HeaderType::Routed;
        if let Ok(frame) = MacFrame::try_new(
            self.home_id,
            self.node_id,
            fc,
            dst,
            payload,
            zwave_protocol::ChecksumKind::Cs8,
        ) {
            self.radio.transmit_buf(&frame.to_buf());
        }
    }
}
