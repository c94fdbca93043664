//! An optional battery-powered S0 motion sensor: sleeps, wakes when
//! driven (`SimSensor::wake`; each normal-traffic round runs one wake
//! cycle), reports through S0 encapsulation, and goes back to sleep —
//! the legacy-device traffic pattern that the Wake Up command class (and
//! bug #12's target field) exists for.

use zwave_crypto::s0::{self, S0Keys};
use zwave_crypto::NetworkKey;
use zwave_protocol::apl::ApplicationPayload;
use zwave_protocol::{HomeId, MacFrame, NodeId};
use zwave_radio::Medium;

use crate::coverage::{state as cov, CoverageMap};
use crate::node::NodeRadio;

/// Sensor wake-cycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SensorState {
    /// Asleep: sends nothing and reads nothing. Frames still land in
    /// its receive ring; [`SimSensor::wake`] discards them unread.
    Sleeping,
    /// Woke up: announced itself and requested an S0 nonce.
    AwaitingNonce,
}

/// The simulated S0 motion sensor.
#[derive(Debug)]
pub struct SimSensor {
    pub(crate) radio: NodeRadio,
    controller: NodeId,
    keys: S0Keys,
    state: SensorState,
    motion: bool,
    reports_sent: u32,
    nonce_counter: u64,
    coverage: CoverageMap,
}

impl SimSensor {
    /// Attaches the sensor, paired under the controller's S0 `key`.
    pub fn new(
        medium: &Medium,
        position_m: f64,
        home_id: HomeId,
        node_id: NodeId,
        controller: NodeId,
        key: &NetworkKey,
    ) -> Self {
        SimSensor {
            radio: NodeRadio::attach(medium, position_m, home_id, node_id),
            controller,
            keys: S0Keys::derive(key),
            state: SensorState::Sleeping,
            motion: false,
            reports_sent: 0,
            nonce_counter: 0,
            coverage: CoverageMap::new(),
        }
    }

    /// APL dispatch-edge coverage of the sensor's awake-state handler.
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// How many S0-protected reports it has delivered.
    pub fn reports_sent(&self) -> u32 {
        self.reports_sent
    }

    /// Simulates a motion event to report at the next wake.
    pub fn detect_motion(&mut self, motion: bool) {
        self.motion = motion;
    }

    fn send(&mut self, payload: &[u8]) {
        self.radio.send(self.controller, payload);
    }

    /// Wakes the sensor: it announces itself (Wake Up Notification) and
    /// requests an S0 nonce for the encrypted report that follows.
    pub fn wake(&mut self) {
        // Drop unread whatever reached the ring while asleep.
        self.radio.discard_pending();
        self.send(&[0x84, 0x07]);
        self.send(&[0x98, s0::cmd::NONCE_GET]);
        self.state = SensorState::AwaitingNonce;
    }

    /// Processes pending frames; only meaningful while awake.
    pub fn poll(&mut self) {
        if self.state == SensorState::Sleeping {
            return;
        }
        while let Some(rx) = self.radio.recv_where(|raw| self.accepts(raw)) {
            self.receive(&rx.bytes);
        }
    }

    /// Processes one frame as if it had just arrived, with no receive
    /// filter: what [`SimSensor::poll`] does, while awake, for each frame
    /// [`SimSensor::accepts`] passes.
    pub fn receive(&mut self, raw: &[u8]) {
        let Ok(frame) = MacFrame::decode(raw) else { return };
        if frame.home_id() != self.radio.home_id() || frame.dst() != self.radio.node_id() {
            return;
        }
        let Ok(payload) = ApplicationPayload::parse(frame.payload()) else { return };
        self.coverage.record(
            payload.command_class().0,
            payload.command().unwrap_or(0),
            cov::DEVICE,
        );
        if payload.command_class().0 == 0x98
            && payload.command() == Some(s0::cmd::NONCE_REPORT)
            && payload.params().len() >= 8
        {
            let mut receiver_nonce = [0u8; 8];
            receiver_nonce.copy_from_slice(&payload.params()[..8]);
            // Sender nonce: deterministic per report.
            self.nonce_counter += 1;
            let mut sender_nonce = [0xB0u8; 8];
            sender_nonce[..8].copy_from_slice(&self.nonce_counter.to_be_bytes());
            let report = [0x30, 0x03, if self.motion { 0xFF } else { 0x00 }, 0x0C];
            let encap = s0::encapsulate(
                &self.keys,
                self.radio.node_id().0,
                self.controller.0,
                &sender_nonce,
                &receiver_nonce,
                &report,
            );
            self.send(&encap);
            self.reports_sent += 1;
            // No more information: back to sleep.
            self.send(&[0x84, 0x08]);
            self.state = SensorState::Sleeping;
        }
    }

    /// Whether [`SimSensor::poll`] could act on `raw`: a frame of this
    /// home addressed to the sensor with a payload to parse.
    pub fn accepts(&self, raw: &[u8]) -> bool {
        MacFrame::peek(raw).is_some_and(|peek| {
            peek.home_id == self.radio.home_id()
                && peek.dst == self.radio.node_id()
                && peek.carries_payload()
        })
    }

    /// Whether the sensor is currently asleep.
    pub fn is_sleeping(&self) -> bool {
        self.state == SensorState::Sleeping
    }
}
