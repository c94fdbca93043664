//! A lightweight model-based intrusion detection system for Z-Wave
//! networks — the remediation the paper proposes for legacy devices
//! (Section V-B: "a lightweight intrusion detection system (IDS) can
//! detect attacks and trigger alarms or alerts", citing the authors' ZMAD
//! work).
//!
//! The detector is passive: it consumes sniffed frames and scores each
//! against a behavioural model of the protected network, learned during a
//! benign training window. No detection rule references the seeded
//! vulnerability list — the IDS flags *protocol-anomalous* traffic, which
//! is what makes measuring its recall against ZCover's attack packets a
//! meaningful experiment (see `tests/remediation.rs` and the
//! `ids_monitor` example).

use std::collections::{BTreeMap, BTreeSet};

use zwave_protocol::dissect::Dissection;
use zwave_protocol::registry::{proprietary, Registry};
use zwave_protocol::{CommandClassId, HomeId, NodeId};
use zwave_radio::SimInstant;

/// Why a frame was flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlertReason {
    /// Frame failed MAC validation despite carrying our home id.
    MalformedFrame,
    /// Source node id never seen during training (or reserved).
    UnknownSource,
    /// A command class no device advertised during training, sent to the
    /// controller in the clear.
    UnexpectedCommandClass,
    /// A command id outside the specification for its class.
    UndefinedCommand,
    /// A security-sensitive class (network management, security, firmware)
    /// arriving *outside* any encapsulation.
    UnencryptedSensitiveClass,
    /// A parameter byte violating the specification's value ranges.
    ParameterOutOfSpec,
}

impl std::fmt::Display for AlertReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AlertReason::MalformedFrame => "malformed frame",
            AlertReason::UnknownSource => "unknown source node",
            AlertReason::UnexpectedCommandClass => "unexpected command class",
            AlertReason::UndefinedCommand => "undefined command id",
            AlertReason::UnencryptedSensitiveClass => "unencrypted security-sensitive class",
            AlertReason::ParameterOutOfSpec => "parameter out of specification",
        };
        f.write_str(s)
    }
}

/// One raised alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// When the offending frame was observed.
    pub at: SimInstant,
    /// Why it was flagged (all reasons that matched).
    pub reasons: Vec<AlertReason>,
    /// Claimed source node.
    pub src: Option<NodeId>,
    /// The raw frame.
    pub frame: Vec<u8>,
}

/// Per-run detection statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdsStats {
    /// Frames inspected.
    pub frames_seen: u64,
    /// Frames flagged.
    pub alerts: u64,
    /// Frames accepted as benign.
    pub accepted: u64,
}

/// The network behaviour model learned during training.
#[derive(Debug, Clone, Default)]
pub struct NetworkModel {
    known_nodes: BTreeSet<u8>,
    /// Classes observed in cleartext per source node.
    clear_classes: BTreeMap<u8, BTreeSet<u8>>,
    frames_trained: u64,
}

impl NetworkModel {
    /// Number of frames the model was trained on.
    pub fn frames_trained(&self) -> u64 {
        self.frames_trained
    }

    /// Nodes the model considers members of the network.
    pub fn known_nodes(&self) -> &BTreeSet<u8> {
        &self.known_nodes
    }
}

/// Classes that must never arrive outside an encapsulation on an
/// S2-capable network: the security layers themselves are exempt
/// (they *are* the encapsulation), everything else that manages the
/// network, its firmware, or its membership is sensitive.
fn is_sensitive_class(cc: u8) -> bool {
    matches!(cc, 0x01 | 0x02 | 0x34 | 0x4D | 0x52 | 0x54 | 0x67 | 0x73 | 0x7A)
}

/// The intrusion detection system.
#[derive(Debug)]
pub struct Ids {
    home_id: HomeId,
    model: NetworkModel,
    training: bool,
    alerts: Vec<Alert>,
    stats: IdsStats,
}

impl Ids {
    /// Creates an IDS protecting the network `home_id`, in training mode.
    pub fn new(home_id: HomeId) -> Self {
        Ids {
            home_id,
            model: NetworkModel::default(),
            training: true,
            alerts: Vec::new(),
            stats: IdsStats::default(),
        }
    }

    /// Ends the training window; subsequent frames are scored.
    pub fn finish_training(&mut self) {
        self.training = false;
    }

    /// The learned model.
    pub fn model(&self) -> &NetworkModel {
        &self.model
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Detection statistics.
    pub fn stats(&self) -> IdsStats {
        self.stats
    }

    /// Feeds one sniffed frame. During training the model absorbs it;
    /// afterwards it is scored and possibly flagged. Returns the alert if
    /// one was raised.
    pub fn observe(&mut self, raw: &[u8], at: SimInstant) -> Option<Alert> {
        if raw.len() < 4 || raw[..4] != self.home_id.to_bytes() {
            return None; // other networks are not ours to police
        }
        if self.training {
            self.train(raw);
            return None;
        }
        self.stats.frames_seen += 1;
        let reasons = self.score(raw);
        if reasons.is_empty() {
            self.stats.accepted += 1;
            return None;
        }
        self.stats.alerts += 1;
        let src = Dissection::from_wire(raw).ok().map(|d| d.src);
        let alert = Alert { at, reasons, src, frame: raw.to_vec() };
        self.alerts.push(alert.clone());
        Some(alert)
    }

    fn train(&mut self, raw: &[u8]) {
        let Ok(d) = Dissection::from_wire(raw) else { return };
        self.model.frames_trained += 1;
        self.model.known_nodes.insert(d.src.0);
        if !d.dst.is_broadcast() {
            self.model.known_nodes.insert(d.dst.0);
        }
        if let Some(apl) = &d.apl {
            self.model.clear_classes.entry(d.src.0).or_default().insert(apl.command_class().0);
        }
    }

    fn score(&self, raw: &[u8]) -> Vec<AlertReason> {
        let mut reasons = Vec::new();
        let Ok(d) = Dissection::from_wire(raw) else {
            return vec![AlertReason::MalformedFrame];
        };
        if d.src.0 == 0x00 || !self.model.known_nodes.contains(&d.src.0) {
            reasons.push(AlertReason::UnknownSource);
        }
        let Some(apl) = &d.apl else { return reasons };
        let cc = apl.command_class();

        // S2/S0 encapsulated traffic is opaque but expected; the layers
        // authenticate their own content.
        if cc == CommandClassId::SECURITY_2 || cc == CommandClassId::SECURITY_0 {
            return reasons;
        }
        if is_sensitive_class(cc.0) {
            reasons.push(AlertReason::UnencryptedSensitiveClass);
        }
        let seen_in_clear =
            self.model.clear_classes.values().any(|classes| classes.contains(&cc.0));
        if !seen_in_clear && !is_sensitive_class(cc.0) {
            reasons.push(AlertReason::UnexpectedCommandClass);
        }

        // Specification conformance of CMD and PARAMs.
        let spec = Registry::global()
            .get(cc)
            .or_else(|| proprietary::all().into_iter().find(|s| s.id == cc));
        if let (Some(spec), Some(cmd)) = (spec, apl.command()) {
            match spec.command(cmd) {
                None => reasons.push(AlertReason::UndefinedCommand),
                Some(cmd_spec) => {
                    let out_of_spec = apl
                        .params()
                        .iter()
                        .zip(cmd_spec.params.iter())
                        .any(|(value, param_spec)| !param_spec.is_valid(*value));
                    if out_of_spec || apl.params().len() > cmd_spec.params.len() {
                        reasons.push(AlertReason::ParameterOutOfSpec);
                    }
                }
            }
        }
        reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zwave_protocol::MacFrame;

    fn frame(home: u32, src: u8, dst: u8, payload: Vec<u8>) -> Vec<u8> {
        MacFrame::singlecast(HomeId(home), NodeId(src), NodeId(dst), payload).encode()
    }

    fn trained_ids() -> Ids {
        let mut ids = Ids::new(HomeId(0xCB95A34A));
        // Benign training traffic: switch reports, basic polls.
        for _ in 0..5 {
            ids.observe(&frame(0xCB95A34A, 0x03, 0x01, vec![0x25, 0x03, 0x00]), SimInstant::ZERO);
            ids.observe(&frame(0xCB95A34A, 0x01, 0x03, vec![0x25, 0x02]), SimInstant::ZERO);
            ids.observe(
                &frame(0xCB95A34A, 0x02, 0x01, vec![0x9F, 0x03, 0x00, 0x00, 1, 2, 3]),
                SimInstant::ZERO,
            );
        }
        ids.finish_training();
        ids
    }

    #[test]
    fn training_builds_the_node_model() {
        let ids = trained_ids();
        assert_eq!(ids.model().known_nodes(), &BTreeSet::from([0x01, 0x02, 0x03]));
        assert!(ids.model().frames_trained() >= 15);
    }

    #[test]
    fn benign_traffic_passes() {
        let mut ids = trained_ids();
        let alert =
            ids.observe(&frame(0xCB95A34A, 0x03, 0x01, vec![0x25, 0x03, 0xFF]), SimInstant::ZERO);
        assert!(alert.is_none());
        assert_eq!(ids.stats().accepted, 1);
        assert_eq!(ids.stats().alerts, 0);
    }

    #[test]
    fn s2_encapsulated_traffic_passes() {
        let mut ids = trained_ids();
        let alert = ids.observe(
            &frame(0xCB95A34A, 0x02, 0x01, vec![0x9F, 0x03, 0x07, 0x00, 9, 9, 9]),
            SimInstant::ZERO,
        );
        assert!(alert.is_none());
    }

    #[test]
    fn unencrypted_network_management_is_flagged() {
        let mut ids = trained_ids();
        // The bug #03 attack frame.
        let alert = ids
            .observe(&frame(0xCB95A34A, 0x03, 0x01, vec![0x01, 0x0D, 0x02]), SimInstant::ZERO)
            .expect("must alert");
        assert!(alert.reasons.contains(&AlertReason::UnencryptedSensitiveClass));
    }

    #[test]
    fn unknown_source_is_flagged() {
        let mut ids = trained_ids();
        let alert = ids
            .observe(&frame(0xCB95A34A, 0x77, 0x01, vec![0x25, 0x02]), SimInstant::ZERO)
            .expect("must alert");
        assert!(alert.reasons.contains(&AlertReason::UnknownSource));
        assert_eq!(alert.src, Some(NodeId(0x77)));
    }

    #[test]
    fn undefined_command_is_flagged() {
        let mut ids = trained_ids();
        let alert = ids
            .observe(&frame(0xCB95A34A, 0x03, 0x01, vec![0x25, 0x77]), SimInstant::ZERO)
            .expect("must alert");
        assert!(alert.reasons.contains(&AlertReason::UndefinedCommand));
    }

    #[test]
    fn out_of_spec_parameter_is_flagged() {
        let mut ids = trained_ids();
        // SWITCH_BINARY_SET value 0x42 is not in {0x00, 0xFF}.
        let alert = ids
            .observe(&frame(0xCB95A34A, 0x03, 0x01, vec![0x25, 0x01, 0x42]), SimInstant::ZERO)
            .expect("must alert");
        assert!(alert.reasons.contains(&AlertReason::ParameterOutOfSpec));
    }

    #[test]
    fn malformed_frames_are_flagged() {
        let mut ids = trained_ids();
        let mut raw = frame(0xCB95A34A, 0x03, 0x01, vec![0x25, 0x02]);
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        let alert = ids.observe(&raw, SimInstant::ZERO).expect("must alert");
        assert_eq!(alert.reasons, vec![AlertReason::MalformedFrame]);
    }

    #[test]
    fn other_networks_are_ignored() {
        let mut ids = trained_ids();
        assert!(ids
            .observe(&frame(0xDEADBEEF, 0x55, 0x01, vec![0x01, 0x0D, 0x02]), SimInstant::ZERO)
            .is_none());
        assert_eq!(ids.stats().frames_seen, 0);
    }
}
