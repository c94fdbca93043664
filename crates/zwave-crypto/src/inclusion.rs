//! The S2 inclusion (secure pairing) protocol: KEX negotiation, Curve25519
//! public-key exchange with DSK authentication, temporary-key
//! establishment, and network-key grant — the ceremony that puts the
//! paper's door lock (D8) under "the latest S2 encrypted communication
//! transport" (Section II-B1).
//!
//! Two state machines exchange application payloads (command class `0x9F`)
//! until both hold a permanent [`S2Session`]:
//!
//! ```text
//! controller                       joining node
//!    | ── KEX GET ──────────────────→ |
//!    | ←───────────────── KEX REPORT ─|
//!    | ── KEX SET ──────────────────→ |
//!    | ←──────────── PUBLIC KEY (n) ──|   (operator verifies the DSK pin)
//!    | ── PUBLIC KEY (c) ───────────→ |   (both derive temp keys via ECDH)
//!    | ←───────────────── NONCE GET ──|   (entropy inputs exchanged)
//!    | ── NONCE REPORT ─────────────→ |
//!    | ←─ encap{NETWORK KEY GET} ─────|
//!    | ── encap{NETWORK KEY REPORT} ─→|   (permanent key granted)
//!    | ←─ encap'{NETWORK KEY VERIFY} ─|   (under the permanent key)
//!    | ── TRANSFER END ─────────────→ |
//! ```
//!
//! The DSK (device-specific key) check models S2's user-entered PIN: the
//! first two bytes of the joining node's public key, verified out of band.
//! An active MITM substituting public keys fails it — see the tests.

use crate::curve25519::{public_key, PublicKey, SecretKey};
use crate::kdf::DerivedKeys;
use crate::keys::{NetworkKey, SecurityClass};
use crate::s2::{kex_temp_keys, network_keys, S2Session};

/// S2 command bytes used by the ceremony.
mod cmd {
    pub(crate) const NONCE_GET: u8 = 0x01;
    pub(crate) const NONCE_REPORT: u8 = 0x02;
    pub(crate) const MESSAGE_ENCAP: u8 = 0x03;
    pub(crate) const KEX_GET: u8 = 0x04;
    pub(crate) const KEX_REPORT: u8 = 0x05;
    pub(crate) const KEX_SET: u8 = 0x06;
    pub(crate) const KEX_FAIL: u8 = 0x07;
    pub(crate) const PUBLIC_KEY_REPORT: u8 = 0x08;
    pub(crate) const NETWORK_KEY_GET: u8 = 0x09;
    pub(crate) const NETWORK_KEY_REPORT: u8 = 0x0A;
    pub(crate) const NETWORK_KEY_VERIFY: u8 = 0x0B;
    pub(crate) const TRANSFER_END: u8 = 0x0C;
}

/// KEX failure codes (subset of the specification's KEX_FAIL types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KexFailure {
    /// The DSK pin did not match the received public key.
    DskMismatch,
    /// A message arrived out of protocol order.
    OutOfOrder,
    /// Decryption of an encapsulated step failed.
    DecryptFailed,
}

/// The first two bytes of a public key: the out-of-band DSK pin.
pub fn dsk_pin(pk: &PublicKey) -> [u8; 2] {
    [pk[0], pk[1]]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlState {
    Idle,
    SentKexGet,
    SentKexSet,
    SentPublicKey,
    SentNonceReport,
    SentNetworkKey,
    Done,
    Failed(KexFailure),
}

/// The including-controller side of the ceremony.
#[derive(Debug)]
pub struct IncludingController {
    state: CtrlState,
    secret: SecretKey,
    public: PublicKey,
    network_key: NetworkKey,
    granted_class: SecurityClass,
    expected_dsk: Option<[u8; 2]>,
    their_public: Option<PublicKey>,
    temp_keys: Option<DerivedKeys>,
    node_ei: Option<[u8; 16]>,
    our_ei: [u8; 16],
    home_id: u32,
    node_ids: (u8, u8),
    permanent: Option<S2Session>,
}

impl IncludingController {
    /// Creates the controller endpoint. `key_seed` seeds the ECDH keypair
    /// and entropy input; `expected_dsk` is the PIN the operator read off
    /// the joining device's label (pass `None` for unauthenticated
    /// inclusion, i.e. the S2 Unauthenticated class).
    pub fn new(
        network_key: NetworkKey,
        granted_class: SecurityClass,
        key_seed: [u8; 32],
        expected_dsk: Option<[u8; 2]>,
        home_id: u32,
        controller_node: u8,
        joining_node: u8,
    ) -> Self {
        let mut our_ei = [0u8; 16];
        our_ei.copy_from_slice(&key_seed[..16]);
        our_ei[0] ^= 0xC0; // distinct from the key material
        IncludingController {
            state: CtrlState::Idle,
            public: public_key(&key_seed),
            secret: key_seed,
            network_key,
            granted_class,
            expected_dsk,
            their_public: None,
            temp_keys: None,
            node_ei: None,
            our_ei,
            home_id,
            node_ids: (controller_node, joining_node),
            permanent: None,
        }
    }

    /// Starts the ceremony: returns the KEX GET payload to transmit.
    pub fn start(&mut self) -> Vec<u8> {
        self.state = CtrlState::SentKexGet;
        vec![0x9F, cmd::KEX_GET]
    }

    /// Whether the ceremony completed.
    pub fn is_established(&self) -> bool {
        self.state == CtrlState::Done
    }

    /// The failure, if the ceremony aborted.
    pub fn failure(&self) -> Option<KexFailure> {
        match self.state {
            CtrlState::Failed(f) => Some(f),
            _ => None,
        }
    }

    /// Takes the established permanent session (once [`Self::is_established`]).
    pub fn take_session(&mut self) -> Option<S2Session> {
        self.permanent.take()
    }

    fn fail(&mut self, failure: KexFailure) -> Option<Vec<u8>> {
        self.state = CtrlState::Failed(failure);
        Some(vec![0x9F, cmd::KEX_FAIL, failure_code(failure)])
    }

    /// Processes one received S2 payload; returns the response payload to
    /// transmit, when the protocol calls for one.
    pub fn on_payload(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        if payload.len() < 2 || payload[0] != 0x9F {
            return None;
        }
        // Terminal states ignore everything (including echoed KEX FAILs).
        if matches!(self.state, CtrlState::Done | CtrlState::Failed(_)) {
            return None;
        }
        if payload[1] == cmd::KEX_FAIL {
            self.state = CtrlState::Failed(KexFailure::OutOfOrder);
            return None;
        }
        match (self.state, payload[1]) {
            (CtrlState::SentKexGet, cmd::KEX_REPORT) => {
                // Accept the node's requested scheme (we only support one).
                self.state = CtrlState::SentKexSet;
                Some(vec![0x9F, cmd::KEX_SET, 0x00, 0x02, 0x01, class_bit(self.granted_class)])
            }
            (CtrlState::SentKexSet, cmd::PUBLIC_KEY_REPORT) => {
                if payload.len() < 3 + 32 {
                    return self.fail(KexFailure::OutOfOrder);
                }
                let mut pk = [0u8; 32];
                pk.copy_from_slice(&payload[3..35]);
                if let Some(expected) = self.expected_dsk {
                    if dsk_pin(&pk) != expected {
                        return self.fail(KexFailure::DskMismatch);
                    }
                }
                self.their_public = Some(pk);
                self.temp_keys = Some(kex_temp_keys(&self.secret, &self.public, &pk, true));
                self.state = CtrlState::SentPublicKey;
                let mut out = vec![0x9F, cmd::PUBLIC_KEY_REPORT, 0x01];
                out.extend_from_slice(&self.public);
                Some(out)
            }
            (CtrlState::SentPublicKey, cmd::NONCE_GET) => {
                if payload.len() < 3 + 16 {
                    return self.fail(KexFailure::OutOfOrder);
                }
                let mut node_ei = [0u8; 16];
                node_ei.copy_from_slice(&payload[3..19]);
                self.node_ei = Some(node_ei);
                self.state = CtrlState::SentNonceReport;
                let mut out = vec![0x9F, cmd::NONCE_REPORT, payload[2], 0x01];
                out.extend_from_slice(&self.our_ei);
                Some(out)
            }
            (CtrlState::SentNonceReport, cmd::MESSAGE_ENCAP) => {
                // The node asks for the network key under the temp session.
                let keys = self.temp_keys.clone()?;
                let node_ei = self.node_ei?;
                let mut temp = S2Session::responder(keys, &node_ei, &self.our_ei);
                let (ctrl, node) = self.node_ids;
                let inner = match temp.decapsulate(self.home_id, node, ctrl, payload) {
                    Ok(inner) => inner,
                    Err(_) => return self.fail(KexFailure::DecryptFailed),
                };
                if inner.first() != Some(&0x9F) || inner.get(1) != Some(&cmd::NETWORK_KEY_GET) {
                    return self.fail(KexFailure::OutOfOrder);
                }
                let mut report = vec![0x9F, cmd::NETWORK_KEY_REPORT, class_bit(self.granted_class)];
                report.extend_from_slice(self.network_key.bytes());
                self.state = CtrlState::SentNetworkKey;
                Some(temp.encapsulate(self.home_id, ctrl, node, &report))
            }
            (CtrlState::SentNetworkKey, cmd::MESSAGE_ENCAP) => {
                // NETWORK KEY VERIFY must arrive under the permanent key.
                let node_ei = self.node_ei?;
                let mut perm =
                    S2Session::responder(network_keys(&self.network_key), &node_ei, &self.our_ei);
                let (ctrl, node) = self.node_ids;
                let inner = match perm.decapsulate(self.home_id, node, ctrl, payload) {
                    Ok(inner) => inner,
                    Err(_) => return self.fail(KexFailure::DecryptFailed),
                };
                if inner.first() != Some(&0x9F) || inner.get(1) != Some(&cmd::NETWORK_KEY_VERIFY) {
                    return self.fail(KexFailure::OutOfOrder);
                }
                self.permanent = Some(perm);
                self.state = CtrlState::Done;
                Some(vec![0x9F, cmd::TRANSFER_END, 0x01])
            }
            _ => self.fail(KexFailure::OutOfOrder),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeState {
    Idle,
    SentKexReport,
    SentPublicKey,
    SentNonceGet,
    SentNetworkKeyGet,
    SentVerify,
    Done,
    Failed(KexFailure),
}

/// The joining-node side of the ceremony.
#[derive(Debug)]
pub struct JoiningNode {
    state: NodeState,
    secret: SecretKey,
    public: PublicKey,
    their_public: Option<PublicKey>,
    temp_keys: Option<DerivedKeys>,
    our_ei: [u8; 16],
    ctrl_ei: Option<[u8; 16]>,
    granted_key: Option<(SecurityClass, NetworkKey)>,
    home_id: u32,
    node_ids: (u8, u8),
    permanent: Option<S2Session>,
}

impl JoiningNode {
    /// Creates the joining endpoint. The node's DSK pin — printed on the
    /// device label — is [`dsk_pin`] of [`Self::public`].
    pub fn new(key_seed: [u8; 32], home_id: u32, controller_node: u8, joining_node: u8) -> Self {
        let mut our_ei = [0u8; 16];
        our_ei.copy_from_slice(&key_seed[16..]);
        our_ei[0] ^= 0x0E;
        JoiningNode {
            state: NodeState::Idle,
            public: public_key(&key_seed),
            secret: key_seed,
            their_public: None,
            temp_keys: None,
            our_ei,
            ctrl_ei: None,
            granted_key: None,
            home_id,
            node_ids: (controller_node, joining_node),
            permanent: None,
        }
    }

    /// The node's public key (its DSK derives from the first bytes).
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Whether the ceremony completed.
    pub fn is_established(&self) -> bool {
        self.state == NodeState::Done
    }

    /// The granted security class and key (after completion).
    pub fn granted(&self) -> Option<&(SecurityClass, NetworkKey)> {
        self.granted_key.as_ref()
    }

    /// Takes the established permanent session.
    pub fn take_session(&mut self) -> Option<S2Session> {
        self.permanent.take()
    }

    /// The failure, if the ceremony aborted.
    pub fn failure(&self) -> Option<KexFailure> {
        match self.state {
            NodeState::Failed(f) => Some(f),
            _ => None,
        }
    }

    fn fail(&mut self, failure: KexFailure) -> Option<Vec<u8>> {
        self.state = NodeState::Failed(failure);
        Some(vec![0x9F, cmd::KEX_FAIL, failure_code(failure)])
    }

    /// Processes one received S2 payload; returns the response to send.
    pub fn on_payload(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        if payload.len() < 2 || payload[0] != 0x9F {
            return None;
        }
        if matches!(self.state, NodeState::Done | NodeState::Failed(_)) {
            return None;
        }
        if payload[1] == cmd::KEX_FAIL {
            self.state = NodeState::Failed(KexFailure::OutOfOrder);
            return None;
        }
        match (self.state, payload[1]) {
            (NodeState::Idle, cmd::KEX_GET) => {
                self.state = NodeState::SentKexReport;
                Some(vec![0x9F, cmd::KEX_REPORT, 0x00, 0x02, 0x01, 0x87])
            }
            (NodeState::SentKexReport, cmd::KEX_SET) => {
                self.state = NodeState::SentPublicKey;
                let mut out = vec![0x9F, cmd::PUBLIC_KEY_REPORT, 0x00];
                out.extend_from_slice(&self.public);
                Some(out)
            }
            (NodeState::SentPublicKey, cmd::PUBLIC_KEY_REPORT) => {
                if payload.len() < 3 + 32 {
                    return self.fail(KexFailure::OutOfOrder);
                }
                let mut pk = [0u8; 32];
                pk.copy_from_slice(&payload[3..35]);
                self.their_public = Some(pk);
                self.temp_keys = Some(kex_temp_keys(&self.secret, &self.public, &pk, false));
                self.state = NodeState::SentNonceGet;
                let mut out = vec![0x9F, cmd::NONCE_GET, 0x00];
                out.extend_from_slice(&self.our_ei);
                Some(out)
            }
            (NodeState::SentNonceGet, cmd::NONCE_REPORT) => {
                if payload.len() < 4 + 16 {
                    return self.fail(KexFailure::OutOfOrder);
                }
                let mut ctrl_ei = [0u8; 16];
                ctrl_ei.copy_from_slice(&payload[4..20]);
                self.ctrl_ei = Some(ctrl_ei);
                let keys = self.temp_keys.clone()?;
                let mut temp = S2Session::initiator(keys, &self.our_ei, &ctrl_ei);
                let (ctrl, node) = self.node_ids;
                let encap =
                    temp.encapsulate(self.home_id, node, ctrl, &[0x9F, cmd::NETWORK_KEY_GET, 0x87]);
                self.state = NodeState::SentNetworkKeyGet;
                Some(encap)
            }
            (NodeState::SentNetworkKeyGet, cmd::MESSAGE_ENCAP) => {
                let keys = self.temp_keys.clone()?;
                let ctrl_ei = self.ctrl_ei?;
                // Rebuild the temp session one step ahead (we already sent
                // one frame on it).
                let mut temp = S2Session::initiator(keys, &self.our_ei, &ctrl_ei);
                let (ctrl, node) = self.node_ids;
                let _ =
                    temp.encapsulate(self.home_id, node, ctrl, &[0x9F, cmd::NETWORK_KEY_GET, 0x87]);
                let inner = match temp.decapsulate(self.home_id, ctrl, node, payload) {
                    Ok(inner) => inner,
                    Err(_) => return self.fail(KexFailure::DecryptFailed),
                };
                if inner.len() < 3 + 16 || inner[0] != 0x9F || inner[1] != cmd::NETWORK_KEY_REPORT {
                    return self.fail(KexFailure::OutOfOrder);
                }
                let mut key = [0u8; 16];
                key.copy_from_slice(&inner[3..19]);
                let network_key = NetworkKey::new(key);
                let class = class_from_bit(inner[2]);
                self.granted_key = Some((class, network_key));
                // Verify under the permanent key.
                let mut perm =
                    S2Session::initiator(network_keys(&network_key), &self.our_ei, &ctrl_ei);
                let encap =
                    perm.encapsulate(self.home_id, node, ctrl, &[0x9F, cmd::NETWORK_KEY_VERIFY]);
                self.permanent = Some(perm);
                self.state = NodeState::SentVerify;
                Some(encap)
            }
            (NodeState::SentVerify, cmd::TRANSFER_END) => {
                self.state = NodeState::Done;
                None
            }
            _ => self.fail(KexFailure::OutOfOrder),
        }
    }
}

fn class_bit(class: SecurityClass) -> u8 {
    match class {
        SecurityClass::S0 => 0x80,
        SecurityClass::S2Unauthenticated => 0x01,
        SecurityClass::S2Authenticated => 0x02,
        SecurityClass::S2Access => 0x04,
    }
}

fn class_from_bit(bit: u8) -> SecurityClass {
    match bit {
        0x80 => SecurityClass::S0,
        0x02 => SecurityClass::S2Authenticated,
        0x04 => SecurityClass::S2Access,
        _ => SecurityClass::S2Unauthenticated,
    }
}

fn failure_code(failure: KexFailure) -> u8 {
    match failure {
        KexFailure::DskMismatch => 0x05,
        KexFailure::OutOfOrder => 0x06,
        KexFailure::DecryptFailed => 0x07,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a complete ceremony between two endpoints in memory, returning
    /// both permanent sessions.
    fn pair(
        controller: &mut IncludingController,
        node: &mut JoiningNode,
    ) -> Option<(S2Session, S2Session)> {
        let mut to_node = Some(controller.start());
        for _ in 0..16 {
            if let Some(msg) = to_node.take() {
                if let Some(reply) = node.on_payload(&msg) {
                    if let Some(counter) = controller.on_payload(&reply) {
                        to_node = Some(counter);
                    }
                }
            } else {
                break;
            }
            if controller.is_established() && node.is_established() {
                return Some((controller.take_session()?, node.take_session()?));
            }
        }
        None
    }

    fn endpoints(dsk_ok: bool) -> (IncludingController, JoiningNode) {
        let node = JoiningNode::new([0x42u8; 32], 0xCB95A34A, 0x01, 0x02);
        let pin = if dsk_ok { Some(dsk_pin(node.public())) } else { Some([0xDE, 0xAD]) };
        let controller = IncludingController::new(
            NetworkKey::from_seed(77),
            SecurityClass::S2Access,
            [0x17u8; 32],
            pin,
            0xCB95A34A,
            0x01,
            0x02,
        );
        (controller, node)
    }

    #[test]
    fn full_ceremony_establishes_matching_sessions() {
        let (mut controller, mut node) = endpoints(true);
        let (mut ctrl_session, mut node_session) =
            pair(&mut controller, &mut node).expect("ceremony completes");

        // The node was granted the right class and key.
        let (class, key) = node.granted().unwrap();
        assert_eq!(*class, SecurityClass::S2Access);
        assert_eq!(*key, NetworkKey::from_seed(77));

        // The sessions interoperate in both directions.
        let encap = ctrl_session.encapsulate(0xCB95A34A, 0x01, 0x02, &[0x62, 0x01, 0xFF]);
        assert_eq!(
            node_session.decapsulate(0xCB95A34A, 0x01, 0x02, &encap).unwrap(),
            vec![0x62, 0x01, 0xFF]
        );
        let report = node_session.encapsulate(0xCB95A34A, 0x02, 0x01, &[0x62, 0x03, 0xFF]);
        assert_eq!(
            ctrl_session.decapsulate(0xCB95A34A, 0x02, 0x01, &report).unwrap(),
            vec![0x62, 0x03, 0xFF]
        );
    }

    #[test]
    fn dsk_mismatch_aborts_the_ceremony() {
        let (mut controller, mut node) = endpoints(false);
        assert!(pair(&mut controller, &mut node).is_none());
        assert_eq!(controller.failure(), Some(KexFailure::DskMismatch));
        assert!(!controller.is_established());
    }

    #[test]
    fn mitm_key_substitution_is_caught_by_the_dsk() {
        // An active attacker replaces the node's public key with their own.
        let (mut controller, mut node) = endpoints(true);
        let kex_get = controller.start();
        let kex_report = node.on_payload(&kex_get).unwrap();
        let kex_set = controller.on_payload(&kex_report).unwrap();
        let mut pk_report = node.on_payload(&kex_set).unwrap();
        // Substitute the attacker's public key.
        let attacker_pk = public_key(&[0x66u8; 32]);
        pk_report[3..35].copy_from_slice(&attacker_pk);
        let response = controller.on_payload(&pk_report).unwrap();
        assert_eq!(response[1], cmd::KEX_FAIL);
        assert_eq!(controller.failure(), Some(KexFailure::DskMismatch));
    }

    #[test]
    fn unauthenticated_inclusion_accepts_any_key_but_lower_class() {
        let node = JoiningNode::new([0x11u8; 32], 1, 1, 2);
        let mut controller = IncludingController::new(
            NetworkKey::from_seed(5),
            SecurityClass::S2Unauthenticated,
            [0x22u8; 32],
            None, // no DSK: unauthenticated class
            1,
            1,
            2,
        );
        let mut node = node;
        assert!(pair(&mut controller, &mut node).is_some());
        assert_eq!(node.granted().unwrap().0, SecurityClass::S2Unauthenticated);
    }

    #[test]
    fn out_of_order_messages_abort() {
        let (mut controller, mut node) = endpoints(true);
        let _ = controller.start();
        // The node never saw KEX GET; a KEX SET out of the blue fails.
        let reply = node.on_payload(&[0x9F, cmd::KEX_SET, 0, 2, 1, 0x87]).unwrap();
        assert_eq!(reply[1], cmd::KEX_FAIL);
        assert_eq!(node.failure(), Some(KexFailure::OutOfOrder));
    }

    #[test]
    fn foreign_payloads_are_ignored() {
        let (mut controller, _) = endpoints(true);
        let _ = controller.start();
        assert!(controller.on_payload(&[0x20, 0x01, 0xFF]).is_none());
        assert!(controller.on_payload(&[0x9F]).is_none());
        assert!(controller.failure().is_none(), "ignoring is not failing");
    }

    #[test]
    fn dsk_pin_is_the_key_prefix() {
        let node = JoiningNode::new([0x42u8; 32], 1, 1, 2);
        let pin = dsk_pin(node.public());
        assert_eq!(pin, [node.public()[0], node.public()[1]]);
    }
}
