//! Security 2 (S2) transport encapsulation: Curve25519 key agreement,
//! CKDF-derived working keys, the SPAN nonce generator, and AES-CCM frame
//! protection.
//!
//! The attack surface the paper exploits is *not* a break of this layer —
//! S2's cryptography is sound. The flaw (Table III, "Specification" root
//! causes) is that controllers accept security-sensitive CMDCLs **outside**
//! any encapsulation. Having a working S2 layer in the simulation makes
//! that acceptance meaningful: normal traffic between the hub and the door
//! lock is genuinely encrypted; ZCover's injected frames are not.

use crate::aes::Aes128;
use crate::ccm::{self, CcmError};
use crate::cmac::{cmac, CmacKey};
use crate::curve25519::{diffie_hellman, PublicKey, SecretKey};
use crate::kdf::{network_key_expand, temp_extract, temp_key_expand, DerivedKeys};
use crate::keys::NetworkKey;

/// S2 command ids within command class 0x9F.
pub mod cmd {
    /// Encrypted message encapsulation.
    pub(crate) const MESSAGE_ENCAP: u8 = 0x03;
}

/// S2 tag length: 8 bytes (Z-Wave profile of CCM).
pub const TAG_LEN: usize = 8;
/// SPAN nonce length: 13 bytes.
pub const NONCE_LEN: usize = 13;
/// How many nonces ahead a receiver searches before declaring desync.
pub const RESYNC_WINDOW: usize = 5;

/// Errors from S2 processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S2Error {
    /// Frame too short to carry the encapsulation header and tag.
    Truncated,
    /// CCM authentication failed even within the resync window.
    AuthFailed,
    /// Underlying CCM parameter error (indicates a library bug).
    Ccm(CcmError),
}

impl std::fmt::Display for S2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            S2Error::Truncated => f.write_str("s2 frame truncated"),
            S2Error::AuthFailed => f.write_str("s2 authentication failed"),
            S2Error::Ccm(e) => write!(f, "s2 ccm error: {e}"),
        }
    }
}

impl std::error::Error for S2Error {}

impl From<CcmError> for S2Error {
    fn from(e: CcmError) -> Self {
        match e {
            CcmError::AuthFailed => S2Error::AuthFailed,
            other => S2Error::Ccm(other),
        }
    }
}

/// The SPAN (singlecast pre-agreed nonce) generator: a CMAC-based DRBG
/// personalised with CKDF material and both sides' entropy inputs.
///
/// The DRBG key's CMAC schedule is expanded once at instantiation and
/// cached, so each ratchet step ([`Span::next_nonce`]) is one CMAC over a
/// single block with no key expansion.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Span {
    prf: CmacKey,
    state: [u8; 16],
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Span { .. }")
    }
}

impl Span {
    /// Instantiates the generator from the derived keys and the two
    /// entropy inputs exchanged via NONCE_GET / NONCE_REPORT.
    pub(crate) fn instantiate(
        keys: &DerivedKeys,
        sender_ei: &[u8; 16],
        receiver_ei: &[u8; 16],
    ) -> Self {
        let mut seed_msg = Vec::with_capacity(64);
        seed_msg.extend_from_slice(sender_ei);
        seed_msg.extend_from_slice(receiver_ei);
        seed_msg.extend_from_slice(&keys.personalization);
        let key = cmac(&keys.ccm_key, &seed_msg);
        let prf = CmacKey::new(&key);
        let state = prf.mac(b"span-instantiate");
        Span { prf, state }
    }

    /// Generates the next 13-byte CCM nonce, ratcheting the state.
    pub(crate) fn next_nonce(&mut self) -> [u8; NONCE_LEN] {
        self.state = self.prf.mac(&self.state);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&self.state[..NONCE_LEN]);
        nonce
    }
}

/// One side's established S2 session: derived keys plus the shared SPAN.
///
/// The CCM cipher is expanded from `keys.ccm_key` once at session
/// establishment; every encapsulated/decapsulated frame reuses the cached
/// schedule via [`ccm::seal_with`] / [`ccm::open_with`].
#[derive(Debug, Clone)]
pub struct S2Session {
    ccm: Aes128,
    span_tx: Span,
    span_rx: Span,
    seq: u8,
}

impl S2Session {
    /// Builds the two directions of a session for the node that *initiated*
    /// the nonce exchange (its tx span uses `sender_ei` first).
    pub fn initiator(keys: DerivedKeys, sender_ei: &[u8; 16], receiver_ei: &[u8; 16]) -> Self {
        let span_tx = Span::instantiate(&keys, sender_ei, receiver_ei);
        let span_rx = Span::instantiate(&keys, receiver_ei, sender_ei);
        let ccm = Aes128::new(&keys.ccm_key);
        S2Session { ccm, span_tx, span_rx, seq: 0 }
    }

    /// Builds the mirrored session for the responding node.
    pub fn responder(keys: DerivedKeys, sender_ei: &[u8; 16], receiver_ei: &[u8; 16]) -> Self {
        let span_tx = Span::instantiate(&keys, receiver_ei, sender_ei);
        let span_rx = Span::instantiate(&keys, sender_ei, receiver_ei);
        let ccm = Aes128::new(&keys.ccm_key);
        S2Session { ccm, span_tx, span_rx, seq: 0 }
    }

    /// Encapsulates `plaintext` into an S2 MESSAGE_ENCAP payload:
    /// `[0x9F, 0x03, seq, ext_flags=0, ct || tag(8)]`, authenticated over
    /// `aad = [src, dst, home_id(4), seq, len]`.
    pub fn encapsulate(&mut self, home_id: u32, src: u8, dst: u8, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let nonce = self.span_tx.next_nonce();
        let aad = Self::aad(home_id, src, dst, seq, plaintext.len());
        let sealed = ccm::seal_with(&self.ccm, &nonce, &aad, plaintext, TAG_LEN)
            .expect("fixed 13-byte nonce and 8-byte tag are valid ccm parameters");
        let mut out = Vec::with_capacity(4 + sealed.len());
        out.push(0x9F);
        out.push(cmd::MESSAGE_ENCAP);
        out.push(seq);
        out.push(0x00);
        out.extend_from_slice(&sealed);
        out
    }

    /// Decapsulates an S2 MESSAGE_ENCAP payload, searching up to
    /// [`RESYNC_WINDOW`] nonces ahead to tolerate lost frames.
    ///
    /// # Errors
    ///
    /// [`S2Error::Truncated`] for structurally short frames and
    /// [`S2Error::AuthFailed`] when no nonce in the window verifies.
    pub fn decapsulate(
        &mut self,
        home_id: u32,
        src: u8,
        dst: u8,
        payload: &[u8],
    ) -> Result<Vec<u8>, S2Error> {
        if payload.len() < 4 + TAG_LEN || payload[0] != 0x9F || payload[1] != cmd::MESSAGE_ENCAP {
            return Err(S2Error::Truncated);
        }
        let seq = payload[2];
        let sealed = &payload[4..];
        let pt_len = sealed.len() - TAG_LEN;
        let aad = Self::aad(home_id, src, dst, seq, pt_len);
        // Walk the resync window *incrementally*: each candidate state is
        // one ratchet step past the previous one, so trying k nonces costs
        // k CMACs total instead of the 1+2+…+k a peek-per-offset scan
        // pays. On success the walked state is committed directly.
        let mut state = self.span_rx.state;
        for _ in 0..RESYNC_WINDOW {
            state = self.span_rx.prf.mac(&state);
            let nonce: &[u8] = &state[..NONCE_LEN];
            match ccm::open_with(&self.ccm, nonce, &aad, sealed, TAG_LEN) {
                Ok(pt) => {
                    self.span_rx.state = state;
                    return Ok(pt);
                }
                Err(CcmError::AuthFailed) => continue,
                Err(other) => return Err(other.into()),
            }
        }
        Err(S2Error::AuthFailed)
    }

    fn aad(home_id: u32, src: u8, dst: u8, seq: u8, len: usize) -> [u8; 8] {
        let h = home_id.to_be_bytes();
        [src, dst, h[0], h[1], h[2], h[3], seq, len as u8]
    }
}

/// Performs the ECDH leg of an S2 inclusion: both sides derive the same
/// temporary keys from their keypairs.
pub(crate) fn kex_temp_keys(
    our_secret: &SecretKey,
    our_public: &PublicKey,
    their_public: &PublicKey,
    we_are_including: bool,
) -> DerivedKeys {
    let shared = diffie_hellman(our_secret, their_public);
    // The including controller's key is always "A" in the extract.
    let (pk_a, pk_b) =
        if we_are_including { (our_public, their_public) } else { (their_public, our_public) };
    let prk = temp_extract(&shared, pk_a, pk_b);
    temp_key_expand(&prk)
}

/// Derives the permanent working keys for a granted network key.
pub fn network_keys(key: &NetworkKey) -> DerivedKeys {
    network_key_expand(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve25519::public_key;

    fn keypair(seed: u8) -> (SecretKey, PublicKey) {
        ([seed; 32], public_key(&[seed; 32]))
    }

    fn session_pair() -> (S2Session, S2Session) {
        let keys = network_keys(&NetworkKey::from_seed(5));
        let sei = [1u8; 16];
        let rei = [2u8; 16];
        (S2Session::initiator(keys.clone(), &sei, &rei), S2Session::responder(keys, &sei, &rei))
    }

    #[test]
    fn encap_decap_roundtrip() {
        let (mut a, mut b) = session_pair();
        let pt = [0x62, 0x01, 0xFF];
        let encap = a.encapsulate(0xCB95A34A, 1, 2, &pt);
        assert_eq!(&encap[..2], &[0x9F, 0x03]);
        let back = b.decapsulate(0xCB95A34A, 1, 2, &encap).unwrap();
        assert_eq!(back, pt);
    }

    #[test]
    fn sequence_of_messages_stays_in_sync() {
        let (mut a, mut b) = session_pair();
        for i in 0u8..20 {
            let pt = [0x20, 0x01, i];
            let encap = a.encapsulate(7, 1, 2, &pt);
            assert_eq!(b.decapsulate(7, 1, 2, &encap).unwrap(), pt);
        }
    }

    #[test]
    fn lost_frames_within_window_resync() {
        let (mut a, mut b) = session_pair();
        // Three frames vanish on air.
        for _ in 0..3 {
            let _lost = a.encapsulate(7, 1, 2, &[0x00]);
        }
        let pt = [0x25, 0x01, 0xFF];
        let encap = a.encapsulate(7, 1, 2, &pt);
        assert_eq!(b.decapsulate(7, 1, 2, &encap).unwrap(), pt);
    }

    #[test]
    fn desync_beyond_window_fails() {
        let (mut a, mut b) = session_pair();
        for _ in 0..RESYNC_WINDOW + 1 {
            let _lost = a.encapsulate(7, 1, 2, &[0x00]);
        }
        let encap = a.encapsulate(7, 1, 2, &[0x01]);
        assert_eq!(b.decapsulate(7, 1, 2, &encap), Err(S2Error::AuthFailed));
    }

    #[test]
    fn tampering_and_header_binding() {
        let (mut a, mut b) = session_pair();
        let encap = a.encapsulate(0xE7DE3F3D, 1, 2, &[0x62, 0x01, 0xFF]);
        // Bit flip in ciphertext.
        let mut bad = encap.clone();
        let idx = bad.len() - 1;
        bad[idx] ^= 1;
        assert_eq!(b.decapsulate(0xE7DE3F3D, 1, 2, &bad), Err(S2Error::AuthFailed));
        // Wrong home id (AAD binding).
        assert_eq!(
            b.clone_for_test().decapsulate(0xDEADBEEF, 1, 2, &encap),
            Err(S2Error::AuthFailed)
        );
        // Wrong src (AAD binding).
        assert_eq!(b.decapsulate(0xE7DE3F3D, 3, 2, &encap), Err(S2Error::AuthFailed));
    }

    impl S2Session {
        fn clone_for_test(&self) -> S2Session {
            self.clone()
        }
    }

    #[test]
    fn truncated_frames_rejected() {
        let (_, mut b) = session_pair();
        assert_eq!(b.decapsulate(7, 1, 2, &[0x9F, 0x03, 0x00]), Err(S2Error::Truncated));
        assert_eq!(b.decapsulate(7, 1, 2, &[0x20, 0x01]), Err(S2Error::Truncated));
    }

    #[test]
    fn kex_both_sides_agree() {
        let (sk_a, pk_a) = keypair(3);
        let (sk_b, pk_b) = keypair(4);
        let keys_a = kex_temp_keys(&sk_a, &pk_a, &pk_b, true);
        let keys_b = kex_temp_keys(&sk_b, &pk_b, &pk_a, false);
        assert_eq!(keys_a.ccm_key, keys_b.ccm_key);
        assert_eq!(keys_a.personalization, keys_b.personalization);
    }

    #[test]
    fn kex_differs_per_peer() {
        let (sk_a, pk_a) = keypair(3);
        let (_, pk_b) = keypair(4);
        let (_, pk_c) = keypair(5);
        let ab = kex_temp_keys(&sk_a, &pk_a, &pk_b, true);
        let ac = kex_temp_keys(&sk_a, &pk_a, &pk_c, true);
        assert_ne!(ab.ccm_key, ac.ccm_key);
    }

    #[test]
    fn span_generates_distinct_nonces() {
        let keys = network_keys(&NetworkKey::from_seed(1));
        let mut span = Span::instantiate(&keys, &[0u8; 16], &[1u8; 16]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(span.next_nonce()));
        }
    }

    #[test]
    fn span_entropy_inputs_matter() {
        let keys = network_keys(&NetworkKey::from_seed(1));
        let mut a = Span::instantiate(&keys, &[0u8; 16], &[1u8; 16]);
        let mut b = Span::instantiate(&keys, &[0u8; 16], &[2u8; 16]);
        assert_ne!(a.next_nonce(), b.next_nonce());
    }
}
