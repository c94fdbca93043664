//! Security 0 (S0) transport encapsulation: AES-128-OFB encryption with an
//! 8-byte CBC-MAC, and the protocol's documented weakness — the **fixed
//! all-zero temporary key** used during inclusion key exchange, which
//! enables the MITM attack of Fouladi & Ghanoun (paper Section II-A1).

use crate::aes::Aes128;
use crate::keys::NetworkKey;

/// The fixed temporary key S0 uses while the real network key is exchanged.
/// Being a protocol constant, any eavesdropper of an inclusion can decrypt
/// the key exchange — the S0 weakness the paper references.
pub(crate) const S0_FIXED_TEMP_KEY: [u8; 16] = [0u8; 16];

/// S0 command ids within command class 0x98.
pub mod cmd {
    /// Nonce request.
    pub const NONCE_GET: u8 = 0x40;
    /// Nonce report carrying an 8-byte receiver nonce.
    pub const NONCE_REPORT: u8 = 0x80;
    /// Encrypted message encapsulation.
    pub const MESSAGE_ENCAP: u8 = 0x81;
}

/// Errors from S0 decapsulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum S0Error {
    /// The encapsulated payload is structurally too short.
    Truncated,
    /// The 8-byte authentication tag failed to verify.
    AuthFailed,
    /// The receiver-nonce identifier does not match the supplied nonce.
    NonceMismatch,
}

impl std::fmt::Display for S0Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            S0Error::Truncated => f.write_str("s0 frame truncated"),
            S0Error::AuthFailed => f.write_str("s0 authentication failed"),
            S0Error::NonceMismatch => f.write_str("s0 receiver nonce mismatch"),
        }
    }
}

impl std::error::Error for S0Error {}

/// Working keys derived from an S0 network key. Both the encryption and
/// authentication ciphers are stored with their round-key schedules
/// expanded, so per-frame encapsulation never re-runs AES key expansion.
#[derive(Clone)]
pub struct S0Keys {
    enc: Aes128,
    auth: Aes128,
}

impl std::fmt::Debug for S0Keys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("S0Keys { .. }")
    }
}

impl S0Keys {
    /// Derives the encryption and authentication keys:
    /// `Ke = AES(Kn, 0xAA…)`, `Km = AES(Kn, 0x55…)`.
    pub fn derive(network_key: &NetworkKey) -> Self {
        let kn = Aes128::new(network_key.bytes());
        let ke = kn.encrypt([0xAA; 16]);
        let km = kn.encrypt([0x55; 16]);
        S0Keys { enc: Aes128::new(&ke), auth: Aes128::new(&km) }
    }

    /// Derives the working keys for the fixed all-zero inclusion temp key.
    pub fn derive_temp() -> Self {
        S0Keys::derive(&NetworkKey::new(S0_FIXED_TEMP_KEY))
    }
}

/// AES-OFB keystream application (encrypt == decrypt).
fn ofb_xor(keys: &S0Keys, iv: &[u8; 16], data: &mut [u8]) {
    let mut feedback = *iv;
    for chunk in data.chunks_mut(16) {
        feedback = keys.enc.encrypt(feedback);
        for (b, k) in chunk.iter_mut().zip(feedback.iter()) {
            *b ^= k;
        }
    }
}

/// 8-byte CBC-MAC over the S0 authenticated data.
fn auth_tag(keys: &S0Keys, iv: &[u8; 16], header: u8, src: u8, dst: u8, ct: &[u8]) -> [u8; 8] {
    let mut auth_data = Vec::with_capacity(20 + ct.len());
    auth_data.extend_from_slice(iv);
    auth_data.push(header);
    auth_data.push(src);
    auth_data.push(dst);
    auth_data.push(ct.len() as u8);
    auth_data.extend_from_slice(ct);

    let mut state = [0u8; 16];
    for chunk in auth_data.chunks(16) {
        for (s, b) in state.iter_mut().zip(chunk) {
            *s ^= b;
        }
        state = keys.auth.encrypt(state);
    }
    let mut tag = [0u8; 8];
    tag.copy_from_slice(&state[..8]);
    tag
}

/// Encapsulates `plaintext` into an S0 MESSAGE_ENCAP application payload:
/// `[0x98, 0x81, sender_nonce(8), ciphertext…, nonce_id, mac(8)]`.
pub fn encapsulate(
    keys: &S0Keys,
    src: u8,
    dst: u8,
    sender_nonce: &[u8; 8],
    receiver_nonce: &[u8; 8],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut iv = [0u8; 16];
    iv[..8].copy_from_slice(sender_nonce);
    iv[8..].copy_from_slice(receiver_nonce);

    let mut ct = plaintext.to_vec();
    ofb_xor(keys, &iv, &mut ct);
    let tag = auth_tag(keys, &iv, cmd::MESSAGE_ENCAP, src, dst, &ct);

    let mut out = Vec::with_capacity(2 + 8 + ct.len() + 1 + 8);
    out.push(0x98);
    out.push(cmd::MESSAGE_ENCAP);
    out.extend_from_slice(sender_nonce);
    out.extend_from_slice(&ct);
    out.push(receiver_nonce[0]);
    out.extend_from_slice(&tag);
    out
}

/// Decapsulates and verifies an S0 MESSAGE_ENCAP payload.
///
/// # Errors
///
/// [`S0Error::Truncated`] for structurally short frames,
/// [`S0Error::NonceMismatch`] when the embedded receiver-nonce id does not
/// match `receiver_nonce`, and [`S0Error::AuthFailed`] on MAC failure.
pub fn decapsulate(
    keys: &S0Keys,
    src: u8,
    dst: u8,
    receiver_nonce: &[u8; 8],
    payload: &[u8],
) -> Result<Vec<u8>, S0Error> {
    // [0x98, 0x81] + nonce(8) + ct(>=1) + id(1) + mac(8)
    if payload.len() < 2 + 8 + 1 + 1 + 8 || payload[0] != 0x98 || payload[1] != cmd::MESSAGE_ENCAP {
        return Err(S0Error::Truncated);
    }
    let sender_nonce = &payload[2..10];
    let mac_off = payload.len() - 8;
    let nonce_id = payload[mac_off - 1];
    let ct = &payload[10..mac_off - 1];
    let tag: [u8; 8] = payload[mac_off..].try_into().expect("slice is 8 bytes");

    if nonce_id != receiver_nonce[0] {
        return Err(S0Error::NonceMismatch);
    }

    let mut iv = [0u8; 16];
    iv[..8].copy_from_slice(sender_nonce);
    iv[8..].copy_from_slice(receiver_nonce);

    let expected = auth_tag(keys, &iv, cmd::MESSAGE_ENCAP, src, dst, ct);
    if expected.iter().zip(tag.iter()).fold(0u8, |a, (x, y)| a | (x ^ y)) != 0 {
        return Err(S0Error::AuthFailed);
    }

    let mut pt = ct.to_vec();
    ofb_xor(keys, &iv, &mut pt);
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> S0Keys {
        S0Keys::derive(&NetworkKey::from_seed(99))
    }

    #[test]
    fn roundtrip() {
        let k = keys();
        let sn = [1, 2, 3, 4, 5, 6, 7, 8];
        let rn = [9, 10, 11, 12, 13, 14, 15, 16];
        let pt = [0x62, 0x01, 0xFF]; // door lock set
        let encap = encapsulate(&k, 0x01, 0x02, &sn, &rn, &pt);
        assert_eq!(encap[0], 0x98);
        assert_eq!(encap[1], 0x81);
        let back = decapsulate(&k, 0x01, 0x02, &rn, &encap).unwrap();
        assert_eq!(back, pt);
    }

    #[test]
    fn tampered_ciphertext_fails_auth() {
        let k = keys();
        let sn = [1u8; 8];
        let rn = [2u8; 8];
        let mut encap = encapsulate(&k, 1, 2, &sn, &rn, &[0x20, 0x01, 0xFF]);
        encap[11] ^= 0x80;
        assert_eq!(decapsulate(&k, 1, 2, &rn, &encap), Err(S0Error::AuthFailed));
    }

    #[test]
    fn wrong_direction_fails_auth() {
        // src/dst are authenticated: a reflected frame fails.
        let k = keys();
        let sn = [1u8; 8];
        let rn = [2u8; 8];
        let encap = encapsulate(&k, 1, 2, &sn, &rn, &[0x25, 0x01, 0x00]);
        assert_eq!(decapsulate(&k, 2, 1, &rn, &encap), Err(S0Error::AuthFailed));
    }

    #[test]
    fn stale_nonce_detected() {
        let k = keys();
        let sn = [1u8; 8];
        let rn = [2u8; 8];
        let other_rn = [7u8; 8];
        let encap = encapsulate(&k, 1, 2, &sn, &rn, &[0x00]);
        assert_eq!(decapsulate(&k, 1, 2, &other_rn, &encap), Err(S0Error::NonceMismatch));
    }

    #[test]
    fn truncated_frames_rejected() {
        let k = keys();
        assert_eq!(decapsulate(&k, 1, 2, &[0u8; 8], &[0x98, 0x81, 0x00]), Err(S0Error::Truncated));
        assert_eq!(decapsulate(&k, 1, 2, &[0u8; 8], &[]), Err(S0Error::Truncated));
    }

    #[test]
    fn fixed_temp_key_is_eavesdroppable() {
        // Anyone can derive the temp keys — this is the S0 weakness.
        let victim = S0Keys::derive_temp();
        let attacker = S0Keys::derive_temp();
        let sn = [3u8; 8];
        let rn = [4u8; 8];
        let network_key_exchange = [0x98, 0x06, 0xDE, 0xAD, 0xBE, 0xEF];
        let encap = encapsulate(&victim, 1, 2, &sn, &rn, &network_key_exchange);
        // The "attacker" decrypts the key exchange with the public constant.
        assert_eq!(decapsulate(&attacker, 1, 2, &rn, &encap).unwrap(), network_key_exchange);
    }

    #[test]
    fn different_network_keys_do_not_interoperate() {
        let a = S0Keys::derive(&NetworkKey::from_seed(1));
        let b = S0Keys::derive(&NetworkKey::from_seed(2));
        let sn = [1u8; 8];
        let rn = [2u8; 8];
        let encap = encapsulate(&a, 1, 2, &sn, &rn, &[0x20, 0x02]);
        assert_eq!(decapsulate(&b, 1, 2, &rn, &encap), Err(S0Error::AuthFailed));
    }

    #[test]
    fn ofb_keystream_is_an_involution() {
        let k = keys();
        let iv = [0x11u8; 16];
        let mut data = b"thirty-three byte long test body!".to_vec();
        let orig = data.clone();
        ofb_xor(&k, &iv, &mut data);
        assert_ne!(data, orig);
        ofb_xor(&k, &iv, &mut data);
        assert_eq!(data, orig);
    }
}
