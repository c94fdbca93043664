//! CKDF: the CMAC-based key derivation of Security 2.
//!
//! S2 derives its working keys in two stages (mirroring the Silicon Labs
//! specification): *TempExtract* condenses the ECDH shared secret and both
//! public keys into a pseudo-random key, and *Expand* stretches a
//! pseudo-random key into the CCM key, the nonce-personalisation string and
//! the MPAN key.

use crate::cmac::cmac;
use crate::curve25519::{PublicKey, SharedSecret};
use crate::keys::NetworkKey;

/// Keys derived for one S2 security span.
#[derive(Clone, PartialEq, Eq)]
pub struct DerivedKeys {
    /// AES-CCM encryption/authentication key.
    pub ccm_key: [u8; 16],
    /// Personalisation string mixed into the SPAN nonce generator.
    pub personalization: [u8; 32],
    /// Multicast (MPAN) key.
    pub mpan_key: [u8; 16],
}

impl std::fmt::Debug for DerivedKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DerivedKeys { .. }")
    }
}

/// CKDF-TempExtract: PRK = CMAC(ConstNonce, ECDH-shared || pk_a || pk_b).
pub(crate) fn temp_extract(shared: &SharedSecret, pk_a: &PublicKey, pk_b: &PublicKey) -> [u8; 16] {
    const CONST_NONCE: [u8; 16] = [0x26; 16];
    let mut msg = Vec::with_capacity(96);
    msg.extend_from_slice(shared);
    msg.extend_from_slice(pk_a);
    msg.extend_from_slice(pk_b);
    cmac(&CONST_NONCE, &msg)
}

fn expand(prk: &[u8; 16], constant: u8) -> DerivedKeys {
    // T1 = CMAC(PRK, Const || 0x01); Ti = CMAC(PRK, T(i-1) || Const || i).
    let mut blocks = Vec::with_capacity(4);
    let mut prev: Vec<u8> = Vec::new();
    for i in 1u8..=4 {
        let mut msg = prev.clone();
        msg.extend_from_slice(&[constant; 15]);
        msg.push(i);
        let t = cmac(prk, &msg);
        prev = t.to_vec();
        blocks.push(t);
    }
    let mut personalization = [0u8; 32];
    personalization[..16].copy_from_slice(&blocks[1]);
    personalization[16..].copy_from_slice(&blocks[2]);
    DerivedKeys { ccm_key: blocks[0], personalization, mpan_key: blocks[3] }
}

/// CKDF-TempKeyExpand: working keys for the *temporary* span used during
/// inclusion, before a permanent network key is granted.
pub(crate) fn temp_key_expand(prk: &[u8; 16]) -> DerivedKeys {
    expand(prk, 0x88)
}

/// CKDF-NetworkKeyExpand: working keys for a granted permanent network key.
pub(crate) fn network_key_expand(key: &NetworkKey) -> DerivedKeys {
    expand(key.bytes(), 0x55)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve25519::{diffie_hellman, public_key};

    #[test]
    fn derivation_is_deterministic() {
        let key = NetworkKey::from_seed(42);
        let a = network_key_expand(&key);
        let b = network_key_expand(&key);
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_give_unrelated_material() {
        let a = network_key_expand(&NetworkKey::from_seed(1));
        let b = network_key_expand(&NetworkKey::from_seed(2));
        assert_ne!(a.ccm_key, b.ccm_key);
        assert_ne!(a.personalization, b.personalization);
        assert_ne!(a.mpan_key, b.mpan_key);
    }

    #[test]
    fn outputs_are_pairwise_distinct() {
        let d = network_key_expand(&NetworkKey::from_seed(3));
        assert_ne!(d.ccm_key, d.mpan_key);
        assert_ne!(&d.personalization[..16], &d.ccm_key[..]);
        assert_ne!(&d.personalization[16..], &d.ccm_key[..]);
    }

    #[test]
    fn temp_and_network_expansion_differ() {
        let prk = [9u8; 16];
        let t = temp_key_expand(&prk);
        let n = expand(&prk, 0x55);
        assert_ne!(t.ccm_key, n.ccm_key);
    }

    #[test]
    fn temp_extract_binds_both_public_keys() {
        let sk_a = [1u8; 32];
        let sk_b = [2u8; 32];
        let pk_a = public_key(&sk_a);
        let pk_b = public_key(&sk_b);
        let shared = diffie_hellman(&sk_a, &pk_b);
        let prk = temp_extract(&shared, &pk_a, &pk_b);
        // Swapping the public keys changes the PRK (role binding).
        assert_ne!(prk, temp_extract(&shared, &pk_b, &pk_a));
        // Both sides agree when they order identically.
        let shared_b = diffie_hellman(&sk_b, &pk_a);
        assert_eq!(prk, temp_extract(&shared_b, &pk_a, &pk_b));
    }

    #[test]
    fn debug_redacts_material() {
        let d = network_key_expand(&NetworkKey::from_seed(1));
        assert_eq!(format!("{d:?}"), "DerivedKeys { .. }");
    }
}
