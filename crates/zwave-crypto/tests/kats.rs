//! Known-answer tests for the crypto primitives, pinned to the published
//! standard vectors: AES-128 (NIST SP 800-38A), AES-128-CMAC (RFC 4493)
//! and AES-CCM (RFC 3610 packet vector #1), plus round-trip property
//! tests for the S0 and S2 transport encapsulations built on them.

use proptest::prelude::*;

use zwave_crypto::aes::Aes128;
use zwave_crypto::ccm;
use zwave_crypto::cmac::cmac;
use zwave_crypto::keys::NetworkKey;
use zwave_crypto::s0::{self, S0Keys};
use zwave_crypto::s2::{network_keys, S2Session};

fn hex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

fn hex16(s: &str) -> [u8; 16] {
    hex(s).try_into().unwrap()
}

// ───────────────────── AES-128 (NIST SP 800-38A) ─────────────────────

#[test]
fn aes128_ecb_sp800_38a() {
    let aes = Aes128::new(&hex16("2b7e151628aed2a6abf7158809cf4f3c"));
    let cases = [
        ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
        ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ];
    for (pt, ct) in cases {
        assert_eq!(aes.encrypt(hex16(pt)), hex16(ct), "encrypt {pt}");
    }
}

// ───────────────────── AES-128-CMAC (RFC 4493) ─────────────────────

#[test]
fn cmac_rfc4493_vectors() {
    let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
    let msg = hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
         30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
    let cases: [(usize, &str); 4] = [
        (0, "bb1d6929e95937287fa37d129b756746"),
        (16, "070a16b46b4d4144f79bdd9dd04a287c"),
        (40, "dfa66747de9ae63030ca32611497c827"),
        (64, "51f0bebf7e3b9d92fc49741779363cfe"),
    ];
    for (len, tag) in cases {
        assert_eq!(cmac(&key, &msg[..len]), hex16(tag), "Mlen = {len}");
    }
}

// ───────────────────── AES-CCM (RFC 3610) ─────────────────────

#[test]
fn ccm_rfc3610_packet_vector_1() {
    // 13-byte nonce and 8-byte tag: the same profile Z-Wave S2 uses.
    let key = hex16("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf");
    let nonce = hex("00000003020100a0a1a2a3a4a5");
    let aad = hex("0001020304050607");
    let pt = hex("08090a0b0c0d0e0f101112131415161718191a1b1c1d1e");
    let expected = hex("588c979a61c663d2f066d0c2c0f989806d5f6b61dac38417e8d12cfdf926e0");
    let sealed = ccm::seal_with(&Aes128::new(&key), &nonce, &aad, &pt, 8).unwrap();
    assert_eq!(sealed, expected);
    assert_eq!(ccm::open_with(&Aes128::new(&key), &nonce, &aad, &sealed, 8).unwrap(), pt);
}

// ─────────────── S0/S2 encapsulation round-trips ───────────────

proptest! {
    /// S0 MESSAGE_ENCAP decapsulates to the original payload — including
    /// under the protocol's fixed all-zero inclusion temp key, where any
    /// eavesdropper holds the same working keys.
    #[test]
    fn s0_encapsulate_decapsulate_roundtrip(
        seed in any::<u64>(),
        use_temp_key in any::<bool>(),
        sn in any::<[u8; 8]>(),
        rn in any::<[u8; 8]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..40),
        src in any::<u8>(),
        dst in any::<u8>(),
    ) {
        let keys = if use_temp_key {
            S0Keys::derive_temp()
        } else {
            S0Keys::derive(&NetworkKey::from_seed(seed))
        };
        let encap = s0::encapsulate(&keys, src, dst, &sn, &rn, &pt);
        prop_assert_eq!(s0::decapsulate(&keys, src, dst, &rn, &encap).unwrap(), pt);
    }

    /// S2 encapsulation round-trips across a paired initiator/responder
    /// session for arbitrary payload sequences.
    #[test]
    fn s2_encapsulate_decapsulate_roundtrip(
        seed in any::<u64>(),
        sei in any::<[u8; 16]>(),
        rei in any::<[u8; 16]>(),
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..24), 1..8),
    ) {
        let keys = network_keys(&NetworkKey::from_seed(seed));
        let mut tx = S2Session::initiator(keys.clone(), &sei, &rei);
        let mut rx = S2Session::responder(keys, &sei, &rei);
        for pt in msgs {
            let encap = tx.encapsulate(0xABCD, 1, 2, &pt);
            prop_assert_eq!(rx.decapsulate(0xABCD, 1, 2, &encap).unwrap(), pt);
        }
    }
}
