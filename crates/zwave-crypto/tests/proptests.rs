//! Property-based tests for the cryptographic layers.

use proptest::prelude::*;

use zwave_crypto::aes::Aes128;
use zwave_crypto::ccm;
use zwave_crypto::cmac::cmac;
use zwave_crypto::keys::NetworkKey;
use zwave_crypto::s0::{self, S0Keys};
use zwave_crypto::s2::{network_keys, S2Session};

proptest! {
    /// CMAC differs when the message changes by one appended byte.
    #[test]
    fn cmac_extension_changes_tag(
        key in any::<[u8; 16]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..64),
        extra in any::<u8>(),
    ) {
        let mut ext = msg.clone();
        ext.push(extra);
        prop_assert_ne!(cmac(&key, &msg), cmac(&key, &ext));
    }

    /// CCM seal/open roundtrip holds for the S2 parameter profile.
    #[test]
    fn ccm_roundtrip(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 13]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        pt in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let sealed = ccm::seal_with(&Aes128::new(&key), &nonce, &aad, &pt, 8).unwrap();
        prop_assert_eq!(sealed.len(), pt.len() + 8);
        prop_assert_eq!(ccm::open_with(&Aes128::new(&key), &nonce, &aad, &sealed, 8).unwrap(), pt);
    }

    /// CCM rejects any single corrupted byte of the sealed message.
    #[test]
    fn ccm_detects_corruption(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 13]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..32),
        idx in any::<prop::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let mut sealed = ccm::seal_with(&Aes128::new(&key), &nonce, b"aad", &pt, 8).unwrap();
        let i = idx.index(sealed.len());
        sealed[i] ^= delta;
        prop_assert!(ccm::open_with(&Aes128::new(&key), &nonce, b"aad", &sealed, 8).is_err());
    }

    /// S0 encapsulation roundtrips for arbitrary payloads and nonces.
    #[test]
    fn s0_roundtrip(
        seed in any::<u64>(),
        sn in any::<[u8; 8]>(),
        rn in any::<[u8; 8]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..40),
        src in any::<u8>(),
        dst in any::<u8>(),
    ) {
        let keys = S0Keys::derive(&NetworkKey::from_seed(seed));
        let encap = s0::encapsulate(&keys, src, dst, &sn, &rn, &pt);
        prop_assert_eq!(s0::decapsulate(&keys, src, dst, &rn, &encap).unwrap(), pt);
    }

    /// S2 sessions stay in sync over arbitrary message sequences with
    /// occasional losses inside the resync window.
    #[test]
    fn s2_session_sync_with_losses(
        seed in any::<u64>(),
        script in proptest::collection::vec((any::<bool>(), proptest::collection::vec(any::<u8>(), 1..20)), 1..20),
    ) {
        let keys = network_keys(&NetworkKey::from_seed(seed));
        let sei = [3u8; 16];
        let rei = [4u8; 16];
        let mut tx = S2Session::initiator(keys.clone(), &sei, &rei);
        let mut rx = S2Session::responder(keys, &sei, &rei);
        let mut lost_run = 0usize;
        for (deliver, pt) in script {
            let encap = tx.encapsulate(0xABCD, 1, 2, &pt);
            if deliver || lost_run >= zwave_crypto::s2::RESYNC_WINDOW - 1 {
                prop_assert_eq!(rx.decapsulate(0xABCD, 1, 2, &encap).unwrap(), pt);
                lost_run = 0;
            } else {
                lost_run += 1;
            }
        }
    }
}
