//! `S2Session` against a byte-key reference: the straightforward S2
//! algorithm with AES key schedules and CMAC subkeys expanded on every
//! call, and a decapsulation that re-derives each candidate nonce of the
//! resync window from the SPAN state. The session caches both schedules
//! and walks the window incrementally; on the wire the two must be
//! indistinguishable.

use zwave_crypto::aes::Aes128;
use zwave_crypto::kdf::DerivedKeys;
use zwave_crypto::s2::{S2Session, NONCE_LEN, RESYNC_WINDOW, TAG_LEN};
use zwave_crypto::{ccm, cmac::cmac, s2, NetworkKey};

/// Reference SPAN: raw key bytes, CMAC re-keyed on every ratchet.
struct RefSpan {
    key: [u8; 16],
    state: [u8; 16],
}

impl RefSpan {
    fn instantiate(keys: &DerivedKeys, sender_ei: &[u8; 16], receiver_ei: &[u8; 16]) -> Self {
        let mut seed_msg = Vec::with_capacity(64);
        seed_msg.extend_from_slice(sender_ei);
        seed_msg.extend_from_slice(receiver_ei);
        seed_msg.extend_from_slice(&keys.personalization);
        let key = cmac(&keys.ccm_key, &seed_msg);
        let state = cmac(&key, b"span-instantiate");
        RefSpan { key, state }
    }

    fn next_nonce(&mut self) -> [u8; NONCE_LEN] {
        self.state = cmac(&self.key, &self.state);
        self.state[..NONCE_LEN].try_into().expect("nonce fits the state")
    }

    /// The nonce `k + 1` ratchets ahead, without moving the state.
    fn peek(&self, k: usize) -> [u8; NONCE_LEN] {
        let mut state = self.state;
        for _ in 0..=k {
            state = cmac(&self.key, &state);
        }
        state[..NONCE_LEN].try_into().expect("nonce fits the state")
    }

    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.state = cmac(&self.key, &self.state);
        }
    }
}

/// Reference session: `ccm::seal_with`/`ccm::open_with` under a key
/// expanded per call, around the peek/advance SPAN.
struct RefSession {
    keys: DerivedKeys,
    span_tx: RefSpan,
    span_rx: RefSpan,
    seq: u8,
}

impl RefSession {
    fn initiator(keys: DerivedKeys, sender_ei: &[u8; 16], receiver_ei: &[u8; 16]) -> Self {
        let span_tx = RefSpan::instantiate(&keys, sender_ei, receiver_ei);
        let span_rx = RefSpan::instantiate(&keys, receiver_ei, sender_ei);
        RefSession { keys, span_tx, span_rx, seq: 0 }
    }

    fn responder(keys: DerivedKeys, sender_ei: &[u8; 16], receiver_ei: &[u8; 16]) -> Self {
        let span_tx = RefSpan::instantiate(&keys, receiver_ei, sender_ei);
        let span_rx = RefSpan::instantiate(&keys, sender_ei, receiver_ei);
        RefSession { keys, span_tx, span_rx, seq: 0 }
    }

    fn aad(home_id: u32, src: u8, dst: u8, seq: u8, len: usize) -> [u8; 8] {
        let h = home_id.to_be_bytes();
        [src, dst, h[0], h[1], h[2], h[3], seq, len as u8]
    }

    fn encapsulate(&mut self, home_id: u32, src: u8, dst: u8, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        let nonce = self.span_tx.next_nonce();
        let aad = Self::aad(home_id, src, dst, seq, plaintext.len());
        let sealed =
            ccm::seal_with(&Aes128::new(&self.keys.ccm_key), &nonce, &aad, plaintext, TAG_LEN)
                .expect("valid ccm parameters");
        [&[0x9F, 0x03, seq, 0x00][..], &sealed].concat()
    }

    fn decapsulate(&mut self, home_id: u32, src: u8, dst: u8, payload: &[u8]) -> Option<Vec<u8>> {
        if payload.len() < 4 + TAG_LEN || payload[0] != 0x9F || payload[1] != 0x03 {
            return None;
        }
        let sealed = &payload[4..];
        let aad = Self::aad(home_id, src, dst, payload[2], sealed.len() - TAG_LEN);
        (0..RESYNC_WINDOW).find_map(|k| {
            let pt = ccm::open_with(
                &Aes128::new(&self.keys.ccm_key),
                &self.span_rx.peek(k),
                &aad,
                sealed,
                TAG_LEN,
            );
            pt.ok().inspect(|_| self.span_rx.advance(k + 1))
        })
    }
}

const HOME: u32 = 0xCB95_A34A;

#[test]
fn cached_session_matches_the_byte_key_reference_through_loss_and_attack() {
    let keys = s2::network_keys(&NetworkKey::from_seed(9));
    let mut ref_tx = RefSession::initiator(keys.clone(), &[3; 16], &[4; 16]);
    let mut ref_rx = RefSession::responder(keys.clone(), &[3; 16], &[4; 16]);
    let mut tx = S2Session::initiator(keys.clone(), &[3; 16], &[4; 16]);
    let mut rx = S2Session::responder(keys, &[3; 16], &[4; 16]);
    // A structurally valid but unauthenticated MESSAGE_ENCAP, as an
    // attacker injects it: the receiver burns its whole resync window.
    let attacker = [&[0x9F, 0x03, 0x7E, 0x00][..], &[0xA5; 16]].concat();
    let mut opened = 0;
    for i in 0u8..32 {
        let pt = [0x20, 0x01, i];
        let encap = tx.encapsulate(HOME, 1, 2, &pt);
        assert_eq!(ref_tx.encapsulate(HOME, 1, 2, &pt), encap, "encapsulation diverged at {i}");
        // Every third frame is lost, so the receivers resync on the next.
        if i % 3 == 0 {
            continue;
        }
        let got = rx.decapsulate(HOME, 1, 2, &encap).expect("session opens");
        assert_eq!(ref_rx.decapsulate(HOME, 1, 2, &encap), Some(got.clone()), "frame {i}");
        assert_eq!(got, pt);
        opened += 1;
        assert!(ref_rx.decapsulate(HOME, 1, 2, &attacker).is_none(), "reference accepted junk");
        assert!(rx.decapsulate(HOME, 1, 2, &attacker).is_err(), "session accepted junk");
    }
    assert_eq!(opened, 21);
}
