//! AES-CCM authenticated encryption (NIST SP 800-38C), the S2 frame cipher.
//!
//! Z-Wave S2 uses a 13-byte nonce (so the length field is 2 bytes) and an
//! 8-byte tag; the functions here are generic over both within the limits
//! of the standard.

use crate::aes::Aes128;

/// Errors from CCM sealing/opening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcmError {
    /// Nonce length outside `7..=13`.
    BadNonceLen(usize),
    /// Tag length not one of 4, 6, 8, 10, 12, 14, 16.
    BadTagLen(usize),
    /// Message too long for the counter size implied by the nonce.
    MessageTooLong,
    /// Authentication failed during open.
    AuthFailed,
}

impl std::fmt::Display for CcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CcmError::BadNonceLen(n) => write!(f, "ccm nonce length {n} outside 7..=13"),
            CcmError::BadTagLen(t) => write!(f, "ccm tag length {t} not an even value in 4..=16"),
            CcmError::MessageTooLong => f.write_str("message too long for ccm counter size"),
            CcmError::AuthFailed => f.write_str("ccm authentication failed"),
        }
    }
}

impl std::error::Error for CcmError {}

fn check_params(nonce: &[u8], tag_len: usize) -> Result<usize, CcmError> {
    if !(7..=13).contains(&nonce.len()) {
        return Err(CcmError::BadNonceLen(nonce.len()));
    }
    if !(4..=16).contains(&tag_len) || !tag_len.is_multiple_of(2) {
        return Err(CcmError::BadTagLen(tag_len));
    }
    Ok(15 - nonce.len())
}

fn cbc_mac(
    aes: &Aes128,
    nonce: &[u8],
    aad: &[u8],
    payload: &[u8],
    tag_len: usize,
    q: usize,
) -> [u8; 16] {
    // B0 block.
    let mut b0 = [0u8; 16];
    b0[0] = (if aad.is_empty() { 0 } else { 0x40 })
        | ((((tag_len - 2) / 2) as u8) << 3)
        | ((q - 1) as u8);
    b0[1..1 + nonce.len()].copy_from_slice(nonce);
    let mut plen = payload.len();
    for i in 0..q {
        b0[15 - i] = (plen & 0xFF) as u8;
        plen >>= 8;
    }

    let mut x = aes.encrypt(b0);

    // Associated data, length-prefixed (we only support a < 2^16 - 2^8,
    // ample for 64-byte frames).
    if !aad.is_empty() {
        let mut block = [0u8; 16];
        block[0] = (aad.len() >> 8) as u8;
        block[1] = (aad.len() & 0xFF) as u8;
        let take = aad.len().min(14);
        block[2..2 + take].copy_from_slice(&aad[..take]);
        for j in 0..16 {
            x[j] ^= block[j];
        }
        x = aes.encrypt(x);
        let mut rest = &aad[take..];
        while !rest.is_empty() {
            let take = rest.len().min(16);
            for j in 0..take {
                x[j] ^= rest[j];
            }
            x = aes.encrypt(x);
            rest = &rest[take..];
        }
    }

    // Payload blocks, zero padded.
    let mut rest = payload;
    while !rest.is_empty() {
        let take = rest.len().min(16);
        for j in 0..take {
            x[j] ^= rest[j];
        }
        x = aes.encrypt(x);
        rest = &rest[take..];
    }
    x
}

fn ctr_block(nonce: &[u8], q: usize, counter: u64) -> [u8; 16] {
    let mut a = [0u8; 16];
    a[0] = (q - 1) as u8;
    a[1..1 + nonce.len()].copy_from_slice(nonce);
    let mut c = counter;
    for i in 0..q {
        a[15 - i] = (c & 0xFF) as u8;
        c >>= 8;
    }
    a
}

/// Encrypts and authenticates with a prebuilt cipher: returns
/// `ciphertext || tag`. Callers that seal many frames under one key (the
/// S2 session) expand the key schedule once and pass it here.
///
/// # Errors
///
/// Returns [`CcmError`] for out-of-range nonce/tag lengths or an oversized
/// message.
pub fn seal_with(
    aes: &Aes128,
    nonce: &[u8],
    aad: &[u8],
    plaintext: &[u8],
    tag_len: usize,
) -> Result<Vec<u8>, CcmError> {
    let q = check_params(nonce, tag_len)?;
    if q < 8 && plaintext.len() as u128 >= 1u128 << (8 * q) {
        return Err(CcmError::MessageTooLong);
    }
    let mac = cbc_mac(aes, nonce, aad, plaintext, tag_len, q);

    let mut out = Vec::with_capacity(plaintext.len() + tag_len);
    out.extend_from_slice(plaintext);
    for (i, chunk) in out.chunks_mut(16).enumerate() {
        let s = aes.encrypt(ctr_block(nonce, q, (i + 1) as u64));
        for (b, k) in chunk.iter_mut().zip(s.iter()) {
            *b ^= k;
        }
    }
    let s0 = aes.encrypt(ctr_block(nonce, q, 0));
    out.extend((0..tag_len).map(|i| mac[i] ^ s0[i]));
    Ok(out)
}

/// Verifies and decrypts `ciphertext || tag` with a prebuilt cipher;
/// returns the plaintext. The counterpart of [`seal_with`].
///
/// # Errors
///
/// Returns [`CcmError::AuthFailed`] when the tag does not verify, plus the
/// same parameter errors as [`seal_with`].
pub fn open_with(
    aes: &Aes128,
    nonce: &[u8],
    aad: &[u8],
    sealed: &[u8],
    tag_len: usize,
) -> Result<Vec<u8>, CcmError> {
    let q = check_params(nonce, tag_len)?;
    if sealed.len() < tag_len {
        return Err(CcmError::AuthFailed);
    }
    let (ct, tag) = sealed.split_at(sealed.len() - tag_len);

    let mut pt = ct.to_vec();
    for (i, chunk) in pt.chunks_mut(16).enumerate() {
        let s = aes.encrypt(ctr_block(nonce, q, (i + 1) as u64));
        for (b, k) in chunk.iter_mut().zip(s.iter()) {
            *b ^= k;
        }
    }

    let mac = cbc_mac(aes, nonce, aad, &pt, tag_len, q);
    let s0 = aes.encrypt(ctr_block(nonce, q, 0));
    let diff = (0..tag_len).fold(0u8, |acc, i| acc | (tag[i] ^ mac[i] ^ s0[i]));
    if diff != 0 {
        return Err(CcmError::AuthFailed);
    }
    Ok(pt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x4b, 0x4c, 0x4d, 0x4e,
        0x4f,
    ];

    #[test]
    fn nist_800_38c_example_1() {
        let nonce = [0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16];
        let aad = [0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07];
        let pt = [0x20, 0x21, 0x22, 0x23];
        let sealed = seal_with(&Aes128::new(&KEY), &nonce, &aad, &pt, 4).unwrap();
        assert_eq!(sealed, vec![0x71, 0x62, 0x01, 0x5b, 0x4d, 0xac, 0x25, 0x5d]);
        assert_eq!(open_with(&Aes128::new(&KEY), &nonce, &aad, &sealed, 4).unwrap(), pt);
    }

    #[test]
    fn nist_800_38c_example_2() {
        let nonce = [0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17];
        let aad: Vec<u8> = (0x00..=0x0f).collect();
        let pt: Vec<u8> = (0x20..=0x2f).collect();
        let sealed = seal_with(&Aes128::new(&KEY), &nonce, &aad, &pt, 6).unwrap();
        let expected: Vec<u8> = vec![
            0xd2, 0xa1, 0xf0, 0xe0, 0x51, 0xea, 0x5f, 0x62, 0x08, 0x1a, 0x77, 0x92, 0x07, 0x3d,
            0x59, 0x3d, 0x1f, 0xc6, 0x4f, 0xbf, 0xac, 0xcd,
        ];
        assert_eq!(sealed, expected);
        assert_eq!(open_with(&Aes128::new(&KEY), &nonce, &aad, &sealed, 6).unwrap(), pt);
    }

    #[test]
    fn s2_shaped_roundtrip() {
        // 13-byte nonce, 8-byte tag: the Z-Wave S2 configuration.
        let nonce = [9u8; 13];
        let aad = [0xE7, 0xDE, 0x3F, 0x3D, 0x01, 0x02];
        let pt = b"\x62\x01\xFF door lock set";
        let sealed = seal_with(&Aes128::new(&KEY), &nonce, &aad, pt, 8).unwrap();
        assert_eq!(sealed.len(), pt.len() + 8);
        assert_eq!(open_with(&Aes128::new(&KEY), &nonce, &aad, &sealed, 8).unwrap(), pt);
    }

    #[test]
    fn tampering_is_detected() {
        let nonce = [1u8; 13];
        let sealed = seal_with(&Aes128::new(&KEY), &nonce, b"aad", b"payload", 8).unwrap();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                open_with(&Aes128::new(&KEY), &nonce, b"aad", &bad, 8),
                Err(CcmError::AuthFailed)
            );
        }
        // Wrong AAD also fails.
        assert_eq!(
            open_with(&Aes128::new(&KEY), &nonce, b"aae", &sealed, 8),
            Err(CcmError::AuthFailed)
        );
        // Wrong nonce also fails.
        assert_eq!(
            open_with(&Aes128::new(&KEY), &[2u8; 13], b"aad", &sealed, 8),
            Err(CcmError::AuthFailed)
        );
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(
            seal_with(&Aes128::new(&KEY), &[0u8; 6], b"", b"", 8),
            Err(CcmError::BadNonceLen(6))
        );
        assert_eq!(
            seal_with(&Aes128::new(&KEY), &[0u8; 14], b"", b"", 8),
            Err(CcmError::BadNonceLen(14))
        );
        assert_eq!(
            seal_with(&Aes128::new(&KEY), &[0u8; 13], b"", b"", 3),
            Err(CcmError::BadTagLen(3))
        );
        assert_eq!(
            seal_with(&Aes128::new(&KEY), &[0u8; 13], b"", b"", 7),
            Err(CcmError::BadTagLen(7))
        );
        assert_eq!(
            open_with(&Aes128::new(&KEY), &[0u8; 13], b"", &[0u8; 4], 8),
            Err(CcmError::AuthFailed)
        );
    }

    #[test]
    fn empty_plaintext_is_a_pure_mac() {
        let nonce = [3u8; 13];
        let sealed = seal_with(&Aes128::new(&KEY), &nonce, b"header only", b"", 8).unwrap();
        assert_eq!(sealed.len(), 8);
        assert_eq!(
            open_with(&Aes128::new(&KEY), &nonce, b"header only", &sealed, 8).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn empty_aad_roundtrip() {
        let nonce = [4u8; 13];
        let sealed = seal_with(&Aes128::new(&KEY), &nonce, b"", b"plain", 8).unwrap();
        assert_eq!(open_with(&Aes128::new(&KEY), &nonce, b"", &sealed, 8).unwrap(), b"plain");
    }
}
