//! AES-128-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! S2 uses CMAC both for frame authentication and as the PRF inside its key
//! derivation (CKDF); see [`crate::kdf`].

use crate::aes::Aes128;

/// Doubles a 128-bit value in GF(2^128) with the CMAC reduction constant.
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

/// A CMAC key with its AES round-key schedule and K1/K2 subkeys expanded
/// once at construction. The per-message cost of [`CmacKey::mac`] is then
/// just the CBC chain — no key expansion, no subkey doubling. Hot paths
/// (the S2 SPAN nonce generator ticks one CMAC per frame) hold one of
/// these; the free functions below re-expand per call and are only meant
/// for cold one-shot uses such as key derivation.
#[derive(Clone)]
pub(crate) struct CmacKey {
    key: [u8; 16],
    aes: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

impl std::fmt::Debug for CmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CmacKey { .. }")
    }
}

impl PartialEq for CmacKey {
    fn eq(&self, other: &Self) -> bool {
        // k1/k2 and the schedule are functions of the key bytes.
        self.key == other.key
    }
}

impl Eq for CmacKey {}

impl CmacKey {
    /// Expands `key` into the cached schedule and CMAC subkeys.
    pub(crate) fn new(key: &[u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let k1 = dbl(&aes.encrypt([0u8; 16]));
        let k2 = dbl(&k1);
        CmacKey { key: *key, aes, k1, k2 }
    }

    /// Computes AES-128-CMAC over `msg`.
    pub(crate) fn mac(&self, msg: &[u8]) -> [u8; 16] {
        let n_blocks = msg.len().div_ceil(16).max(1);
        let complete_last = !msg.is_empty() && msg.len().is_multiple_of(16);

        let mut x = [0u8; 16];
        for i in 0..n_blocks - 1 {
            let mut block = [0u8; 16];
            block.copy_from_slice(&msg[16 * i..16 * i + 16]);
            for j in 0..16 {
                x[j] ^= block[j];
            }
            x = self.aes.encrypt(x);
        }

        let mut last = [0u8; 16];
        let tail = &msg[16 * (n_blocks - 1)..];
        if complete_last {
            last.copy_from_slice(tail);
            for (b, k) in last.iter_mut().zip(&self.k1) {
                *b ^= k;
            }
        } else {
            last[..tail.len()].copy_from_slice(tail);
            last[tail.len()] = 0x80;
            for (b, k) in last.iter_mut().zip(&self.k2) {
                *b ^= k;
            }
        }
        for j in 0..16 {
            x[j] ^= last[j];
        }
        self.aes.encrypt(x)
    }
}

/// Computes AES-128-CMAC over `msg`, expanding `key` for this one call.
pub fn cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    CmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    #[test]
    fn rfc4493_example_1_empty() {
        let expected = [
            0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
            0x67, 0x46,
        ];
        assert_eq!(cmac(&KEY, &[]), expected);
    }

    #[test]
    fn rfc4493_example_2_one_block() {
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
            0x28, 0x7c,
        ];
        assert_eq!(cmac(&KEY, &msg), expected);
    }

    #[test]
    fn rfc4493_example_3_40_bytes() {
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
        ];
        let expected = [
            0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
            0xc8, 0x27,
        ];
        assert_eq!(cmac(&KEY, &msg), expected);
    }

    #[test]
    fn rfc4493_example_4_64_bytes() {
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ];
        let expected = [
            0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
            0x3c, 0xfe,
        ];
        assert_eq!(cmac(&KEY, &msg), expected);
    }

    #[test]
    fn dbl_known_values() {
        // From RFC 4493: L = AES(K, 0) = 7df76b0c..., K1 = fbeed618...
        let l = [
            0x7d, 0xf7, 0x6b, 0x0c, 0x1a, 0xb8, 0x99, 0xb3, 0x3e, 0x42, 0xf0, 0x47, 0xb9, 0x1b,
            0x54, 0x6f,
        ];
        let k1 = [
            0xfb, 0xee, 0xd6, 0x18, 0x35, 0x71, 0x33, 0x66, 0x7c, 0x85, 0xe0, 0x8f, 0x72, 0x36,
            0xa8, 0xde,
        ];
        assert_eq!(dbl(&l), k1);
    }
}
