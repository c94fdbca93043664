//! X25519 Diffie-Hellman over Curve25519 (RFC 7748), implemented from
//! scratch for the S2 key exchange.
//!
//! The implementation follows the classic 16×16-bit-limb Montgomery-ladder
//! construction (as popularised by TweetNaCl), which is compact and easy to
//! audit. Performance is more than sufficient for simulating S2 pairings.

type Gf = [i64; 16];

const GF0: Gf = [0; 16];
const GF1: Gf = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
/// (A - 2) / 4 = 121665 for curve25519's a24 ladder constant.
const A24: Gf = [0xDB41, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

fn car25519(o: &mut Gf) {
    for i in 0..16 {
        o[i] += 1 << 16;
        let c = o[i] >> 16;
        let idx = (i + 1) * usize::from(i < 15);
        o[idx] += c - 1 + 37 * (c - 1) * i64::from(i == 15);
        o[i] -= c << 16;
    }
}

fn sel25519(p: &mut Gf, q: &mut Gf, b: i64) {
    let c = !(b - 1);
    for i in 0..16 {
        let t = c & (p[i] ^ q[i]);
        p[i] ^= t;
        q[i] ^= t;
    }
}

fn pack25519(n: &Gf) -> [u8; 32] {
    let mut t = *n;
    car25519(&mut t);
    car25519(&mut t);
    car25519(&mut t);
    let mut m = GF0;
    for _ in 0..2 {
        m[0] = t[0] - 0xffed;
        for i in 1..15 {
            m[i] = t[i] - 0xffff - ((m[i - 1] >> 16) & 1);
            m[i - 1] &= 0xffff;
        }
        m[15] = t[15] - 0x7fff - ((m[14] >> 16) & 1);
        let b = (m[15] >> 16) & 1;
        m[14] &= 0xffff;
        sel25519(&mut t, &mut m, 1 - b);
    }
    let mut out = [0u8; 32];
    for i in 0..16 {
        out[2 * i] = (t[i] & 0xff) as u8;
        out[2 * i + 1] = (t[i] >> 8) as u8;
    }
    out
}

fn unpack25519(n: &[u8; 32]) -> Gf {
    let mut o = GF0;
    for i in 0..16 {
        o[i] = i64::from(n[2 * i]) + (i64::from(n[2 * i + 1]) << 8);
    }
    o[15] &= 0x7fff;
    o
}

fn add(a: &Gf, b: &Gf) -> Gf {
    let mut o = GF0;
    for i in 0..16 {
        o[i] = a[i] + b[i];
    }
    o
}

fn sub(a: &Gf, b: &Gf) -> Gf {
    let mut o = GF0;
    for i in 0..16 {
        o[i] = a[i] - b[i];
    }
    o
}

fn mul(a: &Gf, b: &Gf) -> Gf {
    let mut t = [0i64; 31];
    for i in 0..16 {
        for j in 0..16 {
            t[i + j] += a[i] * b[j];
        }
    }
    for i in 0..15 {
        t[i] += 38 * t[i + 16];
    }
    let mut o = GF0;
    o.copy_from_slice(&t[..16]);
    car25519(&mut o);
    car25519(&mut o);
    o
}

fn square(a: &Gf) -> Gf {
    mul(a, a)
}

fn invert(i: &Gf) -> Gf {
    let mut c = *i;
    for a in (0..=253).rev() {
        c = square(&c);
        if a != 2 && a != 4 {
            c = mul(&c, i);
        }
    }
    c
}

/// An X25519 public key (32 bytes, little-endian u-coordinate).
pub(crate) type PublicKey = [u8; 32];
/// An X25519 secret scalar (32 bytes).
pub(crate) type SecretKey = [u8; 32];
/// A shared Diffie-Hellman secret (32 bytes).
pub(crate) type SharedSecret = [u8; 32];

/// The curve's base point u = 9.
pub(crate) const BASEPOINT: PublicKey = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Scalar multiplication: computes `scalar * point` on Curve25519.
pub(crate) fn scalar_mult(scalar: &SecretKey, point: &PublicKey) -> SharedSecret {
    let mut z = *scalar;
    z[31] = (scalar[31] & 127) | 64;
    z[0] &= 248;

    let x = unpack25519(point);
    let mut a = GF1;
    let mut b = x;
    let mut c = GF0;
    let mut d = GF1;

    for i in (0..=254).rev() {
        let r = i64::from((z[i >> 3] >> (i & 7)) & 1);
        sel25519(&mut a, &mut b, r);
        sel25519(&mut c, &mut d, r);
        let mut e = add(&a, &c);
        a = sub(&a, &c);
        c = add(&b, &d);
        b = sub(&b, &d);
        d = square(&e);
        let f = square(&a);
        a = mul(&c, &a);
        c = mul(&b, &e);
        e = add(&a, &c);
        a = sub(&a, &c);
        b = square(&a);
        c = sub(&d, &f);
        a = mul(&c, &A24);
        a = add(&a, &d);
        c = mul(&c, &a);
        a = mul(&d, &f);
        d = mul(&b, &x);
        b = square(&e);
        sel25519(&mut a, &mut b, r);
        sel25519(&mut c, &mut d, r);
    }

    let inv = invert(&c);
    let out = mul(&a, &inv);
    pack25519(&out)
}

/// Derives the public key for a secret scalar.
pub(crate) fn public_key(secret: &SecretKey) -> PublicKey {
    scalar_mult(secret, &BASEPOINT)
}

/// Computes the shared secret between `our_secret` and `their_public`.
pub(crate) fn diffie_hellman(our_secret: &SecretKey, their_public: &PublicKey) -> SharedSecret {
    scalar_mult(our_secret, their_public)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let expected = hex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(scalar_mult(&scalar, &point), expected);
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = hex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = hex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let expected = hex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(scalar_mult(&scalar, &point), expected);
    }

    #[test]
    fn rfc7748_alice_bob_dh() {
        let alice_sk = hex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let alice_pk = hex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
        let bob_sk = hex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let bob_pk = hex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
        let shared = hex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");

        assert_eq!(public_key(&alice_sk), alice_pk);
        assert_eq!(public_key(&bob_sk), bob_pk);
        assert_eq!(diffie_hellman(&alice_sk, &bob_pk), shared);
        assert_eq!(diffie_hellman(&bob_sk, &alice_pk), shared);
    }

    #[test]
    fn dh_is_commutative_for_arbitrary_scalars() {
        for seed in 0u8..4 {
            let a: SecretKey = core::array::from_fn(|i| seed.wrapping_add(i as u8).wrapping_mul(7));
            let b: SecretKey =
                core::array::from_fn(|i| seed.wrapping_add(i as u8).wrapping_mul(13) ^ 0x5A);
            let shared_ab = diffie_hellman(&a, &public_key(&b));
            let shared_ba = diffie_hellman(&b, &public_key(&a));
            assert_eq!(shared_ab, shared_ba);
            assert_ne!(shared_ab, [0u8; 32]);
        }
    }

    #[test]
    fn clamping_makes_high_bit_irrelevant() {
        let mut a: SecretKey = [0x11; 32];
        let pk1 = public_key(&a);
        a[31] |= 0x80; // cleared by clamping
        assert_eq!(public_key(&a), pk1);
    }
}
