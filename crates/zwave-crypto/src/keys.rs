//! Network key material and security classes.

use std::fmt;

/// The security class a key belongs to (S2 defines three; S0 has one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SecurityClass {
    /// Legacy Security 0.
    S0,
    /// S2 Unauthenticated.
    S2Unauthenticated,
    /// S2 Authenticated.
    S2Authenticated,
    /// S2 Access Control (door locks — the Schlage BE469ZP class).
    S2Access,
}

impl fmt::Display for SecurityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SecurityClass::S0 => "S0",
            SecurityClass::S2Unauthenticated => "S2 Unauthenticated",
            SecurityClass::S2Authenticated => "S2 Authenticated",
            SecurityClass::S2Access => "S2 Access Control",
        };
        f.write_str(s)
    }
}

/// A 128-bit network key. `Debug` never prints the key bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkKey(pub(crate) [u8; 16]);

impl NetworkKey {
    /// Wraps raw key bytes.
    pub fn new(bytes: [u8; 16]) -> Self {
        NetworkKey(bytes)
    }

    /// Derives a deterministic key from a seed, for reproducible testbeds.
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_be_bytes());
        bytes[8..].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_be_bytes());
        // One AES pass so related seeds do not yield related keys.
        NetworkKey(crate::aes::Aes128::new(&bytes).encrypt([0xA5; 16]))
    }

    /// Raw key bytes (crate-internal derivations need them; callers should
    /// treat keys as opaque).
    pub fn bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl fmt::Debug for NetworkKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("NetworkKey(<redacted>)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_redacts_key() {
        let k = NetworkKey::new([0xAB; 16]);
        assert_eq!(format!("{k:?}"), "NetworkKey(<redacted>)");
    }

    #[test]
    fn seeded_keys_are_deterministic_and_distinct() {
        assert_eq!(NetworkKey::from_seed(7), NetworkKey::from_seed(7));
        assert_ne!(NetworkKey::from_seed(7), NetworkKey::from_seed(8));
        assert_ne!(NetworkKey::from_seed(0), NetworkKey::from_seed(1));
    }

    #[test]
    fn class_ordering_matches_privilege() {
        assert!(SecurityClass::S2Access > SecurityClass::S2Authenticated);
        assert!(SecurityClass::S2Authenticated > SecurityClass::S2Unauthenticated);
        assert!(SecurityClass::S2Unauthenticated > SecurityClass::S0);
    }
}
