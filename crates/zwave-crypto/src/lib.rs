//! From-scratch cryptographic primitives and the Z-Wave transport-security
//! layers (S0 and S2) for the ZCover reproduction.
//!
//! Everything is implemented in this crate — AES-128, AES-CMAC, AES-CCM and
//! X25519 — so that the simulated S0/S2 stacks are fully white-box: the
//! devices under test run *real* encryption, and the vulnerabilities the
//! fuzzer finds are genuine acceptance-of-unencrypted-input flaws rather
//! than artifacts of a stubbed security layer.
//!
//! # Security disclaimer
//!
//! These implementations are for protocol simulation and research. They are
//! not hardened against side channels (table-based AES, variable-time
//! comparisons in places) and must not be used to protect real traffic.
//!
//! # Example: S2 session protecting a door-lock command
//!
//! ```
//! use zwave_crypto::keys::NetworkKey;
//! use zwave_crypto::s2::{network_keys, S2Session};
//!
//! let keys = network_keys(&NetworkKey::from_seed(42));
//! let sender_ei = [1u8; 16];
//! let receiver_ei = [2u8; 16];
//! let mut hub = S2Session::initiator(keys.clone(), &sender_ei, &receiver_ei);
//! let mut lock = S2Session::responder(keys, &sender_ei, &receiver_ei);
//!
//! let encap = hub.encapsulate(0xCB95A34A, 0x01, 0x02, &[0x62, 0x01, 0xFF]);
//! let plain = lock.decapsulate(0xCB95A34A, 0x01, 0x02, &encap).unwrap();
//! assert_eq!(plain, vec![0x62, 0x01, 0xFF]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ccm;
pub mod cmac;
pub mod curve25519;
pub mod inclusion;
pub mod kdf;
pub mod keys;
pub mod s0;
pub mod s2;

pub use keys::{NetworkKey, SecurityClass};
