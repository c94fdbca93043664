//! Umbrella crate for the ZCover reproduction workspace.
//!
//! This crate re-exports the member crates so that workspace-level examples
//! (`examples/`) and integration tests (`tests/`) can reach every subsystem
//! through one import. Library users should depend on the individual crates
//! directly ([`zcover`], [`zwave_controller`], ...).

pub use trace_format;
pub use zcover;
pub use zwave_controller;
pub use zwave_crypto;
pub use zwave_protocol;
pub use zwave_radio;
