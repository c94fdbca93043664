//! Simulated Z-Wave devices under test for the ZCover reproduction.
//!
//! This crate stands in for the paper's physical testbed (Table II): seven
//! real-world controllers (D1-D7) with their Table IV fingerprints and the
//! fifteen seeded vulnerabilities of Table III, plus the S2 door lock (D8)
//! and legacy switch (D9) that make the smart home realistic. Controllers
//! are reachable only through the simulated radio — the same black-box
//! boundary ZCover faces against real hardware — while the
//! [`HomeNetwork`] that [`Testbed::new`] builds exposes oracle views (NVM snapshots, fault logs, host/app state) that
//! play the role of the authors' manual verification of each finding.
//!
//! # Example
//!
//! ```
//! use zwave_controller::testbed::{DeviceModel, Testbed, LOCK_NODE};
//!
//! let mut tb = Testbed::new(DeviceModel::D6, 42);
//! let attacker = tb.attach_attacker(70.0);
//!
//! // One unencrypted proprietary frame removes the S2 door lock from the
//! // hub's memory (bug #03 of Table III).
//! let frame = zwave_protocol::MacFrame::singlecast(
//!     tb.controller().home_id(),
//!     zwave_protocol::NodeId(0x03),
//!     zwave_protocol::NodeId(0x01),
//!     vec![0x01, 0x0D, 0x02],
//! );
//! attacker.transmit(&frame.encode());
//! tb.pump();
//! assert!(!tb.controller().nvm().contains(LOCK_NODE));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod coverage;
pub mod devices;
pub mod energy;
pub mod health;
pub mod host;
pub mod ids;
pub mod link;
pub mod neighbors;
pub mod network;
mod node;
pub mod nvm;
pub mod testbed;
pub mod topology;
pub mod vulns;

pub use controller::{ControllerConfig, ControllerStats, ReinclusionState, SimController};
pub use coverage::CoverageMap;
pub use devices::SimRepeater;
pub use energy::EnergyMeter;
pub use health::{EffectKind, FaultLog, FaultRecord, Health, RootCause};
pub use host::{AppLink, AppState, HostProgram, HostState};
pub use ids::{Alert, AlertReason, Ids};
pub use link::{LinkPolicy, LinkStats};
pub use neighbors::NeighborTable;
pub use network::HomeNetwork;
pub use nvm::{NodeDatabase, NodeRecord};
pub use testbed::{DeviceModel, Testbed, LOCK_NODE, SENSOR_NODE, SWITCH_NODE};
pub use topology::Topology;
