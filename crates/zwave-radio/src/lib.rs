//! A simulated sub-GHz radio medium for the ZCover reproduction.
//!
//! This crate replaces the paper's physical layer — 868/908 MHz RF and the
//! YARD Stick One transceiver dongle — with a deterministic broadcast
//! medium on a virtual clock: every attached [`Transceiver`] hears every
//! transmission (subject to the configured [`NoiseModel`]), frames consume
//! realistic airtime, and a [`Sniffer`] captures traffic promiscuously the
//! way ZCover's passive scanner does.
//!
//! # Example
//!
//! ```
//! use zwave_radio::clock::SimClock;
//! use zwave_radio::medium::Medium;
//! use zwave_radio::sniffer::Sniffer;
//!
//! let medium = Medium::new(SimClock::new(), 0);
//! let hub = medium.attach(0.0);
//! let lock = medium.attach(8.0);
//! let mut attacker = Sniffer::attach(&medium, 70.0);
//!
//! hub.transmit(&[0xCB, 0x95, 0xA3, 0x4A, 0x01]);
//! assert_eq!(lock.try_recv().unwrap().bytes[0], 0xCB);
//! attacker.poll();
//! assert_eq!(attacker.captures().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacker;
pub mod clock;
pub mod framebuf;
pub mod impairment;
pub mod medium;
pub mod noise;
pub mod region;
pub mod sched;
pub mod sniffer;

pub use attacker::{AttackerSchedule, AttackerStation};
pub use clock::{SimClock, SimInstant};
pub use framebuf::FrameBuf;
pub use impairment::{GilbertElliott, ImpairmentProfile, ImpairmentSchedule, ImpairmentStage};
pub use medium::{Medium, MediumStats, RxFrame, Transceiver, RX_QUEUE_CAP};
pub use noise::NoiseModel;
pub use region::Region;
pub use sched::{Delivery, Event, EventKind, EventObserver, SchedStats, SimScheduler, TimerToken};
pub use sniffer::Sniffer;

/// The splitmix64 output function: advances `z` by the golden-ratio
/// increment and finalizes it. Every seed-derived stream in the workspace
/// (per-frame impairment RNGs, attacker jitter, home wiring and population
/// mix, per-trial seeds, the coverage power schedule) is built from it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
