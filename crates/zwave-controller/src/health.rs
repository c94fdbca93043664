//! Device health state and the fault log.
//!
//! The paper's crash-verification loop (Section IV-A, "Feedback & crash
//! verification") monitors liveliness with NOP pings: "any delays, crashes,
//! or unresponsiveness indicate potential vulnerabilities". This module
//! models the observable side of that: a health state machine that gates
//! whether a device answers at all, and a structured fault log that plays
//! the role of the authors' manual verification of each finding.

use std::time::Duration;

use serde::Serialize;
use zwave_radio::SimInstant;

/// Health of a simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Normal operation.
    Operational,
    /// Busy (service interruption) until the given instant — the timed
    /// outages of Table III (68 s, 67 s, 63 s, 4 s, 62 s, 59 s, 4 min).
    BusyUntil(SimInstant),
    /// Hard-down until explicitly restored — Table III's "Infinite"
    /// entries ("users cannot control their devices").
    Down,
}

impl Health {
    /// Whether the device responds at `now`.
    pub(crate) fn is_responsive(self, now: SimInstant) -> bool {
        match self {
            Health::Operational => true,
            Health::BusyUntil(until) => now >= until,
            Health::Down => false,
        }
    }

    /// Collapses an expired busy state back to operational.
    #[must_use]
    pub(crate) fn settled(self, now: SimInstant) -> Health {
        match self {
            Health::BusyUntil(until) if now >= until => Health::Operational,
            other => other,
        }
    }
}

/// The observable effect class of a seeded vulnerability. This is what a
/// verified finding is deduplicated by, together with its CMDCL/CMD
/// coordinates (four Table III bugs share `0x01/0x0D` but differ here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum EffectKind {
    /// Bug #01: properties of an existing NVM node entry were tampered.
    NodePropertiesTampered,
    /// Bug #02: a rogue node entry was inserted into the NVM.
    RogueNodeInserted,
    /// Bug #03: a valid node entry was removed from the NVM.
    NodeRemoved,
    /// Bug #04: the whole device table was overwritten.
    DatabaseOverwritten,
    /// Bug #05: the companion smartphone app stopped responding.
    AppDos,
    /// Bug #06: the PC controller host program crashed.
    HostCrash,
    /// Bugs #07-#11, #15: timed unresponsiveness of the controller.
    ServiceInterruption,
    /// Bug #12: a node's wake-up interval was cleared.
    WakeupIntervalRemoved,
    /// Bug #13: persistent DoS of the PC controller host program.
    HostDos,
    /// Bug #14: the controller spun searching for non-existent nodes.
    BusySearch,
    /// A shallow MAC-parsing robustness fault (the one-day class VFuzz
    /// finds; disjoint from ZCover's fifteen).
    MacParsingGlitch,
    /// Bug #16 (S0-No-More): the attack-attributable wake/TX energy
    /// budget was exhausted answering nonces for offline nodes. This
    /// verdict is strictly energy-derived — an unresponsive controller
    /// (channel blackout, timed outage) never produces it.
    BatteryDrain,
    /// Bug #17 (Crushing the Wave): an S2→S0 inclusion downgrade was
    /// accepted during re-inclusion.
    SecurityDowngrade,
    /// Bug #18 (Crushing the Wave): the S0 network key was reset without
    /// user confirmation, locking paired devices out of the network.
    Lockout,
    /// Bug #19: a malformed protocol command arriving over a source-routed
    /// (multi-hop) path corrupts the return-route cache; the controller
    /// stalls re-resolving routes. Only reachable on meshed topologies —
    /// a flat single-home testbed never exercises the routed dispatch arm.
    RouteCorruption,
}

impl std::fmt::Display for EffectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EffectKind::NodePropertiesTampered => "memory corruption in existing device properties",
            EffectKind::RogueNodeInserted => "fake device insertion into controller's memory",
            EffectKind::NodeRemoved => "remove valid device in the controller's memory",
            EffectKind::DatabaseOverwritten => "overwriting the controller's device database",
            EffectKind::AppDos => "DoS on smartphone app",
            EffectKind::HostCrash => "Z-Wave PC controller program crash",
            EffectKind::ServiceInterruption => "service interruption during the attack",
            EffectKind::WakeupIntervalRemoved => "remove the device's wakeup interval value",
            EffectKind::HostDos => "DoS on the Z-Wave PC controller program",
            EffectKind::BusySearch => "Z-Wave controller service disruption",
            EffectKind::MacParsingGlitch => "MAC frame parsing glitch",
            EffectKind::BatteryDrain => "battery drain through forced nonce transmissions",
            EffectKind::SecurityDowngrade => "security class downgrade during re-inclusion",
            EffectKind::Lockout => "device lockout through unauthorized key reset",
            EffectKind::RouteCorruption => "return-route cache corruption via routed frame",
        };
        f.write_str(s)
    }
}

/// Root cause attribution, as reported in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RootCause {
    /// Flaw in the Z-Wave specification itself.
    Specification,
    /// Flaw in a particular implementation.
    Implementation,
}

impl std::fmt::Display for RootCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootCause::Specification => f.write_str("Specification"),
            RootCause::Implementation => f.write_str("Implementation"),
        }
    }
}

/// One verified fault occurrence on a device under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the fault fired (virtual time).
    pub at: SimInstant,
    /// Table III bug number (1-15), or 0 for MAC quirks.
    pub bug_id: u8,
    /// Command class of the triggering payload.
    pub cmdcl: u8,
    /// Command of the triggering payload.
    pub cmd: u8,
    /// Observable effect class.
    pub effect: EffectKind,
    /// Root cause attribution.
    pub root_cause: RootCause,
    /// Outage duration; `None` means "Infinite" in Table III terms.
    pub outage: Option<Duration>,
    /// The application payload that triggered the fault.
    pub trigger: Vec<u8>,
}

/// An append-only fault log with convenience queries.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    records: Vec<FaultRecord>,
}

impl FaultLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        FaultLog::default()
    }

    /// Appends a record.
    pub(crate) fn push(&mut self, record: FaultRecord) {
        self.records.push(record);
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no fault has fired.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_responsiveness() {
        let t0 = SimInstant::ZERO;
        let t5 = t0.plus(Duration::from_secs(5));
        assert!(Health::Operational.is_responsive(t0));
        assert!(!Health::Down.is_responsive(t5));
        let busy = Health::BusyUntil(t5);
        assert!(!busy.is_responsive(t0));
        assert!(busy.is_responsive(t5));
    }

    #[test]
    fn busy_settles_after_deadline() {
        let t5 = SimInstant::ZERO.plus(Duration::from_secs(5));
        let busy = Health::BusyUntil(t5);
        assert_eq!(busy.settled(SimInstant::ZERO), busy);
        assert_eq!(busy.settled(t5), Health::Operational);
        assert_eq!(Health::Down.settled(t5), Health::Down);
    }

    #[test]
    fn effect_descriptions_match_table3_phrasing() {
        assert_eq!(EffectKind::AppDos.to_string(), "DoS on smartphone app");
        assert_eq!(
            EffectKind::ServiceInterruption.to_string(),
            "service interruption during the attack"
        );
        assert_eq!(RootCause::Specification.to_string(), "Specification");
    }
}
