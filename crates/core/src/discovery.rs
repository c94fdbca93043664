//! Phase 2 — unknown properties discovery (Section III-C).
//!
//! Two techniques uncover command classes the controller implements but
//! never advertises:
//!
//! 1. **Leveraging the public specification**: the 122-class registry is
//!    clustered by function; the controller-relevant clusters minus the
//!    listed set yield unlisted candidates, prioritised by command count
//!    ("the more functionalities included, the higher the likelihood of
//!    potential implementation bugs").
//! 2. **Systematic validation testing**: every CMDCL byte from `0x00` to
//!    the upper limit is probed on air; classes that elicit an
//!    application-layer response despite being absent from both the NIF
//!    and the specification are proprietary discoveries (`0x01`, `0x02`).

use std::collections::BTreeSet;

use zwave_protocol::registry::Registry;
use zwave_protocol::{CommandClassId, MacFrame};

use crate::dongle::Dongle;
use crate::passive::ScanReport;
use crate::target::FuzzTarget;

/// Upper CMDCL bound for the validation sweep (the highest id the public
/// specification assigns, `0x9F`, per Section III-C2's "0x00 to the upper
/// limit of the identified CMDCL list").
pub(crate) const VALIDATION_SWEEP_END: u8 = 0x9F;

/// Everything the discovery phase learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryReport {
    /// NIF-listed classes (from active scanning).
    pub listed: Vec<CommandClassId>,
    /// Specification-inferred unlisted candidates, priority ordered.
    pub unlisted_from_spec: Vec<CommandClassId>,
    /// Proprietary classes confirmed only by validation testing.
    pub proprietary: Vec<CommandClassId>,
    /// Classes that answered the on-air validation probe.
    pub validated: BTreeSet<u8>,
}

impl DiscoveryReport {
    /// Count of unknown (unlisted) classes: Table IV's rightmost column
    /// (28 or 30 on the testbed devices).
    pub fn unknown_count(&self) -> usize {
        self.unlisted_from_spec.len() + self.proprietary.len()
    }

    /// The full fuzzing target set: proprietary discoveries first (highest
    /// risk: undocumented and, as Table III shows, least tested), then the
    /// listed classes, then spec-inferred unlisted candidates — each group
    /// ordered by descending command count per Section III-C1.
    pub fn prioritized_targets(&self) -> Vec<CommandClassId> {
        let reg = Registry::global();
        let by_count = |ids: &[CommandClassId]| -> Vec<CommandClassId> {
            let mut v = ids.to_vec();
            v.sort_by_key(|id| {
                (std::cmp::Reverse(reg.get(*id).map_or(0, |s| s.command_count())), id.0)
            });
            v
        };
        let mut out = self.proprietary.clone();
        out.extend(by_count(&self.listed));
        out.extend(by_count(&self.unlisted_from_spec));
        out
    }
}

/// The unknown-properties discovery engine.
#[derive(Debug)]
pub struct UnknownDiscovery;

impl UnknownDiscovery {
    /// Technique 1: clusters the specification and returns the
    /// controller-relevant classes that are *not* in `listed`, ordered by
    /// descending command count.
    pub(crate) fn unlisted_candidates(listed: &[CommandClassId]) -> Vec<CommandClassId> {
        let listed_set: BTreeSet<u8> = listed.iter().map(|c| c.0).collect();
        Registry::global()
            .controller_relevant_by_priority()
            .into_iter()
            .map(|spec| spec.id)
            .filter(|id| !listed_set.contains(&id.0))
            .collect()
    }

    /// Technique 2: the on-air validation sweep. Sends a bare-CMDCL probe
    /// for every class byte in `0x00..=VALIDATION_SWEEP_END` and records
    /// which elicit an application-layer response from the controller.
    pub(crate) fn validation_sweep<T: FuzzTarget>(
        target: &mut T,
        dongle: &mut Dongle,
        scan: &ScanReport,
    ) -> BTreeSet<u8> {
        let src = scan.spoof_source();
        let mut validated = BTreeSet::new();
        for cc in 0x00..=VALIDATION_SWEEP_END {
            // Each probe is retransmitted a couple of times so that channel
            // loss cannot silently demote a supported class ("systematic"
            // testing survives an imperfect link).
            for _attempt in 0..5 {
                dongle.flush();
                dongle.inject_apl(scan.home_id, src, scan.controller, [cc]);
                target.pump();
                dongle.wait_for_responses();
                target.pump();
                let answered = dongle.drain_any(|bytes| {
                    MacFrame::decode(bytes).is_ok_and(|m| {
                        m.src() == scan.controller && !m.is_ack() && !m.payload().is_empty()
                    })
                });
                if answered {
                    validated.insert(cc);
                    break;
                }
            }
        }
        // NOP (0x00) is processed by definition (its response is the MAC
        // ack itself); count it as supported.
        validated.insert(0x00);
        validated
    }

    /// Runs both techniques and assembles the [`DiscoveryReport`].
    pub fn run<T: FuzzTarget>(
        target: &mut T,
        dongle: &mut Dongle,
        scan: &ScanReport,
        listed: Vec<CommandClassId>,
    ) -> DiscoveryReport {
        let unlisted_from_spec = Self::unlisted_candidates(&listed);
        let validated = Self::validation_sweep(target, dongle, scan);

        // Proprietary = validated on air, absent from the specification
        // and from the NIF.
        let spec = Registry::global();
        let listed_set: BTreeSet<u8> = listed.iter().map(|c| c.0).collect();
        let proprietary: Vec<CommandClassId> = validated
            .iter()
            .filter(|&&cc| {
                cc != 0x00 && !spec.contains(CommandClassId(cc)) && !listed_set.contains(&cc)
            })
            .map(|&cc| CommandClassId(cc))
            .collect();

        DiscoveryReport { listed, unlisted_from_spec, proprietary, validated }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::ActiveScanner;
    use crate::passive::PassiveScanner;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    fn discover(model: DeviceModel) -> DiscoveryReport {
        let mut tb = Testbed::new(model, 31);
        let mut passive = PassiveScanner::new(tb.medium(), 70.0);
        tb.exchange_normal_traffic();
        let scan = passive.analyze().unwrap();
        let mut dongle = Dongle::attach(tb.medium(), 70.0);
        let active = ActiveScanner::scan(&mut tb, &mut dongle, &scan).unwrap();
        UnknownDiscovery::run(&mut tb, &mut dongle, &scan, active.listed)
    }

    #[test]
    fn spec_clustering_yields_26_unlisted_for_a_17_listed_controller() {
        // Section III-C1: "ZCover inferred 26 unlisted CMDCLs relevant to
        // the controller" beyond the 17 listed.
        let listed = DeviceModel::D4.listed_classes();
        let candidates = UnknownDiscovery::unlisted_candidates(&listed);
        assert_eq!(candidates.len(), 26);
        // Priority order is descending by command count.
        let reg = Registry::global();
        let counts: Vec<usize> =
            candidates.iter().map(|id| reg.get(*id).unwrap().command_count()).collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(counts, sorted);
    }

    #[test]
    fn validation_testing_uncovers_the_proprietary_pair() {
        let report = discover(DeviceModel::D4);
        assert_eq!(
            report.proprietary,
            vec![CommandClassId::ZWAVE_PROTOCOL, CommandClassId::ZENSOR_NET]
        );
    }

    #[test]
    fn table4_unknown_counts() {
        // 17-listed controllers discover 28 unknown classes; 15-listed
        // discover 30 (Table IV).
        assert_eq!(discover(DeviceModel::D4).unknown_count(), 28);
        assert_eq!(discover(DeviceModel::D5).unknown_count(), 30);
    }

    #[test]
    fn prioritized_targets_cover_45_classes_starting_with_0x01() {
        // Table V: "45 CMDCLs (known and unknown) are prioritized by
        // ZCover"; Algorithm 1's example dequeues 0x01 first.
        let report = discover(DeviceModel::D1);
        let targets = report.prioritized_targets();
        assert_eq!(targets.len(), 45);
        assert_eq!(targets[0], CommandClassId::ZWAVE_PROTOCOL);
        assert_eq!(targets[1], CommandClassId::ZENSOR_NET);
        // No duplicates.
        let set: BTreeSet<u8> = targets.iter().map(|c| c.0).collect();
        assert_eq!(set.len(), 45);
    }

    #[test]
    fn validation_sweep_does_not_trip_any_vulnerability() {
        let mut tb = Testbed::new(DeviceModel::D1, 31);
        let mut passive = PassiveScanner::new(tb.medium(), 70.0);
        tb.exchange_normal_traffic();
        let scan = passive.analyze().unwrap();
        let mut dongle = Dongle::attach(tb.medium(), 70.0);
        let _ = UnknownDiscovery::validation_sweep(&mut tb, &mut dongle, &scan);
        assert!(tb.controller().fault_log().is_empty(), "bare-CMDCL probes must be benign");
    }
}
