//! The fifteen seeded vulnerabilities of Table III, plus the shallow MAC
//! parsing quirks that the VFuzz baseline finds (Section IV-C notes the two
//! tools' findings were disjoint).
//!
//! Each seeded bug fires only on frames that (a) passed MAC validation,
//! (b) carry the bug's CMDCL/CMD coordinates, and (c) satisfy a structural
//! predicate — boundary value, invalid enumeration, truncated or overlong
//! parameter list — *while arriving outside any S0/S2 encapsulation*. That
//! last condition is the paper's core finding: "although these CMDCLs
//! should require encryption, we discovered that the controller incorrectly
//! processes non-encrypted packets".
//!
//! Several interruption bugs additionally trigger through a *sloppy
//! default path* — a range of undefined command ids that fall into the same
//! vulnerable firmware branch. This mirrors how real dispatch tables route
//! unknown commands into shared (and untested) code, and is what lets the
//! random-mutation ablation configuration (ZCover γ) stumble into a subset
//! of the bugs within an hour, as Table VI reports.

use std::collections::BTreeSet;
use std::time::Duration;

use zwave_protocol::apl::ApplicationPayload;

use crate::health::{EffectKind, RootCause};
use crate::nvm::NodeDatabase;

/// What a triggered vulnerability does to the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VulnEffect {
    /// Overwrite the stored device type of an existing node (bug #01).
    TamperNode {
        /// Node whose entry is tampered.
        node: u8,
        /// Raw device-type byte written into the entry.
        new_type: u8,
    },
    /// Insert a rogue node entry (bug #02; Figure 9 inserts #10 and #200).
    InsertRogue {
        /// Rogue node id.
        node: u8,
        /// Device-type byte the rogue advertises (controllers are the
        /// dangerous case).
        type_byte: u8,
    },
    /// Remove an existing node entry (bug #03; Figure 10).
    RemoveNode {
        /// Node to remove.
        node: u8,
    },
    /// Clear and overwrite the device table (bug #04; Figure 11).
    OverwriteDatabase,
    /// Deny service to the controlling application (bug #05).
    AppDos,
    /// Crash the PC controller program (bug #06).
    HostCrash,
    /// Timed controller unresponsiveness (bugs #07-#11, #14, #15).
    Busy(Duration),
    /// Clear a node's wake-up interval (bug #12).
    ClearWakeup {
        /// Node whose interval is cleared.
        node: u8,
    },
    /// Persistent DoS of the PC controller program (bug #13).
    HostDos,
    /// Accept an S2→S0 downgrade during an armed re-inclusion (bug #17,
    /// Crushing the Wave). The controller resolves which node was being
    /// re-included from its own inclusion state.
    AcceptDowngrade,
}

/// A fired vulnerability, ready to be applied and logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Triggered {
    /// Table III bug id (1-15).
    pub bug_id: u8,
    /// What happens to the device.
    pub effect: VulnEffect,
    /// Observable effect class for deduplication.
    pub effect_kind: EffectKind,
    /// Root cause attribution per Table III.
    pub root_cause: RootCause,
    /// Outage duration (`None` = "Infinite").
    pub outage: Option<Duration>,
}

/// Device context the predicates consult.
#[derive(Debug)]
pub struct VulnContext<'a> {
    /// The controller's current node database.
    pub nvm: &'a NodeDatabase,
    /// CMDCL bytes the controller implements.
    pub implemented: &'a BTreeSet<u8>,
    /// Whether the payload arrived inside a verified S0/S2 encapsulation.
    pub encrypted: bool,
    /// Whether a PC controller program is attached (D1-D5).
    pub usb_host: bool,
    /// Whether a cloud/app link is attached (D6, D7).
    pub smart_hub: bool,
    /// The controller's own node id (its entry is protected from removal).
    pub self_node: u8,
    /// Whether a re-inclusion window is armed (a previously S2-paired
    /// node is being re-included; bug #17's predicate requires it so a
    /// stray KEX_SET outside re-inclusion never fires).
    pub reinclusion_armed: bool,
    /// Whether a downgrade was already accepted this re-inclusion (bug
    /// #18's key reset only lands after the S2→S0 downgrade).
    pub downgrade_active: bool,
    /// Whether the payload arrived over a source-routed (multi-hop) path.
    /// Bug #19's predicate requires it: the vulnerable branch only runs
    /// when the dispatcher also has a return route to cache, so flat
    /// single-hop testbeds can never reach it.
    pub via_route: bool,
}

/// Table III outage durations.
pub mod outage {
    use std::time::Duration;
    /// Bug #07.
    pub(crate) const BUG07: Duration = Duration::from_secs(68);
    /// Bug #08.
    pub(crate) const BUG08: Duration = Duration::from_secs(67);
    /// Bug #09.
    pub(crate) const BUG09: Duration = Duration::from_secs(63);
    /// Bug #10.
    pub(crate) const BUG10: Duration = Duration::from_secs(4);
    /// Bug #11.
    pub(crate) const BUG11: Duration = Duration::from_secs(62);
    /// Bug #14 ("over four minutes").
    pub(crate) const BUG14: Duration = Duration::from_secs(240);
    /// Bug #15.
    pub(crate) const BUG15: Duration = Duration::from_secs(59);
    /// Bug #19 (routed dispatch only).
    pub(crate) const BUG19: Duration = Duration::from_secs(45);
}

fn hit(
    bug_id: u8,
    effect: VulnEffect,
    effect_kind: EffectKind,
    root_cause: RootCause,
    outage: Option<Duration>,
) -> Option<Triggered> {
    Some(Triggered { bug_id, effect, effect_kind, root_cause, outage })
}

/// Checks an application payload against every seeded vulnerability.
/// Returns the triggered bug, if any. Payloads arriving inside a verified
/// encapsulation never trigger (the flaw is unencrypted acceptance).
pub fn check(payload: &ApplicationPayload, ctx: &VulnContext<'_>) -> Option<Triggered> {
    if ctx.encrypted {
        return None;
    }
    let cc = payload.command_class().raw();
    let cmd = payload.command()?;
    let p = payload.params();
    let n = p.len();
    use EffectKind as E;
    use RootCause::{Implementation, Specification};

    match cc {
        // ── The proprietary network-management class (7 bugs) ──────────
        0x01 => match cmd {
            0x00 if ctx.via_route => {
                // Bug #19: the undefined protocol command 0x00 falls into
                // the return-route bookkeeping branch, which only executes
                // for frames that arrived over a source route. The cache
                // update dereferences route state the command never
                // supplied, corrupting the return-route table and stalling
                // the controller while routes re-resolve. Invisible on any
                // single-hop (flat) topology.
                hit(
                    19,
                    VulnEffect::Busy(outage::BUG19),
                    E::RouteCorruption,
                    Implementation,
                    Some(outage::BUG19),
                )
            }
            0x0D => {
                let target = *p.first()?;
                if target == 0xFF {
                    // Bug #04: broadcast marker wipes the device table.
                    return hit(
                        4,
                        VulnEffect::OverwriteDatabase,
                        E::DatabaseOverwritten,
                        Specification,
                        None,
                    );
                }
                let exists = ctx.nvm.contains(zwave_protocol::NodeId(target));
                if exists && target != ctx.self_node {
                    if n == 1 {
                        // Bug #03: truncated registration removes the node.
                        return hit(
                            3,
                            VulnEffect::RemoveNode { node: target },
                            E::NodeRemoved,
                            Specification,
                            None,
                        );
                    }
                    if p[1] == 0x00 {
                        // Bug #12: zero capability byte clears the wake-up
                        // interval.
                        return hit(
                            12,
                            VulnEffect::ClearWakeup { node: target },
                            E::WakeupIntervalRemoved,
                            Specification,
                            None,
                        );
                    }
                    if (0x01..=0x04).contains(&p[1]) {
                        // Bug #01: valid-but-different type byte overwrites
                        // the stored properties (lock → routing slave).
                        return hit(
                            1,
                            VulnEffect::TamperNode { node: target, new_type: p[1] },
                            E::NodePropertiesTampered,
                            Specification,
                            None,
                        );
                    }
                    None
                } else if !exists && (0x02..=0xE8).contains(&target) {
                    // Bug #02: unauthenticated registration of a rogue node.
                    let type_byte = p.get(1).copied().unwrap_or(0x01);
                    hit(
                        2,
                        VulnEffect::InsertRogue { node: target, type_byte },
                        E::RogueNodeInserted,
                        Specification,
                        None,
                    )
                } else {
                    None
                }
            }
            0x02 if n >= 1 => {
                // Bug #05: a REQUEST_NODE_INFO with trailing garbage wedges
                // the event pipeline to the controlling application.
                hit(5, VulnEffect::AppDos, E::AppDos, Specification, None)
            }
            0x04 if n >= 1 && (p[0] as usize) > n.saturating_sub(1) => {
                // Bug #14: declared neighbour mask longer than supplied —
                // the controller searches for non-existent nodes for four
                // minutes.
                hit(
                    14,
                    VulnEffect::Busy(outage::BUG14),
                    E::BusySearch,
                    Specification,
                    Some(outage::BUG14),
                )
            }
            _ => None,
        },

        // ── Security 2: host nonce parser (bug #06) and the Crushing-
        // the-Wave downgrade acceptance (bug #17) ──────────────────────
        0x9F => {
            // Bug #17: during an armed re-inclusion an unencrypted
            // KEX_SET whose requested-keys byte asks for S0 only
            // (bit 7) and no S2 class (bits 0-2) is accepted instead of
            // failing the inclusion — the S2→S0 downgrade.
            if cmd == 0x06 {
                let keys = p.first().copied()?;
                return if ctx.reinclusion_armed && keys & 0x80 != 0 && keys & 0x07 == 0 {
                    hit(17, VulnEffect::AcceptDowngrade, E::SecurityDowngrade, Specification, None)
                } else {
                    None
                };
            }
            if !ctx.usb_host {
                return None;
            }
            let canonical = cmd == 0x01 && n >= 2;
            let sloppy = (0x10..=0x1F).contains(&cmd) && n >= 2;
            if canonical || sloppy {
                hit(6, VulnEffect::HostCrash, E::HostCrash, Implementation, None)
            } else {
                None
            }
        }

        // ── Device Reset Locally (bug #07) ─────────────────────────────
        0x5A => {
            let canonical = cmd == 0x01 && n >= 1;
            let sloppy = (0x02..=0x0F).contains(&cmd);
            if canonical || sloppy {
                hit(
                    7,
                    VulnEffect::Busy(outage::BUG07),
                    E::ServiceInterruption,
                    Specification,
                    Some(outage::BUG07),
                )
            } else {
                None
            }
        }

        // ── Association Group Info (bugs #08 and #11) ──────────────────
        0x59 => {
            if (cmd == 0x03 && (n < 2 || p[1] == 0x00)) || (0x10..=0x1F).contains(&cmd) {
                return hit(
                    8,
                    VulnEffect::Busy(outage::BUG08),
                    E::ServiceInterruption,
                    Specification,
                    Some(outage::BUG08),
                );
            }
            if (cmd == 0x05 && (n < 2 || p[1] == 0x00)) || (0x20..=0x2F).contains(&cmd) {
                return hit(
                    11,
                    VulnEffect::Busy(outage::BUG11),
                    E::ServiceInterruption,
                    Specification,
                    Some(outage::BUG11),
                );
            }
            None
        }

        // ── Firmware Update MD (bugs #09 and #15) ──────────────────────
        0x7A => {
            if (cmd == 0x01 && n >= 1) || (0x10..=0x1F).contains(&cmd) {
                return hit(
                    9,
                    VulnEffect::Busy(outage::BUG09),
                    E::ServiceInterruption,
                    Specification,
                    Some(outage::BUG09),
                );
            }
            if (cmd == 0x03 && n < 5) || (0x20..=0x2F).contains(&cmd) {
                return hit(
                    15,
                    VulnEffect::Busy(outage::BUG15),
                    E::ServiceInterruption,
                    Specification,
                    Some(outage::BUG15),
                );
            }
            None
        }

        // ── Version (bug #10) ──────────────────────────────────────────
        0x86 => {
            let canonical = cmd == 0x13 && (n == 0 || !ctx.implemented.contains(&p[0]));
            let sloppy = (0x20..=0x2F).contains(&cmd);
            if canonical || sloppy {
                hit(
                    10,
                    VulnEffect::Busy(outage::BUG10),
                    E::ServiceInterruption,
                    Specification,
                    Some(outage::BUG10),
                )
            } else {
                None
            }
        }

        // ── Powerlevel test (bug #13, USB hosts only) ──────────────────
        0x73 if ctx.usb_host => {
            let canonical = cmd == 0x04 && n >= 1 && (p[0] == 0x00 || p[0] > 0xE8);
            let sloppy = (0x05..=0x0F).contains(&cmd);
            if canonical || sloppy {
                hit(13, VulnEffect::HostDos, E::HostDos, Implementation, None)
            } else {
                None
            }
        }

        _ => None,
    }
}

/// Bug #16 (S0-No-More) predicate, consulted inline where the controller
/// answers `NONCE_GET` unconditionally: the answer is attributable to the
/// battery-drain flaw when the unencrypted request claims to come from an
/// included node the controller itself has marked offline — a healthy S0
/// peer would be awake and requesting on its own behalf.
pub(crate) fn offline_nonce_flaw(src: u8, ctx: &VulnContext<'_>) -> bool {
    !ctx.encrypted && ctx.nvm.get(zwave_protocol::NodeId(src)).is_some_and(|rec| rec.offline)
}

/// Bug #18 (Crushing the Wave) predicate: an unencrypted S0 `KEY_SET`
/// carrying a full 16-byte key, arriving after the downgrade was
/// accepted, resets the network key without user confirmation.
pub(crate) fn key_reset_flaw(params_len: usize, ctx: &VulnContext<'_>) -> bool {
    !ctx.encrypted && ctx.downgrade_active && params_len >= 16
}

/// A shallow MAC-layer parsing quirk: the one-day robustness faults VFuzz
/// finds by random MAC mutation (checked on raw bytes *before* checksum
/// validation, as real pre-parse firmware bugs are).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacQuirk {
    /// Quirk identifier (unique per model; reported as bug id `100 + id`).
    pub id: u8,
    /// Human-readable description.
    pub description: &'static str,
}

/// Outage a MAC quirk causes (a brief hiccup).
pub(crate) const MAC_QUIRK_OUTAGE: Duration = Duration::from_secs(2);

/// Evaluates the model's MAC quirks against a raw frame that already
/// matched our home id. Returns the first quirk that fires.
pub(crate) fn check_mac_quirks(quirks: &[MacQuirk], raw: &[u8]) -> Option<MacQuirk> {
    for quirk in quirks {
        let fires = match quirk.id {
            // LEN declared as zero.
            1 => raw.len() >= 8 && raw[7] == 0x00,
            // LEN declares more bytes than arrived.
            2 => raw.len() >= 8 && (raw[7] as usize) > raw.len() && raw[7] != 0x00,
            // Reserved source id zero (confuses the routing-table lookup).
            3 => raw.len() >= 9 && raw[4] == 0x00,
            // Header truncated right after the home id.
            4 => raw.len() < 9 && raw.len() >= 4,
            _ => false,
        };
        if fires {
            return Some(*quirk);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use zwave_protocol::nif::BasicDeviceType;
    use zwave_protocol::{CommandClassId, NodeId};

    use crate::nvm::NodeRecord;

    fn nvm_with_lock() -> NodeDatabase {
        let mut db = NodeDatabase::new();
        db.insert(NodeRecord::new(NodeId(1), BasicDeviceType::StaticController));
        let mut lock = NodeRecord::new(NodeId(2), BasicDeviceType::Slave);
        lock.secure = true;
        lock.wakeup_interval_s = Some(3600);
        db.insert(lock);
        db
    }

    fn implemented() -> BTreeSet<u8> {
        [0x00u8, 0x01, 0x02, 0x20, 0x86, 0x9F].into_iter().collect()
    }

    fn ctx<'a>(nvm: &'a NodeDatabase, imp: &'a BTreeSet<u8>) -> VulnContext<'a> {
        VulnContext {
            nvm,
            implemented: imp,
            encrypted: false,
            usb_host: true,
            smart_hub: false,
            self_node: 1,
            reinclusion_armed: false,
            downgrade_active: false,
            via_route: false,
        }
    }

    fn pld(cc: u8, cmd: u8, params: &[u8]) -> ApplicationPayload {
        ApplicationPayload::new(CommandClassId(cc), cmd, params.to_vec())
    }

    #[test]
    fn bug01_tampers_existing_node_type() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let t = check(&pld(0x01, 0x0D, &[0x02, 0x04]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 1);
        assert_eq!(t.effect, VulnEffect::TamperNode { node: 2, new_type: 4 });
        assert_eq!(t.outage, None);
    }

    #[test]
    fn bug02_inserts_rogue_for_unknown_node() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let t = check(&pld(0x01, 0x0D, &[0x0A, 0x01]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 2);
        assert_eq!(t.effect, VulnEffect::InsertRogue { node: 0x0A, type_byte: 0x01 });
    }

    #[test]
    fn bug03_truncated_registration_removes_node() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let t = check(&pld(0x01, 0x0D, &[0x02]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 3);
        assert_eq!(t.effect, VulnEffect::RemoveNode { node: 2 });
    }

    #[test]
    fn bug04_broadcast_marker_overwrites_db() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let t = check(&pld(0x01, 0x0D, &[0xFF]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 4);
        assert_eq!(t.effect, VulnEffect::OverwriteDatabase);
    }

    #[test]
    fn bug12_zero_capability_clears_wakeup() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let t = check(&pld(0x01, 0x0D, &[0x02, 0x00]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 12);
        assert_eq!(t.effect, VulnEffect::ClearWakeup { node: 2 });
    }

    #[test]
    fn self_node_cannot_be_removed_or_tampered() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        assert!(check(&pld(0x01, 0x0D, &[0x01]), &ctx(&nvm, &imp)).is_none());
        assert!(check(&pld(0x01, 0x0D, &[0x01, 0x04]), &ctx(&nvm, &imp)).is_none());
    }

    #[test]
    fn bug05_needs_trailing_garbage() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        // A well-formed NIF request does not trigger.
        assert!(check(&pld(0x01, 0x02, &[]), &ctx(&nvm, &imp)).is_none());
        let t = check(&pld(0x01, 0x02, &[0xAA]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 5);
    }

    #[test]
    fn bug14_inconsistent_mask_length() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let t = check(&pld(0x01, 0x04, &[0x1D]), &ctx(&nvm, &imp)).unwrap();
        assert_eq!(t.bug_id, 14);
        assert_eq!(t.outage, Some(outage::BUG14));
        // Consistent mask does not trigger.
        assert!(check(&pld(0x01, 0x04, &[0x01, 0xFF]), &ctx(&nvm, &imp)).is_none());
    }

    #[test]
    fn bug06_requires_usb_host() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        let payload = pld(0x9F, 0x01, &[0x00, 0x00]);
        assert_eq!(check(&payload, &c).unwrap().bug_id, 6);
        c.usb_host = false;
        assert!(check(&payload, &c).is_none());
    }

    #[test]
    fn interruption_bugs_fire_with_table3_durations() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let c = ctx(&nvm, &imp);
        for (cc, cmd, params, bug, dur) in [
            (0x5Au8, 0x01u8, &[0x00u8][..], 7u8, outage::BUG07),
            (0x59, 0x03, &[0x00, 0x00][..], 8, outage::BUG08),
            (0x7A, 0x01, &[0x00][..], 9, outage::BUG09),
            (0x86, 0x13, &[0x55][..], 10, outage::BUG10),
            (0x59, 0x05, &[0x00, 0x00][..], 11, outage::BUG11),
            (0x7A, 0x03, &[0x00][..], 15, outage::BUG15),
        ] {
            let t = check(&pld(cc, cmd, params), &c)
                .unwrap_or_else(|| panic!("bug {bug} did not fire"));
            assert_eq!(t.bug_id, bug);
            assert_eq!(t.outage, Some(dur));
        }
    }

    #[test]
    fn bug10_spares_implemented_classes() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        // 0x20 is implemented → legitimate version query, no bug.
        assert!(check(&pld(0x86, 0x13, &[0x20]), &ctx(&nvm, &imp)).is_none());
        // 0x55 is not implemented → bug.
        assert!(check(&pld(0x86, 0x13, &[0x55]), &ctx(&nvm, &imp)).is_some());
    }

    #[test]
    fn bug13_invalid_test_node() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let c = ctx(&nvm, &imp);
        assert_eq!(check(&pld(0x73, 0x04, &[0x00]), &c).unwrap().bug_id, 13);
        assert_eq!(check(&pld(0x73, 0x04, &[0xF0]), &c).unwrap().bug_id, 13);
        assert!(check(&pld(0x73, 0x04, &[0x02, 0x05]), &c).is_none());
    }

    #[test]
    fn encrypted_payloads_never_trigger() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        c.encrypted = true;
        assert!(check(&pld(0x01, 0x0D, &[0xFF]), &c).is_none());
        assert!(check(&pld(0x5A, 0x01, &[0x00]), &c).is_none());
    }

    #[test]
    fn sloppy_default_paths_fire() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let c = ctx(&nvm, &imp);
        assert_eq!(check(&pld(0x5A, 0x07, &[]), &c).unwrap().bug_id, 7);
        assert_eq!(check(&pld(0x59, 0x15, &[]), &c).unwrap().bug_id, 8);
        assert_eq!(check(&pld(0x59, 0x25, &[]), &c).unwrap().bug_id, 11);
        assert_eq!(check(&pld(0x7A, 0x15, &[]), &c).unwrap().bug_id, 9);
        assert_eq!(check(&pld(0x7A, 0x25, &[]), &c).unwrap().bug_id, 15);
        assert_eq!(check(&pld(0x86, 0x25, &[]), &c).unwrap().bug_id, 10);
    }

    #[test]
    fn benign_classes_never_trigger() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let c = ctx(&nvm, &imp);
        assert!(check(&pld(0x20, 0x01, &[0xFF]), &c).is_none());
        assert!(check(&pld(0x25, 0x01, &[0xFF]), &c).is_none());
        assert!(check(&ApplicationPayload::bare(CommandClassId(0x00)), &c).is_none());
    }

    #[test]
    fn bug17_requires_armed_reinclusion_and_s0_only_keys() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        let downgrade = pld(0x9F, 0x06, &[0x80]);
        // Outside a re-inclusion window the KEX_SET is inert.
        assert!(check(&downgrade, &c).is_none());
        c.reinclusion_armed = true;
        let t = check(&downgrade, &c).unwrap();
        assert_eq!(t.bug_id, 17);
        assert_eq!(t.effect, VulnEffect::AcceptDowngrade);
        assert_eq!(t.effect_kind, EffectKind::SecurityDowngrade);
        // Requesting any S2 class is a legitimate (re-)grant, not a
        // downgrade; so is an S0-only request inside an encapsulation.
        assert!(check(&pld(0x9F, 0x06, &[0x81]), &c).is_none());
        assert!(check(&pld(0x9F, 0x06, &[0x01]), &c).is_none());
        c.encrypted = true;
        assert!(check(&downgrade, &c).is_none());
    }

    #[test]
    fn bug17_does_not_disturb_bug06() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        c.reinclusion_armed = true;
        // The host nonce parser bug still fires with the window armed…
        assert_eq!(check(&pld(0x9F, 0x01, &[0x00, 0x00]), &c).unwrap().bug_id, 6);
        // …and the downgrade fires without a USB host attached.
        c.usb_host = false;
        assert_eq!(check(&pld(0x9F, 0x06, &[0x80]), &c).unwrap().bug_id, 17);
        assert!(check(&pld(0x9F, 0x01, &[0x00, 0x00]), &c).is_none());
    }

    #[test]
    fn bug19_requires_a_routed_arrival() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        let probe = pld(0x01, 0x00, &[0x00]);
        // Direct (single-hop) delivery never reaches the vulnerable branch.
        assert!(check(&probe, &c).is_none());
        c.via_route = true;
        let t = check(&probe, &c).unwrap();
        assert_eq!(t.bug_id, 19);
        assert_eq!(t.effect, VulnEffect::Busy(outage::BUG19));
        assert_eq!(t.effect_kind, EffectKind::RouteCorruption);
        assert_eq!(t.outage, Some(outage::BUG19));
        // Encapsulated payloads stay immune, as for every seeded bug.
        c.encrypted = true;
        assert!(check(&probe, &c).is_none());
    }

    #[test]
    fn bug19_does_not_disturb_the_other_proprietary_bugs() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        c.via_route = true;
        // The established cmd 0x0D / 0x02 / 0x04 predicates are untouched
        // by a routed arrival — routed campaigns find them too.
        assert_eq!(check(&pld(0x01, 0x0D, &[0xFF]), &c).unwrap().bug_id, 4);
        assert_eq!(check(&pld(0x01, 0x02, &[0xAA]), &c).unwrap().bug_id, 5);
        assert_eq!(check(&pld(0x01, 0x04, &[0x1D]), &c).unwrap().bug_id, 14);
    }

    #[test]
    fn offline_nonce_flaw_needs_an_offline_record() {
        let mut nvm = nvm_with_lock();
        let imp = implemented();
        // The lock is online → answering its nonce requests is normal S0.
        assert!(!offline_nonce_flaw(2, &ctx(&nvm, &imp)));
        // Unknown sources are handled by the generic S0 path, not bug #16.
        assert!(!offline_nonce_flaw(9, &ctx(&nvm, &imp)));
        nvm.get_mut(NodeId(2)).unwrap().offline = true;
        assert!(offline_nonce_flaw(2, &ctx(&nvm, &imp)));
        let mut c = ctx(&nvm, &imp);
        c.encrypted = true;
        assert!(!offline_nonce_flaw(2, &c));
    }

    #[test]
    fn key_reset_flaw_needs_downgrade_and_full_key() {
        let nvm = nvm_with_lock();
        let imp = implemented();
        let mut c = ctx(&nvm, &imp);
        assert!(!key_reset_flaw(16, &c), "no downgrade accepted yet");
        c.downgrade_active = true;
        assert!(key_reset_flaw(16, &c));
        assert!(!key_reset_flaw(15, &c), "truncated key");
        c.encrypted = true;
        assert!(!key_reset_flaw(16, &c));
    }

    #[test]
    fn mac_quirks_fire_on_raw_frames() {
        let quirks = [
            MacQuirk { id: 1, description: "len zero" },
            MacQuirk { id: 2, description: "len overdeclared" },
            MacQuirk { id: 4, description: "truncated header" },
        ];
        // LEN == 0.
        let mut raw = vec![0xE7, 0xDE, 0x3F, 0x3D, 0x02, 0x41, 0x00, 0x00, 0x01, 0xAB];
        assert_eq!(check_mac_quirks(&quirks, &raw).unwrap().id, 1);
        // LEN > actual.
        raw[7] = 0xFF;
        assert_eq!(check_mac_quirks(&quirks, &raw).unwrap().id, 2);
        // Truncated.
        assert_eq!(check_mac_quirks(&quirks, &raw[..6]).unwrap().id, 4);
        // Well-formed LEN does not fire.
        raw[7] = raw.len() as u8;
        assert!(check_mac_quirks(&quirks, &raw).is_none());
    }
}
