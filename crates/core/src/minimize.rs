//! Trigger minimization: shrinks a bug-inducing payload to a minimal
//! proof-of-concept, the step between "crash logged" and "PoC exploit
//! developed" in the paper's workflow (Section IV-A: "After validation, we
//! develop proof-of-concept (PoC) exploits for selected critical
//! vulnerabilities").

use zwave_protocol::apl::ApplicationPayload;

/// Greedily minimizes `trigger` (an encoded application payload) while
/// `reproduces` keeps returning `true`. The CMDCL and CMD bytes are never
/// removed; parameters are first truncated from the end, then each
/// remaining parameter is driven towards zero.
///
/// `reproduces` is called with candidate payloads; it should replay the
/// candidate against a *fresh* target and report whether the same bug
/// fires. The returned payload is guaranteed to reproduce.
///
/// # Panics
///
/// Panics if the original `trigger` itself does not reproduce (a
/// minimization precondition failure, always a caller bug).
pub fn minimize<F>(trigger: &[u8], mut reproduces: F) -> Vec<u8>
where
    F: FnMut(&[u8]) -> bool,
{
    assert!(reproduces(trigger), "minimization precondition: the original trigger must reproduce");
    let Ok(payload) = ApplicationPayload::parse(trigger) else {
        return trigger.to_vec();
    };
    if payload.command().is_none() {
        return trigger.to_vec();
    }
    let mut best = payload;

    // Phase 1: truncate parameters from the end.
    loop {
        let mut candidate = best.clone();
        if candidate.params().is_empty() {
            break;
        }
        candidate.params_mut().pop();
        if reproduces(&candidate.encode()) {
            best = candidate;
        } else {
            break;
        }
    }

    // Phase 2: canonicalise each remaining parameter towards zero.
    for i in 0..best.params().len() {
        if best.params()[i] == 0 {
            continue;
        }
        let mut candidate = best.clone();
        candidate.params_mut()[i] = 0;
        if reproduces(&candidate.encode()) {
            best = candidate;
        }
    }

    best.encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic oracle: fires when params[0] == 0x02, anything after is
    /// noise.
    fn oracle(payload: &[u8]) -> bool {
        payload.len() >= 3 && payload[0] == 0x01 && payload[1] == 0x0D && payload[2] == 0x02
    }

    #[test]
    fn strips_trailing_noise() {
        let noisy = vec![0x01, 0x0D, 0x02, 0xAA, 0xBB, 0xCC];
        let minimal = minimize(&noisy, oracle);
        assert_eq!(minimal, vec![0x01, 0x0D, 0x02]);
    }

    #[test]
    fn keeps_required_parameters() {
        let trigger = vec![0x01, 0x0D, 0x02];
        assert_eq!(minimize(&trigger, oracle), trigger);
    }

    #[test]
    fn zeroes_irrelevant_middle_parameters() {
        // Oracle requires params[0] == 0x02 and at least 2 params.
        let oracle = |p: &[u8]| p.len() >= 4 && p[2] == 0x02;
        let minimal = minimize(&[0x01, 0x0D, 0x02, 0x7F], oracle);
        assert_eq!(minimal, vec![0x01, 0x0D, 0x02, 0x00]);
    }

    #[test]
    #[should_panic(expected = "precondition")]
    fn panics_when_original_does_not_reproduce() {
        minimize(&[0x20, 0x01, 0xFF], |_| false);
    }

    #[test]
    fn bare_payloads_pass_through() {
        let bare = vec![0x00];
        assert_eq!(minimize(&bare, |_| true), bare);
    }

    #[test]
    fn minimized_trigger_fires_the_same_bug_id_and_never_grows() {
        use zwave_controller::testbed::{DeviceModel, Testbed};
        use zwave_protocol::{MacFrame, NodeId};

        // Replays a candidate against a fresh testbed and reports whether
        // the given bug id fires — the oracle the paper's PoC step uses.
        let fires = |candidate: &[u8], bug_id: u8| {
            let mut tb = Testbed::new(DeviceModel::D1, 11);
            let attacker = tb.attach_attacker(70.0);
            let frame = MacFrame::singlecast(
                tb.controller().home_id(),
                NodeId(0x03),
                NodeId(0x01),
                candidate,
            );
            attacker.transmit(&frame.encode());
            tb.pump();
            tb.controller().fault_log().records().iter().any(|r| r.bug_id == bug_id)
        };
        // Bug #10's sloppy Version-command trigger with a junk tail.
        let noisy = vec![0x86, 0x25, 0xDE, 0xAD, 0xBE, 0xEF];
        assert!(fires(&noisy, 10), "the noisy original must reproduce bug 10");
        let minimal = minimize(&noisy, |c| fires(c, 10));
        assert!(minimal.len() <= noisy.len(), "minimization must never grow the trigger");
        assert!(fires(&minimal, 10), "the minimized trigger fires the same bug id");
        assert!(minimal.len() < noisy.len(), "the junk tail is removable noise");
    }

    #[test]
    fn minimizes_against_a_real_testbed() {
        use zwave_controller::testbed::{DeviceModel, Testbed};
        use zwave_protocol::{MacFrame, NodeId};

        // A noisy bug-#04 trigger: broadcast marker plus junk.
        let noisy = vec![0x01, 0x0D, 0xFF, 0x13, 0x37];
        let minimal = minimize(&noisy, |candidate| {
            let mut tb = Testbed::new(DeviceModel::D1, 9);
            let attacker = tb.attach_attacker(70.0);
            let frame = MacFrame::singlecast(
                tb.controller().home_id(),
                NodeId(0x03),
                NodeId(0x01),
                candidate,
            );
            attacker.transmit(&frame.encode());
            tb.pump();
            tb.controller().fault_log().records().iter().any(|r| r.bug_id == 4)
        });
        assert_eq!(minimal, vec![0x01, 0x0D, 0xFF]);
    }
}
