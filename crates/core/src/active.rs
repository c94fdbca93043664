//! Phase 1b — active scanning (Section III-B2).
//!
//! Using the network properties from passive scanning, the active scanner
//! interrogates the target controller: a device-state probe confirms the
//! target answers, a NIF request retrieves the *listed* supported command
//! classes, and response analysis builds the initial profile.

use zwave_protocol::nif::{encode_nif_request, NodeInfoFrame};
use zwave_protocol::{CommandClassId, MacFrame};

use crate::dongle::Dongle;
use crate::passive::ScanReport;
use crate::target::FuzzTarget;

/// The controller profile assembled by active scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveScanReport {
    /// Classes the controller advertises in its NIF (15 or 17 on the
    /// testbed devices, Table IV).
    pub listed: Vec<CommandClassId>,
    /// Whether the device-state interrogation got a response.
    pub interrogation_ok: bool,
}

/// The active scanner.
#[derive(Debug)]
pub struct ActiveScanner;

impl ActiveScanner {
    /// Runs the three active-scanning steps against the controller
    /// identified in `scan`. Returns `None` when the controller never
    /// answered the NIF request.
    pub fn scan<T: FuzzTarget>(
        target: &mut T,
        dongle: &mut Dongle,
        scan: &ScanReport,
    ) -> Option<ActiveScanReport> {
        let src = scan.spoof_source();

        // 1. Dynamic device interrogation: a Basic Get device-state probe.
        dongle.flush();
        dongle.inject_apl(scan.home_id, src, scan.controller, [0x20, 0x02]);
        target.pump();
        dongle.wait_for_responses();
        target.pump();
        let interrogation_ok = dongle.drain_any(|bytes| {
            MacFrame::decode(bytes).is_ok_and(|m| !m.is_ack() && m.src() == scan.controller)
        });

        // 2. Listed property querying via a NIF request (retransmitted a
        //    few times so channel loss cannot blank the fingerprint), then
        // 3. response analysis: extract the listed classes from the NIF.
        let mut listed = None;
        for _attempt in 0..6 {
            dongle.flush();
            dongle.inject_apl(scan.home_id, src, scan.controller, encode_nif_request());
            target.pump();
            dongle.wait_for_responses();
            target.pump();
            listed = dongle
                .drain()
                .iter()
                .filter_map(|f| MacFrame::decode(&f.bytes).ok())
                .filter(|m| m.src() == scan.controller && !m.is_ack())
                .find_map(|m| NodeInfoFrame::decode(m.payload()).ok())
                .map(|nif| nif.supported);
            if listed.is_some() {
                break;
            }
        }

        Some(ActiveScanReport { listed: listed?, interrogation_ok })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passive::PassiveScanner;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    fn fingerprint(model: DeviceModel) -> ActiveScanReport {
        let mut tb = Testbed::new(model, 21);
        let mut scanner = PassiveScanner::new(tb.medium(), 70.0);
        tb.exchange_normal_traffic();
        let scan = scanner.analyze().unwrap();
        let mut dongle = Dongle::attach(tb.medium(), 70.0);
        ActiveScanner::scan(&mut tb, &mut dongle, &scan).unwrap()
    }

    #[test]
    fn d4_lists_17_cmdcls() {
        // "controller D4 listed only 17 CMDCLs" (Section III-B2).
        let report = fingerprint(DeviceModel::D4);
        assert_eq!(report.listed.len(), 17);
        assert!(report.interrogation_ok);
    }

    #[test]
    fn d5_lists_15_cmdcls() {
        let report = fingerprint(DeviceModel::D5);
        assert_eq!(report.listed.len(), 15);
    }

    #[test]
    fn listed_classes_exclude_proprietary_ones() {
        let report = fingerprint(DeviceModel::D1);
        assert!(!report.listed.contains(&CommandClassId::ZWAVE_PROTOCOL));
        assert!(!report.listed.contains(&CommandClassId::ZENSOR_NET));
        assert!(report.listed.contains(&CommandClassId::SECURITY_2));
    }
}
