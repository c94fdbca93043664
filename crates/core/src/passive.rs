//! Phase 1a — passive scanning (Section III-B1, Figure 4).
//!
//! The scanner sniffs Z-Wave traffic, dissects captured frames
//! (raw bits → hex → fields) and recovers the network home id and the node
//! ids participating in exchanges. S2 encrypts only the APL payload, so
//! these fields are always recoverable.

use std::collections::BTreeMap;

use zwave_protocol::dissect::Dissection;
use zwave_protocol::{HomeId, NodeId};
use zwave_radio::{FrameBuf, Medium, Sniffer};

/// Aggregate traffic statistics from the capture window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Valid frames observed per source node id.
    pub frames_per_node: BTreeMap<u8, usize>,
    /// Frames whose application payload was S0/S2 encapsulated.
    pub encrypted_frames: usize,
    /// Frames whose application payload travelled in the clear.
    pub cleartext_frames: usize,
}

impl TrafficStats {
    /// Fraction of APL-bearing traffic that was encrypted (0.0 when no
    /// application traffic was seen).
    pub fn encrypted_fraction(&self) -> f64 {
        let total = self.encrypted_frames + self.cleartext_frames;
        if total == 0 {
            return 0.0;
        }
        self.encrypted_frames as f64 / total as f64
    }
}

/// The known network properties recovered by scanning (Table IV's passive
/// columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// The network home id.
    pub home_id: HomeId,
    /// The inferred controller node id (0x01 on every tested device).
    pub controller: NodeId,
    /// Slave node ids observed in exchanges.
    pub slaves: Vec<NodeId>,
    /// How many frames were captured to produce this report.
    pub frames_captured: usize,
    /// Traffic statistics over the capture window.
    pub traffic: TrafficStats,
    /// The well-formed captured frames on `home_id`, in capture order
    /// (shared buffers, not copies) — the VFuzz engine's seed corpus.
    pub captures: Vec<FrameBuf>,
}

impl ScanReport {
    /// A node id usable as a spoofed source: prefers a real slave so
    /// injected frames blend into the network.
    pub fn spoof_source(&self) -> NodeId {
        self.slaves.first().copied().unwrap_or(NodeId(0x0F))
    }
}

/// The passive scanner.
#[derive(Debug)]
pub struct PassiveScanner {
    sniffer: Sniffer,
}

impl PassiveScanner {
    /// Attaches the scanner's dongle to `medium` at `position_m`.
    pub fn new(medium: &Medium, position_m: f64) -> Self {
        PassiveScanner { sniffer: Sniffer::attach(medium, position_m) }
    }

    /// Pulls captured traffic and, if any valid Z-Wave frames were seen,
    /// produces a [`ScanReport`].
    ///
    /// Dissection drops frames that fail MAC validation (channel noise), so
    /// the report is built only from well-formed traffic. The home id is
    /// taken by majority vote; the controller is inferred as the node
    /// participating in the most exchanges (hubs are the traffic centre).
    pub fn analyze(&mut self) -> Option<ScanReport> {
        self.sniffer.poll();
        let dissections: Vec<(Dissection, &FrameBuf)> = self
            .sniffer
            .captures()
            .iter()
            .filter_map(|f| Dissection::from_buf(&f.bytes).ok().map(|d| (d, &f.bytes)))
            .collect();
        if dissections.is_empty() {
            return None;
        }

        // Majority home id.
        let mut home_votes: BTreeMap<u32, usize> = BTreeMap::new();
        for (d, _) in &dissections {
            *home_votes.entry(d.home_id.0).or_default() += 1;
        }
        let home_id = HomeId(*home_votes.iter().max_by_key(|(_, v)| **v).map(|(k, _)| k)?);
        let (on_home, captures): (Vec<&Dissection>, Vec<FrameBuf>) = dissections
            .iter()
            .filter(|(d, _)| d.home_id == home_id)
            .map(|(d, bytes)| (d, (*bytes).clone()))
            .unzip();

        // Node participation counts on that network.
        let mut participation: BTreeMap<u8, usize> = BTreeMap::new();
        for d in &on_home {
            for node in [d.src, d.dst] {
                if !node.is_broadcast() {
                    *participation.entry(node.0).or_default() += 1;
                }
            }
        }
        // Ties go to the smaller node id: primary controllers receive the
        // first id at network formation.
        let controller = NodeId(
            *participation
                .iter()
                .max_by_key(|(k, v)| (**v, std::cmp::Reverse(**k)))
                .map(|(k, _)| k)?,
        );
        let slaves: Vec<NodeId> =
            participation.keys().filter(|&&n| n != controller.0).map(|&n| NodeId(n)).collect();

        let mut traffic = TrafficStats::default();
        for d in &on_home {
            *traffic.frames_per_node.entry(d.src.0).or_default() += 1;
            if let Some(apl) = &d.apl {
                let cc = apl.command_class().0;
                if (cc == 0x9F || cc == 0x98) && matches!(apl.command(), Some(0x03) | Some(0x81)) {
                    traffic.encrypted_frames += 1;
                } else {
                    traffic.cleartext_frames += 1;
                }
            }
        }

        Some(ScanReport {
            home_id,
            controller,
            slaves,
            frames_captured: dissections.len(),
            traffic,
            captures,
        })
    }

    /// Access to the underlying capture log.
    pub fn sniffer(&self) -> &Sniffer {
        &self.sniffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    #[test]
    fn recovers_home_and_node_ids_from_normal_traffic() {
        let mut tb = Testbed::new(DeviceModel::D6, 11);
        let mut scanner = PassiveScanner::new(tb.medium(), 70.0);
        assert!(scanner.analyze().is_none(), "no traffic yet");

        tb.exchange_normal_traffic();
        let report = scanner.analyze().expect("traffic was on the air");
        assert_eq!(report.home_id, HomeId(0xCB95A34A));
        assert_eq!(report.controller, NodeId(0x01));
        assert!(report.slaves.contains(&NodeId(0x02)) || report.slaves.contains(&NodeId(0x03)));
        assert!(report.frames_captured >= 4);
    }

    #[test]
    fn works_despite_s2_encryption() {
        // The hub↔lock exchange is S2-encrypted; the scanner still reads
        // home and node ids (Section III-B1).
        let mut tb = Testbed::new(DeviceModel::D7, 12);
        let mut scanner = PassiveScanner::new(tb.medium(), 70.0);
        tb.controller_mut().query_door_lock(zwave_controller::LOCK_NODE);
        tb.pump();
        let report = scanner.analyze().unwrap();
        assert_eq!(report.home_id, HomeId(0xEDC87EE4));
        assert!(report.slaves.contains(&NodeId(0x02)));
    }

    #[test]
    fn spoof_source_prefers_a_real_slave() {
        let mut tb = Testbed::new(DeviceModel::D1, 13);
        let mut scanner = PassiveScanner::new(tb.medium(), 40.0);
        tb.exchange_normal_traffic();
        let report = scanner.analyze().unwrap();
        let spoof = report.spoof_source();
        assert!(report.slaves.contains(&spoof));
        // And the fallback when nothing was learned:
        let empty = ScanReport {
            home_id: HomeId(1),
            controller: NodeId(1),
            slaves: vec![],
            frames_captured: 0,
            traffic: TrafficStats::default(),
            captures: Vec::new(),
        };
        assert_eq!(empty.spoof_source(), NodeId(0x0F));
    }

    #[test]
    fn captures_keep_the_real_frames_on_the_home_id() {
        let mut tb = Testbed::new(DeviceModel::D1, 1);
        let mut scanner = PassiveScanner::new(tb.medium(), 70.0);
        for _ in 0..3 {
            tb.exchange_normal_traffic();
        }
        let report = scanner.analyze().unwrap();
        assert!(!report.captures.is_empty());
        assert!(report.captures.len() <= report.frames_captured);
        assert!(report.captures.iter().all(|f| f[..4] == report.home_id.to_bytes()));
    }
}

#[cfg(test)]
mod traffic_tests {
    use super::*;
    use zwave_controller::testbed::{DeviceModel, Testbed};

    #[test]
    fn traffic_stats_count_per_node_and_encryption() {
        let mut tb = Testbed::new(DeviceModel::D6, 17);
        let mut scanner = PassiveScanner::new(tb.medium(), 70.0);
        for _ in 0..3 {
            tb.exchange_normal_traffic();
        }
        let report = scanner.analyze().unwrap();
        let stats = &report.traffic;
        // Hub, lock, and switch all transmitted.
        assert!(stats.frames_per_node.contains_key(&0x01));
        assert!(stats.frames_per_node.contains_key(&0x02));
        assert!(stats.frames_per_node.contains_key(&0x03));
        // Hub↔lock is S2 while the switch reports in the clear: the
        // window shows a mix.
        assert!(stats.encrypted_frames > 0, "{stats:?}");
        assert!(stats.cleartext_frames > 0, "{stats:?}");
        let f = stats.encrypted_fraction();
        assert!(f > 0.0 && f < 1.0, "fraction {f}");
        assert_eq!(TrafficStats::default().encrypted_fraction(), 0.0);
    }
}
