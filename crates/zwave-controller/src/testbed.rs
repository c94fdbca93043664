//! The evaluation testbed: the seven real-world controllers of Table II
//! with their Table IV fingerprints, plus the two slave devices that make
//! the smart home realistic.

use zwave_protocol::{CommandClassId, HomeId, NodeId};
use zwave_radio::{Medium, SimClock};

use crate::controller::ControllerConfig;
use crate::network::HomeNetwork;
use crate::topology::Topology;
use crate::vulns::MacQuirk;

/// The seven controller models under test (rows D1-D7 of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceModel {
    /// ZooZ ZST10 (2022), USB stick.
    D1,
    /// Silicon Labs UZB-7 (2019), USB stick.
    D2,
    /// Nortek HUSBZB-1 (2015), USB stick.
    D3,
    /// Aeotec ZW090-A (2015), USB stick.
    D4,
    /// ZWave.Me ZMEUUZB1 (2015), USB stick.
    D5,
    /// Samsung ET-WV520 (2017), smart hub.
    D6,
    /// Samsung SmartThings STH-ETH-200 (2015), smart hub.
    D7,
}

impl DeviceModel {
    /// All models, in testbed order.
    pub fn all() -> [DeviceModel; 7] {
        [
            DeviceModel::D1,
            DeviceModel::D2,
            DeviceModel::D3,
            DeviceModel::D4,
            DeviceModel::D5,
            DeviceModel::D6,
            DeviceModel::D7,
        ]
    }

    /// The USB-stick models tested in the VFuzz comparison (Table V).
    pub fn usb_models() -> [DeviceModel; 5] {
        [DeviceModel::D1, DeviceModel::D2, DeviceModel::D3, DeviceModel::D4, DeviceModel::D5]
    }

    /// The testbed index string ("D4").
    pub fn idx(self) -> &'static str {
        self.config_parts().0
    }

    /// The model whose index string is `idx` (ASCII case-insensitive).
    pub fn parse(idx: &str) -> Option<DeviceModel> {
        DeviceModel::all().into_iter().find(|m| m.idx().eq_ignore_ascii_case(idx))
    }

    fn config_parts(
        self,
    ) -> (&'static str, &'static str, &'static str, u16, u32, bool, bool, bool, Vec<MacQuirk>) {
        // (idx, brand, model, year, home, usb, hub, full17, quirks)
        match self {
            DeviceModel::D1 => (
                "D1",
                "ZooZ",
                "ZST10",
                2022,
                0xE7DE3F3D,
                true,
                false,
                true,
                vec![MacQuirk { id: 1, description: "LEN-zero pre-parse stall" }],
            ),
            DeviceModel::D2 => (
                "D2",
                "SiLab",
                "UZB-7",
                2019,
                0xCD007171,
                true,
                false,
                true,
                vec![
                    MacQuirk { id: 1, description: "LEN-zero pre-parse stall" },
                    MacQuirk { id: 2, description: "over-declared LEN read-past" },
                    MacQuirk { id: 3, description: "reserved zero source id" },
                ],
            ),
            DeviceModel::D3 => {
                ("D3", "Nortek", "HUSBZB-1", 2015, 0xCB51722D, true, false, false, vec![])
            }
            DeviceModel::D4 => (
                "D4",
                "Aeotec",
                "ZW090-A",
                2015,
                0xC7E9DD54,
                true,
                false,
                true,
                vec![
                    MacQuirk { id: 1, description: "LEN-zero pre-parse stall" },
                    MacQuirk { id: 2, description: "over-declared LEN read-past" },
                    MacQuirk { id: 3, description: "reserved zero source id" },
                    MacQuirk { id: 4, description: "truncated header stall" },
                ],
            ),
            DeviceModel::D5 => {
                ("D5", "ZWaveMe", "ZMEUUZB1", 2015, 0xF4C3754D, true, false, false, vec![])
            }
            DeviceModel::D6 => {
                ("D6", "Samsung", "ET-WV520", 2017, 0xCB95A34A, false, true, true, vec![])
            }
            DeviceModel::D7 => {
                ("D7", "Samsung", "STH-ETH-200", 2015, 0xEDC87EE4, false, true, false, vec![])
            }
        }
    }

    /// The NIF-listed command-class set: 17 classes for the newer firmware
    /// generation (D1, D2, D4, D6), 15 for the 2015-era models that predate
    /// Z-Wave Plus v2 classes (D3, D5, D7) — reproducing Table IV.
    pub fn listed_classes(self) -> Vec<CommandClassId> {
        let full17: [u8; 17] = [
            0x20, 0x22, 0x25, 0x26, 0x56, 0x59, 0x5A, 0x5E, 0x6C, 0x72, 0x73, 0x7A, 0x85, 0x86,
            0x8E, 0x98, 0x9F,
        ];
        let is_full = self.config_parts().7;
        full17
            .iter()
            .filter(|&&cc| is_full || (cc != 0x5E && cc != 0x6C))
            .map(|&cc| CommandClassId(cc))
            .collect()
    }

    /// Builds the controller configuration for this model.
    pub fn config(self) -> ControllerConfig {
        let (idx, brand, model, year, home, usb, hub, _, quirks) = self.config_parts();
        ControllerConfig {
            idx,
            brand,
            model,
            year,
            home_id: HomeId(home),
            usb_host: usb,
            smart_hub: hub,
            listed: self.listed_classes(),
            mac_quirks: quirks,
        }
    }
}

/// Node id of the door lock (D8) in every testbed network.
pub const LOCK_NODE: NodeId = NodeId(0x02);
/// Node id of the smart switch (D9) in every testbed network.
pub const SWITCH_NODE: NodeId = NodeId(0x03);
/// Node id of the optional S0 motion sensor.
pub const SENSOR_NODE: NodeId = NodeId(0x04);

/// The paper's flat evaluation testbed: a controller under test plus the
/// two slave devices, as one [`Topology::Star`] [`HomeNetwork`] that keeps
/// the model's Table IV factory home id. A constructor namespace only —
/// both constructors return the home itself.
pub enum Testbed {}

impl Testbed {
    /// Builds the network for `model` with deterministic keys derived from
    /// `seed`.
    // `Testbed` has no values: `new` names the flat home, not a `Testbed`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(model: DeviceModel, seed: u64) -> HomeNetwork {
        Self::build(model, seed, false)
    }

    /// Like [`Testbed::new`] but with an additional battery-powered S0
    /// motion sensor (node 0x04) joined to the network — an optional
    /// fourth device for experiments that need sleeping-node traffic.
    pub fn with_sensor(model: DeviceModel, seed: u64) -> HomeNetwork {
        Self::build(model, seed, true)
    }

    fn build(model: DeviceModel, seed: u64, with_sensor: bool) -> HomeNetwork {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), seed);
        let home_id = model.config().home_id;
        HomeNetwork::assemble(model, Topology::Star, seed, home_id, with_sensor, clock, medium)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_home_ids() {
        let expected: [(DeviceModel, u32); 7] = [
            (DeviceModel::D1, 0xE7DE3F3D),
            (DeviceModel::D2, 0xCD007171),
            (DeviceModel::D3, 0xCB51722D),
            (DeviceModel::D4, 0xC7E9DD54),
            (DeviceModel::D5, 0xF4C3754D),
            (DeviceModel::D6, 0xCB95A34A),
            (DeviceModel::D7, 0xEDC87EE4),
        ];
        for (model, home) in expected {
            assert_eq!(model.config().home_id, HomeId(home), "{model:?}");
        }
    }

    #[test]
    fn parse_inverts_idx_case_insensitively() {
        for model in DeviceModel::all() {
            assert_eq!(DeviceModel::parse(model.idx()), Some(model));
            assert_eq!(DeviceModel::parse(&model.idx().to_lowercase()), Some(model));
        }
        assert_eq!(DeviceModel::parse("D8"), None);
    }

    #[test]
    fn table4_listed_counts() {
        // D1, D2, D4, D6 list 17 CMDCLs; D3, D5, D7 list 15.
        for (model, count) in [
            (DeviceModel::D1, 17),
            (DeviceModel::D2, 17),
            (DeviceModel::D3, 15),
            (DeviceModel::D4, 17),
            (DeviceModel::D5, 15),
            (DeviceModel::D6, 17),
            (DeviceModel::D7, 15),
        ] {
            assert_eq!(model.listed_classes().len(), count, "{model:?}");
        }
    }

    #[test]
    fn testbed_is_the_flat_factory_home() {
        for model in DeviceModel::all() {
            let mut tb = Testbed::new(model, 3);
            assert_eq!(tb.controller().home_id(), model.config().home_id, "{model:?}");
            assert_eq!(tb.station_rx_overflows().len(), 3, "{model:?}: no repeaters");
            assert_eq!(tb.injection_route(), None, "{model:?}");
            assert!(tb.sensor().is_none(), "{model:?}");
            // The campaign surface the fuzzer drives: normal traffic, pump,
            // fault drain and factory restore.
            tb.exchange_normal_traffic();
            tb.pump();
            assert!(tb.controller_mut().take_new_faults().is_empty(), "{model:?}");
            tb.controller_mut().restore_factory();

            let with = Testbed::with_sensor(model, 3);
            assert_eq!(with.controller().home_id(), model.config().home_id, "{model:?}");
            assert!(with.sensor().is_some(), "{model:?}");
        }
    }

    #[test]
    fn unknown_cmdcl_counts_complement_to_45() {
        // Table IV: implemented(45) - listed = 28 or 30.
        for model in DeviceModel::all() {
            let tb = Testbed::new(model, 1);
            let listed = tb.controller().listed().len();
            let implemented = tb.controller().implemented().len();
            assert_eq!(implemented, 45);
            assert_eq!(implemented - listed, if listed == 17 { 28 } else { 30 });
        }
    }

    #[test]
    fn vfuzz_quirk_counts_match_table5() {
        for (model, quirks) in [
            (DeviceModel::D1, 1),
            (DeviceModel::D2, 3),
            (DeviceModel::D3, 0),
            (DeviceModel::D4, 4),
            (DeviceModel::D5, 0),
        ] {
            assert_eq!(model.config().mac_quirks.len(), quirks, "{model:?}");
        }
    }

    #[test]
    fn normal_traffic_flows_end_to_end() {
        let mut tb = Testbed::new(DeviceModel::D6, 42);
        let sniffer = tb.attach_attacker(70.0);
        tb.exchange_normal_traffic();
        // The attacker sniffed multiple frames of the exchange.
        let frames = sniffer.drain();
        assert!(frames.len() >= 4, "captured {} frames", frames.len());
        // The hub's home id is visible in every frame even though the APL
        // payload between hub and lock is S2-encrypted.
        assert!(frames.iter().all(|f| f.bytes[..4] == 0xCB95A34Au32.to_be_bytes()));
    }

    #[test]
    fn lock_refuses_unencrypted_operation() {
        let mut tb = Testbed::new(DeviceModel::D6, 42);
        let attacker = tb.attach_attacker(70.0);
        assert!(tb.lock().is_locked());
        // Inject a plain-text unlock.
        let frame = zwave_protocol::MacFrame::singlecast(
            HomeId(0xCB95A34A),
            NodeId(0x01),
            LOCK_NODE,
            vec![0x62, 0x01, 0x00],
        );
        attacker.transmit(&frame.encode());
        tb.pump();
        assert!(tb.lock().is_locked(), "S2 lock must ignore unencrypted commands");
    }

    #[test]
    fn hub_can_operate_lock_over_s2() {
        let mut tb = Testbed::new(DeviceModel::D6, 42);
        tb.exchange_normal_traffic();
        assert!(tb.lock().is_locked());
    }

    #[test]
    fn smart_hub_models_have_app_usb_models_have_host() {
        let tb6 = Testbed::new(DeviceModel::D6, 1);
        assert!(tb6.controller().app().is_some());
        assert!(tb6.controller().host().is_none());
        let tb1 = Testbed::new(DeviceModel::D1, 1);
        assert!(tb1.controller().host().is_some());
        assert!(tb1.controller().app().is_none());
    }

    #[test]
    fn figure2_attack_scenario_deletes_lock_from_hub_memory() {
        // The end-to-end Figure 2 walkthrough: S2 network, attacker at
        // 70 m, single unencrypted proprietary frame, lock gone from the
        // hub's memory.
        let mut tb = Testbed::new(DeviceModel::D6, 7);
        let attacker = tb.attach_attacker(70.0);
        assert!(tb.controller().nvm().contains(LOCK_NODE));
        let frame = zwave_protocol::MacFrame::singlecast(
            HomeId(0xCB95A34A),
            SWITCH_NODE, // spoofed source
            NodeId(0x01),
            vec![0x01, 0x0D, LOCK_NODE.0],
        );
        attacker.transmit(&frame.encode());
        tb.pump();
        assert!(!tb.controller().nvm().contains(LOCK_NODE));
        assert_eq!(tb.controller().fault_log().records()[0].bug_id, 3);
    }
}
