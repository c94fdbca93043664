//! The boundary between ZCover and the system under test.
//!
//! ZCover reaches the device only through the radio — the same black-box
//! constraint the paper faces. The extra methods on [`FuzzTarget`] model
//! the parts of the experiment that are *not* the fuzzer: the simulation
//! scheduler ([`FuzzTarget::pump`]) and the authors' manual verification
//! of each finding ([`FuzzTarget::take_faults`]).

use zwave_controller::{FaultRecord, HomeNetwork, NodeRecord, LOCK_NODE};
use zwave_protocol::nif::BasicDeviceType;
use zwave_protocol::{CommandClassId, NodeId};
use zwave_radio::{Medium, SimInstant};

use crate::scenarios::{Scenario, GHOST_NODE};

/// A fuzzable Z-Wave network.
pub trait FuzzTarget {
    /// The radio medium to attach the attacker dongle to.
    fn medium(&self) -> &Medium;

    /// Lets every simulated device process pending traffic.
    fn pump(&mut self);

    /// Hops virtual time forward to the next scheduled event (at most
    /// `cap`), returning whether an event was reached. With nothing due
    /// before `cap`, time advances to `cap` and this returns `false` —
    /// the caller's signal that further waiting is pointless.
    fn advance_to_event(&mut self, cap: SimInstant) -> bool {
        self.medium().advance_to_next_wakeup(cap)
    }

    /// Drains verified fault events since the last call — the oracle that
    /// stands in for the paper's manual crash verification and PoC
    /// confirmation (Section IV-A).
    fn take_faults(&mut self) -> Vec<FaultRecord>;

    /// Causes one round of benign network traffic for passive scanning.
    fn generate_normal_traffic(&mut self);

    /// Monotonic count of distinct APL dispatch edges lit on the target —
    /// the per-packet feedback read of the coverage-guided mode. Targets
    /// without instrumentation report zero (coverage mode then degrades
    /// to blind mutation; nothing is ever retained).
    fn coverage_edges(&self) -> u64 {
        0
    }

    /// Puts the network into the state an attack scenario presumes —
    /// e.g. an included-but-offline battery node for S0-No-More, or an
    /// armed re-inclusion window for Crushing-the-Wave. Called once per
    /// campaign, before fingerprinting; a no-op for [`Scenario::None`]
    /// and for targets without scenario support.
    fn prepare_scenario(&mut self, _scenario: Scenario) {}

    /// The repeater chain injected frames must traverse to reach the
    /// controller, in forwarding order — `None` when the controller is in
    /// direct range (the flat-testbed default). The fuzzer configures its
    /// dongle with this once per campaign, after discovery: probes go
    /// direct, fuzz frames ride the mesh.
    fn injection_route(&self) -> Option<Vec<NodeId>> {
        None
    }
}

impl FuzzTarget for HomeNetwork {
    fn medium(&self) -> &Medium {
        HomeNetwork::medium(self)
    }

    fn pump(&mut self) {
        HomeNetwork::pump(self);
    }

    fn take_faults(&mut self) -> Vec<FaultRecord> {
        self.controller_mut().take_new_faults()
    }

    fn generate_normal_traffic(&mut self) {
        self.exchange_normal_traffic();
    }

    fn coverage_edges(&self) -> u64 {
        self.station_edge_sum()
    }

    fn prepare_scenario(&mut self, scenario: Scenario) {
        let controller = self.controller_mut();
        match scenario {
            Scenario::None => {}
            // S0-No-More presumes a battery device that is *included* in
            // the controller's NVM but currently offline (radio off
            // between wakeups) — the identity the attacker spoofs.
            Scenario::S0NoMore => {
                let mut ghost = NodeRecord::new(GHOST_NODE, BasicDeviceType::Slave);
                ghost.generic = 0x20; // binary sensor
                ghost.listening = false;
                ghost.offline = true;
                ghost.wakeup_interval_s = Some(4000);
                ghost.supported = vec![
                    CommandClassId(0x30),
                    CommandClassId::BATTERY,
                    CommandClassId::WAKE_UP,
                    CommandClassId::SECURITY_0,
                ];
                controller.nvm_mut().insert(ghost);
                // Committed so mid-campaign factory restores (bug
                // recovery) keep the record: the premise of the attack,
                // not state the attack created.
                controller.commit_factory_state();
            }
            // Crushing-the-Wave presumes a re-inclusion of the S2 lock
            // is in progress (the window the attacker races).
            Scenario::CrushingTheWave => {
                controller.arm_reinclusion(LOCK_NODE);
            }
        }
    }

    fn injection_route(&self) -> Option<Vec<NodeId>> {
        self.route_from_switch()
    }
}
