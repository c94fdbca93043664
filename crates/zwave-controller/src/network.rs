//! The one simulated home model: a controller under test plus its slave
//! devices, wired by a [`Topology`] on a shared medium and virtual clock.
//!
//! The paper's flat testbed (Table II/IV) is a [`Topology::Star`] home
//! that keeps the model's factory home id —
//! [`Testbed::new`](crate::testbed::Testbed::new) builds exactly that. The
//! sharded world's homes add the mesh machinery a flat network lacks:
//! repeaters that relay source-routed frames, a [`NeighborTable`] the
//! controller's routes resolve against, route decay on every use, and a
//! switch that reports through its repeater chain when it sits beyond
//! direct range.

use zwave_crypto::s2::{network_keys, S2Session};
use zwave_crypto::NetworkKey;
use zwave_protocol::{CommandClassId, HomeId, NodeId};
use zwave_radio::{splitmix64, Medium, SimClock, Transceiver};

use crate::controller::SimController;
use crate::devices::{SimDoorLock, SimRepeater, SimSensor, SimSwitch};
use crate::neighbors::NeighborTable;
use crate::nvm::NodeRecord;
use crate::testbed::{DeviceModel, LOCK_NODE, SENSOR_NODE, SWITCH_NODE};
use crate::topology::Topology;

/// One assembled home: controller, slaves, repeaters, neighbor table.
#[derive(Debug)]
pub struct HomeNetwork {
    clock: SimClock,
    medium: Medium,
    controller: SimController,
    lock: SimDoorLock,
    switch: SimSwitch,
    sensor: Option<SimSensor>,
    repeaters: Vec<SimRepeater>,
    neighbors: NeighborTable,
    /// Pumps cut off at [`PUMP_ROUNDS`] while their last round still made
    /// progress.
    pump_cap_hits: u64,
}

/// The most poll rounds one [`HomeNetwork::pump`] runs before giving up on
/// quiescence.
const PUMP_ROUNDS: usize = 16;

impl HomeNetwork {
    /// Builds the home for `model` wired as `topology`, with keys, home
    /// id, population mix and wiring all derived from `seed`. Identical
    /// inputs produce byte-identical homes on any worker.
    pub fn new(model: DeviceModel, topology: Topology, seed: u64) -> Self {
        let clock = SimClock::new();
        let medium = Medium::new(clock.clone(), seed);
        Self::assemble_seeded(model, topology, seed, clock, medium)
    }

    /// Like [`HomeNetwork::new`], but driven by a recycled scheduler
    /// kernel: the event queue of a finished home is rebound to a
    /// fresh clock and reused, so a sweep shard allocates its kernel once
    /// instead of once per home. The simulation is bit-identical either
    /// way — the kernel's event identity (sequence numbers, timer ids)
    /// restarts from zero exactly like a new one's.
    pub fn new_recycled(
        model: DeviceModel,
        topology: Topology,
        seed: u64,
        kernel: &zwave_radio::SimScheduler,
    ) -> Self {
        let clock = SimClock::new();
        let medium = Medium::with_recycled(seed, kernel.recycle(clock.clone()));
        Self::assemble_seeded(model, topology, seed, clock, medium)
    }

    /// A sweep home: the model's factory id perturbed by the home seed, so
    /// a city of homes doesn't share seven ids (kept nonzero), and a
    /// seed-drawn population mix — roughly half the homes also run the
    /// battery-powered S0 motion sensor.
    fn assemble_seeded(
        model: DeviceModel,
        topology: Topology,
        seed: u64,
        clock: SimClock,
        medium: Medium,
    ) -> Self {
        let factory = model.config().home_id.0;
        let derived = factory ^ (seed as u32);
        let home_id = HomeId(if derived == 0 { factory } else { derived });
        let with_sensor = splitmix64(seed ^ 0x7365_6E73) & 1 == 0;
        Self::assemble(model, topology, seed, home_id, with_sensor, clock, medium)
    }

    /// Assembles one home: S2-pairs hub and lock, writes the factory NVM
    /// (lock, switch, repeaters, optional sensor), and attaches every
    /// station to `medium` in fixed order.
    pub(crate) fn assemble(
        model: DeviceModel,
        topology: Topology,
        seed: u64,
        home_id: HomeId,
        with_sensor: bool,
        clock: SimClock,
        medium: Medium,
    ) -> Self {
        let mut config = model.config();
        config.home_id = home_id;
        let mut controller = SimController::new(config, &medium, 0.0);

        // S2 pairing between hub and lock: shared network key,
        // deterministic entropy inputs.
        let network_key = NetworkKey::from_seed(seed ^ u64::from(home_id.0));
        let keys = network_keys(&network_key);
        let mut sei = [0u8; 16];
        sei[..8].copy_from_slice(&seed.to_be_bytes());
        let mut rei = [0u8; 16];
        rei[..8].copy_from_slice(&(seed ^ 0xFFFF_FFFF).to_be_bytes());
        let hub_session = S2Session::initiator(keys.clone(), &sei, &rei);
        let lock_session = S2Session::responder(keys, &sei, &rei);
        controller.pair_s2(LOCK_NODE, hub_session);

        let mut lock_rec = NodeRecord::new(LOCK_NODE, zwave_protocol::nif::BasicDeviceType::Slave);
        lock_rec.generic = 0x40; // entry control
        lock_rec.specific = 0x03; // secure keypad door lock
        lock_rec.listening = false;
        lock_rec.secure = true;
        lock_rec.wakeup_interval_s = Some(3600);
        lock_rec.supported =
            vec![CommandClassId::DOOR_LOCK, CommandClassId::BATTERY, CommandClassId::SECURITY_2];
        controller.nvm_mut().insert(lock_rec);

        let mut switch_rec =
            NodeRecord::new(SWITCH_NODE, zwave_protocol::nif::BasicDeviceType::RoutingSlave);
        switch_rec.generic = 0x10; // binary switch
        switch_rec.specific = 0x01;
        switch_rec.supported = vec![CommandClassId::SWITCH_BINARY, CommandClassId::BASIC];
        controller.nvm_mut().insert(switch_rec);

        let plan = topology.plan(seed);
        for &rep in &plan.repeaters {
            let mut rec = NodeRecord::new(rep, zwave_protocol::nif::BasicDeviceType::RoutingSlave);
            rec.generic = 0x0F; // repeater slave
            rec.listening = true;
            rec.supported = vec![CommandClassId::BASIC];
            controller.nvm_mut().insert(rec);
        }
        let neighbors = plan.neighbor_table();

        let lock = SimDoorLock::new(&medium, 8.0, home_id, LOCK_NODE, lock_session);
        // The switch sits far on routed topologies — past the repeater
        // positions — and near on the flat star.
        let switch_pos = if plan.repeaters.is_empty() { 12.0 } else { 30.0 };
        let mut switch =
            SimSwitch::new(&medium, switch_pos, home_id, SWITCH_NODE, NodeId::CONTROLLER);
        let repeaters: Vec<SimRepeater> = plan
            .repeaters
            .iter()
            .enumerate()
            .map(|(i, &node)| SimRepeater::new(&medium, 16.0 + 4.0 * i as f64, home_id, node))
            .collect();
        switch.set_report_route(neighbors.best_route(SWITCH_NODE, NodeId::CONTROLLER));

        // The optional battery-powered S0 motion sensor: a sleeping-node
        // fourth device.
        let sensor = with_sensor.then(|| {
            let mut rec = NodeRecord::new(SENSOR_NODE, zwave_protocol::nif::BasicDeviceType::Slave);
            rec.generic = 0x20; // binary sensor
            rec.listening = false;
            rec.secure = false; // S0, not S2
            rec.wakeup_interval_s = Some(600);
            rec.supported = vec![
                CommandClassId(0x30),
                CommandClassId::BATTERY,
                CommandClassId::WAKE_UP,
                CommandClassId::SECURITY_0,
            ];
            controller.nvm_mut().insert(rec);
            SimSensor::new(
                &medium,
                15.0,
                home_id,
                SENSOR_NODE,
                NodeId::CONTROLLER,
                controller.s0_key(),
            )
        });
        controller.commit_factory_state();

        HomeNetwork {
            clock,
            medium,
            controller,
            lock,
            switch,
            sensor,
            repeaters,
            neighbors,
            pump_cap_hits: 0,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared radio medium.
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// The controller under test.
    pub fn controller(&self) -> &SimController {
        &self.controller
    }

    /// Mutable access to the controller under test.
    pub fn controller_mut(&mut self) -> &mut SimController {
        &mut self.controller
    }

    /// The door lock slave.
    pub fn lock(&self) -> &SimDoorLock {
        &self.lock
    }

    /// The optional S0 sensor.
    pub fn sensor(&self) -> Option<&SimSensor> {
        self.sensor.as_ref()
    }

    /// Mutable access to the optional sensor.
    pub fn sensor_mut(&mut self) -> Option<&mut SimSensor> {
        self.sensor.as_mut()
    }

    /// The repeater chain an injected frame must traverse to reach the
    /// controller, resolved against the current neighbor table from the
    /// switch's side of the mesh. `None` on flat topologies — which is
    /// exactly why routed-dispatch bugs stay invisible there.
    pub fn route_from_switch(&self) -> Option<Vec<NodeId>> {
        self.neighbors.best_route(SWITCH_NODE, NodeId::CONTROLLER).filter(|route| !route.is_empty())
    }

    /// Attaches an attacker radio at `position_m` metres (10-70 m in the
    /// paper's threat model).
    pub fn attach_attacker(&self, position_m: f64) -> Transceiver {
        self.medium.attach(position_m)
    }

    /// Total distinct APL dispatch edges seen across the controller and
    /// every slave. Per-device edge IDs are disjoint only within a device,
    /// so this sum can overcount shared edges — but it is monotonic and
    /// O(1), which is all the fuzzer's per-packet feedback read needs.
    pub fn station_edge_sum(&self) -> u64 {
        self.controller.coverage().edges()
            + self.lock.coverage().edges()
            + self.switch.coverage().edges()
            + self.sensor.as_ref().map_or(0, |s| s.coverage().edges())
    }

    /// The union of all devices' coverage maps (a fresh merged copy).
    pub fn coverage(&self) -> crate::coverage::CoverageMap {
        let mut map = self.controller.coverage().clone();
        map.merge(self.lock.coverage());
        map.merge(self.switch.coverage());
        if let Some(sensor) = &self.sensor {
            map.merge(sensor.coverage());
        }
        map
    }

    /// How many pumps hit the round cap while their last round still made
    /// progress, possibly leaving traffic for a later pump.
    pub fn pump_cap_hits(&self) -> u64 {
        self.pump_cap_hits
    }

    /// Frames each protocol station's full rx ring has evicted unread, by
    /// node id in station order: controller, lock, switch, the sensor if
    /// present, then the repeaters. The rest of the medium's
    /// `rx_overflows` belongs to stations the home does not own (the
    /// attacker's dongle and sniffers). Kept out of the campaign counters
    /// and reports.
    pub fn station_rx_overflows(&self) -> Vec<(NodeId, u64)> {
        let radios = [&self.controller.radio, &self.lock.radio, &self.switch.radio]
            .into_iter()
            .chain(self.sensor.as_ref().map(|s| &s.radio))
            .chain(self.repeaters.iter().map(|r| &r.radio));
        radios.map(|radio| (radio.node_id(), radio.rx_overflows())).collect()
    }

    /// Lets every station process pending traffic, event-driven: each
    /// round routes fired scheduler wakeups to their owners, then polls —
    /// in fixed station order — only the stations with pending frames or
    /// fired timers, until the network quiesces (bounded to keep
    /// adversarial impairment schedules from spinning forever; each pump
    /// the bound cuts short counts in [`HomeNetwork::pump_cap_hits`]).
    pub fn pump(&mut self) {
        for _ in 0..PUMP_ROUNDS {
            let fired = self.medium.take_fired_actors();
            let mut progressed = false;
            if self.controller.radio.is_due(&fired) {
                self.controller.poll();
                progressed = true;
            }
            if self.lock.radio.is_due(&fired) {
                self.lock.poll();
                progressed = true;
            }
            if self.switch.radio.is_due(&fired) {
                self.switch.poll();
                progressed = true;
            }
            for repeater in &mut self.repeaters {
                if repeater.radio.is_due(&fired) {
                    repeater.poll();
                    progressed = true;
                }
            }
            if let Some(sensor) = &mut self.sensor {
                // A sleeping sensor reads nothing: frames still reach its
                // ring, where `wake` discards them unread, so pending
                // traffic alone is not progress it can make.
                if !sensor.is_sleeping() && sensor.radio.is_due(&fired) {
                    sensor.poll();
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
        self.pump_cap_hits += 1;
    }

    /// One round of normal network traffic (the exchanges ZCover's passive
    /// scanner captures): the hub polls the lock over S2, the switch
    /// reports in the clear — through a freshly-resolved route when it
    /// sits behind repeaters, aging the links it uses — and the sensor
    /// (when present) completes a wake cycle.
    pub fn exchange_normal_traffic(&mut self) {
        self.controller.query_door_lock(LOCK_NODE);
        self.pump();
        let route = self.route_from_switch();
        if let Some(r) = &route {
            self.neighbors.note_use(SWITCH_NODE, r, NodeId::CONTROLLER);
        }
        self.switch.set_report_route(route);
        self.switch.report_to_controller();
        self.pump();
        if let Some(sensor) = &mut self.sensor {
            sensor.wake();
            self.pump();
            self.pump();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_homes_have_no_repeaters_or_injection_route() {
        let home = HomeNetwork::new(DeviceModel::D1, Topology::Star, 5);
        assert!(home.repeaters.is_empty());
        assert_eq!(home.route_from_switch(), None);
    }

    #[test]
    fn routed_topologies_expose_an_injection_route() {
        for topology in [Topology::Line, Topology::Mesh] {
            for seed in 0..8u64 {
                let home = HomeNetwork::new(DeviceModel::D1, topology, seed);
                let route = home
                    .route_from_switch()
                    .unwrap_or_else(|| panic!("{topology} seed {seed}: no injection route"));
                assert!((1..=4).contains(&route.len()), "{topology} seed {seed}");
            }
        }
    }

    #[test]
    fn normal_traffic_traverses_the_mesh_end_to_end() {
        let mut home = HomeNetwork::new(DeviceModel::D1, Topology::Line, 3);
        let before: u64 = home.repeaters.iter().map(|r| r.frames_forwarded()).sum();
        home.exchange_normal_traffic();
        let after: u64 = home.repeaters.iter().map(|r| r.frames_forwarded()).sum();
        assert!(after > before, "repeaters relayed the routed switch report");
        assert!(
            home.switch.routed_acks_received() > 0,
            "the routed ack made it back to the switch"
        );
    }

    #[test]
    fn route_use_ages_the_links_it_crossed() {
        let mut home = HomeNetwork::new(DeviceModel::D1, Topology::Line, 3);
        // The switch-side first hop of the route is the link normal
        // traffic must age.
        let first = home.route_from_switch().unwrap()[0];
        let fresh_before = home.neighbors.freshness(SWITCH_NODE, first);
        home.exchange_normal_traffic();
        let fresh_after = home.neighbors.freshness(SWITCH_NODE, first);
        assert!(fresh_after < fresh_before, "link to {first:?} did not age");
    }

    #[test]
    fn per_station_rx_overflows_sum_to_the_medium_total() {
        let seed = (0..64u64)
            .find(|&seed| {
                HomeNetwork::new(DeviceModel::D1, Topology::Mesh, seed).sensor().is_some()
            })
            .expect("some mesh home has a sensor");
        let mut home = HomeNetwork::new(DeviceModel::D1, Topology::Mesh, seed);
        let idle = home.attach_attacker(70.0);
        while idle.rx_overflows() == 0 {
            home.exchange_normal_traffic();
        }
        let protocol: u64 = home.station_rx_overflows().iter().map(|&(_, n)| n).sum();
        assert_eq!(protocol + idle.rx_overflows(), home.medium().stats().rx_overflows);
    }

    #[test]
    fn homes_are_deterministic_per_seed() {
        let a = HomeNetwork::new(DeviceModel::D3, Topology::Mesh, 11);
        let b = HomeNetwork::new(DeviceModel::D3, Topology::Mesh, 11);
        assert_eq!(a.controller().home_id(), b.controller().home_id());
        assert_eq!(a.sensor().is_some(), b.sensor().is_some());
        assert_eq!(a.route_from_switch(), b.route_from_switch());
        assert_eq!(a.repeaters.len(), b.repeaters.len());
    }

    #[test]
    fn population_mix_varies_with_the_seed() {
        let populations: Vec<bool> = (0..16u64)
            .map(|seed| HomeNetwork::new(DeviceModel::D1, Topology::Star, seed).sensor().is_some())
            .collect();
        assert!(populations.iter().any(|&p| p));
        assert!(populations.iter().any(|&p| !p));
    }
}
