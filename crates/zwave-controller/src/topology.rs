//! Home topologies for the sharded city-scale world.
//!
//! A [`Topology`] decides how one simulated home is wired: where the
//! repeaters sit and which node pairs are direct RF neighbors. Plans are
//! pure functions of `(topology, seed)`, so two workers building the same
//! home always produce byte-identical networks.

use zwave_protocol::NodeId;
use zwave_radio::splitmix64;

use crate::neighbors::NeighborTable;
use crate::testbed::{LOCK_NODE, SENSOR_NODE, SWITCH_NODE};

/// First repeater node id (0x05 is reserved for the scenario ghost node).
pub const FIRST_REPEATER: u8 = 0x06;

/// How a home's nodes are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Every slave is a direct neighbor of the controller, with no
    /// repeaters: the paper's flat single-hop testbed. `Testbed::new` is
    /// a star home that keeps the model's factory home id.
    Star,
    /// The switch sits behind a chain of 1–4 repeaters; every routed
    /// frame traverses the whole chain.
    Line,
    /// 2–4 repeaters with seed-derived redundant chords: several routes
    /// exist, so decayed links divert traffic instead of killing it.
    Mesh,
}

impl Topology {
    /// All topologies, in CLI order.
    pub fn all() -> [Topology; 3] {
        [Topology::Star, Topology::Line, Topology::Mesh]
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Star => "star",
            Topology::Line => "line",
            Topology::Mesh => "mesh",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Topology> {
        match s {
            "star" => Some(Topology::Star),
            "line" => Some(Topology::Line),
            "mesh" => Some(Topology::Mesh),
            _ => None,
        }
    }

    /// Builds the deterministic wiring plan for one home.
    pub fn plan(self, seed: u64) -> TopologyPlan {
        let ctrl = NodeId::CONTROLLER;
        match self {
            Topology::Star => TopologyPlan {
                repeaters: Vec::new(),
                links: vec![(ctrl, LOCK_NODE), (ctrl, SWITCH_NODE), (ctrl, SENSOR_NODE)],
            },
            Topology::Line => {
                let count = 1 + (splitmix64(seed ^ 0x6C69_6E65) % 4) as usize;
                let repeaters: Vec<NodeId> =
                    (0..count).map(|i| NodeId(FIRST_REPEATER + i as u8)).collect();
                let mut links = vec![(ctrl, LOCK_NODE), (ctrl, SENSOR_NODE)];
                let mut prev = ctrl;
                for &rep in &repeaters {
                    links.push((prev, rep));
                    prev = rep;
                }
                links.push((prev, SWITCH_NODE));
                TopologyPlan { repeaters, links }
            }
            Topology::Mesh => {
                let count = 2 + (splitmix64(seed ^ 0x6D65_7368) % 3) as usize;
                let repeaters: Vec<NodeId> =
                    (0..count).map(|i| NodeId(FIRST_REPEATER + i as u8)).collect();
                // Backbone: the line plan's chain, guaranteeing
                // connectivity whatever the chord bits say.
                let mut links = vec![(ctrl, LOCK_NODE), (ctrl, SENSOR_NODE)];
                let mut prev = ctrl;
                for &rep in &repeaters {
                    links.push((prev, rep));
                    prev = rep;
                }
                links.push((prev, SWITCH_NODE));
                // Seed-derived chords between non-adjacent pairs give the
                // mesh its redundant routes.
                let mut bits = splitmix64(seed ^ 0x6368_6F72);
                for i in 0..count {
                    for j in (i + 2)..count {
                        if bits & 1 != 0 {
                            links.push((repeaters[i], repeaters[j]));
                        }
                        bits >>= 1;
                    }
                }
                if count >= 2 {
                    // A second exit for the switch through the next-to-last
                    // repeater: the alternative route decay diverts onto.
                    links.push((repeaters[count - 2], SWITCH_NODE));
                    if bits & 1 != 0 {
                        links.push((LOCK_NODE, repeaters[0]));
                    }
                }
                TopologyPlan { repeaters, links }
            }
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The wiring plan [`Topology::plan`] produces for one home.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyPlan {
    /// Repeater node ids, ascending from [`FIRST_REPEATER`].
    pub repeaters: Vec<NodeId>,
    /// Direct-neighbor pairs (symmetric; deduplication is the neighbor
    /// table's business).
    pub links: Vec<(NodeId, NodeId)>,
}

impl TopologyPlan {
    /// Materializes the plan as a fresh neighbor table.
    pub fn neighbor_table(&self) -> NeighborTable {
        let mut table = NeighborTable::new();
        for &(a, b) in &self.links {
            table.add_link(a, b);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_has_no_repeaters_and_direct_links_only() {
        let plan = Topology::Star.plan(7);
        assert!(plan.repeaters.is_empty());
        let table = plan.neighbor_table();
        assert_eq!(table.best_route(NodeId::CONTROLLER, SWITCH_NODE), Some(vec![]));
    }

    #[test]
    fn line_routes_the_switch_through_every_repeater() {
        for seed in 0..32u64 {
            let plan = Topology::Line.plan(seed);
            assert!((1..=4).contains(&plan.repeaters.len()), "seed {seed}");
            let table = plan.neighbor_table();
            let route = table.best_route(NodeId::CONTROLLER, SWITCH_NODE).unwrap();
            assert_eq!(route, plan.repeaters, "seed {seed}: the chain is the only route");
        }
    }

    #[test]
    fn mesh_always_connects_the_switch_within_budget() {
        for seed in 0..64u64 {
            let plan = Topology::Mesh.plan(seed);
            assert!((2..=4).contains(&plan.repeaters.len()), "seed {seed}");
            let table = plan.neighbor_table();
            let route = table.best_route(NodeId::CONTROLLER, SWITCH_NODE);
            assert!(route.is_some(), "seed {seed}: switch unreachable");
        }
    }

    #[test]
    fn plans_are_deterministic() {
        for topology in Topology::all() {
            assert_eq!(topology.plan(42), topology.plan(42), "{topology}");
        }
    }

    #[test]
    fn names_round_trip() {
        for topology in Topology::all() {
            assert_eq!(Topology::parse(topology.name()), Some(topology));
        }
        assert_eq!(Topology::parse("ring"), None);
    }
}
