//! Deterministic neighbor tables with route decay.
//!
//! Every Z-Wave node keeps a table of directly-reachable neighbors; the
//! controller resolves multi-hop routes (at most [`MAX_REPEATERS`]
//! intermediates, per G.9959) against it. Real tables go stale — links
//! weaken as homes rearrange — which this model captures with a per-link
//! freshness budget: each routed use ages the links it crossed, a link at
//! zero freshness is dead, and the next resolution deterministically
//! picks the best remaining alternative. Everything here is a pure
//! function of the table contents: adjacency lives in a `BTreeMap`,
//! neighbors iterate in node-id order, and breadth-first search therefore
//! returns the lexicographically-smallest shortest route — the property
//! the sweep's bit-identical-across-workers guarantee leans on.

use std::collections::{BTreeMap, VecDeque};

use zwave_protocol::routing::MAX_REPEATERS;
use zwave_protocol::NodeId;

/// Routed uses a fresh link survives before going stale.
pub const DEFAULT_LINK_FRESHNESS: u32 = 48;

/// Symmetric adjacency with per-link freshness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NeighborTable {
    /// Canonical `(low, high)` node pair → remaining freshness. A dead
    /// link stays in the map at zero so decay accounting is monotone.
    links: BTreeMap<(NodeId, NodeId), u32>,
}

impl NeighborTable {
    /// An empty table.
    pub fn new() -> Self {
        NeighborTable::default()
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records a symmetric link with the default freshness budget.
    /// Re-adding an existing link refreshes it (neighbor rediscovery).
    pub fn add_link(&mut self, a: NodeId, b: NodeId) {
        self.add_link_with_freshness(a, b, DEFAULT_LINK_FRESHNESS);
    }

    /// Records a symmetric link with an explicit freshness budget.
    pub(crate) fn add_link_with_freshness(&mut self, a: NodeId, b: NodeId, freshness: u32) {
        self.links.insert(Self::key(a, b), freshness);
    }

    /// Remaining freshness of a link (0 for dead or unknown links).
    pub fn freshness(&self, a: NodeId, b: NodeId) -> u32 {
        self.links.get(&Self::key(a, b)).copied().unwrap_or(0)
    }

    /// Whether the link exists and still has freshness left.
    pub fn link_alive(&self, a: NodeId, b: NodeId) -> bool {
        self.freshness(a, b) > 0
    }

    /// Live neighbors of `node`, in ascending node-id order.
    pub(crate) fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .links
            .iter()
            .filter(|(_, &fresh)| fresh > 0)
            .filter_map(|(&(a, b), _)| {
                if a == node {
                    Some(b)
                } else if b == node {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort();
        out
    }

    /// Ages one link by `amount` (saturating at zero — dead is dead).
    /// Saturating subtraction commutes, so any interleaving of decays
    /// yields the same table.
    pub fn decay(&mut self, a: NodeId, b: NodeId, amount: u32) {
        if let Some(fresh) = self.links.get_mut(&Self::key(a, b)) {
            *fresh = fresh.saturating_sub(amount);
        }
    }

    /// Ages every link along a used route by one: `src → repeaters → dst`.
    pub fn note_use(&mut self, src: NodeId, route: &[NodeId], dst: NodeId) {
        let mut prev = src;
        for &hop in route.iter().chain(std::iter::once(&dst)) {
            self.decay(prev, hop, 1);
            prev = hop;
        }
    }

    /// The best live route from `src` to `dst`: the lexicographically
    /// smallest shortest path, as the repeater list to put in a
    /// [`zwave_protocol::RoutingHeader`]. `Some(vec![])` means the nodes
    /// are direct neighbors (a plain singlecast suffices); `None` means
    /// no route within [`MAX_REPEATERS`] intermediates survives.
    pub fn best_route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut depth: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut queue = VecDeque::new();
        depth.insert(src, 0);
        queue.push_back(src);
        while let Some(node) = queue.pop_front() {
            let d = depth[&node];
            for next in self.neighbors(node) {
                if depth.contains_key(&next) {
                    continue;
                }
                depth.insert(next, d + 1);
                parent.insert(next, node);
                if next == dst {
                    let mut route = Vec::new();
                    let mut cur = node;
                    while cur != src {
                        route.push(cur);
                        cur = parent[&cur];
                    }
                    route.reverse();
                    return Some(route);
                }
                // Non-destination nodes found MAX_REPEATERS hops out
                // cannot serve as further intermediates.
                if d < MAX_REPEATERS {
                    queue.push_back(next);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u8) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn direct_neighbors_route_with_no_repeaters() {
        let mut t = NeighborTable::new();
        t.add_link(n(1), n(3));
        assert_eq!(t.best_route(n(1), n(3)), Some(vec![]));
        assert_eq!(t.best_route(n(3), n(1)), Some(vec![]));
    }

    #[test]
    fn line_routes_through_every_repeater() {
        let mut t = NeighborTable::new();
        t.add_link(n(1), n(6));
        t.add_link(n(6), n(7));
        t.add_link(n(7), n(3));
        assert_eq!(t.best_route(n(1), n(3)), Some(vec![n(6), n(7)]));
        assert_eq!(t.best_route(n(3), n(1)), Some(vec![n(7), n(6)]));
    }

    #[test]
    fn routes_never_exceed_the_repeater_budget() {
        // A 6-hop chain: 1-6-7-8-9-10-3 needs five intermediates.
        let mut t = NeighborTable::new();
        for (a, b) in [(1u8, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 3)] {
            t.add_link(n(a), n(b));
        }
        assert_eq!(t.best_route(n(1), n(3)), None);
        // Adding a shortcut within budget resolves it.
        t.add_link(n(7), n(3));
        assert_eq!(t.best_route(n(1), n(3)), Some(vec![n(6), n(7)]));
    }

    #[test]
    fn ties_break_toward_the_smallest_node_ids() {
        let mut t = NeighborTable::new();
        // Two equal-length routes: via 6 and via 7.
        for (a, b) in [(1u8, 6), (6, 3), (1, 7), (7, 3)] {
            t.add_link(n(a), n(b));
        }
        assert_eq!(t.best_route(n(1), n(3)), Some(vec![n(6)]));
    }

    #[test]
    fn decayed_links_divert_to_the_alternative() {
        let mut t = NeighborTable::new();
        for (a, b) in [(1u8, 6), (6, 3), (1, 7), (7, 3)] {
            t.add_link(n(a), n(b));
        }
        let route = t.best_route(n(1), n(3)).unwrap();
        assert_eq!(route, vec![n(6)]);
        // Use the preferred route until its links die.
        for _ in 0..DEFAULT_LINK_FRESHNESS {
            t.note_use(n(1), &route, n(3));
        }
        assert!(!t.link_alive(n(1), n(6)));
        assert_eq!(t.best_route(n(1), n(3)), Some(vec![n(7)]));
        // Rediscovery revives the dead link and the old preference.
        t.add_link(n(1), n(6));
        t.add_link(n(6), n(3));
        assert_eq!(t.best_route(n(1), n(3)), Some(vec![n(6)]));
    }

    #[test]
    fn unknown_nodes_have_no_route() {
        let t = NeighborTable::new();
        assert_eq!(t.best_route(n(1), n(3)), None);
    }
}
