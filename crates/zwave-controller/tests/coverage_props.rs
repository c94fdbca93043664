//! Property-based tests for the APL dispatch-edge coverage map: merge
//! must form a semilattice (commutative, associative, idempotent), edge
//! ids must be stable and collision-free, and the sparse edge-id
//! serialization must round-trip exactly.

use std::collections::BTreeSet;

use proptest::prelude::*;

use zwave_controller::coverage::{state, CoverageMap};

/// A dispatch edge: (command class, command, dispatch state).
fn arb_edge() -> impl Strategy<Value = (u8, u8, u8)> {
    (any::<u8>(), any::<u8>(), 0u8..state::COUNT)
}

fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec(arb_edge(), 0..=64)
}

fn map_of(edges: &[(u8, u8, u8)]) -> CoverageMap {
    let mut map = CoverageMap::new();
    for &(cc, cmd, st) in edges {
        map.record(cc, cmd, st);
    }
    map
}

fn merged(a: &CoverageMap, b: &CoverageMap) -> CoverageMap {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge is commutative: a ∪ b == b ∪ a, bit for bit.
    #[test]
    fn merge_is_commutative(a in arb_edges(), b in arb_edges()) {
        let (ma, mb) = (map_of(&a), map_of(&b));
        prop_assert_eq!(merged(&ma, &mb), merged(&mb, &ma));
    }

    /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(a in arb_edges(), b in arb_edges(), c in arb_edges()) {
        let (ma, mb, mc) = (map_of(&a), map_of(&b), map_of(&c));
        prop_assert_eq!(merged(&merged(&ma, &mb), &mc), merged(&ma, &merged(&mb, &mc)));
    }

    /// Merge is idempotent: a ∪ a == a, and merging in any subset of a's
    /// edges changes nothing.
    #[test]
    fn merge_is_idempotent(a in arb_edges()) {
        let ma = map_of(&a);
        prop_assert_eq!(merged(&ma, &ma), ma.clone());
        let half = map_of(&a[..a.len() / 2]);
        prop_assert_eq!(merged(&ma, &half), ma);
    }

    /// Edge ids are a stable, collision-free function of the
    /// (command class, command, state) triple: distinct triples get
    /// distinct ids, and the map counts exactly the distinct triples.
    #[test]
    fn edge_ids_are_stable_and_collision_free(edges in arb_edges()) {
        let distinct_triples: BTreeSet<(u8, u8, u8)> = edges.iter().copied().collect();
        let distinct_ids: BTreeSet<u32> = edges
            .iter()
            .map(|&(cc, cmd, st)| CoverageMap::edge_id(cc, cmd, st))
            .collect();
        prop_assert_eq!(distinct_ids.len(), distinct_triples.len());

        let map = map_of(&edges);
        prop_assert_eq!(map.edges(), distinct_triples.len() as u64);
        for &(cc, cmd, st) in &edges {
            // Recomputing the id finds the recorded edge (stability).
            prop_assert!(map.contains(CoverageMap::edge_id(cc, cmd, st)));
        }
    }

    /// Recording an edge is reported as new exactly once.
    #[test]
    fn record_reports_novelty_exactly_once(edges in arb_edges()) {
        let mut map = CoverageMap::new();
        let mut seen = BTreeSet::new();
        for (cc, cmd, st) in edges {
            prop_assert_eq!(map.record(cc, cmd, st), seen.insert((cc, cmd, st)));
        }
    }
}
