//! APL dispatch-edge coverage for coverage-guided fuzzing.
//!
//! Real controllers are black boxes, but the simulated ones can be
//! instrumented for free: every time a payload crosses an APL dispatch
//! point — in `SimController::dispatch` or in a slave device's
//! handler — the `(command class, command, dispatch state)` triple is
//! recorded as one bit in a fixed-size [`CoverageMap`]. The fuzzer reads
//! the monotonic edge count after each injected packet; a packet that
//! lights a new bit is "interesting" and worth keeping in the corpus.
//!
//! Edge IDs are a pure function of the triple (no hashing, no collisions,
//! no process-dependent state), so maps from independent trials merge
//! order-independently and campaigns stay bit-identical across worker
//! counts — the same invariant the PR 1 executor pins for counters.

/// Dispatch states distinguishing *where* in the APL a payload landed.
/// Two packets with the same class/command bytes exercise different code
/// when one is rejected as unimplemented and the other reaches a handler.
pub mod state {
    /// Command class not in the controller's implemented set.
    pub(crate) const IGNORED: u8 = 0;
    /// Handled by a legitimate plaintext handler.
    pub(crate) const PLAIN: u8 = 1;
    /// Handled after S0/S2 decapsulation (the `encrypted` dispatch flag).
    pub(crate) const ENCRYPTED: u8 = 2;
    /// Matched a seeded Table III vulnerability check.
    pub(crate) const VULN: u8 = 3;
    /// Matched a vulnerability check on patched firmware (rejected).
    pub(crate) const PATCHED: u8 = 4;
    /// Handled by a slave device model rather than the controller.
    pub(crate) const DEVICE: u8 = 5;
    /// Outer frame of an encapsulation (S0/S2/CRC-16/Supervision) that
    /// was unwrapped and re-dispatched.
    pub(crate) const ENCAP: u8 = 6;
    /// Matched an attack-scenario predicate (bugs #16-#18: offline-node
    /// nonce answers, inclusion downgrade, unauthorized key reset).
    pub(crate) const ATTACK: u8 = 7;
    /// Capacity (power of two so the bitmap stays word-aligned).
    pub const COUNT: u8 = 8;
}

/// Bits per dispatch state: 256 classes × 256 commands.
const PLANE: usize = 1 << 16;
/// Total bitmap words: 8 states × 65536 bits / 64 bits per word.
const WORDS: usize = (state::COUNT as usize) * PLANE / 64;

/// A compact bitmap of APL dispatch edges with deterministic edge IDs.
///
/// `merge` is bitwise OR, which makes it commutative, associative, and
/// idempotent by construction — the properties `coverage_props.rs` pins.
#[derive(Clone, PartialEq, Eq)]
pub struct CoverageMap {
    bits: Vec<u64>,
    edges: u64,
}

impl Default for CoverageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl CoverageMap {
    /// An empty map (64 KiB of zeroed bitmap).
    pub fn new() -> Self {
        Self { bits: vec![0u64; WORDS], edges: 0 }
    }

    /// The stable ID of a dispatch edge: `state << 16 | class << 8 | cmd`.
    pub fn edge_id(cc: u8, cmd: u8, state: u8) -> u32 {
        debug_assert!(state < state::COUNT);
        ((state as u32) << 16) | ((cc as u32) << 8) | (cmd as u32)
    }

    /// Records one dispatch edge; returns `true` iff the bit was new.
    pub fn record(&mut self, cc: u8, cmd: u8, state: u8) -> bool {
        self.insert(Self::edge_id(cc, cmd, state))
    }

    /// Inserts an edge by ID; returns `true` iff the bit was new.
    pub(crate) fn insert(&mut self, edge: u32) -> bool {
        let bit = edge as usize;
        debug_assert!(bit < WORDS * 64, "edge id out of range: {edge:#x}");
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let new = self.bits[word] & mask == 0;
        if new {
            self.bits[word] |= mask;
            self.edges += 1;
        }
        new
    }

    /// Whether an edge has been recorded.
    pub fn contains(&self, edge: u32) -> bool {
        let bit = edge as usize;
        bit < WORDS * 64 && self.bits[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Monotonic count of distinct edges seen (O(1) — the fuzzer reads
    /// this after every injected packet).
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// ORs another map into this one.
    pub fn merge(&mut self, other: &CoverageMap) {
        let mut edges = 0u64;
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
            edges += w.count_ones() as u64;
        }
        self.edges = edges;
    }
}

impl std::fmt::Debug for CoverageMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoverageMap").field("edges", &self.edges).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_distinct_edges_once() {
        let mut m = CoverageMap::new();
        assert!(m.record(0x25, 0x01, state::PLAIN));
        assert!(!m.record(0x25, 0x01, state::PLAIN));
        assert!(m.record(0x25, 0x01, state::ENCRYPTED));
        assert_eq!(m.edges(), 2);
    }

    #[test]
    fn merge_is_a_bitwise_union() {
        let mut a = CoverageMap::new();
        a.record(0x20, 0x01, state::PLAIN);
        let mut b = CoverageMap::new();
        b.record(0x20, 0x01, state::PLAIN);
        b.record(0x20, 0x02, state::PLAIN);
        a.merge(&b);
        assert_eq!(a.edges(), 2);
        assert_eq!(a, b);
    }
}
