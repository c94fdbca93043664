//! Phase 3 — position-sensitive mutation (Section III-D, Table I,
//! Figure 6).
//!
//! The mutator operates on the application-layer hierarchy only: position
//! 0 (CMDCL) is fixed per fuzzing window, position 1 (CMD) and positions
//! 2+ (PARAMs) are mutated with the Table I operator set — `rand valid`,
//! `rand invalid`, `arith`, `interesting`, `insert` — informed by the
//! specification's per-parameter value ranges (dynamic/semantic mutation)
//! and by boundary testing.
//!
//! The VFuzz baseline's MAC-field operators (Section IV-C) live here too,
//! so every engine draws from one seeded RNG.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use zwave_protocol::apl::{ApplicationPayload, FieldPosition};
use zwave_protocol::registry::{CommandClassSpec, Registry};
use zwave_protocol::{CommandClassId, NodeId};
use zwave_radio::FrameBuf;

/// The "interesting" byte values of Table I's `interesting` operator:
/// extremes, off-by-one neighbours and sign boundaries.
pub(crate) const INTERESTING_BYTES: [u8; 8] = [0x00, 0x01, 0x02, 0x7F, 0x80, 0xFE, 0xFF, 0x20];

/// The Table I mutation operators applicable to CMD and PARAM positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationOp {
    /// Replace with a randomly selected legal value (spec-informed).
    RandValid,
    /// Replace with a randomly selected illegal value.
    RandInvalid,
    /// Add or subtract a small integer.
    Arith,
    /// Replace with an interesting value.
    Interesting,
    /// Append a random byte.
    Insert,
}

impl MutationOp {
    /// All operators, in Table I order.
    pub fn all() -> [MutationOp; 5] {
        [
            MutationOp::RandValid,
            MutationOp::RandInvalid,
            MutationOp::Arith,
            MutationOp::Interesting,
            MutationOp::Insert,
        ]
    }
}

/// How many MAC-field operations VFuzz stacks on one test frame (1..=n).
const MAC_OPS_PER_FRAME: u32 = 3;

/// The position-sensitive mutator.
#[derive(Debug)]
pub struct Mutator {
    rng: StdRng,
    /// Node ids learned by fingerprinting: the semantic value pool
    /// (Section III-D1's "contextually relevant and meaningful" values).
    semantic_nodes: Vec<u8>,
}

impl Mutator {
    /// Creates a mutator with a deterministic seed and the node ids the
    /// scanners discovered.
    pub fn new(seed: u64, semantic_nodes: Vec<u8>) -> Self {
        Mutator { rng: StdRng::seed_from_u64(seed), semantic_nodes }
    }

    /// Algorithm 1 line 8: the initial semi-valid payload for a
    /// (CMDCL, CMD) pair — `[cc, cmd, 0x00]`.
    pub(crate) fn seed_payload(&self, cc: CommandClassId, cmd: u8) -> ApplicationPayload {
        ApplicationPayload::new(cc, cmd, vec![0x00])
    }

    /// The deterministic exploration plans for one (CMDCL, CMD) pair:
    /// semantic and boundary parameter vectors tried before random
    /// mutation takes over. For classes in the public specification the
    /// plans are derived from the per-parameter value specs; for unknown
    /// (proprietary) classes they fall back to the semantic node pool and
    /// the interesting-value set.
    pub fn exploration_plans(&self, cc: CommandClassId, cmd: u8) -> Vec<Vec<u8>> {
        let mut plans: Vec<Vec<u8>> = Vec::new();
        if let Some(spec) = Registry::global().get(cc) {
            if let Some(cmd_spec) = spec.command(cmd) {
                // Semi-valid baseline: every parameter at its default.
                let defaults: Vec<u8> = cmd_spec.params.iter().map(|p| p.default_valid()).collect();
                plans.push(defaults.clone());
                // Boundary testing: each parameter swept through its
                // boundary values while the others stay valid.
                for (i, p) in cmd_spec.params.iter().enumerate() {
                    for b in p.boundary_values() {
                        let mut v = defaults.clone();
                        v[i] = b;
                        plans.push(v);
                    }
                }
                // Truncation and extension probe the length checks.
                if !defaults.is_empty() {
                    plans.push(defaults[..defaults.len() - 1].to_vec());
                }
                let mut extended = defaults;
                extended.push(0x00);
                plans.push(extended);
            }
        }
        if plans.is_empty() {
            // Unknown class: semantic node-id plans plus interesting shapes.
            plans.push(vec![0x00]);
            // Non-destructive shapes first: probing a node with appended
            // capability bytes precedes the bare (truncated) form, so a
            // removal-style reaction cannot mask the others.
            for &node in &self.semantic_nodes {
                plans.push(vec![node, 0x00]);
                plans.push(vec![node, 0x04]);
                plans.push(vec![node]);
            }
            plans.push(vec![0xFF]);
            plans.push(vec![0x0A, 0x01]);
            plans.push(vec![0x1D]);
            plans.push(vec![0x00, 0x00, 0x00, 0x00, 0x00]);
        }
        // Bound the per-command plan budget so wide commands cannot eat a
        // whole CMDCL window.
        plans.truncate(24);
        plans.dedup();
        plans
    }

    /// Applies one position-sensitive mutation to `payload` (positions 1+
    /// only: the CMDCL under test stays fixed, per Table I's "rand valid"
    /// restriction at position 0 being handled by the queue itself).
    pub fn mutate(&mut self, payload: &mut ApplicationPayload, spec: Option<&CommandClassSpec>) {
        // Position choice: CMD 25 %, parameters 75 %.
        let n_params = payload.params().len();
        let pos = if self.rng.gen_bool(0.25) || n_params == 0 {
            FieldPosition::Command
        } else {
            FieldPosition::Param(self.rng.gen_range(0..=n_params.min(10)))
        };
        let op = *MutationOp::all().choose(&mut self.rng).expect("non-empty");
        self.apply(payload, pos, op, spec);
    }

    /// Applies a specific operator at a specific position.
    pub fn apply(
        &mut self,
        payload: &mut ApplicationPayload,
        pos: FieldPosition,
        op: MutationOp,
        spec: Option<&CommandClassSpec>,
    ) {
        let current = payload.field(pos).unwrap_or(0);
        let value = match op {
            MutationOp::RandValid => self.rand_valid(payload, pos, spec),
            MutationOp::RandInvalid => self.rand_invalid(payload, pos, spec),
            MutationOp::Arith => {
                // Command ids are categorical: the meaningful arithmetic
                // probe is the *adjacent* id. Parameters are numeric and
                // get a slightly wider delta.
                let delta = match pos {
                    FieldPosition::Command => self.rng.gen_range(1..=2u8),
                    _ => self.rng.gen_range(1..=4u8),
                };
                if self.rng.gen_bool(0.5) {
                    current.wrapping_add(delta)
                } else {
                    current.wrapping_sub(delta)
                }
            }
            MutationOp::Interesting => {
                let mut pool: Vec<u8> = INTERESTING_BYTES.to_vec();
                pool.extend_from_slice(&self.semantic_nodes);
                *pool.choose(&mut self.rng).expect("non-empty")
            }
            MutationOp::Insert => {
                let appended: u8 = self.rng.gen();
                payload.params_mut().push(appended);
                return;
            }
        };
        if !payload.set_field(pos, value) {
            // Out-of-range parameter slot: fall back to appending.
            payload.params_mut().push(value);
        }
    }

    fn rand_valid(
        &mut self,
        payload: &ApplicationPayload,
        pos: FieldPosition,
        spec: Option<&CommandClassSpec>,
    ) -> u8 {
        match (pos, spec) {
            (FieldPosition::Command, Some(s)) if !s.commands.is_empty() => {
                s.commands.choose(&mut self.rng).expect("non-empty").id
            }
            (FieldPosition::Param(i), Some(s)) => {
                let param_spec =
                    payload.command().and_then(|cmd| s.command(cmd)).and_then(|c| c.params.get(i));
                match param_spec {
                    Some(p) => {
                        let values = p.valid_values();
                        *values.choose(&mut self.rng).unwrap_or(&0)
                    }
                    None => self.rng.gen_range(0..=0x20),
                }
            }
            // Unknown class: plausible small command ids / parameter bytes.
            (FieldPosition::Command, _) => self.rng.gen_range(0..=0x1F),
            _ => {
                let mut pool: Vec<u8> = vec![0x00, 0x01, 0xFF];
                pool.extend_from_slice(&self.semantic_nodes);
                *pool.choose(&mut self.rng).expect("non-empty")
            }
        }
    }

    fn rand_invalid(
        &mut self,
        payload: &ApplicationPayload,
        pos: FieldPosition,
        spec: Option<&CommandClassSpec>,
    ) -> u8 {
        match (pos, spec) {
            // Position sensitivity applies to illegal values too: command
            // ids live in a small neighbourhood of the defined set, so an
            // "illegal command" probe stays near it instead of spraying
            // the whole byte space (this is what keeps ZCover's CMD
            // coverage around the 53 values Table V reports, against
            // VFuzz's indiscriminate 256).
            (FieldPosition::Command, Some(s)) => {
                let max = s.commands.iter().map(|c| c.id).max().unwrap_or(0);
                let bound = max.saturating_add(3);
                loop {
                    let v: u8 = self.rng.gen_range(0..=bound);
                    if s.command(v).is_none() {
                        break v;
                    }
                }
            }
            (FieldPosition::Command, None) => self.rng.gen_range(0..=0x17),
            (FieldPosition::Param(i), Some(s)) => {
                let param_spec =
                    payload.command().and_then(|cmd| s.command(cmd)).and_then(|c| c.params.get(i));
                match param_spec {
                    Some(p) => {
                        let invalid = p.invalid_values();
                        invalid.choose(&mut self.rng).copied().unwrap_or_else(|| self.rng.gen())
                    }
                    None => self.rng.gen(),
                }
            }
            _ => self.rng.gen_range(0x30..=0xFF),
        }
    }

    /// Purely random payload generation — the γ ablation configuration
    /// ("Random CMDCLs + no position-sensitive mutation", Table VI).
    pub fn random_payload(&mut self) -> ApplicationPayload {
        let cc = CommandClassId(self.rng.gen());
        let cmd: u8 = self.rng.gen();
        let len = self.rng.gen_range(0..=6);
        let params: Vec<u8> = (0..len).map(|_| self.rng.gen()).collect();
        ApplicationPayload::new(cc, cmd, params)
    }

    /// One VFuzz test frame (Nkuba et al., IEEE Access 2022): a random
    /// captured frame — `fallback` when nothing was captured — with 1..=3
    /// MAC-field operations stacked on it. No
    /// application-layer awareness: the checksum is not repaired, so most
    /// mutants die at MAC validation.
    pub(crate) fn mac_mutant(&mut self, corpus: &[FrameBuf], fallback: &[u8]) -> Vec<u8> {
        let mut frame = corpus.choose(&mut self.rng).map_or(fallback, |f| f.as_slice()).to_vec();
        for _ in 0..self.rng.gen_range(1..=MAC_OPS_PER_FRAME) {
            self.apply_mac_op(&mut frame);
        }
        frame
    }

    fn apply_mac_op(&mut self, frame: &mut Vec<u8>) {
        if frame.len() < 10 {
            frame.resize(10, 0);
        }
        // VFuzz's nine MAC-layer operators, drawn uniformly: overwrite a
        // header byte (source, frame control P1/P2, length, destination),
        // overwrite the checksum, flip a payload byte, truncate, append.
        match self.rng.next_u64() % 9 {
            header @ 0..=4 => frame[4 + header as usize] = self.rng.gen(),
            5 => {
                let last = frame.len() - 1;
                frame[last] = self.rng.gen();
            }
            6 => {
                let idx = self.rng.gen_range(9..frame.len());
                frame[idx] ^= self.rng.gen_range(1..=255u8);
            }
            7 => {
                // Keep at least the home id so the frame is attributable.
                let new_len = self.rng.gen_range(4..frame.len().max(5));
                frame.truncate(new_len);
            }
            _ => {
                for _ in 0..self.rng.gen_range(1..=4) {
                    frame.push(self.rng.gen());
                }
                frame.truncate(64);
            }
        }
    }

    /// Builds the semantic pool from a scan report's node ids.
    pub(crate) fn semantic_pool(controller: NodeId, slaves: &[NodeId]) -> Vec<u8> {
        let mut pool = vec![controller.0];
        pool.extend(slaves.iter().map(|n| n.0));
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mutator() -> Mutator {
        Mutator::new(7, vec![0x01, 0x02, 0x03])
    }

    #[test]
    fn seed_payload_matches_algorithm1() {
        let m = mutator();
        let p = m.seed_payload(CommandClassId(0x01), 0x00);
        assert_eq!(p.encode(), vec![0x01, 0x00, 0x00]);
    }

    #[test]
    fn plans_for_unknown_class_include_semantic_nodes() {
        let m = mutator();
        let plans = m.exploration_plans(CommandClassId(0x01), 0x0D);
        // Node-targeted plans: existing node, broadcast marker, rogue id.
        assert!(plans.contains(&vec![0x02]));
        assert!(plans.contains(&vec![0x02, 0x00]));
        assert!(plans.contains(&vec![0x02, 0x04]));
        assert!(plans.contains(&vec![0xFF]));
        assert!(plans.contains(&vec![0x0A, 0x01]));
    }

    #[test]
    fn plans_for_known_class_sweep_boundaries() {
        let m = mutator();
        // Powerlevel Set: [level 0..=9, timeout].
        let plans = m.exploration_plans(CommandClassId(0x73), 0x01);
        assert!(plans.iter().any(|p| p.first() == Some(&0x0A)), "max+1 boundary probed");
        assert!(plans.iter().any(|p| p.first() == Some(&0x09)), "max boundary probed");
        assert!(plans.len() <= 24);
    }

    #[test]
    fn truncation_plan_present_for_parameterised_commands() {
        let m = mutator();
        // AGI InfoGet has two parameters; truncated variant must appear.
        let plans = m.exploration_plans(CommandClassId(0x59), 0x03);
        assert!(plans.iter().any(|p| p.len() == 1));
    }

    #[test]
    fn insert_op_appends() {
        let mut m = mutator();
        let mut p = ApplicationPayload::new(CommandClassId(0x20), 0x01, vec![0xFF]);
        m.apply(&mut p, FieldPosition::Param(0), MutationOp::Insert, None);
        assert_eq!(p.params().len(), 2);
    }

    #[test]
    fn rand_valid_on_known_command_picks_defined_ids() {
        let mut m = mutator();
        let spec = Registry::global().get(CommandClassId(0x5A)).unwrap();
        for _ in 0..20 {
            let mut p = ApplicationPayload::new(CommandClassId(0x5A), 0x00, vec![]);
            m.apply(&mut p, FieldPosition::Command, MutationOp::RandValid, Some(spec));
            assert_eq!(p.command(), Some(0x01), "only DEVICE_RESET_LOCALLY_NOTIFICATION exists");
        }
    }

    #[test]
    fn rand_invalid_on_known_command_avoids_defined_ids() {
        let mut m = mutator();
        let spec = Registry::global().get(CommandClassId(0x20)).unwrap();
        for _ in 0..50 {
            let mut p = ApplicationPayload::new(CommandClassId(0x20), 0x01, vec![0xFF]);
            m.apply(&mut p, FieldPosition::Command, MutationOp::RandInvalid, Some(spec));
            assert!(spec.command(p.command().unwrap()).is_none());
        }
    }

    #[test]
    fn mutate_never_touches_position_zero() {
        let mut m = mutator();
        for _ in 0..200 {
            let mut p = ApplicationPayload::new(CommandClassId(0x62), 0x01, vec![0x00, 0x01]);
            m.mutate(&mut p, None);
            assert_eq!(p.command_class(), CommandClassId(0x62));
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = Mutator::new(seed, vec![0x02]);
            let mut p = ApplicationPayload::new(CommandClassId(0x01), 0x0D, vec![0x00]);
            for _ in 0..10 {
                m.mutate(&mut p, None);
            }
            p.encode()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn random_payload_is_unconstrained() {
        let mut m = mutator();
        let mut classes = std::collections::HashSet::new();
        for _ in 0..300 {
            classes.insert(m.random_payload().command_class().0);
        }
        // Uniform draws over 256 values should show wide spread.
        assert!(classes.len() > 100, "spread {}", classes.len());
    }

    #[test]
    fn mac_mutants_keep_the_home_id_and_frame_bounds() {
        let mut m = mutator();
        let seed =
            FrameBuf::from(vec![0xCB, 0x95, 0xA3, 0x4A, 2, 0x41, 1, 13, 1, 0x20, 1, 0xFF, 0]);
        let mut changed = 0;
        for _ in 0..500 {
            let frame = m.mac_mutant(std::slice::from_ref(&seed), &[]);
            assert_eq!(frame[..4], seed[..4], "the home id is never mutated");
            assert!((4..=64).contains(&frame.len()), "length {}", frame.len());
            changed += usize::from(frame.as_slice() != seed.as_slice());
        }
        assert!(changed > 450, "only {changed} of 500 mutants differ from the seed");
        // Nothing captured: the fallback frame seeds the mutants.
        assert_eq!(m.mac_mutant(&[], &seed)[..4], seed[..4]);
    }

    #[test]
    fn semantic_pool_from_scan() {
        let pool = Mutator::semantic_pool(NodeId(1), &[NodeId(2), NodeId(3)]);
        assert_eq!(pool, vec![1, 2, 3]);
    }
}
