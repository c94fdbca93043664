//! Property-based tests for the fuzzer's building blocks.

use proptest::prelude::*;

use zcover::cli::Command;
use zcover::minimize::minimize;
use zcover::mutation::{MutationOp, Mutator};
use zwave_controller::testbed::DeviceModel;
use zwave_protocol::apl::{ApplicationPayload, FieldPosition};
use zwave_protocol::registry::Registry;
use zwave_protocol::CommandClassId;

/// The flags the command-line property declares.
const DECLARED: &[&str] =
    &["--seed N --hours H --workers N --device D1..D7", "--format text|json --paper --out FILE"];

/// Declared flags, junk flags and junk values the command lines are drawn from.
const WORDS: [&str; 16] = [
    "--seed",
    "--hours",
    "--workers",
    "--device",
    "--format",
    "--paper",
    "--out",
    "--bogus",
    "--",
    "-3",
    "nan",
    "1e20",
    "D9",
    "json",
    "0",
    "",
];

proptest! {
    /// Mutated payloads always re-encode to parseable byte strings and
    /// keep the command class fixed.
    #[test]
    fn mutation_closure(
        seed in any::<u64>(),
        cc in any::<u8>(),
        cmd in any::<u8>(),
        params in proptest::collection::vec(any::<u8>(), 0..10),
        steps in 1usize..60,
    ) {
        let mut mutator = Mutator::new(seed, vec![0x01, 0x02, 0x03]);
        let mut payload = ApplicationPayload::new(CommandClassId(cc), cmd, params);
        let spec = Registry::global().get(CommandClassId(cc));
        for _ in 0..steps {
            mutator.mutate(&mut payload, spec);
            prop_assert_eq!(payload.command_class(), CommandClassId(cc));
            let encoded = payload.encode();
            let back = ApplicationPayload::parse(&encoded).unwrap();
            prop_assert_eq!(&back, &payload);
            // Payloads stay MAC-frameable.
            prop_assert!(encoded.len() <= 60, "payload grew to {}", encoded.len());
        }
    }

    /// Exploration plans are bounded and deduplicated for every
    /// (class, command) pair.
    #[test]
    fn plans_are_bounded(cc in any::<u8>(), cmd in any::<u8>()) {
        let mutator = Mutator::new(1, vec![0x01, 0x02]);
        let plans = mutator.exploration_plans(CommandClassId(cc), cmd);
        prop_assert!(!plans.is_empty());
        prop_assert!(plans.len() <= 24);
        for plan in &plans {
            prop_assert!(plan.len() <= 16, "oversized plan {plan:?}");
        }
    }

    /// Every operator applied at a legal position leaves a payload that
    /// still parses.
    #[test]
    fn single_operators_preserve_wellformedness(
        seed in any::<u64>(),
        params in proptest::collection::vec(any::<u8>(), 1..8),
        op_idx in 0usize..5,
        pos_idx in 0usize..8,
    ) {
        let mut mutator = Mutator::new(seed, vec![0x02]);
        let mut payload = ApplicationPayload::new(CommandClassId(0x01), 0x0D, params);
        let op = MutationOp::all()[op_idx];
        let pos = if pos_idx == 0 {
            FieldPosition::Command
        } else {
            FieldPosition::Param(pos_idx - 1)
        };
        mutator.apply(&mut payload, pos, op, None);
        let encoded = payload.encode();
        prop_assert_eq!(ApplicationPayload::parse(&encoded).unwrap().encode(), encoded);
    }

    /// Minimization never enlarges a trigger, always reproduces, and is
    /// idempotent.
    #[test]
    fn minimize_shrinks_and_reproduces(
        trigger in proptest::collection::vec(any::<u8>(), 3..14),
        threshold in 2usize..6,
    ) {
        // Synthetic oracle: fires when the payload has at least `threshold`
        // parameter bytes (length-based bugs, like #03 and #15).
        let oracle = move |p: &[u8]| p.len() >= threshold + 2;
        prop_assume!(oracle(&trigger));
        let minimal = minimize(&trigger, oracle);
        prop_assert!(oracle(&minimal));
        prop_assert!(minimal.len() <= trigger.len());
        prop_assert_eq!(minimize(&minimal, oracle).len(), minimal.len());
    }

    /// Minimization after an arbitrary mutation chain: however the
    /// mutator mangled the trigger, the minimized payload still satisfies
    /// the oracle, never grows, keeps the command class, and is a fixed
    /// point of a second minimization pass.
    #[test]
    fn minimize_survives_random_mutation_chains(
        seed in any::<u64>(),
        steps in 1usize..40,
    ) {
        let mut mutator = Mutator::new(seed, vec![0x01]);
        let mut payload =
            ApplicationPayload::new(CommandClassId(0x5A), 0x01, vec![0x00, 0x07]);
        let spec = Registry::global().get(CommandClassId(0x5A));
        for _ in 0..steps {
            mutator.mutate(&mut payload, spec);
        }
        let trigger = payload.encode();
        // Oracle keyed on the command class, like the length-independent
        // parser bugs: every mutated descendant still reproduces.
        let oracle = |p: &[u8]| p.first() == Some(&0x5A);
        prop_assume!(oracle(&trigger));
        let minimal = minimize(&trigger, oracle);
        prop_assert!(oracle(&minimal));
        prop_assert!(minimal.len() <= trigger.len());
        let again = minimize(&minimal, oracle);
        prop_assert_eq!(again, minimal.clone(), "minimization is idempotent");
    }

    /// γ's random payload generator stays within the MAC payload budget
    /// and parses.
    #[test]
    fn random_payloads_are_wellformed(seed in any::<u64>()) {
        let mut mutator = Mutator::new(seed, vec![]);
        for _ in 0..50 {
            let payload = mutator.random_payload();
            let encoded = payload.encode();
            prop_assert!(encoded.len() >= 2 && encoded.len() <= 10);
            prop_assert_eq!(ApplicationPayload::parse(&encoded).unwrap(), payload);
        }
    }

    /// Random command lines mixing declared flags, junk flags and junk
    /// values never panic the parser or its getters, and an undeclared
    /// `--x` anywhere is the error, named.
    #[test]
    fn junk_command_lines_are_errors_not_panics(
        words in proptest::collection::vec((0usize..20, any::<u64>()), 0..10),
        operands in any::<bool>(),
    ) {
        let argv: Vec<String> = words
            .iter()
            .map(|&(i, n)| match i {
                i if i < WORDS.len() => WORDS[i].to_string(),
                16 => n.to_string(),
                17 => format!("--x{n}"),
                _ => format!("{}", n as f64 / 7.0),
            })
            .collect();
        let command = Command { name: if operands { "t <x>..." } else { "t" }, flags: DECLARED };
        let declared = |a: &str| DECLARED.iter().flat_map(|g| g.split_whitespace()).any(|w| w == a);
        let undeclared = argv.iter().find(|a| a.starts_with("--") && !declared(a));
        match command.parse(&argv) {
            Ok(args) => {
                prop_assert!(undeclared.is_none(), "{argv:?} parsed");
                prop_assert!(operands || args.operands().is_empty(), "{argv:?}");
                let _ = args.num::<u64>("--seed", 42);
                let _ = args.count::<usize>("--workers", 1);
                let _ = args.hours(1.0);
                let _ = args.choice("--device", DeviceModel::D1, DeviceModel::parse);
                let _ = args.one_of("--format", "text");
            }
            Err(e) => {
                if let Some(flag) = undeclared {
                    prop_assert_eq!(e.0, format!("unknown flag {flag}"));
                }
            }
        }
    }
}
