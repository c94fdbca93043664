//! Trace record/replay regression tests: golden traces under
//! `tests/golden_traces/` pin the exact event journal of a small
//! seed/profile matrix, and the divergence diff is exercised with a
//! deliberately perturbed header.
//!
//! Regenerate a golden after an *intentional* behaviour change with:
//!
//! ```text
//! cargo run --release --bin zcover -- fuzz --device D1 --hours 0.01 \
//!     --seed 11 --impairment lossy --record tests/golden_traces/d1_seed11_lossy.jsonl
//! ```

use std::path::{Path, PathBuf};

use zcover_suite::zcover::{
    diff_traces, record_campaign, replay, CampaignExecutor, FuzzConfig, Record, Trace, TraceSpec,
};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_traces")
}

/// The campaign `trace`'s header describes, recorded afresh.
fn fresh_recording(trace: &Trace) -> Trace {
    let model = DeviceModel::all()
        .into_iter()
        .find(|m| m.idx() == trace.meta.device)
        .expect("golden names a known device");
    let config = FuzzConfig::named(&trace.meta.config, trace.meta.budget, trace.meta.seed)
        .expect("golden names a known config")
        .with_impairment(trace.meta.impairment)
        .with_scenario(trace.meta.scenario);
    record_campaign(model, &trace.meta.config, config).expect("records").trace
}

const GOLDENS: [&str; 7] = [
    "d1_seed11_lossy.jsonl",
    "d1_seed13_coverage_clean.jsonl",
    "d1_seed21_s0nomore_clean.jsonl",
    "d1_seed23_crushing_clean.jsonl",
    "d1_seed5_clean.jsonl",
    "d2_seed7_beta_bursty.jsonl",
    "d3_seed9_gamma_adversarial.jsonl",
];

#[test]
fn every_golden_trace_replays_with_zero_divergence() {
    for name in GOLDENS {
        let trace = Trace::load(&golden_dir().join(name)).expect(name);
        assert!(!trace.events.is_empty(), "{name}: empty journal");
        let report = replay(&trace).expect(name);
        assert!(report.is_clean(), "{name}:\n{}", report.render());
        assert_eq!(report.recorded_events, report.replayed_events, "{name}");
    }
}

#[test]
fn golden_traces_are_byte_identical_to_a_fresh_recording() {
    // Stronger than replay-clean: re-recording from the golden's header
    // must reproduce the committed file byte for byte (header included).
    for name in GOLDENS {
        let path = golden_dir().join(name);
        let golden_text = std::fs::read_to_string(&path).expect(name);
        let golden = Trace::from_jsonl(&golden_text).expect(name);
        assert_eq!(fresh_recording(&golden).to_jsonl(), golden_text, "{name}: journal drifted");
    }
}

#[test]
fn attack_goldens_journal_attacker_frames_and_verdicts() {
    // The two attack-campaign goldens must carry the adversary alongside
    // the fuzzer: scripted frames as `"t":"attack"` events (in strictly
    // increasing index order) and the seeded attack bugs among the
    // recorded verdicts.
    for (name, scenario, bug_ids) in [
        ("d1_seed21_s0nomore_clean.jsonl", "s0-no-more", vec![16u8]),
        ("d1_seed23_crushing_clean.jsonl", "crushing-the-wave", vec![17, 18]),
    ] {
        let path = golden_dir().join(name);
        let text = std::fs::read_to_string(&path).expect(name);
        let trace = Trace::from_jsonl(&text).expect(name);
        assert_eq!(trace.meta.scenario.name(), scenario, "{name}");
        let indices: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                Record::Attack { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert!(!indices.is_empty(), "{name}: no attacker frames journaled");
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "{name}: indices out of order");
        for bug in bug_ids {
            assert!(
                trace
                    .events
                    .iter()
                    .any(|e| matches!(e, Record::Oracle { bug: b, .. } if *b == u64::from(bug))),
                "{name}: bug {bug} verdict missing from the journal"
            );
        }
    }
}

#[test]
fn perturbed_seed_reports_first_divergence_with_index_and_time() {
    // The acceptance-criteria scenario: flip the recorded seed and the
    // replay must pinpoint the first divergent event, not just fail.
    let path = golden_dir().join("d1_seed11_lossy.jsonl");
    let text = std::fs::read_to_string(&path).expect("golden exists");
    let perturbed_text = text.replacen("\"seed\":11", "\"seed\":12", 1);
    assert_ne!(perturbed_text, text, "perturbation applied");
    let perturbed = Trace::from_jsonl(&perturbed_text).expect("still well-formed");
    let report = replay(&perturbed).expect("replay executes");
    let d = report.divergence.as_ref().expect("seed flip must diverge");
    // The very first frame on air depends on the seed, so the divergence
    // lands at event 0, with the recorded virtual timestamp attached.
    assert_eq!(d.index, 0);
    assert_eq!(d.at_us, perturbed.at_us(0));
    assert!(d.at_us.is_some(), "divergent event carries a virtual time");
    assert!(d.expected.is_some() && d.actual.is_some());
    assert_ne!(d.expected, d.actual);
    let rendered = report.render();
    assert!(rendered.contains("DIVERGENCE at event 0"), "{rendered}");
    assert!(rendered.contains("virtual t = "), "{rendered}");
}

#[test]
fn mid_stream_divergence_carries_context_lines() {
    // Corrupt one event deep in the stream (rather than the header): the
    // diff must report that exact index and surface the preceding lines.
    let golden = Trace::load(&golden_dir().join("d1_seed5_clean.jsonl")).expect("golden");
    let mut mutated = golden.clone();
    let victim = mutated.events.len() / 2;
    mutated.events[victim] = Record::Raw("{\"T\":\"mangled\"}".to_string());
    let report = diff_traces(&golden, &mutated);
    let d = report.divergence.expect("mutation must surface");
    assert_eq!(d.index, victim);
    assert_eq!(d.context.len(), 3.min(victim));
    // Context lines are the rendered JSONL of the preceding events: line
    // 0 of to_jsonl() is the header, so event k sits on line k + 1.
    let jsonl = golden.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(d.context.last().map(String::as_str), Some(lines[victim]));
}

#[test]
fn streaming_replay_matches_a_full_rerun_diff() {
    // `replay` compares each record as the re-run emits it; diffing a
    // whole fresh recording must give the identical report, clean or at
    // the perturbed index.
    let mut cases = Vec::new();
    for name in GOLDENS.iter().copied().chain(["d1_seed5_clean.zct"]) {
        cases.push((name.to_string(), Trace::load(&golden_dir().join(name)).expect(name), None));
    }
    let golden = Trace::load(&golden_dir().join("d1_seed11_lossy.jsonl")).expect("golden");
    let first_callback = golden
        .events
        .iter()
        .position(|e| !matches!(e, Record::Sched { .. }))
        .expect("the campaign journals fuzzer events");
    assert!(first_callback > 2, "recon prefix of {first_callback} events is too short");
    let last = golden.events.len() - 1;
    let mut perturb = |what: &str, diverges_at: usize, change: &dyn Fn(&mut Vec<Record>)| {
        let mut trace = golden.clone();
        change(&mut trace.events);
        cases.push((format!("lossy golden, {what}"), trace, Some(diverges_at)));
    };
    let nudge = |index: usize| {
        move |events: &mut Vec<Record>| match &mut events[index] {
            Record::Sched { at_us, .. } | Record::Fuzz { at_us, .. } => *at_us += 1,
            Record::End { packets, .. } => *packets += 1,
            other => panic!("unexpected record at {index}: {other:?}"),
        }
    };
    let recon = first_callback / 2;
    let mid = golden.events.len() / 2;
    perturb("divergent at event 0", 0, &nudge(0));
    perturb("divergent in the recon prefix", recon, &nudge(recon));
    perturb("divergent mid-campaign", mid, &nudge(mid));
    perturb("divergent at the end record", last, &nudge(last));
    perturb("truncated", last / 2, &|events| events.truncate(last / 2));
    perturb("extended", last + 1, &|events| {
        events.push(Record::Fuzz { at_us: 1, ev: "packet".to_string() })
    });
    perturb("raw record with a time", last / 3, &|events| {
        events[last / 3] = Record::Raw("{\"t\":\"future\",\"at_us\":77}".to_string())
    });
    perturb("raw record without a time", last / 3, &|events| {
        events[last / 3] = Record::Raw("{\"t\":\"future\"}".to_string())
    });

    for (name, trace, diverges_at) in &cases {
        let streamed = replay(trace).expect(name);
        let diffed = diff_traces(trace, &fresh_recording(trace));
        assert_eq!(streamed, diffed, "{name}");
        let index = streamed.divergence.as_ref().map(|d| d.index);
        assert_eq!(index, *diverges_at, "{name}:\n{}", streamed.render());
    }
}

#[test]
fn executor_recorded_trials_are_worker_count_independent() {
    // Each worker records its claimed trials into per-trial files; the
    // files must be byte-identical whether one worker or four ran them —
    // for every canonical configuration, APL-injecting and raw
    // MAC-injecting alike — and each must replay from its header.
    let tmp = std::env::temp_dir().join(format!("zcover_trace_wc_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    for config_name in ["full", "beta", "gamma", "no-priority", "no-plans", "coverage", "vfuzz"] {
        let config = FuzzConfig::named(config_name, std::time::Duration::from_secs(30), 5)
            .expect("known configuration name");
        let record = |workers: usize, tag: &str| -> Vec<String> {
            let spec = TraceSpec {
                device: "D1".to_string(),
                prefix: tmp.join(format!("{config_name}_{tag}")),
            };
            let model = DeviceModel::D1;
            CampaignExecutor::new(workers)
                .run_with_trace(3, 5, |seed| Testbed::new(model, seed), &config, Some(&spec))
                .expect("trials run");
            (0..3)
                .map(|t| std::fs::read_to_string(spec.trial_path(t)).expect("trace written"))
                .collect()
        };
        let sequential = record(1, "seq");
        let parallel = record(4, "par");
        assert_eq!(
            sequential, parallel,
            "{config_name}: worker scheduling leaked into a recorded trace"
        );
        for (trial, text) in sequential.iter().enumerate() {
            let trace = Trace::from_jsonl(text).expect("well-formed per-trial trace");
            assert!(
                replay(&trace).expect("replays").is_clean(),
                "{config_name} trial {trial} not replayable"
            );
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
}
