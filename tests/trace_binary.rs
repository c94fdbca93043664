//! Binary trace format (ZCT) regression tests: JSONL export parity
//! against every committed golden, a committed binary golden with seek
//! assertions, and worker-count invariance of per-home sweep recording.
//!
//! Regenerate the binary golden after an *intentional* format or
//! behaviour change with:
//!
//! ```text
//! cargo run --release --bin zcover -- trace export \
//!     tests/golden_traces/d1_seed5_clean.jsonl \
//!     --out tests/golden_traces/d1_seed5_clean.zct
//! ```

use std::path::{Path, PathBuf};

use zcover_suite::trace_format::ZctTrace;
use zcover_suite::zcover::{replay, CampaignExecutor, FuzzConfig, SweepConfig, Trace};
use zcover_suite::zwave_controller::Topology;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_traces")
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
fn every_golden_roundtrips_through_binary_byte_identically() {
    // The differential guarantee behind `zcover trace export`: record in
    // binary, export to JSONL, and the bytes match the committed golden
    // exactly — header line, conditional scenario field, fractional
    // budget rendering, every event line.
    for name in GOLDENS {
        let golden_text = std::fs::read_to_string(golden_dir().join(name)).expect(name);
        let golden = Trace::from_jsonl(&golden_text).expect(name);
        let zct = golden.to_zct_bytes();
        assert!(zct.len() * 4 < golden_text.len(), "{name}: binary not at least 4x smaller");
        let back = Trace::from_bytes(&zct).expect(name);
        assert_eq!(back.meta, golden.meta, "{name}: header drifted through binary");
        assert_eq!(back.events, golden.events, "{name}: events drifted through binary");
        assert_eq!(back.to_jsonl(), golden_text, "{name}: JSONL export parity broken");
        // And the binary encoding itself is deterministic.
        assert_eq!(back.to_zct_bytes(), zct, "{name}: binary re-encode not bit-identical");
    }
}

#[test]
fn committed_binary_golden_matches_its_jsonl_twin_and_replays() {
    let jsonl_text =
        std::fs::read_to_string(golden_dir().join("d1_seed5_clean.jsonl")).expect("jsonl golden");
    let zct_bytes = std::fs::read(golden_dir().join("d1_seed5_clean.zct")).expect("zct golden");
    let jsonl = Trace::from_jsonl(&jsonl_text).expect("jsonl parses");
    let zct = Trace::from_bytes(&zct_bytes).expect("zct decodes");
    assert_eq!(zct.meta, jsonl.meta);
    assert_eq!(zct.events, jsonl.events);
    // The committed file is exactly what this build would write.
    assert_eq!(jsonl.to_zct_bytes(), zct_bytes, "committed .zct golden drifted");
    assert!(replay(&zct).expect("replays").is_clean());
}

#[test]
fn seeking_any_event_agrees_with_the_full_scan() {
    // The footer index must be a pure accelerator: event k fetched by
    // seeking into its block equals event k of the sequential decode.
    let bytes = std::fs::read(golden_dir().join("d1_seed5_clean.zct")).expect("zct golden");
    let parsed = ZctTrace::parse(bytes).expect("golden parses");
    let all = parsed.records().expect("full scan decodes");
    assert_eq!(all.len() as u64, parsed.event_count());
    assert!(parsed.blocks().len() > 1, "golden too small to exercise seeking across blocks");
    // Every block boundary, both ends of the stream, and a mid-block
    // sample — cheap enough to just check every event.
    for (k, expected) in all.iter().enumerate() {
        let got = parsed.event(k as u64).expect("in range");
        assert_eq!(&got, expected, "seek to event {k} disagrees with the scan");
    }
    assert!(parsed.event(all.len() as u64).is_err(), "out-of-range seek must error");
}

#[test]
fn sweep_per_home_traces_are_worker_count_invariant() {
    // Each worker records its claimed homes' traces; the files must be
    // bit-identical whether 1, 2 or 4 workers ran the sweep.
    let tmp = std::env::temp_dir().join(format!("zcover_sweep_rec_{}", std::process::id()));
    let homes = 6u64;
    let record = |workers: usize, tag: &str| -> Vec<Vec<u8>> {
        let dir = tmp.join(tag);
        let base = FuzzConfig::full(std::time::Duration::from_secs(20), 9);
        let config =
            SweepConfig::new(homes, Topology::Mesh, base).with_shard_size(2).with_record_dir(&dir);
        zcover_suite::zcover::run_sweep(&CampaignExecutor::new(workers), &config)
            .expect("sweep runs");
        (0..homes)
            .map(|h| std::fs::read(SweepConfig::home_trace_path(&dir, h)).expect("trace written"))
            .collect()
    };
    let one = record(1, "w1");
    let two = record(2, "w2");
    let four = record(4, "w4");
    assert_eq!(one, two, "2-worker sweep recorded different per-home traces");
    assert_eq!(one, four, "4-worker sweep recorded different per-home traces");
    for (home, bytes) in one.iter().enumerate() {
        let trace = Trace::from_bytes(bytes).expect("well-formed per-home trace");
        assert!(!trace.events.is_empty(), "home {home}: empty journal");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn truncated_and_bit_flipped_binary_traces_fail_with_loci_not_panics() {
    let bytes = std::fs::read(golden_dir().join("d1_seed5_clean.zct")).expect("zct golden");
    // Every truncation point decodes to a malformed error naming a byte
    // offset (sampled stride keeps the test fast).
    for len in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
        let err = Trace::from_bytes(&bytes[..len]).expect_err("truncation must not decode");
        let msg = err.to_string();
        // Below the 4-byte magic the input is indistinguishable from a
        // (broken) JSONL trace, whose loci are line numbers instead.
        let locus = if len < 4 { "line 1" } else { "byte offset" };
        assert!(msg.contains(locus), "truncation at {len}: no locus in {msg:?}");
    }
    // Bit flips anywhere either fail with a locus or (in the header
    // padding-free layout there is none) — never panic, never decode to
    // the original stream.
    let original = Trace::from_bytes(&bytes).expect("golden decodes");
    for pos in (0..bytes.len()).step_by(211) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x04;
        match Trace::from_bytes(&flipped) {
            Err(err) => {
                let msg = err.to_string();
                assert!(
                    msg.contains("byte offset") || msg.contains("version"),
                    "flip at {pos}: no locus in {msg:?}"
                );
            }
            Ok(decoded) => {
                assert_ne!(
                    (decoded.meta, decoded.events),
                    (original.meta.clone(), original.events.clone()),
                    "flip at byte {pos} went undetected"
                );
            }
        }
    }
}
