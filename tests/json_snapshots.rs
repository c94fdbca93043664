//! Golden snapshots of the `--format json` output schema: the exact bytes
//! `zcover fuzz` and `zcover trials` print for a fixed seed are pinned
//! under `tests/golden_json/`, so any schema drift — a renamed key, a
//! reordered field, a changed number format — fails here instead of
//! silently breaking downstream consumers.
//!
//! Regenerate after an *intentional* schema change with:
//!
//! ```text
//! cargo run --release --bin zcover -- fuzz --device D1 --hours 0.25 \
//!     --seed 3 --format json > tests/golden_json/fuzz_d1_seed3.json
//! cargo run --release --bin zcover -- fuzz --device D1 --hours 0.02 \
//!     --seed 3 --scenario s0-no-more --format json \
//!     > tests/golden_json/fuzz_d1_s0nomore_seed3.json
//! cargo run --release --bin zcover -- trials --device D1 --trials 2 \
//!     --seed 7 --hours 0.25 --format json > tests/golden_json/trials_d1_seed7.json
//! cargo run --release --bin zcover -- sweep --homes 6 --topology line \
//!     --hours 0.05 --seed 5 --shard-size 4 --workers 2 --format json \
//!     > tests/golden_json/sweep_line6_seed5.json
//! ```

use std::path::{Path, PathBuf};
use std::time::Duration;

use zcover_suite::zcover::report::{campaign_to_json, summary_to_json, sweep_to_json};
use zcover_suite::zcover::{run_sweep, CampaignExecutor, FuzzConfig, SweepConfig, ZCover};
use zcover_suite::zwave_controller::testbed::{DeviceModel, Testbed};
use zcover_suite::zwave_controller::Topology;

fn golden(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_json").join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    (path, text)
}

#[test]
fn fuzz_json_matches_the_golden_snapshot() {
    // The library call the CLI's `fuzz --format json` path boils down to,
    // with identical parameters (D1, seed 3, 0.25 h = 900 s).
    let (_, want) = golden("fuzz_d1_seed3.json");
    let mut tb = Testbed::new(DeviceModel::D1, 3);
    let mut zc = ZCover::attach(&tb, 70.0);
    let report =
        zc.run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(900), 3)).expect("pipeline");
    let got = format!("{}\n", campaign_to_json(&report.campaign));
    assert_eq!(got, want, "fuzz --format json schema drifted; regenerate if intentional");
}

#[test]
fn attack_campaign_json_matches_the_golden_snapshot() {
    // `fuzz --scenario s0-no-more --format json`: pins the scenario name,
    // the battery-drain verdict row, and the attacker counters.
    let (_, want) = golden("fuzz_d1_s0nomore_seed3.json");
    let mut tb = Testbed::new(DeviceModel::D1, 3);
    let mut zc = ZCover::attach(&tb, 70.0);
    let config = FuzzConfig::full(Duration::from_secs(72), 3)
        .with_scenario(zcover_suite::zcover::Scenario::S0NoMore);
    let report = zc.run_campaign(&mut tb, config).expect("pipeline");
    let got = format!("{}\n", campaign_to_json(&report.campaign));
    assert_eq!(got, want, "attack-campaign json schema drifted; regenerate if intentional");
    assert!(want.contains("\"scenario\":\"s0-no-more\""));
    assert!(want.contains("\"bug_id\":16"), "drain verdict pinned in the golden");
    for key in ["\"attack_frames\":", "\"attack_verdicts\":"] {
        let value = want.split(key).nth(1).and_then(|t| t.split(&[',', '}'][..]).next());
        assert_ne!(value, Some("0"), "golden lost its nonzero {key} counter");
    }
}

#[test]
fn trials_json_matches_the_golden_snapshot() {
    let (_, want) = golden("trials_d1_seed7.json");
    let config = FuzzConfig::full(Duration::from_secs(900), 7);
    let summary = CampaignExecutor::new(1)
        .run(2, 7, |seed| Testbed::new(DeviceModel::D1, seed), &config)
        .expect("trials run");
    let got = format!("{}\n", summary_to_json(&summary));
    assert_eq!(got, want, "trials --format json schema drifted; regenerate if intentional");
}

#[test]
fn sweep_json_matches_the_golden_snapshot() {
    // The library call the CLI's `sweep --format json` path boils down
    // to, with identical parameters (6 line homes, seed 5, 0.05 h each,
    // 4-home shards). The worker count is part of the CLI line that
    // generated the golden but must not matter — that is the schema's
    // central promise, so the reconstruction deliberately uses a
    // different pool size than the generating command.
    let (_, want) = golden("sweep_line6_seed5.json");
    let base = FuzzConfig::full(Duration::from_secs_f64(0.05 * 3600.0), 5);
    let config = SweepConfig::new(6, Topology::Line, base).with_shard_size(4);
    let (summary, _) = run_sweep(&CampaignExecutor::new(1), &config).expect("sweep runs");
    let got = format!("{}\n", sweep_to_json(&summary));
    assert_eq!(got, want, "sweep --format json schema drifted; regenerate if intentional");
}

#[test]
fn golden_snapshots_announce_their_schema() {
    // Key-presence guard independent of the byte comparison: if a golden
    // is regenerated, these are the fields downstream consumers rely on.
    let (_, fuzz) = golden("fuzz_d1_seed3.json");
    for key in [
        "\"packets_sent\":",
        "\"virtual_duration_s\":",
        "\"cmdcl_coverage\":",
        "\"cmd_coverage\":",
        "\"unique_vulns\":",
        "\"mode\":",
        "\"scenario\":",
        "\"counters\":",
        "\"edges_seen\":",
        "\"corpus_size\":",
        "\"retained_inputs\":",
        "\"attack_frames\":",
        "\"attack_verdicts\":",
        "\"sched_peak_pending\":",
        "\"sched_cancelled\":",
        "\"findings\":",
        "\"bug_id\":",
        "\"root_cause\":",
        "\"found_at_s\":",
        "\"trigger\":",
    ] {
        assert!(fuzz.contains(key), "fuzz golden lost {key}");
    }
    let (_, trials) = golden("trials_d1_seed7.json");
    for key in ["\"trials\":", "\"merged\":", "\"union_bug_ids\":", "\"mean_packets\":"] {
        assert!(trials.contains(key), "trials golden lost {key}");
    }
    let (_, sweep) = golden("sweep_line6_seed5.json");
    for key in [
        "\"homes\":",
        "\"topology\":",
        "\"shard_size\":",
        "\"mode\":",
        "\"scenario\":",
        "\"impairment\":",
        "\"union_bug_ids\":",
        "\"hit_counts\":",
        "\"coverage_edges\":",
        "\"counters\":",
        "\"sched_peak_pending\":",
        "\"channel\":",
        "\"frames_sent\":",
        "\"deliveries\":",
        "\"shards\":",
        "\"shard\":",
        "\"first_home\":",
        "\"bug_ids\":",
    ] {
        assert!(sweep.contains(key), "sweep golden lost {key}");
    }
    // The sweep golden pins the topology-dependent finding: the routed-
    // path bug is present on a line mesh and counted per home.
    assert!(sweep.contains("\"19\":6"), "sweep golden lost the multi-hop-only bug");
    // Snapshots are single-line JSON objects plus the trailing newline.
    assert_eq!(fuzz.lines().count(), 1);
    assert_eq!(trials.lines().count(), 1);
    assert_eq!(sweep.lines().count(), 1);
}
