//! End-to-end CLI tests for the trace subcommands: `zcover replay` must
//! fail malformed input with exit code 2 and a byte-offset locus (plus
//! whatever the CRC-protected header still says), never a panic; `zcover
//! trace export` must convert between the formats losslessly. Bad flags,
//! failed campaigns, sweeps or trials, and unwritable output paths must
//! exit with a message, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn zcover(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_zcover")).args(args).output().expect("zcover runs")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zcover_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Records one short campaign to `dir/trace.zct` and returns its path.
fn record_zct(dir: &Path) -> PathBuf {
    let path = dir.join("trace.zct");
    let out = zcover(&[
        "fuzz",
        "--device",
        "D1",
        "--hours",
        "0.005",
        "--seed",
        "11",
        "--record",
        path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "recording failed: {}", String::from_utf8_lossy(&out.stderr));
    path
}

#[test]
fn replay_accepts_both_formats_and_converts_via_trace_export() {
    let dir = tmp_dir("roundtrip");
    let zct = record_zct(&dir);
    let jsonl = dir.join("trace.jsonl");

    let out = zcover(&["trace", "export", zct.to_str().unwrap(), "--out", jsonl.to_str().unwrap()]);
    assert!(out.status.success(), "export failed: {}", String::from_utf8_lossy(&out.stderr));

    for path in [&zct, &jsonl] {
        let out = zcover(&["replay", path.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "replay of {} failed: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("replay OK"), "{stdout}");
    }

    // Exporting the JSONL back to binary reproduces the original bytes.
    let zct2 = dir.join("trace2.zct");
    let out =
        zcover(&["trace", "export", jsonl.to_str().unwrap(), "--out", zct2.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&zct).unwrap(),
        std::fs::read(&zct2).unwrap(),
        "zct -> jsonl -> zct not bit-identical"
    );

    // Exporting to stdout prints the JSONL stream itself.
    let out = zcover(&["trace", "export", zct.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(out.stdout, std::fs::read(&jsonl).unwrap(), "stdout export differs from --out");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_zct_exits_2_with_byte_offset_and_surviving_header() {
    let dir = tmp_dir("trunc");
    let zct = record_zct(&dir);
    let bytes = std::fs::read(&zct).unwrap();
    for frac in [4usize, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        let path = dir.join(format!("trunc{frac}.zct"));
        std::fs::write(&path, &bytes[..frac]).unwrap();
        let out = zcover(&["replay", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "truncation to {frac} bytes: wrong exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("byte offset"), "truncation to {frac}: no locus in {stderr:?}");
        assert!(!stderr.contains("panicked"), "truncation to {frac} panicked: {stderr}");
        // Past the header, the CRC-protected header must still decode.
        if frac >= bytes.len() / 3 {
            assert!(
                stderr.contains("header: device D1, seed 11"),
                "truncation to {frac}: header not recovered in {stderr:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_zct_exits_2_and_never_panics() {
    let dir = tmp_dir("flip");
    let zct = record_zct(&dir);
    let bytes = std::fs::read(&zct).unwrap();
    for pos in (7..bytes.len()).step_by(bytes.len() / 5) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x20;
        let path = dir.join(format!("flip{pos}.zct"));
        std::fs::write(&path, &flipped).unwrap();
        let out = zcover(&["replay", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "flip at {pos} panicked: {stderr}");
        // A flip lands in framing or payload CRC coverage somewhere: the
        // decode must reject it (exit 2); a flip that somehow decodes
        // must then fail replay as a divergence (exit 1), not succeed.
        assert!(
            matches!(out.status.code(), Some(1) | Some(2)),
            "flip at {pos}: exit {:?}, stderr {stderr:?}",
            out.status.code()
        );
        if out.status.code() == Some(2) {
            assert!(stderr.contains("byte offset"), "flip at {pos}: no locus in {stderr:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn divergence_exit_1_names_the_event_locus_in_both_formats() {
    let dir = tmp_dir("diverge");
    let zct = record_zct(&dir);
    let jsonl = dir.join("trace.jsonl");
    let out = zcover(&["trace", "export", zct.to_str().unwrap(), "--out", jsonl.to_str().unwrap()]);
    assert!(out.status.success());

    // Flip the recorded seed: the campaign re-executes differently from
    // event 0, which is a divergence, not a malformed file.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let perturbed = dir.join("perturbed.jsonl");
    std::fs::write(&perturbed, text.replacen("\"seed\":11", "\"seed\":12", 1)).unwrap();
    let out = zcover(&["replay", perturbed.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "seed flip must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("DIVERGENCE at event 0"), "{stdout}");
    assert!(stderr.contains("lives at line 2"), "JSONL locus missing: {stderr:?}");

    // Same perturbation through the binary format names block + offset.
    let perturbed_zct = dir.join("perturbed.zct");
    let out = zcover(&[
        "trace",
        "export",
        perturbed.to_str().unwrap(),
        "--out",
        perturbed_zct.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = zcover(&["replay", perturbed_zct.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "binary seed flip must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lives at block 0 at byte offset"), "zct locus missing: {stderr:?}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_stats_reports_cross_trial_identity() {
    let dir = tmp_dir("stats");
    let zct = record_zct(&dir);
    let twin = dir.join("twin.zct");
    std::fs::copy(&zct, &twin).unwrap();
    let out = zcover(&["trace", "stats", zct.to_str().unwrap(), twin.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace stats:"), "{stdout}");
    assert!(stdout.contains("cross-trial divergence"), "{stdout}");
    assert!(stdout.contains(": identical"), "{stdout}");

    let out = zcover(&["trace", "stats", zct.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with('['), "{stdout}");
    assert!(stdout.contains("\"per_cmdcl\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_bug_log_carries_the_packets_each_finding_took() {
    let dir = tmp_dir("buglog");
    let log = dir.join("bugs.txt");
    let args = ["fuzz", "--device", "D1", "--hours", "0.05", "--seed", "3"];
    let out = zcover(&[&args[..], &["--log", log.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let logged: Vec<String> = std::fs::read_to_string(&log)
        .unwrap()
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split(" | ").nth(6).expect("packets column").to_string())
        .collect();

    let out = zcover(&[&args[..], &["--format", "json"]].concat());
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    let key = "\"found_after_packets\":";
    let reported: Vec<String> = json
        .match_indices(key)
        .map(|(at, _)| {
            json[at + key.len()..].chars().take_while(char::is_ascii_digit).collect::<String>()
        })
        .collect();
    assert!(!reported.is_empty(), "the campaign must find something: {json}");
    assert_eq!(logged, reported, "--log packets column disagrees with the JSON findings");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparsable_numeric_flags_exit_2_naming_flag_and_value() {
    // A typo must not silently run a default-sized campaign.
    for (args, flag, value) in [
        (&["fuzz", "--device", "D1", "--hours", "abc"][..], "--hours", "abc"),
        (&["fuzz", "--device", "D1", "--hours", "0.001", "--seed", "xyz"][..], "--seed", "xyz"),
        (&["trials", "--hours", "0.001", "--trials", "two"][..], "--trials", "two"),
        (&["sweep", "--homes", "1", "--hours", "0.001", "--workers", "-3"][..], "--workers", "-3"),
        (&["sweep", "--homes", "8x"][..], "--homes", "8x"),
        (&["sweep", "--homes", "1", "--shard-size", "1.5"][..], "--shard-size", "1.5"),
    ] {
        let out = zcover(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} did not exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag) && stderr.contains(value), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn a_failing_sweep_home_exits_1_naming_the_home() {
    // Star home 66 (D4) gets no NIF reply under the lossy profile: the
    // sweep must say which home failed and exit 1, not panic.
    let out = zcover(&[
        "sweep",
        "--homes",
        "67",
        "--topology",
        "star",
        "--impairment",
        "lossy",
        "--seed",
        "42",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("sweep failed at home 66: controller did not answer the NIF request"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "a failed sweep printed a report");
}

#[test]
fn out_of_range_hours_exit_2_naming_flag_and_value() {
    // Each parses as an f64 but is no campaign budget: negative, not a
    // number, infinite, or more microseconds than the simulated clock holds.
    for command in ["fuzz", "trials", "sweep"] {
        for value in ["-1", "nan", "inf", "1e20"] {
            let args = [command, "--hours", value, "--homes", "1", "--trials", "1"];
            let out = zcover(if command == "fuzz" { &args[..3] } else { &args[..] });
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} --hours {value}: {stderr}");
            assert!(
                stderr.contains(&format!("invalid --hours value \"{value}\"")),
                "{command} --hours {value}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
            assert!(out.stdout.is_empty(), "{command} --hours {value} ran anyway");
        }
    }
}

#[test]
fn a_failing_trial_exits_1_naming_the_trial() {
    // Trial 66 shares its seed with sweep home 66 above: D4 gets no NIF
    // reply under the lossy profile, and the 66 trials before it pass.
    let out = zcover(&[
        "trials",
        "--device",
        "D4",
        "--impairment",
        "lossy",
        "--trials",
        "67",
        "--hours",
        "0.005",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("trials failed at trial 66: controller did not answer the NIF request"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "failed trials printed a summary");
}

#[test]
fn a_failing_fuzz_campaign_exits_1_with_or_without_record() {
    // The seed trial 66 of `trials --seed 42` runs: D4 gets no NIF reply
    // under the lossy profile, so the active scan fails before fuzzing.
    let dir = tmp_dir("fuzzfail");
    let trace = dir.join("trace.zct");
    let base = [
        "fuzz",
        "--device",
        "D4",
        "--impairment",
        "lossy",
        "--hours",
        "0.005",
        "--seed",
        "18202012130042080084",
    ];
    let recorded = [&base[..], &["--record", trace.to_str().expect("utf-8 path")]].concat();
    for args in [&base[..], &recorded[..]] {
        let out = zcover(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("fuzz failed: controller did not answer the NIF request"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "a failed campaign printed a report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unwritable_output_paths_exit_2_naming_the_path() {
    // A path under a regular file can never be created.
    let dir = tmp_dir("unwritable");
    let file = dir.join("plain");
    std::fs::write(&file, b"").expect("temp file");
    let under = |name: &str| file.join(name).to_str().expect("utf-8 path").to_string();
    let (log, trace) = (under("bugs.txt"), under("trace.zct"));
    let fuzz = ["fuzz", "--device", "D1", "--hours", "0.005", "--seed", "11"];
    for (args, path) in [
        ([&fuzz[..], &["--log", &log]].concat(), &log),
        ([&fuzz[..], &["--record", &trace]].concat(), &trace),
        (vec!["trials", "--hours", "0.005", "--trials", "1", "--log", &log], &log),
    ] {
        let out = zcover(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(path.as_str()), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
