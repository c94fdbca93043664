//! The experiment bins share one strict flag parser: each accepts only the
//! flags it reads, and an unknown flag, a bad value or an unwritable
//! output path exits 2 naming it before the experiment runs, instead of
//! running it with its defaults.

use std::process::Command;

#[test]
fn bad_flags_exit_2_naming_them_before_any_work() {
    let dir = std::env::temp_dir().join(format!("zcover_bench_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("plain");
    std::fs::write(&file, b"").expect("temp file");
    let under = |name: &str| file.join(name).to_str().expect("utf-8 path").to_string();
    let (csv, out) = (under("csv"), under("BENCH_coverage.json"));
    for (exe, args, named) in [
        (env!("CARGO_BIN_EXE_table4"), &["--seed", "xyz"][..], "invalid --seed value \"xyz\""),
        (env!("CARGO_BIN_EXE_table2"), &["--seed", "1"], "unknown flag --seed"),
        (env!("CARGO_BIN_EXE_table3"), &["--seed", "5"], "unknown flag --seed"),
        (env!("CARGO_BIN_EXE_table4"), &["--paper"], "unknown flag --paper"),
        (env!("CARGO_BIN_EXE_table4"), &["--trials", "2"], "unknown flag --trials"),
        (env!("CARGO_BIN_EXE_table4"), &["--workers", "2"], "unknown flag --workers"),
        (env!("CARGO_BIN_EXE_table4"), &["--impairment", "lossy"], "unknown flag --impairment"),
        (env!("CARGO_BIN_EXE_table5"), &["--fast"], "unknown flag --fast"),
        (env!("CARGO_BIN_EXE_table6"), &["--hours", "-1"], "unknown flag --hours"),
        (env!("CARGO_BIN_EXE_table6"), &["--trials", "0"], "invalid --trials value \"0\""),
        (env!("CARGO_BIN_EXE_figure5"), &["--bogus"], "unknown flag --bogus"),
        (env!("CARGO_BIN_EXE_figure12"), &["--paper"], "unknown flag --paper"),
        (env!("CARGO_BIN_EXE_robustness"), &["--seed", "1"], "unknown flag --seed"),
        (env!("CARGO_BIN_EXE_bench_coverage"), &["--extended"], "unknown flag --extended"),
        (env!("CARGO_BIN_EXE_figure12"), &["--csv", &csv], &csv),
        (env!("CARGO_BIN_EXE_bench_coverage"), &["--smoke", "--out", &out], &out),
    ] {
        let out = Command::new(exe).args(args).output().expect("bin runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{exe} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} ran anyway");
    }
    std::fs::remove_dir_all(&dir).ok();
}
