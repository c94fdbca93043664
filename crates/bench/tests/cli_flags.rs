//! The experiment bins share one flag parser: a numeric flag whose value
//! does not parse must exit 2 naming the flag and the value, not run the
//! experiment with its default.

use std::process::Command;

#[test]
fn unparsable_numeric_flag_exits_2_naming_flag_and_value() {
    let out = Command::new(env!("CARGO_BIN_EXE_table4"))
        .args(["--seed", "xyz"])
        .output()
        .expect("table4 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--seed") && stderr.contains("xyz"), "{stderr}");
    assert!(out.stdout.is_empty(), "table4 ran with a default seed");
}
