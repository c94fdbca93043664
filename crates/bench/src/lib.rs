//! Experiment harness regenerating every table and figure of the ZCover
//! paper's evaluation section.
//!
//! Each experiment is a library function the per-table binaries share:
//!
//! | Target | Regenerates |
//! |---|---|
//! | `cargo run -p zcover-bench --release --bin table2` | Table II (testbed) |
//! | `cargo run -p zcover-bench --release --bin table3` | Table III (zero-days) |
//! | `cargo run -p zcover-bench --release --bin table4` | Table IV (fingerprinting) |
//! | `cargo run -p zcover-bench --release --bin table5` | Table V (vs VFuzz) |
//! | `cargo run -p zcover-bench --release --bin table6` | Table VI (ablation) |
//! | `cargo run -p zcover-bench --release --bin figure5` | Figure 5 (CMD distribution) |
//! | `cargo run -p zcover-bench --release --bin figure12` | Figure 12 (detection over time) |
//!
//! Pass `--paper` to the campaign-driven binaries (table3/table5) to run
//! the paper's full 24-hour virtual budgets instead of the fast defaults.

#![warn(missing_docs)]

pub mod experiments;
pub mod paperdata;
pub mod render;

use std::time::Duration;

/// Returns the fuzzing budget for campaign binaries: the paper's 24 hours
/// with `--paper` in `args`, otherwise a fast 2-hour budget that reaches
/// the same findings (the queue completes its first full pass well within
/// two virtual hours).
pub fn budget_from_args(args: &[String]) -> Duration {
    if args.iter().any(|a| a == "--paper") {
        Duration::from_secs(24 * 3600)
    } else {
        Duration::from_secs(2 * 3600)
    }
}

/// Logical CPUs available to this process — recorded in every benchmark
/// JSON so throughput and worker-efficiency numbers can be interpreted on
/// the machine that produced them.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses `--name N` from `args`, falling back to `default` when the flag
/// is absent. An unparsable value exits with status 2 naming the flag and
/// the value.
pub fn u64_flag(args: &[String], name: &str, default: u64) -> u64 {
    match args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)) {
        None => default,
        Some(value) => value.parse().unwrap_or_else(|_| {
            eprintln!("invalid {name} value {value:?}; expected a number");
            std::process::exit(2);
        }),
    }
}

/// Parses `--impairment NAME` from `args` (default: the clean channel),
/// exiting with a usage error on an unknown profile name.
pub fn impairment_from_args(args: &[String]) -> zcover::ImpairmentProfile {
    let name = args
        .iter()
        .position(|a| a == "--impairment")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "clean".to_string());
    zcover::ImpairmentProfile::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown impairment profile {name}; expected clean|lossy|bursty|adversarial");
        std::process::exit(2);
    })
}

/// Campaign-wide knobs shared by the per-table binaries — seed, trial
/// count, worker pool, virtual budget and channel profile — parsed once
/// instead of each binary repeating the flag plumbing.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Base campaign seed (`--seed N`).
    pub seed: u64,
    /// Trials per configuration (`--trials N`).
    pub trials: u64,
    /// Worker threads for the campaign executor (`--workers N`).
    pub workers: usize,
    /// Virtual fuzzing budget (`--paper` selects the 24-hour budget).
    pub budget: Duration,
    /// Channel impairment profile (`--impairment NAME`).
    pub profile: zcover::ImpairmentProfile,
}

impl CampaignSpec {
    /// Parses the shared campaign flags from `args`. Binaries differ only
    /// in their default seed and trial count, so those are parameters.
    pub fn from_args(args: &[String], default_seed: u64, default_trials: u64) -> Self {
        CampaignSpec {
            seed: u64_flag(args, "--seed", default_seed),
            trials: u64_flag(args, "--trials", default_trials),
            workers: u64_flag(args, "--workers", 1) as usize,
            budget: budget_from_args(args),
            profile: impairment_from_args(args),
        }
    }

    /// One-line progress banner describing the campaign about to run.
    pub fn banner(&self, scope: &str) -> String {
        format!(
            "running {} trial(s) x {:.0}h virtual {} across {} worker(s), {} channel ...",
            self.trials,
            self.budget.as_secs_f64() / 3600.0,
            scope,
            self.workers,
            self.profile
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_spec_parses_shared_flags_with_per_binary_defaults() {
        let args: Vec<String> = ["--trials", "5", "--workers", "4", "--impairment", "lossy"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let spec = CampaignSpec::from_args(&args, 12, 1);
        assert_eq!(spec.seed, 12);
        assert_eq!(spec.trials, 5);
        assert_eq!(spec.workers, 4);
        assert_eq!(spec.budget.as_secs(), 7200);
        assert_eq!(spec.profile, zcover::ImpairmentProfile::Lossy);
        let paper: Vec<String> = ["--paper", "--seed", "9"].iter().map(|s| s.to_string()).collect();
        let spec = CampaignSpec::from_args(&paper, 6, 3);
        assert_eq!((spec.seed, spec.trials, spec.workers), (9, 3, 1));
        assert_eq!(spec.budget.as_secs(), 86400);
        let banner = spec.banner("per device on D1-D7");
        assert!(banner.contains("3 trial(s)"));
        assert!(banner.contains("24h virtual per device on D1-D7"));
    }

    #[test]
    fn budget_flag() {
        assert_eq!(budget_from_args(&[]).as_secs(), 7200);
        assert_eq!(budget_from_args(&["--paper".into()]).as_secs(), 86400);
    }

    #[test]
    fn u64_flag_parses_and_defaults() {
        let args: Vec<String> = ["--trials", "4"].iter().map(|s| s.to_string()).collect();
        assert_eq!(u64_flag(&args, "--trials", 1), 4);
        assert_eq!(u64_flag(&args, "--seed", 6), 6);
    }

    #[test]
    fn impairment_flag_defaults_to_clean_and_parses_names() {
        assert_eq!(impairment_from_args(&[]), zcover::ImpairmentProfile::Clean);
        let args: Vec<String> = ["--impairment", "Bursty"].iter().map(|s| s.to_string()).collect();
        assert_eq!(impairment_from_args(&args), zcover::ImpairmentProfile::Bursty);
    }
}
