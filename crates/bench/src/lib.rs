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
//! Pass `--paper` to table3, table5 and bench_coverage to run
//! the paper's full 24-hour virtual budgets instead of the fast defaults.

#![warn(missing_docs)]

pub mod experiments;
pub mod paperdata;
pub mod render;

use std::time::Duration;

use zcover::cli::{Args, CliError};
use zcover::ImpairmentProfile;

/// Logical CPUs available to this process — recorded in every benchmark
/// JSON so throughput and worker-efficiency numbers can be interpreted on
/// the machine that produced them.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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
    /// Reads the shared campaign flags from `args`; a flag the binary does
    /// not declare reads as absent. Binaries differ only in their default
    /// seed and trial count, so those are parameters. The budget is the
    /// paper's 24 hours with `--paper`, otherwise a fast 2 hours that
    /// reaches the same findings (the queue completes its first full pass
    /// well within two virtual hours).
    ///
    /// # Errors
    ///
    /// A [`CliError`] for a value that does not parse or a zero count.
    pub fn from_cli(args: &Args, default_seed: u64, default_trials: u64) -> Result<Self, CliError> {
        Ok(CampaignSpec {
            seed: args.num("--seed", default_seed)?,
            trials: args.count("--trials", default_trials)?,
            workers: args.count("--workers", 1)?,
            budget: Duration::from_secs(if args.switch("--paper") { 24 } else { 2 } * 3600),
            profile: args.choice(
                "--impairment",
                ImpairmentProfile::Clean,
                ImpairmentProfile::parse,
            )?,
        })
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
    use zcover::cli::Command;

    const CAMPAIGN: Command = Command {
        name: "table5",
        flags: &[
            "--seed N --trials N --workers N --paper --impairment clean|lossy|bursty|adversarial",
        ],
    };

    fn parse(args: &[&str]) -> Args {
        CAMPAIGN.parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn campaign_spec_parses_shared_flags_with_per_binary_defaults() {
        let args = parse(&["--trials", "5", "--workers", "4", "--impairment", "lossy"]);
        let spec = CampaignSpec::from_cli(&args, 12, 1).unwrap();
        assert_eq!(spec.seed, 12);
        assert_eq!(spec.trials, 5);
        assert_eq!(spec.workers, 4);
        assert_eq!(spec.budget.as_secs(), 7200);
        assert_eq!(spec.profile, ImpairmentProfile::Lossy);
        let spec = CampaignSpec::from_cli(&parse(&["--paper", "--seed", "9"]), 6, 3).unwrap();
        assert_eq!((spec.seed, spec.trials, spec.workers), (9, 3, 1));
        assert_eq!(spec.budget.as_secs(), 86400);
        assert_eq!(spec.profile, ImpairmentProfile::Clean);
        let banner = spec.banner("per device on D1-D7");
        assert!(banner.contains("3 trial(s)"));
        assert!(banner.contains("24h virtual per device on D1-D7"));
        for bad in [&["--trials", "0"][..], &["--workers", "x"], &["--impairment", "foggy"]] {
            assert!(CampaignSpec::from_cli(&parse(bad), 1, 1).is_err(), "{bad:?}");
        }
    }
}
