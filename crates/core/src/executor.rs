//! Deterministic parallel campaign executor.
//!
//! The paper's evaluation repeats every campaign over several
//! independently-seeded trials ("five 24-hour fuzzing trials for each
//! controller", Section IV). Trials are embarrassingly parallel — each one
//! builds its own simulated radio medium, clock, and testbed — so this
//! module fans them out across a small worker pool while keeping the
//! result **bit-identical to the sequential path**:
//!
//! - Every trial's seed is a pure function of `(campaign_seed, trial)`
//!   via [`derive_trial_seed`] (a splitmix64 stream over the campaign
//!   seed), never of worker identity or claim order.
//! - Workers claim trial indices from an atomic counter and write each
//!   result into that trial's dedicated slot; the merge then reads the
//!   slots in trial-index order. Scheduling decides only *when* a trial
//!   runs, never what it computes or where its result lands.
//!
//! Consequently `CampaignExecutor::new(n).run(...)` returns the same
//! [`TrialSummary`] for every `n`, which the determinism regression test
//! in `tests/executor_determinism.rs` pins.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::fuzzer::FuzzConfig;
use crate::target::FuzzTarget;
use crate::trace::run_maybe_recorded;
use crate::trials::TrialSummary;
use crate::ZCoverError;

/// The per-trial seed: output `trial + 1` of a splitmix64 stream whose
/// state starts at `campaign_seed`. A closed form rather than an iterated
/// generator, so any trial's seed is computable independently — the
/// property that lets workers claim trials in any order.
///
/// Unlike the former `campaign_seed + trial` scheme, nearby campaign seeds
/// do not share trial seeds (campaign 7 trial 0 vs campaign 6 trial 1),
/// so sweeps over campaign seeds never silently rerun the same trial.
pub fn derive_trial_seed(campaign_seed: u64, trial: u64) -> u64 {
    zwave_radio::splitmix64(campaign_seed.wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Where (and how) a multi-trial run records its traces: each trial gets
/// its own file, `{prefix}.trial{N}.{ext}`, written by whichever worker
/// runs the trial. The prefix's own extension picks the format: `.zct`
/// records the compact binary format, anything else (including no
/// extension) the JSONL one. Because a trial's journal is a pure function
/// of its derived seed, the files are identical for any worker count —
/// trials recorded in parallel merge (or replay) exactly like sequential
/// ones.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Device model index recorded in each header (`D1`..`D7`).
    pub device: String,
    /// Path prefix for the per-trial files (a `.jsonl` or `.zct` suffix,
    /// if present, is stripped and selects the per-trial file format).
    pub prefix: PathBuf,
}

impl TraceSpec {
    /// The trace file path for `trial`.
    pub fn trial_path(&self, trial: u64) -> PathBuf {
        let mut base = self.prefix.clone();
        let ext = match base.extension().and_then(|e| e.to_str()) {
            Some("zct") => "zct",
            _ => "jsonl",
        };
        if base.extension().is_some_and(|e| e == "jsonl" || e == "zct") {
            base.set_extension("");
        }
        let stem = base.to_string_lossy().into_owned();
        PathBuf::from(format!("{stem}.trial{trial}.{ext}"))
    }
}

/// A worker pool running independent fuzzing trials and merging their
/// results deterministically.
#[derive(Debug, Clone, Copy)]
pub struct CampaignExecutor {
    workers: usize,
}

impl CampaignExecutor {
    /// An executor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        CampaignExecutor { workers: workers.max(1) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `trials` independent campaigns and merges them into a
    /// [`TrialSummary`]. `make_target` builds a fresh target (own medium,
    /// own clock) for a trial seed derived via [`derive_trial_seed`]; the
    /// fuzz configuration is `base_config` with that seed substituted.
    ///
    /// The merged summary is identical for any worker count.
    ///
    /// # Errors
    ///
    /// When trials fail, returns [`ZCoverError::Trial`] for the
    /// lowest-indexed failing trial (again independent of scheduling).
    pub fn run<T, F>(
        &self,
        trials: u64,
        campaign_seed: u64,
        make_target: F,
        base_config: &FuzzConfig,
    ) -> Result<TrialSummary, ZCoverError>
    where
        T: FuzzTarget,
        F: Fn(u64) -> T + Sync,
    {
        self.run_with_trace(trials, campaign_seed, make_target, base_config, None)
    }

    /// [`CampaignExecutor::run`], optionally recording every trial to its
    /// own trace file per `trace` (see [`TraceSpec`]). Recording does not
    /// perturb the campaigns: the merged summary is bit-identical with or
    /// without it, for any worker count.
    ///
    /// # Errors
    ///
    /// As [`CampaignExecutor::run`], plus [`ZCoverError::TraceIo`] when a
    /// trace file cannot be written.
    pub fn run_with_trace<T, F>(
        &self,
        trials: u64,
        campaign_seed: u64,
        make_target: F,
        base_config: &FuzzConfig,
        trace: Option<&TraceSpec>,
    ) -> Result<TrialSummary, ZCoverError>
    where
        T: FuzzTarget,
        F: Fn(u64) -> T + Sync,
    {
        // One complete trial per index: fresh target, fingerprint,
        // discovery, campaign — journaled to the trial's own file when
        // recording, exactly as `zcover fuzz --record` would.
        let results = self.map_indexed(trials, |trial| {
            let seed = derive_trial_seed(campaign_seed, trial);
            let config = FuzzConfig { seed, ..base_config.clone() };
            let record = trace.map(|spec| (spec.device.as_str(), spec.trial_path(trial)));
            run_maybe_recorded(&mut make_target(seed), config, record)
        });
        // Merge in trial-index order; the first failing trial's error wins
        // independent of which worker finished when.
        let per_trial = results
            .into_iter()
            .zip(0u64..)
            .map(|(outcome, trial)| {
                outcome.map_err(|source| ZCoverError::Trial { trial, source: Box::new(source) })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TrialSummary::from_trials(per_trial))
    }

    /// The claim/slot discipline underneath [`CampaignExecutor::run`],
    /// generalized: runs `job(0..count)` across the worker pool and
    /// returns the results in index order. Workers claim indices from an
    /// atomic counter and write into per-index slots, so scheduling
    /// decides only *when* a job runs, never what it computes or where
    /// its result lands — the output is identical for any worker count
    /// (provided `job` itself depends only on its index). The sharded
    /// sweep runs its shards through this same pool.
    pub fn map_indexed<R, J>(&self, count: u64, job: J) -> Vec<R>
    where
        R: Send,
        J: Fn(u64) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
        let pool_size = self.workers.min(count.max(1) as usize);
        if pool_size <= 1 {
            for (index, slot) in slots.iter().enumerate() {
                *slot.lock() = Some(job(index as u64));
            }
        } else {
            let next = AtomicU64::new(0);
            crossbeam::thread::scope(|scope| {
                for _ in 0..pool_size {
                    scope.spawn(|_| loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        let outcome = job(index);
                        *slots[index as usize].lock() = Some(outcome);
                    });
                }
            })
            .expect("worker pool");
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every claimed index stores a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_deterministic_and_distinct() {
        let seeds: Vec<u64> = (0..100).map(|t| derive_trial_seed(42, t)).collect();
        assert_eq!(seeds, (0..100).map(|t| derive_trial_seed(42, t)).collect::<Vec<u64>>());
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn nearby_campaign_seeds_do_not_alias_trials() {
        // The old additive scheme had derive(7, 0) == derive(6, 1); the
        // splitmix stream must not.
        for base in [0u64, 6, 41, u64::MAX - 3] {
            assert_ne!(
                derive_trial_seed(base.wrapping_add(1), 0),
                derive_trial_seed(base, 1),
                "aliasing at campaign seed {base}"
            );
        }
    }

    #[test]
    fn map_indexed_returns_results_in_index_order() {
        for workers in [1usize, 2, 4] {
            let got = CampaignExecutor::new(workers).map_indexed(17, |i| i * i);
            assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<u64>>(), "{workers} workers");
        }
        assert!(CampaignExecutor::new(4).map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn trace_spec_extension_selects_the_per_trial_format() {
        let spec =
            |prefix: &str| TraceSpec { device: "D1".to_string(), prefix: PathBuf::from(prefix) };
        assert_eq!(spec("out.jsonl").trial_path(2), PathBuf::from("out.trial2.jsonl"));
        assert_eq!(spec("out").trial_path(0), PathBuf::from("out.trial0.jsonl"));
        assert_eq!(spec("out.zct").trial_path(3), PathBuf::from("out.trial3.zct"));
    }

    /// A flat D1 testbed that, for the seeds in `silent`, never produces
    /// the normal traffic fingerprinting listens for.
    struct Flaky {
        net: zwave_controller::HomeNetwork,
        silent: bool,
    }

    impl FuzzTarget for Flaky {
        fn medium(&self) -> &zwave_radio::Medium {
            self.net.medium()
        }

        fn pump(&mut self) {
            self.net.pump();
        }

        fn take_faults(&mut self) -> Vec<zwave_controller::FaultRecord> {
            self.net.controller_mut().take_new_faults()
        }

        fn generate_normal_traffic(&mut self) {
            if !self.silent {
                self.net.exchange_normal_traffic();
            }
        }
    }

    #[test]
    fn the_lowest_failing_trial_is_named_in_the_error() {
        use std::time::Duration;
        use zwave_controller::testbed::{DeviceModel, Testbed};

        let silent = [derive_trial_seed(9, 1), derive_trial_seed(9, 3)];
        let config = FuzzConfig::full(Duration::from_secs(5), 9);
        for workers in [1usize, 2] {
            let err = CampaignExecutor::new(workers)
                .run(
                    4,
                    9,
                    |seed| Flaky {
                        net: Testbed::new(DeviceModel::D1, seed),
                        silent: silent.contains(&seed),
                    },
                    &config,
                )
                .unwrap_err();
            assert_eq!(
                err,
                ZCoverError::Trial { trial: 1, source: Box::new(ZCoverError::NoTraffic) },
                "{workers} workers"
            );
            assert_eq!(err.to_string(), "trial 1: passive scanning observed no z-wave traffic");
        }
    }

    #[test]
    fn executor_clamps_workers() {
        assert_eq!(CampaignExecutor::new(0).workers(), 1);
        assert_eq!(CampaignExecutor::new(8).workers(), 8);
    }
}
