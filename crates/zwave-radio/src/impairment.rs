//! Deterministic fault injection for the simulated sub-GHz channel.
//!
//! Real Z-Wave deployments never see the clean medium the basic
//! [`crate::NoiseModel`] models: sub-GHz links lose frames in *bursts*
//! (fading, interfering appliances), duplicate them (MAC-level
//! retransmissions whose acks were lost), reorder them (mesh repeaters),
//! truncate them (collisions clipping the tail) and go dark entirely
//! (jamming, a vacuum cleaner parked on the band). This module makes those
//! conditions a first-class, composable, *deterministic* dimension of the
//! medium:
//!
//! - An [`ImpairmentSchedule`] is an ordered stack of [`ImpairmentStage`]s
//!   applied to every delivery.
//! - Every random draw derives from `(medium seed, frame index, receiver)`
//!   — never from call order — so a schedule's effect on frame *N* is
//!   independent of how many draws earlier frames consumed, and campaigns
//!   stay bit-identical across worker counts.
//! - Bursty loss uses a two-state Gilbert–Elliott channel whose state
//!   advances exactly once per transmitted frame.
//! - Blackout windows are scripted on the virtual clock, so "the channel
//!   dies for 30 s every half hour" is a pure function of simulated time.
//!
//! The named [`ImpairmentProfile`]s (`clean`, `lossy`, `bursty`,
//! `adversarial`) are the campaign-facing presets used by the fuzzing
//! harness's scenario matrix.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::splitmix64;

/// A two-state Gilbert–Elliott burst-loss channel.
///
/// The channel is either in the *good* state (losing frames with
/// [`GilbertElliott::loss_good`]) or the *bad* state (losing with
/// [`GilbertElliott::loss_bad`]); it flips between them with the given
/// transition probabilities, advanced once per transmitted frame. Burst
/// lengths are geometric: mean bad-burst length is `1 / p_bad_to_good`
/// frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of entering the bad state from the good state.
    pub p_good_to_bad: f64,
    /// Probability of recovering to the good state from the bad state.
    pub p_bad_to_good: f64,
    /// Per-frame loss probability while in the good state.
    pub loss_good: f64,
    /// Per-frame loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            return 0.0;
        }
        self.p_good_to_bad / denom
    }

    /// Long-run frame-loss rate: the stationary mixture of the two
    /// per-state loss probabilities.
    pub fn long_run_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
    }

    /// Advances the channel state for one frame; returns the new state.
    pub(crate) fn step<R: Rng>(&self, bad: bool, rng: &mut R) -> bool {
        if bad {
            !(self.p_bad_to_good > 0.0 && rng.gen_bool(self.p_bad_to_good.min(1.0)))
        } else {
            self.p_good_to_bad > 0.0 && rng.gen_bool(self.p_good_to_bad.min(1.0))
        }
    }

    /// Rolls whether the current frame is lost in state `bad`.
    pub(crate) fn roll_loss<R: Rng>(&self, bad: bool, rng: &mut R) -> bool {
        let p = if bad { self.loss_bad } else { self.loss_good };
        p > 0.0 && rng.gen_bool(p.min(1.0))
    }
}

/// One composable channel impairment. Stages are evaluated in schedule
/// order against each per-receiver delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImpairmentStage {
    /// Independent (i.i.d.) frame loss with the given probability.
    Loss {
        /// Per-delivery drop probability.
        probability: f64,
    },
    /// Bursty loss through a [`GilbertElliott`] channel. The channel state
    /// is shared by all receivers and advances once per transmitted frame.
    BurstyLoss(GilbertElliott),
    /// Deliver an extra back-to-back copy of the frame with the given
    /// probability (a MAC retransmission whose ack was lost). The copy is
    /// byte-identical to the delivered frame — duplication never invents
    /// payload bytes.
    Duplicate {
        /// Per-delivery duplication probability.
        probability: f64,
    },
    /// With the given probability, deliver the frame *ahead* of up to
    /// `window` frames already queued at the receiver. A frame is never
    /// displaced by more than `window` positions.
    Reorder {
        /// Per-delivery reorder probability.
        probability: f64,
        /// Maximum displacement, in queue positions.
        window: usize,
    },
    /// Truncate the frame to a strict prefix with the given probability (a
    /// collision clipping the tail; at least one byte survives).
    Truncate {
        /// Per-delivery truncation probability.
        probability: f64,
    },
    /// Flip one random bit of the frame with the given probability.
    BitFlip {
        /// Per-delivery corruption probability.
        probability: f64,
    },
    /// Scripted channel blackout: starting at `first_start` and repeating
    /// every `every`, the channel delivers nothing for `length`. With
    /// `every == Duration::ZERO` the blackout happens exactly once.
    Blackout {
        /// Virtual time of the first blackout window's start.
        first_start: Duration,
        /// Repetition period; `Duration::ZERO` means a one-shot window.
        every: Duration,
        /// Duration of each blackout window.
        length: Duration,
    },
}

impl ImpairmentStage {
    /// Whether the stage blacks out the channel at virtual time
    /// `now_micros`.
    pub(crate) fn blacked_out(&self, now_micros: u64) -> bool {
        let ImpairmentStage::Blackout { first_start, every, length } = self else {
            return false;
        };
        let start = first_start.as_micros() as u64;
        if now_micros < start {
            return false;
        }
        let len = length.as_micros() as u64;
        let period = every.as_micros() as u64;
        if period == 0 {
            return now_micros - start < len;
        }
        (now_micros - start) % period < len
    }
}

/// An ordered, composable stack of channel impairments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpairmentSchedule {
    stages: Vec<ImpairmentStage>,
}

impl ImpairmentSchedule {
    /// The empty schedule: a perfectly clean channel.
    pub fn clean() -> Self {
        ImpairmentSchedule::default()
    }

    /// Appends a stage (builder style).
    #[must_use]
    pub fn with(mut self, stage: ImpairmentStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// The configured stages, in application order.
    pub(crate) fn stages(&self) -> &[ImpairmentStage] {
        &self.stages
    }

    /// Whether the schedule impairs anything at all.
    pub(crate) fn is_clean(&self) -> bool {
        self.stages.is_empty()
    }

    /// Whether any blackout stage covers virtual time `now_micros`.
    pub(crate) fn blacked_out(&self, now_micros: u64) -> bool {
        self.stages.iter().any(|s| s.blacked_out(now_micros))
    }

    /// The Gilbert–Elliott channel of the first bursty-loss stage, if any.
    pub(crate) fn gilbert_elliott(&self) -> Option<GilbertElliott> {
        self.stages.iter().find_map(|s| match s {
            ImpairmentStage::BurstyLoss(ge) => Some(*ge),
            _ => None,
        })
    }
}

/// Named channel scenarios for campaign matrices. Every profile expands to
/// a fixed [`ImpairmentSchedule`], so `(seed, profile)` fully determines a
/// campaign's channel behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ImpairmentProfile {
    /// The bench channel the paper measures on: no impairments.
    #[default]
    Clean,
    /// Flat 15 % i.i.d. loss, occasional duplicates and bit flips — a busy
    /// but functional RF environment.
    Lossy,
    /// Gilbert–Elliott burst loss (~11 % long-run) plus mild reordering —
    /// fading and a mesh repeater.
    Bursty,
    /// Everything at once: burst loss, duplication, reordering,
    /// truncation, bit flips, and a 30 s channel blackout every half hour
    /// (first at t = 10 min) — an active jammer sharing the band.
    Adversarial,
}

impl ImpairmentProfile {
    /// All profiles, in matrix order.
    pub fn all() -> [ImpairmentProfile; 4] {
        [
            ImpairmentProfile::Clean,
            ImpairmentProfile::Lossy,
            ImpairmentProfile::Bursty,
            ImpairmentProfile::Adversarial,
        ]
    }

    /// The profile's canonical lowercase name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ImpairmentProfile::Clean => "clean",
            ImpairmentProfile::Lossy => "lossy",
            ImpairmentProfile::Bursty => "bursty",
            ImpairmentProfile::Adversarial => "adversarial",
        }
    }

    /// Parses a profile name (case-insensitive).
    pub fn parse(name: &str) -> Option<ImpairmentProfile> {
        ImpairmentProfile::all().into_iter().find(|p| p.name().eq_ignore_ascii_case(name))
    }

    /// The Gilbert–Elliott channel shared by the bursty-ish profiles.
    fn burst_channel() -> GilbertElliott {
        GilbertElliott { p_good_to_bad: 0.05, p_bad_to_good: 0.40, loss_good: 0.01, loss_bad: 0.90 }
    }

    /// Expands the profile to its impairment schedule.
    pub fn schedule(self) -> ImpairmentSchedule {
        match self {
            ImpairmentProfile::Clean => ImpairmentSchedule::clean(),
            ImpairmentProfile::Lossy => ImpairmentSchedule::clean()
                .with(ImpairmentStage::Loss { probability: 0.15 })
                .with(ImpairmentStage::BitFlip { probability: 0.02 })
                .with(ImpairmentStage::Duplicate { probability: 0.02 }),
            ImpairmentProfile::Bursty => ImpairmentSchedule::clean()
                .with(ImpairmentStage::BurstyLoss(ImpairmentProfile::burst_channel()))
                .with(ImpairmentStage::Reorder { probability: 0.05, window: 2 }),
            ImpairmentProfile::Adversarial => ImpairmentSchedule::clean()
                .with(ImpairmentStage::BurstyLoss(ImpairmentProfile::burst_channel()))
                .with(ImpairmentStage::Truncate { probability: 0.03 })
                .with(ImpairmentStage::BitFlip { probability: 0.05 })
                .with(ImpairmentStage::Duplicate { probability: 0.05 })
                .with(ImpairmentStage::Reorder { probability: 0.08, window: 3 })
                .with(ImpairmentStage::Blackout {
                    first_start: Duration::from_secs(600),
                    every: Duration::from_secs(1800),
                    length: Duration::from_secs(30),
                }),
        }
    }
}

impl std::fmt::Display for ImpairmentProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The RNG for draws that happen once per transmitted frame (channel-state
/// transitions): a pure function of `(seed, frame_index)`.
pub(crate) fn frame_rng(seed: u64, frame_index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(frame_index)))
}

/// The RNG for per-receiver delivery draws (loss, corruption, duplication,
/// reordering, truncation): a pure function of `(seed, frame_index,
/// receiver)`, so receivers never perturb each other's outcomes.
pub(crate) fn delivery_rng(seed: u64, frame_index: u64, receiver: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        seed ^ splitmix64(frame_index) ^ splitmix64(receiver.wrapping_add(0x5EED)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_probability_matches_transition_ratio() {
        let ge = GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.40,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!((ge.stationary_bad() - 0.05 / 0.45).abs() < 1e-12);
        assert!((ge.long_run_loss() - 0.05 / 0.45).abs() < 1e-12);
    }

    #[test]
    fn degenerate_channel_is_never_bad() {
        let ge = GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert_eq!(ge.stationary_bad(), 0.0);
        let mut rng = frame_rng(1, 1);
        assert!(!ge.step(false, &mut rng));
    }

    #[test]
    fn blackout_windows_are_periodic_on_the_virtual_clock() {
        let stage = ImpairmentStage::Blackout {
            first_start: Duration::from_secs(600),
            every: Duration::from_secs(1800),
            length: Duration::from_secs(30),
        };
        let s = |secs: u64| secs * 1_000_000;
        assert!(!stage.blacked_out(s(0)));
        assert!(!stage.blacked_out(s(599)));
        assert!(stage.blacked_out(s(600)));
        assert!(stage.blacked_out(s(629)));
        assert!(!stage.blacked_out(s(630)));
        assert!(stage.blacked_out(s(2400))); // 600 + 1800
        assert!(!stage.blacked_out(s(2430)));
    }

    #[test]
    fn one_shot_blackout_never_repeats() {
        let stage = ImpairmentStage::Blackout {
            first_start: Duration::from_secs(10),
            every: Duration::ZERO,
            length: Duration::from_secs(5),
        };
        assert!(stage.blacked_out(12_000_000));
        assert!(!stage.blacked_out(16_000_000));
        assert!(!stage.blacked_out(2_000_000_000));
    }

    #[test]
    fn profiles_roundtrip_names() {
        for profile in ImpairmentProfile::all() {
            assert_eq!(ImpairmentProfile::parse(profile.name()), Some(profile));
            assert_eq!(profile.to_string(), profile.name());
        }
        assert_eq!(ImpairmentProfile::parse("LOSSY"), Some(ImpairmentProfile::Lossy));
        assert_eq!(ImpairmentProfile::parse("martian"), None);
    }

    #[test]
    fn clean_profile_is_the_empty_schedule() {
        assert!(ImpairmentProfile::Clean.schedule().is_clean());
        assert!(!ImpairmentProfile::Adversarial.schedule().is_clean());
    }

    #[test]
    fn per_frame_rngs_are_independent_of_draw_counts() {
        // Frame 7's stream is the same however many draws frame 6 took.
        let mut a = frame_rng(42, 7);
        let mut b = frame_rng(42, 7);
        let _ = frame_rng(42, 6).gen_range(0..1000);
        assert_eq!(a.gen_range(0..u64::MAX), b.gen_range(0..u64::MAX));
        // Distinct frames and receivers get distinct streams.
        assert_ne!(
            frame_rng(42, 7).gen_range(0..u64::MAX),
            frame_rng(42, 8).gen_range(0..u64::MAX)
        );
        assert_ne!(
            delivery_rng(42, 7, 0).gen_range(0..u64::MAX),
            delivery_rng(42, 7, 1).gen_range(0..u64::MAX)
        );
    }
}
