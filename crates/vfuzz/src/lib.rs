//! A VFuzz-style baseline fuzzer for the Table V comparison.
//!
//! VFuzz (Nkuba et al., IEEE Access 2022) targets the *MAC frame* of
//! Z-Wave packets: it seeds from captured traffic and mutates MAC-layer
//! fields — source, frame control, length, destination, checksum and raw
//! payload bytes — without the application-layer structure awareness that
//! ZCover adds. As Section IV-C of the ZCover paper observes, this has two
//! consequences reproduced here:
//!
//! * coverage is indiscriminate (all 256 CMDCL and CMD byte values appear
//!   in generated frames), but "many of the test packets ... failed to
//!   assess the application layer" — mutated frames rarely carry a valid
//!   checksum, so they die at MAC validation;
//! * the bugs it does find are *pre-parse* robustness faults (the one-day
//!   MAC quirks of `zwave_controller::vulns`), disjoint from ZCover's
//!   fifteen application-layer vulnerabilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use zwave_radio::SimInstant;

pub use zcover::buglog::{BugLog, VulnFinding};
use zcover::dongle::{Dongle, PingOutcome};
use zcover::passive::ScanReport;
use zcover::target::FuzzTarget;

/// VFuzz campaign configuration.
#[derive(Debug, Clone)]
pub struct VFuzzConfig {
    /// Total campaign budget.
    pub testing_duration: Duration,
    /// RNG seed.
    pub seed: u64,
    /// How many mutation operations to stack per test frame (1..=n).
    pub max_ops_per_frame: u32,
}

impl VFuzzConfig {
    /// The configuration used in the paper's comparison: 24-hour trials.
    pub fn comparison(testing_duration: Duration, seed: u64) -> Self {
        VFuzzConfig { testing_duration, seed, max_ops_per_frame: 3 }
    }
}

/// Outcome of a VFuzz campaign.
#[derive(Debug, Clone)]
pub struct VFuzzResult {
    /// Frames injected.
    pub packets_sent: u64,
    /// Unique verified findings.
    pub findings: Vec<VulnFinding>,
    /// Distinct CMDCL bytes appearing at the APL position of generated
    /// frames (Table V counts the *generated* range: 256).
    pub cmdcl_coverage: BTreeSet<u8>,
    /// Distinct CMD bytes appearing at the APL position of generated
    /// frames.
    pub cmd_coverage: BTreeSet<u8>,
    /// Campaign start.
    pub started: SimInstant,
    /// Campaign end.
    pub ended: SimInstant,
}

impl VFuzzResult {
    /// Number of unique vulnerabilities found.
    pub fn unique_vulns(&self) -> usize {
        self.findings.len()
    }
}

/// The MAC-layer mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MacOp {
    SetSrc,
    SetP1,
    SetP2,
    SetLen,
    SetDst,
    SetChecksum,
    FlipPayloadByte,
    Truncate,
    Append,
}

const MAC_OPS: [MacOp; 9] = [
    MacOp::SetSrc,
    MacOp::SetP1,
    MacOp::SetP2,
    MacOp::SetLen,
    MacOp::SetDst,
    MacOp::SetChecksum,
    MacOp::FlipPayloadByte,
    MacOp::Truncate,
    MacOp::Append,
];

/// The baseline fuzzer.
#[derive(Debug)]
pub struct VFuzz {
    config: VFuzzConfig,
}

impl VFuzz {
    /// Creates a baseline fuzzer.
    pub fn new(config: VFuzzConfig) -> Self {
        VFuzz { config }
    }

    /// Runs a campaign: mutate corpus frames at the MAC layer, inject,
    /// monitor liveness, and log verified faults. `corpus` holds raw
    /// captured frames (all sharing the target's home id); when empty, a
    /// synthetic Basic Set frame is used.
    pub fn run<T: FuzzTarget>(
        &self,
        target: &mut T,
        dongle: &mut Dongle,
        scan: &ScanReport,
        corpus: &[Vec<u8>],
    ) -> VFuzzResult {
        let clock = target.medium().clock().clone();
        let started = clock.now();
        let deadline = started.plus(self.config.testing_duration);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut log = BugLog::new();
        let mut packets = 0u64;
        let mut cmdcl_coverage = BTreeSet::new();
        let mut cmd_coverage = BTreeSet::new();

        let fallback = zwave_protocol::MacFrame::singlecast(
            scan.home_id,
            scan.spoof_source(),
            scan.controller,
            vec![0x20, 0x01, 0xFF],
        )
        .encode();
        let corpus: Vec<&Vec<u8>> = corpus.iter().collect();

        while clock.now() < deadline {
            let mut frame =
                corpus.choose(&mut rng).map(|f| (*f).clone()).unwrap_or_else(|| fallback.clone());
            let ops = rng.gen_range(1..=self.config.max_ops_per_frame);
            for _ in 0..ops {
                self.apply_op(&mut rng, &mut frame);
            }
            // Generated-coverage bookkeeping at the APL byte positions.
            if let Some(&cc) = frame.get(9) {
                cmdcl_coverage.insert(cc);
            }
            if let Some(&cmd) = frame.get(10) {
                cmd_coverage.insert(cmd);
            }

            dongle.flush();
            dongle.inject_raw(&frame);
            target.pump();
            dongle.wait_for_responses();
            target.pump();
            packets += 1;

            for fault in target.take_faults() {
                log.record(&fault, packets);
            }

            // Liveness probe; wait out brief outages.
            dongle.send_ping(scan.home_id, scan.spoof_source(), scan.controller);
            target.pump();
            if dongle.check_ping(scan.controller) == PingOutcome::Unresponsive {
                for _ in 0..300 {
                    clock.advance(Duration::from_secs(1));
                    dongle.send_ping(scan.home_id, scan.spoof_source(), scan.controller);
                    target.pump();
                    if dongle.check_ping(scan.controller) == PingOutcome::Alive {
                        break;
                    }
                }
            }
        }

        VFuzzResult {
            packets_sent: packets,
            findings: log.findings().to_vec(),
            cmdcl_coverage,
            cmd_coverage,
            started,
            ended: clock.now(),
        }
    }

    fn apply_op(&self, rng: &mut StdRng, frame: &mut Vec<u8>) {
        if frame.len() < 10 {
            frame.resize(10, 0);
        }
        match *MAC_OPS.choose(rng).expect("non-empty") {
            MacOp::SetSrc => frame[4] = rng.gen(),
            MacOp::SetP1 => frame[5] = rng.gen(),
            MacOp::SetP2 => frame[6] = rng.gen(),
            MacOp::SetLen => frame[7] = rng.gen(),
            MacOp::SetDst => frame[8] = rng.gen(),
            MacOp::SetChecksum => {
                let last = frame.len() - 1;
                frame[last] = rng.gen();
            }
            MacOp::FlipPayloadByte => {
                let idx = rng.gen_range(9..frame.len());
                frame[idx] ^= rng.gen_range(1..=255u8);
            }
            MacOp::Truncate => {
                // Keep at least the home id so the frame is attributable.
                let new_len = rng.gen_range(4..frame.len().max(5));
                frame.truncate(new_len);
            }
            MacOp::Append => {
                let extra = rng.gen_range(1..=4);
                for _ in 0..extra {
                    frame.push(rng.gen());
                }
                frame.truncate(64);
            }
        }
    }
}

/// Captures a seed corpus for VFuzz by sniffing rounds of normal traffic.
pub fn capture_corpus<T: FuzzTarget>(target: &mut T, rounds: usize) -> Vec<Vec<u8>> {
    let sniffer = target.medium().attach(70.0);
    sniffer.set_promiscuous(true);
    let mut corpus = Vec::new();
    for _ in 0..rounds {
        target.generate_normal_traffic();
        corpus.extend(sniffer.drain().into_iter().map(|f| f.bytes.to_vec()));
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcover::passive::PassiveScanner;
    use zwave_controller::testbed::{DeviceModel, Testbed};
    use zwave_controller::HomeNetwork;

    fn prepare(model: DeviceModel, seed: u64) -> (HomeNetwork, Dongle, ScanReport, Vec<Vec<u8>>) {
        let mut tb = Testbed::new(model, seed);
        let mut passive = PassiveScanner::new(tb.medium(), 70.0);
        let corpus = capture_corpus(&mut tb, 3);
        let scan = passive.analyze().unwrap();
        let dongle = Dongle::attach(tb.medium(), 70.0);
        (tb, dongle, scan, corpus)
    }

    fn run_hours(model: DeviceModel, hours: u64, seed: u64) -> VFuzzResult {
        let (mut tb, mut dongle, scan, corpus) = prepare(model, seed);
        let vfuzz = VFuzz::new(VFuzzConfig::comparison(Duration::from_secs(hours * 3600), seed));
        vfuzz.run(&mut tb, &mut dongle, &scan, &corpus)
    }

    #[test]
    fn corpus_capture_collects_real_frames() {
        let (_tb, _dongle, scan, corpus) = prepare(DeviceModel::D1, 1);
        assert!(!corpus.is_empty());
        assert!(corpus.iter().all(|f| f[..4] == scan.home_id.to_bytes()));
    }

    #[test]
    fn vfuzz_finds_the_mac_quirks_on_d4_but_no_zcover_bugs() {
        // Table V: D4 yields 4 findings for VFuzz; none overlap with
        // ZCover's fifteen.
        let result = run_hours(DeviceModel::D4, 24, 42);
        let ids: BTreeSet<u8> = result.findings.iter().map(|f| f.bug_id).collect();
        assert_eq!(ids, BTreeSet::from([101, 102, 103, 104]), "found {ids:?}");
        assert!(ids.iter().all(|&id| id > 100), "only one-day MAC quirks");
    }

    #[test]
    fn vfuzz_finds_nothing_on_d3() {
        // Table V: D3 and D5 yield zero findings for VFuzz.
        let result = run_hours(DeviceModel::D3, 24, 7);
        assert_eq!(result.unique_vulns(), 0);
        assert!(result.packets_sent > 50_000, "sent {}", result.packets_sent);
    }

    #[test]
    fn generated_coverage_is_indiscriminate() {
        // Table V: 256 CMDCLs / 256 CMDs for VFuzz.
        let result = run_hours(DeviceModel::D5, 24, 9);
        assert_eq!(result.cmdcl_coverage.len(), 256);
        assert_eq!(result.cmd_coverage.len(), 256);
    }

    #[test]
    fn one_hour_is_mostly_fruitless() {
        let result = run_hours(DeviceModel::D1, 1, 3);
        assert!(result.unique_vulns() <= 1);
    }
}
