//! The experiment runners: one function per table and figure of the
//! paper's evaluation section. Each returns both structured results and a
//! rendered "paper vs measured" report.

use std::collections::BTreeMap;
use std::time::Duration;

use zcover::{CampaignExecutor, FuzzConfig, ImpairmentProfile, TrialSummary, ZCover};
use zwave_controller::testbed::{DeviceModel, Testbed};
use zwave_radio::SimInstant;

use crate::paperdata;
use crate::render;

// ───────────────────────── Table II ─────────────────────────

/// Regenerates Table II (the testbed inventory), verifying each simulated
/// controller instantiates with the described properties.
pub fn table2() -> String {
    let mut rows = Vec::new();
    for (idx, brand, ty, model, enc) in paperdata::TABLE2 {
        let live = DeviceModel::all().iter().find(|m| m.idx() == idx).map(|m| {
            let tb = Testbed::new(*m, 0);
            format!(
                "home={} listed={} s2={}",
                tb.controller().home_id(),
                tb.controller().listed().len(),
                tb.controller().implemented().contains(&0x9F)
            )
        });
        rows.push(vec![
            idx.to_string(),
            brand.to_string(),
            ty.to_string(),
            model.to_string(),
            enc.to_string(),
            live.unwrap_or_else(|| "slave (see Testbed::new)".to_string()),
        ]);
    }
    format!(
        "Table II — tested device details\n{}",
        render::table(
            &["IDX", "Brand", "Type", "Model (year)", "Encryption", "Simulated instance"],
            &rows
        )
    )
}

// ───────────────────────── Table III ─────────────────────────

/// Structured result of the Table III reproduction.
#[derive(Debug)]
pub struct Table3Result {
    /// Per-bug: the devices it was found on.
    pub affected: BTreeMap<u8, Vec<&'static str>>,
    /// Per-bug: measured duration label (from the first finding).
    pub durations: BTreeMap<u8, String>,
    /// Total unique bugs found across the testbed.
    pub total_unique: usize,
}

/// Runs ZCover against every controller and aggregates the Table III rows.
/// `fuzz` is the per-device campaign budget; each device runs `trials`
/// independently-seeded campaigns through the deterministic executor
/// across `workers` threads on a `profile` channel (the adversarial-channel
/// extension of EXPERIMENTS.md). The result is deterministic per (campaign
/// seed, profile) and identical for any worker count.
pub fn table3(
    fuzz: Duration,
    trials: u64,
    workers: usize,
    profile: ImpairmentProfile,
) -> (Table3Result, String) {
    let mut affected: BTreeMap<u8, Vec<&'static str>> = BTreeMap::new();
    let mut durations: BTreeMap<u8, String> = BTreeMap::new();
    let config = FuzzConfig::full(fuzz, 0).with_impairment(profile);
    for (device, model) in DeviceModel::all().into_iter().enumerate() {
        let summary = CampaignExecutor::new(workers)
            .run(trials, 1000 + device as u64, |seed| Testbed::new(model, seed), &config)
            .expect("fingerprinting succeeds on the simulated testbed");
        for finding in &summary.unique_findings {
            if finding.bug_id <= 15 {
                affected.entry(finding.bug_id).or_default().push(model.idx());
                durations.entry(finding.bug_id).or_insert_with(|| finding.duration_label());
            }
        }
    }
    let total_unique = affected.len();

    let mut rows = Vec::new();
    for paper in paperdata::TABLE3 {
        let found = affected.get(&paper.id);
        let measured_affected = found
            .map(|d| if d.len() == 7 { "D1 - D7".to_string() } else { d.join(", ") })
            .unwrap_or_else(|| "NOT FOUND".to_string());
        let measured_duration =
            durations.get(&paper.id).cloned().unwrap_or_else(|| "-".to_string());
        rows.push(vec![
            format!("{:02}", paper.id),
            format!("0x{:02X}", paper.cmdcl),
            format!("0x{:02X}", paper.cmd),
            paper.description.to_string(),
            format!("{} / {}", paper.duration, measured_duration),
            paper.root_cause.to_string(),
            paper.confirmed.to_string(),
            format!("{} / {}", paper.affected, measured_affected),
        ]);
    }
    let text = format!(
        "Table III — zero-day vulnerability discovery, {profile} channel \
         ({} unique bugs found; paper: 15)\n{}",
        total_unique,
        render::table(
            &[
                "Bug",
                "CMDCL",
                "CMD",
                "Description",
                "Duration (paper/ours)",
                "Root cause",
                "Confirmed",
                "Affected (paper/ours)"
            ],
            &rows
        )
    );
    (Table3Result { affected, durations, total_unique }, text)
}

// ───────────────────────── Table IV ─────────────────────────

/// One Table IV row: device idx, home id, controller node, known CMDCL
/// count, unknown CMDCL count.
pub type Table4Row = (String, String, String, usize, usize);

/// Runs fingerprinting + discovery (no fuzzing) on every controller,
/// seeding each testbed from `seed` (the discovered properties are
/// seed-independent — the paper-exact assertion below pins that).
pub fn table4(seed: u64) -> (Vec<Table4Row>, String) {
    let mut results = Vec::new();
    for model in DeviceModel::all() {
        let mut tb = Testbed::new(model, seed);
        let mut zcover = ZCover::attach(&tb, 70.0);
        let scan = zcover.fingerprint(&mut tb).expect("traffic present");
        let active =
            zcover::ActiveScanner::scan(&mut tb, zcover.dongle_mut(), &scan).expect("NIF answered");
        let listed = active.listed.clone();
        let discovery = zcover::UnknownDiscovery::run(&mut tb, zcover.dongle_mut(), &scan, listed);
        results.push((
            model.idx().to_string(),
            scan.home_id.to_string(),
            format!("{}", scan.controller),
            discovery.listed.len(),
            discovery.unknown_count(),
        ));
    }
    let mut rows = Vec::new();
    for ((idx, home, node, known, unknown), (pidx, phome, pnode, pknown, punknown)) in
        results.iter().zip(paperdata::TABLE4)
    {
        assert_eq!(idx, pidx);
        rows.push(vec![
            idx.clone(),
            format!("{:08X} / {}", phome, home),
            format!("0x{:02X} / {}", pnode, node),
            format!("{} / {}", pknown, known),
            format!("{} / {}", punknown, unknown),
        ]);
    }
    let text = format!(
        "Table IV — fingerprinting and unknown-property discovery (paper / measured)\n{}",
        render::table(&["ID", "Home ID", "Node ID", "Known CMDCLs", "Unknown CMDCLs"], &rows)
    );
    (results, text)
}

// ───────────────────────── Table V ─────────────────────────

/// One Table V row: device idx, then mean CMDCL coverage / CMD coverage /
/// unique vulns for VFuzz and for ZCover across the trials.
pub type Table5Row = (String, f64, f64, f64, f64, f64, f64);

/// Runs both fuzzers on D1-D5 over `trials` independently-seeded campaigns
/// and tabulates mean coverage and findings. Both columns go through the
/// executor (`workers` threads) with the same campaign seed, so they
/// average over identical trial seeds on an identically-`profile`d channel.
pub fn table5(
    fuzz: Duration,
    campaign_seed: u64,
    trials: u64,
    workers: usize,
    profile: ImpairmentProfile,
) -> (Vec<Table5Row>, String) {
    let executor = CampaignExecutor::new(workers);
    let means = |model: DeviceModel, config: FuzzConfig| {
        let summary = executor
            .run(trials, campaign_seed, |seed| Testbed::new(model, seed), &config)
            .expect("fingerprinting succeeds on the simulated testbed");
        let mean = |count: fn(&zcover::CampaignResult) -> usize| {
            summary.per_trial.iter().map(count).sum::<usize>() as f64
                / summary.per_trial.len().max(1) as f64
        };
        (
            mean(|c| c.cmdcl_coverage.len()),
            mean(|c| c.cmd_coverage.len()),
            summary.mean_unique_vulns(),
        )
    };
    let mut results = Vec::new();
    for model in DeviceModel::usb_models() {
        let (vcc, vcmd, vvul) =
            means(model, FuzzConfig::vfuzz(fuzz, campaign_seed).with_impairment(profile));
        let (zcc, zcmd, zvul) =
            means(model, FuzzConfig::full(fuzz, campaign_seed).with_impairment(profile));
        results.push((model.idx().to_string(), vcc, vcmd, vvul, zcc, zcmd, zvul));
    }
    let mut rows = Vec::new();
    for ((idx, vcc, vcmd, vvul, zcc, zcmd, zvul), (pidx, pvv, pzv)) in
        results.iter().zip(paperdata::TABLE5)
    {
        assert_eq!(idx, pidx);
        rows.push(vec![
            idx.clone(),
            format!("{vcc:.1}"),
            format!("{vcmd:.1}"),
            format!("{pvv} / {vvul:.1}"),
            format!("{zcc:.1}"),
            format!("{zcmd:.1}"),
            format!("{pzv} / {zvul:.1}"),
        ]);
    }
    let text = format!(
        "Table V — VFuzz vs ZCover, {}h virtual per device, mean of {trials} trial(s) \
         on a {profile} channel (#Vul shown paper / measured)\n{}",
        fuzz.as_secs_f64() / 3600.0,
        render::table(
            &[
                "ID",
                "VFuzz CMDCL",
                "VFuzz CMD",
                "VFuzz #Vul",
                "ZCover CMDCL",
                "ZCover CMD",
                "ZCover #Vul"
            ],
            &rows
        )
    );
    (results, text)
}

// ───────────────────────── Table VI ─────────────────────────

/// Runs the three ablation configurations for one hour on the ZooZ D1,
/// each over `trials` independently-seeded campaigns via the executor
/// (`workers` threads), reporting the mean unique-vulnerability count per
/// configuration. Averaging over trials is what makes the ablation
/// ordering (full > β > γ) robust: a single γ trial can get lucky.
pub fn table6(campaign_seed: u64, trials: u64, workers: usize) -> (Vec<(String, f64)>, String) {
    let hour = Duration::from_secs(3600);
    let configs: [(&str, FuzzConfig); 3] = [
        (paperdata::TABLE6[0].0, FuzzConfig::full(hour, campaign_seed)),
        (paperdata::TABLE6[1].0, FuzzConfig::beta(hour, campaign_seed)),
        (paperdata::TABLE6[2].0, FuzzConfig::gamma(hour, campaign_seed)),
    ];
    let mut results = Vec::new();
    for (name, config) in configs {
        let summary = ablation_trials(campaign_seed, trials, workers, &config);
        results.push((name.to_string(), summary.mean_unique_vulns()));
    }
    let mut rows = Vec::new();
    for ((name, measured), (_, paper)) in results.iter().zip(paperdata::TABLE6) {
        rows.push(vec![name.clone(), paper.to_string(), format!("{measured:.1}")]);
    }
    let text = format!(
        "Table VI — ablation study, 1 h virtual on ZooZ D1, mean of {trials} trial(s)\n{}",
        render::table(&["Fuzzing configuration", "#Vul (paper)", "#Vul (measured)"], &rows)
    );
    (results, text)
}

/// One ablation configuration over `trials` seeds on the ZooZ D1.
fn ablation_trials(
    campaign_seed: u64,
    trials: u64,
    workers: usize,
    config: &FuzzConfig,
) -> TrialSummary {
    CampaignExecutor::new(workers)
        .run(trials, campaign_seed, |seed| Testbed::new(DeviceModel::D1, seed), config)
        .expect("fingerprinting succeeds on the simulated testbed")
}

/// Extended ablation beyond the paper's three configurations: also
/// toggles the command-count prioritisation and the semantic/boundary
/// exploration plans, isolating each design choice of DESIGN.md §5. Each
/// configuration runs `trials` seeds through the executor; vulnerability
/// counts and the time-to-8th-bug convergence measure are means over the
/// trials (that reached an 8th bug).
pub fn table6_extended(
    campaign_seed: u64,
    trials: u64,
    workers: usize,
) -> (Vec<(String, f64, u64)>, String) {
    let hour = Duration::from_secs(3600);
    let configs: [(&str, FuzzConfig); 5] = [
        ("full", FuzzConfig::full(hour, campaign_seed)),
        ("beta: known CMDCLs only", FuzzConfig::beta(hour, campaign_seed)),
        ("gamma: random, no PSM", FuzzConfig::gamma(hour, campaign_seed)),
        ("full minus prioritisation", FuzzConfig::without_prioritization(hour, campaign_seed)),
        ("full minus semantic plans", FuzzConfig::without_semantic_plans(hour, campaign_seed)),
    ];
    let mut results = Vec::new();
    for (name, config) in configs {
        let summary = ablation_trials(campaign_seed, trials, workers, &config);
        // Mean time (virtual seconds) until the 8th unique bug across the
        // trials that found 8, a robustness measure of how fast each
        // configuration converges.
        let t8s: Vec<u64> = summary
            .per_trial
            .iter()
            .filter_map(|r| {
                r.findings.get(7).map(|f| f.found_at.duration_since(r.started).as_secs())
            })
            .collect();
        let t8 = if t8s.is_empty() { u64::MAX } else { t8s.iter().sum::<u64>() / t8s.len() as u64 };
        results.push((name.to_string(), summary.mean_unique_vulns(), t8));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, vulns, t8)| {
            vec![
                name.clone(),
                format!("{vulns:.1}"),
                if *t8 == u64::MAX { "-".to_string() } else { format!("{t8} s") },
            ]
        })
        .collect();
    let text = format!(
        "Extended ablation — 1 h virtual on ZooZ D1, mean of {trials} trial(s)\n{}",
        render::table(&["Configuration", "#Vul", "time to 8th bug"], &rows)
    );
    (results, text)
}

// ───────────────────────── Figure 5 ─────────────────────────

/// The 16 selected command classes whose command-count distribution the
/// paper visualises.
pub const FIGURE5_SELECTION: [u8; 16] = [
    0x34, 0x9F, 0x67, 0x4D, 0x86, 0x85, 0x59, 0x84, 0x55, 0x73, 0x20, 0x6C, 0x5E, 0x56, 0x5A, 0x00,
];

/// Regenerates Figure 5 from the registry.
pub fn figure5() -> (Vec<(String, usize)>, String) {
    let reg = zwave_protocol::Registry::global();
    let entries: Vec<(String, usize)> = FIGURE5_SELECTION
        .iter()
        .map(|&cc| {
            let spec = reg.get(zwave_protocol::CommandClassId(cc)).expect("selection is public");
            (spec.name.trim_start_matches("COMMAND_CLASS_").to_string(), spec.command_count())
        })
        .collect();
    let chart = render::bar_chart(&entries, 46);
    let measured: Vec<usize> = entries.iter().map(|(_, v)| *v).collect();
    let text = format!(
        "Figure 5 — selected command classes and their command distribution\n\
         paper series:    {:?}\n\
         measured series: {:?}\n\n{}",
        paperdata::FIGURE5_SERIES,
        measured,
        chart
    );
    (entries, text)
}

// ───────────────────────── Figure 12 ─────────────────────────

/// One device's detection-over-time series.
#[derive(Debug)]
pub struct Figure12Series {
    /// Device index string.
    pub device: &'static str,
    /// (seconds-since-campaign-start, packets, is-discovery) samples,
    /// taken from the first trial.
    pub points: Vec<(f64, u64, bool)>,
    /// The merged multi-trial summary the series came from.
    pub summary: TrialSummary,
}

/// Runs `trials` campaigns per Figure 12 device through the executor
/// (`workers` threads) and extracts the initial fuzzing window of the
/// first trial; the summary carries the cross-trial statistics.
pub fn figure12(
    window_s: f64,
    campaign_seed: u64,
    trials: u64,
    workers: usize,
) -> (Vec<Figure12Series>, String) {
    let models = [DeviceModel::D1, DeviceModel::D3, DeviceModel::D4, DeviceModel::D5];
    let config = FuzzConfig::full(Duration::from_secs(3600), campaign_seed);
    let mut series = Vec::new();
    let mut text =
        String::from("Figure 12 — vulnerability detection over the initial fuzzing phase\n");
    for model in models {
        let summary = CampaignExecutor::new(workers)
            .run(trials, campaign_seed, |seed| Testbed::new(model, seed), &config)
            .expect("fingerprinting succeeds on the simulated testbed");
        let first = &summary.per_trial[0];
        let start: SimInstant = first.started;
        let points: Vec<(f64, u64, bool)> = first
            .trace
            .iter()
            .map(|e| (e.at.duration_since(start).as_secs_f64(), e.packets, e.bug_id.is_some()))
            .filter(|(t, _, _)| *t <= window_s)
            .collect();
        let discoveries = points.iter().filter(|(_, _, b)| *b).count();
        text.push_str(&format!(
            "\n({}) {} — {} discoveries within the first {:.0} s (trial 1 of {}), \
             mean {:.0} packets per trial\n{}",
            model.idx(),
            model.config().brand,
            discoveries,
            window_s,
            summary.trials(),
            summary.mean_packets,
            render::scatter(&points, window_s, 12, 60)
        ));
        series.push(Figure12Series { device: model.idx(), points, summary });
    }
    (series, text)
}

// ───────────────────── Robustness sweep (extension) ─────────────────────

/// Sweeps channel loss rates and measures ZCover's findings under each —
/// a failure-injection extension quantifying how the MAC-retransmission
/// and probe-retry machinery keeps the campaign effective on an imperfect
/// link (DESIGN.md §3b).
pub fn loss_sweep(seed: u64) -> (Vec<(f64, usize, u64)>, String) {
    let rates = [0.0, 0.1, 0.2, 0.3];
    let mut results = Vec::new();
    for &rate in &rates {
        let mut tb = Testbed::new(DeviceModel::D1, seed);
        tb.medium().set_noise(zwave_radio::NoiseModel::lossy(rate));
        let mut zcover = ZCover::attach(&tb, 70.0);
        let report = zcover
            .run_campaign(&mut tb, FuzzConfig::full(Duration::from_secs(3600), seed))
            .expect("fingerprinting under loss");
        results.push((rate, report.campaign.unique_vulns(), report.campaign.packets_sent));
    }
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(rate, vulns, packets)| {
            vec![format!("{:.0} %", rate * 100.0), vulns.to_string(), packets.to_string()]
        })
        .collect();
    let text = format!(
        "Robustness sweep — unique vulns after 1 h on D1 vs. channel loss\n{}",
        render::table(&["loss rate", "#Vul", "packets"], &rows)
    );
    (results, text)
}

/// Section IV-B2's aggregate performance claim: how many unique bugs were
/// found within 600 s and 800 packets, per device, averaged over trials.
pub fn performance_summary(series: &[Figure12Series]) -> String {
    let mut out = String::from("Early-discovery summary (Section IV-B2):\n");
    for s in series {
        let early: Vec<usize> = s
            .summary
            .per_trial
            .iter()
            .map(|c| {
                c.findings
                    .iter()
                    .filter(|f| {
                        f.found_at.duration_since(c.started) < Duration::from_secs(600)
                            && f.found_after_packets <= 800
                    })
                    .count()
            })
            .collect();
        let mean_early = early.iter().sum::<usize>() as f64 / early.len().max(1) as f64;
        out.push_str(&format!(
            "  {}: mean {:.1}/{:.1} unique bugs within 600 s and 800 packets \
             over {} trial(s)\n",
            s.device,
            mean_early,
            s.summary.mean_unique_vulns(),
            s.summary.trials()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_selection_reproduces_paper_series() {
        let (entries, text) = figure5();
        let measured: Vec<usize> = entries.iter().map(|(_, v)| *v).collect();
        assert_eq!(measured, paperdata::FIGURE5_SERIES.to_vec());
        assert!(text.contains("NETWORK_MANAGEMENT_INCLUSION"));
    }

    #[test]
    fn table2_renders_all_nine_devices() {
        let text = table2();
        for idx in ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"] {
            assert!(text.contains(idx), "missing {idx}");
        }
        assert!(text.contains("E7DE3F3D"));
    }

    #[test]
    fn table4_matches_paper_exactly() {
        let (results, text) = table4(77);
        let (alt, _) = table4(12345);
        assert_eq!(results, alt, "discovered properties must be seed-independent");
        for ((_, home, node, known, unknown), (_, phome, pnode, pknown, punknown)) in
            results.iter().zip(paperdata::TABLE4)
        {
            assert_eq!(home, &format!("{phome:08X}"));
            assert_eq!(node, &format!("0x{pnode:02X}"));
            assert_eq!(*known, pknown);
            assert_eq!(*unknown, punknown);
        }
        assert!(text.contains("CB95A34A"));
    }

    #[test]
    fn extended_ablation_isolates_each_design_choice() {
        let (results, _text) = table6_extended(6, 2, 2);
        let full = results[0].1;
        let no_priority = results[3].1;
        let no_plans = results[4].1;
        assert_eq!(full, 15.0);
        // Dropping prioritisation costs coverage within the hour; dropping
        // the semantic plans costs the tight-trigger bugs.
        assert!(no_priority < full, "no-priority found {no_priority}");
        assert!(no_plans < full, "no-plans found {no_plans}");
        // Convergence speed: full reaches its 8th bug first.
        let t8_full = results[0].2;
        let t8_no_priority = results[3].2;
        assert!(t8_full < t8_no_priority);
    }

    #[test]
    fn table6_reproduces_ablation_ordering() {
        let (results, _text) = table6(6, 3, 2);
        let full = results[0].1;
        let beta = results[1].1;
        let gamma = results[2].1;
        assert_eq!(full, 15.0);
        assert_eq!(beta, 8.0);
        assert!(gamma < beta, "gamma {gamma} >= beta {beta}");
    }
}
