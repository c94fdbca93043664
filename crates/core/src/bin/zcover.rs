//! The `zcover` command-line tool: run any phase of the analysis against a
//! simulated testbed device.
//!
//! ```text
//! zcover fingerprint --device D4
//! zcover discover    --device D4
//! zcover fuzz        --device D1 --hours 1 --seed 42 --config full
//! zcover fuzz        --device D1 --config beta --log bugs.txt
//! zcover fuzz        --device D1 --hours 0.02 --record trace.jsonl
//! zcover fuzz        --device D1 --mode coverage --hours 1
//! zcover fuzz        --device D1 --scenario s0-no-more --hours 0.02
//! zcover trials      --device D1 --trials 5 --workers 4 --hours 1
//! zcover trials      --device D1 --mode vfuzz --trials 5 --hours 1
//! zcover sweep       --homes 10000 --topology mesh --workers 4
//! zcover sweep       --homes 256 --topology line --mode coverage --format json
//! zcover sweep       --homes 64 --record-dir traces/
//! zcover replay      trace.jsonl
//! zcover replay      trace.zct
//! zcover trace export trace.zct --out trace.jsonl
//! zcover trace stats  traces/home0.zct traces/home1.zct
//! zcover export-spec --out zw_classes.xml
//! ```

use std::path::Path;
use std::time::Duration;

use zcover::{
    run_sweep, ActiveScanner, BugLog, CampaignExecutor, FuzzConfig, ImpairmentProfile, Scenario,
    SweepConfig, Trace, TraceSpec, TraceStats, UnknownDiscovery, ZCover, ZCoverError,
    DEFAULT_SHARD_SIZE,
};
use zwave_controller::testbed::{DeviceModel, Testbed};
use zwave_controller::Topology;

fn parse_device(args: &[String]) -> DeviceModel {
    let idx = flag(args, "--device").unwrap_or_else(|| "D1".to_string());
    DeviceModel::parse(&idx).unwrap_or_else(|| {
        eprintln!("unknown device {idx}; expected D1..D7");
        std::process::exit(2);
    })
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

/// The numeric value of flag `name`, or `default` when it is absent. An
/// unparsable value exits with status 2 naming the flag and the value.
fn num_flag<N: std::str::FromStr>(args: &[String], name: &str, default: N) -> N {
    match flag(args, name) {
        None => default,
        Some(value) => value.parse().unwrap_or_else(|_| {
            eprintln!("invalid {name} value {value:?}; expected a number");
            std::process::exit(2);
        }),
    }
}

/// The per-campaign virtual budget from `--hours` (`default` when the
/// flag is absent), returned with the hours it was read from. Only a
/// finite, non-negative value whose budget in microseconds fits a `u64`
/// (the simulated clock counts `u64` microseconds) is accepted; anything
/// else exits with status 2 naming the flag and the value.
fn hours_flag(args: &[String], default: f64) -> (f64, Duration) {
    let hours: f64 = num_flag(args, "--hours", default);
    // 2^64 as an f64; `u64::MAX as f64` rounds up to it.
    const MICROS_LIMIT: f64 = 18_446_744_073_709_551_616.0;
    if !(hours.is_finite() && hours >= 0.0 && hours * 3600.0 * 1e6 < MICROS_LIMIT) {
        let value = flag(args, "--hours").unwrap_or_default();
        eprintln!(
            "invalid --hours value {value:?}; expected a finite number of hours >= 0 \
             whose budget fits the simulated clock"
        );
        std::process::exit(2);
    }
    (hours, Duration::from_secs_f64(hours * 3600.0))
}

fn parse_topology(args: &[String]) -> Topology {
    let name = flag(args, "--topology").unwrap_or_else(|| "mesh".to_string());
    Topology::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown topology {name}; expected star|line|mesh");
        std::process::exit(2);
    })
}

fn parse_impairment(args: &[String]) -> ImpairmentProfile {
    let name = flag(args, "--impairment").unwrap_or_else(|| "clean".to_string());
    ImpairmentProfile::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown impairment profile {name}; expected clean|lossy|bursty|adversarial");
        std::process::exit(2);
    })
}

fn parse_scenario(args: &[String]) -> Scenario {
    let name = flag(args, "--scenario").unwrap_or_else(|| "none".to_string());
    Scenario::parse(&name).unwrap_or_else(|| {
        eprintln!("unknown scenario {name}; expected none|s0-no-more|crushing-the-wave");
        std::process::exit(2);
    })
}

/// The canonical configuration name selected by `--mode` / `--config`.
/// `--mode zcover` (the default) defers to `--config`; the coverage and
/// vfuzz (MAC-level mutation) engines are whole configurations of their
/// own.
fn config_name(args: &[String]) -> String {
    match flag(args, "--mode").as_deref() {
        None | Some("zcover") => flag(args, "--config").unwrap_or_else(|| "full".to_string()),
        Some(mode @ ("coverage" | "vfuzz")) => {
            if flag(args, "--config").is_some() {
                eprintln!("--config only applies to --mode zcover");
                std::process::exit(2);
            }
            mode.to_string()
        }
        Some(other) => {
            eprintln!("unknown mode {other}; expected zcover|vfuzz|coverage");
            std::process::exit(2);
        }
    }
}

/// Builds the fuzz configuration from `--mode`, `--config`, and
/// `--impairment` (the plumbing `fuzz` and `trials` share).
fn parse_config(args: &[String], budget: Duration, seed: u64) -> FuzzConfig {
    let name = config_name(args);
    let config = FuzzConfig::named(&name, budget, seed).unwrap_or_else(|| {
        eprintln!("unknown config {name}; expected full|beta|gamma|no-priority|no-plans");
        std::process::exit(2);
    });
    config.with_impairment(parse_impairment(args)).with_scenario(parse_scenario(args))
}

/// Whether `--format json` selects machine-readable output (default:
/// text, which stays byte-identical to the pre-flag behaviour).
fn json_output(args: &[String]) -> bool {
    match flag(args, "--format").as_deref() {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            eprintln!("unknown format {other}; expected text|json");
            std::process::exit(2);
        }
    }
}

/// Exits with status 2 naming `path` when writing an output file failed.
fn written<E: std::fmt::Display>(path: &str, result: Result<(), E>) {
    if let Err(e) = result {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    }
}

/// Reads and decodes a trace file in either format (auto-detected by
/// content, not extension). Any damage exits with status 2 after naming
/// the byte offset or line of the fault *and* whatever the CRC-protected
/// header still says — so a truncated `.zct` is still attributable to its
/// campaign. Returns the raw bytes too, so callers can name event loci in
/// the original file.
fn load_trace(path: &str) -> (Vec<u8>, Trace) {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        match zcover::describe_header(&bytes) {
            Some(header) => eprintln!("{path}: header: {header}"),
            None => eprintln!("{path}: header undecodable"),
        }
        std::process::exit(2);
    });
    (bytes, trace)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let seed: u64 = num_flag(&args, "--seed", 42);

    match command {
        "fingerprint" => {
            let model = parse_device(&args);
            let mut tb = Testbed::new(model, seed);
            let mut zc = ZCover::attach(&tb, 70.0);
            let scan = zc.fingerprint(&mut tb).expect("no traffic observed");
            let active = ActiveScanner::scan(&mut tb, zc.dongle_mut(), &scan)
                .expect("controller did not answer the NIF request");
            println!(
                "device:     {} {}",
                tb.controller().config().brand,
                tb.controller().config().model
            );
            println!("home id:    {}", scan.home_id);
            println!("controller: {}", scan.controller);
            println!(
                "slaves:     {:?}",
                scan.slaves.iter().map(|n| n.to_string()).collect::<Vec<_>>()
            );
            println!("listed CMDCLs ({}):", active.listed.len());
            for cc in &active.listed {
                println!("  {cc}");
            }
        }
        "discover" => {
            let model = parse_device(&args);
            let mut tb = Testbed::new(model, seed);
            let mut zc = ZCover::attach(&tb, 70.0);
            let scan = zc.fingerprint(&mut tb).expect("no traffic observed");
            let active = ActiveScanner::scan(&mut tb, zc.dongle_mut(), &scan)
                .expect("controller did not answer the NIF request");
            let discovery = UnknownDiscovery::run(&mut tb, zc.dongle_mut(), &scan, active.listed);
            println!(
                "listed: {}  spec-unlisted: {}  proprietary: {:?}",
                discovery.listed.len(),
                discovery.unlisted_from_spec.len(),
                discovery.proprietary.iter().map(|c| c.to_string()).collect::<Vec<_>>()
            );
            println!("prioritized fuzzing queue:");
            for (rank, cc) in discovery.prioritized_targets().iter().enumerate() {
                let name = zwave_protocol::Registry::global()
                    .get(*cc)
                    .map(|s| s.name)
                    .unwrap_or("<proprietary>");
                println!("  {:>2}. {} {}", rank + 1, cc, name);
            }
        }
        "fuzz" => {
            let model = parse_device(&args);
            let (hours, budget) = hours_flag(&args, 1.0);
            let config = parse_config(&args, budget, seed);
            let profile = config.impairment;
            let json = json_output(&args);
            eprintln!(
                "fuzzing {} for {hours}h virtual (seed {seed}, channel {profile}) ...",
                model.idx()
            );
            let mut tb = Testbed::new(model, seed);
            let report = match flag(&args, "--record") {
                Some(path) => zcover::record_on(&mut tb, model.idx(), config).map(|rec| {
                    written(&path, rec.trace.save(Path::new(&path)));
                    eprintln!("trace recorded to {path} ({} events)", rec.trace.events.len());
                    rec.report
                }),
                None => ZCover::attach(&tb, 70.0).run_campaign(&mut tb, config),
            }
            .unwrap_or_else(|e| {
                eprintln!("fuzz failed: {e}");
                std::process::exit(1);
            });
            if let Some(path) = flag(&args, "--report") {
                let device = model.config();
                let label = format!("{} {} ({})", device.brand, device.model, model.idx());
                written(&path, std::fs::write(&path, zcover::report::to_markdown(&report, &label)));
                eprintln!("assessment report written to {path}");
            }
            if json {
                println!("{}", zcover::report::campaign_to_json(&report.campaign));
            } else {
                println!(
                    "{} packets, {} CMDCLs covered, {} unique vulnerabilities:",
                    report.campaign.packets_sent,
                    report.campaign.cmdcl_coverage.len(),
                    report.campaign.unique_vulns()
                );
                let c = report.campaign.counters;
                println!(
                    "counters: {} packets, {} plans, {} outages, {} findings",
                    c.packets_sent, c.plans_executed, c.outages_observed, c.findings
                );
                println!(
                    "channel:  {} losses, {} dups, {} reorders, {} truncations, \
                     {} blackout drops, {} retransmissions, {} ack timeouts",
                    c.losses,
                    c.duplicates,
                    c.reorders,
                    c.truncations,
                    c.blackout_drops,
                    c.retransmissions,
                    c.ack_timeouts
                );
            }
            let mut log = BugLog::new();
            for finding in &report.campaign.findings {
                log.absorb(finding);
            }
            let text = log.to_text();
            if !json {
                println!("{text}");
            }
            if let Some(path) = flag(&args, "--log") {
                written(&path, std::fs::write(&path, &text));
                eprintln!("bug log written to {path}");
            }
        }
        "trials" => {
            let model = parse_device(&args);
            let (hours, budget) = hours_flag(&args, 1.0);
            let trials: u64 = num_flag(&args, "--trials", 5u64).max(1);
            let workers: usize = num_flag(&args, "--workers", 1);
            let config = parse_config(&args, budget, seed);
            let profile = config.impairment;
            let json = json_output(&args);
            let executor = CampaignExecutor::new(workers);
            eprintln!(
                "running {trials} trials of {hours}h on {} across {} worker(s) \
                 (campaign seed {seed}, channel {profile}) ...",
                model.idx(),
                executor.workers()
            );
            let trace_spec = flag(&args, "--record")
                .map(|prefix| TraceSpec { device: model.idx().to_string(), prefix: prefix.into() });
            let summary = match executor.run_with_trace(
                trials,
                seed,
                |trial_seed| Testbed::new(model, trial_seed),
                &config,
                trace_spec.as_ref(),
            ) {
                Ok(summary) => summary,
                Err(ZCoverError::Trial { trial, source }) => {
                    eprintln!("trials failed at trial {trial}: {source}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("trials failed: {e}");
                    std::process::exit(1);
                }
            };
            if let Some(spec) = &trace_spec {
                eprintln!(
                    "per-trial traces recorded to {} .. {}",
                    spec.trial_path(0).display(),
                    spec.trial_path(trials - 1).display()
                );
            }
            let write_log = || {
                if let Some(path) = flag(&args, "--log") {
                    let mut log = BugLog::new();
                    for finding in &summary.unique_findings {
                        log.absorb(finding);
                    }
                    written(&path, std::fs::write(&path, log.to_text()));
                    eprintln!("merged bug log written to {path}");
                }
            };
            if json {
                println!("{}", zcover::report::summary_to_json(&summary));
                write_log();
                return;
            }
            println!(
                "{} trials merged: union of {} unique vulnerabilities {:?}",
                summary.trials(),
                summary.union_bug_ids.len(),
                summary.union_bug_ids
            );
            println!("stable core (found in all trials): {:?}", summary.found_in_all_trials());
            println!(
                "mean per trial: {:.0} packets, {:.1} unique vulnerabilities",
                summary.mean_packets,
                summary.mean_unique_vulns()
            );
            let c = summary.counters;
            println!(
                "counters: {} packets, {} plans, {} outages, {} findings",
                c.packets_sent, c.plans_executed, c.outages_observed, c.findings
            );
            println!(
                "channel:  {} losses, {} dups, {} reorders, {} truncations, \
                 {} blackout drops, {} retransmissions, {} ack timeouts",
                c.losses,
                c.duplicates,
                c.reorders,
                c.truncations,
                c.blackout_drops,
                c.retransmissions,
                c.ack_timeouts
            );
            println!("per-bug hit counts (bug id: trials that found it):");
            for (bug, hits) in &summary.hit_counts {
                let mean_t = summary
                    .mean_time_to_find(*bug)
                    .map(|d| format!("{:.0} s", d.as_secs_f64()))
                    .unwrap_or_else(|| "-".to_string());
                println!("  {bug:02}: {hits}/{} (mean time to find {mean_t})", summary.trials());
            }
            write_log();
        }
        "sweep" => {
            let homes: u64 = num_flag(&args, "--homes", 64);
            let topology = parse_topology(&args);
            // A short per-home budget is the whole point of a sweep:
            // breadth over depth. 180 virtual seconds survives discovery,
            // the high-priority classes, and a couple of outage recoveries
            // on every Table II model — enough for several bug classes
            // per home while 10 000 homes still sweep in about a minute.
            let (hours, budget) = hours_flag(&args, 0.05);
            let workers: usize = num_flag(&args, "--workers", 1);
            let shard_size: u64 = num_flag(&args, "--shard-size", DEFAULT_SHARD_SIZE);
            let base = parse_config(&args, budget, seed);
            let profile = base.impairment;
            let json = json_output(&args);
            let mut config = SweepConfig::new(homes, topology, base).with_shard_size(shard_size);
            if let Some(dir) = flag(&args, "--record-dir") {
                config = config.with_record_dir(dir);
            }
            let executor = CampaignExecutor::new(workers);
            eprintln!(
                "sweeping {homes} {topology} homes ({}h each, sweep seed {seed}, channel \
                 {profile}) in {} shard(s) across {} worker(s) ...",
                hours,
                config.shard_count(),
                executor.workers()
            );
            let (summary, timing) = match run_sweep(&executor, &config) {
                Ok(done) => done,
                Err(ZCoverError::SweepHome { home, source }) => {
                    eprintln!("sweep failed at home {home}: {source}");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("sweep failed: {e}");
                    std::process::exit(1);
                }
            };
            if let Some(dir) = &config.record_dir {
                eprintln!(
                    "per-home traces recorded to {} .. {}",
                    SweepConfig::home_trace_path(dir, 0).display(),
                    SweepConfig::home_trace_path(dir, homes.saturating_sub(1)).display()
                );
            }
            // Throughput is real wall-clock and goes to stderr; stdout
            // stays bit-identical for any worker count.
            for (shard, secs) in summary.shards.iter().zip(&timing.per_shard_s) {
                eprintln!(
                    "shard {:>4}: {:>5} homes in {:>7.2} s ({:.1} homes/s)",
                    shard.shard,
                    shard.homes,
                    secs,
                    shard.homes as f64 / secs.max(f64::EPSILON)
                );
            }
            eprintln!(
                "aggregate: {} homes in {:.2} s ({:.1} homes/s)",
                timing.homes,
                timing.total_s,
                timing.homes_per_sec()
            );
            if json {
                println!("{}", zcover::report::sweep_to_json(&summary));
                return;
            }
            println!(
                "{} {} homes swept in {} shard(s): union of {} unique vulnerabilities {:?}",
                summary.homes,
                summary.topology,
                summary.shards.len(),
                summary.union_bug_ids().len(),
                summary.union_bug_ids()
            );
            println!("city-wide coverage: {} distinct dispatch edges", summary.coverage_edges);
            let c = &summary.counters;
            println!(
                "counters: {} packets, {} plans, {} outages, {} findings",
                c.packets_sent, c.plans_executed, c.outages_observed, c.findings
            );
            let ch = &summary.channel;
            println!(
                "channel:  {} frames, {} deliveries, {} losses, {} dups, {} reorders",
                ch.frames_sent, ch.deliveries, ch.losses, ch.duplicates, ch.reorders
            );
            println!("per-bug hit counts (bug id: homes that found it):");
            for (bug, hit_homes) in &summary.hit_counts {
                println!(
                    "  {bug:02}: {hit_homes}/{} ({:.1} %)",
                    summary.homes,
                    summary.hit_rate(*bug) * 100.0
                );
            }
        }
        "replay" => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .or_else(|| flag(&args, "--trace"))
                .unwrap_or_else(|| {
                    eprintln!("usage: zcover replay <trace.jsonl|trace.zct>");
                    std::process::exit(2);
                });
            let (bytes, trace) = load_trace(&path);
            eprintln!(
                "replaying {path}: {}, {} recorded events ...",
                trace.meta.describe(),
                trace.events.len()
            );
            let report = zcover::replay(&trace).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                eprintln!("{path}: header: {}", trace.meta.describe());
                std::process::exit(2);
            });
            println!("{}", report.render());
            if let Some(d) = &report.divergence {
                // The index alone is enough for a JSONL trace; for a
                // binary one the block/byte locus says where to seek.
                eprintln!(
                    "recorded event {} lives at {} of {path}",
                    d.index,
                    zcover::event_locus(&bytes, d.index)
                );
                std::process::exit(1);
            }
        }
        "trace" => {
            let usage = || -> ! {
                eprintln!(
                    "usage: zcover trace export <in.jsonl|in.zct> [--out FILE]\n\
                     \x20      zcover trace stats  <trace>... [--format text|json]"
                );
                std::process::exit(2);
            };
            match args.get(1).map(String::as_str) {
                Some("export") => {
                    let path =
                        args.get(2).filter(|a| !a.starts_with("--")).unwrap_or_else(|| usage());
                    let (_, trace) = load_trace(path);
                    match flag(&args, "--out") {
                        // The output extension picks the format, so this
                        // converts in both directions (jsonl ↔ zct).
                        Some(out) => {
                            written(&out, trace.save(Path::new(&out)));
                            eprintln!("{path} ({} events) exported to {out}", trace.events.len());
                        }
                        None => print!("{}", trace.to_jsonl()),
                    }
                }
                Some("stats") => {
                    let json = json_output(&args);
                    let paths: Vec<&String> =
                        args[2..].iter().take_while(|a| !a.starts_with("--")).collect();
                    if paths.is_empty() {
                        usage();
                    }
                    let mut traces = Vec::with_capacity(paths.len());
                    let mut reports = Vec::with_capacity(paths.len());
                    for path in &paths {
                        let (_, trace) = load_trace(path);
                        let stats = TraceStats::scan(&trace.events);
                        reports.push(if json {
                            zcover::report::trace_stats_to_json(&stats, path)
                        } else {
                            stats.render(path)
                        });
                        traces.push((path.to_string(), trace));
                    }
                    if json {
                        println!("[{}]", reports.join(","));
                    } else {
                        for report in &reports {
                            print!("{report}");
                        }
                        if traces.len() > 1 {
                            print!("{}", zcover::cross_trial_summary(&traces));
                        }
                    }
                }
                _ => usage(),
            }
        }
        "export-spec" => {
            let xml = zwave_protocol::registry::xml::to_xml(zwave_protocol::Registry::global());
            match flag(&args, "--out") {
                Some(path) => {
                    written(&path, std::fs::write(&path, &xml));
                    eprintln!(
                        "{} classes exported to {path}",
                        zwave_protocol::Registry::global().len()
                    );
                }
                None => println!("{xml}"),
            }
        }
        _ => {
            eprintln!(
                "usage: zcover <fingerprint|discover|fuzz|trials|sweep|replay|trace|export-spec> \
                 [--device D1..D7] [--seed N] [--hours H] [--trials N] [--workers N] \
                 [--homes N] [--topology star|line|mesh] [--shard-size N] \
                 [--mode zcover|vfuzz|coverage] \
                 [--config full|beta|gamma|no-priority|no-plans] \
                 [--impairment clean|lossy|bursty|adversarial] \
                 [--scenario none|s0-no-more|crushing-the-wave] \
                 [--format text|json] [--record FILE] [--record-dir DIR] \
                 [--log FILE] [--report FILE] [--out FILE]\n\
                 trace files may be .jsonl or .zct (compact binary); \
                 `zcover trace export|stats` converts and analyses them"
            );
            std::process::exit(if command == "help" { 0 } else { 2 });
        }
    }
}
