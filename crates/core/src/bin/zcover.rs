//! The `zcover` command-line tool: run any phase of the analysis against a
//! simulated testbed device. `zcover help` prints every subcommand's
//! flags, rendered from the declarations in `COMMANDS`.
//!
//! ```text
//! zcover fuzz        --device D1 --hours 0.02 --record trace.zct
//! zcover trials      --device D1 --trials 5 --workers 4 --hours 1
//! zcover sweep       --homes 10000 --topology mesh --workers 4
//! zcover replay      trace.zct
//! zcover trace stats traces/home0.zct traces/home1.zct
//! ```

use std::path::Path;
use std::time::Duration;

use zcover::cli::{probe, Args, CliError, Command};
use zcover::{
    run_sweep, ActiveScanReport, ActiveScanner, BugLog, CampaignCounters, CampaignExecutor,
    FuzzConfig, ImpairmentProfile, ScanReport, Scenario, SweepConfig, Trace, TraceSpec, TraceStats,
    UnknownDiscovery, ZCover, ZCoverError, DEFAULT_SHARD_SIZE,
};
use zwave_controller::testbed::{DeviceModel, Testbed};
use zwave_controller::{HomeNetwork, Topology};

/// The campaign flags `fuzz`, `trials` and `sweep` share (see [`fuzz_config`]).
const CAMPAIGN: &str = "--seed N --hours H --mode zcover|vfuzz|coverage \
    --config full|beta|gamma|no-priority|no-plans --impairment clean|lossy|bursty|adversarial \
    --scenario none|s0-no-more|crushing-the-wave --format text|json";
const FUZZ: &[&str] = &["--device D1..D7", CAMPAIGN, "--record FILE --report FILE --log FILE"];
const TRIALS: &[&str] =
    &["--device D1..D7 --trials N --workers N", CAMPAIGN, "--record PREFIX --log FILE"];
const SWEEP: &[&str] = &[
    "--homes N --topology star|line|mesh --workers N --shard-size N",
    CAMPAIGN,
    "--record-dir DIR",
];

/// A subcommand's body.
type Run = fn(&Args) -> Result<(), CliError>;

/// Every subcommand: its declared command line and the function running it.
const COMMANDS: [(Command, Run); 9] = [
    (Command { name: "zcover fingerprint", flags: &["--device D1..D7 --seed N"] }, fingerprint),
    (Command { name: "zcover discover", flags: &["--device D1..D7 --seed N"] }, discover),
    (Command { name: "zcover fuzz", flags: FUZZ }, fuzz),
    (Command { name: "zcover trials", flags: TRIALS }, trials),
    (Command { name: "zcover sweep", flags: SWEEP }, sweep),
    (Command { name: "zcover replay <trace>", flags: &[] }, replay),
    (Command { name: "zcover trace export <trace>", flags: &["--out FILE"] }, export),
    (Command { name: "zcover trace stats <trace>...", flags: &["--format text|json"] }, stats),
    (Command { name: "zcover export-spec", flags: &["--out FILE"] }, export_spec),
];

/// The fuzz configuration `--mode`, `--config`, `--impairment` and
/// `--scenario` select (the flags `fuzz`, `trials` and `sweep` share).
/// `--mode zcover` (the default) defers to `--config`; the coverage and
/// vfuzz (MAC-level mutation) engines are whole configurations of their
/// own.
fn fuzz_config(args: &Args, budget: Duration, seed: u64) -> Result<FuzzConfig, CliError> {
    let named = |name: &str| FuzzConfig::named(name, budget, seed);
    let config = match (args.one_of("--mode", "zcover")?, args.get("--config")) {
        ("zcover", _) => args.choice("--config", FuzzConfig::full(budget, seed), named)?,
        (mode, None) => named(mode).expect("every --mode names a configuration"),
        (mode, Some(name)) => {
            let expected = format!("no --config with --mode {mode}");
            return Err(CliError::invalid("--config", name, &expected));
        }
    };
    let impairment =
        args.choice("--impairment", ImpairmentProfile::Clean, ImpairmentProfile::parse)?;
    let scenario = args.choice("--scenario", Scenario::None, Scenario::parse)?;
    Ok(config.with_impairment(impairment).with_scenario(scenario))
}

/// Exits with status 1 after `{what} failed at trial N: …` (or `home N`)
/// or `{what} failed: …`.
fn failed(what: &str, e: ZCoverError) -> ! {
    let at = matches!(e, ZCoverError::Trial { .. } | ZCoverError::SweepHome { .. });
    eprintln!("{what} failed{} {e}", if at { " at" } else { ":" });
    std::process::exit(1)
}

/// Exits with status 2 naming `path` when writing an output file failed.
fn written<E: std::fmt::Display>(path: &str, result: Result<(), E>) {
    if let Err(e) = result {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    }
}

/// The counter and channel lines of a `fuzz` or `trials` text report.
fn print_counters(c: &CampaignCounters) {
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
    let argv = zcover::cli::env_argv().unwrap_or_else(|e| e.exit());
    // A subcommand is the words of its name between `zcover` and the operand.
    let found = COMMANDS.iter().find_map(|(command, run)| {
        let words = command.name.split(' ').skip(1).take_while(|w| !w.starts_with('<'));
        let depth = words.clone().count();
        argv.get(..depth)
            .is_some_and(|head| words.eq(head.iter().map(String::as_str)))
            .then_some((command, run, depth))
    });
    let Some((command, run, depth)) = found else {
        let usage: Vec<String> = COMMANDS.iter().map(|(command, _)| command.usage()).collect();
        eprintln!(
            "usage: {}\n\
             trace files may be .jsonl or .zct (compact binary); \
             `zcover trace export|stats` converts and analyses them",
            usage.join("\n       ")
        );
        std::process::exit(if argv.first().is_none_or(|a| a == "help") { 0 } else { 2 });
    };
    if let Err(e) = run(&command.args(&argv[depth..])) {
        e.exit();
    }
}

/// Fingerprints the controller, then runs the active NIF scan; `discover`
/// goes on to unknown-property discovery.
fn recon(args: &Args) -> Result<(HomeNetwork, ZCover, ScanReport, ActiveScanReport), CliError> {
    let model = args.choice("--device", DeviceModel::D1, DeviceModel::parse)?;
    let mut tb = Testbed::new(model, args.num("--seed", 42)?);
    let mut zc = ZCover::attach(&tb, 70.0);
    let scan = zc.fingerprint(&mut tb).expect("no traffic observed");
    let active = ActiveScanner::scan(&mut tb, zc.dongle_mut(), &scan)
        .expect("controller did not answer the NIF request");
    Ok((tb, zc, scan, active))
}

fn fingerprint(args: &Args) -> Result<(), CliError> {
    let (tb, _, scan, active) = recon(args)?;
    println!("device:     {} {}", tb.controller().config().brand, tb.controller().config().model);
    println!("home id:    {}", scan.home_id);
    println!("controller: {}", scan.controller);
    println!("slaves:     {:?}", scan.slaves.iter().map(|n| n.to_string()).collect::<Vec<_>>());
    println!("listed CMDCLs ({}):", active.listed.len());
    for cc in &active.listed {
        println!("  {cc}");
    }
    Ok(())
}

fn discover(args: &Args) -> Result<(), CliError> {
    let (mut tb, mut zc, scan, active) = recon(args)?;
    let discovery = UnknownDiscovery::run(&mut tb, zc.dongle_mut(), &scan, active.listed);
    println!(
        "listed: {}  spec-unlisted: {}  proprietary: {:?}",
        discovery.listed.len(),
        discovery.unlisted_from_spec.len(),
        discovery.proprietary.iter().map(|c| c.to_string()).collect::<Vec<_>>()
    );
    println!("prioritized fuzzing queue:");
    for (rank, cc) in discovery.prioritized_targets().iter().enumerate() {
        let name =
            zwave_protocol::Registry::global().get(*cc).map(|s| s.name).unwrap_or("<proprietary>");
        println!("  {:>2}. {} {}", rank + 1, cc, name);
    }
    Ok(())
}

fn fuzz(args: &Args) -> Result<(), CliError> {
    let model = args.choice("--device", DeviceModel::D1, DeviceModel::parse)?;
    let seed = args.num("--seed", 42)?;
    let (hours, budget) = args.hours(1.0)?;
    let config = fuzz_config(args, budget, seed)?;
    let json = args.one_of("--format", "text")? == "json";
    let (record, report_path, log_path) =
        (args.out("--record")?, args.out("--report")?, args.out("--log")?);
    let profile = config.impairment;
    eprintln!("fuzzing {} for {hours}h virtual (seed {seed}, channel {profile}) ...", model.idx());
    let mut tb = Testbed::new(model, seed);
    let report = match record {
        Some(path) => zcover::record_on(&mut tb, model.idx(), config).map(|rec| {
            written(path, rec.trace.save(Path::new(path)));
            eprintln!("trace recorded to {path} ({} events)", rec.trace.events.len());
            rec.report
        }),
        None => ZCover::attach(&tb, 70.0).run_campaign(&mut tb, config),
    }
    .unwrap_or_else(|e| failed("fuzz", e));
    if let Some(path) = report_path {
        let device = model.config();
        let label = format!("{} {} ({})", device.brand, device.model, model.idx());
        written(path, std::fs::write(path, zcover::report::to_markdown(&report, &label)));
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
        print_counters(&report.campaign.counters);
    }
    let mut log = BugLog::new();
    for finding in &report.campaign.findings {
        log.absorb(finding);
    }
    let text = log.to_text();
    if !json {
        println!("{text}");
    }
    if let Some(path) = log_path {
        written(path, std::fs::write(path, &text));
        eprintln!("bug log written to {path}");
    }
    Ok(())
}

fn trials(args: &Args) -> Result<(), CliError> {
    let model = args.choice("--device", DeviceModel::D1, DeviceModel::parse)?;
    let seed = args.num("--seed", 42)?;
    let (hours, budget) = args.hours(1.0)?;
    let trials: u64 = args.count("--trials", 5)?;
    let workers: usize = args.count("--workers", 1)?;
    let config = fuzz_config(args, budget, seed)?;
    let json = args.one_of("--format", "text")? == "json";
    let trace_spec = args
        .get("--record")
        .map(|prefix| TraceSpec { device: model.idx().to_string(), prefix: prefix.into() });
    if let Some(spec) = &trace_spec {
        probe(spec.trial_path(0))?;
    }
    let log_path = args.out("--log")?;
    let profile = config.impairment;
    let executor = CampaignExecutor::new(workers);
    eprintln!(
        "running {trials} trials of {hours}h on {} across {} worker(s) \
         (campaign seed {seed}, channel {profile}) ...",
        model.idx(),
        executor.workers()
    );
    let summary = executor
        .run_with_trace(
            trials,
            seed,
            |seed| Testbed::new(model, seed),
            &config,
            trace_spec.as_ref(),
        )
        .unwrap_or_else(|e| failed("trials", e));
    if let Some(spec) = &trace_spec {
        eprintln!(
            "per-trial traces recorded to {} .. {}",
            spec.trial_path(0).display(),
            spec.trial_path(trials - 1).display()
        );
    }
    if json {
        println!("{}", zcover::report::summary_to_json(&summary));
    } else {
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
        print_counters(&summary.counters);
        println!("per-bug hit counts (bug id: trials that found it):");
        for (bug, hits) in &summary.hit_counts {
            let mean_t = summary
                .mean_time_to_find(*bug)
                .map(|d| format!("{:.0} s", d.as_secs_f64()))
                .unwrap_or_else(|| "-".to_string());
            println!("  {bug:02}: {hits}/{} (mean time to find {mean_t})", summary.trials());
        }
    }
    if let Some(path) = log_path {
        let mut log = BugLog::new();
        for finding in &summary.unique_findings {
            log.absorb(finding);
        }
        written(path, std::fs::write(path, log.to_text()));
        eprintln!("merged bug log written to {path}");
    }
    Ok(())
}

fn sweep(args: &Args) -> Result<(), CliError> {
    let homes: u64 = args.num("--homes", 64)?;
    let topology = args.choice("--topology", Topology::Mesh, Topology::parse)?;
    let seed = args.num("--seed", 42)?;
    // A short per-home budget is the whole point of a sweep: breadth over
    // depth. 180 virtual seconds survives discovery, the high-priority
    // classes, and a couple of outage recoveries on every Table II model —
    // enough for several bug classes per home while 10 000 homes still
    // sweep in about a minute.
    let (hours, budget) = args.hours(0.05)?;
    let workers: usize = args.count("--workers", 1)?;
    let shard_size: u64 = args.count("--shard-size", DEFAULT_SHARD_SIZE)?;
    let base = fuzz_config(args, budget, seed)?;
    let profile = base.impairment;
    let json = args.one_of("--format", "text")? == "json";
    let mut config = SweepConfig::new(homes, topology, base).with_shard_size(shard_size);
    if let Some(dir) = args.get("--record-dir") {
        probe(SweepConfig::home_trace_path(Path::new(dir), 0))?;
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
    let (summary, timing) = run_sweep(&executor, &config).unwrap_or_else(|e| failed("sweep", e));
    if let Some(dir) = &config.record_dir {
        eprintln!(
            "per-home traces recorded to {} .. {}",
            SweepConfig::home_trace_path(dir, 0).display(),
            SweepConfig::home_trace_path(dir, homes.saturating_sub(1)).display()
        );
    }
    // Throughput is real wall-clock and goes to stderr; stdout stays
    // bit-identical for any worker count.
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
        return Ok(());
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
    Ok(())
}

fn replay(args: &Args) -> Result<(), CliError> {
    let path = &args.operands()[0];
    let (bytes, trace) = load_trace(path);
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
        // The index alone is enough for a JSONL trace; for a binary one
        // the block/byte locus says where to seek.
        eprintln!(
            "recorded event {} lives at {} of {path}",
            d.index,
            zcover::event_locus(&bytes, d.index)
        );
        std::process::exit(1);
    }
    Ok(())
}

fn export(args: &Args) -> Result<(), CliError> {
    let path = &args.operands()[0];
    let out = args.out("--out")?;
    let (_, trace) = load_trace(path);
    match out {
        // The output extension picks the format, so this converts in both
        // directions (jsonl ↔ zct).
        Some(out) => {
            written(out, trace.save(Path::new(out)));
            eprintln!("{path} ({} events) exported to {out}", trace.events.len());
        }
        None => print!("{}", trace.to_jsonl()),
    }
    Ok(())
}

fn stats(args: &Args) -> Result<(), CliError> {
    let json = args.one_of("--format", "text")? == "json";
    let mut traces = Vec::with_capacity(args.operands().len());
    let mut reports = Vec::with_capacity(args.operands().len());
    for path in args.operands() {
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
    Ok(())
}

fn export_spec(args: &Args) -> Result<(), CliError> {
    let out = args.out("--out")?;
    let xml = zwave_protocol::registry::xml::to_xml(zwave_protocol::Registry::global());
    match out {
        Some(path) => {
            written(path, std::fs::write(path, &xml));
            eprintln!("{} classes exported to {path}", zwave_protocol::Registry::global().len());
        }
        None => println!("{xml}"),
    }
    Ok(())
}
