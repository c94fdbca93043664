//! Benchmark entry point: `zbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a context line (machine, seed, commit, timing samples, failed
//! checks) and, last, the result line `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 0 when every check passed, 1 when one failed (the
//! result line then carries no metrics), 2 on a usage error (no result).

use std::process::ExitCode;

use zbench::metrics::json_str;
use zbench::{stats, tail_percentile, Outcome, Params, Scale, Workload};

const USAGE: &str = "usage: zbench --workload <sweep-mesh|fuzz-deep|replay-lossy> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, Params), String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Params {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            traced: traced.ok_or_else(|| missing("--trace"))?,
        },
    ))
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Each timing sample set as its median, the highest percentile with at
/// least ten samples beyond it (or null), and the sample count.
fn timings_json(out: &Outcome) -> String {
    let entries: Vec<String> = out
        .timings
        .iter()
        .map(|(name, samples)| {
            let tail = tail_percentile(samples.len()).map_or_else(
                || "null".to_string(),
                |p| format!("{{\"p\": {p}, \"value\": {}}}", stats::percentile(samples, p)),
            );
            format!(
                "{}: {{\"median\": {}, \"tail\": {tail}, \"n\": {}}}",
                json_str(name),
                stats::median(samples),
                samples.len()
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, params) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("zbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu_count = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "zbench: {} seed {} for {} s, trace {}, {cpu_count} CPU(s)",
        workload.name(),
        params.seed,
        params.seconds,
        u8::from(params.traced)
    );

    let out = zbench::run(workload, &params, &Scale::FULL);

    if let Some(table) = &out.span_table {
        eprint!("{table}");
    }
    for failure in &out.failures {
        eprintln!("zbench: FAILED: {failure}");
    }
    let result = match out.result_line(params.traced) {
        Ok(line) => line,
        Err(error) => {
            eprintln!("zbench: {error}");
            return ExitCode::from(2);
        }
    };
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpu_count\": {cpu_count}, \"git_commit\": {}, \"error_rate\": {}, \"timings_s\": {}, \
         \"failures\": [{}]}}}}",
        json_str(workload.name()),
        params.seed,
        params.seconds,
        u8::from(params.traced),
        json_str(&git_commit()),
        out.failed as f64 / out.attempted.max(1) as f64,
        timings_json(&out),
        failures.join(", ")
    );
    println!("{result}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
