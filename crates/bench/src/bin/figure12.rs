//! Regenerates Figure 12: packets-over-time with discovery marks for the
//! initial fuzzing phase on D1, D3, D4 and D5, plus the Section IV-B2
//! early-discovery summary. `--trials N` averages the summary over N
//! seeds per device, `--workers N` parallelises them and `--csv DIR`
//! exports one data file per device for external plotting.

use zcover::cli::{probe, Command};

fn main() {
    let args = Command { name: "figure12", flags: &["--seed N --trials N --workers N --csv DIR"] }
        .env_args();
    let spec = zcover_bench::CampaignSpec::from_cli(&args, 12, 1).unwrap_or_else(|e| e.exit());
    let csv_dir = args.get("--csv");
    if let Some(dir) = csv_dir {
        probe(format!("{dir}/figure12_D1.csv")).unwrap_or_else(|e| e.exit());
    }
    let (series, text) =
        zcover_bench::experiments::figure12(800.0, spec.seed, spec.trials, spec.workers);
    println!("{text}");
    println!("{}", zcover_bench::experiments::performance_summary(&series));

    if let Some(dir) = csv_dir {
        for s in &series {
            let mut csv = String::from("t_seconds,packets,bug_id\n");
            for (t, packets, is_bug) in &s.points {
                csv.push_str(&format!("{t:.3},{packets},{}\n", if *is_bug { "X" } else { "" }));
            }
            let path = format!("{dir}/figure12_{}.csv", s.device);
            std::fs::write(&path, csv).expect("writing CSV");
            eprintln!("wrote {path}");
        }
    }
}
