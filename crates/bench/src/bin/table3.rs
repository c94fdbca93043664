//! Regenerates Table III: runs a full ZCover campaign against every
//! controller (D1-D7) and reports the zero-day findings next to the
//! paper's rows. Use `--paper` for 24-hour budgets, `--trials N` for
//! multiple seeds per device (the paper ran five), `--workers N` to
//! spread the trials over a thread pool (results are identical for any
//! worker count) and `--impairment clean|lossy|bursty|adversarial` to run
//! the whole table over an impaired channel. The campaign seeds are fixed
//! per device, so there is no `--seed`.

use zcover::cli::Command;

fn main() {
    let flags = &["--trials N --workers N --paper --impairment clean|lossy|bursty|adversarial"];
    let args = Command { name: "table3", flags }.env_args();
    let spec = zcover_bench::CampaignSpec::from_cli(&args, 0, 1).unwrap_or_else(|e| e.exit());
    eprintln!("{}", spec.banner("per device on D1-D7"));
    let (result, text) =
        zcover_bench::experiments::table3(spec.budget, spec.trials, spec.workers, spec.profile);
    println!("{text}");
    println!(
        "summary: {} unique zero-days across the testbed (paper: 15, of which 12 CVEs)",
        result.total_unique
    );
}
