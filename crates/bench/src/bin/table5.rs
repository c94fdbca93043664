//! Regenerates Table V: the VFuzz comparison on D1-D5, over the shared
//! campaign flags (`--seed N --trials N --workers N --paper
//! --impairment NAME`). The fast default is a 2-hour virtual budget; pass
//! `--paper` for the paper's 24-hour runs (the VFuzz generated-coverage
//! column needs the long run to reach 256/256).

use zcover::cli::Command;

fn main() {
    let flags =
        &["--seed N --trials N --workers N --paper --impairment clean|lossy|bursty|adversarial"];
    let args = Command { name: "table5", flags }.env_args();
    let spec = zcover_bench::CampaignSpec::from_cli(&args, 99, 1).unwrap_or_else(|e| e.exit());
    eprintln!("{}", spec.banner("per fuzzer on each of D1-D5"));
    let (_results, text) = zcover_bench::experiments::table5(
        spec.budget,
        spec.seed,
        spec.trials,
        spec.workers,
        spec.profile,
    );
    println!("{text}");
}
