//! Regenerates Table VI: the ablation study (full / β known-only /
//! γ random) for one virtual hour on the ZooZ D1, averaged over
//! independently-seeded trials. Pass `--seed N` to vary the campaign
//! seed, `--trials N` for the number of trials per configuration,
//! `--workers N` to parallelise them and `--extended` to add the
//! extended ablation.

use zcover::cli::Command;

fn main() {
    let flags = &["--seed N --trials N --workers N --extended"];
    let args = Command { name: "table6", flags }.env_args();
    let spec = zcover_bench::CampaignSpec::from_cli(&args, 6, 3).unwrap_or_else(|e| e.exit());
    let (_results, text) = zcover_bench::experiments::table6(spec.seed, spec.trials, spec.workers);
    println!("{text}");
    if args.switch("--extended") {
        let (_results, text) =
            zcover_bench::experiments::table6_extended(spec.seed, spec.trials, spec.workers);
        println!("{text}");
    }
}
