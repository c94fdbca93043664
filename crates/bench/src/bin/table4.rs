//! Regenerates Table IV: passive/active fingerprinting and
//! unknown-property discovery for every controller. Fingerprinting is a
//! single deterministic pass per device, so the one flag is `--seed N`.

use zcover::cli::Command;

fn main() {
    let args = Command { name: "table4", flags: &["--seed N"] }.env_args();
    let seed = args.num("--seed", 77).unwrap_or_else(|e| e.exit());
    let (_results, text) = zcover_bench::experiments::table4(seed);
    println!("{text}");
}
