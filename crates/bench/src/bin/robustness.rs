//! Extension experiment: ZCover's effectiveness versus channel loss rate
//! (failure injection on the simulated medium). Takes no flags.

fn main() {
    zcover::cli::Command { name: "robustness", flags: &[] }.env_args();
    let (_results, text) = zcover_bench::experiments::loss_sweep(31);
    println!("{text}");
}
