//! Regenerates Figure 5: the command-count distribution of the selected
//! command classes, straight from the specification registry. Takes no
//! flags.

fn main() {
    zcover::cli::Command { name: "figure5", flags: &[] }.env_args();
    let (_entries, text) = zcover_bench::experiments::figure5();
    println!("{text}");
}
