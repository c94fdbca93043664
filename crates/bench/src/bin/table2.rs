//! Regenerates Table II: the testbed device inventory, cross-checked
//! against live simulated instances. Takes no flags.

fn main() {
    zcover::cli::Command { name: "table2", flags: &[] }.env_args();
    println!("{}", zcover_bench::experiments::table2());
}
