//! Reproduces the paper's tables and figures: `repro --exp <name>|all
//! [--quick]`. The names and their order are in
//! [`apf_bench::experiments::EXPERIMENTS`]; each run archives
//! `results/repro_<name>.json`. An unknown or missing `--exp` exits with
//! code 2 and lists the valid names.

use apf_bench::experiments::select;
use apf_bench::Args;

fn main() {
    let args = Args::parse();
    let exp: String = args.get("exp", String::new());
    let selected = select(&exp).unwrap_or_else(|msg| {
        eprintln!("repro: {msg}\nusage: repro --exp <name>|all [--quick]");
        std::process::exit(2);
    });
    for (name, run) in selected {
        println!("\n##### repro --exp {name}");
        run(args.flag("quick")).finish();
    }
}
