//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <wire_unique|engine_repeat|slide_stitch|train_unetr>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance stamp, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The same line and the
//! stamp are also written under `.perfbench/`.

use std::process::ExitCode;

use apf_perfbench::report::{result_line, stamp_line, END_TO_END, PER_LAYER};
use apf_perfbench::{run, Options, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        let ok = match args[i].as_str() {
            "--workload" => Workload::parse(value).map(|w| workload = Some(w)).is_some(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            }
            .map(|t| trace = t)
            .is_some(),
            other => return usage(&format!("unknown argument {other}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {}", args[i]));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        trace,
        ..Options::new(workload, seed, seconds)
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let stamp = stamp_line(&report);
    let line = result_line(&report, catalogue);
    let record = opts.scratch(if trace { "result-traced" } else { "result" }, "json");
    if let Err(e) = std::fs::write(&record, format!("{stamp}\n{line}\n")) {
        eprintln!("perfbench: could not write {}: {e}", record.display());
    }
    println!("{stamp}");
    println!("{line}");
    ExitCode::SUCCESS
}
