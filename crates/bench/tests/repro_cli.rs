//! The `repro` binary's argument handling.

use std::process::Command;

use apf_bench::experiments::EXPERIMENTS;

#[test]
fn an_unknown_experiment_exits_non_zero_and_lists_the_valid_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--exp", "table9", "--quick"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`table9`"), "{stderr}");
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "{stderr} lacks {name}");
    }
    assert!(out.stdout.is_empty(), "no experiment may run");
}
