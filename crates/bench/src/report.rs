//! Table rendering and JSON result archiving for the experiments and soaks.
//!
//! Every experiment prints an aligned text table (paper values next to
//! measured values) and archives machine-readable results under
//! `results/`. The soak scenarios and the paper's experiments share one
//! schema, [`SoakReport`].

use std::fs;
use std::path::PathBuf;

/// Renders an aligned text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n=== {} ===\n", title));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{:>width$}", c, width = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Prints a table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", render_table(title, headers, rows));
}

/// Directory where experiment outputs are archived.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("APF_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Atomically writes `contents` to `results/<file_name>`: the bytes land
/// in a dot-prefixed temp file first and are renamed into place, so a
/// crash (or a failed gate that kills the process mid-run) can never
/// leave a truncated or stale-looking artifact at the final path.
pub fn save_atomic(file_name: &str, contents: &str) {
    let dir = results_dir();
    let path = dir.join(file_name);
    let tmp = dir.join(format!(".{file_name}.tmp"));
    let res = fs::write(&tmp, contents).and_then(|()| fs::rename(&tmp, &path));
    match res {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            eprintln!("warning: could not write {}: {}", path.display(), e);
        }
    }
}

/// Saves a serializable value as pretty JSON under `results/<name>.json`
/// (atomic: temp file + rename).
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(s) => save_atomic(&format!("{name}.json"), &s),
        Err(e) => eprintln!("warning: could not serialize {}: {}", name, e),
    }
}

/// The one report schema of the `soak` scenarios and the `repro`
/// experiments, archived as `results/soak_<scenario>.json` or
/// `results/repro_<experiment>.json`:
/// `{scenario, seed, params, verdicts: {name: bool}, counts: {name: number}, detail}`.
///
/// [`SoakReport::check`] records a verdict and asserts it in the same call,
/// so each gated fact has one name: the one the process panics with and
/// the one `scripts/check.sh` greps for as `"name": true`.
/// [`SoakReport::record`] only records: a paper claim that does not
/// reproduce is a finding, archived as `"name": false`.
pub struct SoakReport {
    /// Archive file stem under `results/`.
    file: String,
    scenario: String,
    seed: u64,
    params: Vec<(String, f64)>,
    verdicts: Vec<(String, bool)>,
    counts: Vec<(String, f64)>,
    /// Compact JSON per entry.
    detail: Vec<(String, String)>,
}

impl SoakReport {
    /// An empty report for `scenario`, run with `seed` and `params`.
    pub fn new(scenario: &str, seed: u64, params: &[(&str, f64)]) -> Self {
        SoakReport {
            file: format!("soak_{scenario}"),
            scenario: scenario.to_string(),
            seed,
            params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            verdicts: Vec::new(),
            counts: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// An empty report for experiment `name` of the `repro` binary.
    pub fn repro(name: &str, seed: u64, params: &[(&str, f64)]) -> Self {
        SoakReport { file: format!("repro_{name}"), ..Self::new(name, seed, params) }
    }

    /// Records verdict `name` and panics with `name` and `msg` when it is
    /// false (the soak binary is the gate: any failed verdict fails the run).
    pub fn check(&mut self, name: &str, ok: bool, msg: impl std::fmt::Display) {
        self.verdicts.push((name.to_string(), ok));
        assert!(ok, "soak {}: verdict `{name}` failed: {msg}", self.scenario);
    }

    /// Records verdict `name` without asserting it.
    pub fn record(&mut self, name: &str, ok: bool) {
        self.verdicts.push((name.to_string(), ok));
    }

    /// Records a number under `counts`.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    /// Records any serializable value under `detail`.
    pub fn detail<T: serde::Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        let mut json = String::new();
        value.serialize_json(&mut json);
        self.detail.push((name.to_string(), json));
    }

    /// Prints the verdicts and counts, then archives the report.
    pub fn finish(&self) {
        let title = self.file.replacen('_', " ", 1);
        let counts: Vec<Vec<String>> = self
            .counts
            .iter()
            .map(|(k, v)| vec![k.clone(), ((v * 1e4).round() / 1e4).to_string()])
            .collect();
        print_table(&format!("{title} — counts"), &["count", "value"], &counts);
        let verdicts: Vec<Vec<String>> =
            self.verdicts.iter().map(|(k, v)| vec![k.clone(), v.to_string()]).collect();
        print_table(&format!("{title} — verdicts"), &["verdict", "held"], &verdicts);
        save_json(&self.file, self);
        let held = self.verdicts.iter().filter(|(_, ok)| *ok).count();
        println!("{title}: {held} of {} verdicts held", self.verdicts.len());
    }
}

/// Appends `,"key":{"k":v,...}` with each value written by `write`.
fn write_object<V>(
    out: &mut String,
    key: &str,
    entries: &[(String, V)],
    write: impl Fn(&V, &mut String),
) {
    out.push_str(&format!(",\"{key}\":{{"));
    for (i, (k, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde::write_json_string(k, out);
        out.push(':');
        write(v, out);
    }
    out.push('}');
}

impl serde::Serialize for SoakReport {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"scenario\":");
        serde::write_json_string(&self.scenario, out);
        out.push_str(&format!(",\"seed\":{}", self.seed));
        write_object(out, "params", &self.params, f64::serialize_json);
        write_object(out, "verdicts", &self.verdicts, bool::serialize_json);
        write_object(out, "counts", &self.counts, f64::serialize_json);
        write_object(out, "detail", &self.detail, |json, out| out.push_str(json));
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let s = render_table(
            "T",
            &["a", "longheader"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000".into()],
            ],
        );
        assert!(s.contains("=== T ==="));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // All data lines equal length.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn save_json_writes_file() {
        std::env::set_var("APF_RESULTS_DIR", std::env::temp_dir().join("apf_results_test"));
        save_json("unit_test", &vec![1, 2, 3]);
        let p = results_dir().join("unit_test.json");
        assert!(p.exists());
        std::env::remove_var("APF_RESULTS_DIR");
    }

    #[test]
    fn soak_report_gates_and_archives_every_verdict() {
        let mut r = SoakReport::new("unit", 7, &[("steps", 40.0)]);
        r.check("held", true, "unused");
        r.count("drift", 0.0);
        r.detail("list", &vec![1u8, 2]);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.check("broke", false, format_args!("{} lost", 3))
        }))
        .expect_err("a false verdict panics");
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("`broke`") && msg.contains("3 lost"), "{msg}");
        let json = serde_json::to_string_pretty(&r).unwrap();
        for needle in [
            "\"scenario\": \"unit\"",
            "\"seed\": 7",
            "\"steps\": 40",
            "\"held\": true",
            "\"broke\": false",
            "\"drift\": 0",
            "\"list\": [",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn record_archives_a_false_verdict_without_panicking() {
        let mut r = SoakReport::repro("unit_repro", 11, &[]);
        r.record("claim_reproduced", false);
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(json.contains("\"claim_reproduced\": false"), "{json}");
        assert_eq!(r.file, "repro_unit_repro");
    }

    #[test]
    fn save_atomic_leaves_no_temp_file() {
        std::env::set_var("APF_RESULTS_DIR", std::env::temp_dir().join("apf_results_atomic_test"));
        save_atomic("trace.jsonl", "{\"a\":1}\n");
        let dir = results_dir();
        assert_eq!(std::fs::read_to_string(dir.join("trace.jsonl")).unwrap(), "{\"a\":1}\n");
        assert!(!dir.join(".trace.jsonl.tmp").exists(), "temp file must be renamed away");
        std::env::remove_var("APF_RESULTS_DIR");
    }
}
