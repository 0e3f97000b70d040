//! `apf-perfbench`: one benchmark for the served request, the stitched slide
//! and the training step, end to end and layer by layer.
//!
//! Each workload drives the system through its public entry points with
//! inputs generated from `--seed`, checks every answer against an offline
//! reference ([`oracle`]), and reports the metrics of [`report`]. An
//! untraced run gives the end-to-end metrics; a traced run (`--trace 1`)
//! passes an enabled [`Telemetry`] through the existing config fields,
//! wraps the layer calls in the benchmark's own spans, times each layer's
//! public functions standalone ([`layers`]), and writes the spans as a
//! Chrome trace. See `README.md` beside this crate for the design.

pub mod calib;
pub mod engine_repeat;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod slide_stitch;
pub mod stats;
pub mod train_unetr;
pub mod wire_unique;

use std::path::PathBuf;
use std::time::Instant;

use apf_telemetry::Telemetry;

use report::{RunReport, Values};

/// Weight seed of every served model; the offline references use it too.
pub const MODEL_SEED: u64 = 7;

/// Spans the traced run keeps in memory before writing them out.
pub const TRACE_CAPACITY: usize = 1 << 19;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct 512² crops over APFW1 on loopback: the 0 %-cache-hit cell.
    WireUnique,
    /// Open-loop Poisson arrivals of 8 repeated 64² crops through the
    /// batched, cached engine: per-request overhead.
    EngineRepeat,
    /// A 4096² slide stitched into an output container by two stitch workers.
    SlideStitch,
    /// Back-to-back UNETR training steps on adaptively patched pairs.
    TrainUnetr,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::WireUnique,
        Workload::EngineRepeat,
        Workload::SlideStitch,
        Workload::TrainUnetr,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireUnique => "wire_unique",
            Workload::EngineRepeat => "engine_repeat",
            Workload::SlideStitch => "slide_stitch",
            Workload::TrainUnetr => "train_unetr",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shrinks every input and model so a run finishes in about a second
    /// (the benchmark's own tests).
    pub smoke: bool,
    /// Scratch directory for slides, output containers and trace files.
    pub work_dir: PathBuf,
}

impl Options {
    /// Options for `workload` with the defaults of the command line.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace: false,
            smoke: false,
            work_dir: PathBuf::from(".perfbench"),
        }
    }

    /// A path in the scratch directory, unique to this workload and seed.
    pub fn scratch(&self, stem: &str, ext: &str) -> PathBuf {
        self.work_dir.join(format!(
            "{}-{}-{stem}.{ext}",
            self.workload.name(),
            self.seed
        ))
    }
}

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> std::io::Result<RunReport> {
    std::fs::create_dir_all(&opts.work_dir)?;
    let mut report = match opts.workload {
        Workload::WireUnique => wire_unique::run(opts)?,
        Workload::EngineRepeat => engine_repeat::run(opts)?,
        Workload::SlideStitch => slide_stitch::run(opts)?,
        Workload::TrainUnetr => train_unetr::run(opts)?,
    };
    if !opts.trace {
        report.values.insert("peak_rss_mb", stats::peak_rss_mb());
    }
    let backend = apf_tensor::kernels::backend::kernel_backend()
        .map_or_else(|e| format!("error: {e:?}"), |k| format!("{k:?}"));
    let mut stamp = vec![
        ("workload", opts.workload.name().to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("git_sha", stats::git_sha()),
        ("cpu", stats::cpu_model()),
        ("nproc", stats::nproc().to_string()),
        ("kernel_backend", backend),
    ];
    stamp.append(&mut report.stamp);
    report.stamp = stamp;
    Ok(report)
}

/// Runs `make` `reps` times, keeping only the last state, and returns it
/// with the median set-up time in seconds. Earlier states are dropped
/// before the next attempt starts, outside the timed region.
pub fn repeated_setup<T>(
    reps: usize,
    mut make: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut state = None;
    for _ in 0..reps.max(1) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(make()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((
        state.expect("at least one set-up ran"),
        stats::median(&times),
    ))
}

/// A fresh enabled telemetry for a traced phase.
pub fn traced_telemetry() -> Telemetry {
    Telemetry::with_trace_capacity(TRACE_CAPACITY)
}

/// Writes the traced run's spans as Chrome trace JSON and returns the path.
pub fn write_trace(opts: &Options, tel: &Telemetry) -> std::io::Result<PathBuf> {
    let path = opts.scratch("trace", "json");
    std::fs::write(&path, tel.chrome_trace_json())?;
    Ok(path)
}

/// Splits the measured window of a traced run: the first third runs
/// untraced (the overhead baseline), the rest traced.
pub fn traced_split(seconds: f64) -> (f64, f64) {
    (seconds / 3.0, seconds * 2.0 / 3.0)
}

/// Sets `trace.overhead_share` from the mean operation time of the
/// untraced and traced phases.
pub fn record_overhead(values: &mut Values, untraced_mean: f64, traced_mean: f64) {
    if untraced_mean > 0.0 {
        values.insert("trace.overhead_share", traced_mean / untraced_mean - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn smoke(workload: Workload, trace: bool) -> RunReport {
        let dir = std::env::temp_dir().join(format!(
            "perfbench-smoke-{}-{}",
            workload.name(),
            std::process::id()
        ));
        let opts = Options {
            trace,
            smoke: true,
            work_dir: dir.clone(),
            ..Options::new(workload, 3, 0.6)
        };
        let report = run(&opts).expect("smoke run");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    fn check(workload: Workload) {
        let r = smoke(workload, false);
        assert!(r.correct, "{} failed its oracle: {r:?}", workload.name());
        assert!(r.attempted >= 1 && r.failed == 0, "{r:?}");
        for m in END_TO_END {
            let v = r.values.get(m.name).copied();
            assert!(
                v.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {v:?}",
                workload.name(),
                m.name
            );
        }
        let t = smoke(workload, true);
        assert!(
            t.correct,
            "{} traced run failed its oracle: {t:?}",
            workload.name()
        );
        for name in t.values.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the per-layer catalogue"
            );
        }
        assert!(t.values.contains_key("trace.unattributed_share"), "{t:?}");
        assert!(t.values.contains_key("trace.overhead_share"), "{t:?}");
    }

    #[test]
    fn wire_unique_smoke() {
        check(Workload::WireUnique);
    }

    #[test]
    fn engine_repeat_smoke() {
        check(Workload::EngineRepeat);
    }

    #[test]
    fn slide_stitch_smoke() {
        check(Workload::SlideStitch);
    }

    #[test]
    fn train_unetr_smoke() {
        check(Workload::TrainUnetr);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
