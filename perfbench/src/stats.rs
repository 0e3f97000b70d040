//! Order statistics, process memory, and the provenance stamp.

use apf_telemetry::{HistogramSnapshot, TelemetrySnapshot};

/// Nearest-rank quantile of `xs` (`q` in `[0, 1]`); 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail percentile reported for `n` samples: p99 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still has
/// ten beyond it. Below 100 samples no percentile at or above p90 has ten
/// beyond it; the tail is then p90 (from 10 samples) or the maximum.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 100 {
        (1.0 - 10.0 / n as f64).min(0.99)
    } else if n >= 10 {
        0.9
    } else {
        1.0
    }
}

/// The tail latency of `xs` under [`tail_quantile`].
pub fn tail(xs: &[f64]) -> f64 {
    quantile(xs, tail_quantile(xs.len()))
}

/// Fewest operations a slice may hold.
pub const MIN_PER_SLICE: usize = 10;

/// `stat` of each slice of a run: `samples` (in completion order) are cut
/// into up to `slices` consecutive slices of at least [`MIN_PER_SLICE`]
/// samples.
fn per_slice(samples: &[f64], slices: usize, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let k = (samples.len() / MIN_PER_SLICE).clamp(1, slices.max(1));
    samples
        .chunks(samples.len().div_ceil(k))
        .map(stat)
        .collect()
}

/// The `q`-quantile (nearest rank) of `stat` over up to `slices`
/// consecutive slices of at least [`MIN_PER_SLICE`] samples each; 0 for no
/// samples. For tails: at
/// `q = 0.5`, a stall that recurs through the run (a queue build-up, an
/// eviction storm, a slow window) raises most slices' tails and so the
/// median of them, while one burst confined to a slice or two does not.
pub fn slice_quantile(samples: &[f64], slices: usize, q: f64, stat: impl Fn(&[f64]) -> f64) -> f64 {
    quantile(&per_slice(samples, slices, stat), q)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured: `git rev-parse HEAD` when the working
/// directory is a repository, else `unknown`.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A histogram from the registry snapshot, if registered.
pub fn hist(
    snap: &TelemetrySnapshot,
    name: &str,
    labels: &[(&str, &str)],
) -> Option<HistogramSnapshot> {
    snap.get(name, labels).and_then(|m| m.histogram.clone())
}

/// Mean of a registry histogram, scaled by `scale` (e.g. 1e3 for ms); 0
/// when absent or empty.
pub fn hist_mean(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)], scale: f64) -> f64 {
    hist(snap, name, labels).map_or(0.0, |h| h.mean() * scale)
}

/// Sum of a registry histogram's observations; 0 when absent.
pub fn hist_sum(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    hist(snap, name, labels).map_or(0.0, |h| h.sum)
}

/// A counter or gauge value from the registry snapshot; 0 when absent.
pub fn value(snap: &TelemetrySnapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    snap.get(name, labels).map_or(0.0, |m| m.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn slice_median_tail_keeps_recurring_stalls() {
        // 1000 operations at 10 ms; every 50th stalls for 80 ms, in every slice.
        let mut lat = vec![10.0; 1000];
        lat.iter_mut().step_by(50).for_each(|x| *x = 80.0);
        let p99 = |xs: &[f64]| quantile(xs, 0.99);
        assert_eq!(slice_quantile(&lat, 10, 0.5, p99), 80.0);
        // The same stalls confined to three of ten slices: the slice
        // median hides them.
        let mut burst = vec![10.0; 1000];
        burst[..300].iter_mut().step_by(5).for_each(|x| *x = 80.0);
        assert_eq!(slice_quantile(&burst, 10, 0.5, p99), 10.0);
        // In six of ten slices they set the slice median.
        burst[..600].iter_mut().step_by(5).for_each(|x| *x = 80.0);
        assert_eq!(slice_quantile(&burst, 10, 0.5, p99), 80.0);
        assert_eq!(slice_quantile(&[], 10, 0.5, p99), 0.0);
        // At the 10th percentile of 50 slices a stall must reach more
        // than nine slices of ten to show.
        let mut most = vec![10.0; 5000];
        most[..4400].iter_mut().step_by(20).for_each(|x| *x = 80.0);
        assert_eq!(slice_quantile(&most, 50, 0.1, p99), 10.0);
        most[..4600].iter_mut().step_by(20).for_each(|x| *x = 80.0);
        assert_eq!(slice_quantile(&most, 50, 0.1, p99), 80.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(5), 1.0);
        assert_eq!(tail_quantile(30), 0.9);
        assert_eq!(tail_quantile(10_000), 0.99);
        let q = tail_quantile(200);
        assert!((q - 0.95).abs() < 1e-12);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let beyond = xs.iter().filter(|&&x| x > tail(&xs)).count();
        assert_eq!(beyond, 10);
    }
}
