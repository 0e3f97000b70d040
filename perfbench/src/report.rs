//! Metric catalogue and the result line.
//!
//! Every workload reports the same end-to-end metrics (untraced runs) and
//! the same per-layer metrics (traced runs), so runs of different workloads
//! line up column by column. A per-layer metric whose layer a workload never
//! calls reads 0: that layer did no work there.

use std::collections::BTreeMap;

/// One catalogue entry: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// True when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    // Input generation, engine start and offline references.
    lower("setup_s", "s"),
    // Process high-water resident set, set-up included.
    lower("peak_rss_mb", "MB"),
    // Median operation latency (request, slide, step) over the run; in the
    // closed loops at the reference host speed (see `calib`).
    lower("lat_p50_ms", "ms"),
    // p99, or the highest percentile with at least ten samples beyond it
    // (p90 or the maximum below 100 operations). Closed loops: over the
    // run, at the reference host speed. Open loop: raw, per slice, and the
    // 10th percentile over the slices (`stats::slice_quantile`).
    lower("lat_tail_ms", "ms"),
    // Operations the oracle accepted per second: per second at the
    // reference host speed in the two-client closed loop; over the whole
    // window of the open loop, where the arrival rate bounds it; the
    // inverse of `lat_p50_ms` with one operation in flight.
    higher("ops_per_s", "1/s"),
    // Operations answered correctly, at the full tier, inside the limit,
    // over operations attempted.
    higher("slo_ok_share", "share"),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // serve::wire
    lower("wire.req_kb", "KB"),
    lower("wire.encode_ms", "ms"),
    lower("wire.decode_ms", "ms"),
    lower("wire.reply_us", "us"),
    lower("wire.retries", "count"),
    // serve::engine / queue
    lower("engine.admission_ms", "ms"),
    lower("engine.queue_wait_p50_ms", "ms"),
    lower("engine.queue_wait_p99_ms", "ms"),
    lower("engine.inference_ms", "ms"),
    lower("engine.unattributed_ms", "ms"),
    // serve::batch (scheduler and cache) and the open-loop generator
    higher("batch.occupancy_mean", "count"),
    lower("batch.forwards", "count"),
    lower("batch.linger_ms", "ms"),
    higher("cache.hit_rate", "share"),
    higher("cache.coalesced", "count"),
    lower("cache.evictions", "count"),
    lower("cache.lookup_us", "us"),
    higher("cache.repeat_share", "share"),
    lower("gen.late_p50_ms", "ms"),
    lower("gen.late_p99_ms", "ms"),
    // serve::degrade
    higher("tier.full", "count"),
    lower("tier.reduced", "count"),
    lower("tier.coarse", "count"),
    // core / imaging
    lower("core.blur_ms", "ms"),
    lower("core.canny_ms", "ms"),
    lower("core.quadtree_ms", "ms"),
    lower("core.extract_ms", "ms"),
    lower("core.budget_ms", "ms"),
    lower("core.leaves", "count"),
    lower("core.tokens", "count"),
    higher("core.mpix_per_s", "Mpix/s"),
    // models / tensor, inference
    lower("models.bind_ms", "ms"),
    lower("models.forward_ms", "ms"),
    lower("models.forward_b_ms", "ms"),
    lower("models.embed_ms", "ms"),
    lower("models.attn_ms", "ms"),
    lower("models.mlp_ms", "ms"),
    lower("models.head_ms", "ms"),
    higher("models.attn_gflops", "GFLOP/s"),
    higher("models.mlp_gflops", "GFLOP/s"),
    higher("tensor.gemm_qkv_gflops", "GFLOP/s"),
    higher("tensor.gemm_mlp_gflops", "GFLOP/s"),
    lower("tensor.attn_kernel_ms", "ms"),
    // gigapixel / distsim
    lower("gigapixel.tile_read_ms", "ms"),
    higher("gigapixel.tile_mb_per_s", "MB/s"),
    higher("gigapixel.tile_hit_rate", "share"),
    lower("gigapixel.window_ms", "ms"),
    lower("gigapixel.window_patchify_ms", "ms"),
    lower("gigapixel.window_forward_ms", "ms"),
    lower("gigapixel.write_ms", "ms"),
    lower("gigapixel.windows", "count"),
    lower("gigapixel.tokens", "count"),
    lower("gigapixel.peak_resident_mb", "MB"),
    lower("distsim.stolen", "count"),
    higher("distsim.busy_share", "share"),
    // train
    lower("train.forward_ms", "ms"),
    lower("train.backward_ms", "ms"),
    lower("train.optimizer_ms", "ms"),
    lower("models.unetr_encoder_ms", "ms"),
    lower("models.unetr_decoder_ms", "ms"),
    higher("tensor.conv_gflops", "GFLOP/s"),
    // telemetry
    lower("trace.overhead_share", "share"),
    lower("trace.unattributed_share", "share"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values one run produced, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run hands back to `main`.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that failed, were refused, timed out, or disagreed with
    /// the offline reference.
    pub failed: u64,
    /// Whether every oracle check passed.
    pub correct: bool,
    /// Measured values; keys come from [`END_TO_END`] or [`PER_LAYER`].
    pub values: Values,
    /// Free-form provenance, printed on its own line before the result.
    pub stamp: Vec<(&'static str, String)>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps every digit and always marks the value as a float.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `catalogue` with its unit. Metrics the run did not set read 0.
pub fn result_line(report: &RunReport, catalogue: &[MetricDef]) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|m| {
            let v = report.values.get(m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(v),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The provenance line printed ahead of the result line.
pub fn stamp_line(report: &RunReport) -> String {
    let fields: Vec<String> = report
        .stamp
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit for {}",
                m.name
            );
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_manifest_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest =
            std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
        let entry = |m: &MetricDef| {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                m.name, m.unit
            )
        };
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                manifest.contains(&entry(m)),
                "BENCHMARK.json lacks {}",
                entry(m)
            );
        }
        for w in crate::Workload::ALL {
            assert!(
                manifest.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{}",
                w.name()
            );
        }
        let listed = manifest.matches("{\"name\": ").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::Workload::ALL.len()
        );
    }

    #[test]
    fn name_check_rejects_what_the_contract_forbids() {
        assert!(valid_name("core.blur_ms"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("lat p50"));
        assert!(!valid_name("ms/s"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_carries_every_catalogue_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("setup_s", 1.25);
        let r = RunReport {
            attempted: 3,
            failed: 0,
            correct: true,
            values,
            stamp: vec![],
        };
        let line = result_line(&r, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for m in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
    }
}
