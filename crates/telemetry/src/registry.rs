//! The metrics registry and the [`Telemetry`] facade.
//!
//! A [`Telemetry`] is either **enabled** (backed by a shared registry and a
//! trace sink) or **disabled** (a null pointer in a trench coat). Handles
//! ([`Counter`], [`Gauge`], [`Histogram`]) hold `Option<Arc<..>>` storage:
//! from a disabled telemetry every handle is `None`, so the hot-path cost of
//! instrumentation is a single branch on an already-loaded pointer — no
//! clock reads, no atomics, no allocation. This is what lets the
//! `telemetry_overhead` gate demand <2% on a real workload.
//!
//! The registry itself takes a `Mutex` only at **registration** time
//! (typically once per process per metric); recording goes straight to the
//! atomic storage behind the handle. Registering the same `(name, labels)`
//! pair twice returns a handle to the same storage, so components can be
//! instantiated repeatedly without double-counting metric families.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use crate::flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
use crate::histogram::{HistTimer, HistogramCore, HistogramSnapshot};
use crate::span::{SpanGuard, TraceContext, TraceEvent, TraceSink};

/// Label set attached to a metric: `(key, value)` pairs, order-significant.
pub type Labels = Vec<(&'static str, String)>;

/// Unit suffixes a histogram name may end with. Histograms are the metrics
/// whose *observations* carry a unit, so the convention demands one in the
/// name; counters end in `_total` and gauges name a quantity directly.
pub const HISTOGRAM_UNIT_SUFFIXES: &[&str] =
    &["_seconds", "_bytes", "_tokens", "_levels", "_count", "_ratio"];

/// Checks a metric name against the workspace convention
/// `apf_<crate>_<name>[_<unit>]`:
///
/// * every name starts with `apf_` and has a crate segment after it;
/// * histogram names end with a unit from [`HISTOGRAM_UNIT_SUFFIXES`]
///   (e.g. `apf_gigapixel_tile_read_seconds`), and never with `_total`,
///   which is the counter suffix.
///
/// Registration runs this under `debug_assertions`; it is public so tests
/// and external linters can check candidate names without a registry.
pub fn lint_metric_name(name: &str, is_histogram: bool) -> Result<(), String> {
    let rest = name.strip_prefix("apf_").ok_or_else(|| {
        format!("metric names follow the apf_<crate>_<name>_<unit> convention: {name}")
    })?;
    let mut segments = rest.split('_');
    if segments.next().is_none_or(str::is_empty) || segments.next().is_none_or(str::is_empty) {
        return Err(format!(
            "metric name needs a crate segment and a name after apf_: {name}"
        ));
    }
    if is_histogram {
        if name.ends_with("_total") {
            return Err(format!(
                "histogram {name} ends with the counter suffix _total; name the observed unit instead"
            ));
        }
        if !HISTOGRAM_UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            return Err(format!(
                "histogram {name} must end with a unit suffix ({})",
                HISTOGRAM_UNIT_SUFFIXES.join(", ")
            ));
        }
    }
    Ok(())
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Storage {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

struct MetricEntry {
    name: &'static str,
    labels: Labels,
    help: &'static str,
    kind: Kind,
    storage: Storage,
}

struct Inner {
    metrics: Mutex<Vec<MetricEntry>>,
    sink: TraceSink,
    flight: FlightRecorder,
    /// Live trace-sampling rate in `[0, 1]`, stored as f64 bits so the
    /// admin plane can retune it without a lock.
    sampling_bits: AtomicU64,
}

impl Inner {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<MetricEntry>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared telemetry facade: cloning is cheap and every clone talks to the
/// same registry and trace sink.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Telemetry")
                .field("metrics", &inner.lock().len())
                .field("trace_events", &inner.sink.len())
                .finish(),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

/// Default trace-sink capacity for [`Telemetry::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// Process-global registry slot (see [`Telemetry::install_global`]).
static GLOBAL: std::sync::OnceLock<Telemetry> = std::sync::OnceLock::new();

impl Telemetry {
    /// An enabled telemetry with the default trace-sink capacity.
    pub fn enabled() -> Self {
        Telemetry::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled telemetry retaining at most `capacity` spans.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                metrics: Mutex::new(Vec::new()),
                sink: TraceSink::new(capacity),
                flight: FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY),
                sampling_bits: AtomicU64::new(1.0f64.to_bits()),
            })),
        }
    }

    /// A disabled telemetry: every handle it creates is inert and costs one
    /// branch per use.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this telemetry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs `tel` as the process-global registry that free functions
    /// (e.g. the `apf-tensor` kernels) report into. First install wins;
    /// returns `false` if a global was already set. Installing a disabled
    /// telemetry is allowed and pins the process to "no kernel metrics".
    pub fn install_global(tel: Telemetry) -> bool {
        GLOBAL.set(tel).is_ok()
    }

    /// The process-global registry, if one has been installed. Costs one
    /// atomic load; callers on hot paths should cache the handles they
    /// register, not this lookup's result.
    pub fn global() -> Option<&'static Telemetry> {
        GLOBAL.get()
    }

    fn register<S>(
        &self,
        name: &'static str,
        labels: Labels,
        help: &'static str,
        kind: Kind,
        make: impl FnOnce() -> Storage,
        extract: impl Fn(&Storage) -> Option<S>,
    ) -> Option<S> {
        let inner = self.inner.as_ref()?;
        #[cfg(debug_assertions)]
        if let Err(violation) = lint_metric_name(name, kind == Kind::Histogram) {
            panic!("{violation}");
        }
        let mut metrics = inner.lock();
        if let Some(existing) = metrics
            .iter()
            .find(|m| m.name == name && m.labels == labels)
        {
            assert!(
                existing.kind == kind,
                "metric {name} re-registered as {} (was {})",
                kind.as_str(),
                existing.kind.as_str()
            );
            return extract(&existing.storage);
        }
        let storage = make();
        let handle = extract(&storage);
        metrics.push(MetricEntry { name, labels, help, kind, storage });
        handle
    }

    /// Registers (or re-attaches to) a monotonically increasing counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        self.counter_with(name, Vec::new(), help)
    }

    /// Labelled variant of [`Telemetry::counter`].
    pub fn counter_with(&self, name: &'static str, labels: Labels, help: &'static str) -> Counter {
        Counter {
            cell: self.register(
                name,
                labels,
                help,
                Kind::Counter,
                || Storage::Counter(Arc::new(AtomicU64::new(0))),
                |s| match s {
                    Storage::Counter(c) => Some(Arc::clone(c)),
                    _ => None,
                },
            ),
        }
    }

    /// Registers (or re-attaches to) an f64 gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        self.gauge_with(name, Vec::new(), help)
    }

    /// Labelled variant of [`Telemetry::gauge`].
    pub fn gauge_with(&self, name: &'static str, labels: Labels, help: &'static str) -> Gauge {
        Gauge {
            bits: self.register(
                name,
                labels,
                help,
                Kind::Gauge,
                || Storage::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
                |s| match s {
                    Storage::Gauge(g) => Some(Arc::clone(g)),
                    _ => None,
                },
            ),
        }
    }

    /// Registers (or re-attaches to) a log-bucketed histogram.
    pub fn histogram(&self, name: &'static str, help: &'static str) -> Histogram {
        self.histogram_with(name, Vec::new(), help)
    }

    /// Labelled variant of [`Telemetry::histogram`].
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: Labels,
        help: &'static str,
    ) -> Histogram {
        Histogram {
            core: self.register(
                name,
                labels,
                help,
                Kind::Histogram,
                || Storage::Histogram(Arc::new(HistogramCore::new())),
                |s| match s {
                    Storage::Histogram(h) => Some(Arc::clone(h)),
                    _ => None,
                },
            ),
        }
    }

    /// Opens a span named `"<crate>.<operation>"`; closes (and records)
    /// when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::enter(&inner.sink, name, None, None),
            None => SpanGuard::noop(),
        }
    }

    /// Like [`Telemetry::span`] but tagged with a correlation id (e.g. a
    /// request id) so one request's span tree can be picked out of a trace.
    pub fn span_id(&self, name: &'static str, id: u64) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::enter(&inner.sink, name, Some(id), None),
            None => SpanGuard::noop(),
        }
    }

    /// Like [`Telemetry::span_id`] but carrying a short static scheduling
    /// note (`"steal"`, `"retry"`, ...) rendered into the trace args.
    pub fn span_noted(&self, name: &'static str, id: u64, note: &'static str) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard::enter(&inner.sink, name, Some(id), Some(note)),
            None => SpanGuard::noop(),
        }
    }

    /// Records a zero-duration annotation event at the calling thread's
    /// current trace position (e.g. `resumed_from` links).
    pub fn annotate(&self, name: &'static str, id: Option<u64>, note: Option<&'static str>) {
        if let Some(inner) = &self.inner {
            inner.sink.annotate(name, id, note);
        }
    }

    /// Mints a [`TraceContext`] for a brand-new request, applying the live
    /// sampling rate (deterministically, per trace id). `None` when
    /// disabled — disabled telemetry originates no traces.
    pub fn new_trace(&self) -> Option<TraceContext> {
        let inner = self.inner.as_ref()?;
        let rate = f64::from_bits(inner.sampling_bits.load(Ordering::Relaxed));
        let ctx = TraceContext::new_root(true);
        let sampled = if rate >= 1.0 {
            true
        } else if rate <= 0.0 {
            false
        } else {
            // Fibonacci-hash the trace id into [0, 1): the keep/drop
            // decision is a pure function of the id, so every participant
            // that sees the id agrees without coordination.
            let h = ctx.trace_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
        };
        Some(TraceContext { sampled, ..ctx })
    }

    /// Sets the live trace-sampling rate (clamped to `[0, 1]`). Affects
    /// traces minted by [`Telemetry::new_trace`] from now on.
    pub fn set_trace_sampling(&self, rate: f64) {
        if let Some(inner) = &self.inner {
            let clamped = if rate.is_finite() { rate.clamp(0.0, 1.0) } else { 1.0 };
            inner.sampling_bits.store(clamped.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current trace-sampling rate (1.0 when disabled — a disabled
    /// telemetry has nothing to sample).
    pub fn trace_sampling(&self) -> f64 {
        match &self.inner {
            Some(inner) => f64::from_bits(inner.sampling_bits.load(Ordering::Relaxed)),
            None => 1.0,
        }
    }

    /// Records a structured flight-recorder event. The detail closure is
    /// only evaluated when the telemetry is enabled, so a disabled handle
    /// costs one branch.
    pub fn flight(&self, kind: &'static str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.flight.record(kind, detail());
        }
    }

    /// The retained flight-recorder window, oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        match &self.inner {
            Some(inner) => inner.flight.events(),
            None => Vec::new(),
        }
    }

    /// The flight-recorder window as JSON lines (empty when disabled).
    pub fn flight_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => inner.flight.to_jsonl(),
            None => String::new(),
        }
    }

    /// Dumps the flight-recorder window to `<dir>/flight_<label>.jsonl`
    /// (atomic temp + rename). `None` when disabled.
    pub fn dump_flight(
        &self,
        dir: &std::path::Path,
        label: &str,
    ) -> Option<std::io::Result<std::path::PathBuf>> {
        self.inner.as_ref().map(|i| i.flight.dump_to(dir, label))
    }

    /// Completed spans retained by the ring, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.sink.events(),
            None => Vec::new(),
        }
    }

    /// Spans as Chrome `trace_event` JSON lines (empty string if disabled).
    pub fn trace_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => inner.sink.to_jsonl(),
            None => String::new(),
        }
    }

    /// Spans as one JSON document the Chrome trace viewer loads directly
    /// (`{"traceEvents": [...]}`); an empty document when disabled.
    pub fn chrome_trace_json(&self) -> String {
        let events: Vec<String> = self.trace_events().iter().map(TraceEvent::to_json).collect();
        format!("{{\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Spans evicted from the bounded trace ring so far.
    pub fn trace_evicted(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.sink.evicted(),
            None => 0,
        }
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut metrics = Vec::new();
        if let Some(inner) = &self.inner {
            for m in inner.lock().iter() {
                let (value, histogram) = match &m.storage {
                    Storage::Counter(c) => (c.load(Ordering::Relaxed) as f64, None),
                    Storage::Gauge(g) => (f64::from_bits(g.load(Ordering::Relaxed)), None),
                    Storage::Histogram(h) => (h.count() as f64, Some(h.snapshot())),
                };
                metrics.push(MetricSnapshot {
                    name: m.name.to_string(),
                    labels: m
                        .labels
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                    kind: m.kind.as_str().to_string(),
                    help: m.help.to_string(),
                    value,
                    histogram,
                });
            }
        }
        TelemetrySnapshot { metrics }
    }

    /// Prometheus text exposition (format 0.0.4). Histograms are rendered
    /// as summaries: `_count`, `_sum`, and `quantile`-labelled sample lines
    /// for p50/p95/p99, plus `_min`/`_max` gauges.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        // Label values are short identifiers in this codebase; escape the
        // three characters the exposition format cares about anyway.
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(ch),
            }
        }
        out.push('"');
    }
    out.push('}');
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One metric frozen at snapshot time.
#[derive(Debug, Clone, Serialize)]
pub struct MetricSnapshot {
    /// Metric name (`apf_<crate>_<name>_<unit>`).
    pub name: String,
    /// Label pairs.
    pub labels: Vec<(String, String)>,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Help text.
    pub help: String,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: f64,
    /// Bucket data for histograms.
    pub histogram: Option<HistogramSnapshot>,
}

/// Every registered metric at a point in time.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Snapshot entries in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl TelemetrySnapshot {
    /// Finds a metric by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// The snapshot as one self-contained JSON object (for the admin
    /// plane's JSON metrics op; validated by [`crate::jsonl::validate_json`]
    /// in tests). Histograms carry count/sum/quantiles inline.
    pub fn render_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() { fmt_value(v) } else { "null".to_string() }
        }
        let mut out = String::from("{\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\"",
                crate::flight::escape_json(&m.name),
                m.kind
            ));
            if !m.labels.is_empty() {
                out.push_str(",\"labels\":{");
                for (j, (k, v)) in m.labels.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\"{}\":\"{}\"",
                        crate::flight::escape_json(k),
                        crate::flight::escape_json(v)
                    ));
                }
                out.push('}');
            }
            match &m.histogram {
                None => out.push_str(&format!(",\"value\":{}", num(m.value))),
                Some(h) => out.push_str(&format!(
                    ",\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"min\":{},\"max\":{}",
                    h.count,
                    num(h.sum),
                    num(h.quantile(0.5)),
                    num(h.quantile(0.95)),
                    num(h.quantile(0.99)),
                    num(h.min),
                    num(h.max)
                )),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition of the snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen_header: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !seen_header.contains(&m.name.as_str()) {
                seen_header.push(&m.name);
                out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
                let ty = if m.kind == "histogram" { "summary" } else { &m.kind };
                out.push_str(&format!("# TYPE {} {}\n", m.name, ty));
            }
            match &m.histogram {
                None => {
                    out.push_str(&m.name);
                    render_labels(&mut out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&fmt_value(m.value));
                    out.push('\n');
                }
                Some(h) => {
                    for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&m.name);
                        render_labels(&mut out, &m.labels, Some(("quantile", qs)));
                        out.push(' ');
                        out.push_str(&fmt_value(h.quantile(q)));
                        out.push('\n');
                    }
                    for (suffix, v) in [
                        ("_sum", h.sum),
                        ("_count", h.count as f64),
                        ("_min", h.min),
                        ("_max", h.max),
                    ] {
                        out.push_str(&m.name);
                        out.push_str(suffix);
                        render_labels(&mut out, &m.labels, None);
                        out.push(' ');
                        out.push_str(&fmt_value(v));
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

/// Handle to a monotonically increasing counter; inert when its telemetry
/// is disabled.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// An inert counter (what a disabled telemetry hands out).
    pub fn noop() -> Self {
        Counter { cell: None }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.cell {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to an f64 gauge; inert when its telemetry is disabled.
#[derive(Clone, Default)]
pub struct Gauge {
    bits: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// An inert gauge.
    pub fn noop() -> Self {
        Gauge { bits: None }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(b) = &self.bits {
            b.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 when inert).
    pub fn get(&self) -> f64 {
        self.bits
            .as_ref()
            .map_or(0.0, |b| f64::from_bits(b.load(Ordering::Relaxed)))
    }
}

/// Handle to a log-bucketed histogram; inert when its telemetry is
/// disabled.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// An inert histogram.
    pub fn noop() -> Self {
        Histogram { core: None }
    }

    /// Records one observation (lock-free).
    #[inline]
    pub fn record(&self, v: f64) {
        if let Some(c) = &self.core {
            c.record(v);
        }
    }

    /// Starts a timer that records elapsed **seconds** on drop. Inert
    /// handles return a timer that never reads the clock.
    #[inline]
    pub fn start_timer(&self) -> HistTimer {
        HistTimer::new(self.core.as_ref().map(Arc::clone))
    }

    /// Observation count (0 when inert).
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.count())
    }

    /// Frozen copy of the distribution (empty when inert).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |c| c.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let t = Telemetry::disabled();
        let c = t.counter("apf_test_ops_total", "ops");
        let g = t.gauge("apf_test_depth", "depth");
        let h = t.histogram("apf_test_latency_seconds", "latency");
        c.inc();
        g.set(5.0);
        h.record(1.0);
        drop(h.start_timer());
        drop(t.span("test.noop"));
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        assert!(t.trace_events().is_empty());
        assert!(t.snapshot().metrics.is_empty());
        assert_eq!(format!("{t:?}"), "Telemetry(disabled)");
    }

    #[test]
    fn reregistration_shares_storage() {
        let t = Telemetry::enabled();
        let a = t.counter("apf_test_ops_total", "ops");
        let b = t.counter("apf_test_ops_total", "ops");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
        // Distinct labels get distinct storage.
        let l1 = t.counter_with(
            "apf_test_tier_total",
            vec![("tier", "full".to_string())],
            "per-tier",
        );
        let l2 = t.counter_with(
            "apf_test_tier_total",
            vec![("tier", "coarse".to_string())],
            "per-tier",
        );
        l1.inc();
        assert_eq!(l1.get(), 1);
        assert_eq!(l2.get(), 0);
        assert_eq!(t.snapshot().metrics.len(), 3);
    }

    #[test]
    fn prometheus_exposition_has_prefix_and_quantiles() {
        let t = Telemetry::enabled();
        t.counter("apf_test_ops_total", "ops").add(5);
        t.gauge("apf_test_queue_depth", "queue").set(2.0);
        let h = t.histogram_with(
            "apf_test_latency_seconds",
            vec![("phase", "forward".to_string())],
            "latency",
        );
        for i in 1..=10 {
            h.record(i as f64 * 0.01);
        }
        let text = t.render_prometheus();
        for line in text.lines() {
            let metric_line = line.strip_prefix("# HELP ").or_else(|| line.strip_prefix("# TYPE ")).unwrap_or(line);
            assert!(
                metric_line.starts_with("apf_"),
                "unprefixed exposition line: {line}"
            );
        }
        assert!(text.contains("apf_test_ops_total 5"));
        assert!(text.contains("apf_test_queue_depth 2"));
        assert!(text.contains("apf_test_latency_seconds{phase=\"forward\",quantile=\"0.5\"}"));
        assert!(text.contains("apf_test_latency_seconds_count{phase=\"forward\"} 10"));
        assert!(text.contains("# TYPE apf_test_latency_seconds summary"));
    }

    #[test]
    fn snapshot_get_and_span_ids() {
        let t = Telemetry::enabled();
        t.counter_with(
            "apf_test_tier_total",
            vec![("tier", "full".to_string())],
            "per-tier",
        )
        .add(4);
        let snap = t.snapshot();
        let m = snap.get("apf_test_tier_total", &[("tier", "full")]).unwrap();
        assert_eq!(m.value, 4.0);
        assert!(snap.get("apf_test_tier_total", &[("tier", "coarse")]).is_none());

        drop(t.span_id("test.req", 42));
        let evs = t.trace_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, Some(42));
    }

    #[test]
    fn lint_accepts_workspace_metric_names() {
        // A sample of real names from every crate, including the gigapixel
        // subsystem's families.
        for (name, is_hist) in [
            ("apf_serve_requests_total", false),
            ("apf_serve_inference_latency_seconds", true),
            ("apf_core_sequence_len_post_tokens", true),
            ("apf_core_tree_leaf_count", true),
            ("apf_core_tree_max_depth_levels", true),
            ("apf_gigapixel_cache_hits_total", false),
            ("apf_gigapixel_resident_bytes", false),
            ("apf_gigapixel_tile_read_seconds", true),
            ("apf_gigapixel_tree_build_seconds", true),
            ("apf_gigapixel_window_seconds", true),
            // The wire door's once-atomic-only counters, registered in PR 8.
            ("apf_serve_wire_quota_checked_total", false),
            ("apf_serve_wire_admin_total", false),
            ("apf_serve_wire_drains_total", false),
            ("apf_serve_wire_draining", false),
            ("apf_serve_wire_drain_connections", false),
            // Every engine registers the batch scheduler's series.
            ("apf_serve_batch_occupancy_count", true),
            ("apf_serve_batch_linger_seconds", true),
            ("apf_serve_batches_total", false),
            ("apf_serve_batch_cache_lookups_total", false),
            ("apf_serve_batch_cache_evictions_total", false),
            ("apf_serve_batch_cache_resident_bytes", false),
            ("apf_serve_batch_cache_resident_entries", false),
        ] {
            lint_metric_name(name, is_hist).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn lint_rejects_convention_violations() {
        // Missing prefix.
        assert!(lint_metric_name("gigapixel_tile_read_seconds", true)
            .unwrap_err()
            .contains("apf_<crate>"));
        // Prefix but no crate/name segments.
        assert!(lint_metric_name("apf_", false).is_err());
        assert!(lint_metric_name("apf_gigapixel", false).is_err());
        // Histogram without a unit suffix.
        let err = lint_metric_name("apf_gigapixel_tile_read", true).unwrap_err();
        assert!(err.contains("unit suffix"), "{err}");
        // Histogram wearing the counter suffix.
        let err = lint_metric_name("apf_gigapixel_windows_total", true).unwrap_err();
        assert!(err.contains("_total"), "{err}");
        // The same names are fine as non-histograms.
        assert!(lint_metric_name("apf_gigapixel_windows_total", false).is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unit suffix")]
    fn registering_a_unitless_histogram_panics_in_debug() {
        let t = Telemetry::enabled();
        let _ = t.histogram("apf_gigapixel_tile_read_millis", "bad unit");
    }

    #[test]
    fn global_install_is_first_wins() {
        let t = Telemetry::enabled();
        t.counter("apf_test_global_total", "marker").inc();
        // First install claims the slot (another test in this binary cannot
        // have installed first: this is the only installer).
        assert!(Telemetry::install_global(t));
        let g = Telemetry::global().expect("global just installed");
        assert_eq!(g.snapshot().get("apf_test_global_total", &[]).unwrap().value, 1.0);
        // Second install loses and mutates nothing.
        assert!(!Telemetry::install_global(Telemetry::disabled()));
        assert!(Telemetry::global().unwrap().is_enabled());
    }
}
