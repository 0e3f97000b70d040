//! Kernel-level telemetry counters.
//!
//! Kernels are free functions with no struct to hang a [`Telemetry`] handle
//! on, so they report through the process-global registry
//! ([`Telemetry::global`]) when one has been installed. Until then every
//! call site costs one relaxed atomic load and records nothing — the
//! kernels stay pure and dependency-light.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use apf_telemetry::{Counter, Gauge, Telemetry};

use super::backend::BackendKind;

/// Lazily-registered counter handles for the fast-kernel dispatch sites.
pub(crate) struct KernelCounters {
    /// Packed-SGEMM invocations.
    pub gemm_packed: Counter,
    /// Reference-SGEMM invocations: small products [`super::gemm::gemm`]
    /// routes to it and direct calls (such as `kernel_bench`'s baseline).
    pub gemm_naive: Counter,
    /// B-panels packed by the blocked SGEMM.
    pub packed_panels: Counter,
    /// Macro-tile passes that reused an already-packed B-panel.
    pub packed_panel_reuse: Counter,
    /// Fused streaming-attention forward calls.
    pub fused_attention: Counter,
    /// Fused bias+GELU forward calls.
    pub fused_bias_gelu: Counter,
    /// Fused layernorm forward calls.
    pub fused_layernorm: Counter,
}

static COUNTERS: OnceLock<KernelCounters> = OnceLock::new();

impl KernelCounters {
    fn register(tel: &Telemetry) -> Self {
        KernelCounters {
            gemm_packed: tel.counter("apf_tensor_gemm_packed_total", "Packed SGEMM calls"),
            gemm_naive: tel.counter("apf_tensor_gemm_naive_total", "Reference SGEMM calls"),
            packed_panels: tel.counter("apf_tensor_packed_panels_total", "B-panels packed"),
            packed_panel_reuse: tel.counter(
                "apf_tensor_packed_panel_reuse_total",
                "Macro-tile passes reusing a packed B-panel",
            ),
            fused_attention: tel.counter(
                "apf_tensor_fused_attention_total",
                "Fused streaming-attention forward calls",
            ),
            fused_bias_gelu: tel.counter(
                "apf_tensor_fused_bias_gelu_total",
                "Fused bias+GELU forward calls",
            ),
            fused_layernorm: tel.counter(
                "apf_tensor_fused_layernorm_total",
                "Fused layernorm forward calls",
            ),
        }
    }
}

/// The kernel counters, if a global telemetry has been installed. The
/// handles are registered once, on the first call that observes a global
/// registry; a process that never installs one never registers anything.
pub(crate) fn counters() -> Option<&'static KernelCounters> {
    if let Some(c) = COUNTERS.get() {
        return Some(c);
    }
    let tel = Telemetry::global()?;
    Some(COUNTERS.get_or_init(|| KernelCounters::register(tel)))
}

/// Per-backend dispatch telemetry (`apf_tensor_backend_*`), one labeled
/// series per [`BackendKind`], indexed by the kind's position in
/// [`BackendKind::ALL`].
pub(crate) struct BackendStats {
    /// Fast-kernel dispatches routed to each backend.
    dispatch: [Counter; 4],
    /// 0/1 selection gauge: exactly one backend reads 1 once any fast
    /// kernel has dispatched.
    active: [Gauge; 4],
    /// Dispatches that fell back because `APF_KERNEL_BACKEND` named an
    /// unknown or unavailable backend.
    invalid_override: Counter,
}

static BACKEND_STATS: OnceLock<BackendStats> = OnceLock::new();
/// Last backend recorded in the `active` gauges (`u8::MAX` = none yet),
/// so steady-state dispatches cost one counter bump + one atomic compare.
static LAST_ACTIVE: AtomicU8 = AtomicU8::new(u8::MAX);

impl BackendStats {
    fn register(tel: &Telemetry) -> Self {
        let series = |kind: BackendKind| vec![("backend", kind.name().to_string())];
        BackendStats {
            dispatch: BackendKind::ALL.map(|kind| {
                tel.counter_with(
                    "apf_tensor_backend_dispatch_total",
                    series(kind),
                    "Fast-kernel dispatches per micro-kernel backend",
                )
            }),
            active: BackendKind::ALL.map(|kind| {
                tel.gauge_with(
                    "apf_tensor_backend_active",
                    series(kind),
                    "1 for the currently selected micro-kernel backend, else 0",
                )
            }),
            invalid_override: tel.counter(
                "apf_tensor_backend_override_invalid_total",
                "Dispatches that ignored an invalid APF_KERNEL_BACKEND override",
            ),
        }
    }
}

fn backend_stats() -> Option<&'static BackendStats> {
    if let Some(s) = BACKEND_STATS.get() {
        return Some(s);
    }
    let tel = Telemetry::global()?;
    Some(BACKEND_STATS.get_or_init(|| BackendStats::register(tel)))
}

/// Records one fast-kernel dispatch to `kind`, refreshing the selection
/// gauges when the active backend changes (first dispatch, or a test
/// forcing a different backend mid-process).
pub(crate) fn record_backend_dispatch(kind: BackendKind) {
    let Some(stats) = backend_stats() else { return };
    let idx = BackendKind::ALL.iter().position(|&k| k == kind).unwrap();
    stats.dispatch[idx].inc();
    if LAST_ACTIVE.swap(idx as u8, Ordering::Relaxed) != idx as u8 {
        for (i, gauge) in stats.active.iter().enumerate() {
            gauge.set(if i == idx { 1.0 } else { 0.0 });
        }
    }
}

/// Records a dispatch that had to ignore an invalid `APF_KERNEL_BACKEND`.
pub(crate) fn record_invalid_override() {
    if let Some(stats) = backend_stats() {
        stats.invalid_override.inc();
    }
}
