//! Explicit SIMD micro-kernel backends with runtime dispatch.
//!
//! The blocked SGEMM, the fused streaming attention, and the fused
//! elementwise kernels all bottom out in a handful of register-tiled inner
//! loops. This module makes those loops explicit per instruction set: one
//! [`MicroKernelBackend`] trait, one implementation module per ISA
//! (`avx2`, `sse2`, `neon`, `scalar`), and a dispatch layer that
//! picks the best available backend once per process via runtime
//! CPU-feature detection.
//!
//! ## Selection precedence
//!
//! Every fast-path dispatch site selects a backend in this order:
//!
//! 1. [`force_backend`] — programmatic override (tests, benches);
//! 2. `APF_KERNEL_BACKEND` — environment override (`avx2`, `sse2`,
//!    `neon`, `scalar`; case-insensitive, read once per process);
//! 3. best detected: `avx2 > sse2 > scalar` on x86-64, `neon > scalar`
//!    on aarch64 ([`best_for`]).
//!
//! Overrides naming a backend that is unknown, not compiled for this
//! architecture, or not supported by the running CPU yield a typed
//! [`BackendError`] from [`kernel_backend`] / [`force_backend`] — never a
//! panic and never a silent scalar fallback. The infallible hot path
//! (`active`) must still return *some* backend, so an invalid
//! environment override falls back to the best detected backend loudly:
//! once per process it prints the typed error to stderr and it bumps the
//! `apf_tensor_backend_override_invalid_total` counter on every dispatch.
//!
//! ## Safety policy
//!
//! All `unsafe` lives inside the per-ISA implementation modules and comes
//! in exactly two shapes, each with a documented invariant:
//!
//! - **ISA availability**: `#[target_feature]` functions are only
//!   reachable through a backend instance, and instances are only handed
//!   out by [`BackendKind::instance`] after the matching runtime feature
//!   check has passed. Constructing a backend any other way is impossible
//!   outside this module.
//! - **Bounds**: every trait entry point asserts the slice-length
//!   contract documented on [`MicroKernelBackend`] before entering the
//!   intrinsic body, so the unchecked pointer arithmetic inside is in
//!   bounds by construction.
//!
//! The trait methods themselves are safe functions; callers cannot cause
//! UB with any argument values.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

use super::stats;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;
pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
pub(crate) mod sse2;

/// Micro-kernel column width: every backend produces 8-wide output lanes
/// (one AVX2 vector, two SSE2/NEON vectors). This matches the SGEMM
/// B-panel width `NR` and the attention score-block width.
pub const LANES: usize = 8;

/// Largest supported micro-tile row count (`mr()` is 8 or 16).
pub const MAX_MR: usize = 16;

/// One register-tiled inner-loop implementation family.
///
/// ## Slice contracts
///
/// Every method documents the exact lengths it reads/writes; the
/// implementations assert them, so violations panic rather than read out
/// of bounds. `acc` buffers are always row-major and both read and
/// written (callers zero them for a plain product).
///
/// ## Numeric contracts
///
/// - [`sgemm_tile`](Self::sgemm_tile), [`attn_score_4x8`](Self::attn_score_4x8)
///   and [`attn_pv_4x8`](Self::attn_pv_4x8) must accumulate along the shared
///   depth in ascending order (the reduction *tree* per element is the plain
///   left-to-right sum); backends may fuse multiply and add (FMA), so
///   results can differ from the scalar reference by rounding only —
///   covered by the kernel-oracle `1e-5` relative bound.
/// - [`ln_affine_row`](Self::ln_affine_row) must be **bit-identical** to
///   the scalar reference (the oracle asserts exact bits): vectorized
///   overrides must use the same correctly-rounded op sequence per element
///   and must not contract to FMA.
/// - [`softmax_exp_row`](Self::softmax_exp_row),
///   [`bias_gelu_row`](Self::bias_gelu_row) and
///   [`bias_gelu_grad_row`](Self::bias_gelu_grad_row) are
///   **tolerance-contracted**: overrides may approximate the scalar libm
///   form within the bound stated on each method.
pub trait MicroKernelBackend: Sync {
    /// Which [`BackendKind`] this implementation belongs to.
    fn kind(&self) -> BackendKind;

    /// Micro-tile row count for the packed SGEMM: 8 or 16. The packing
    /// and macro-tile loops in `gemm.rs` honor this dynamically.
    fn mr(&self) -> usize {
        8
    }

    /// Packed SGEMM micro-kernel: `acc[i*8 + j] += pa[p*mr + i] * pb[p*8 + j]`
    /// for `p in 0..kc`, `i in 0..mr`, `j in 0..8`.
    ///
    /// Contract: `acc.len() == mr * 8`, `pa.len() >= kc * mr`,
    /// `pb.len() >= kc * 8`.
    fn sgemm_tile(&self, pa: &[f32], pb: &[f32], kc: usize, acc: &mut [f32]);

    /// Attention score mini-GEMM block: `acc[a][j] += q[a*dh + p] *
    /// kt[p*lk + j]` for `p in 0..dh`, 4 query rows, 8 key lanes.
    ///
    /// Contract: `q.len() >= 4 * dh`, `kt.len() >= (dh - 1) * lk + 8`,
    /// `dh >= 1`.
    fn attn_score_4x8(&self, q: &[f32], dh: usize, kt: &[f32], lk: usize, acc: &mut [[f32; 8]; 4]);

    /// Attention P·V mini-GEMM block: `acc[a][c] += p[a*ktb + j] *
    /// vt[j*dh + c]` for `j in 0..ktb`, 4 probability rows, 8 value lanes.
    ///
    /// Contract: `p.len() >= 4 * ktb`, `vt.len() >= (ktb - 1) * dh + 8`,
    /// `ktb >= 1`.
    fn attn_pv_4x8(&self, p: &[f32], ktb: usize, vt: &[f32], dh: usize, acc: &mut [[f32; 8]; 4]);

    /// Layernorm affine inner loop: `out[i] = (row[i] - mean) * inv *
    /// gamma[i] + beta[i]`, bit-identical to the scalar reference (no FMA
    /// contraction allowed; see the trait docs).
    ///
    /// Contract: `row`, `gamma`, `beta`, `out` all have equal lengths.
    fn ln_affine_row(
        &self,
        row: &[f32],
        mean: f32,
        inv: f32,
        gamma: &[f32],
        beta: &[f32],
        out: &mut [f32],
    ) {
        scalar::ln_affine_row_scalar(row, mean, inv, gamma, beta, out);
    }

    /// Fused bias+GELU inner loop: `out[i] = gelu(x[i] + bias[i])`.
    ///
    /// **Tolerance-contracted**: with `v = x[i] + bias[i]`, overrides may
    /// differ from the scalar libm form by `|Δ| <= 1e-6 * max(1, |v|)`.
    /// Required semantics regardless of approximation:
    ///
    /// - an output is non-finite exactly where the scalar reference's is;
    /// - no output is ever subnormal (would-be subnormal results flush to
    ///   zero, on the scalar reference too);
    /// - each output is a pure function of its own `(x[i], bias[i])` on a
    ///   given backend — never of its position or the row length — so a
    ///   batched forward stays bit-identical to a solo one.
    ///
    /// Contract: `x`, `bias`, `out` all have equal lengths.
    fn bias_gelu_row(&self, x: &[f32], bias: &[f32], out: &mut [f32]) {
        scalar::bias_gelu_row_scalar(x, bias, out);
    }

    /// Fused bias+GELU backward inner loop: `gx[i] = g[i] *
    /// gelu'(x[i] + bias[i])`.
    ///
    /// Tolerance-contracted like [`bias_gelu_row`](Self::bias_gelu_row),
    /// with the bound `|Δ| <= 1e-5 * |g[i]|` (plus `f32::MIN_POSITIVE`
    /// where a subnormal result flushed) and the same non-finite,
    /// subnormal and purity semantics (each output a pure function of its
    /// own `(x[i], bias[i], g[i])`).
    ///
    /// Contract: `x`, `bias`, `g`, `gx` all have equal lengths.
    fn bias_gelu_grad_row(&self, x: &[f32], bias: &[f32], g: &[f32], gx: &mut [f32]) {
        scalar::bias_gelu_grad_row_scalar(x, bias, g, gx);
    }

    /// Softmax exponentiation row: `s[j] = exp(s[j] - m)` in place,
    /// returning the sum of the results. This is the hot loop of the
    /// online softmax — at serving scale it runs once per score element,
    /// which makes scalar `exp` the dominant cost of fused attention.
    ///
    /// Like the bias+GELU rows, this method is **tolerance-contracted**
    /// (as are the mini-GEMMs): overrides may use a
    /// polynomial `exp` approximation with relative error within a few
    /// ulp (well inside the oracle's `1e-5` attention bound) and may
    /// reassociate the sum. Required semantics regardless of
    /// approximation: NaN inputs (including `-inf - -inf` from
    /// all-masked rows) stay NaN, arguments below `ln(FLT_MIN)`
    /// (`s[j] - m < -87.34`, e.g. masked keys) produce exactly `+0.0`, and
    /// no result is ever subnormal.
    fn softmax_exp_row(&self, s: &mut [f32], m: f32) -> f32 {
        scalar::softmax_exp_row_scalar(s, m)
    }

    /// Human-readable backend name (`"avx2"`, `"sse2"`, `"neon"`,
    /// `"scalar"`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// The backend families the dispatch layer knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// x86-64 AVX2 + FMA (the `avx2` name implies both features).
    Avx2,
    /// x86-64 SSE2 (baseline on x86-64, still detected explicitly).
    Sse2,
    /// aarch64 NEON.
    Neon,
    /// Portable scalar reference — always available, and the ground truth
    /// the differential oracle holds every other backend to.
    Scalar,
}

/// Typed selection failure: an override named something unknown or a
/// backend this process cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The override string matched no known backend name.
    UnknownBackend {
        /// The name as given.
        name: String,
    },
    /// The backend exists but is not compiled for this architecture or
    /// not supported by the running CPU.
    Unavailable {
        /// The requested backend.
        kind: BackendKind,
        /// Why it cannot run here.
        reason: &'static str,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnknownBackend { name } => write!(
                f,
                "unknown kernel backend {name:?} (valid: avx2, sse2, neon, scalar)"
            ),
            BackendError::Unavailable { kind, reason } => {
                write!(f, "kernel backend {} unavailable: {}", kind.name(), reason)
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Runtime CPU capabilities relevant to backend selection. A plain data
/// struct so ordering logic ([`best_for`], [`resolve`]) is pure and
/// unit-testable with synthetic feature sets on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuFeatures {
    /// AVX2 *and* FMA both detected (the avx2 backend uses fused
    /// multiply-add throughout).
    pub avx2: bool,
    /// SSE2 detected.
    pub sse2: bool,
    /// NEON detected.
    pub neon: bool,
}

impl CpuFeatures {
    /// Detects the running CPU's capabilities. Architecture-gated: on
    /// x86-64 only `avx2`/`sse2` can be set, on aarch64 only `neon`.
    pub fn detect() -> CpuFeatures {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma"),
                sse2: std::arch::is_x86_feature_detected!("sse2"),
                neon: false,
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            CpuFeatures {
                avx2: false,
                sse2: false,
                neon: std::arch::is_aarch64_feature_detected!("neon"),
            }
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            CpuFeatures::default()
        }
    }

    /// Whether these features can run `kind` (ignores compilation —
    /// see [`BackendKind::compiled`]).
    pub fn supports(&self, kind: BackendKind) -> bool {
        match kind {
            BackendKind::Avx2 => self.avx2,
            BackendKind::Sse2 => self.sse2,
            BackendKind::Neon => self.neon,
            BackendKind::Scalar => true,
        }
    }
}

/// The detection order: widest vector unit first, scalar as the universal
/// floor. On x86-64 this reads `avx2 > sse2 > scalar`; on aarch64
/// `neon > scalar` (the x86 flags are never set there, and vice versa).
pub fn best_for(features: CpuFeatures) -> BackendKind {
    if features.avx2 {
        BackendKind::Avx2
    } else if features.sse2 {
        BackendKind::Sse2
    } else if features.neon {
        BackendKind::Neon
    } else {
        BackendKind::Scalar
    }
}

impl BackendKind {
    /// Every kind, best-first.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Avx2,
        BackendKind::Sse2,
        BackendKind::Neon,
        BackendKind::Scalar,
    ];

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Avx2 => "avx2",
            BackendKind::Sse2 => "sse2",
            BackendKind::Neon => "neon",
            BackendKind::Scalar => "scalar",
        }
    }

    /// Parses a backend name (case-insensitive, surrounding whitespace
    /// ignored). Unknown names are a typed error, never a fallback.
    pub fn parse(s: &str) -> Result<BackendKind, BackendError> {
        match s.trim().to_ascii_lowercase().as_str() {
            "avx2" => Ok(BackendKind::Avx2),
            "sse2" => Ok(BackendKind::Sse2),
            "neon" => Ok(BackendKind::Neon),
            "scalar" => Ok(BackendKind::Scalar),
            _ => Err(BackendError::UnknownBackend { name: s.to_string() }),
        }
    }

    /// Whether this backend's code exists in the current binary.
    pub fn compiled(self) -> bool {
        match self {
            BackendKind::Avx2 | BackendKind::Sse2 => cfg!(target_arch = "x86_64"),
            BackendKind::Neon => cfg!(target_arch = "aarch64"),
            BackendKind::Scalar => true,
        }
    }

    /// Compiled for this architecture *and* supported by the running CPU.
    pub fn available(self) -> bool {
        self.compiled() && detected_features().supports(self)
    }

    /// All compiled-and-detected backends, best-first. Always non-empty
    /// (scalar is universal); this is the axis the per-backend oracle
    /// matrix and `kernel_bench` iterate.
    pub fn detected() -> Vec<BackendKind> {
        Self::ALL.into_iter().filter(|k| k.available()).collect()
    }

    /// The backend implementation, if it is [`available`](Self::available).
    ///
    /// This is the **only** way to obtain a backend instance, which is
    /// what makes calling its `#[target_feature]` internals sound: an
    /// instance existing proves the runtime feature check passed.
    pub fn instance(self) -> Option<&'static dyn MicroKernelBackend> {
        if !self.available() {
            return None;
        }
        Some(instance_unchecked(self))
    }
}

impl std::str::FromStr for BackendKind {
    type Err = BackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::parse(s)
    }
}

/// Instance lookup without the availability check. Private: callers must
/// have validated availability (see [`BackendKind::instance`]).
fn instance_unchecked(kind: BackendKind) -> &'static dyn MicroKernelBackend {
    match kind {
        #[cfg(target_arch = "x86_64")]
        BackendKind::Avx2 => &avx2::Avx2Backend,
        #[cfg(target_arch = "x86_64")]
        BackendKind::Sse2 => &sse2::Sse2Backend,
        #[cfg(target_arch = "aarch64")]
        BackendKind::Neon => &neon::NeonBackend,
        _ => &scalar::ScalarBackend,
    }
}

/// Programmatic override slot: 0 = none, else `kind as u8 + 1`.
static FORCED: AtomicU8 = AtomicU8::new(0);
/// `APF_KERNEL_BACKEND`, read once per process (reading env vars after
/// threads exist is fine; *setting* them is not, which is why tests use
/// [`force_backend`]).
static ENV_OVERRIDE: OnceLock<Option<String>> = OnceLock::new();
/// Detected CPU features, probed once.
static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
/// Whether the invalid-override warning has been printed.
static WARNED_INVALID: AtomicBool = AtomicBool::new(false);

fn detected_features() -> CpuFeatures {
    *FEATURES.get_or_init(CpuFeatures::detect)
}

fn forced_kind() -> Option<BackendKind> {
    match FORCED.load(Ordering::Relaxed) {
        0 => None,
        v => Some(BackendKind::ALL[(v - 1) as usize]),
    }
}

fn env_override() -> Option<&'static str> {
    ENV_OVERRIDE
        .get_or_init(|| std::env::var("APF_KERNEL_BACKEND").ok())
        .as_deref()
}

/// Pure selection logic: `force` beats `env` beats detection. Exposed so
/// the dispatch tests can drive it with synthetic feature sets.
pub fn resolve(
    force: Option<BackendKind>,
    env: Option<&str>,
    features: CpuFeatures,
) -> Result<BackendKind, BackendError> {
    let validate = |kind: BackendKind| {
        if !kind.compiled() {
            Err(BackendError::Unavailable {
                kind,
                reason: "not compiled for this architecture",
            })
        } else if !features.supports(kind) {
            Err(BackendError::Unavailable {
                kind,
                reason: "CPU feature not detected at runtime",
            })
        } else {
            Ok(kind)
        }
    };
    if let Some(kind) = force {
        return validate(kind);
    }
    if let Some(name) = env {
        if !name.trim().is_empty() {
            return validate(BackendKind::parse(name)?);
        }
    }
    Ok(best_for(features))
}

/// Forces the backend for the whole process (`None` restores the
/// environment/detection default). Validates availability up front so an
/// impossible request is a typed error instead of a latent panic.
pub fn force_backend(kind: Option<BackendKind>) -> Result<(), BackendError> {
    if let Some(k) = kind {
        // Re-use resolve's validation for a single error path.
        resolve(Some(k), None, detected_features())?;
    }
    let v = match kind {
        None => 0,
        Some(k) => BackendKind::ALL.iter().position(|&x| x == k).unwrap() as u8 + 1,
    };
    FORCED.store(v, Ordering::Relaxed);
    Ok(())
}

/// The backend selection currently in effect, with override errors
/// surfaced as typed values. This is the startup/introspection API; the
/// hot path uses `active`.
pub fn kernel_backend() -> Result<BackendKind, BackendError> {
    resolve(forced_kind(), env_override(), detected_features())
}

/// The backend the fast-path kernels dispatch to right now. Infallible:
/// an invalid `APF_KERNEL_BACKEND` falls back to the best detected
/// backend — loudly (one stderr warning per process, plus the
/// `apf_tensor_backend_override_invalid_total` counter on every call).
/// Also records the active backend in the `apf_tensor_backend_*`
/// telemetry (selection gauge + per-backend dispatch counters).
pub(crate) fn active() -> &'static dyn MicroKernelBackend {
    let kind = match kernel_backend() {
        Ok(kind) => kind,
        Err(err) => {
            if !WARNED_INVALID.swap(true, Ordering::Relaxed) {
                eprintln!("apf-tensor: ignoring APF_KERNEL_BACKEND: {err}");
            }
            stats::record_invalid_override();
            best_for(detected_features())
        }
    };
    stats::record_backend_dispatch(kind);
    // `kind` came from resolve() against the real detected features (or
    // best_for on the same), so it is available by construction.
    instance_unchecked(kind)
}

/// Test-only backends exercising trait generality (e.g. the 16-row
/// micro-tile path no shipped backend uses yet).
#[cfg(test)]
pub(crate) mod testing {
    use super::{scalar, BackendKind, MicroKernelBackend};

    /// A 16-row micro-tile backend (scalar arithmetic) proving the
    /// `mr() == 16` packing/macro-tile path end to end.
    pub(crate) struct Wide16;

    impl MicroKernelBackend for Wide16 {
        fn kind(&self) -> BackendKind {
            BackendKind::Scalar
        }

        fn mr(&self) -> usize {
            16
        }

        fn sgemm_tile(&self, pa: &[f32], pb: &[f32], kc: usize, acc: &mut [f32]) {
            scalar::sgemm_tile_scalar(pa, pb, kc, acc, 16);
        }

        fn attn_score_4x8(
            &self,
            q: &[f32],
            dh: usize,
            kt: &[f32],
            lk: usize,
            acc: &mut [[f32; 8]; 4],
        ) {
            scalar::ScalarBackend.attn_score_4x8(q, dh, kt, lk, acc);
        }

        fn attn_pv_4x8(&self, p: &[f32], ktb: usize, vt: &[f32], dh: usize, acc: &mut [[f32; 8]; 4]) {
            scalar::ScalarBackend.attn_pv_4x8(p, ktb, vt, dh, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names_case_insensitively() {
        assert_eq!(BackendKind::parse("avx2").unwrap(), BackendKind::Avx2);
        assert_eq!(BackendKind::parse(" AVX2 ").unwrap(), BackendKind::Avx2);
        assert_eq!(BackendKind::parse("Scalar").unwrap(), BackendKind::Scalar);
        assert_eq!(BackendKind::parse("neon").unwrap(), BackendKind::Neon);
        assert_eq!(BackendKind::parse("SSE2").unwrap(), BackendKind::Sse2);
    }

    #[test]
    fn parse_rejects_unknown_names_with_typed_error() {
        let err = BackendKind::parse("avx512").unwrap_err();
        assert_eq!(err, BackendError::UnknownBackend { name: "avx512".into() });
        assert!(err.to_string().contains("avx512"));
        assert!(err.to_string().contains("scalar"), "error must list valid names");
    }

    #[test]
    fn scalar_is_always_available() {
        assert!(BackendKind::Scalar.available());
        assert!(BackendKind::detected().contains(&BackendKind::Scalar));
        assert!(BackendKind::Scalar.instance().is_some());
    }

    #[test]
    fn detected_is_best_first_and_non_empty() {
        let detected = BackendKind::detected();
        assert!(!detected.is_empty());
        // The first detected backend is exactly what best_for picks.
        assert_eq!(detected[0], best_for(CpuFeatures::detect()));
        assert_eq!(*detected.last().unwrap(), BackendKind::Scalar);
    }
}
