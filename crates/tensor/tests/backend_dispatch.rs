//! Dispatch-layer tests for the SIMD micro-kernel backends: detection
//! order, override precedence, typed errors for impossible requests, and
//! telemetry visibility of the selected backend.
//!
//! The pure tests drive [`resolve`]/[`best_for`] with synthetic
//! [`CpuFeatures`], so every ordering rule is checked on every host
//! regardless of what the build machine supports. Process-global state
//! (forced backend, the global telemetry registry) is
//! only touched inside the single `global_state_precedence_and_telemetry`
//! test so the pure tests can run concurrently with it.

use apf_tensor::kernels::backend::{
    best_for, force_backend, kernel_backend, resolve, BackendError, BackendKind, CpuFeatures,
};
use apf_tensor::kernels::gemm::{gemm, gemm_naive, gemm_packed};
use apf_tensor::prelude::*;
use apf_telemetry::Telemetry;

const ALL_NAMES: [&str; 4] = ["avx2", "sse2", "neon", "scalar"];

#[test]
fn detection_order_prefers_widest_vector_unit() {
    // x86 ladder: avx2 beats sse2 beats scalar.
    let avx2 = CpuFeatures { avx2: true, sse2: true, neon: false };
    assert_eq!(best_for(avx2), BackendKind::Avx2);
    let sse2 = CpuFeatures { avx2: false, sse2: true, neon: false };
    assert_eq!(best_for(sse2), BackendKind::Sse2);
    // aarch64 ladder: neon beats scalar.
    let neon = CpuFeatures { avx2: false, sse2: false, neon: true };
    assert_eq!(best_for(neon), BackendKind::Neon);
    // No SIMD at all: the universal floor.
    assert_eq!(best_for(CpuFeatures::default()), BackendKind::Scalar);
}

#[test]
fn backend_names_parse_case_insensitively() {
    for (name, kind) in ALL_NAMES.iter().zip(BackendKind::ALL) {
        assert_eq!(BackendKind::parse(name).unwrap(), kind);
        assert_eq!(BackendKind::parse(&name.to_uppercase()).unwrap(), kind);
        assert_eq!(BackendKind::parse(&format!("  {} ", name)).unwrap(), kind);
        assert_eq!(name.parse::<BackendKind>().unwrap(), kind);
    }
}

#[test]
fn unknown_backend_name_is_a_typed_error_not_a_fallback() {
    let err = BackendKind::parse("avx512").unwrap_err();
    let BackendError::UnknownBackend { ref name } = err else {
        panic!("expected UnknownBackend, got {:?}", err);
    };
    assert_eq!(name, "avx512");
    // The message must list the valid spellings so the error is actionable.
    let msg = err.to_string();
    for valid in ALL_NAMES {
        assert!(msg.contains(valid), "error message {:?} must list {:?}", msg, valid);
    }

    // resolve() with an unknown env override must surface the error, never
    // silently fall back to detection.
    let feats = CpuFeatures { avx2: true, sse2: true, neon: false };
    let err = resolve(None, Some("fastest"), feats).unwrap_err();
    assert!(matches!(err, BackendError::UnknownBackend { .. }));
}

#[test]
fn resolve_precedence_is_force_then_env_then_detection() {
    let feats = CpuFeatures { avx2: true, sse2: true, neon: false };
    // No overrides: detection wins.
    assert_eq!(resolve(None, None, feats).unwrap(), BackendKind::Avx2);
    // Env override beats detection.
    assert_eq!(resolve(None, Some("sse2"), feats).unwrap(), BackendKind::Sse2);
    // Programmatic force beats the env override.
    assert_eq!(
        resolve(Some(BackendKind::Scalar), Some("sse2"), feats).unwrap(),
        BackendKind::Scalar
    );
    // Empty / whitespace-only env values are treated as unset.
    assert_eq!(resolve(None, Some(""), feats).unwrap(), BackendKind::Avx2);
    assert_eq!(resolve(None, Some("   "), feats).unwrap(), BackendKind::Avx2);
}

#[test]
fn unavailable_backend_is_a_typed_error() {
    // A backend the CPU lacks: compiled on this arch (or not), but the
    // synthetic feature set can never satisfy avx2 here.
    let no_simd = CpuFeatures::default();
    let err = resolve(Some(BackendKind::Avx2), None, no_simd).unwrap_err();
    assert!(matches!(err, BackendError::Unavailable { kind: BackendKind::Avx2, .. }));

    // At least one of the four kinds is never compiled for the current
    // architecture (neon on x86-64, the x86 pair on aarch64); forcing it
    // must fail with the typed error even if features claim support.
    let not_compiled = BackendKind::ALL
        .into_iter()
        .find(|k| !k.compiled())
        .expect("no architecture compiles all four backends");
    let generous = CpuFeatures { avx2: true, sse2: true, neon: true };
    let err = resolve(Some(not_compiled), None, generous).unwrap_err();
    assert!(matches!(err, BackendError::Unavailable { .. }));
    assert!(err.to_string().contains("not compiled"));
}

#[test]
fn scalar_backend_is_always_compiled_and_detected() {
    assert!(BackendKind::Scalar.compiled());
    assert!(BackendKind::Scalar.available());
    let detected = BackendKind::detected();
    assert!(!detected.is_empty());
    assert_eq!(*detected.last().unwrap(), BackendKind::Scalar, "scalar is the floor");
    // Detected list is best-first: its head is what detection alone picks.
    assert_eq!(detected[0], best_for(CpuFeatures::detect()));
    // Every detected backend hands out a usable instance.
    for kind in detected {
        let bk = kind.instance().expect("detected backend must instantiate");
        assert_eq!(bk.kind(), kind);
    }
}

/// Sum of the per-backend dispatch counters in a snapshot.
fn total_dispatches(tel: &Telemetry) -> u64 {
    tel.snapshot()
        .metrics
        .iter()
        .filter(|m| m.name == "apf_tensor_backend_dispatch_total")
        .map(|m| m.value as u64)
        .sum()
}

/// Dispatch count for one backend label.
fn dispatches_for(tel: &Telemetry, kind: BackendKind) -> u64 {
    tel.snapshot()
        .get("apf_tensor_backend_dispatch_total", &[("backend", kind.name())])
        .map_or(0, |m| m.value as u64)
}

/// Active-selection gauge for one backend label.
fn active_gauge(tel: &Telemetry, kind: BackendKind) -> Option<f64> {
    tel.snapshot()
        .get("apf_tensor_backend_active", &[("backend", kind.name())])
        .map(|m| m.value)
}

/// All process-global interactions in one sequential test: forced backend
/// visible in `kernel_backend()` and the telemetry counters, and `gemm`
/// reaching the backend layer for a packable shape.
#[test]
fn global_state_precedence_and_telemetry() {
    // First install wins; if another test binary's process installed one
    // already this is still our handle because tests share the process.
    Telemetry::install_global(Telemetry::enabled());
    let tel = Telemetry::global().expect("global telemetry just installed");

    let m = 16;
    let k = 64;
    let n = 16; // 16*64*16 = 16384 >= PACK_FLOPS, m >= 4: gemm() goes packed
    let a = Tensor::rand_uniform([m, k], -1.0, 1.0, 7).to_vec();
    let b = Tensor::rand_uniform([k, n], -1.0, 1.0, 8).to_vec();
    let mut c = vec![0.0f32; m * n];

    // 1. Forcing scalar routes dispatches to the scalar series.
    force_backend(Some(BackendKind::Scalar)).unwrap();
    assert_eq!(kernel_backend().unwrap(), BackendKind::Scalar);
    let before = dispatches_for(tel, BackendKind::Scalar);
    gemm_packed(&a, &b, &mut c, m, k, n);
    assert!(dispatches_for(tel, BackendKind::Scalar) > before);
    assert_eq!(active_gauge(tel, BackendKind::Scalar), Some(1.0));

    // 2. Forcing the best-detected backend moves the counters and flips
    //    the selection gauges.
    let best = BackendKind::detected()[0];
    force_backend(Some(best)).unwrap();
    assert_eq!(kernel_backend().unwrap(), best);
    let before = dispatches_for(tel, best);
    gemm_packed(&a, &b, &mut c, m, k, n);
    assert!(dispatches_for(tel, best) > before);
    assert_eq!(active_gauge(tel, best), Some(1.0));
    if best != BackendKind::Scalar {
        assert_eq!(active_gauge(tel, BackendKind::Scalar), Some(0.0));
    }

    // 3. Forcing an impossible backend is rejected up front and leaves the
    //    previous selection in place.
    let not_compiled = BackendKind::ALL.into_iter().find(|kd| !kd.compiled()).unwrap();
    assert!(force_backend(Some(not_compiled)).is_err());
    assert_eq!(kernel_backend().unwrap(), best);

    // 4. gemm() dispatches a packable shape through the backend layer.
    let backend_before = total_dispatches(tel);
    gemm(&a, &b, &mut c, m, k, n);
    assert!(total_dispatches(tel) > backend_before);

    // Sanity: forced-backend results agree with the reference.
    let mut reference = vec![0.0f32; m * n];
    gemm_naive(&a, &b, &mut reference, m, k, n);
    for (i, (&f, &r)) in c.iter().zip(reference.iter()).enumerate() {
        assert!((f - r).abs() <= 1e-4, "elem {}: {} vs {}", i, f, r);
    }

    force_backend(None).unwrap();
}
