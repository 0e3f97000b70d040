//! AVX2 + FMA backend: 256-bit lanes, fused multiply-add.
//!
//! One 8-wide output lane is a single `__m256`; the SGEMM micro-tile holds
//! its 8×8 accumulator in eight `ymm` registers and the attention blocks
//! hold 4×8 in four. All products go through `_mm256_fmadd_ps`, which
//! rounds once instead of twice — results therefore differ from the scalar
//! reference by rounding only, inside the kernel-oracle `1e-5` relative
//! bound (see the numeric contract on
//! [`MicroKernelBackend`](super::MicroKernelBackend)). The layernorm
//! affine loop deliberately does **not** use FMA so it stays bit-identical
//! to the scalar reference, as the trait requires.
//!
//! # Safety
//!
//! The two invariants that make this module sound (see the module docs on
//! [`super`]):
//!
//! - **ISA**: [`Avx2Backend`] is only reachable through
//!   [`super::BackendKind::instance`], which requires `avx2` *and* `fma`
//!   to have been runtime-detected, so the `#[target_feature]` functions
//!   below only ever execute on a CPU that has them.
//! - **Bounds**: every trait method asserts the slice-length contract
//!   before entering the intrinsic body; the pointer arithmetic inside
//!   stays strictly below those asserted lengths.

use core::arch::x86_64::*;

use super::scalar::{exp_or_zero, EXP_UNDERFLOW};
use super::{BackendKind, MicroKernelBackend};

/// The AVX2+FMA backend. Zero-sized; constructed only by the dispatch
/// layer after feature detection.
pub(crate) struct Avx2Backend;

impl MicroKernelBackend for Avx2Backend {
    fn kind(&self) -> BackendKind {
        BackendKind::Avx2
    }

    fn sgemm_tile(&self, pa: &[f32], pb: &[f32], kc: usize, acc: &mut [f32]) {
        assert_eq!(acc.len(), 8 * 8, "sgemm_tile: acc size mismatch");
        assert!(pa.len() >= kc * 8, "sgemm_tile: packed A too short");
        assert!(pb.len() >= kc * 8, "sgemm_tile: packed B too short");
        // SAFETY: avx2+fma detected (instance invariant); indices < asserted lengths.
        unsafe { sgemm_tile_8x8(pa.as_ptr(), pb.as_ptr(), kc, acc.as_mut_ptr()) }
    }

    fn attn_score_4x8(&self, q: &[f32], dh: usize, kt: &[f32], lk: usize, acc: &mut [[f32; 8]; 4]) {
        assert!(dh >= 1 && q.len() >= 4 * dh, "attn_score: q too short");
        assert!(kt.len() >= (dh - 1) * lk + 8, "attn_score: kt too short");
        // SAFETY: avx2+fma detected; indices < asserted lengths.
        unsafe { mini_4x8(q.as_ptr(), dh, kt.as_ptr(), lk, dh, acc.as_mut_ptr().cast()) }
    }

    fn attn_pv_4x8(&self, p: &[f32], ktb: usize, vt: &[f32], dh: usize, acc: &mut [[f32; 8]; 4]) {
        assert!(ktb >= 1 && p.len() >= 4 * ktb, "attn_pv: p too short");
        assert!(vt.len() >= (ktb - 1) * dh + 8, "attn_pv: vt too short");
        // SAFETY: avx2+fma detected; indices < asserted lengths.
        unsafe { mini_4x8(p.as_ptr(), ktb, vt.as_ptr(), dh, ktb, acc.as_mut_ptr().cast()) }
    }

    fn ln_affine_row(
        &self,
        row: &[f32],
        mean: f32,
        inv: f32,
        gamma: &[f32],
        beta: &[f32],
        out: &mut [f32],
    ) {
        assert!(
            row.len() == out.len() && gamma.len() == out.len() && beta.len() == out.len(),
            "ln_affine_row: length mismatch"
        );
        // SAFETY: avx2 detected; all four slices asserted equal-length.
        unsafe {
            ln_affine(
                row.as_ptr(),
                gamma.as_ptr(),
                beta.as_ptr(),
                out.as_mut_ptr(),
                out.len(),
                mean,
                inv,
            )
        }
    }

    fn softmax_exp_row(&self, s: &mut [f32], m: f32) -> f32 {
        // SAFETY: avx2+fma detected; writes stay below s.len().
        unsafe { softmax_exp_row(s.as_mut_ptr(), s.len(), m) }
    }
}

/// 8×8 SGEMM micro-tile: eight `ymm` accumulators, one broadcast-FMA per
/// packed A value per depth step.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn sgemm_tile_8x8(pa: *const f32, pb: *const f32, kc: usize, acc: *mut f32) {
    let mut c0 = _mm256_loadu_ps(acc);
    let mut c1 = _mm256_loadu_ps(acc.add(8));
    let mut c2 = _mm256_loadu_ps(acc.add(16));
    let mut c3 = _mm256_loadu_ps(acc.add(24));
    let mut c4 = _mm256_loadu_ps(acc.add(32));
    let mut c5 = _mm256_loadu_ps(acc.add(40));
    let mut c6 = _mm256_loadu_ps(acc.add(48));
    let mut c7 = _mm256_loadu_ps(acc.add(56));
    for p in 0..kc {
        let b = _mm256_loadu_ps(pb.add(p * 8));
        let a = pa.add(p * 8);
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(*a), b, c0);
        c1 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(1)), b, c1);
        c2 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(2)), b, c2);
        c3 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(3)), b, c3);
        c4 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(4)), b, c4);
        c5 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(5)), b, c5);
        c6 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(6)), b, c6);
        c7 = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(7)), b, c7);
    }
    _mm256_storeu_ps(acc, c0);
    _mm256_storeu_ps(acc.add(8), c1);
    _mm256_storeu_ps(acc.add(16), c2);
    _mm256_storeu_ps(acc.add(24), c3);
    _mm256_storeu_ps(acc.add(32), c4);
    _mm256_storeu_ps(acc.add(40), c5);
    _mm256_storeu_ps(acc.add(48), c6);
    _mm256_storeu_ps(acc.add(56), c7);
}

/// Shared 4×8 mini-GEMM for the attention score and P·V blocks:
/// `acc[a][0..8] += lhs[a*lhs_stride + s] * rhs[s*rhs_stride ..+8]` over
/// `s in 0..steps`. (Score: lhs = queries, rhs = transposed keys,
/// steps = dh. P·V: lhs = probabilities, rhs = value rows, steps = ktb.)
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mini_4x8(
    lhs: *const f32,
    lhs_stride: usize,
    rhs: *const f32,
    rhs_stride: usize,
    steps: usize,
    acc: *mut f32,
) {
    let mut c0 = _mm256_loadu_ps(acc);
    let mut c1 = _mm256_loadu_ps(acc.add(8));
    let mut c2 = _mm256_loadu_ps(acc.add(16));
    let mut c3 = _mm256_loadu_ps(acc.add(24));
    for s in 0..steps {
        let r = _mm256_loadu_ps(rhs.add(s * rhs_stride));
        c0 = _mm256_fmadd_ps(_mm256_set1_ps(*lhs.add(s)), r, c0);
        c1 = _mm256_fmadd_ps(_mm256_set1_ps(*lhs.add(lhs_stride + s)), r, c1);
        c2 = _mm256_fmadd_ps(_mm256_set1_ps(*lhs.add(2 * lhs_stride + s)), r, c2);
        c3 = _mm256_fmadd_ps(_mm256_set1_ps(*lhs.add(3 * lhs_stride + s)), r, c3);
    }
    _mm256_storeu_ps(acc, c0);
    _mm256_storeu_ps(acc.add(8), c1);
    _mm256_storeu_ps(acc.add(16), c2);
    _mm256_storeu_ps(acc.add(24), c3);
}

/// 8-wide `exp` via the classic Cephes range reduction: `x = n*ln2 + r`
/// with `n = round(x * log2(e))` and `|r| <= ln2/2`, a degree-7 minimax
/// polynomial for `exp(r)`, and the `2^n` scale applied by integer
/// arithmetic on the exponent bits. Relative error is ~2 ulp over the
/// clamped domain — far inside the `1e-5` oracle bound the
/// [`softmax_exp_row`](MicroKernelBackend::softmax_exp_row) contract
/// allows.
///
/// Domain handling: inputs are clamped to `[-87.33, 88.72]` before range
/// reduction, so the exponent-bit trick never over/underflows. Lanes
/// below the lower clamp return exactly `+0.0` (the clamped value would be
/// `FLT_MIN`): masked keys (`-1e9` bias) then get exactly-zero
/// probabilities instead of near-subnormal ones, whose products are
/// subnormal and slow, and no lane is ever subnormal. NaN lanes are
/// re-injected after the clamp so poisoned scores stay poisoned.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp8(x: __m256) -> __m256 {
    let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    let lo = _mm256_set1_ps(EXP_UNDERFLOW);
    let underflow = _mm256_cmp_ps::<_CMP_LT_OQ>(x, lo);
    let xc = _mm256_min_ps(_mm256_max_ps(x, lo), _mm256_set1_ps(88.722_84));
    let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
        _mm256_mul_ps(xc, _mm256_set1_ps(std::f32::consts::LOG2_E)),
    );
    // r = x - n*ln2, with ln2 split hi/lo so the subtraction is exact
    // (ln2_hi = 0.693359375, exactly representable; written short for the
    // lint but identical bits: 0x3F318000).
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693_359_4), xc);
    let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.121_944_4e-4), r);
    // exp(r) ~= 1 + r + r^2 * P(r) (Cephes expf coefficients).
    let mut p = _mm256_set1_ps(1.987_569_1e-4);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.398_199_9e-3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.333_452e-3));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.166_579_6e-2));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.666_666_6e-1));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(0.5));
    let r2 = _mm256_mul_ps(r, r);
    let y = _mm256_fmadd_ps(p, r2, _mm256_add_ps(r, _mm256_set1_ps(1.0)));
    // y * 2^n: add n to the exponent field. |n| <= 127 after the clamp.
    let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        _mm256_cvtps_epi32(n),
        _mm256_set1_epi32(127),
    )));
    let res = _mm256_andnot_ps(underflow, _mm256_mul_ps(y, pow2));
    // Clamping erased NaN lanes; restore them from the original input.
    _mm256_blendv_ps(res, x, nan_mask)
}

/// In-place `s[j] = exp(s[j] - m)` over `len` elements, returning the sum.
/// Vector lanes accumulate into 8 partial sums folded at the end; the
/// scalar tail uses the scalar backend's `exp_or_zero`. Both are within
/// the tolerance contract.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn softmax_exp_row(s: *mut f32, len: usize, m: f32) -> f32 {
    let vm = _mm256_set1_ps(m);
    let mut vsum = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= len {
        let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(s.add(i)), vm));
        _mm256_storeu_ps(s.add(i), e);
        vsum = _mm256_add_ps(vsum, e);
        i += 8;
    }
    // Horizontal fold of the 8 partials.
    let hi = _mm256_extractf128_ps::<1>(vsum);
    let q = _mm_add_ps(_mm256_castps256_ps128(vsum), hi);
    let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
    let q = _mm_add_ss(q, _mm_shuffle_ps::<1>(q, q));
    let mut sum = _mm_cvtss_f32(q);
    while i < len {
        let e = exp_or_zero(*s.add(i) - m);
        *s.add(i) = e;
        sum += e;
        i += 1;
    }
    sum
}

/// Vectorized layernorm affine: `(v - mean) * inv * gamma + beta` with the
/// exact scalar op sequence — sub, mul, mul, add, each correctly rounded —
/// so the result is bit-identical lane-for-lane to the scalar reference.
/// No FMA here, by contract.
#[target_feature(enable = "avx2")]
unsafe fn ln_affine(
    row: *const f32,
    gamma: *const f32,
    beta: *const f32,
    out: *mut f32,
    d: usize,
    mean: f32,
    inv: f32,
) {
    let vm = _mm256_set1_ps(mean);
    let vi = _mm256_set1_ps(inv);
    let mut i = 0;
    while i + 8 <= d {
        let v = _mm256_loadu_ps(row.add(i));
        let g = _mm256_loadu_ps(gamma.add(i));
        let b = _mm256_loadu_ps(beta.add(i));
        let t = _mm256_mul_ps(_mm256_mul_ps(_mm256_sub_ps(v, vm), vi), g);
        _mm256_storeu_ps(out.add(i), _mm256_add_ps(t, b));
        i += 8;
    }
    while i < d {
        *out.add(i) = (*row.add(i) - mean) * inv * *gamma.add(i) + *beta.add(i);
        i += 1;
    }
}
