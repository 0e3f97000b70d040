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
//! The softmax `exp` row and the bias+GELU rows are tolerance-contracted
//! and share one polynomial, `exp8`. GELU uses the identity
//! `0.5·(1 + tanh u) = 1/(1 + e^(−2u))`, so it needs no vector `tanh`.
//! The GELU rows run their ragged tail through the same vector code,
//! padded into a stack vector. Each output is therefore a pure function
//! of its own inputs, whatever its column or the row width.
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
use crate::kernels::fused::{GELU_C, SQRT_2_OVER_PI};

/// Where `z = −2u` exceeds this, the GELU sigmoid `s = 1/(1 + e^z)` flushes
/// to `+0.0`. Below it `s >= e^−87 ≈ 1.6e−38`, still above
/// `f32::MIN_POSITIVE`, so `s` and `s·(1 − s)` are never subnormal.
/// (`exp8`'s own upper clamp, 88.72, would let `s` reach ~2.9e−39.)
const SIGMOID_FLUSH: f32 = 87.0;

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

    fn bias_gelu_row(&self, x: &[f32], bias: &[f32], out: &mut [f32]) {
        assert!(
            x.len() == out.len() && bias.len() == out.len(),
            "bias_gelu_row: length mismatch"
        );
        // SAFETY: avx2+fma detected; all three slices asserted equal-length.
        unsafe { bias_gelu_row(x.as_ptr(), bias.as_ptr(), out.as_mut_ptr(), out.len()) }
    }

    fn bias_gelu_grad_row(&self, x: &[f32], bias: &[f32], g: &[f32], gx: &mut [f32]) {
        assert!(
            x.len() == gx.len() && bias.len() == gx.len() && g.len() == gx.len(),
            "bias_gelu_grad_row: length mismatch"
        );
        // SAFETY: avx2+fma detected; all four slices asserted equal-length.
        unsafe {
            bias_gelu_grad_row(x.as_ptr(), bias.as_ptr(), g.as_ptr(), gx.as_mut_ptr(), gx.len())
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

/// Loads lanes `0..n` (`1 <= n <= 8`) from `p` and zeroes the rest, so a
/// ragged tail runs through the same vector code as a full vector.
#[target_feature(enable = "avx2")]
unsafe fn load_lanes(p: *const f32, n: usize) -> __m256 {
    if n == 8 {
        _mm256_loadu_ps(p)
    } else {
        let mut buf = [0.0f32; 8];
        std::ptr::copy_nonoverlapping(p, buf.as_mut_ptr(), n);
        _mm256_loadu_ps(buf.as_ptr())
    }
}

/// Stores lanes `0..n` (`1 <= n <= 8`) of `v` to `p`.
#[target_feature(enable = "avx2")]
unsafe fn store_lanes(p: *mut f32, n: usize, v: __m256) {
    if n == 8 {
        _mm256_storeu_ps(p, v);
    } else {
        let mut buf = [0.0f32; 8];
        _mm256_storeu_ps(buf.as_mut_ptr(), v);
        std::ptr::copy_nonoverlapping(buf.as_ptr(), p, n);
    }
}

/// Zeroes the subnormal lanes of `y`, keeping their sign.
#[target_feature(enable = "avx2")]
unsafe fn flush_subnormal8(y: __m256) -> __m256 {
    let mag = _mm256_andnot_ps(_mm256_set1_ps(-0.0), y);
    let tiny = _mm256_cmp_ps::<_CMP_LT_OQ>(mag, _mm256_set1_ps(f32::MIN_POSITIVE));
    _mm256_xor_ps(y, _mm256_and_ps(tiny, mag))
}

/// The GELU sigmoid at `v`: `(s, q)` with `s = 0.5·(1 + tanh u) =
/// 1/(1 + e^(−2u))`, `u = √(2/π)·(v + 0.044715·v³)`, and `q = s·(1 − s)`,
/// computed as `s·(e·s)` so it does not cancel where `s` nears 1. Both
/// flush to `+0.0` above [`SIGMOID_FLUSH`]. The clamp before `exp8` keeps
/// the flushed lanes' intermediates normal too: unclamped, `s` would turn
/// subnormal, and then `e·s` would be `inf·0`. A NaN `v` yields a finite
/// `(s, q)`; the callers' products with `v` carry the NaN.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gelu_sigmoid8(v: __m256) -> (__m256, __m256) {
    let one = _mm256_set1_ps(1.0);
    let limit = _mm256_set1_ps(SIGMOID_FLUSH);
    let v2 = _mm256_mul_ps(v, v);
    let inner = _mm256_fmadd_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_C), v2), v, v);
    let z = _mm256_mul_ps(_mm256_set1_ps(-2.0 * SQRT_2_OVER_PI), inner);
    let flush = _mm256_cmp_ps::<_CMP_GT_OQ>(z, limit);
    // `min` returns its second operand for a NaN `z`.
    let e = exp8(_mm256_min_ps(z, limit));
    let s = _mm256_div_ps(one, _mm256_add_ps(one, e));
    let q = _mm256_mul_ps(s, _mm256_mul_ps(e, s));
    (_mm256_andnot_ps(flush, s), _mm256_andnot_ps(flush, q))
}

/// `out[i] = gelu(x[i] + bias[i])` as `v·s` over `len` elements.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn bias_gelu_row(x: *const f32, bias: *const f32, out: *mut f32, len: usize) {
    let mut i = 0;
    while i < len {
        let n = (len - i).min(8);
        let v = _mm256_add_ps(load_lanes(x.add(i), n), load_lanes(bias.add(i), n));
        let (s, _) = gelu_sigmoid8(v);
        store_lanes(out.add(i), n, flush_subnormal8(_mm256_mul_ps(v, s)));
        i += 8;
    }
}

/// `gx[i] = g[i]·(s + v·q·2c₀·(1 + 3c₁v²))` over `len` elements: the
/// exact derivative of `v·s`. The factor `(3c₁·v)·v` is rounded in the
/// scalar reference's order, so it overflows (and the lane turns NaN)
/// exactly where the reference's does.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn bias_gelu_grad_row(
    x: *const f32,
    bias: *const f32,
    g: *const f32,
    gx: *mut f32,
    len: usize,
) {
    let one = _mm256_set1_ps(1.0);
    let mut i = 0;
    while i < len {
        let n = (len - i).min(8);
        let v = _mm256_add_ps(load_lanes(x.add(i), n), load_lanes(bias.add(i), n));
        let (s, q) = gelu_sigmoid8(v);
        let p = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(3.0 * GELU_C), v), v);
        let a = _mm256_mul_ps(_mm256_mul_ps(v, q), _mm256_set1_ps(2.0 * SQRT_2_OVER_PI));
        let d = _mm256_fmadd_ps(a, _mm256_add_ps(one, p), s);
        let grad = _mm256_mul_ps(load_lanes(g.add(i), n), d);
        store_lanes(gx.add(i), n, flush_subnormal8(grad));
        i += 8;
    }
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
