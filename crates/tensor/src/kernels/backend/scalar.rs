//! Portable scalar backend — the reference implementation.
//!
//! Every loop here reproduces the pre-backend kernel loops *exactly* (same
//! iteration order, same op sequence), so results are bit-identical to
//! what the repository shipped before explicit SIMD existed — except that
//! the softmax `exp` row and the bias+GELU rows flush would-be subnormal
//! results to zero — and every other backend is differential-tested
//! against this one. No `unsafe` anywhere in this module.
//!
//! The inner loops have constant trip counts (8-wide lanes), so LLVM still
//! auto-vectorizes them at whatever width the build's baseline target
//! allows — "scalar" names the *source form*, not a promise of scalar
//! instructions.

use super::{BackendKind, MicroKernelBackend};
use crate::kernels::fused::{gelu_fwd, gelu_grad};

/// The scalar reference backend (always available).
pub(crate) struct ScalarBackend;

/// Shared scalar SGEMM micro-tile over a runtime `mr` (8 for the scalar
/// backend proper, 16 for the wide test backend): for each depth step,
/// `acc[i*8 + j] += pa[p*mr + i] * pb[p*8 + j]`.
pub(crate) fn sgemm_tile_scalar(pa: &[f32], pb: &[f32], kc: usize, acc: &mut [f32], mr: usize) {
    assert_eq!(acc.len(), mr * 8, "sgemm_tile: acc size mismatch");
    assert!(pa.len() >= kc * mr, "sgemm_tile: packed A too short");
    assert!(pb.len() >= kc * 8, "sgemm_tile: packed B too short");
    for (ar, br) in pa.chunks_exact(mr).zip(pb.chunks_exact(8)).take(kc) {
        for (i, accrow) in acc.chunks_exact_mut(8).enumerate() {
            let av = ar[i];
            for (accv, &bv) in accrow.iter_mut().zip(br.iter()) {
                *accv += av * bv;
            }
        }
    }
}

/// `out[i] = (row[i] - mean) * inv * gamma[i] + beta[i]` — the layernorm
/// affine loop every backend must match bit-for-bit.
pub(crate) fn ln_affine_row_scalar(
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
    for (((o, &v), &g), &b) in out.iter_mut().zip(row.iter()).zip(gamma.iter()).zip(beta.iter()) {
        *o = (v - mean) * inv * g + b;
    }
}

/// `v`, or a zero of `v`'s sign where `v` is subnormal.
fn flush_subnormal(v: f32) -> f32 {
    if v.is_subnormal() {
        0.0f32.copysign(v)
    } else {
        v
    }
}

/// `out[i] = gelu(x[i] + bias[i])` with libm `tanh` — the fused bias+GELU
/// inner loop the other backends are held to within tolerance.
pub(crate) fn bias_gelu_row_scalar(x: &[f32], bias: &[f32], out: &mut [f32]) {
    assert!(
        x.len() == out.len() && bias.len() == out.len(),
        "bias_gelu_row: length mismatch"
    );
    for ((o, &xv), &bv) in out.iter_mut().zip(x.iter()).zip(bias.iter()) {
        *o = flush_subnormal(gelu_fwd(xv + bv));
    }
}

/// `gx[i] = g[i] * gelu'(x[i] + bias[i])` with libm `tanh` — the
/// reference form of the bias+GELU backward row.
pub(crate) fn bias_gelu_grad_row_scalar(x: &[f32], bias: &[f32], g: &[f32], gx: &mut [f32]) {
    assert!(
        x.len() == gx.len() && bias.len() == gx.len() && g.len() == gx.len(),
        "bias_gelu_grad_row: length mismatch"
    );
    for (((o, &xv), &bv), &gv) in gx.iter_mut().zip(x.iter()).zip(bias.iter()).zip(g.iter()) {
        *o = flush_subnormal(gv * gelu_grad(xv + bv));
    }
}

/// Lower end of the softmax `exp` domain, `ln(FLT_MIN)` rounded up:
/// arguments below it would give a subnormal result.
pub(crate) const EXP_UNDERFLOW: f32 = -87.336_54;

/// libm `exp`, flushed to exactly `+0.0` below [`EXP_UNDERFLOW`] so the
/// softmax never produces a subnormal probability (subnormal products are
/// slow, and the value is below the oracle bound anyway).
pub(crate) fn exp_or_zero(x: f32) -> f32 {
    if x < EXP_UNDERFLOW {
        0.0
    } else {
        x.exp()
    }
}

/// `s[j] = exp(s[j] - m)` in place, returning the left-to-right sum —
/// the online-softmax inner loop as the pre-backend kernel wrote it (libm
/// `exp`, ascending-order sum), with subnormal results flushed to zero.
pub(crate) fn softmax_exp_row_scalar(s: &mut [f32], m: f32) -> f32 {
    let mut psum = 0.0f32;
    for sv in s.iter_mut() {
        *sv = exp_or_zero(*sv - m);
        psum += *sv;
    }
    psum
}

impl MicroKernelBackend for ScalarBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn sgemm_tile(&self, pa: &[f32], pb: &[f32], kc: usize, acc: &mut [f32]) {
        sgemm_tile_scalar(pa, pb, kc, acc, 8);
    }

    fn attn_score_4x8(&self, q: &[f32], dh: usize, kt: &[f32], lk: usize, acc: &mut [[f32; 8]; 4]) {
        assert!(dh >= 1 && q.len() >= 4 * dh, "attn_score: q too short");
        assert!(kt.len() >= (dh - 1) * lk + 8, "attn_score: kt too short");
        for p in 0..dh {
            let klane = &kt[p * lk..p * lk + 8];
            for (a, lane) in acc.iter_mut().enumerate() {
                let qv = q[a * dh + p];
                for (c, &kv) in lane.iter_mut().zip(klane.iter()) {
                    *c += qv * kv;
                }
            }
        }
    }

    fn attn_pv_4x8(&self, p: &[f32], ktb: usize, vt: &[f32], dh: usize, acc: &mut [[f32; 8]; 4]) {
        assert!(ktb >= 1 && p.len() >= 4 * ktb, "attn_pv: p too short");
        assert!(vt.len() >= (ktb - 1) * dh + 8, "attn_pv: vt too short");
        for j in 0..ktb {
            let vlane = &vt[j * dh..j * dh + 8];
            for (a, lane) in acc.iter_mut().enumerate() {
                let pv = p[a * ktb + j];
                for (c, &vv) in lane.iter_mut().zip(vlane.iter()) {
                    *c += pv * vv;
                }
            }
        }
    }
}
