//! Fused elementwise/normalization kernels.
//!
//! These exist to kill intermediate-allocation churn in the model layers:
//! `bias_gelu` replaces a broadcast-add tensor **plus** a GELU tensor with
//! one output buffer, and `layernorm_forward` normalizes rows without the
//! per-call `gamma`/`beta` copies the original graph op made. Both fuse
//! *traversals*, not arithmetic: every scalar operation and its ordering
//! is identical to the unfused form, so outputs are **bit-identical** to
//! the naive references (the oracle asserts exact equality, not a
//! tolerance).
//!
//! The bit-exactness contract extends through the [`super::backend`]
//! layer: the layernorm affine loop and the bias+GELU loop route through
//! [`super::backend::MicroKernelBackend::ln_affine_row`] /
//! [`super::backend::MicroKernelBackend::bias_gelu_row`], whose trait contract forbids
//! FMA contraction or reordering — a vectorized override must produce the
//! exact scalar bits. The mean/variance reductions stay in scalar
//! summation order here, outside the backend, for the same reason.

use rayon::prelude::*;

use super::backend;
use super::stats;

pub(crate) const SQRT_2_OVER_PI: f32 = 0.797_884_6;
pub(crate) const GELU_C: f32 = 0.044_715;

/// GELU (tanh approximation) — the single shared definition.
#[inline]
pub fn gelu_fwd(x: f32) -> f32 {
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + GELU_C * x * x * x)).tanh())
}

/// d GELU / dx for the tanh approximation.
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
}

/// `out[i] = gelu(x[i] + bias[i % tile])` in one pass (`bias.len()` must
/// divide `x.len()`; trailing-suffix broadcast as in `Graph::badd`).
///
/// # Panics
/// Panics if `bias` is empty (unless `x` is too) or does not tile `x`.
pub fn bias_gelu_forward(x: &[f32], bias: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len(), "bias_gelu: out size mismatch");
    if x.is_empty() {
        return;
    }
    let tile = bias.len();
    assert!(tile > 0 && x.len().is_multiple_of(tile), "bias_gelu: bias must tile x");
    if let Some(cs) = stats::counters() {
        cs.fused_bias_gelu.inc();
    }
    let bk = backend::active();
    out.par_chunks_mut(tile).enumerate().for_each(|(r, orow)| {
        bk.bias_gelu_row(&x[r * tile..(r + 1) * tile], bias, orow);
    });
}

/// `gx[i] = g[i] * gelu'(x[i] + bias[i % tile])` — the input-side backward
/// of [`bias_gelu_forward`]. The bias gradient is the leading-dim
/// reduction of `gx`, which the autograd layer performs.
pub fn bias_gelu_backward(x: &[f32], bias: &[f32], g: &[f32], gx: &mut [f32]) {
    assert_eq!(x.len(), g.len(), "bias_gelu: grad size mismatch");
    assert_eq!(x.len(), gx.len(), "bias_gelu: gx size mismatch");
    if x.is_empty() {
        return;
    }
    let tile = bias.len();
    assert!(tile > 0 && x.len().is_multiple_of(tile), "bias_gelu: bias must tile x");
    gx.par_chunks_mut(tile).enumerate().for_each(|(r, grow)| {
        let xrow = &x[r * tile..(r + 1) * tile];
        let gsrc = &g[r * tile..(r + 1) * tile];
        for (((o, &xv), &bv), &gv) in
            grow.iter_mut().zip(xrow.iter()).zip(bias.iter()).zip(gsrc.iter())
        {
            *o = gv * gelu_grad(xv + bv);
        }
    });
}

/// Row-wise layer normalization: `out = (x - mean) * invstd * gamma + beta`
/// over `rows` rows of width `d`, also writing per-row `mean`/`invstd` for
/// backward. Row-parallel; within a row the summation order matches
/// [`layernorm_naive`] exactly, so the two are bit-identical.
///
/// # Panics
/// Panics on slice-length mismatches.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_forward(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    rows: usize,
    d: usize,
    out: &mut [f32],
    mean: &mut [f32],
    invstd: &mut [f32],
) {
    assert_eq!(x.len(), rows * d, "layernorm: x size mismatch");
    assert_eq!(gamma.len(), d, "layernorm: gamma size mismatch");
    assert_eq!(beta.len(), d, "layernorm: beta size mismatch");
    assert_eq!(out.len(), rows * d, "layernorm: out size mismatch");
    assert_eq!(mean.len(), rows, "layernorm: mean size mismatch");
    assert_eq!(invstd.len(), rows, "layernorm: invstd size mismatch");
    if rows == 0 || d == 0 {
        return;
    }
    if let Some(cs) = stats::counters() {
        cs.fused_layernorm.inc();
    }
    let bk = backend::active();
    let mut per_row: Vec<((&mut [f32], &mut f32), &mut f32)> = out
        .chunks_mut(d)
        .zip(mean.iter_mut())
        .zip(invstd.iter_mut())
        .collect();
    per_row.par_iter_mut().enumerate().for_each(|(r, ((orow, m), inv))| {
        let row = &x[r * d..(r + 1) * d];
        (**m, **inv) = row_moments(row, eps);
        bk.ln_affine_row(row, **m, **inv, gamma, beta, orow);
    });
}

/// The sequential reference for [`layernorm_forward`] (same per-row math).
#[allow(clippy::too_many_arguments)]
pub fn layernorm_naive(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    rows: usize,
    d: usize,
    out: &mut [f32],
    mean: &mut [f32],
    invstd: &mut [f32],
) {
    assert_eq!(x.len(), rows * d, "layernorm: x size mismatch");
    assert_eq!(gamma.len(), d, "layernorm: gamma size mismatch");
    assert_eq!(beta.len(), d, "layernorm: beta size mismatch");
    assert_eq!(out.len(), rows * d, "layernorm: out size mismatch");
    assert_eq!(mean.len(), rows, "layernorm: mean size mismatch");
    assert_eq!(invstd.len(), rows, "layernorm: invstd size mismatch");
    if d == 0 {
        return;
    }
    for r in 0..rows {
        let row = &x[r * d..(r + 1) * d];
        (mean[r], invstd[r]) = norm_row(row, gamma, beta, eps, &mut out[r * d..(r + 1) * d]);
    }
}

/// One row's `(mean, invstd)` in plain left-to-right summation order —
/// shared by the fast and naive paths so the statistics are bit-identical
/// regardless of which affine loop follows.
#[inline]
fn row_moments(row: &[f32], eps: f32) -> (f32, f32) {
    let d = row.len() as f32;
    let mean = row.iter().sum::<f32>() / d;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d;
    (mean, 1.0 / (var + eps).sqrt())
}

/// Normalizes one row with pure scalar code, returning `(mean, invstd)` —
/// the naive path's reference form.
#[inline]
fn norm_row(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32, out: &mut [f32]) -> (f32, f32) {
    let (mean, inv) = row_moments(row, eps);
    for (((o, &v), &g), &b) in out.iter_mut().zip(row.iter()).zip(gamma.iter()).zip(beta.iter()) {
        *o = (v - mean) * inv * g + b;
    }
    (mean, inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn bias_gelu_matches_unfused_bitwise() {
        let x = Tensor::rand_uniform([5, 7], -3.0, 3.0, 31).to_vec();
        let b = Tensor::rand_uniform([7], -1.0, 1.0, 32).to_vec();
        let mut fused = vec![0.0f32; x.len()];
        bias_gelu_forward(&x, &b, &mut fused);
        for (i, (&xv, &f)) in x.iter().zip(fused.iter()).enumerate() {
            let unfused = gelu_fwd(xv + b[i % 7]);
            assert_eq!(unfused.to_bits(), f.to_bits(), "elem {}", i);
        }
    }

    #[test]
    fn layernorm_fast_matches_naive_bitwise() {
        let (rows, d) = (9, 13);
        let x = Tensor::rand_uniform([rows, d], -2.0, 2.0, 33).to_vec();
        let gamma = Tensor::rand_uniform([d], 0.5, 1.5, 34).to_vec();
        let beta = Tensor::rand_uniform([d], -0.5, 0.5, 35).to_vec();
        let mut of = vec![0.0f32; rows * d];
        let mut mf = vec![0.0f32; rows];
        let mut sf = vec![0.0f32; rows];
        layernorm_forward(&x, &gamma, &beta, 1e-5, rows, d, &mut of, &mut mf, &mut sf);
        let mut on = vec![0.0f32; rows * d];
        let mut mn = vec![0.0f32; rows];
        let mut sn = vec![0.0f32; rows];
        layernorm_naive(&x, &gamma, &beta, 1e-5, rows, d, &mut on, &mut mn, &mut sn);
        assert_eq!(
            of.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            on.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(mf, mn);
        assert_eq!(sf, sn);
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        bias_gelu_forward(&[], &[], &mut []);
        bias_gelu_backward(&[], &[], &[], &mut []);
        layernorm_forward(&[], &[], &[], 1e-5, 0, 0, &mut [], &mut [], &mut []);
    }
}
