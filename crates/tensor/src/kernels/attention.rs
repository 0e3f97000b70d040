//! Streaming (FlashAttention-style) scaled-dot-product attention.
//!
//! [`fused_attention_forward`] computes `softmax(Q K^T * scale + bias) V`
//! per batch-head **without materializing the `Lq x Lk` score matrix**: it
//! walks key tiles with an online softmax (running row max `m`, running
//! denominator `l`, output rescaled by `exp(m_old - m_new)` whenever the
//! max moves) and touches only `q_tile x k_tile` scratch. Alongside the
//! output it returns each row's log-sum-exp `LSE = m + ln(l)`, which is
//! exactly what backward needs to recompute any score tile's softmax
//! probabilities as `exp(s - LSE)` — so [`fused_attention_backward`]
//! re-derives probabilities tile by tile instead of storing them.
//!
//! The backward is a FlashAttention-2-style tile loop built from the same
//! backend primitives as the forward. Per `(q-tile, k-tile)` it runs five
//! register-blocked mini-GEMM passes — `S = scale·Q·Kᵀ (+ bias)` and
//! `dP = dO·Vᵀ` as score tiles, then `dV += Pᵀ·dO`, `dK += dSᵀ·Q` and
//! `dQ += dS·K` as P·V-shaped accumulations — with
//! `P = exp(S − LSE)` from the backend's `softmax_exp_row` and
//! `dS = P∘(dP − D)·scale` in between (`D_i = dO_i·O_i`).
//!
//! [`attention_naive`] and [`attention_backward_naive`] are the
//! materialized references (full score and probability matrices, row
//! softmax identical to `Graph::softmax`, plain loops) used by the
//! differential oracle only.
//!
//! Non-finite handling: neither implementation special-cases NaN/inf. Both
//! use the same `max`-fold (which ignores NaN operands) and the same
//! `exp(s - m)` form, so a NaN query/key/value poisons the same output
//! rows in both. Masked keys arrive as a large-negative additive bias
//! (`-1e9`), not `-inf`, so fully-masked rows stay finite. Every backend's
//! softmax `exp` maps arguments below `ln(FLT_MIN)` to exactly `+0.0`, so a
//! masked key gets probability zero — its `dK`/`dV` rows are exactly zero
//! and its `V` row cannot change the output — and no probability is ever
//! subnormal.

use rayon::prelude::*;

use super::backend::{self, MicroKernelBackend};
use super::stats;

/// Default query-tile height.
pub const DEFAULT_Q_TILE: usize = 32;
/// Default key-tile width.
pub const DEFAULT_K_TILE: usize = 64;

#[allow(clippy::too_many_arguments)]
fn check_dims(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    key_bias: Option<&[f32]>,
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
) {
    assert!(dh > 0, "attention head dim must be positive");
    assert_eq!(q.len(), bh * lq * dh, "attention: Q size mismatch");
    assert_eq!(k.len(), bh * lk * dh, "attention: K size mismatch");
    assert_eq!(v.len(), bh * lk * dh, "attention: V size mismatch");
    if let Some(bias) = key_bias {
        assert_eq!(bias.len(), bh * lk, "attention: key bias size mismatch");
    }
}

/// Fused attention over `[bh, lq, dh] x [bh, lk, dh]`, writing the output
/// (`[bh, lq, dh]`) and per-row log-sum-exp (`[bh, lq]`). `key_bias`
/// (`[bh, lk]`) is added to every query's scores — the key-padding mask
/// path.
///
/// # Panics
/// Panics on slice-length/shape mismatches or zero tile sizes.
#[allow(clippy::too_many_arguments)]
pub fn fused_attention_forward(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    key_bias: Option<&[f32]>,
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
    scale: f32,
    q_tile: usize,
    k_tile: usize,
    out: &mut [f32],
    lse: &mut [f32],
) {
    check_dims(q, k, v, key_bias, bh, lq, lk, dh);
    assert!(q_tile > 0 && k_tile > 0, "attention tile sizes must be positive");
    assert_eq!(out.len(), bh * lq * dh, "attention: out size mismatch");
    assert_eq!(lse.len(), bh * lq, "attention: lse size mismatch");
    if bh == 0 || lq == 0 {
        return;
    }
    assert!(lk > 0, "attention requires at least one key per query row");
    if let Some(cs) = stats::counters() {
        cs.fused_attention.inc();
    }
    // Resolve the micro-kernel backend once per call, outside the
    // parallel loop, so every batch-head uses the same implementation.
    let bk = backend::active();
    let mut per_bh: Vec<(&mut [f32], &mut [f32])> =
        out.chunks_mut(lq * dh).zip(lse.chunks_mut(lq)).collect();
    per_bh.par_iter_mut().enumerate().for_each(|(b, (outb, lseb))| {
        forward_one(
            bk,
            &q[b * lq * dh..(b + 1) * lq * dh],
            &k[b * lk * dh..(b + 1) * lk * dh],
            &v[b * lk * dh..(b + 1) * lk * dh],
            key_bias.map(|bias| &bias[b * lk..(b + 1) * lk]),
            lq,
            lk,
            dh,
            scale,
            q_tile,
            k_tile,
            outb,
            lseb,
        );
    });
}

/// One batch-head of the streaming forward.
#[allow(clippy::too_many_arguments)]
fn forward_one(
    bk: &dyn MicroKernelBackend,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    bias: Option<&[f32]>,
    lq: usize,
    lk: usize,
    dh: usize,
    scale: f32,
    q_tile: usize,
    k_tile: usize,
    outb: &mut [f32],
    lseb: &mut [f32],
) {
    let kt = transpose_rows(kb, lk, dh);
    let mut s = vec![0.0f32; q_tile * k_tile];
    let mut m_run = vec![0.0f32; q_tile];
    let mut l_run = vec![0.0f32; q_tile];
    let mut o_run = vec![0.0f32; q_tile * dh];
    let mut q0 = 0;
    while q0 < lq {
        let qtb = q_tile.min(lq - q0);
        m_run[..qtb].fill(f32::NEG_INFINITY);
        l_run[..qtb].fill(0.0);
        o_run[..qtb * dh].fill(0.0);
        let mut k0 = 0;
        while k0 < lk {
            let ktb = k_tile.min(lk - k0);
            score_tile(bk, qb, &kt, bias, q0, k0, qtb, ktb, dh, lk, scale, &mut s);
            // Online-softmax bookkeeping: turn the score tile into
            // probabilities in place, rescaling running state when a row's
            // max moves.
            for i in 0..qtb {
                let srow = &mut s[i * ktb..(i + 1) * ktb];
                let row_max = srow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let m_new = m_run[i].max(row_max);
                // exp(-inf - finite) = 0 on the first tile; no special case.
                let corr = (m_run[i] - m_new).exp();
                for o in o_run[i * dh..(i + 1) * dh].iter_mut() {
                    *o *= corr;
                }
                // The hot exp loop goes through the backend (vectorized
                // polynomial exp on SIMD backends, libm on scalar — both
                // inside the oracle's attention tolerance).
                let psum = bk.softmax_exp_row(srow, m_new);
                l_run[i] = l_run[i] * corr + psum;
                m_run[i] = m_new;
            }
            accumulate_pv(
                bk,
                &s,
                &vb[k0 * dh..(k0 + ktb) * dh],
                qtb,
                ktb,
                dh,
                &mut o_run,
            );
            k0 += ktb;
        }
        for i in 0..qtb {
            let inv = 1.0 / l_run[i];
            let orow = &o_run[i * dh..(i + 1) * dh];
            let dst = &mut outb[(q0 + i) * dh..(q0 + i + 1) * dh];
            for (d, &o) in dst.iter_mut().zip(orow.iter()) {
                *d = o * inv;
            }
            lseb[q0 + i] = m_run[i] + l_run[i].ln();
        }
        q0 += qtb;
    }
}

/// `K` (or, in backward, `V`) transposed to `[dh, lk]` (`kt[p*lk + j] =
/// k[j*dh + p]`), built once per batch-head: it lets [`score_tile`]
/// accumulate over contiguous key-lanes, which is what makes the dot
/// products vectorizable.
fn transpose_rows(kb: &[f32], lk: usize, dh: usize) -> Vec<f32> {
    let mut kt = vec![0.0f32; dh * lk];
    for (j, krow) in kb.chunks_exact(dh).enumerate() {
        for (p, &kv) in krow.iter().enumerate() {
            kt[p * lk + j] = kv;
        }
    }
    kt
}

/// `o[.., dh] += P · V_tile` for the probability tile `p` (`[qtb, ktb]`)
/// and value rows `vt` (`[ktb, dh]`) — backward reuses it for `Pᵀ·dO`,
/// `dSᵀ·Q` and `dS·K` — register-blocked the same way as
/// [`score_tile`]: full `S_MR x S_NR` blocks go through the backend's
/// P·V mini-GEMM, accumulating in registers over the whole key tile
/// before touching `o` once; ragged edges run the plain loops. The
/// per-element sum over `j` stays the ascending-key order on every
/// backend; FMA backends differ from scalar by rounding only.
fn accumulate_pv(
    bk: &dyn MicroKernelBackend,
    p: &[f32],
    vt: &[f32],
    qtb: usize,
    ktb: usize,
    dh: usize,
    o: &mut [f32],
) {
    let mut i0 = 0;
    while i0 < qtb {
        let mr = S_MR.min(qtb - i0);
        let mut d0 = 0;
        while d0 < dh {
            let nr = S_NR.min(dh - d0);
            if mr == S_MR && nr == S_NR {
                let mut acc = [[0.0f32; S_NR]; S_MR];
                bk.attn_pv_4x8(&p[i0 * ktb..], ktb, &vt[d0..], dh, &mut acc);
                for (a, lane) in acc.iter().enumerate() {
                    let orow = &mut o[(i0 + a) * dh + d0..(i0 + a) * dh + d0 + S_NR];
                    for (ov, &av) in orow.iter_mut().zip(lane.iter()) {
                        *ov += av;
                    }
                }
            } else {
                for a in 0..mr {
                    let mut acc = [0.0f32; S_NR];
                    for j in 0..ktb {
                        let pv = p[(i0 + a) * ktb + j];
                        for (c, &vv) in
                            acc[..nr].iter_mut().zip(vt[j * dh + d0..j * dh + d0 + nr].iter())
                        {
                            *c += pv * vv;
                        }
                    }
                    let orow = &mut o[(i0 + a) * dh + d0..(i0 + a) * dh + d0 + nr];
                    for (ov, &av) in orow.iter_mut().zip(acc[..nr].iter()) {
                        *ov += av;
                    }
                }
            }
            d0 += nr;
        }
        i0 += mr;
    }
}

/// Query rows per score micro-block (register accumulators).
const S_MR: usize = 4;
/// Key columns per score micro-block (one vector lane of accumulators).
const S_NR: usize = 8;

/// Fills `s[i*ktb + j] = scale * q_{q0+i} . k_{k0+j} (+ bias_{k0+j})`,
/// reading keys through the transposed copy from [`transpose_rows`].
///
/// Full `S_MR x S_NR` blocks go through the backend's score mini-GEMM
/// (per `p`, broadcast `S_MR` query values against one contiguous
/// `S_NR`-wide key lane — the same shape as the SGEMM micro-kernel);
/// ragged edges fall back to scalar dot products. Each element is the
/// plain `0..dh` sum on every backend; FMA backends differ from the
/// scalar blocks by rounding only.
#[allow(clippy::too_many_arguments)]
fn score_tile(
    bk: &dyn MicroKernelBackend,
    qb: &[f32],
    kt: &[f32],
    bias: Option<&[f32]>,
    q0: usize,
    k0: usize,
    qtb: usize,
    ktb: usize,
    dh: usize,
    lk: usize,
    scale: f32,
    s: &mut [f32],
) {
    let mut i0 = 0;
    while i0 < qtb {
        let mr = S_MR.min(qtb - i0);
        let mut j0 = 0;
        while j0 < ktb {
            let nr = S_NR.min(ktb - j0);
            if mr == S_MR && nr == S_NR {
                let mut acc = [[0.0f32; S_NR]; S_MR];
                bk.attn_score_4x8(&qb[(q0 + i0) * dh..], dh, &kt[k0 + j0..], lk, &mut acc);
                for (a, lane) in acc.iter().enumerate() {
                    s[(i0 + a) * ktb + j0..(i0 + a) * ktb + j0 + S_NR].copy_from_slice(lane);
                }
            } else {
                for a in 0..mr {
                    let qrow = &qb[(q0 + i0 + a) * dh..(q0 + i0 + a + 1) * dh];
                    for b in 0..nr {
                        let mut dot = 0.0f32;
                        for (p, &qv) in qrow.iter().enumerate() {
                            dot += qv * kt[p * lk + k0 + j0 + b];
                        }
                        s[(i0 + a) * ktb + j0 + b] = dot;
                    }
                }
            }
            j0 += nr;
        }
        i0 += mr;
    }
    for i in 0..qtb {
        let srow = &mut s[i * ktb..(i + 1) * ktb];
        match bias {
            Some(bias) => {
                for (j, sv) in srow.iter_mut().enumerate() {
                    *sv = *sv * scale + bias[k0 + j];
                }
            }
            None => {
                for sv in srow.iter_mut() {
                    *sv *= scale;
                }
            }
        }
    }
}

/// Backward of [`fused_attention_forward`]: recomputes each score tile's
/// probabilities from the saved `lse` and accumulates
///
/// ```text
/// D_i  = sum_d dOut[i,d] * Out[i,d]
/// dS   = P o (dOut V^T - D_i)        (o = Hadamard)
/// dQ   = scale * dS K,  dK = scale * dS^T Q,  dV = P^T dOut
/// ```
///
/// Each tile runs five mini-GEMM passes through the backend (see the
/// module docs). `dq`/`dk`/`dv` are overwritten (assign semantics).
///
/// # Panics
/// Panics on slice-length/shape mismatches or zero tile sizes.
#[allow(clippy::too_many_arguments)]
pub fn fused_attention_backward(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    key_bias: Option<&[f32]>,
    out: &[f32],
    lse: &[f32],
    d_out: &[f32],
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
    scale: f32,
    q_tile: usize,
    k_tile: usize,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    check_dims(q, k, v, key_bias, bh, lq, lk, dh);
    assert!(q_tile > 0 && k_tile > 0, "attention tile sizes must be positive");
    assert_eq!(out.len(), bh * lq * dh, "attention: out size mismatch");
    assert_eq!(lse.len(), bh * lq, "attention: lse size mismatch");
    assert_eq!(d_out.len(), bh * lq * dh, "attention: d_out size mismatch");
    assert_eq!(dq.len(), q.len(), "attention: dq size mismatch");
    assert_eq!(dk.len(), k.len(), "attention: dk size mismatch");
    assert_eq!(dv.len(), v.len(), "attention: dv size mismatch");
    dq.fill(0.0);
    dk.fill(0.0);
    dv.fill(0.0);
    if bh == 0 || lq == 0 || lk == 0 {
        return;
    }
    let bk = backend::active();
    #[allow(clippy::type_complexity)]
    let mut per_bh: Vec<((&mut [f32], &mut [f32]), &mut [f32])> = dq
        .chunks_mut(lq * dh)
        .zip(dk.chunks_mut(lk * dh))
        .zip(dv.chunks_mut(lk * dh))
        .collect();
    per_bh
        .par_iter_mut()
        .enumerate()
        .for_each(|(b, ((dqb, dkb), dvb))| {
            backward_one(
                bk,
                &q[b * lq * dh..(b + 1) * lq * dh],
                &k[b * lk * dh..(b + 1) * lk * dh],
                &v[b * lk * dh..(b + 1) * lk * dh],
                key_bias.map(|bias| &bias[b * lk..(b + 1) * lk]),
                &out[b * lq * dh..(b + 1) * lq * dh],
                &lse[b * lq..(b + 1) * lq],
                &d_out[b * lq * dh..(b + 1) * lq * dh],
                lq,
                lk,
                dh,
                scale,
                q_tile,
                k_tile,
                dqb,
                dkb,
                dvb,
            );
        });
}

/// One batch-head of the tile-recomputing backward: [`score_tile`] for `S`
/// and `dP`, [`accumulate_pv`] for `dV`, `dK` and `dQ` (see the module
/// docs).
#[allow(clippy::too_many_arguments)]
fn backward_one(
    bk: &dyn MicroKernelBackend,
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    bias: Option<&[f32]>,
    outb: &[f32],
    lseb: &[f32],
    dob: &[f32],
    lq: usize,
    lk: usize,
    dh: usize,
    scale: f32,
    q_tile: usize,
    k_tile: usize,
    dqb: &mut [f32],
    dkb: &mut [f32],
    dvb: &mut [f32],
) {
    // D_i = dOut_i . Out_i (the softmax-Jacobian row correction).
    let mut d_corr = vec![0.0f32; lq];
    for (i, dc) in d_corr.iter_mut().enumerate() {
        let orow = &outb[i * dh..(i + 1) * dh];
        let grow = &dob[i * dh..(i + 1) * dh];
        *dc = orow.iter().zip(grow.iter()).map(|(&o, &g)| o * g).sum();
    }
    let kt = transpose_rows(kb, lk, dh);
    let vt = transpose_rows(vb, lk, dh);
    // `p` holds S then P, `ds` holds dP then dS; `pt`/`dst` are their
    // transposes, the left operands of the key-side accumulations.
    let mut p = vec![0.0f32; q_tile * k_tile];
    let mut ds = vec![0.0f32; q_tile * k_tile];
    let mut pt = vec![0.0f32; k_tile * q_tile];
    let mut dst = vec![0.0f32; k_tile * q_tile];
    let mut q0 = 0;
    while q0 < lq {
        let qtb = q_tile.min(lq - q0);
        let q_rows = q0 * dh..(q0 + qtb) * dh;
        let mut k0 = 0;
        while k0 < lk {
            let ktb = k_tile.min(lk - k0);
            let k_rows = k0 * dh..(k0 + ktb) * dh;
            score_tile(bk, qb, &kt, bias, q0, k0, qtb, ktb, dh, lk, scale, &mut p);
            score_tile(bk, dob, &vt, None, q0, k0, qtb, ktb, dh, lk, 1.0, &mut ds);
            for i in 0..qtb {
                let prow = &mut p[i * ktb..(i + 1) * ktb];
                bk.softmax_exp_row(prow, lseb[q0 + i]);
                let di = d_corr[q0 + i];
                let dsrow = &mut ds[i * ktb..(i + 1) * ktb];
                for (j, (dsv, &pv)) in dsrow.iter_mut().zip(prow.iter()).enumerate() {
                    *dsv = pv * (*dsv - di) * scale;
                    pt[j * qtb + i] = pv;
                    dst[j * qtb + i] = *dsv;
                }
            }
            accumulate_pv(bk, &pt, &dob[q_rows.clone()], ktb, qtb, dh, &mut dvb[k_rows.clone()]);
            accumulate_pv(bk, &dst, &qb[q_rows.clone()], ktb, qtb, dh, &mut dkb[k_rows.clone()]);
            accumulate_pv(bk, &ds, &kb[k_rows], qtb, ktb, dh, &mut dqb[q_rows.clone()]);
            k0 += ktb;
        }
        q0 += qtb;
    }
}

/// Materialized reference: full `lq x lk` scores, the same row softmax as
/// `Graph::softmax`, then an explicit weighted sum. Serial by design — it
/// is the oracle's ground truth, not a production path.
#[allow(clippy::too_many_arguments)]
pub fn attention_naive(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    key_bias: Option<&[f32]>,
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
    scale: f32,
    out: &mut [f32],
) {
    check_dims(q, k, v, key_bias, bh, lq, lk, dh);
    assert_eq!(out.len(), bh * lq * dh, "attention: out size mismatch");
    let mut scores = vec![0.0f32; lq * lk.max(1)];
    for b in 0..bh {
        let qb = &q[b * lq * dh..(b + 1) * lq * dh];
        let kb = &k[b * lk * dh..(b + 1) * lk * dh];
        let vb = &v[b * lk * dh..(b + 1) * lk * dh];
        let bias = key_bias.map(|bias| &bias[b * lk..(b + 1) * lk]);
        for i in 0..lq {
            let qrow = &qb[i * dh..(i + 1) * dh];
            for j in 0..lk {
                let krow = &kb[j * dh..(j + 1) * dh];
                let mut dot = 0.0f32;
                for (&qv, &kv) in qrow.iter().zip(krow.iter()) {
                    dot += qv * kv;
                }
                scores[i * lk + j] = match bias {
                    Some(bias) => dot * scale + bias[j],
                    None => dot * scale,
                };
            }
        }
        for i in 0..lq {
            let row = &mut scores[i * lk..(i + 1) * lk];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for sv in row.iter_mut() {
                *sv = (*sv - m).exp();
                denom += *sv;
            }
            let inv = 1.0 / denom;
            let orow = &mut out[(b * lq + i) * dh..(b * lq + i + 1) * dh];
            orow.fill(0.0);
            for (j, &p) in row.iter().enumerate() {
                let w = p * inv;
                let vrow = &vb[j * dh..(j + 1) * dh];
                for (o, &vv) in orow.iter_mut().zip(vrow.iter()) {
                    *o += w * vv;
                }
            }
        }
    }
}

/// Materialized reference backward: recomputes the full `lq x lk`
/// probability matrix `P` exactly as [`attention_naive`] does, then
/// materializes `dP = dOut V^T` and `dS = P o (dP - D) * scale` with
/// `D_i = sum_j P_ij dP_ij`, and accumulates `dQ = dS K`, `dK = dS^T Q`,
/// `dV = P^T dOut` in plain loops. It needs neither the forward output nor
/// the saved log-sum-exp. Serial by design — it is the oracle's ground
/// truth for [`fused_attention_backward`], not a production path.
/// `dq`/`dk`/`dv` are overwritten.
///
/// # Panics
/// Panics on slice-length/shape mismatches.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward_naive(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    key_bias: Option<&[f32]>,
    d_out: &[f32],
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
    scale: f32,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    check_dims(q, k, v, key_bias, bh, lq, lk, dh);
    assert_eq!(d_out.len(), bh * lq * dh, "attention: d_out size mismatch");
    assert_eq!(dq.len(), q.len(), "attention: dq size mismatch");
    assert_eq!(dk.len(), k.len(), "attention: dk size mismatch");
    assert_eq!(dv.len(), v.len(), "attention: dv size mismatch");
    dq.fill(0.0);
    dk.fill(0.0);
    dv.fill(0.0);
    if lq == 0 || lk == 0 {
        return;
    }
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum::<f32>();
    let mut p = vec![0.0f32; lq * lk];
    let mut ds = vec![0.0f32; lq * lk];
    for b in 0..bh {
        let qb = &q[b * lq * dh..(b + 1) * lq * dh];
        let kb = &k[b * lk * dh..(b + 1) * lk * dh];
        let vb = &v[b * lk * dh..(b + 1) * lk * dh];
        let gb = &d_out[b * lq * dh..(b + 1) * lq * dh];
        let bias = key_bias.map(|bias| &bias[b * lk..(b + 1) * lk]);
        // P: the same scores and row softmax as `attention_naive`.
        for (qrow, prow) in qb.chunks_exact(dh).zip(p.chunks_exact_mut(lk)) {
            for (j, (pv, krow)) in prow.iter_mut().zip(kb.chunks_exact(dh)).enumerate() {
                *pv = match bias {
                    Some(bias) => dot(qrow, krow) * scale + bias[j],
                    None => dot(qrow, krow) * scale,
                };
            }
            let m = prow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for pv in prow.iter_mut() {
                *pv = (*pv - m).exp();
                denom += *pv;
            }
            let inv = 1.0 / denom;
            for pv in prow.iter_mut() {
                *pv *= inv;
            }
        }
        // dP, then dS in place.
        for ((grow, dsrow), prow) in
            gb.chunks_exact(dh).zip(ds.chunks_exact_mut(lk)).zip(p.chunks_exact(lk))
        {
            for (dpv, vrow) in dsrow.iter_mut().zip(vb.chunks_exact(dh)) {
                *dpv = dot(grow, vrow);
            }
            let di = dot(prow, dsrow);
            for (dsv, &pv) in dsrow.iter_mut().zip(prow.iter()) {
                *dsv = pv * (*dsv - di) * scale;
            }
        }
        let dqb = &mut dq[b * lq * dh..(b + 1) * lq * dh];
        let dkb = &mut dk[b * lk * dh..(b + 1) * lk * dh];
        let dvb = &mut dv[b * lk * dh..(b + 1) * lk * dh];
        for i in 0..lq {
            for j in 0..lk {
                let (pv, dsv) = (p[i * lk + j], ds[i * lk + j]);
                for d in 0..dh {
                    dqb[i * dh + d] += dsv * kb[j * dh + d];
                    dkb[j * dh + d] += dsv * qb[i * dh + d];
                    dvb[j * dh + d] += pv * gb[i * dh + d];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn run_both(bh: usize, lq: usize, lk: usize, dh: usize, qt: usize, kt: usize, bias: bool) {
        let q = Tensor::rand_uniform([bh.max(1), lq, dh], -1.5, 1.5, 11).to_vec();
        let k = Tensor::rand_uniform([bh.max(1), lk, dh], -1.5, 1.5, 12).to_vec();
        let v = Tensor::rand_uniform([bh.max(1), lk, dh], -2.0, 2.0, 13).to_vec();
        let q = &q[..bh * lq * dh];
        let k = &k[..bh * lk * dh];
        let v = &v[..bh * lk * dh];
        let bias_vec: Vec<f32> = (0..bh * lk)
            .map(|i| if i % 3 == 0 { -1e9 } else { 0.1 * (i % 5) as f32 })
            .collect();
        let bias = bias.then_some(&bias_vec[..]);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut fast = vec![0.0f32; bh * lq * dh];
        let mut lse = vec![0.0f32; bh * lq];
        fused_attention_forward(q, k, v, bias, bh, lq, lk, dh, scale, qt, kt, &mut fast, &mut lse);
        let mut slow = vec![0.0f32; bh * lq * dh];
        attention_naive(q, k, v, bias, bh, lq, lk, dh, scale, &mut slow);
        for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
            assert!((a - b).abs() < 1e-5, "elem {}: fused {} vs naive {}", i, a, b);
        }
    }

    #[test]
    fn fused_matches_naive_across_tilings() {
        run_both(2, 7, 7, 3, 4, 4, false); // ragged multi-tile
        run_both(1, 1, 5, 2, 32, 64, false); // single query row
        run_both(3, 9, 1, 4, 2, 1, false); // single key
        run_both(2, 33, 17, 8, 8, 8, false); // several full tiles + edges
    }

    #[test]
    fn fused_matches_naive_with_key_bias() {
        run_both(2, 6, 6, 4, 3, 2, true);
        run_both(1, 5, 9, 2, 64, 64, true);
    }

    #[test]
    fn zero_batch_is_a_no_op() {
        let mut out = vec![0.0f32; 0];
        let mut lse = vec![0.0f32; 0];
        fused_attention_forward(&[], &[], &[], None, 0, 4, 4, 2, 1.0, 2, 2, &mut out, &mut lse);
        let mut dq = vec![0.0f32; 0];
        let mut dk = vec![0.0f32; 0];
        let mut dv = vec![0.0f32; 0];
        fused_attention_backward(
            &[], &[], &[], None, &[], &[], &[], 0, 4, 4, 2, 1.0, 2, 2, &mut dq, &mut dk, &mut dv,
        );
    }

    #[test]
    fn lse_reproduces_probabilities() {
        // exp(s_ij - lse_i) must sum to 1 per row — the invariant backward
        // leans on when it recomputes tiles.
        let (bh, l, dh) = (2, 6, 3);
        let q = Tensor::rand_uniform([bh, l, dh], -1.0, 1.0, 21).to_vec();
        let k = Tensor::rand_uniform([bh, l, dh], -1.0, 1.0, 22).to_vec();
        let v = Tensor::rand_uniform([bh, l, dh], -1.0, 1.0, 23).to_vec();
        let scale = 0.7;
        let mut out = vec![0.0f32; bh * l * dh];
        let mut lse = vec![0.0f32; bh * l];
        fused_attention_forward(&q, &k, &v, None, bh, l, l, dh, scale, 2, 2, &mut out, &mut lse);
        for b in 0..bh {
            for i in 0..l {
                let mut sum = 0.0f32;
                for j in 0..l {
                    let mut dot = 0.0f32;
                    for d in 0..dh {
                        dot += q[(b * l + i) * dh + d] * k[(b * l + j) * dh + d];
                    }
                    sum += (dot * scale - lse[b * l + i]).exp();
                }
                assert!((sum - 1.0).abs() < 1e-5, "row prob sum {}", sum);
            }
        }
    }
}
