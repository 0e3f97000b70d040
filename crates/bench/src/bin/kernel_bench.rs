//! Gate: the fast-path tensor kernels must actually be fast.
//!
//! Measurements are judged by the fastest observed iteration (timing
//! noise is strictly additive, so the minimum estimates the uninterrupted
//! cost), and run once per detected SIMD backend via forced dispatch:
//!
//! 1. **SGEMM** at a transformer projection shape (256 x 768 x 768): the
//!    packed/tiled kernel must deliver at least [`MIN_GEMM_SPEEDUP`]x the
//!    throughput of the row-streaming `gemm_naive` it replaced.
//! 2. **Attention** at serving scale (S = 1024, 4 batch-heads, Dh = 64):
//!    the fused streaming kernel must beat an *honest* materialized arm
//!    that uses the same fast GEMM for `q k^T` and `p v` plus a row
//!    softmax — i.e. fusing must win even against the upgraded baseline,
//!    not just against the old naive one — by [`MIN_ATTN_SPEEDUP`]x.
//! 3. **Attention backward** at the UNETR training shape (16 batch-heads,
//!    L = 256, Dh = 16): the tiled fused backward must beat the
//!    materialized `attention_backward_naive` by [`MIN_ATTN_BWD_SPEEDUP`]x.
//! 4. **Bias+GELU** at the `train_unetr` MLP shape ([1024, 256]): one
//!    forward plus one backward through the backend must beat the same
//!    pair on the scalar (libm `tanh`) reference backend by
//!    [`MIN_GELU_SPEEDUP`]x.
//! 5. **CRC-32** over one 1 MiB APFW1 segment payload: the portable
//!    slice-by-16 arm (`crc32_slice16`, called explicitly) must beat the
//!    byte-wise `crc32_bytewise` reference by [`MIN_CRC32_SPEEDUP`]x, and
//!    the arm `crc32` dispatches to on this CPU (`crc32_arm`: the
//!    `pclmulqdq` fold or slice-by-16 itself) must be no slower than
//!    slice-by-16. It runs no backend code, so it is measured once rather
//!    than per backend.
//! 6. **Pool** (`pool_gemm`): packed GEMM at two `train_unetr` shapes
//!    ([`POOL_SHAPES`]) on the calling thread, where the `rayon` pool
//!    helps, against the same call on a thread marked inline. With at least
//!    two pool threads the pooled call must be [`MIN_POOL_SPEEDUP`]x faster
//!    at every shape, with bit-identical output; on one core the row is
//!    skipped with a printed reason.
//!
//! Rows 1-5 run on a thread marked inline, both sides alike, so their
//! ratios compare kernel to kernel on one core whatever the pool does.
//!
//! The kernel gates apply to the **best-detected** backend (what
//! production dispatch selects); the other backends' numbers are
//! informational and archived in `results/kernel_bench.json` under
//! `per_backend`.
//!
//! The run installs a live global telemetry registry, so the report also
//! captures the `apf_tensor_*` counters (packed-panel reuse, fused-kernel
//! hits) as a cross-check that the intended code paths executed.
//!
//! Usage: `cargo run --release -p apf-bench --bin kernel_bench
//!         [--iters 7] [--quick]`

use apf_bench::{print_table, save_json, Args};
use apf_core::crc32::{crc32, crc32_arm, crc32_bytewise, crc32_slice16};
use apf_tensor::kernels::attention::{
    attention_backward_naive, fused_attention_backward, fused_attention_forward, DEFAULT_K_TILE,
    DEFAULT_Q_TILE,
};
use apf_tensor::kernels::backend::{force_backend, BackendKind};
use apf_tensor::kernels::fused::{bias_gelu_backward, bias_gelu_forward, gelu_fwd, gelu_grad};
use apf_tensor::kernels::gemm::{gemm, gemm_naive, gemm_packed};
use apf_tensor::prelude::*;
use apf_telemetry::Telemetry;
use serde::Serialize;

/// Acceptance bound for the packed SGEMM (issue: ">= 2x at 256x768x768").
const MIN_GEMM_SPEEDUP: f64 = 2.0;
/// Acceptance bound for fused attention vs the materialized-with-fast-GEMM
/// baseline on the best-detected backend.
const MIN_ATTN_SPEEDUP: f64 = 1.05;
/// Acceptance bound for the tiled attention backward vs the materialized
/// reference backward on the best-detected backend.
const MIN_ATTN_BWD_SPEEDUP: f64 = 1.5;
/// Acceptance bound for bias+GELU forward plus backward vs the scalar
/// reference backend on the best-detected backend.
const MIN_GELU_SPEEDUP: f64 = 4.0;
/// Acceptance bound for slice-by-16 CRC-32 vs the byte-wise reference.
const MIN_CRC32_SPEEDUP: f64 = 3.0;
/// Acceptance bound for the dispatched CRC-32 arm vs slice-by-16: no slower.
const MIN_CRC32_DISPATCHED_SPEEDUP: f64 = 1.0;
/// Acceptance bound for packed GEMM on the pool vs inline, on >= 2 threads.
const MIN_POOL_SPEEDUP: f64 = 1.4;
/// Re-measure attempts before the gate gives up on a noisy machine.
const MAX_ATTEMPTS: usize = 4;

/// Packed-GEMM shapes (m x k x n) of the pool row, both from one
/// `train_unetr` step: the MLP down-projection (4 images x 256 tokens,
/// 256 -> 64) and an im2col-shaped product (64 x 64 pixels, 16 channels x
/// 3 x 3 taps, 64 outputs).
const POOL_SHAPES: [[usize; 3]; 2] = [[1024, 256, 64], [4096, 144, 64]];
/// Iterations of the pool row per `--iters`: its calls take 1-3 ms, so it
/// needs more samples than the other rows for the minimum to settle.
const POOL_ITERS_SCALE: usize = 8;

const GEMM_M: usize = 256;
const GEMM_K: usize = 768;
const GEMM_N: usize = 768;

const ATTN_BH: usize = 4;
const ATTN_S: usize = 1024;
const ATTN_DH: usize = 64;

/// The attention shape of one `train_unetr` step (`UnetrConfig::small`,
/// batch 4 x 4 heads, L = 256).
const BWD_BH: usize = 16;
const BWD_L: usize = 256;
const BWD_DH: usize = 16;
/// `1 / sqrt(BWD_DH)`.
const BWD_SCALE: f32 = 0.25;

/// The MLP hidden activation of one `train_unetr` block: 4 images x
/// L = 256 tokens, MLP hidden width 256 (4 x dim 64).
const GELU_ROWS: usize = 1024;
const GELU_D: usize = 256;

/// One 512 x 512 f32 segment payload, the bytes every APFW1 request hashes.
const CRC_BYTES: usize = 1 << 20;

#[derive(Serialize)]
struct KernelReport {
    gemm_shape: [usize; 3],
    gemm_naive_s: f64,
    gemm_packed_s: f64,
    gemm_naive_gflops: f64,
    gemm_packed_gflops: f64,
    gemm_speedup: f64,
    min_gemm_speedup: f64,
    attn_shape: [usize; 3],
    attn_materialized_s: f64,
    attn_fused_s: f64,
    attn_speedup: f64,
    min_attn_speedup: f64,
    attn_bwd_shape: [usize; 3],
    attn_bwd_naive_s: f64,
    attn_bwd_tiled_s: f64,
    attn_bwd_speedup: f64,
    min_attn_bwd_speedup: f64,
    gelu_shape: [usize; 2],
    gelu_scalar_s: f64,
    gelu_s: f64,
    gelu_speedup: f64,
    min_gelu_speedup: f64,
    crc32_bytes: usize,
    crc32_slice16_mb_per_s: f64,
    crc32_bytewise_mb_per_s: f64,
    /// Slice-by-16 over byte-wise.
    crc32_speedup: f64,
    min_crc32_speedup: f64,
    /// The arm `crc32` runs 1 MiB through on this CPU.
    crc32_arm: &'static str,
    crc32_dispatched_mb_per_s: f64,
    /// Dispatched arm over slice-by-16.
    crc32_dispatched_speedup: f64,
    min_crc32_dispatched_speedup: f64,
    pool_threads: usize,
    pool_gemm: Vec<PoolRun>,
    /// `None` when the pool has one thread and the row is skipped.
    pool_speedup: Option<f64>,
    min_pool_speedup: f64,
    gating_backend: String,
    per_backend: Vec<BackendRun>,
    counters: Counters,
    passed: bool,
}

/// One backend's numbers under forced dispatch. The naive/materialized
/// baselines are re-measured per backend too (the materialized arm uses
/// the dispatching `gemm`, so it also changes with the backend).
#[derive(Serialize, Clone)]
struct BackendRun {
    backend: String,
    gemm_packed_s: f64,
    gemm_packed_gflops: f64,
    gemm_speedup: f64,
    attn_fused_s: f64,
    attn_materialized_s: f64,
    attn_speedup: f64,
    attn_bwd_tiled_s: f64,
    attn_bwd_speedup: f64,
    gelu_s: f64,
    gelu_speedup: f64,
}

impl BackendRun {
    fn passes(&self) -> bool {
        self.gemm_speedup >= MIN_GEMM_SPEEDUP
            && self.attn_speedup >= MIN_ATTN_SPEEDUP
            && self.attn_bwd_speedup >= MIN_ATTN_BWD_SPEEDUP
            && self.gelu_speedup >= MIN_GELU_SPEEDUP
    }
}

/// One `pool_gemm` shape: the same packed GEMM with the pool's help and on
/// a thread marked inline.
#[derive(Serialize, Clone)]
struct PoolRun {
    shape: [usize; 3],
    pooled_s: f64,
    inline_s: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Counters {
    gemm_packed_total: f64,
    gemm_naive_total: f64,
    packed_panels_total: f64,
    packed_panel_reuse_total: f64,
    fused_attention_total: f64,
    backend_dispatch_total: f64,
}

fn min_time(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Materialized attention built from the SAME fast GEMM plus a row
/// softmax — the strongest non-fused baseline available in this codebase.
#[allow(clippy::too_many_arguments)]
fn attention_materialized(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    bh: usize,
    s: usize,
    dh: usize,
    scale: f32,
    kt: &mut [f32],
    scores: &mut [f32],
    out: &mut [f32],
) {
    for b in 0..bh {
        let qb = &q[b * s * dh..(b + 1) * s * dh];
        let kb = &k[b * s * dh..(b + 1) * s * dh];
        let vb = &v[b * s * dh..(b + 1) * s * dh];
        // Transpose K so the contraction is a plain [S,Dh] x [Dh,S] GEMM.
        for r in 0..s {
            for c in 0..dh {
                kt[c * s + r] = kb[r * dh + c];
            }
        }
        gemm(qb, kt, scores, s, dh, s);
        for row in scores.chunks_mut(s) {
            let mx = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b * scale));
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x * scale - mx).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
        gemm(scores, vb, &mut out[b * s * dh..(b + 1) * s * dh], s, s, dh);
    }
}

struct Inputs {
    a: Vec<f32>,
    b: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    scale: f32,
    /// Backward operands at the training shape: `[q, k, v, out, lse, d_out]`.
    bwd: [Vec<f32>; 6],
    /// Bias+GELU operands: `[x, bias, g]`.
    gelu: [Vec<f32>; 3],
}

struct Scratch {
    c: Vec<f32>,
    kt: Vec<f32>,
    scores: Vec<f32>,
    out_m: Vec<f32>,
    out_f: Vec<f32>,
    lse: Vec<f32>,
    /// `[dq, dk, dv]` of the tiled and the naive backward.
    grads: [Vec<f32>; 3],
    grads_naive: [Vec<f32>; 3],
    /// Bias+GELU forward output and input gradient.
    gelu_out: [Vec<f32>; 2],
}

/// One bias+GELU forward plus backward under whatever backend is
/// currently forced.
fn time_gelu(iters: usize, inp: &Inputs, scr: &mut Scratch) -> f64 {
    let [x, bias, g] = &inp.gelu;
    let [out, gx] = &mut scr.gelu_out;
    let secs = min_time(iters, || {
        bias_gelu_forward(x, bias, std::hint::black_box(&mut *out));
        bias_gelu_backward(x, bias, g, std::hint::black_box(&mut *gx));
    });
    // Sanity: the contract's bounds against the libm forms.
    for (i, (&o, &d)) in out.iter().zip(gx.iter()).enumerate() {
        let v = x[i] + bias[i % GELU_D];
        assert!((o - gelu_fwd(v)).abs() <= 1e-6 * v.abs().max(1.0), "bias_gelu diverged at {}", i);
        assert!((d - g[i] * gelu_grad(v)).abs() <= 1e-5 * g[i].abs(), "bias_gelu grad at {}", i);
    }
    secs
}

/// One full measurement pass under whatever backend is currently forced.
fn measure_backend(
    iters: usize,
    naive_s: f64,
    bwd_naive_s: f64,
    gelu_scalar_s: f64,
    inp: &Inputs,
    scr: &mut Scratch,
) -> BackendRun {
    let flops = 2.0 * GEMM_M as f64 * GEMM_K as f64 * GEMM_N as f64;
    let packed_s = min_time(iters, || {
        gemm_packed(&inp.a, &inp.b, std::hint::black_box(&mut scr.c), GEMM_M, GEMM_K, GEMM_N);
    });
    let mat_s = min_time(iters, || {
        attention_materialized(
            &inp.q,
            &inp.k,
            &inp.v,
            ATTN_BH,
            ATTN_S,
            ATTN_DH,
            inp.scale,
            &mut scr.kt,
            &mut scr.scores,
            std::hint::black_box(&mut scr.out_m),
        );
    });
    let fused_s = min_time(iters, || {
        fused_attention_forward(
            &inp.q,
            &inp.k,
            &inp.v,
            None,
            ATTN_BH,
            ATTN_S,
            ATTN_S,
            ATTN_DH,
            inp.scale,
            32,
            64,
            std::hint::black_box(&mut scr.out_f),
            &mut scr.lse,
        );
    });
    // Sanity: the two attention arms agree (fusing must not change math).
    for (i, (f, m)) in scr.out_f.iter().zip(scr.out_m.iter()).enumerate() {
        assert!((f - m).abs() < 1e-4, "attention arms diverged at {}: {} vs {}", i, f, m);
    }
    let bwd_s = min_time(iters, || {
        let [q, k, v, out, lse, d_out] = &inp.bwd;
        let [dq, dk, dv] = &mut scr.grads;
        fused_attention_backward(
            q,
            k,
            v,
            None,
            out,
            lse,
            d_out,
            BWD_BH,
            BWD_L,
            BWD_L,
            BWD_DH,
            BWD_SCALE,
            DEFAULT_Q_TILE,
            DEFAULT_K_TILE,
            std::hint::black_box(dq),
            dk,
            dv,
        );
    });
    for (t, n) in scr.grads.iter().zip(scr.grads_naive.iter()) {
        for (i, (a, b)) in t.iter().zip(n.iter()).enumerate() {
            assert!((a - b).abs() < 1e-4, "attention backward diverged at {}: {} vs {}", i, a, b);
        }
    }
    let gelu_s = time_gelu(iters, inp, scr);
    BackendRun {
        backend: String::new(), // filled by the caller
        gemm_packed_s: packed_s,
        gemm_packed_gflops: flops / packed_s / 1e9,
        gemm_speedup: naive_s / packed_s,
        attn_fused_s: fused_s,
        attn_materialized_s: mat_s,
        attn_speedup: mat_s / fused_s,
        attn_bwd_tiled_s: bwd_s,
        attn_bwd_speedup: bwd_naive_s / bwd_s,
        gelu_s,
        gelu_speedup: gelu_scalar_s / gelu_s,
    }
}

/// Fold `next` into `acc`, keeping the per-arm minima (noise is additive,
/// so minima only improve with more samples).
fn fold_min(
    acc: &mut BackendRun,
    next: &BackendRun,
    naive_s: f64,
    bwd_naive_s: f64,
    gelu_scalar_s: f64,
) {
    acc.gemm_packed_s = acc.gemm_packed_s.min(next.gemm_packed_s);
    acc.attn_fused_s = acc.attn_fused_s.min(next.attn_fused_s);
    acc.attn_materialized_s = acc.attn_materialized_s.min(next.attn_materialized_s);
    let flops = 2.0 * GEMM_M as f64 * GEMM_K as f64 * GEMM_N as f64;
    acc.gemm_packed_gflops = flops / acc.gemm_packed_s / 1e9;
    acc.gemm_speedup = naive_s / acc.gemm_packed_s;
    acc.attn_speedup = acc.attn_materialized_s / acc.attn_fused_s;
    acc.attn_bwd_tiled_s = acc.attn_bwd_tiled_s.min(next.attn_bwd_tiled_s);
    acc.attn_bwd_speedup = bwd_naive_s / acc.attn_bwd_tiled_s;
    acc.gelu_s = acc.gelu_s.min(next.gelu_s);
    acc.gelu_speedup = gelu_scalar_s / acc.gelu_s;
}

/// Unit-scale backward operands at the training shape; `out` and `lse`
/// come from one fused forward under the default backend.
fn backward_operands() -> [Vec<f32>; 6] {
    let n = BWD_BH * BWD_L * BWD_DH;
    let rand = |seed| Tensor::rand_uniform([BWD_BH, BWD_L, BWD_DH], -1.0, 1.0, seed).to_vec();
    let (q, k, v, d_out) = (rand(6), rand(7), rand(8), rand(9));
    let mut out = vec![0.0f32; n];
    let mut lse = vec![0.0f32; BWD_BH * BWD_L];
    fused_attention_forward(
        &q,
        &k,
        &v,
        None,
        BWD_BH,
        BWD_L,
        BWD_L,
        BWD_DH,
        BWD_SCALE,
        DEFAULT_Q_TILE,
        DEFAULT_K_TILE,
        &mut out,
        &mut lse,
    );
    [q, k, v, out, lse, d_out]
}

/// Times `gemm_packed` at `[m, k, n]` on the calling thread (pooled) and
/// on a scoped thread marked inline; asserts both give the same bits.
fn time_pool_shape(iters: usize, [m, k, n]: [usize; 3], a: &[f32], b: &[f32]) -> PoolRun {
    let mut c = vec![0.0f32; m * n];
    let pooled_s = min_time(iters, || gemm_packed(a, b, std::hint::black_box(&mut c), m, k, n));
    let (inline_s, c_inline) = std::thread::scope(|s| {
        s.spawn(|| {
            rayon::mark_thread_inline();
            let mut c = vec![0.0f32; m * n];
            let secs = min_time(iters, || gemm_packed(a, b, std::hint::black_box(&mut c), m, k, n));
            (secs, c)
        })
        .join()
        .expect("inline GEMM thread")
    });
    assert!(
        c.iter().zip(&c_inline).all(|(x, y)| x.to_bits() == y.to_bits()),
        "pooled and inline GEMM differ at {m}x{k}x{n}"
    );
    PoolRun { shape: [m, k, n], pooled_s, inline_s, speedup: inline_s / pooled_s }
}

/// The `pool_gemm` row: every shape of [`POOL_SHAPES`], re-measured (minima
/// folded) while the slowest speedup is below the gate.
fn measure_pool(iters: usize) -> Vec<PoolRun> {
    let operands: Vec<(Vec<f32>, Vec<f32>)> = POOL_SHAPES
        .iter()
        .map(|&[m, k, n]| {
            let a = Tensor::rand_uniform([m, k], -1.0, 1.0, 13).to_vec();
            (a, Tensor::rand_uniform([k, n], -1.0, 1.0, 14).to_vec())
        })
        .collect();
    let measure = || -> Vec<PoolRun> {
        POOL_SHAPES
            .iter()
            .zip(&operands)
            .map(|(&s, (a, b))| time_pool_shape(iters, s, a, b))
            .collect()
    };
    let slowest = |runs: &[PoolRun]| runs.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let mut runs = measure();
    for attempt in 0..MAX_ATTEMPTS {
        if slowest(&runs) >= MIN_POOL_SPEEDUP {
            break;
        }
        eprintln!(
            "attempt {}: pooled GEMM {:.2}x below gate; re-measuring",
            attempt + 1,
            slowest(&runs)
        );
        for (acc, next) in runs.iter_mut().zip(measure()) {
            acc.pooled_s = acc.pooled_s.min(next.pooled_s);
            acc.inline_s = acc.inline_s.min(next.inline_s);
            acc.speedup = acc.inline_s / acc.pooled_s;
        }
    }
    runs
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let iters = args.get("iters", if quick { 3usize } else { 7 });

    let tel = Telemetry::enabled();
    Telemetry::install_global(tel.clone());

    // The pool row first, while this thread may still use the pool; then
    // mark it, so every other row runs inline on both of its sides.
    let pool_threads = rayon::current_num_threads();
    let pool_gemm =
        if pool_threads >= 2 { measure_pool(iters * POOL_ITERS_SCALE) } else { Vec::new() };
    let pool_speedup = (pool_threads >= 2)
        .then(|| pool_gemm.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min));
    if pool_speedup.is_none() {
        println!("pool_gemm skipped: the rayon pool has {pool_threads} thread (one core), nothing to compare");
    }
    rayon::mark_thread_inline();

    let inp = Inputs {
        a: Tensor::rand_uniform([GEMM_M, GEMM_K], -1.0, 1.0, 1).to_vec(),
        b: Tensor::rand_uniform([GEMM_K, GEMM_N], -1.0, 1.0, 2).to_vec(),
        q: Tensor::rand_uniform([ATTN_BH, ATTN_S, ATTN_DH], -1.0, 1.0, 3).to_vec(),
        k: Tensor::rand_uniform([ATTN_BH, ATTN_S, ATTN_DH], -1.0, 1.0, 4).to_vec(),
        v: Tensor::rand_uniform([ATTN_BH, ATTN_S, ATTN_DH], -1.0, 1.0, 5).to_vec(),
        scale: 1.0 / (ATTN_DH as f32).sqrt(),
        bwd: backward_operands(),
        gelu: [
            Tensor::rand_uniform([GELU_ROWS, GELU_D], -4.0, 4.0, 10).to_vec(),
            Tensor::rand_uniform([GELU_D], -1.0, 1.0, 11).to_vec(),
            Tensor::rand_uniform([GELU_ROWS, GELU_D], -1.0, 1.0, 12).to_vec(),
        ],
    };
    let mut scr = Scratch {
        c: vec![0.0f32; GEMM_M * GEMM_N],
        kt: vec![0.0f32; ATTN_DH * ATTN_S],
        scores: vec![0.0f32; ATTN_S * ATTN_S],
        out_m: vec![0.0f32; ATTN_BH * ATTN_S * ATTN_DH],
        out_f: vec![0.0f32; ATTN_BH * ATTN_S * ATTN_DH],
        lse: vec![0.0f32; ATTN_BH * ATTN_S],
        grads: std::array::from_fn(|_| vec![0.0f32; BWD_BH * BWD_L * BWD_DH]),
        grads_naive: std::array::from_fn(|_| vec![0.0f32; BWD_BH * BWD_L * BWD_DH]),
        gelu_out: std::array::from_fn(|_| vec![0.0f32; GELU_ROWS * GELU_D]),
    };
    let flops = 2.0 * GEMM_M as f64 * GEMM_K as f64 * GEMM_N as f64;

    // The scalar reference arm is backend-independent: measure it once.
    let naive_s = min_time(iters, || {
        gemm_naive(&inp.a, &inp.b, std::hint::black_box(&mut scr.c), GEMM_M, GEMM_K, GEMM_N);
    });

    // The reference backward runs no backend code: measure it once.
    let bwd_naive_s = min_time(iters, || {
        let [q, k, v, _, _, d_out] = &inp.bwd;
        let [dq, dk, dv] = &mut scr.grads_naive;
        attention_backward_naive(
            q,
            k,
            v,
            None,
            d_out,
            BWD_BH,
            BWD_L,
            BWD_L,
            BWD_DH,
            BWD_SCALE,
            std::hint::black_box(dq),
            dk,
            dv,
        );
    });

    // The bias+GELU reference is the scalar backend's libm path: measure
    // it once.
    force_backend(Some(BackendKind::Scalar)).expect("scalar is always available");
    let gelu_scalar_s = time_gelu(iters, &inp, &mut scr);

    // CRC-32 is backend-independent: measure it once, with the same
    // re-measure attempts (minima folded) as the gated backend.
    let crc_data: Vec<u8> =
        (0..CRC_BYTES).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8).collect();
    let want = crc32_bytewise(&crc_data);
    assert_eq!(crc32_slice16(&crc_data), want, "CRC-32 slice-by-16 disagrees with bytewise");
    assert_eq!(crc32(&crc_data), want, "CRC-32 {} arm disagrees with bytewise", crc32_arm());
    let time_crc = |f: fn(&[u8]) -> u32| {
        min_time(iters, || {
            std::hint::black_box(f(std::hint::black_box(&crc_data)));
        })
    };
    let measure_crc = || (time_crc(crc32), time_crc(crc32_slice16), time_crc(crc32_bytewise));
    let (mut crc_s, mut crc_slice16_s, mut crc_bytewise_s) = measure_crc();
    for attempt in 0..MAX_ATTEMPTS {
        let (portable, dispatched) = (crc_bytewise_s / crc_slice16_s, crc_slice16_s / crc_s);
        if portable >= MIN_CRC32_SPEEDUP && dispatched >= MIN_CRC32_DISPATCHED_SPEEDUP {
            break;
        }
        eprintln!(
            "attempt {}: CRC-32 slice-by-16 {portable:.2}x / {} {dispatched:.2}x below gate; \
             re-measuring",
            attempt + 1,
            crc32_arm()
        );
        let (fast, slice16, bytewise) = measure_crc();
        crc_s = crc_s.min(fast);
        crc_slice16_s = crc_slice16_s.min(slice16);
        crc_bytewise_s = crc_bytewise_s.min(bytewise);
    }
    let crc_speedup = crc_bytewise_s / crc_slice16_s;
    let crc_dispatched_speedup = crc_slice16_s / crc_s;
    let mb_per_s = |secs: f64| CRC_BYTES as f64 / secs / 1e6;

    // ---- Per-backend matrix: force each detected backend in turn ----
    let detected = BackendKind::detected();
    let gating = detected[0]; // what production dispatch selects
    let mut per_backend: Vec<BackendRun> = Vec::new();
    for &kind in &detected {
        force_backend(Some(kind)).expect("detected backend must be forceable");
        let mut run = measure_backend(iters, naive_s, bwd_naive_s, gelu_scalar_s, &inp, &mut scr);
        run.backend = kind.name().to_string();
        if kind == gating {
            // The gated backend gets re-measure attempts so a noisy run
            // converges on the true cost instead of flaking.
            for attempt in 0..MAX_ATTEMPTS {
                if run.passes() {
                    break;
                }
                eprintln!(
                    "attempt {}: SGEMM {:.2}x / attention {:.2}x / backward {:.2}x / \
                     bias+GELU {:.2}x below gate; re-measuring",
                    attempt + 1,
                    run.gemm_speedup,
                    run.attn_speedup,
                    run.attn_bwd_speedup,
                    run.gelu_speedup
                );
                let next =
                    measure_backend(iters, naive_s, bwd_naive_s, gelu_scalar_s, &inp, &mut scr);
                fold_min(&mut run, &next, naive_s, bwd_naive_s, gelu_scalar_s);
            }
        }
        per_backend.push(run);
    }
    force_backend(None).expect("restoring default backend");

    let best = per_backend[0].clone();
    let pool_ok = pool_speedup.is_none_or(|s| s >= MIN_POOL_SPEEDUP);
    let passed = best.passes()
        && crc_speedup >= MIN_CRC32_SPEEDUP
        && crc_dispatched_speedup >= MIN_CRC32_DISPATCHED_SPEEDUP
        && pool_ok;

    let snap = tel.snapshot();
    let count = |name: &str| snap.get(name, &[]).map_or(0.0, |m| m.value);
    let dispatch_total: f64 = snap
        .metrics
        .iter()
        .filter(|m| m.name == "apf_tensor_backend_dispatch_total")
        .map(|m| m.value)
        .sum();
    let counters = Counters {
        gemm_packed_total: count("apf_tensor_gemm_packed_total"),
        gemm_naive_total: count("apf_tensor_gemm_naive_total"),
        packed_panels_total: count("apf_tensor_packed_panels_total"),
        packed_panel_reuse_total: count("apf_tensor_packed_panel_reuse_total"),
        fused_attention_total: count("apf_tensor_fused_attention_total"),
        backend_dispatch_total: dispatch_total,
    };

    let mut rows = vec![
        vec![
            format!("gemm_naive {}x{}x{}", GEMM_M, GEMM_K, GEMM_N),
            format!("{:.4} s  ({:.2} GFLOP/s)", naive_s, flops / naive_s / 1e9),
        ],
        vec![
            format!("attention_backward_naive {}x{}x{}", BWD_BH, BWD_L, BWD_DH),
            format!("{:.4} s", bwd_naive_s),
        ],
        vec![
            format!("bias_gelu fwd+bwd {}x{} on scalar", GELU_ROWS, GELU_D),
            format!("{:.4} s", gelu_scalar_s),
        ],
        vec![
            format!("crc32 slice-by-16 vs bytewise, {} MiB", CRC_BYTES >> 20),
            format!(
                "{:.0} MB/s vs {:.0} MB/s ({:.2}x)",
                mb_per_s(crc_slice16_s),
                mb_per_s(crc_bytewise_s),
                crc_speedup
            ),
        ],
        vec![
            format!("crc32 {} (dispatched) vs slice-by-16, {} MiB", crc32_arm(), CRC_BYTES >> 20),
            format!(
                "{:.0} MB/s vs {:.0} MB/s ({:.2}x)",
                mb_per_s(crc_s),
                mb_per_s(crc_slice16_s),
                crc_dispatched_speedup
            ),
        ],
    ];
    for run in &per_backend {
        rows.push(vec![
            format!("[{}] gemm_packed", run.backend),
            format!(
                "{:.4} s  ({:.2} GFLOP/s, {:.2}x)",
                run.gemm_packed_s, run.gemm_packed_gflops, run.gemm_speedup
            ),
        ]);
        rows.push(vec![
            format!("[{}] attention fused vs materialized", run.backend),
            format!(
                "{:.4} s vs {:.4} s ({:.2}x)",
                run.attn_fused_s, run.attn_materialized_s, run.attn_speedup
            ),
        ]);
        rows.push(vec![
            format!("[{}] attention backward tiled vs naive", run.backend),
            format!(
                "{:.4} s vs {:.4} s ({:.2}x)",
                run.attn_bwd_tiled_s, bwd_naive_s, run.attn_bwd_speedup
            ),
        ]);
        rows.push(vec![
            format!("[{}] bias_gelu fwd+bwd vs scalar", run.backend),
            format!("{:.4} s vs {:.4} s ({:.2}x)", run.gelu_s, gelu_scalar_s, run.gelu_speedup),
        ]);
    }
    for run in &pool_gemm {
        let [m, k, n] = run.shape;
        rows.push(vec![
            format!("pool_gemm {m}x{k}x{n}, {pool_threads} threads vs inline"),
            format!("{:.5} s vs {:.5} s ({:.2}x)", run.pooled_s, run.inline_s, run.speedup),
        ]);
    }
    rows.push(vec![
        format!("gates on [{}]", gating.name()),
        format!(
            "SGEMM {:.2}x (need >= {:.1}x), attention {:.2}x (need >= {:.2}x), \
             backward {:.2}x (need >= {:.1}x), bias+GELU {:.2}x (need >= {:.1}x); \
             CRC-32 slice-by-16 {:.2}x (need >= {:.1}x), {} {:.2}x (need >= {:.1}x)",
            best.gemm_speedup,
            MIN_GEMM_SPEEDUP,
            best.attn_speedup,
            MIN_ATTN_SPEEDUP,
            best.attn_bwd_speedup,
            MIN_ATTN_BWD_SPEEDUP,
            best.gelu_speedup,
            MIN_GELU_SPEEDUP,
            crc_speedup,
            MIN_CRC32_SPEEDUP,
            crc32_arm(),
            crc_dispatched_speedup,
            MIN_CRC32_DISPATCHED_SPEEDUP
        ),
    ]);
    rows.push(vec![
        "packed panels / reuse".into(),
        format!("{} / {}", counters.packed_panels_total, counters.packed_panel_reuse_total),
    ]);
    print_table(
        "kernel_bench — fast-path kernels vs naive references, per backend",
        &["measurement", "value"],
        &rows,
    );

    save_json(
        "kernel_bench",
        &KernelReport {
            gemm_shape: [GEMM_M, GEMM_K, GEMM_N],
            gemm_naive_s: naive_s,
            gemm_packed_s: best.gemm_packed_s,
            gemm_naive_gflops: flops / naive_s / 1e9,
            gemm_packed_gflops: best.gemm_packed_gflops,
            gemm_speedup: best.gemm_speedup,
            min_gemm_speedup: MIN_GEMM_SPEEDUP,
            attn_shape: [ATTN_BH, ATTN_S, ATTN_DH],
            attn_materialized_s: best.attn_materialized_s,
            attn_fused_s: best.attn_fused_s,
            attn_speedup: best.attn_speedup,
            min_attn_speedup: MIN_ATTN_SPEEDUP,
            attn_bwd_shape: [BWD_BH, BWD_L, BWD_DH],
            attn_bwd_naive_s: bwd_naive_s,
            attn_bwd_tiled_s: best.attn_bwd_tiled_s,
            attn_bwd_speedup: best.attn_bwd_speedup,
            min_attn_bwd_speedup: MIN_ATTN_BWD_SPEEDUP,
            gelu_shape: [GELU_ROWS, GELU_D],
            gelu_scalar_s,
            gelu_s: best.gelu_s,
            gelu_speedup: best.gelu_speedup,
            min_gelu_speedup: MIN_GELU_SPEEDUP,
            crc32_bytes: CRC_BYTES,
            crc32_slice16_mb_per_s: mb_per_s(crc_slice16_s),
            crc32_bytewise_mb_per_s: mb_per_s(crc_bytewise_s),
            crc32_speedup: crc_speedup,
            min_crc32_speedup: MIN_CRC32_SPEEDUP,
            crc32_arm: crc32_arm(),
            crc32_dispatched_mb_per_s: mb_per_s(crc_s),
            crc32_dispatched_speedup: crc_dispatched_speedup,
            min_crc32_dispatched_speedup: MIN_CRC32_DISPATCHED_SPEEDUP,
            pool_threads,
            pool_gemm,
            pool_speedup,
            min_pool_speedup: MIN_POOL_SPEEDUP,
            gating_backend: gating.name().to_string(),
            per_backend,
            counters,
            passed,
        },
    );
    assert!(
        best.gemm_speedup >= MIN_GEMM_SPEEDUP,
        "packed SGEMM speedup {:.2}x below the {:.1}x gate on backend {}",
        best.gemm_speedup,
        MIN_GEMM_SPEEDUP,
        gating.name()
    );
    assert!(
        best.attn_speedup >= MIN_ATTN_SPEEDUP,
        "fused attention speedup {:.2}x below the {:.2}x gate on backend {} ({:.4} s vs {:.4} s)",
        best.attn_speedup,
        MIN_ATTN_SPEEDUP,
        gating.name(),
        best.attn_fused_s,
        best.attn_materialized_s
    );
    assert!(
        best.attn_bwd_speedup >= MIN_ATTN_BWD_SPEEDUP,
        "attention backward speedup {:.2}x below the {:.1}x gate on backend {} \
         ({:.4} s vs {:.4} s)",
        best.attn_bwd_speedup,
        MIN_ATTN_BWD_SPEEDUP,
        gating.name(),
        best.attn_bwd_tiled_s,
        bwd_naive_s
    );
    assert!(
        best.gelu_speedup >= MIN_GELU_SPEEDUP,
        "bias+GELU speedup {:.2}x below the {:.1}x gate on backend {} ({:.4} s vs {:.4} s)",
        best.gelu_speedup,
        MIN_GELU_SPEEDUP,
        gating.name(),
        best.gelu_s,
        gelu_scalar_s
    );
    assert!(
        crc_speedup >= MIN_CRC32_SPEEDUP,
        "CRC-32 slice-by-16 speedup {:.2}x below the {:.1}x gate ({:.0} vs {:.0} MB/s)",
        crc_speedup,
        MIN_CRC32_SPEEDUP,
        mb_per_s(crc_slice16_s),
        mb_per_s(crc_bytewise_s)
    );
    assert!(
        crc_dispatched_speedup >= MIN_CRC32_DISPATCHED_SPEEDUP,
        "CRC-32 {} arm {:.2}x slice-by-16, below the {:.1}x gate ({:.0} vs {:.0} MB/s)",
        crc32_arm(),
        crc_dispatched_speedup,
        MIN_CRC32_DISPATCHED_SPEEDUP,
        mb_per_s(crc_s),
        mb_per_s(crc_slice16_s)
    );
    if let Some(speedup) = pool_speedup {
        assert!(
            speedup >= MIN_POOL_SPEEDUP,
            "pooled GEMM speedup {:.2}x below the {:.1}x gate on {} threads",
            speedup,
            MIN_POOL_SPEEDUP,
            pool_threads
        );
    }
    println!(
        "kernel gate passed on {}: SGEMM {:.2}x, fused attention {:.2}x, \
         attention backward {:.2}x, bias+GELU {:.2}x; CRC-32 slice-by-16 {:.2}x, {} {:.2}x; \
         pooled GEMM {}",
        gating.name(),
        best.gemm_speedup,
        best.attn_speedup,
        best.attn_bwd_speedup,
        best.gelu_speedup,
        crc_speedup,
        crc32_arm(),
        crc_dispatched_speedup,
        pool_speedup.map_or("skipped (one core)".to_string(), |s| format!("{s:.2}x"))
    );
}
