//! Differential kernel-oracle suite: every fast-path kernel is checked
//! against its naive reference over ragged shapes and adversarial values,
//! and every property runs once per compiled-and-detected SIMD backend
//! via forced dispatch (the per-backend matrix at the bottom).
//!
//! # Error-bound policy
//!
//! - **SGEMM** (`gemm_packed` vs `gemm_naive`): blocking reassociates the
//!   k-reduction and FMA backends contract multiply+add, so results may
//!   differ by rounding. The bound is per-element: `|fast - naive| <=
//!   REL_TOL * absprod + ABS_TOL`, where `absprod = |A| . |B|` (the same
//!   contraction over absolute values) is the natural magnitude scale of
//!   the dot product. With f32 and k <= 1024 the reassociation + FMA
//!   error is far below `REL_TOL = 1e-5`.
//! - **Fused attention** vs the materialized reference: online softmax
//!   reassociates both the max/denominator scan and the value accumulation;
//!   outputs are convex combinations of `v` rows, so an absolute tolerance
//!   of `1e-5` at unit-scale inputs is ample. The tiled backward is held to
//!   the same flat `1e-5` against `attention_backward_naive` on `dQ`, `dK`
//!   and `dV`, at head dims that fill the backend's 4x8 blocks.
//! - **im2col conv** vs the direct quadruple loop: same contraction-shaped
//!   bound as SGEMM, with the magnitude scale computed by running the
//!   direct conv over absolute values.
//! - **Fused layernorm** fuses traversals, not arithmetic: the oracle
//!   demands **bit-identical** outputs on *every* backend (the trait
//!   contract forbids FMA in its affine loop).
//! - **Fused bias+GELU** is tolerance-contracted: a vector backend
//!   evaluates `tanh` through its own `exp`. With `v = x + b`, the forward
//!   must stay within `1e-6·max(1, |v|)` of libm `gelu_fwd(v)` and the
//!   backward within `1e-5·|g|` of `g·gelu_grad(v)`, each plus
//!   `f32::MIN_POSITIVE` for the flush of subnormal results. No output
//!   may be subnormal, and each output must be a pure function of its
//!   own `(x, b, g)`: the same values at another column or in a row of
//!   another width give the same bits.
//! - Non-finite values must never be silently laundered: wherever the naive
//!   kernel produces NaN/inf, the fast kernel must produce a non-finite
//!   value too (and vice versa).

use apf_tensor::kernels::attention::{
    attention_backward_naive, attention_naive, fused_attention_backward, fused_attention_forward,
    DEFAULT_K_TILE, DEFAULT_Q_TILE,
};
use apf_tensor::kernels::backend::{force_backend, kernel_backend, BackendKind};
use apf_tensor::kernels::conv::{conv2d, conv2d_direct, ConvGeom};
use apf_tensor::kernels::fused::{
    bias_gelu_backward, bias_gelu_forward, gelu_fwd, gelu_grad, layernorm_forward,
    layernorm_naive,
};
use apf_tensor::kernels::gemm::{gemm, gemm_naive, gemm_packed};
use apf_tensor::prelude::*;
use proptest::prelude::*;

const REL_TOL: f32 = 1e-5;
const ABS_TOL: f32 = 1e-5;

/// Sprinkles "hard" values (signed zeros and denormals) into `data` at
/// seed-determined positions, replacing roughly one element in eight.
fn inject_specials(data: &mut [f32], seed: u64) {
    const SPECIALS: [f32; 4] = [0.0, -0.0, 1.0e-41, -1.0e-41];
    let mut state = seed | 1;
    for v in data.iter_mut() {
        // xorshift64 keeps the injection independent of the data values.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if state.is_multiple_of(8) {
            *v = SPECIALS[(state >> 8) as usize % SPECIALS.len()];
        }
    }
}

/// Asserts `fast` within the SGEMM error bound of `naive`, with non-finite
/// positions required to agree in kind.
fn assert_gemm_close(fast: &[f32], naive: &[f32], absprod: &[f32]) {
    assert_eq!(fast.len(), naive.len());
    for (i, ((&f, &n), &ap)) in fast.iter().zip(naive.iter()).zip(absprod.iter()).enumerate() {
        if !n.is_finite() || !f.is_finite() {
            assert!(
                !n.is_finite() && !f.is_finite(),
                "elem {}: finiteness mismatch (fast {}, naive {})",
                i,
                f,
                n
            );
            continue;
        }
        let tol = REL_TOL * ap + ABS_TOL;
        assert!(
            (f - n).abs() <= tol,
            "elem {}: fast {} vs naive {} (tol {})",
            i,
            f,
            n,
            tol
        );
    }
}

/// Runs both GEMM implementations on the same inputs and checks the bound.
fn check_gemm_pair(m: usize, k: usize, n: usize, seed: u64) {
    let mut a = Tensor::rand_uniform([m.max(1), k.max(1)], -2.0, 2.0, seed).to_vec();
    let mut b = Tensor::rand_uniform([k.max(1), n.max(1)], -2.0, 2.0, seed ^ 0x9e37).to_vec();
    a.truncate(m * k);
    b.truncate(k * n);
    inject_specials(&mut a, seed ^ 0xabc);
    inject_specials(&mut b, seed ^ 0xdef);

    let mut fast = vec![f32::NAN; m * n]; // NaN prefill proves full overwrite
    let mut naive = vec![0.0f32; m * n];
    gemm_packed(&a, &b, &mut fast, m, k, n);
    gemm_naive(&a, &b, &mut naive, m, k, n);

    let abs_a: Vec<f32> = a.iter().map(|v| v.abs()).collect();
    let abs_b: Vec<f32> = b.iter().map(|v| v.abs()).collect();
    let mut absprod = vec![0.0f32; m * n];
    gemm_naive(&abs_a, &abs_b, &mut absprod, m, k, n);

    assert_gemm_close(&fast, &naive, &absprod);
}

/// Key bias: the padding mask as used by the transformer (-1e9 on masked
/// keys, about one in three), never masking key 0 so every row has a
/// survivor.
fn key_mask_bias(bh: usize, lk: usize, seed: u64) -> Vec<f32> {
    let mut b = vec![0.0f32; bh * lk];
    let mut state = seed | 1;
    for (i, slot) in b.iter_mut().enumerate() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if i % lk != 0 && state.is_multiple_of(3) {
            *slot = -1e9;
        }
    }
    b
}

/// Unit-scale attention inputs `(q, k, v)` for one shape and seed.
fn attention_inputs(bh: usize, lq: usize, lk: usize, dh: usize, seed: u64) -> [Vec<f32>; 3] {
    [
        Tensor::rand_uniform([bh, lq, dh], -1.5, 1.5, seed).to_vec(),
        Tensor::rand_uniform([bh, lk, dh], -1.5, 1.5, seed ^ 1).to_vec(),
        Tensor::rand_uniform([bh, lk, dh], -1.5, 1.5, seed ^ 2).to_vec(),
    ]
}

/// Runs fused vs materialized attention and checks the 1e-5 bound.
#[allow(clippy::too_many_arguments)]
fn check_attention_pair(
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
    q_tile: usize,
    k_tile: usize,
    masked: bool,
    seed: u64,
) {
    let [q, k, v] = attention_inputs(bh, lq, lk, dh, seed);
    let bias = masked.then(|| key_mask_bias(bh, lk, seed));
    let scale = 1.0 / (dh as f32).sqrt();

    let mut fast = vec![f32::NAN; bh * lq * dh];
    let mut lse = vec![f32::NAN; bh * lq];
    fused_attention_forward(
        &q, &k, &v, bias.as_deref(), bh, lq, lk, dh, scale, q_tile, k_tile, &mut fast, &mut lse,
    );
    let mut naive = vec![0.0f32; bh * lq * dh];
    attention_naive(&q, &k, &v, bias.as_deref(), bh, lq, lk, dh, scale, &mut naive);

    for (i, (&f, &n)) in fast.iter().zip(naive.iter()).enumerate() {
        assert!((f - n).abs() < 1e-5, "elem {}: fused {} vs naive {}", i, f, n);
    }
    assert!(lse.iter().all(|l| l.is_finite()));
}

/// Tiled fused backward vs the materialized reference backward: `dQ`,
/// `dK` and `dV` within the forward's flat 1e-5 bound. The forward that
/// supplies `out` and `lse` runs at the same tiling.
#[allow(clippy::too_many_arguments)]
fn check_attention_backward_pair(
    bh: usize,
    lq: usize,
    lk: usize,
    dh: usize,
    q_tile: usize,
    k_tile: usize,
    masked: bool,
    seed: u64,
) {
    let [q, k, v] = attention_inputs(bh, lq, lk, dh, seed);
    let d_out = Tensor::rand_uniform([bh, lq, dh], -1.0, 1.0, seed ^ 3).to_vec();
    let bias = masked.then(|| key_mask_bias(bh, lk, seed));
    let scale = 1.0 / (dh as f32).sqrt();

    let mut out = vec![f32::NAN; bh * lq * dh];
    let mut lse = vec![f32::NAN; bh * lq];
    fused_attention_forward(
        &q, &k, &v, bias.as_deref(), bh, lq, lk, dh, scale, q_tile, k_tile, &mut out, &mut lse,
    );
    // NaN prefill proves the backward overwrites every gradient element.
    let mut fast = [vec![f32::NAN; q.len()], vec![f32::NAN; k.len()], vec![f32::NAN; v.len()]];
    let [dq, dk, dv] = &mut fast;
    fused_attention_backward(
        &q, &k, &v, bias.as_deref(), &out, &lse, &d_out, bh, lq, lk, dh, scale, q_tile, k_tile,
        dq, dk, dv,
    );
    let mut naive = [vec![0.0f32; q.len()], vec![0.0f32; k.len()], vec![0.0f32; v.len()]];
    let [nq, nk, nv] = &mut naive;
    attention_backward_naive(
        &q, &k, &v, bias.as_deref(), &d_out, bh, lq, lk, dh, scale, nq, nk, nv,
    );

    for (name, (f, n)) in ["dq", "dk", "dv"].iter().zip(fast.iter().zip(naive.iter())) {
        for (i, (&a, &b)) in f.iter().zip(n.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-5,
                "{} elem {} ([{}, {}, {}, {}], tiles {}x{}, masked {}): tiled {} vs naive {}",
                name, i, bh, lq, lk, dh, q_tile, k_tile, masked, a, b
            );
        }
    }
}

/// The softmax `exp` row of `kind` maps every argument below
/// `ln(FLT_MIN)` (`s - m < -87.34`) to exactly `+0.0`, never returns a
/// subnormal, and keeps in-range arguments normal and positive — on the
/// vector lanes and the scalar tail alike.
fn check_softmax_exp_underflow(kind: BackendKind) {
    let bk = kind.instance().expect("detected backend has an instance");
    let mut args: Vec<f32> =
        vec![-1e9, -1e30, f32::NEG_INFINITY, -200.0, -103.0, -100.0, -90.0, -88.0];
    // A fine sweep across the boundary, and the in-range neighbourhood.
    args.extend((0..64).map(|i| -87.5 + i as f32 * 0.005));
    args.extend([-87.336_55, -87.336_54, -87.336_53, -87.0, -50.0, -1.0, 0.0]);
    // Odd length so some arguments land in the scalar tail.
    args.push(-95.0);
    for m in [0.0f32, 2.5] {
        let mut row: Vec<f32> = args.iter().map(|&a| a + m).collect();
        let sum = bk.softmax_exp_row(&mut row, m);
        assert!(sum.is_finite() && sum > 0.0, "[{}] row sum {}", kind.name(), sum);
        for (&arg, &e) in args.iter().zip(row.iter()) {
            let x = (arg + m) - m;
            let name = kind.name();
            assert!(!e.is_subnormal(), "[{}] exp({}) = {:e} is subnormal", name, x, e);
            if x < -87.336_54 {
                assert_eq!(e.to_bits(), 0.0f32.to_bits(), "[{}] exp({}) = {:e}", name, x, e);
            } else {
                assert!(e.is_normal() && e > 0.0, "[{}] exp({}) = {:e}", name, x, e);
            }
        }
    }
}

/// Masked keys are inert: their `dK`/`dV` rows are exactly zero, and
/// changing `V` at a masked key leaves the forward output bit-identical.
fn check_masked_keys_are_inert(bh: usize, l: usize, dh: usize, seed: u64) {
    let [q, k, v] = attention_inputs(bh, l, l, dh, seed);
    let d_out = Tensor::rand_uniform([bh, l, dh], -1.0, 1.0, seed ^ 3).to_vec();
    let bias = key_mask_bias(bh, l, seed);
    let scale = 1.0 / (dh as f32).sqrt();
    let (qt, kt) = (DEFAULT_Q_TILE, DEFAULT_K_TILE);
    let forward = |v: &[f32]| {
        let mut out = vec![0.0f32; bh * l * dh];
        let mut lse = vec![0.0f32; bh * l];
        fused_attention_forward(
            &q, &k, v, Some(&bias), bh, l, l, dh, scale, qt, kt, &mut out, &mut lse,
        );
        (out, lse)
    };
    let (out, lse) = forward(&v);
    let masked: Vec<usize> = (0..bh * l).filter(|&r| bias[r] < 0.0).collect();
    assert!(!masked.is_empty(), "the mask must hide some keys");

    let mut v2 = v.clone();
    for &r in &masked {
        for x in &mut v2[r * dh..(r + 1) * dh] {
            *x = -3.0 * *x + 0.75;
        }
    }
    let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (out2, lse2) = forward(&v2);
    assert_eq!(bits(&out), bits(&out2), "V at masked keys changed the output");
    assert_eq!(bits(&lse), bits(&lse2), "V at masked keys changed the lse");

    let mut dq = vec![0.0f32; q.len()];
    let mut dk = vec![0.0f32; k.len()];
    let mut dv = vec![0.0f32; v.len()];
    fused_attention_backward(
        &q, &k, &v, Some(&bias), &out, &lse, &d_out, bh, l, l, dh, scale, qt, kt, &mut dq, &mut dk,
        &mut dv,
    );
    for &r in &masked {
        assert!(dk[r * dh..(r + 1) * dh].iter().all(|&g| g == 0.0), "dK row {} not zero", r);
        assert!(dv[r * dh..(r + 1) * dh].iter().all(|&g| g == 0.0), "dV row {} not zero", r);
    }
    // The unmasked rows still carry gradient.
    assert!(dv.iter().any(|&g| g != 0.0) && dk.iter().any(|&g| g != 0.0));
}

/// Sprinkles the values bias+GELU must handle beyond `inject_specials`
/// into `data`, replacing roughly one element in eight: NaN, ±inf, the
/// saturation band `|v| in [8, 1e4]`, where libm `tanh` rounds to ±1, and
/// ±3e19, where `v·v` overflows but the reference's `(3c₁·v)·v` does not.
fn inject_gelu_specials(data: &mut [f32], seed: u64) {
    let mut state = seed | 1;
    for v in data.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if state.is_multiple_of(8) {
            // Log-uniform magnitude over [8, 1e4], random sign.
            let t = ((state >> 16) % 1024) as f32 / 1023.0;
            let band = 8.0f32 * 1250.0f32.powf(t);
            let sign = if (state >> 40) & 1 == 0 { 1.0 } else { -1.0 };
            *v = match (state >> 8) % 6 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => sign * 3e19,
                _ => sign * band,
            };
        }
    }
}

/// One bias+GELU output against its libm reference: within `tol` (plus
/// `f32::MIN_POSITIVE` for a flushed subnormal), non-finite exactly where
/// the reference is, and never subnormal.
fn assert_gelu_close(what: &str, i: usize, fast: f32, reference: f32, tol: f32) {
    let name = kernel_backend().map_or("?", |k| k.name());
    assert!(!fast.is_subnormal(), "[{name}] {what} elem {i}: subnormal output {fast:e}");
    if !reference.is_finite() || !fast.is_finite() {
        assert!(
            !reference.is_finite() && !fast.is_finite(),
            "[{name}] {what} elem {i}: finiteness mismatch (fast {fast}, reference {reference})"
        );
        return;
    }
    assert!(
        (fast - reference).abs() <= tol + f32::MIN_POSITIVE,
        "[{name}] {what} elem {i}: fast {fast:e} vs reference {reference:e} (tol {tol:e})"
    );
}

/// Fused bias+GELU, forward and backward, against the libm forms within
/// the tolerance contract, over unit-range values, signed zeros and
/// denormals, non-finite values and the saturation band.
fn check_bias_gelu_close(rows: usize, d: usize, seed: u64) {
    let mut x = Tensor::rand_uniform([rows, d], -6.0, 6.0, seed).to_vec();
    let mut b = Tensor::rand_uniform([d], -1.0, 1.0, seed ^ 7).to_vec();
    let mut g = Tensor::rand_uniform([rows, d], -2.0, 2.0, seed ^ 8).to_vec();
    inject_specials(&mut x, seed ^ 0x11);
    inject_specials(&mut b, seed ^ 0x22);
    inject_specials(&mut g, seed ^ 0x44);
    inject_gelu_specials(&mut x, seed ^ 0x55);
    inject_gelu_specials(&mut b, seed ^ 0x66);
    inject_gelu_specials(&mut g, seed ^ 0x77);
    let mut out = vec![f32::NAN; rows * d];
    let mut gx = vec![f32::NAN; rows * d];
    bias_gelu_forward(&x, &b, &mut out);
    bias_gelu_backward(&x, &b, &g, &mut gx);
    for i in 0..rows * d {
        let v = x[i] + b[i % d];
        assert_gelu_close("forward", i, out[i], gelu_fwd(v), 1e-6 * v.abs().max(1.0));
        assert_gelu_close("backward", i, gx[i], g[i] * gelu_grad(v), 1e-5 * g[i].abs());
    }
}

/// The same `(x, b, g)` values at every column offset and in rows of many
/// widths give the bits they give alone in a width-1 row.
fn check_bias_gelu_position_independent(kind: BackendKind) {
    let bk = kind.instance().expect("detected backend has an instance");
    let n = 37;
    let mut x = Tensor::rand_uniform([n], -6.0, 6.0, 71).to_vec();
    let b = Tensor::rand_uniform([n], -1.0, 1.0, 72).to_vec();
    let mut g = Tensor::rand_uniform([n], -2.0, 2.0, 73).to_vec();
    inject_specials(&mut x, 74);
    inject_gelu_specials(&mut x, 75);
    inject_gelu_specials(&mut g, 76);
    let (mut solo, mut solo_grad) = (vec![0.0f32; n], vec![0.0f32; n]);
    for i in 0..n {
        bk.bias_gelu_row(&x[i..=i], &b[i..=i], &mut solo[i..=i]);
        bk.bias_gelu_grad_row(&x[i..=i], &b[i..=i], &g[i..=i], &mut solo_grad[i..=i]);
    }
    for width in (1..=24).chain([37, 256]) {
        for shift in 0..9 {
            let at = |c: usize| (c + shift) % n;
            let pick = |src: &[f32]| (0..width).map(|c| src[at(c)]).collect::<Vec<f32>>();
            let (xr, br, gr) = (pick(&x), pick(&b), pick(&g));
            let (mut out, mut gx) = (vec![0.0f32; width], vec![0.0f32; width]);
            bk.bias_gelu_row(&xr, &br, &mut out);
            bk.bias_gelu_grad_row(&xr, &br, &gr, &mut gx);
            for c in 0..width {
                let what = format!("[{}] width {width} column {c}", kind.name());
                assert_eq!(out[c].to_bits(), solo[at(c)].to_bits(), "{what}: forward");
                assert_eq!(gx[c].to_bits(), solo_grad[at(c)].to_bits(), "{what}: backward");
            }
        }
    }
}

/// Fast layernorm must match the naive reference bit-for-bit.
fn check_layernorm_bits(rows: usize, d: usize, seed: u64) {
    let mut x = Tensor::rand_uniform([rows, d], -3.0, 3.0, seed).to_vec();
    inject_specials(&mut x, seed ^ 0x33);
    let gamma = Tensor::rand_uniform([d], 0.5, 1.5, seed ^ 8).to_vec();
    let beta = Tensor::rand_uniform([d], -0.5, 0.5, seed ^ 9).to_vec();
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
    assert_eq!(
        mf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        mn.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(
        sf.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        sn.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

/// im2col+SGEMM conv vs the direct quadruple loop, bounded by the
/// contraction over absolute values (the conv analogue of the GEMM
/// absprod bound).
#[allow(clippy::too_many_arguments)]
fn check_conv_pair(
    b: usize,
    cin: usize,
    cout: usize,
    h: usize,
    w: usize,
    g: ConvGeom,
    with_bias: bool,
    seed: u64,
) {
    let x = Tensor::rand_uniform([b, cin, h, w], -1.5, 1.5, seed);
    let wt = Tensor::rand_uniform([cout, cin, g.kernel, g.kernel], -1.0, 1.0, seed ^ 0x51);
    let bias = with_bias.then(|| Tensor::rand_uniform([cout], -0.5, 0.5, seed ^ 0x52));

    let fast = conv2d(&x, &wt, bias.as_ref(), g);
    let slow = conv2d_direct(&x, &wt, bias.as_ref(), g);
    assert_eq!(fast.dims(), slow.dims());

    // Magnitude scale: the same conv over |x|, |w|, |bias|.
    let xa = Tensor::new(x.shape().clone(), x.data().iter().map(|v| v.abs()).collect::<Vec<_>>());
    let wa = Tensor::new(
        wt.shape().clone(),
        wt.data().iter().map(|v| v.abs()).collect::<Vec<_>>(),
    );
    let ba = bias
        .as_ref()
        .map(|bb| Tensor::new([cout], bb.data().iter().map(|v| v.abs()).collect::<Vec<_>>()));
    let absconv = conv2d_direct(&xa, &wa, ba.as_ref(), g);

    for (i, ((&f, &n), &ap)) in fast
        .data()
        .iter()
        .zip(slow.data().iter())
        .zip(absconv.data().iter())
        .enumerate()
    {
        let tol = REL_TOL * ap + ABS_TOL;
        assert!(
            (f - n).abs() <= tol,
            "conv elem {}: fast {} vs direct {} (tol {}, geom {:?})",
            i,
            f,
            n,
            tol,
            g
        );
    }
}

/// The 0·NaN / 0·inf laundering regression, parameterized so the
/// per-backend matrix can re-run it under forced dispatch.
fn check_zero_times_nonfinite() {
    let m = 3;
    let k = 4;
    let n = 5;
    let a = vec![0.0f32; m * k]; // entire A is zeros
    let mut b = vec![1.0f32; k * n];
    b[0] = f32::NAN; // column 0 sees NaN
    b[1] = f32::INFINITY; // column 1 sees 0 * inf = NaN

    for run_fast in [false, true] {
        let mut c = vec![0.0f32; m * n];
        if run_fast {
            gemm_packed(&a, &b, &mut c, m, k, n);
        } else {
            gemm_naive(&a, &b, &mut c, m, k, n);
        }
        for row in 0..m {
            assert!(
                c[row * n].is_nan(),
                "0*NaN must stay NaN (fast={}, row {})",
                run_fast,
                row
            );
            assert!(
                c[row * n + 1].is_nan(),
                "0*inf must stay NaN (fast={}, row {})",
                run_fast,
                row
            );
            for col in 2..n {
                assert_eq!(c[row * n + col], 0.0, "finite columns stay exact");
            }
        }
    }

    // The public dispatcher must agree regardless of mode heuristics.
    let mut c = vec![0.0f32; m * n];
    gemm(&a, &b, &mut c, m, k, n);
    assert!(c[0].is_nan() && c[1].is_nan());
}

/// NaN-query propagation, parameterized for the per-backend matrix.
fn check_attention_nan_query() {
    let (bh, lq, lk, dh) = (1usize, 3usize, 5usize, 2usize);
    let mut q = Tensor::rand_uniform([bh, lq, dh], -1.0, 1.0, 77).to_vec();
    let k = Tensor::rand_uniform([bh, lk, dh], -1.0, 1.0, 78).to_vec();
    let v = Tensor::rand_uniform([bh, lk, dh], -1.0, 1.0, 79).to_vec();
    q[dh] = f32::NAN; // poison query row 1

    let mut fast = vec![0.0f32; bh * lq * dh];
    let mut lse = vec![0.0f32; bh * lq];
    fused_attention_forward(&q, &k, &v, None, bh, lq, lk, dh, 1.0, 2, 2, &mut fast, &mut lse);
    let mut naive = vec![0.0f32; bh * lq * dh];
    attention_naive(&q, &k, &v, None, bh, lq, lk, dh, 1.0, &mut naive);

    for i in 0..dh {
        assert!(fast[dh + i].is_nan(), "fused must propagate NaN, got {}", fast[dh + i]);
        assert!(naive[dh + i].is_nan(), "naive must propagate NaN, got {}", naive[dh + i]);
        // Rows 0 and 2 stay clean and must still match to tolerance.
        assert!((fast[i] - naive[i]).abs() < 1e-5);
        assert!((fast[2 * dh + i] - naive[2 * dh + i]).abs() < 1e-5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_packed_matches_naive(m in 1usize..70, k in 1usize..70, n in 1usize..70, seed in 0u64..1_000_000) {
        check_gemm_pair(m, k, n, seed);
    }

    #[test]
    fn gemm_degenerate_dims(dim in prop_oneof![Just(1usize), Just(2usize)], which in 0usize..3, seed in 0u64..1_000_000) {
        // Pin one of m/k/n to 1 or 2 while the others stay ragged.
        let (mut m, mut k, mut n) = (17, 23, 19);
        match which { 0 => m = dim, 1 => k = dim, _ => n = dim }
        check_gemm_pair(m, k, n, seed);
    }

    #[test]
    fn attention_fused_matches_naive(
        bh in 1usize..4,
        lq in 1usize..24,
        lk in 1usize..24,
        dh in 1usize..9,
        q_tile in 1usize..8,
        k_tile in 1usize..8,
        masked in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000_000,
    ) {
        check_attention_pair(bh, lq, lk, dh, q_tile, k_tile, masked, seed);
    }

    #[test]
    fn attention_backward_tiled_matches_naive(
        bh in 1usize..3,
        lq in 1usize..40,
        lk in 1usize..40,
        dh in prop_oneof![Just(1usize), Just(3usize), Just(8usize), Just(16usize), Just(19usize)],
        q_tile in 1usize..12,
        k_tile in 1usize..20,
        masked in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000_000,
    ) {
        check_attention_backward_pair(bh, lq, lk, dh, q_tile, k_tile, masked, seed);
    }

    #[test]
    fn bias_gelu_is_within_tolerance_of_libm(
        rows in 1usize..12,
        d in prop_oneof![1usize..24, Just(37usize), Just(256usize)],
        seed in 0u64..1_000_000,
    ) {
        check_bias_gelu_close(rows, d, seed);
    }

    #[test]
    fn layernorm_is_bit_identical_to_naive(rows in 1usize..12, d in 1usize..24, seed in 0u64..1_000_000) {
        check_layernorm_bits(rows, d, seed);
    }

    #[test]
    fn conv_im2col_matches_direct(
        b in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..6,
        kernel in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        extra in 0usize..8,
        with_bias in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000_000,
    ) {
        // h, w >= kernel so the geometry is always valid, even at pad 0.
        let g = ConvGeom { kernel, stride, pad };
        let h = kernel + extra;
        let w = kernel + extra / 2;
        check_conv_pair(b, cin, cout, h, w, g, with_bias, seed);
    }
}

#[test]
fn gemm_zero_sized_dims_are_consistent() {
    // k == 0: both must zero the output (empty contraction).
    let mut fast = vec![f32::NAN; 6];
    let mut naive = vec![f32::NAN; 6];
    gemm_packed(&[], &[], &mut fast, 2, 0, 3);
    gemm_naive(&[], &[], &mut naive, 2, 0, 3);
    assert!(fast.iter().all(|&v| v == 0.0));
    assert!(naive.iter().all(|&v| v == 0.0));

    // m == 0 and n == 0: no output at all, must not panic.
    gemm_packed(&[], &[1.0, 2.0], &mut [], 0, 1, 2);
    gemm_naive(&[], &[1.0, 2.0], &mut [], 0, 1, 2);
    gemm_packed(&[1.0, 2.0], &[], &mut [], 2, 1, 0);
    gemm_naive(&[1.0, 2.0], &[], &mut [], 2, 1, 0);
}

#[test]
fn attention_zero_batch_is_a_no_op() {
    let mut out: Vec<f32> = vec![];
    let mut lse: Vec<f32> = vec![];
    fused_attention_forward(&[], &[], &[], None, 0, 3, 4, 2, 1.0, 4, 4, &mut out, &mut lse);
    attention_naive(&[], &[], &[], None, 0, 3, 4, 2, 1.0, &mut []);
    attention_backward_naive(&[], &[], &[], None, &[], 0, 3, 4, 2, 1.0, &mut [], &mut [], &mut []);
}

/// Regression for the old `gemm_row` zero-skip branch: `if av == 0.0 {
/// continue }` silently turned `0.0 * NaN` and `0.0 * inf` into `0.0`.
/// Both kernels must propagate NaN through a zero row.
#[test]
fn zero_times_nonfinite_propagates_nan() {
    check_zero_times_nonfinite();
}

/// Attention must not launder NaN queries: a NaN in `q` poisons the whole
/// output row in both implementations.
#[test]
fn attention_propagates_nan_query() {
    check_attention_nan_query();
}

/// One-cut conv edge cases the proptest strategy reaches rarely:
/// 1x1 kernels (pure channel mix), single-channel in/out, kernel == image.
#[test]
fn conv_edge_geometries_match_direct() {
    // 1x1 kernel, stride 2.
    check_conv_pair(2, 3, 4, 7, 7, ConvGeom { kernel: 1, stride: 2, pad: 0 }, true, 0xA1);
    // Single input and output channel.
    check_conv_pair(1, 1, 1, 9, 6, ConvGeom { kernel: 3, stride: 1, pad: 1 }, false, 0xA2);
    // Kernel covering the whole (padded) image: one output pixel.
    check_conv_pair(1, 2, 3, 5, 5, ConvGeom { kernel: 5, stride: 1, pad: 0 }, true, 0xA3);
    // Pad larger than half the kernel, stride 3.
    check_conv_pair(1, 2, 2, 6, 8, ConvGeom { kernel: 3, stride: 3, pad: 2 }, false, 0xA4);
    // Small-cout head shape big enough for the transposed packed path.
    check_conv_pair(1, 3, 2, 16, 16, ConvGeom { kernel: 3, stride: 1, pad: 1 }, true, 0xA5);
}

/// The per-backend differential matrix (the tentpole's lock): every
/// oracle property above re-runs once per compiled-and-detected backend
/// with dispatch forced to it. Forcing is process-global, so all backends
/// run inside this single `#[test]`, sequentially; concurrent tests in
/// this binary stay correct because every backend must satisfy the exact
/// same bounds these assertions encode.
#[test]
fn per_backend_differential_matrix() {
    let detected = BackendKind::detected();
    assert!(detected.contains(&BackendKind::Scalar), "scalar must always be detected");
    for &kind in &detected {
        force_backend(Some(kind)).unwrap();
        assert_eq!(kernel_backend().unwrap(), kind, "forced backend must be selected");

        // SGEMM: ragged, degenerate, below-dispatch-floor, multi-KC-deep.
        for &(m, k, n, seed) in &[
            (67usize, 33usize, 129usize, 1u64), // every ragged edge
            (8, 8, 8, 2),                       // exactly one micro-tile
            (1, 17, 9, 3),                      // m = 1 degenerate
            (23, 1, 8, 4),                      // k = 1 degenerate
            (16, 300, 24, 5),                   // k > KC: multi-block depth
            (70, 40, 70, 6),                    // multi-MC rows
        ] {
            check_gemm_pair(m, k, n, seed);
        }
        check_zero_times_nonfinite();

        // Attention: ragged tiles, single key, bias mask, full tiles.
        check_attention_pair(2, 7, 7, 3, 4, 4, false, 21);
        check_attention_pair(3, 9, 1, 4, 2, 1, false, 22);
        check_attention_pair(2, 6, 6, 4, 3, 2, true, 23);
        check_attention_pair(2, 33, 17, 8, 8, 8, true, 24);
        check_attention_nan_query();

        // Attention backward: dh 8 and 16 fill the 4x8 blocks; lq != lk,
        // ragged tiles, a single key, with and without the mask.
        let (qt, kt) = (DEFAULT_Q_TILE, DEFAULT_K_TILE);
        for (i, &(bh, lq, lk, dh, q_tile, k_tile)) in [
            (2usize, 64usize, 64usize, 16usize, qt, kt), // full tiles, training head dim
            (2, 106, 106, 16, qt, kt),                   // ragged last q- and k-tile
            (2, 33, 106, 8, qt, kt),                     // lq != lk
            (1, 106, 33, 16, qt, kt),                    // lq != lk, k-tile smaller than default
            (2, 64, 33, 8, 12, 20),                      // ragged tiles inside blocks
            (3, 33, 1, 16, qt, kt),                      // single key
            (1, 5, 7, 3, 2, 3),                          // no full block at all
        ]
        .iter()
        .enumerate()
        {
            for masked in [false, true] {
                let seed = 50 + i as u64;
                check_attention_backward_pair(bh, lq, lk, dh, q_tile, k_tile, masked, seed);
            }
        }
        check_softmax_exp_underflow(kind);
        check_masked_keys_are_inert(2, 106, 16, 61);
        check_masked_keys_are_inert(1, 33, 8, 62);

        // Bias+GELU: every ragged tail, several vectors plus a tail, and
        // the MLP width.
        for d in (1..24).chain([37, 256]) {
            check_bias_gelu_close(3, d, 30 + d as u64);
        }
        check_bias_gelu_position_independent(kind);

        // Traversal-only fusion: exact bits on every backend.
        check_layernorm_bits(9, 13, 33);
        check_layernorm_bits(4, 67, 34); // ragged tail after 8-wide lanes

        // Conv lowering, including the small-cout transposed path.
        check_conv_pair(1, 2, 3, 8, 8, ConvGeom { kernel: 3, stride: 1, pad: 1 }, true, 41);
        check_conv_pair(1, 3, 2, 16, 16, ConvGeom { kernel: 3, stride: 1, pad: 1 }, false, 42);
    }
    force_backend(None).unwrap();
}
