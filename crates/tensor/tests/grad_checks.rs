//! Finite-difference verification of every autograd op's backward rule.

use std::sync::Arc;

use apf_tensor::gradcheck::{check_gradient, Tolerance};
use apf_tensor::prelude::*;

fn tol() -> Tolerance {
    Tolerance::default()
}

#[test]
fn grad_add() {
    let x = Tensor::rand_uniform([2, 3], -1.0, 1.0, 1);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([2, 3], -1.0, 1.0, 2));
        let y = g.add(a, b);
        let l = g.mean_all(y);
        (a, l)
    });
}

#[test]
fn grad_sub_rhs() {
    let x = Tensor::rand_uniform([2, 3], -1.0, 1.0, 3);
    check_gradient(&x, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([2, 3], -1.0, 1.0, 4));
        let b = g.leaf(t);
        let y = g.sub(a, b);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (b, l)
    });
}

#[test]
fn grad_mul_both_sides() {
    let x = Tensor::rand_uniform([4], -1.0, 1.0, 5);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.mul(a, a); // tests accumulation of two contributions
        let l = g.sum_all(y);
        (a, l)
    });
}

#[test]
fn grad_div() {
    let x = Tensor::rand_uniform([4], 0.5, 2.0, 6);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([4], 1.0, 3.0, 7));
        let y = g.div(a, b);
        let l = g.sum_all(y);
        (a, l)
    });
    // denominator side
    check_gradient(&x, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([4], 1.0, 3.0, 8));
        let b = g.leaf(t);
        let y = g.div(a, b);
        let l = g.sum_all(y);
        (b, l)
    });
}

#[test]
fn grad_badd_bias() {
    // bias of shape [3] broadcast over [2, 4, 3]
    let x = Tensor::rand_uniform([3], -1.0, 1.0, 9);
    check_gradient(&x, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([2, 4, 3], -1.0, 1.0, 10));
        let b = g.leaf(t);
        let y = g.badd(a, b);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (b, l)
    });
}

#[test]
fn grad_badd_positional_embedding() {
    // [4, 3] broadcast over batch dim of [2, 4, 3]
    let x = Tensor::rand_uniform([4, 3], -1.0, 1.0, 11);
    check_gradient(&x, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([2, 4, 3], -1.0, 1.0, 12));
        let b = g.leaf(t);
        let y = g.badd(a, b);
        let l = g.mean_all(y);
        (b, l)
    });
}

#[test]
fn grad_bmul_both() {
    let x = Tensor::rand_uniform([2, 2, 3], -1.0, 1.0, 13);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([3], 0.5, 1.5, 14));
        let y = g.bmul(a, b);
        let l = g.sum_all(y);
        (a, l)
    });
    let s = Tensor::rand_uniform([3], 0.5, 1.5, 15);
    check_gradient(&s, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([2, 2, 3], -1.0, 1.0, 16));
        let b = g.leaf(t);
        let y = g.bmul(a, b);
        let l = g.sum_all(y);
        (b, l)
    });
}

#[test]
fn grad_scale_add_scalar() {
    let x = Tensor::rand_uniform([5], -1.0, 1.0, 17);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.scale(a, -2.5);
        let y = g.add_scalar(y, 3.0);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (a, l)
    });
}

#[test]
fn grad_activations() {
    // Offset away from relu's kink at 0 for stable finite differences.
    let x = Tensor::rand_uniform([6], 0.1, 1.0, 18);
    for act in 0..4 {
        check_gradient(&x, tol(), |g, t| {
            let a = g.leaf(t);
            let y = match act {
                0 => g.relu(a),
                1 => g.sigmoid(a),
                2 => g.tanh(a),
                _ => g.exp(a),
            };
            let l = g.sum_all(y);
            (a, l)
        });
    }
}

#[test]
fn grad_matmul_2d_lhs_rhs() {
    let x = Tensor::rand_uniform([3, 4], -1.0, 1.0, 20);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([4, 2], -1.0, 1.0, 21));
        let y = g.matmul(a, b);
        let l = g.mean_all(y);
        (a, l)
    });
    let w = Tensor::rand_uniform([4, 2], -1.0, 1.0, 22);
    check_gradient(&w, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([3, 4], -1.0, 1.0, 23));
        let b = g.leaf(t);
        let y = g.matmul(a, b);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (b, l)
    });
}

#[test]
fn grad_matmul_batched_shared_rhs() {
    let w = Tensor::rand_uniform([3, 2], -1.0, 1.0, 24);
    check_gradient(&w, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([2, 4, 3], -1.0, 1.0, 25));
        let b = g.leaf(t);
        let y = g.matmul(a, b);
        let l = g.mean_all(y);
        (b, l)
    });
}

#[test]
fn grad_matmul_batched_pairwise() {
    let x = Tensor::rand_uniform([2, 2, 3], -1.0, 1.0, 26);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([2, 3, 2], -1.0, 1.0, 27));
        let y = g.matmul(a, b);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (a, l)
    });
}

#[test]
fn grad_transpose_reshape() {
    let x = Tensor::rand_uniform([2, 3, 4], -1.0, 1.0, 28);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.transpose_last(a);
        let y = g.reshape(y, [6, 4]);
        let w = g.constant(Tensor::rand_uniform([4, 1], -1.0, 1.0, 29));
        let y = g.matmul(y, w);
        let l = g.sum_all(y);
        (a, l)
    });
}

#[test]
fn grad_softmax() {
    let x = Tensor::rand_uniform([3, 5], -2.0, 2.0, 30);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.softmax(a);
        let w = g.constant(Tensor::rand_uniform([3, 5], -1.0, 1.0, 31));
        let y = g.mul(y, w);
        let l = g.sum_all(y);
        (a, l)
    });
}

#[test]
fn grad_layer_norm_all_inputs() {
    let x = Tensor::rand_uniform([3, 6], -1.0, 1.0, 32);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let gamma = g.constant(Tensor::rand_uniform([6], 0.5, 1.5, 33));
        let beta = g.constant(Tensor::rand_uniform([6], -0.5, 0.5, 34));
        let y = g.layer_norm(a, gamma, beta, 1e-5);
        let w = g.constant(Tensor::rand_uniform([3, 6], -1.0, 1.0, 35));
        let y = g.mul(y, w);
        let l = g.sum_all(y);
        (a, l)
    });
    let gm = Tensor::rand_uniform([6], 0.5, 1.5, 36);
    check_gradient(&gm, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([3, 6], -1.0, 1.0, 37));
        let gamma = g.leaf(t);
        let beta = g.constant(Tensor::rand_uniform([6], -0.5, 0.5, 38));
        let y = g.layer_norm(a, gamma, beta, 1e-5);
        let l = g.sum_all(y);
        (gamma, l)
    });
    let bt = Tensor::rand_uniform([6], -0.5, 0.5, 39);
    check_gradient(&bt, tol(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([3, 6], -1.0, 1.0, 40));
        let gamma = g.constant(Tensor::rand_uniform([6], 0.5, 1.5, 41));
        let beta = g.leaf(t);
        let y = g.layer_norm(a, gamma, beta, 1e-5);
        let w = g.constant(Tensor::rand_uniform([3, 6], -1.0, 1.0, 42));
        let y = g.mul(y, w);
        let l = g.sum_all(y);
        (beta, l)
    });
}

#[test]
fn grad_batch_norm2d() {
    let x = Tensor::rand_uniform([2, 3, 4, 4], -1.0, 1.0, 43);
    check_gradient(&x, Tolerance { rel: 5e-2, abs: 5e-3 }, |g, t| {
        let a = g.leaf(t);
        let gamma = g.constant(Tensor::rand_uniform([3], 0.5, 1.5, 44));
        let beta = g.constant(Tensor::rand_uniform([3], -0.5, 0.5, 45));
        let y = g.batch_norm2d(a, gamma, beta, 1e-5);
        let w = g.constant(Tensor::rand_uniform([2, 3, 4, 4], -1.0, 1.0, 46));
        let y = g.mul(y, w);
        let l = g.sum_all(y);
        (a, l)
    });
}

#[test]
fn grad_reductions() {
    let x = Tensor::rand_uniform([2, 3, 4], -1.0, 1.0, 47);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.sum_axis(a, 1);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (a, l)
    });
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.mean_axis(a, 0);
        let l = g.sum_all(y);
        (a, l)
    });
}

#[test]
fn grad_gather_rows() {
    let x = Tensor::rand_uniform([4, 3], -1.0, 1.0, 48);
    let idx = Arc::new(vec![2u32, 0, 2, 3]); // repeated row tests scatter-add
    check_gradient(&x, tol(), move |g, t| {
        let a = g.leaf(t);
        let y = g.gather_rows(a, idx.clone(), [4, 3]);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (a, l)
    });
}

#[test]
fn grad_concat() {
    let x = Tensor::rand_uniform([2, 3], -1.0, 1.0, 49);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([2, 2], -1.0, 1.0, 50));
        let y = g.concat(&[a, b], 1);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (a, l)
    });
}

#[test]
fn grad_conv2d_all_inputs() {
    let geom = ConvGeom { kernel: 3, stride: 1, pad: 1 };
    let x = Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, 51);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let w = g.constant(Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, 52));
        let b = g.constant(Tensor::rand_uniform([3], -0.1, 0.1, 53));
        let y = g.conv2d(a, w, b, geom);
        let l = g.mean_all(y);
        (a, l)
    });
    let wt = Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, 54);
    check_gradient(&wt, tol(), |g, t| {
        let x = g.constant(Tensor::rand_uniform([2, 2, 4, 4], -1.0, 1.0, 55));
        let w = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([3], -0.1, 0.1, 56));
        let y = g.conv2d(x, w, b, geom);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (w, l)
    });
    let bias = Tensor::rand_uniform([3], -0.1, 0.1, 57);
    check_gradient(&bias, tol(), |g, t| {
        let x = g.constant(Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, 58));
        let w = g.constant(Tensor::rand_uniform([3, 2, 3, 3], -0.5, 0.5, 59));
        let b = g.leaf(t);
        let y = g.conv2d(x, w, b, geom);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (b, l)
    });
}

/// Gradcheck for the conv fast path at a shape large enough to clear the
/// packed-SGEMM dispatch floor with `cout < 4` — this exercises the
/// transposed im2col lowering (`out^T = col^T . W^T`) rather than the
/// small-problem `gemm` fallback the shapes above take.
#[test]
fn grad_conv2d_fast_path_small_cout() {
    let geom = ConvGeom { kernel: 3, stride: 1, pad: 1 };
    // m=2 (cout), k=27, n=256: 2*27*256 = 13824 >= PACK_FLOPS, m < 4.
    let wt = Tensor::rand_uniform([2, 3, 3, 3], -0.5, 0.5, 151);
    check_gradient(&wt, tol(), |g, t| {
        let x = g.constant(Tensor::rand_uniform([1, 3, 16, 16], -1.0, 1.0, 152));
        let w = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([2], -0.1, 0.1, 153));
        let y = g.conv2d(x, w, b, geom);
        let l = g.mean_all(y);
        (w, l)
    });
    let x = Tensor::rand_uniform([1, 3, 16, 16], -1.0, 1.0, 154);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let w = g.constant(Tensor::rand_uniform([2, 3, 3, 3], -0.5, 0.5, 155));
        let b = g.constant(Tensor::rand_uniform([2], -0.1, 0.1, 156));
        let y = g.conv2d(a, w, b, geom);
        let l = g.mean_all(y);
        (a, l)
    });
}

#[test]
fn grad_conv_transpose2d() {
    let geom = ConvGeom { kernel: 2, stride: 2, pad: 0 };
    let x = Tensor::rand_uniform([1, 2, 3, 3], -1.0, 1.0, 60);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let w = g.constant(Tensor::rand_uniform([2, 3, 2, 2], -0.5, 0.5, 61));
        let b = g.constant(Tensor::rand_uniform([3], -0.1, 0.1, 62));
        let y = g.conv_transpose2d(a, w, b, geom);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (a, l)
    });
    let wt = Tensor::rand_uniform([2, 3, 2, 2], -0.5, 0.5, 63);
    check_gradient(&wt, tol(), |g, t| {
        let x = g.constant(Tensor::rand_uniform([1, 2, 3, 3], -1.0, 1.0, 64));
        let w = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([3], -0.1, 0.1, 65));
        let y = g.conv_transpose2d(x, w, b, geom);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (w, l)
    });
}

#[test]
fn grad_pools() {
    // Max-pool: perturbations must not flip the argmax, so spread values.
    let x = Tensor::new(
        [1, 1, 4, 4],
        (0..16).map(|i| i as f32 * 0.5).collect::<Vec<_>>(),
    );
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.maxpool2d(a, 2);
        let sq = g.mul(y, y);
        let l = g.sum_all(sq);
        (a, l)
    });
}

#[test]
fn grad_bce_with_logits() {
    let x = Tensor::rand_uniform([3, 4], -2.0, 2.0, 67);
    check_gradient(&x, tol(), |g, t| {
        let a = g.leaf(t);
        let y = g.constant(Tensor::rand_uniform([3, 4], 0.0, 1.0, 68).map(f32::round));
        let l = g.bce_with_logits(a, y);
        (a, l)
    });
}

#[test]
fn grad_softmax_cross_entropy() {
    let x = Tensor::rand_uniform([4, 5], -2.0, 2.0, 69);
    let targets = Arc::new(vec![0u32, 3, 2, 4]);
    check_gradient(&x, tol(), move |g, t| {
        let a = g.leaf(t);
        let l = g.softmax_cross_entropy(a, targets.clone());
        (a, l)
    });
}

#[test]
fn grad_attention_block_end_to_end() {
    // A miniature single-head attention: checks composition of matmul,
    // transpose, scale, softmax.
    let x = Tensor::rand_uniform([2, 3, 4], -0.5, 0.5, 71);
    check_gradient(&x, Tolerance { rel: 3e-2, abs: 3e-3 }, |g, t| {
        let xin = g.leaf(t);
        let wq = g.constant(Tensor::rand_uniform([4, 4], -0.5, 0.5, 72));
        let wk = g.constant(Tensor::rand_uniform([4, 4], -0.5, 0.5, 73));
        let wv = g.constant(Tensor::rand_uniform([4, 4], -0.5, 0.5, 74));
        let q = g.matmul(xin, wq);
        let k = g.matmul(xin, wk);
        let v = g.matmul(xin, wv);
        let kt = g.transpose_last(k);
        let scores = g.matmul(q, kt);
        let scores = g.scale(scores, 0.5);
        let attn = g.softmax(scores);
        let out = g.matmul(attn, v);
        let sq = g.mul(out, out);
        let l = g.mean_all(sq);
        (xin, l)
    });
}

#[test]
fn backward_skips_non_differentiable_subgraphs() {
    let mut g = Graph::new();
    let a = g.constant(Tensor::rand_uniform([4], -1.0, 1.0, 75));
    let b = g.constant(Tensor::rand_uniform([4], -1.0, 1.0, 76));
    let c = g.add(a, b);
    let l = g.sum_all(c);
    g.backward(l);
    assert!(g.grad(a).is_none());
    assert!(g.grad(b).is_none());
}

#[test]
fn gradient_accumulates_across_multiple_uses() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::new([2], vec![3.0, 4.0]));
    let y1 = g.scale(x, 2.0);
    let y2 = g.scale(x, 5.0);
    let s = g.add(y1, y2);
    let l = g.sum_all(s);
    g.backward(l);
    assert_eq!(g.grad(x).unwrap().to_vec(), vec![7.0, 7.0]);
}

// --------------------------------------------------------- fused fast ops

/// Shared builder for the fused-attention gradchecks: `which` selects the
/// differentiated input (0 = q, 1 = k, 2 = v); the others are constants.
/// Tiny tiles (4) against L = 7 force ragged multi-tile traversals.
fn check_fused_attention_grad(
    which: usize,
    lq: usize,
    lk: usize,
    key_bias: Option<Arc<Vec<f32>>>,
    seed: u64,
) {
    let (bh, dh) = (2usize, 3usize);
    let shape_q = [bh, lq, dh];
    let shape_kv = [bh, lk, dh];
    let x = if which == 0 {
        Tensor::rand_uniform(shape_q, -1.0, 1.0, seed)
    } else {
        Tensor::rand_uniform(shape_kv, -1.0, 1.0, seed)
    };
    check_gradient(&x, Tolerance::default(), move |g, t| {
        let mut mk = |idx: usize, s: u64, shape: [usize; 3]| {
            if idx == which {
                g.leaf(t.clone())
            } else {
                g.constant(Tensor::rand_uniform(shape, -1.0, 1.0, s))
            }
        };
        let q = mk(0, seed ^ 101, shape_q);
        let k = mk(1, seed ^ 102, shape_kv);
        let v = mk(2, seed ^ 103, shape_kv);
        let leaf = [q, k, v][which];
        let out = g.fused_attention_tiled(q, k, v, 0.6, key_bias.clone(), 4, 4);
        let sq = g.mul(out, out);
        let l = g.mean_all(sq);
        (leaf, l)
    });
}

#[test]
fn grad_fused_attention_q() {
    check_fused_attention_grad(0, 7, 7, None, 81);
}

#[test]
fn grad_fused_attention_k() {
    check_fused_attention_grad(1, 7, 7, None, 82);
}

#[test]
fn grad_fused_attention_v() {
    check_fused_attention_grad(2, 7, 7, None, 83);
}

#[test]
fn grad_fused_attention_with_key_mask() {
    // The serving/padded path: -1e9 bias on some keys (never key 0).
    let (bh, lk) = (2usize, 7usize);
    let mut bias = vec![0.0f32; bh * lk];
    for (i, b) in bias.iter_mut().enumerate() {
        if i % lk != 0 && i % 3 == 0 {
            *b = -1e9;
        }
    }
    let bias = Arc::new(bias);
    for which in 0..3 {
        check_fused_attention_grad(which, 7, 7, Some(bias.clone()), 84 + which as u64);
    }
}

#[test]
fn grad_fused_attention_short_query_prefix() {
    // Fewer queries than keys — the shape class the incremental
    // `forward_prefix` serving path produces (suffix queries over the full
    // key set).
    for which in 0..3 {
        check_fused_attention_grad(which, 3, 9, None, 90 + which as u64);
    }
}

/// d = 11 is one full 8-lane vector plus a ragged tail, so both the
/// vector body and the padded tail of a SIMD backend are checked.
#[test]
fn grad_bias_gelu_x() {
    let x = Tensor::rand_uniform([2, 4, 11], -6.0, 6.0, 95);
    check_gradient(&x, Tolerance::default(), |g, t| {
        let a = g.leaf(t);
        let b = g.constant(Tensor::rand_uniform([11], -1.0, 1.0, 96));
        let y = g.bias_gelu(a, b);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (a, l)
    });
}

#[test]
fn grad_bias_gelu_bias() {
    let x = Tensor::rand_uniform([11], -1.0, 1.0, 97);
    check_gradient(&x, Tolerance::default(), |g, t| {
        let a = g.constant(Tensor::rand_uniform([2, 4, 11], -6.0, 6.0, 98));
        let b = g.leaf(t);
        let y = g.bias_gelu(a, b);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        (b, l)
    });
}
