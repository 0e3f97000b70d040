//! Op constructors (forward) and the backward rules for every [`Op`].

use std::sync::Arc;

use crate::kernels::attention;
use crate::kernels::conv::{self, ConvGeom};
use crate::kernels::fused;
use crate::kernels::gemm;
use crate::kernels::pool;
use crate::shape::Shape;
use crate::tensor::Tensor;

use super::{Aux, Graph, Op, Var};

impl Graph {
    fn rg2(&self, a: Var, b: Var) -> bool {
        self.rg(a) || self.rg(b)
    }

    // ---------------------------------------------------------------- basic

    /// Elementwise `a + b` (identical shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let rg = self.rg2(a, b);
        self.push(v, Op::Add(a, b), rg, Aux::None)
    }

    /// Elementwise `a - b` (identical shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        let rg = self.rg2(a, b);
        self.push(v, Op::Sub(a, b), rg, Aux::None)
    }

    /// Elementwise `a * b` (identical shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        let rg = self.rg2(a, b);
        self.push(v, Op::Mul(a, b), rg, Aux::None)
    }

    /// Elementwise `a / b` (identical shapes).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).div(self.value(b));
        let rg = self.rg2(a, b);
        self.push(v, Op::Div(a, b), rg, Aux::None)
    }

    /// Broadcast add: `b`'s shape must equal a trailing suffix of `a`'s.
    pub fn badd(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert!(
            av.shape().is_trailing_broadcast(bv.shape()),
            "badd: {} is not a trailing suffix of {}",
            bv.shape(),
            av.shape()
        );
        let v = broadcast_zip(av, bv, |x, y| x + y);
        let rg = self.rg2(a, b);
        self.push(v, Op::BAdd(a, b), rg, Aux::None)
    }

    /// Broadcast multiply with the same rule as [`Graph::badd`].
    pub fn bmul(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (self.value(a), self.value(b));
        assert!(
            av.shape().is_trailing_broadcast(bv.shape()),
            "bmul: {} is not a trailing suffix of {}",
            bv.shape(),
            av.shape()
        );
        let v = broadcast_zip(av, bv, |x, y| x * y);
        let rg = self.rg2(a, b);
        self.push(v, Op::BMul(a, b), rg, Aux::None)
    }

    /// `a * c` for a constant scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).scale(c);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, c), rg, Aux::None)
    }

    /// `a + c` for a constant scalar.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = self.value(a).map(|x| x + c);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a, c), rg, Aux::None)
    }

    // ---------------------------------------------------------- activations

    /// Elementwise `max(a, 0)`.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x.max(0.0));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg, Aux::None)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(sigmoid_fwd);
        let rg = self.rg(a);
        self.push(v, Op::Sigmoid(a), rg, Aux::None)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::tanh);
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg, Aux::None)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f32::exp);
        let rg = self.rg(a);
        self.push(v, Op::Exp(a), rg, Aux::None)
    }

    // -------------------------------------------------------------- linear

    /// Batched matrix multiply (see [`crate::kernels::gemm::matmul`]).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = gemm::matmul(self.value(a), self.value(b));
        let rg = self.rg2(a, b);
        self.push(v, Op::Matmul(a, b), rg, Aux::None)
    }

    /// Swap the last two dims.
    pub fn transpose_last(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose_last();
        let rg = self.rg(a);
        self.push(v, Op::TransposeLast(a), rg, Aux::None)
    }

    /// View under a new shape with the same element count.
    pub fn reshape(&mut self, a: Var, shape: impl Into<Shape>) -> Var {
        let old = self.value(a).shape().clone();
        let v = self.value(a).reshape(shape.into());
        let rg = self.rg(a);
        self.push(v, Op::Reshape(a, old), rg, Aux::None)
    }

    // ---------------------------------------------------------- normalizers

    /// Row-wise softmax over the last dim.
    pub fn softmax(&mut self, a: Var) -> Var {
        let x = self.value(a);
        let (rows, cols) = x.shape().split_trailing(1);
        let mut out = vec![0.0f32; x.numel()];
        for r in 0..rows {
            let row = &x.data()[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for (o, &v) in out[r * cols..(r + 1) * cols].iter_mut().zip(row.iter()) {
                *o = (v - m).exp();
                denom += *o;
            }
            let inv = 1.0 / denom;
            for o in &mut out[r * cols..(r + 1) * cols] {
                *o *= inv;
            }
        }
        let v = Tensor::new(x.shape().clone(), out);
        let rg = self.rg(a);
        self.push(v, Op::Softmax(a), rg, Aux::None)
    }

    /// Layer normalization over the last dim with affine parameters
    /// `gamma`/`beta` of shape `[D]`, computed by the row-parallel fused
    /// kernel (bit-identical to its sequential reference).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let (rows, d) = xv.shape().split_trailing(1);
        assert_eq!(self.value(gamma).numel(), d, "layer_norm gamma size");
        assert_eq!(self.value(beta).numel(), d, "layer_norm beta size");
        let gv = self.value(gamma).data();
        let bv = self.value(beta).data();
        let mut out = vec![0.0f32; xv.numel()];
        let mut means = vec![0.0f32; rows];
        let mut invstds = vec![0.0f32; rows];
        fused::layernorm_forward(xv.data(), gv, bv, eps, rows, d, &mut out, &mut means, &mut invstds);
        let v = Tensor::new(xv.shape().clone(), out);
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let aux = Aux::Moments {
            mean: Tensor::new([rows], means),
            invstd: Tensor::new([rows], invstds),
        };
        self.push(v, Op::LayerNorm { x, gamma, beta, eps }, rg, aux)
    }

    /// Training-mode batch normalization over NCHW with per-channel affine
    /// parameters. Uses batch statistics; retrieve them afterwards via
    /// [`Graph::batchnorm_moments`] to maintain running averages.
    pub fn batch_norm2d(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let d = xv.dims();
        assert_eq!(d.len(), 4, "batch_norm2d expects NCHW");
        let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
        assert_eq!(self.value(gamma).numel(), c);
        assert_eq!(self.value(beta).numel(), c);
        let n = (b * h * w) as f32;
        let spatial = h * w;
        let gv = self.value(gamma).data().to_vec();
        let bv = self.value(beta).data().to_vec();
        let src = xv.data();
        let mut means = vec![0.0f32; c];
        let mut invstds = vec![0.0f32; c];
        for ch in 0..c {
            let mut sum = 0.0;
            let mut sq = 0.0;
            for bi in 0..b {
                let base = (bi * c + ch) * spatial;
                for &v in &src[base..base + spatial] {
                    sum += v;
                    sq += v * v;
                }
            }
            let mean = sum / n;
            let var = (sq / n - mean * mean).max(0.0);
            means[ch] = mean;
            invstds[ch] = 1.0 / (var + eps).sqrt();
        }
        let mut out = vec![0.0f32; xv.numel()];
        for bi in 0..b {
            for ch in 0..c {
                let base = (bi * c + ch) * spatial;
                let (m, inv, g, be) = (means[ch], invstds[ch], gv[ch], bv[ch]);
                for (o, &v) in out[base..base + spatial].iter_mut().zip(&src[base..base + spatial]) {
                    *o = (v - m) * inv * g + be;
                }
            }
        }
        let v = Tensor::new(xv.shape().clone(), out);
        let rg = self.rg(x) || self.rg(gamma) || self.rg(beta);
        let aux = Aux::Moments {
            mean: Tensor::new([c], means),
            invstd: Tensor::new([c], invstds),
        };
        self.push(v, Op::BatchNorm2d { x, gamma, beta, eps }, rg, aux)
    }

    // ---------------------------------------------------------- reductions

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        let rg = self.rg(a);
        self.push(v, Op::SumAll(a), rg, Aux::None)
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean());
        let rg = self.rg(a);
        self.push(v, Op::MeanAll(a), rg, Aux::None)
    }

    /// Sum over `axis`, removing it from the shape.
    pub fn sum_axis(&mut self, a: Var, axis: usize) -> Var {
        let x = self.value(a);
        assert!(axis < x.shape().rank(), "sum_axis out of range");
        let dims = x.dims();
        let lead: usize = dims[..axis].iter().product();
        let extent = dims[axis];
        let trail: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0f32; lead * trail];
        let src = x.data();
        for l in 0..lead {
            for e in 0..extent {
                let base = (l * extent + e) * trail;
                for t in 0..trail {
                    out[l * trail + t] += src[base + t];
                }
            }
        }
        let mut out_dims = dims.to_vec();
        out_dims.remove(axis);
        let v = Tensor::new(out_dims, out);
        let rg = self.rg(a);
        self.push(v, Op::SumAxis(a, axis), rg, Aux::None)
    }

    /// Mean over `axis` (sum then scale).
    pub fn mean_axis(&mut self, a: Var, axis: usize) -> Var {
        let extent = self.value(a).shape().dim(axis);
        let s = self.sum_axis(a, axis);
        self.scale(s, 1.0 / extent as f32)
    }

    // ----------------------------------------------------------- structure

    /// Gathers rows of `a` viewed as `[R, D]` (D = last dim). `out_dims` must
    /// have the same last dim and `indices.len()` total rows.
    pub fn gather_rows(
        &mut self,
        a: Var,
        indices: Arc<Vec<u32>>,
        out_dims: impl Into<Shape>,
    ) -> Var {
        let x = self.value(a);
        let (rows, d) = x.shape().split_trailing(1);
        let out_shape = out_dims.into();
        assert_eq!(
            out_shape.numel(),
            indices.len() * d,
            "gather_rows output shape mismatch"
        );
        let mut out = vec![0.0f32; indices.len() * d];
        let src = x.data();
        for (o, &i) in out.chunks_exact_mut(d).zip(indices.iter()) {
            assert!((i as usize) < rows, "gather_rows index out of range");
            o.copy_from_slice(&src[i as usize * d..(i as usize + 1) * d]);
        }
        let v = Tensor::new(out_shape.clone(), out);
        let rg = self.rg(a);
        self.push(v, Op::GatherRows { x: a, indices, out_shape }, rg, Aux::None)
    }

    /// Concatenates along `axis`.
    pub fn concat(&mut self, inputs: &[Var], axis: usize) -> Var {
        let tensors: Vec<&Tensor> = inputs.iter().map(|&v| self.value(v)).collect();
        let v = Tensor::concat(&tensors, axis);
        let rg = inputs.iter().any(|&i| self.rg(i));
        self.push(v, Op::Concat { inputs: inputs.to_vec(), axis }, rg, Aux::None)
    }

    // ------------------------------------------------------------- conv/pool

    /// 2D convolution in NCHW with bias.
    pub fn conv2d(&mut self, x: Var, w: Var, b: Var, geom: ConvGeom) -> Var {
        let v = conv::conv2d(self.value(x), self.value(w), Some(self.value(b)), geom);
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        self.push(v, Op::Conv2d { x, w, b, geom }, rg, Aux::None)
    }

    /// 2D transposed convolution in NCHW with bias.
    pub fn conv_transpose2d(&mut self, x: Var, w: Var, b: Var, geom: ConvGeom) -> Var {
        let v = conv::conv_transpose2d(self.value(x), self.value(w), Some(self.value(b)), geom);
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        self.push(v, Op::ConvTranspose2d { x, w, b, geom }, rg, Aux::None)
    }

    /// Non-overlapping max-pool with window `k`.
    pub fn maxpool2d(&mut self, x: Var, k: usize) -> Var {
        let (v, idx) = pool::maxpool2d(self.value(x), k);
        let rg = self.rg(x);
        self.push(v, Op::MaxPool2d(x, k), rg, Aux::PoolIdx(Arc::new(idx)))
    }

    // ---------------------------------------------------------------- losses

    /// Numerically-stable mean binary cross-entropy on logits:
    /// `mean(max(x,0) - x*y + ln(1 + e^-|x|))`.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Var) -> Var {
        let x = self.value(logits);
        let y = self.value(targets);
        assert_eq!(x.shape(), y.shape(), "bce_with_logits shape mismatch");
        let loss = x
            .zip_with(y, |xi, yi| xi.max(0.0) - xi * yi + (1.0 + (-xi.abs()).exp()).ln())
            .mean();
        let v = Tensor::scalar(loss);
        let rg = self.rg(logits);
        self.push(v, Op::BceWithLogits { logits, targets }, rg, Aux::None)
    }

    /// Mean softmax cross-entropy: logits viewed as `[R, C]`, one integer
    /// class target per row.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: Arc<Vec<u32>>) -> Var {
        let x = self.value(logits);
        let (rows, cols) = x.shape().split_trailing(1);
        assert_eq!(targets.len(), rows, "one target per logit row required");
        let mut probs = vec![0.0f32; x.numel()];
        let mut loss = 0.0f64;
        for r in 0..rows {
            let row = &x.data()[r * cols..(r + 1) * cols];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (o, &v) in probs[r * cols..(r + 1) * cols].iter_mut().zip(row.iter()) {
                *o = (v - m).exp();
                denom += *o;
            }
            let inv = 1.0 / denom;
            for o in &mut probs[r * cols..(r + 1) * cols] {
                *o *= inv;
            }
            let t = targets[r] as usize;
            assert!(t < cols, "target class out of range");
            loss -= (probs[r * cols + t].max(1e-12) as f64).ln();
        }
        let v = Tensor::scalar((loss / rows as f64) as f32);
        let rg = self.rg(logits);
        let aux = Aux::Probs(Tensor::new(x.shape().clone(), probs));
        self.push(v, Op::SoftmaxCrossEntropy { logits, targets }, rg, aux)
    }

    // ----------------------------------------------------------- fused fast

    /// Streaming attention `softmax(q k^T * scale + key_bias) v` over
    /// `q: [BH, Lq, Dh]`, `k`/`v`: `[BH, Lk, Dh]` with default tiling.
    /// Never materializes the `Lq x Lk` score matrix; backward recomputes
    /// score tiles from the saved log-sum-exp. `key_bias` (`[BH, Lk]`,
    /// flat) is added to every query row's scores and receives no
    /// gradient — it is the key-padding-mask channel.
    pub fn fused_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        key_bias: Option<Arc<Vec<f32>>>,
    ) -> Var {
        self.fused_attention_tiled(
            q,
            k,
            v,
            scale,
            key_bias,
            attention::DEFAULT_Q_TILE,
            attention::DEFAULT_K_TILE,
        )
    }

    /// [`Graph::fused_attention`] with explicit tile sizes (tests use tiny
    /// tiles to force ragged multi-tile traversals at small `L`).
    #[allow(clippy::too_many_arguments)]
    pub fn fused_attention_tiled(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        key_bias: Option<Arc<Vec<f32>>>,
        q_tile: usize,
        k_tile: usize,
    ) -> Var {
        let (qv, kv, vv) = (self.value(q), self.value(k), self.value(v));
        assert_eq!(qv.shape().rank(), 3, "fused_attention expects [BH, Lq, Dh] q");
        assert_eq!(kv.shape().rank(), 3, "fused_attention expects [BH, Lk, Dh] k");
        assert_eq!(kv.shape(), vv.shape(), "fused_attention k/v shape mismatch");
        let (bh, lq, dh) = (qv.shape().dim(0), qv.shape().dim(1), qv.shape().dim(2));
        let lk = kv.shape().dim(1);
        assert_eq!(kv.shape().dim(0), bh, "fused_attention batch-head mismatch");
        assert_eq!(kv.shape().dim(2), dh, "fused_attention head-dim mismatch");
        let mut out = vec![0.0f32; bh * lq * dh];
        let mut lse = vec![0.0f32; bh * lq];
        attention::fused_attention_forward(
            qv.data(),
            kv.data(),
            vv.data(),
            key_bias.as_ref().map(|b| b.as_slice()),
            bh,
            lq,
            lk,
            dh,
            scale,
            q_tile,
            k_tile,
            &mut out,
            &mut lse,
        );
        let value = Tensor::new(qv.shape().clone(), out);
        let rg = self.rg(q) || self.rg(k) || self.rg(v);
        let aux = Aux::Lse(Tensor::new([bh, lq], lse));
        self.push(
            value,
            Op::FusedAttention { q, k, v, scale, key_bias, q_tile, k_tile },
            rg,
            aux,
        )
    }

    /// Fused `gelu(x + b)` with `b` broadcast over `x`'s leading dims
    /// (same rule as [`Graph::badd`]): one traversal, one output buffer.
    pub fn bias_gelu(&mut self, x: Var, b: Var) -> Var {
        let (xv, bv) = (self.value(x), self.value(b));
        assert!(
            xv.shape().is_trailing_broadcast(bv.shape()),
            "bias_gelu: {} is not a trailing suffix of {}",
            bv.shape(),
            xv.shape()
        );
        let mut out = vec![0.0f32; xv.numel()];
        fused::bias_gelu_forward(xv.data(), bv.data(), &mut out);
        let value = Tensor::new(xv.shape().clone(), out);
        let rg = self.rg2(x, b);
        self.push(value, Op::BiasGelu { x, b }, rg, Aux::None)
    }

    // ------------------------------------------------------------- backward

    pub(crate) fn backward_op(&self, at: Var, op: &Op, g: &Tensor) -> Vec<(Var, Tensor)> {
        match op {
            Op::Leaf => Vec::new(),
            Op::Add(a, b) => vec![(*a, g.clone()), (*b, g.clone())],
            Op::Sub(a, b) => vec![(*a, g.clone()), (*b, g.scale(-1.0))],
            Op::Mul(a, b) => vec![
                (*a, g.mul(self.value(*b))),
                (*b, g.mul(self.value(*a))),
            ],
            Op::Div(a, b) => {
                let av = self.value(*a);
                let bv = self.value(*b);
                let ga = g.div(bv);
                let gb = g
                    .mul(av)
                    .zip_with(bv, |num, den| -num / (den * den));
                vec![(*a, ga), (*b, gb)]
            }
            Op::BAdd(a, b) => {
                let gb = reduce_leading(g, self.value(*b).shape());
                vec![(*a, g.clone()), (*b, gb)]
            }
            Op::BMul(a, b) => {
                let ga = broadcast_zip(g, self.value(*b), |x, y| x * y);
                let gxa = g.mul(self.value(*a)); // same shape as a
                let gb = reduce_leading(&gxa, self.value(*b).shape());
                vec![(*a, ga), (*b, gb)]
            }
            Op::Scale(a, c) => vec![(*a, g.scale(*c))],
            Op::AddScalar(a, _) => vec![(*a, g.clone())],
            Op::Relu(a) => {
                let gx = g.zip_with(self.value(*a), |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                vec![(*a, gx)]
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[at.0].value;
                let gx = g.zip_with(y, |gi, yi| gi * yi * (1.0 - yi));
                vec![(*a, gx)]
            }
            Op::Tanh(a) => {
                let y = &self.nodes[at.0].value;
                let gx = g.zip_with(y, |gi, yi| gi * (1.0 - yi * yi));
                vec![(*a, gx)]
            }
            Op::Exp(a) => {
                let y = &self.nodes[at.0].value;
                vec![(*a, g.mul(y))]
            }
            Op::Matmul(a, b) => self.matmul_backward(*a, *b, g),
            Op::TransposeLast(a) => vec![(*a, g.transpose_last())],
            Op::Reshape(a, old) => vec![(*a, g.reshape(old.clone()))],
            Op::Softmax(a) => {
                let y = &self.nodes[at.0].value;
                let (rows, cols) = y.shape().split_trailing(1);
                let mut gx = vec![0.0f32; y.numel()];
                for r in 0..rows {
                    let yr = &y.data()[r * cols..(r + 1) * cols];
                    let gr = &g.data()[r * cols..(r + 1) * cols];
                    let dot: f32 = yr.iter().zip(gr.iter()).map(|(yv, gv)| yv * gv).sum();
                    for ((o, &yv), &gv) in gx[r * cols..(r + 1) * cols]
                        .iter_mut()
                        .zip(yr.iter())
                        .zip(gr.iter())
                    {
                        *o = yv * (gv - dot);
                    }
                }
                vec![(*a, Tensor::new(y.shape().clone(), gx))]
            }
            Op::LayerNorm { x, gamma, beta, .. } => {
                self.layer_norm_backward(at, *x, *gamma, *beta, g)
            }
            Op::BatchNorm2d { x, gamma, beta, .. } => {
                self.batch_norm_backward(at, *x, *gamma, *beta, g)
            }
            Op::SumAll(a) => {
                let shape = self.value(*a).shape().clone();
                let gi = Tensor::full(shape, g.item());
                vec![(*a, gi)]
            }
            Op::MeanAll(a) => {
                let n = self.value(*a).numel() as f32;
                let shape = self.value(*a).shape().clone();
                let gi = Tensor::full(shape, g.item() / n);
                vec![(*a, gi)]
            }
            Op::SumAxis(a, axis) => {
                let xshape = self.value(*a).shape().clone();
                let dims = xshape.dims();
                let lead: usize = dims[..*axis].iter().product();
                let extent = dims[*axis];
                let trail: usize = dims[*axis + 1..].iter().product();
                let mut gx = vec![0.0f32; xshape.numel()];
                let gs = g.data();
                for l in 0..lead {
                    for e in 0..extent {
                        let base = (l * extent + e) * trail;
                        gx[base..base + trail].copy_from_slice(&gs[l * trail..(l + 1) * trail]);
                    }
                }
                vec![(*a, Tensor::new(xshape, gx))]
            }
            Op::GatherRows { x, indices, .. } => {
                let xshape = self.value(*x).shape().clone();
                let (_, d) = xshape.split_trailing(1);
                let mut gx = vec![0.0f32; xshape.numel()];
                for (grow, &i) in g.data().chunks_exact(d).zip(indices.iter()) {
                    let dst = &mut gx[i as usize * d..(i as usize + 1) * d];
                    for (dv, &gv) in dst.iter_mut().zip(grow.iter()) {
                        *dv += gv;
                    }
                }
                vec![(*x, Tensor::new(xshape, gx))]
            }
            Op::Concat { inputs, axis } => {
                let extents: Vec<usize> = inputs
                    .iter()
                    .map(|&v| self.value(v).shape().dim(*axis))
                    .collect();
                let parts = g.split(*axis, &extents);
                inputs.iter().copied().zip(parts).collect()
            }
            Op::Conv2d { x, w, b, geom } => {
                let (gx, gw, gb) =
                    conv::conv2d_backward(self.value(*x), self.value(*w), g, *geom);
                vec![(*x, gx), (*w, gw), (*b, gb)]
            }
            Op::ConvTranspose2d { x, w, b, geom } => {
                let (gx, gw, gb) =
                    conv::conv_transpose2d_backward(self.value(*x), self.value(*w), g, *geom);
                vec![(*x, gx), (*w, gw), (*b, gb)]
            }
            Op::MaxPool2d(x, _) => {
                let idx = match &self.nodes[at.0].aux {
                    Aux::PoolIdx(i) => i,
                    _ => unreachable!("maxpool node missing indices"),
                };
                let xshape = self.value(*x).shape().clone();
                let gx = pool::maxpool2d_backward(g, idx, xshape.numel());
                vec![(*x, Tensor::new(xshape, gx))]
            }
            Op::BceWithLogits { logits, targets } => {
                let x = self.value(*logits);
                let y = self.value(*targets);
                let n = x.numel() as f32;
                let gscale = g.item() / n;
                let gx = x.zip_with(y, |xi, yi| (sigmoid_fwd(xi) - yi) * gscale);
                vec![(*logits, gx)]
            }
            Op::SoftmaxCrossEntropy { logits, targets } => {
                let probs = match &self.nodes[at.0].aux {
                    Aux::Probs(p) => p,
                    _ => unreachable!("sce node missing probs"),
                };
                let (rows, cols) = probs.shape().split_trailing(1);
                let gscale = g.item() / rows as f32;
                let mut gx = probs.scale(gscale);
                {
                    let data = gx.data_mut();
                    for (r, &t) in targets.iter().enumerate() {
                        data[r * cols + t as usize] -= gscale;
                    }
                }
                vec![(*logits, gx)]
            }
            Op::FusedAttention { q, k, v, scale, key_bias, q_tile, k_tile } => {
                let lse = match &self.nodes[at.0].aux {
                    Aux::Lse(t) => t,
                    _ => unreachable!("fused attention node missing lse"),
                };
                let (qv, kv, vv) = (self.value(*q), self.value(*k), self.value(*v));
                let out = &self.nodes[at.0].value;
                let (bh, lq, dh) = (qv.shape().dim(0), qv.shape().dim(1), qv.shape().dim(2));
                let lk = kv.shape().dim(1);
                let mut dq = vec![0.0f32; qv.numel()];
                let mut dk = vec![0.0f32; kv.numel()];
                let mut dv = vec![0.0f32; vv.numel()];
                attention::fused_attention_backward(
                    qv.data(),
                    kv.data(),
                    vv.data(),
                    key_bias.as_ref().map(|b| b.as_slice()),
                    out.data(),
                    lse.data(),
                    g.data(),
                    bh,
                    lq,
                    lk,
                    dh,
                    *scale,
                    *q_tile,
                    *k_tile,
                    &mut dq,
                    &mut dk,
                    &mut dv,
                );
                vec![
                    (*q, Tensor::new(qv.shape().clone(), dq)),
                    (*k, Tensor::new(kv.shape().clone(), dk)),
                    (*v, Tensor::new(vv.shape().clone(), dv)),
                ]
            }
            Op::BiasGelu { x, b } => {
                let xv = self.value(*x);
                let bv = self.value(*b);
                let mut gx = vec![0.0f32; xv.numel()];
                fused::bias_gelu_backward(xv.data(), bv.data(), g.data(), &mut gx);
                let gx = Tensor::new(xv.shape().clone(), gx);
                let gb = reduce_leading(&gx, bv.shape());
                vec![(*x, gx), (*b, gb)]
            }
        }
    }

    fn matmul_backward(&self, a: Var, b: Var, g: &Tensor) -> Vec<(Var, Tensor)> {
        let av = self.value(a);
        let bv = self.value(b);
        let rb = bv.shape().rank();
        if rb == 2 {
            // a [.., m, k] x b [k, n]
            let bt = bv.transpose_last();
            let ga = gemm::matmul(g, &bt); // [.., m, k]
            let k = av.shape().dim(av.shape().rank() - 1);
            let n = bv.shape().dim(1);
            let (lead_m, _) = g.shape().split_trailing(1);
            let a2 = av.reshape([lead_m, k]);
            let g2 = g.reshape([lead_m, n]);
            let gb = gemm::matmul(&a2.transpose_last(), &g2);
            vec![(a, ga), (b, gb)]
        } else {
            let bt = bv.transpose_last();
            let ga = gemm::matmul(g, &bt);
            let at = av.transpose_last();
            let gb = gemm::matmul(&at, g);
            vec![(a, ga), (b, gb)]
        }
    }

    fn layer_norm_backward(
        &self,
        at: Var,
        x: Var,
        gamma: Var,
        beta: Var,
        g: &Tensor,
    ) -> Vec<(Var, Tensor)> {
        let xv = self.value(x);
        let (rows, d) = xv.shape().split_trailing(1);
        let (mean, invstd) = match &self.nodes[at.0].aux {
            Aux::Moments { mean, invstd } => (mean.data(), invstd.data()),
            _ => unreachable!("layer_norm node missing moments"),
        };
        let gv = self.value(gamma).data();
        let mut gx = vec![0.0f32; xv.numel()];
        let mut ggamma = vec![0.0f32; d];
        let mut gbeta = vec![0.0f32; d];
        let src = xv.data();
        let gs = g.data();
        for r in 0..rows {
            let (m, inv) = (mean[r], invstd[r]);
            let xr = &src[r * d..(r + 1) * d];
            let gr = &gs[r * d..(r + 1) * d];
            // xhat and dxhat for this row
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let xhat = (xr[j] - m) * inv;
                let dxhat = gr[j] * gv[j];
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * xhat;
                ggamma[j] += gr[j] * xhat;
                gbeta[j] += gr[j];
            }
            let dn = d as f32;
            for j in 0..d {
                let xhat = (xr[j] - m) * inv;
                let dxhat = gr[j] * gv[j];
                gx[r * d + j] = inv / dn * (dn * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
            }
        }
        vec![
            (x, Tensor::new(xv.shape().clone(), gx)),
            (gamma, Tensor::new([d], ggamma)),
            (beta, Tensor::new([d], gbeta)),
        ]
    }

    fn batch_norm_backward(
        &self,
        at: Var,
        x: Var,
        gamma: Var,
        beta: Var,
        g: &Tensor,
    ) -> Vec<(Var, Tensor)> {
        let xv = self.value(x);
        let d = xv.dims();
        let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
        let spatial = h * w;
        let n = (b * spatial) as f32;
        let (mean, invstd) = match &self.nodes[at.0].aux {
            Aux::Moments { mean, invstd } => (mean.data(), invstd.data()),
            _ => unreachable!("batch_norm node missing moments"),
        };
        let gv = self.value(gamma).data();
        let src = xv.data();
        let gs = g.data();
        let mut gx = vec![0.0f32; xv.numel()];
        let mut ggamma = vec![0.0f32; c];
        let mut gbeta = vec![0.0f32; c];
        for ch in 0..c {
            let (m, inv, gm) = (mean[ch], invstd[ch], gv[ch]);
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for bi in 0..b {
                let base = (bi * c + ch) * spatial;
                for j in 0..spatial {
                    let xhat = (src[base + j] - m) * inv;
                    let dxhat = gs[base + j] * gm;
                    sum_dxhat += dxhat;
                    sum_dxhat_xhat += dxhat * xhat;
                    ggamma[ch] += gs[base + j] * xhat;
                    gbeta[ch] += gs[base + j];
                }
            }
            for bi in 0..b {
                let base = (bi * c + ch) * spatial;
                for j in 0..spatial {
                    let xhat = (src[base + j] - m) * inv;
                    let dxhat = gs[base + j] * gm;
                    gx[base + j] = inv / n * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat);
                }
            }
        }
        vec![
            (x, Tensor::new(xv.shape().clone(), gx)),
            (gamma, Tensor::new([c], ggamma)),
            (beta, Tensor::new([c], gbeta)),
        ]
    }
}

#[inline]
fn sigmoid_fwd(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `out[i] = f(a[i], b[i % tile])` where `b` tiles over `a`'s leading dims.
fn broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let tile = b.numel();
    let data: Vec<f32> = a
        .data()
        .iter()
        .enumerate()
        .map(|(i, &x)| f(x, b.data()[i % tile]))
        .collect();
    Tensor::new(a.shape().clone(), data)
}

/// Sums `g` over its leading dims so the result has shape `suffix`.
fn reduce_leading(g: &Tensor, suffix: &Shape) -> Tensor {
    let tile = suffix.numel();
    let mut out = vec![0.0f32; tile];
    for (i, &v) in g.data().iter().enumerate() {
        out[i % tile] += v;
    }
    Tensor::new(suffix.clone(), out)
}
