//! Reusable neural-network layers over the autograd graph.
//!
//! Each layer owns [`crate::params::ParamId`]s into a shared
//! [`crate::params::ParamSet`] and exposes `forward(&self, g, bound, x)`.
//! Layers are constructed once (seeded init) and bound per training step.

use apf_tensor::init;
use apf_tensor::prelude::*;

use crate::params::{BoundParams, ParamId, ParamSet};

/// Fully-connected layer `y = x W + b` applied to the last dim.
pub struct Linear {
    w: ParamId,
    b: ParamId,
    /// Input feature count (for shape checking).
    pub in_dim: usize,
    /// Output feature count.
    pub out_dim: usize,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(ps: &mut ParamSet, name: &str, in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let w = ps.add(
            format!("{name}.w"),
            init::xavier_uniform([in_dim, out_dim], in_dim, out_dim, seed),
        );
        let b = ps.add(format!("{name}.b"), Tensor::zeros([out_dim]));
        Linear { w, b, in_dim, out_dim }
    }

    /// Applies the layer to `[.., in_dim]`.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        let y = g.matmul(x, bp.var(self.w));
        g.badd(y, bp.var(self.b))
    }

    /// Applies the layer followed by GELU as one fused `gelu(xW + b)` node
    /// (bias-add and activation share a single output buffer; the row loop,
    /// forward and backward, routes through the selected SIMD backend and,
    /// by contract, stays within a stated tolerance of the libm `tanh`
    /// form — see [`apf_tensor::kernels::backend::MicroKernelBackend::bias_gelu_row`]).
    pub fn forward_bias_gelu(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        let y = g.matmul(x, bp.var(self.w));
        g.bias_gelu(y, bp.var(self.b))
    }
}

/// Layer normalization over the last dim with learned affine.
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Unit-gamma zero-beta layer norm of width `dim`.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: ps.add(format!("{name}.gamma"), Tensor::ones([dim])),
            beta: ps.add(format!("{name}.beta"), Tensor::zeros([dim])),
            eps: 1e-5,
        }
    }

    /// Applies the normalization.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        g.layer_norm(x, bp.var(self.gamma), bp.var(self.beta), self.eps)
    }
}

/// Transformer feed-forward block: `Linear -> GELU -> Linear`.
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// MLP with hidden width `dim * ratio`.
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize, ratio: usize, seed: u64) -> Self {
        Mlp {
            fc1: Linear::new(ps, &format!("{name}.fc1"), dim, dim * ratio, seed),
            fc2: Linear::new(ps, &format!("{name}.fc2"), dim * ratio, dim, seed ^ 0x51),
        }
    }

    /// Applies the block. The first linear + GELU run as one fused node
    /// (see [`Linear::forward_bias_gelu`]).
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        let h = self.fc1.forward_bias_gelu(g, bp, x);
        self.fc2.forward(g, bp, h)
    }
}

/// 2D convolution layer (NCHW) with He init.
pub struct Conv2d {
    w: ParamId,
    b: ParamId,
    geom: ConvGeom,
}

impl Conv2d {
    /// He-initialized square conv.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        seed: u64,
    ) -> Self {
        let fan_in = in_ch * geom.kernel * geom.kernel;
        Conv2d {
            w: ps.add(
                format!("{name}.w"),
                init::he_normal([out_ch, in_ch, geom.kernel, geom.kernel], fan_in, seed),
            ),
            b: ps.add(format!("{name}.b"), Tensor::zeros([out_ch])),
            geom,
        }
    }

    /// Applies the convolution.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        g.conv2d(x, bp.var(self.w), bp.var(self.b), self.geom)
    }
}

/// 2D transposed convolution (learned upsampling).
pub struct ConvTranspose2d {
    w: ParamId,
    b: ParamId,
    geom: ConvGeom,
}

impl ConvTranspose2d {
    /// He-initialized transposed conv; weight layout `[Cin, Cout, K, K]`.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        geom: ConvGeom,
        seed: u64,
    ) -> Self {
        let fan_in = in_ch * geom.kernel * geom.kernel;
        ConvTranspose2d {
            w: ps.add(
                format!("{name}.w"),
                init::he_normal([in_ch, out_ch, geom.kernel, geom.kernel], fan_in, seed),
            ),
            b: ps.add(format!("{name}.b"), Tensor::zeros([out_ch])),
            geom,
        }
    }

    /// Applies the transposed convolution.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        g.conv_transpose2d(x, bp.var(self.w), bp.var(self.b), self.geom)
    }
}

/// Batch normalization over NCHW with running statistics for eval mode.
pub struct BatchNorm2d {
    gamma: ParamId,
    beta: ParamId,
    /// Running mean/var, updated outside the graph after each training
    /// forward (momentum 0.1). Interior mutability keeps `forward(&self)`.
    running: std::cell::RefCell<(Tensor, Tensor)>,
    eps: f32,
}

impl BatchNorm2d {
    /// Unit-gamma zero-beta batch norm over `ch` channels.
    pub fn new(ps: &mut ParamSet, name: &str, ch: usize) -> Self {
        BatchNorm2d {
            gamma: ps.add(format!("{name}.gamma"), Tensor::ones([ch])),
            beta: ps.add(format!("{name}.beta"), Tensor::zeros([ch])),
            running: std::cell::RefCell::new((Tensor::zeros([ch]), Tensor::ones([ch]))),
            eps: 1e-5,
        }
    }

    /// Training forward: batch statistics (+running update).
    pub fn forward_train(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        let y = g.batch_norm2d(x, bp.var(self.gamma), bp.var(self.beta), self.eps);
        if let Some((mean, var)) = g.batchnorm_moments(y) {
            let mut run = self.running.borrow_mut();
            run.0 = run.0.scale(0.9).add(&mean.scale(0.1));
            run.1 = run.1.scale(0.9).add(&var.scale(0.1));
        }
        y
    }

    /// Eval forward: normalize with running statistics (pure affine map).
    pub fn forward_eval(&self, g: &mut Graph, bp: &BoundParams, x: Var) -> Var {
        let (mean, var) = self.running.borrow().clone();
        let d = g.value(x).dims().to_vec();
        let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
        // Per-channel affine: y = (x - m) / sqrt(v + eps) * gamma + beta.
        // Expressed with trailing broadcast over [C, H*W] by moving channels
        // last is awkward; instead fold scale/shift into constants per map.
        let inv: Vec<f32> = var.data().iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let scale_map = Tensor::new(
            [c, h * w],
            inv.iter().flat_map(|&s| std::iter::repeat_n(s, h * w)).collect::<Vec<_>>(),
        );
        let shift_map = Tensor::new(
            [c, h * w],
            mean.data()
                .iter()
                .zip(inv.iter())
                .flat_map(|(&m, &s)| std::iter::repeat_n(-m * s, h * w))
                .collect::<Vec<_>>(),
        );
        let xf = g.reshape(x, [b, c, h * w]);
        let sc = g.constant(scale_map);
        let sh = g.constant(shift_map);
        let y = g.bmul(xf, sc);
        let y = g.badd(y, sh);
        // Affine gamma/beta per channel (tiled as constants: eval mode does
        // not train, so no gradient path is needed here).
        let gamma = bp.var(self.gamma);
        let beta = bp.var(self.beta);
        let gtile: Vec<f32> = g
            .value(gamma)
            .data()
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, h * w))
            .collect();
        let btile: Vec<f32> = g
            .value(beta)
            .data()
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, h * w))
            .collect();
        let gt = g.constant(Tensor::new([c, h * w], gtile));
        let bt = g.constant(Tensor::new([c, h * w], btile));
        let y = g.bmul(y, gt);
        let y = g.badd(y, bt);
        g.reshape(y, [b, c, h, w])
    }
}

/// `Conv -> BatchNorm -> ReLU`, the standard U-Net building block.
pub struct ConvBnRelu {
    conv: Conv2d,
    bn: BatchNorm2d,
}

impl ConvBnRelu {
    /// 3x3 same-padding conv block.
    pub fn new(ps: &mut ParamSet, name: &str, in_ch: usize, out_ch: usize, seed: u64) -> Self {
        ConvBnRelu {
            conv: Conv2d::new(
                ps,
                &format!("{name}.conv"),
                in_ch,
                out_ch,
                ConvGeom { kernel: 3, stride: 1, pad: 1 },
                seed,
            ),
            bn: BatchNorm2d::new(ps, &format!("{name}.bn"), out_ch),
        }
    }

    /// Applies conv + norm (train/eval) + ReLU.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, x: Var, train: bool) -> Var {
        let y = self.conv.forward(g, bp, x);
        let y = if train {
            self.bn.forward_train(g, bp, y)
        } else {
            self.bn.forward_eval(g, bp, y)
        };
        g.relu(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_and_bias() {
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 4, 3, 1);
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::zeros([2, 5, 4]));
        let y = lin.forward(&mut g, &bp, x);
        assert_eq!(g.value(y).dims(), &[2, 5, 3]);
        // Zero input -> output equals bias (zero).
        assert!(g.value(y).to_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mlp_backward_reaches_all_params() {
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(&mut ps, "m", 4, 2, 3);
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::rand_uniform([2, 4], -1.0, 1.0, 5));
        let y = mlp.forward(&mut g, &bp, x);
        let sq = g.mul(y, y);
        let l = g.mean_all(sq);
        g.backward(l);
        for (_, v) in bp.iter() {
            assert!(g.grad(v).is_some());
        }
    }

    #[test]
    fn conv_block_shapes() {
        let mut ps = ParamSet::new();
        let blk = ConvBnRelu::new(&mut ps, "c", 2, 5, 7);
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::rand_uniform([2, 2, 8, 8], -1.0, 1.0, 9));
        let y = blk.forward(&mut g, &bp, x, true);
        assert_eq!(g.value(y).dims(), &[2, 5, 8, 8]);
        // ReLU output is non-negative.
        assert!(g.value(y).min() >= 0.0);
    }

    #[test]
    fn batchnorm_eval_matches_train_statistics_at_convergence() {
        // After feeding the same batch many times, running stats converge to
        // batch stats, so eval ≈ train output.
        let mut ps = ParamSet::new();
        let bn = BatchNorm2d::new(&mut ps, "bn", 3);
        let x = Tensor::rand_uniform([4, 3, 5, 5], -2.0, 2.0, 11);
        let mut train_out = None;
        for _ in 0..200 {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let xv = g.constant(x.clone());
            let y = bn.forward_train(&mut g, &bp, xv);
            train_out = Some(g.value(y).clone());
        }
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let xv = g.constant(x.clone());
        let y = bn.forward_eval(&mut g, &bp, xv);
        let eval_out = g.value(y).clone();
        let t = train_out.unwrap();
        let max_diff = t
            .data()
            .iter()
            .zip(eval_out.data().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 0.05, "train/eval mismatch {}", max_diff);
    }

    #[test]
    fn conv_transpose_upsamples_2x() {
        let mut ps = ParamSet::new();
        let up = ConvTranspose2d::new(
            &mut ps,
            "up",
            4,
            2,
            ConvGeom { kernel: 2, stride: 2, pad: 0 },
            13,
        );
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = g.constant(Tensor::rand_uniform([1, 4, 3, 3], -1.0, 1.0, 15));
        let y = up.forward(&mut g, &bp, x);
        assert_eq!(g.value(y).dims(), &[1, 2, 6, 6]);
    }
}
