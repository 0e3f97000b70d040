//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Graph`] is a tape of `Node`s created in topological order; every op
//! constructor ([`Graph::matmul`], [`Graph::conv2d`], ...) appends a node and
//! returns a lightweight [`Var`] handle. [`Graph::backward`] walks the tape in
//! reverse, accumulating gradients into each node.
//!
//! The op set is an explicit IR (see [`Op`]) rather than stored closures:
//! every backward rule lives in one `match`, which keeps the engine easy to
//! audit and lets the test suite check each rule against finite differences
//! (see [`crate::gradcheck`]).
//!
//! Graphs are intentionally cheap and short-lived: a training step builds a
//! fresh graph, runs forward + backward, reads out parameter gradients, and
//! drops the graph. Tensors share storage via `Arc`, so binding parameters as
//! leaves each step copies nothing.

mod ops;

use std::sync::Arc;

use crate::kernels::conv::ConvGeom;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`]. Only valid for the graph that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// The operation that produced a node. Inputs are [`Var`]s into the same tape.
#[derive(Clone, Debug)]
pub enum Op {
    /// Input node (parameter or data); has no inputs.
    Leaf,
    /// Elementwise `a + b`, identical shapes.
    Add(Var, Var),
    /// Elementwise `a - b`, identical shapes.
    Sub(Var, Var),
    /// Elementwise `a * b`, identical shapes.
    Mul(Var, Var),
    /// Elementwise `a / b`, identical shapes.
    Div(Var, Var),
    /// `a + b` where `b`'s shape equals a trailing suffix of `a`'s (tiled).
    BAdd(Var, Var),
    /// `a * b` with the same trailing-suffix broadcast as [`Op::BAdd`].
    BMul(Var, Var),
    /// `a * c` for a compile-time scalar.
    Scale(Var, f32),
    /// `a + c` for a compile-time scalar.
    AddScalar(Var, f32),
    /// Elementwise `max(a, 0)`.
    Relu(Var),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise hyperbolic tangent.
    Tanh(Var),
    /// Elementwise exponential.
    Exp(Var),
    /// Batched matrix multiply (see [`crate::kernels::gemm::matmul`]).
    Matmul(Var, Var),
    /// Swap the last two dims.
    TransposeLast(Var),
    /// View under a new shape (stores the input shape for backward).
    Reshape(Var, Shape),
    /// Row-wise softmax over the last dim.
    Softmax(Var),
    /// Layer normalization over the last dim: `(x, gamma, beta)`.
    LayerNorm { x: Var, gamma: Var, beta: Var, eps: f32 },
    /// Batch normalization over `(B, H, W)` per channel: `(x, gamma, beta)`.
    BatchNorm2d { x: Var, gamma: Var, beta: Var, eps: f32 },
    /// Sum of all elements, producing a scalar.
    SumAll(Var),
    /// Mean of all elements, producing a scalar.
    MeanAll(Var),
    /// Sum over one axis (removing it).
    SumAxis(Var, usize),
    /// Row gather: input viewed as `[R, D]` (D = last dim), select rows.
    GatherRows { x: Var, indices: Arc<Vec<u32>>, out_shape: Shape },
    /// Concatenate along `axis`.
    Concat { inputs: Vec<Var>, axis: usize },
    /// 2D convolution `(x, w, b)` in NCHW.
    Conv2d { x: Var, w: Var, b: Var, geom: ConvGeom },
    /// 2D transposed convolution `(x, w, b)` in NCHW.
    ConvTranspose2d { x: Var, w: Var, b: Var, geom: ConvGeom },
    /// Non-overlapping max-pool with window `k`.
    MaxPool2d(Var, usize),
    /// Numerically-stable mean binary-cross-entropy on logits.
    BceWithLogits { logits: Var, targets: Var },
    /// Mean softmax cross-entropy on logits viewed as `[R, C]` with integer
    /// class targets.
    SoftmaxCrossEntropy { logits: Var, targets: Arc<Vec<u32>> },
    /// Streaming scaled-dot-product attention over `[BH, Lq, Dh]` q and
    /// `[BH, Lk, Dh]` k/v, never materializing the `Lq x Lk` scores.
    /// `key_bias` (`[BH, Lk]`, not differentiated) is the key-padding mask
    /// as an additive score bias. Backward recomputes score tiles from the
    /// log-sum-exp saved in its `Aux::Lse` side output.
    FusedAttention {
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        key_bias: Option<Arc<Vec<f32>>>,
        q_tile: usize,
        k_tile: usize,
    },
    /// Fused `gelu(x + b)` with the trailing-suffix broadcast of
    /// [`Op::BAdd`].
    BiasGelu { x: Var, b: Var },
}

/// Saved forward-pass byproducts needed by some backward rules.
#[derive(Clone)]
pub(crate) enum Aux {
    None,
    /// Argmax offsets from max-pool.
    PoolIdx(Arc<Vec<u32>>),
    /// Per-row mean and inverse stddev (layer/batch norm).
    Moments { mean: Tensor, invstd: Tensor },
    /// Row-wise softmax probabilities (cross-entropy).
    Probs(Tensor),
    /// Per-query-row log-sum-exp of the attention scores (`[BH, Lq]`),
    /// saved by [`Op::FusedAttention`] so backward can recompute any score
    /// tile's probabilities as `exp(s - lse)`.
    Lse(Tensor),
}

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
    pub requires_grad: bool,
    pub aux: Aux,
}

/// A reverse-mode autodiff tape.
#[derive(Default)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a differentiable leaf (e.g. a model parameter).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true, Aux::None)
    }

    /// Inserts a non-differentiable leaf (e.g. input data or a target).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false, Aux::None)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The forward value of the node at tape position `index` (for
    /// inspection/telemetry; prefer [`Graph::value`] with a `Var`).
    pub fn node_value(&self, index: usize) -> &Tensor {
        &self.nodes[index].value
    }

    /// The accumulated gradient of `v`, if backward has reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Removes and returns the gradient of `v`.
    pub fn take_grad(&mut self, v: Var) -> Option<Tensor> {
        self.nodes[v.0].grad.take()
    }

    /// Saved batch moments of a [`Op::BatchNorm2d`] node: `(mean, var)` per
    /// channel — used by layers to maintain running statistics.
    pub fn batchnorm_moments(&self, v: Var) -> Option<(Tensor, Tensor)> {
        match &self.nodes[v.0].aux {
            Aux::Moments { mean, invstd } => {
                let var = invstd.map(|s| 1.0 / (s * s));
                Some((mean.clone(), var))
            }
            _ => None,
        }
    }

    pub(crate) fn push(&mut self, value: Tensor, op: Op, requires_grad: bool, aux: Aux) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
            aux,
        });
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn rg(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    fn accumulate(&mut self, v: Var, g: Tensor) {
        debug_assert_eq!(
            g.shape(),
            self.nodes[v.0].value.shape(),
            "gradient shape mismatch for node {} ({:?})",
            v.0,
            self.nodes[v.0].op
        );
        match &mut self.nodes[v.0].grad {
            Some(acc) => acc.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs reverse-mode differentiation from `root`, which is seeded with a
    /// gradient of ones (so for a scalar loss this computes `dL/dx` for every
    /// differentiable node).
    pub fn backward(&mut self, root: Var) {
        let seed = Tensor::ones(self.nodes[root.0].value.shape().clone());
        self.accumulate(root, seed);
        for i in (0..=root.0).rev() {
            if self.nodes[i].grad.is_none() || matches!(self.nodes[i].op, Op::Leaf) {
                continue;
            }
            let op = self.nodes[i].op.clone();
            let grad = self.nodes[i].grad.clone().expect("checked above");
            let contributions = self.backward_op(Var(i), &op, &grad);
            for (v, g) in contributions {
                // Subgraphs with no differentiable leaves have
                // requires_grad=false and are pruned here.
                if self.nodes[v.0].requires_grad {
                    self.accumulate(v, g);
                }
            }
        }
    }
}
