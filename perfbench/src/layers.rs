//! Standalone timings of each layer's public functions, for the traced run.
//!
//! Every probe calls the same public function the serving, stitching or
//! training path calls, at the dimensions the workload served, and reports
//! the median of repeated calls. Probes run after the measured window, so
//! they never compete with the workload for the two cores.

use std::hint::black_box;
use std::time::{Duration, Instant};

use apf_core::patchify::extract_patches;
use apf_core::pipeline::PatcherConfig;
use apf_core::quadtree::QuadTree;
use apf_imaging::canny::canny;
use apf_imaging::filter::gaussian_blur;
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::layers::{Linear, Mlp};
use apf_models::params::ParamSet;
use apf_models::transformer::MultiHeadAttention;
use apf_models::vit::{PatchEmbed, ViTConfig, ViTSegmenter};
use apf_tensor::kernels::attention::{fused_attention_forward, DEFAULT_K_TILE, DEFAULT_Q_TILE};
use apf_tensor::kernels::gemm::gemm;
use apf_tensor::prelude::*;

use crate::report::Values;
use crate::stats::median;

/// Wall-clock budget of one probe's repetitions.
const PROBE_BUDGET: Duration = Duration::from_millis(60);

/// Median milliseconds of `f` over repeated calls: at least 3, then more
/// until [`PROBE_BUDGET`] is spent (at most 200).
pub fn time_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (start.elapsed() < PROBE_BUDGET && samples.len() < 200) {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// How a path enforces its token budget.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Drop down to the budget when longer, keep shorter sequences (serving).
    AtMost(usize),
    /// Pad or drop to exactly this length (stitching, training).
    Exactly(usize),
}

/// Blur, Canny, quadtree, extract and budget on each image, with the
/// patcher configuration the serving path derives from the image size.
pub fn core_probe(images: &[GrayImage], pm: usize, budget: Budget, values: &mut Values) {
    let (mut blur, mut edge, mut tree_ms, mut extract, mut budget_ms) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut leaves, mut tokens, mut rate) = (vec![], vec![], vec![]);
    for img in images {
        let cfg = PatcherConfig::for_resolution(img.width()).with_patch_size(pm);
        let blurred = gaussian_blur(img, cfg.kernel, cfg.sigma);
        let edges = canny(&blurred, cfg.canny);
        let tree = QuadTree::try_build(&edges, &cfg.quadtree).expect("benchmark inputs are valid");
        let seq = extract_patches(img, &tree.leaves, pm);
        let (target, served) = match budget {
            Budget::AtMost(b) => (b, seq.len().min(b)),
            Budget::Exactly(b) => (b, b),
        };
        let b = time_ms(|| gaussian_blur(img, cfg.kernel, cfg.sigma));
        let c = time_ms(|| canny(&blurred, cfg.canny));
        let q = time_ms(|| QuadTree::try_build(&edges, &cfg.quadtree));
        let e = time_ms(|| extract_patches(img, &tree.leaves, pm));
        budget_ms.push(time_ms(|| seq.fixed_length(target, 1)));
        leaves.push(tree.leaves.len() as f64);
        tokens.push(served as f64);
        rate.push((img.width() * img.height()) as f64 / ((b + c + q + e) * 1e-3) / 1e6);
        blur.push(b);
        edge.push(c);
        tree_ms.push(q);
        extract.push(e);
    }
    values.insert("core.blur_ms", median(&blur));
    values.insert("core.canny_ms", median(&edge));
    values.insert("core.quadtree_ms", median(&tree_ms));
    values.insert("core.extract_ms", median(&extract));
    values.insert("core.budget_ms", median(&budget_ms));
    values.insert("core.leaves", median(&leaves));
    values.insert("core.tokens", median(&tokens));
    values.insert("core.mpix_per_s", median(&rate));
}

/// Shapes the model probes run at.
#[derive(Debug, Clone, Copy)]
pub struct ModelDims {
    /// Model width `D`.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Input token width `P_m²`.
    pub patch_dim: usize,
    /// Positional-table length of the served model.
    pub seq_len: usize,
    /// Tokens per sample actually served.
    pub tokens: usize,
    /// Samples per forward.
    pub batch: usize,
}

fn constant(g: &mut Graph, dims: [usize; 3], seed: u64) -> Var {
    g.constant(Tensor::rand_uniform(dims, -1.0, 1.0, seed))
}

/// Times `forward` on a fresh graph per call; only the forward is inside
/// the timed region.
fn time_layer(
    ps: &ParamSet,
    input: [usize; 3],
    forward: impl Fn(&mut Graph, &apf_models::BoundParams, Var) -> Var,
) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || (start.elapsed() < PROBE_BUDGET && samples.len() < 200) {
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let x = constant(&mut g, input, 5);
        let t0 = Instant::now();
        let y = forward(&mut g, &bp, x);
        black_box(g.value(y));
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Patch embedding, attention, MLP and head standalone, plus the raw GEMM
/// and fused-attention kernels, at the served dimensions.
pub fn layer_probe(d: ModelDims, values: &mut Values) {
    let (b, l, dim) = (d.batch.max(1), d.tokens.max(1), d.dim);
    let cfg = ViTConfig {
        patch_dim: d.patch_dim,
        seq_len: d.seq_len,
        dim,
        depth: 1,
        heads: d.heads,
    };
    let mut ps = ParamSet::new();
    let embed = PatchEmbed::new(&mut ps, "embed", &cfg, 1);
    let attn = MultiHeadAttention::new(&mut ps, "attn", dim, d.heads, 2);
    let mlp = Mlp::new(&mut ps, "mlp", dim, 4, 3);
    let head = Linear::new(&mut ps, "head", dim, d.patch_dim, 4);
    let embed_ms = time_layer(&ps, [b, l, d.patch_dim], |g, bp, x| {
        embed.forward_prefix(g, bp, x)
    });
    let attn_ms = time_layer(&ps, [b, l, dim], |g, bp, x| attn.forward(g, bp, x));
    let mlp_ms = time_layer(&ps, [b, l, dim], |g, bp, x| mlp.forward(g, bp, x));
    let head_ms = time_layer(&ps, [b, l, dim], |g, bp, x| head.forward(g, bp, x));
    let (bf, lf, df) = (b as f64, l as f64, dim as f64);
    // Q, K, V and output projections plus the two L x L products.
    let attn_flops = 8.0 * bf * lf * df * df + 4.0 * bf * lf * lf * df;
    // D -> 4D -> D.
    let mlp_flops = 16.0 * bf * lf * df * df;
    values.insert("models.embed_ms", embed_ms);
    values.insert("models.attn_ms", attn_ms);
    values.insert("models.mlp_ms", mlp_ms);
    values.insert("models.head_ms", head_ms);
    values.insert("models.attn_gflops", attn_flops / (attn_ms * 1e-3) / 1e9);
    values.insert("models.mlp_gflops", mlp_flops / (mlp_ms * 1e-3) / 1e9);

    let m = b * l;
    let a = Tensor::rand_uniform([m, dim], -1.0, 1.0, 6).to_vec();
    for (name, n) in [
        ("tensor.gemm_qkv_gflops", dim),
        ("tensor.gemm_mlp_gflops", 4 * dim),
    ] {
        let w = Tensor::rand_uniform([dim, n], -1.0, 1.0, 7).to_vec();
        let mut c = vec![0.0f32; m * n];
        let ms = time_ms(|| gemm(&a, &w, &mut c, m, dim, n));
        values.insert(name, 2.0 * (m * dim * n) as f64 / (ms * 1e-3) / 1e9);
    }
    let dh = dim / d.heads;
    let bh = b * d.heads;
    let q = Tensor::rand_uniform([bh * l * dh], -1.0, 1.0, 8).to_vec();
    let k = Tensor::rand_uniform([bh * l * dh], -1.0, 1.0, 9).to_vec();
    let v = Tensor::rand_uniform([bh * l * dh], -1.0, 1.0, 10).to_vec();
    let mut out = vec![0.0f32; bh * l * dh];
    let mut lse = vec![0.0f32; bh * l];
    let scale = 1.0 / (dh as f32).sqrt();
    let ms = time_ms(|| {
        fused_attention_forward(
            &q,
            &k,
            &v,
            None,
            bh,
            l,
            l,
            dh,
            scale,
            DEFAULT_Q_TILE,
            DEFAULT_K_TILE,
            &mut out,
            &mut lse,
        )
    });
    values.insert("tensor.attn_kernel_ms", ms);
}

/// Parameter binding and the served solo forward of `model` on `tokens`
/// real tokens.
pub fn forward_probe(model: &ViTSegmenter, patch_dim: usize, tokens: usize, values: &mut Values) {
    let bind_ms = time_ms(|| {
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        (g, bp)
    });
    let input = Tensor::rand_uniform([1, tokens.max(1), patch_dim], 0.0, 1.0, 11);
    let forward_ms = time_ms(|| {
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(input.clone());
        let y = model
            .forward_cancellable(&mut g, &bp, x, &CancelToken::new())
            .expect("no deadline");
        g.value(y).data().len()
    }) - bind_ms;
    values.insert("models.bind_ms", bind_ms);
    values.insert("models.forward_ms", forward_ms.max(0.0));
}

/// Per-request cost of the padded batched forward at `batch` requests of
/// `tokens` tokens (the occupancy the scheduler reached).
pub fn batched_forward_probe(
    model: &ViTSegmenter,
    patch_dim: usize,
    tokens: usize,
    batch: usize,
    values: &mut Values,
) {
    let b = batch.max(1);
    let input = Tensor::rand_uniform([b, tokens.max(1), patch_dim], 0.0, 1.0, 12);
    let ms = time_ms(|| {
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(input.clone());
        let y = model.forward_batched(&mut g, &bp, x, None);
        g.value(y).data().len()
    });
    values.insert("models.forward_b_ms", ms / b as f64);
}
