//! Vanilla Vision Transformer: patch embedding, encoder, and heads.
//!
//! Works identically on uniform-grid sequences and APF sequences — the model
//! never knows which patching produced its tokens. That interchangeability
//! is the paper's central design claim.

use std::sync::Arc;

use apf_tensor::init;
use apf_tensor::prelude::*;

use crate::cancel::{CancelToken, Cancelled};
use crate::layers::{LayerNorm, Linear};
use crate::params::{BoundParams, ParamId, ParamSet};
use crate::transformer::TransformerEncoder;

/// Hyper-parameters shared by the ViT variants.
#[derive(Debug, Clone, Copy)]
pub struct ViTConfig {
    /// Flattened patch length `P_m * P_m` (input token width).
    pub patch_dim: usize,
    /// Sequence length `L` the positional table is sized for.
    pub seq_len: usize,
    /// Model width `D`.
    pub dim: usize,
    /// Encoder depth.
    pub depth: usize,
    /// Attention heads.
    pub heads: usize,
}

impl ViTConfig {
    /// A small configuration suitable for CPU training in tests/benches.
    pub fn tiny(patch_dim: usize, seq_len: usize) -> Self {
        ViTConfig { patch_dim, seq_len, dim: 32, depth: 2, heads: 4 }
    }

    /// A small-but-capable configuration used by the experiment harness.
    pub fn small(patch_dim: usize, seq_len: usize) -> Self {
        ViTConfig { patch_dim, seq_len, dim: 64, depth: 4, heads: 4 }
    }
}

/// Linear patch embedding plus learned positional embedding.
pub struct PatchEmbed {
    proj: Linear,
    pos: ParamId,
    /// Token width after embedding.
    pub dim: usize,
    /// Maximum sequence length.
    pub seq_len: usize,
}

impl PatchEmbed {
    /// Creates the embedding for `cfg`.
    pub fn new(ps: &mut ParamSet, name: &str, cfg: &ViTConfig, seed: u64) -> Self {
        PatchEmbed {
            proj: Linear::new(ps, &format!("{name}.proj"), cfg.patch_dim, cfg.dim, seed),
            pos: ps.add(
                format!("{name}.pos"),
                init::trunc_normal([cfg.seq_len, cfg.dim], 0.02, seed ^ 0x90),
            ),
            dim: cfg.dim,
            seq_len: cfg.seq_len,
        }
    }

    /// `[B, L, patch_dim]` -> `[B, L, D]` with positions added.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var) -> Var {
        let dims = g.value(tokens).dims().to_vec();
        assert_eq!(dims.len(), 3, "tokens must be [B, L, patch_dim]");
        assert_eq!(dims[1], self.seq_len, "sequence length mismatch with positional table");
        let x = self.proj.forward(g, bp, tokens);
        g.badd(x, bp.var(self.pos))
    }

    /// Like [`PatchEmbed::forward`] but accepts any `l <= seq_len`, adding
    /// only the first `l` rows of the positional table. This is what lets a
    /// degraded serving tier run a *shorter* sequence through the same
    /// weights (PAUMER-style latency/quality trade) instead of padding back
    /// up to `L` and paying full quadratic attention.
    pub fn forward_prefix(&self, g: &mut Graph, bp: &BoundParams, tokens: Var) -> Var {
        let dims = g.value(tokens).dims().to_vec();
        assert_eq!(dims.len(), 3, "tokens must be [B, l, patch_dim]");
        let l = dims[1];
        assert!(l <= self.seq_len, "sequence longer than positional table");
        let x = self.proj.forward(g, bp, tokens);
        if l == self.seq_len {
            return g.badd(x, bp.var(self.pos));
        }
        let idx: Arc<Vec<u32>> = Arc::new((0..l as u32).collect());
        let pos_prefix = g.gather_rows(bp.var(self.pos), idx, [l, self.dim]);
        g.badd(x, pos_prefix)
    }
}

/// ViT classifier: embed -> encode -> mean-pool -> linear head.
pub struct ViTClassifier {
    /// Owned parameters.
    pub params: ParamSet,
    embed: PatchEmbed,
    encoder: TransformerEncoder,
    head: Linear,
    norm: LayerNorm,
}

impl ViTClassifier {
    /// Builds a classifier with `classes` output logits.
    pub fn new(cfg: ViTConfig, classes: usize, seed: u64) -> Self {
        let mut ps = ParamSet::new();
        let embed = PatchEmbed::new(&mut ps, "embed", &cfg, seed);
        let encoder = TransformerEncoder::new(&mut ps, "enc", cfg.dim, cfg.depth, cfg.heads, seed ^ 0x11);
        let norm = LayerNorm::new(&mut ps, "head_norm", cfg.dim);
        let head = Linear::new(&mut ps, "head", cfg.dim, classes, seed ^ 0x22);
        ViTClassifier { params: ps, embed, encoder, head, norm }
    }

    /// `[B, L, patch_dim]` tokens -> `[B, classes]` logits.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var) -> Var {
        let x = self.embed.forward(g, bp, tokens);
        let x = self.encoder.forward(g, bp, x);
        let pooled = g.mean_axis(x, 1); // [B, D]
        let pooled = self.norm.forward(g, bp, pooled);
        self.head.forward(g, bp, pooled)
    }
}

/// ViT segmenter: embed -> encode -> per-token linear head predicting a
/// `P_m x P_m` logit block per token (the "any transformer" baseline for
/// APF segmentation).
pub struct ViTSegmenter {
    /// Owned parameters.
    pub params: ParamSet,
    embed: PatchEmbed,
    encoder: TransformerEncoder,
    head: Linear,
}

impl ViTSegmenter {
    /// Builds a per-token segmenter; output width equals `cfg.patch_dim`.
    pub fn new(cfg: ViTConfig, seed: u64) -> Self {
        let mut ps = ParamSet::new();
        let embed = PatchEmbed::new(&mut ps, "embed", &cfg, seed);
        let encoder = TransformerEncoder::new(&mut ps, "enc", cfg.dim, cfg.depth, cfg.heads, seed ^ 0x33);
        let head = Linear::new(&mut ps, "seg_head", cfg.dim, cfg.patch_dim, seed ^ 0x44);
        ViTSegmenter { params: ps, embed, encoder, head }
    }

    /// `[B, L, patch_dim]` tokens -> `[B, L, patch_dim]` per-pixel logits.
    pub fn forward(&self, g: &mut Graph, bp: &BoundParams, tokens: Var) -> Var {
        let x = self.embed.forward(g, bp, tokens);
        let x = self.encoder.forward(g, bp, x);
        self.head.forward(g, bp, x)
    }

    /// Serving inference: `[B, l, patch_dim]` tokens from `B` independent
    /// requests, zero-padded to a common `l <= seq_len` (prefix positional
    /// embedding), with one key-padding mask row per request
    /// (`mask[b][t] == false` marks padding) and `cancel` checked between
    /// encoder blocks. Row `b`'s real tokens equal request `b`'s solo
    /// output (bit-exact at `B == 1` with no padding; within float
    /// tolerance otherwise — padded rows are garbage the caller slices off).
    pub fn forward_masked(
        &self,
        g: &mut Graph,
        bp: &BoundParams,
        tokens: Var,
        key_mask: Option<&[Vec<bool>]>,
        cancel: &CancelToken,
    ) -> Result<Var, Cancelled> {
        let x = self.embed.forward_prefix(g, bp, tokens);
        let x = self.encoder.forward_masked(g, bp, x, key_mask, cancel)?;
        Ok(self.head.forward(g, bp, x))
    }

    /// [`ViTSegmenter::forward_masked`] without a deadline.
    pub fn forward_batched(
        &self,
        g: &mut Graph,
        bp: &BoundParams,
        tokens: Var,
        key_mask: Option<&[Vec<bool>]>,
    ) -> Var {
        self.forward_masked(g, bp, tokens, key_mask, &CancelToken::new()).expect("never cancels")
    }

    /// [`ViTSegmenter::forward_masked`] for one unpadded request.
    pub fn forward_cancellable(
        &self,
        g: &mut Graph,
        bp: &BoundParams,
        tokens: Var,
        cancel: &CancelToken,
    ) -> Result<Var, Cancelled> {
        self.forward_masked(g, bp, tokens, None, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_output_shape() {
        let cfg = ViTConfig::tiny(16, 8);
        let model = ViTClassifier::new(cfg, 6, 1);
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let toks = g.constant(Tensor::rand_uniform([3, 8, 16], -1.0, 1.0, 2));
        let out = model.forward(&mut g, &bp, toks);
        assert_eq!(g.value(out).dims(), &[3, 6]);
    }

    #[test]
    fn segmenter_output_matches_token_layout() {
        let cfg = ViTConfig::tiny(16, 10);
        let model = ViTSegmenter::new(cfg, 3);
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let toks = g.constant(Tensor::rand_uniform([2, 10, 16], -1.0, 1.0, 4));
        let out = model.forward(&mut g, &bp, toks);
        assert_eq!(g.value(out).dims(), &[2, 10, 16]);
    }

    #[test]
    fn positions_break_permutation_symmetry() {
        // Unlike bare attention, a ViT with positional embeddings must NOT
        // be permutation equivariant.
        let cfg = ViTConfig::tiny(4, 3);
        let model = ViTSegmenter::new(cfg, 5);
        let x = Tensor::rand_uniform([1, 3, 4], -1.0, 1.0, 6);
        let mut perm = x.to_vec();
        for i in 0..4 {
            perm.swap(i, 4 + i);
        }
        let xp = Tensor::new([1, 3, 4], perm);
        let run = |input: Tensor| {
            let mut g = Graph::new();
            let bp = model.params.bind(&mut g);
            let xv = g.constant(input);
            let y = model.forward(&mut g, &bp, xv);
            g.value(y).to_vec()
        };
        let y = run(x);
        let yp = run(xp);
        // Output token 0 under permutation differs from output token 1
        // without it (positions matter).
        let diff: f32 = (0..4).map(|i| (y[4 + i] - yp[i]).abs()).sum();
        assert!(diff > 1e-4, "positional embedding had no effect");
    }

    #[test]
    fn cancellable_forward_matches_plain_forward_at_full_length() {
        let cfg = ViTConfig::tiny(16, 10);
        let model = ViTSegmenter::new(cfg, 3);
        let x = Tensor::rand_uniform([2, 10, 16], -1.0, 1.0, 4);
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let xv = g.constant(x.clone());
        let plain = model.forward(&mut g, &bp, xv);
        let xv2 = g.constant(x);
        let cancellable = model
            .forward_cancellable(&mut g, &bp, xv2, &CancelToken::new())
            .unwrap();
        let bits = |v: Var| g.value(v).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(plain), bits(cancellable));
    }

    #[test]
    fn cancellable_forward_accepts_shorter_sequences() {
        let cfg = ViTConfig::tiny(16, 12);
        let model = ViTSegmenter::new(cfg, 5);
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let toks = g.constant(Tensor::rand_uniform([1, 5, 16], -1.0, 1.0, 6));
        let out = model
            .forward_cancellable(&mut g, &bp, toks, &CancelToken::new())
            .unwrap();
        assert_eq!(g.value(out).dims(), &[1, 5, 16]);
    }

    #[test]
    fn prefix_positions_match_full_table_rows() {
        // The short-sequence path must use the *same* leading positional
        // rows as the full path, not re-derived ones.
        let cfg = ViTConfig::tiny(4, 6);
        let model = ViTSegmenter::new(cfg, 8);
        let full = Tensor::rand_uniform([1, 6, 4], -1.0, 1.0, 9);
        let prefix = Tensor::new([1, 3, 4], full.to_vec()[..12].to_vec());
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let fv = g.constant(full);
        let full_out = model.forward(&mut g, &bp, fv);
        let pv = g.constant(prefix);
        let prefix_out = model
            .forward_cancellable(&mut g, &bp, pv, &CancelToken::new())
            .unwrap();
        // Token 0's embedding sees identical projection + position, but
        // attention context differs (3 vs 6 keys), so only check the
        // pass runs and shapes differ as expected.
        assert_eq!(g.value(full_out).dims(), &[1, 6, 4]);
        assert_eq!(g.value(prefix_out).dims(), &[1, 3, 4]);
    }

    #[test]
    fn pre_cancelled_token_aborts_before_any_block() {
        let cfg = ViTConfig::tiny(16, 8);
        let model = ViTSegmenter::new(cfg, 7);
        let token = CancelToken::new();
        token.cancel();
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let toks = g.constant(Tensor::rand_uniform([1, 8, 16], -1.0, 1.0, 8));
        let err = model
            .forward_cancellable(&mut g, &bp, toks, &token)
            .unwrap_err();
        assert_eq!(err.completed_blocks, 0);
        assert_eq!(err.total_blocks, 2);
    }

    #[test]
    fn wrong_sequence_length_panics() {
        let cfg = ViTConfig::tiny(4, 8);
        let model = ViTClassifier::new(cfg, 2, 7);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = Graph::new();
            let bp = model.params.bind(&mut g);
            let toks = g.constant(Tensor::zeros([1, 9, 4]));
            model.forward(&mut g, &bp, toks);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn classifier_trains_on_separable_toy_data() {
        // Two classes distinguished by token magnitude; a couple of gradient
        // steps must reduce the loss.
        let cfg = ViTConfig::tiny(4, 4);
        let mut model = ViTClassifier::new(cfg, 2, 9);
        let xs = [
            Tensor::full([1, 4, 4], 0.9),
            Tensor::full([1, 4, 4], -0.9),
        ];
        let ys = [0u32, 1];
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for step in 0..30 {
            let mut g = Graph::new();
            let bp = model.params.bind(&mut g);
            let mut losses = Vec::new();
            for (x, &y) in xs.iter().zip(ys.iter()) {
                let xv = g.constant(x.clone());
                let logits = model.forward(&mut g, &bp, xv);
                let l = g.softmax_cross_entropy(logits, std::sync::Arc::new(vec![y]));
                losses.push(l);
            }
            let sum = g.add(losses[0], losses[1]);
            let loss = g.scale(sum, 0.5);
            g.backward(loss);
            let lv = g.value(loss).item();
            if step == 0 {
                first_loss = Some(lv);
            }
            last_loss = lv;
            // Plain SGD step.
            let ids: Vec<_> = model.params.iter().map(|(id, _, _)| id).collect();
            for id in ids {
                if let Some(grad) = g.grad(bp.var(id)) {
                    let updated = {
                        let cur = model.params.get(id);
                        cur.sub(&grad.scale(0.05))
                    };
                    *model.params.get_mut(id) = updated;
                }
            }
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not drop: {} -> {}",
            first_loss.unwrap(),
            last_loss
        );
    }
}
