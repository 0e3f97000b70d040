//! End-to-end determinism of the training loop.
//!
//! The fast kernels use a fixed blocking/accumulation order, so repeated
//! runs at the same seed must produce bit-identical losses. Agreement of
//! each fast kernel with its naive reference is checked separately, by
//! the kernel-oracle suite in `apf-tensor`.

use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_tensor::prelude::*;
use apf_train::optim::AdamWConfig;
use apf_train::SegTrainer;

const STEPS: usize = 3;

/// Runs `STEPS` trainer steps from a fresh seeded model and returns the
/// per-step losses.
fn run_losses() -> Vec<f64> {
    let cfg = ViTConfig { patch_dim: 16, seq_len: 12, dim: 16, depth: 2, heads: 2 };
    let model = ViTSegmenter::new(cfg, 42);
    let mut tr = SegTrainer::new(model, AdamWConfig { lr: 1e-3, ..Default::default() });
    let tokens = Tensor::rand_uniform([2, 12, 16], -1.0, 1.0, 7);
    let masks = Tensor::rand_uniform([2, 12, 16], 0.0, 1.0, 8).map(|v| if v > 0.5 { 1.0 } else { 0.0 });
    (0..STEPS).map(|_| tr.step(&tokens, &masks)).collect()
}

#[test]
fn training_is_bit_deterministic() {
    let a = run_losses();
    let b = run_losses();
    assert!(a.iter().all(|l| l.is_finite()), "losses not finite: {:?}", a);
    assert_eq!(
        a.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "losses must be bit-identical across runs: {:?} vs {:?}",
        a,
        b
    );
}
