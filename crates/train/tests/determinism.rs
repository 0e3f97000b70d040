//! End-to-end determinism of the training loop.
//!
//! The fast kernels use a fixed blocking/accumulation order, so repeated
//! runs at the same seed must produce bit-identical losses. The `rayon`
//! pool hands out fixed, contiguous items and reduces nothing across
//! them, so a run whose kernels use the pool must match, bit for bit, a
//! run whose kernels all stay on one thread. Agreement of each fast
//! kernel with its naive reference is checked separately, by the
//! kernel-oracle suite in `apf-tensor`.

use apf_models::rearrange::GridOrder;
use apf_models::unetr::{Unetr2d, UnetrConfig};
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

/// UNETR steps per run of the pooled-vs-inline comparison.
const UNETR_STEPS: usize = 4;

/// Loss bits per step and final parameter bits of a seeded
/// `SegTrainer<Unetr2d>`, trained on a fresh thread. With `inline` that
/// thread is marked, so every `par_*` call runs on it in index order;
/// without, the kernels use the pool (on a host with more than one core).
fn unetr_run(inline: bool) -> (Vec<u64>, Vec<Vec<u32>>) {
    std::thread::spawn(move || {
        if inline {
            apf_tensor::kernels::mark_thread_inline();
        }
        // L = 64 tokens of 4x4 pixels, batch 4: the image-sized convs, the
        // token GEMMs, attention (8 batch-heads) and bias-GELU go to the pool.
        let cfg = UnetrConfig::tiny(8, 4, GridOrder::Morton);
        let (l, pp) = (cfg.seq_len(), cfg.patch * cfg.patch);
        let mut tr =
            SegTrainer::new(Unetr2d::new(cfg, 5), AdamWConfig { lr: 2e-3, ..Default::default() });
        let tokens = Tensor::rand_uniform([4, l, pp], 0.0, 1.0, 11);
        let masks = Tensor::rand_uniform([4, l, pp], 0.0, 1.0, 12).map(|v| if v > 0.5 { 1.0 } else { 0.0 });
        let losses = (0..UNETR_STEPS).map(|_| tr.step(&tokens, &masks).to_bits()).collect();
        let params = tr
            .model
            .params
            .iter()
            .map(|(_, _, t)| t.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (losses, params)
    })
    .join()
    .expect("training thread")
}

#[test]
fn pooled_training_is_bit_identical_to_inline() {
    let (pooled_losses, pooled_params) = unetr_run(false);
    let (inline_losses, inline_params) = unetr_run(true);
    assert!(pooled_losses.iter().all(|&l| f64::from_bits(l).is_finite()));
    assert_eq!(pooled_losses, inline_losses, "losses differ between pooled and inline kernels");
    assert_eq!(pooled_params.len(), inline_params.len());
    for (i, (p, q)) in pooled_params.iter().zip(&inline_params).enumerate() {
        assert!(p == q, "parameter {i} differs between pooled and inline kernels");
    }
}
