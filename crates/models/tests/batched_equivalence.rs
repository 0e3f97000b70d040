//! Batched-vs-solo equivalence of the padded multi-request forward.
//!
//! The serving batcher's correctness claim: packing ragged token sequences
//! into one padded `[B, L_max, D]` forward with per-request key-padding
//! masks changes no answer. Attention is block-diagonal per batch sample
//! and every other layer is token-local, so each sample's real rows must
//! match its solo forward within float-reassociation noise (<= 1e-5), and
//! a batch of one — no padding, mask elided — must be *bit-exact*.

use apf_models::cancel::CancelToken;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_tensor::prelude::*;
use proptest::prelude::*;

const PATCH_DIM: usize = 16;
/// Past `DEFAULT_Q_TILE` (32), so ragged batches span more than one
/// attention query tile.
const SEQ_LEN: usize = 64;

fn model(seed: u64) -> ViTSegmenter {
    ViTSegmenter::new(ViTConfig::tiny(PATCH_DIM, SEQ_LEN), seed)
}

/// The serving engine's solo path: `forward_cancellable` with a deadline
/// that never fires.
fn solo_forward(m: &ViTSegmenter, tokens: Tensor) -> Vec<f32> {
    let mut g = Graph::new();
    let bp = m.params.bind(&mut g);
    let x = g.constant(tokens);
    let y = m
        .forward_cancellable(&mut g, &bp, x, &CancelToken::new())
        .expect("no deadline to hit");
    g.value(y).to_vec()
}

fn batched_forward(
    m: &ViTSegmenter,
    tokens: Tensor,
    key_mask: Option<&[Vec<bool>]>,
) -> (Vec<f32>, usize) {
    let mut g = Graph::new();
    let bp = m.params.bind(&mut g);
    let x = g.constant(tokens);
    let y = m.forward_batched(&mut g, &bp, x, key_mask);
    let out = g.value(y);
    let c = out.dims()[2];
    (out.to_vec(), c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ragged batches across every composition a tier-homogeneous batch can
    /// produce (full budget 64, reduced 32, coarse stubs, or any length in
    /// 1..=L): each request's real output rows match its solo forward
    /// within 1e-5.
    #[test]
    fn padded_batch_matches_solo_forwards(
        lengths in prop::collection::vec(
            prop_oneof![
                Just(SEQ_LEN),
                Just(32usize),
                Just(17usize),
                Just(4usize),
                Just(1usize),
                1..=SEQ_LEN
            ],
            1..=8,
        ),
        model_seed in 0u64..50,
        data_seed in 0u64..1000,
    ) {
        let m = model(model_seed);
        let b = lengths.len();
        let l_max = *lengths.iter().max().unwrap();
        // Per-request token rows, then the padded batch built from them.
        let solos: Vec<Tensor> = lengths
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                Tensor::rand_uniform([1, l, PATCH_DIM], -1.0, 1.0, data_seed + i as u64)
            })
            .collect();
        let mut data = vec![0.0f32; b * l_max * PATCH_DIM];
        let mut masks: Vec<Vec<bool>> = Vec::with_capacity(b);
        for (i, (t, &l)) in solos.iter().zip(&lengths).enumerate() {
            data[i * l_max * PATCH_DIM..i * l_max * PATCH_DIM + l * PATCH_DIM]
                .copy_from_slice(&t.to_vec());
            let mut mask = vec![true; l];
            mask.resize(l_max, false);
            masks.push(mask);
        }
        let ragged = lengths.iter().any(|&l| l < l_max);
        let key_mask = if ragged { Some(masks.as_slice()) } else { None };
        let (batched, c) =
            batched_forward(&m, Tensor::new([b, l_max, PATCH_DIM], data), key_mask);
        for (i, (t, &l)) in solos.into_iter().zip(&lengths).enumerate() {
            let solo = solo_forward(&m, t);
            prop_assert_eq!(solo.len(), l * c);
            let slice = &batched[i * l_max * c..i * l_max * c + l * c];
            for (j, (bv, sv)) in slice.iter().zip(&solo).enumerate() {
                prop_assert!(
                    (bv - sv).abs() <= 1e-5,
                    "sample {} row-elem {} diverged: batched {} vs solo {}",
                    i, j, bv, sv
                );
            }
        }
    }

    /// A batch of one is the solo graph with a batch axis of 1: no padding,
    /// no mask, and therefore the exact same op sequence — bit-for-bit.
    #[test]
    fn batch_of_one_is_bit_exact(
        l in 1usize..=SEQ_LEN,
        model_seed in 0u64..50,
        data_seed in 0u64..1000,
    ) {
        let m = model(model_seed);
        let tokens = Tensor::rand_uniform([1, l, PATCH_DIM], -1.0, 1.0, data_seed);
        let solo = solo_forward(&m, tokens.clone());
        let (batched, c) = batched_forward(&m, tokens, None);
        prop_assert_eq!(batched.len(), l * c);
        for (i, (bv, sv)) in batched.iter().zip(&solo).enumerate() {
            prop_assert_eq!(
                bv.to_bits(), sv.to_bits(),
                "bit mismatch at {}: batched {} vs solo {}", i, bv, sv
            );
        }
    }

    /// An all-true mask is semantically the identity: masked and unmasked
    /// uniform batches agree within float tolerance (the mask adds a bias
    /// of exactly 0.0, so this pins that padding masks cannot perturb real
    /// rows even when supplied redundantly).
    #[test]
    fn all_real_mask_is_identity(
        b in 1usize..=3,
        l in 1usize..=SEQ_LEN,
        model_seed in 0u64..50,
    ) {
        let m = model(model_seed);
        let tokens = Tensor::rand_uniform([b, l, PATCH_DIM], -1.0, 1.0, model_seed + 99);
        let masks = vec![vec![true; l]; b];
        let (unmasked, _) = batched_forward(&m, tokens.clone(), None);
        let (masked, _) = batched_forward(&m, tokens, Some(&masks));
        for (a, z) in unmasked.iter().zip(&masked) {
            prop_assert!((a - z).abs() <= 1e-5);
        }
    }
}
