//! The ablations of DESIGN.md §4.
//!
//! `order` (§4.1): does the Morton Z-order matter?
//!
//! The paper argues Z-ordering keeps geometrically affine patches adjacent
//! in the sequence. Two places where that could matter here:
//!
//! 1. the *decoder grid folding* — the UNETR folds the token sequence onto
//!    a 2D grid for its convolutional decoder; a Morton fold preserves
//!    spatial locality, a row-major fold of the same Z-ordered sequence
//!    scrambles it;
//! 2. the *sequence order itself* — shuffling tokens before the model
//!    destroys whatever the positional embeddings could exploit.
//!
//! APF-UNETR trains in three configurations (Morton fold, row-major fold,
//! shuffled sequence) on identical data.
//!
//! `droprate` (§4.3): the fixed sequence length `L` — pad vs drop.
//! Algorithm 1 pads short sequences with zero patches and randomly drops
//! surplus patches from long ones. This sweeps L around the dataset's
//! natural sequence length and measures the dice cost of aggressive
//! dropping and the compute cost of generous padding.

use apf_models::rearrange::GridOrder;
use apf_tensor::tensor::Tensor;
use apf_train::data::TokenSegDataset;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use super::train_eval::{train_seed, TokenSplit};
use crate::harness::{paip_pairs, quality_patcher};
use crate::{print_table, SoakReport};

/// Model seed of the token-order ablation.
const ORDER_SEED: u64 = 13;

#[derive(Serialize)]
struct OrderRow {
    variant: String,
    dice: f64,
}

/// Applies one fixed token permutation to every sample of a dataset
/// (tokens and mask tokens together, preserving alignment).
fn permute_dataset(ds: &TokenSegDataset, seed: u64) -> TokenSegDataset {
    let mut out = ds.clone();
    let Some(l) = out.samples.first().map(|s| s.tokens.dims()[0]) else { return out };
    let mut perm: Vec<usize> = (0..l).collect();
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let remap = |t: &Tensor| {
        let d = t.dims()[1];
        let rows = perm.iter().flat_map(|&src| t.data()[src * d..(src + 1) * d].to_vec());
        Tensor::new([l, d], rows.collect())
    };
    for s in &mut out.samples {
        s.tokens = remap(&s.tokens);
        s.mask_tokens = remap(&s.mask_tokens);
        // Permute the region metadata identically so reconstruction still
        // paints each patch at its true location.
        s.seq.patches = perm.iter().map(|&src| s.seq.patches[src].clone()).collect();
    }
    out
}

pub fn order(quick: bool) -> SoakReport {
    let (res, samples, epochs) = if quick { (64, 4, 2) } else { (128, 16, 15) };
    let split = samples - (samples / 4).max(1);
    let pairs = paip_pairs(res, samples);
    let zorder = TokenSplit::adaptive(&pairs, res, 4, split);
    let mut row_major = zorder.clone();
    row_major.order = GridOrder::RowMajor;
    let mut shuffled = zorder.clone();
    shuffled.train = permute_dataset(&zorder.train, 99);
    shuffled.val = permute_dataset(&zorder.val, 99);

    let mut out = Vec::new();
    for (variant, data) in [
        ("Z-order tokens + Morton fold", zorder),
        ("Z-order tokens + row-major fold", row_major),
        ("shuffled tokens + Morton fold", shuffled),
    ] {
        println!("training: {variant} ...");
        let dice = train_seed(|s| data.unetr(s), &data, epochs, ORDER_SEED).0.best_dice;
        out.push(OrderRow { variant: variant.into(), dice });
    }
    let rows: Vec<Vec<String>> = out.iter().map(|r| vec![r.variant.clone(), format!("{:.2}", r.dice)]).collect();
    print_table("Ablation — token ordering and decoder folding (best val dice %)", &["variant", "dice %"], &rows);
    let sizes = [("res", res), ("samples", samples), ("epochs", epochs)];
    let mut report = super::report("ablation_order", ORDER_SEED, quick, &sizes);
    report.detail("rows", &out);
    // The conv decoder sees real neighbourhoods only through the Morton
    // fold, and shuffling destroys all the spatial structure it could use.
    report.record("morton_fold_ge_row_major", out[0].dice >= out[1].dice);
    report.record("ordered_tokens_ge_shuffled", out[0].dice >= out[2].dice);
    report
}

/// Model seed of the fixed-length ablation.
const DROP_SEED: u64 = 17;

#[derive(Serialize)]
struct DropRow {
    grid_side: usize,
    target_len: usize,
    mean_drop_frac: f64,
    sec_per_image: f64,
    dice: f64,
}

pub fn droprate(quick: bool) -> SoakReport {
    let (res, samples, epochs) = if quick { (64, 4, 2) } else { (128, 16, 15) };
    let split = samples - (samples / 4).max(1);
    let pairs = paip_pairs(res, samples);
    let probe = quality_patcher(res, 4, None);
    let lens: Vec<usize> = pairs.iter().map(|(img, _)| probe.tree(img).len()).collect();
    let mean_len = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
    let (min, max) = (lens.iter().min().expect("samples > 0"), lens.iter().max().expect("samples > 0"));
    println!("natural sequence lengths: mean {mean_len:.0}, min {min}, max {max}");

    let mut out = Vec::new();
    for &side in if quick { &[4, 8][..] } else { &[8, 16, 32] } {
        let l = side * side;
        println!("training with L = {l} ({side}x{side} grid) ...");
        let data = TokenSplit::fixed_len(&pairs, res, 4, split, side);
        let drops = lens.iter().map(|&n| ((n as f64 - l as f64) / n as f64).max(0.0));
        let mean_drop_frac = drops.sum::<f64>() / lens.len() as f64;
        let run = train_seed(|s| data.unetr(s), &data, epochs, DROP_SEED).0;
        let (sec_per_image, dice) = (run.sec_per_image, run.best_dice);
        out.push(DropRow { grid_side: side, target_len: l, mean_drop_frac, sec_per_image, dice });
    }
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            let drop = format!("{:.0}%", r.mean_drop_frac * 100.0);
            let (sec, dice) = (format!("{:.3}", r.sec_per_image), format!("{:.2}", r.dice));
            vec![format!("{0}x{0}", r.grid_side), r.target_len.to_string(), drop, sec, dice]
        })
        .collect();
    let headers = ["grid", "L", "mean drop", "sec/img", "best dice %"];
    print_table("Ablation — fixed length L: drop rate vs dice vs cost", &headers, &rows);
    let sizes = [("res", res), ("samples", samples), ("epochs", epochs)];
    let mut report = super::report("ablation_droprate", DROP_SEED, quick, &sizes);
    report.detail("rows", &out);
    let falls = out.windows(2).all(|w| w[0].mean_drop_frac > w[1].mean_drop_frac);
    report.record("drop_fraction_falls_as_l_grows", falls);
    // L far below the natural length drops too many patches and costs dice.
    report.record("heaviest_drop_costs_dice", out[1..].iter().any(|r| r.dice > out[0].dice));
    report
}
