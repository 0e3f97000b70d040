//! Shared experiment scaffolding: dataset builders and quick-training
//! helpers used by the per-table/figure binaries.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::image::GrayImage;
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_models::rearrange::GridOrder;
use apf_models::unetr::{Unetr2d, UnetrConfig};
use apf_train::data::TokenSegDataset;
use apf_train::optim::AdamWConfig;
use apf_train::trainer::{EpochStats, SegTrainer};
use serde::Serialize;

/// Generates `n` PAIP-like `(image, mask)` pairs at `res`.
pub fn paip_pairs(res: usize, n: usize) -> Vec<(GrayImage, GrayImage)> {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    (0..n)
        .map(|i| {
            let s = gen.generate(i);
            (s.image, s.mask)
        })
        .collect()
}

/// Largest absolute per-pixel difference between `a` and `b`:
/// `f32::INFINITY` when their dimensions differ or a difference is NaN, so
/// a stitched output of the wrong size can never pass as a match.
pub fn max_abs_diff(a: &GrayImage, b: &GrayImage) -> f32 {
    if (a.width(), a.height()) != (b.width(), b.height()) {
        return f32::INFINITY;
    }
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m, d| if d.is_nan() { f32::INFINITY } else { m.max(d) })
}

/// Whether `a` and `b` have the same dimensions and the same bits in every
/// pixel.
pub fn bits_equal(a: &GrayImage, b: &GrayImage) -> bool {
    (a.width(), a.height()) == (b.width(), b.height())
        && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Power-of-two grid side for a target token count.
///
/// Algorithm 1 pads *or randomly drops* to the fixed length `L`, so we pick
/// the power-of-two side whose square is closest in relative terms: dropping
/// up to ~25% of patches is preferred over padding the sequence by up to 4x
/// (which would negate APF's sequence reduction).
pub fn grid_side_for(tokens: usize) -> usize {
    let mut side = 1usize;
    while side * side < tokens {
        side *= 2;
    }
    let down = side / 2;
    if down >= 1 && tokens as f64 <= (down * down) as f64 * 1.33 {
        down
    } else {
        side
    }
}

/// A ready-to-train segmentation setup: model + train/val datasets.
pub struct SegSetup {
    /// The trainer (owns the model).
    pub trainer: SegTrainer<Unetr2d>,
    /// Training split.
    pub train: TokenSegDataset,
    /// Validation split.
    pub val: TokenSegDataset,
    /// Sequence length fed to the model.
    pub seq_len: usize,
    /// Patch size.
    pub patch: usize,
}

/// Split value used by the scaled-down quality experiments: finer than the
/// paper's 100 because synthetic slides at 64-256px have proportionally
/// fewer edge pixels per quadrant than 512-65,536px WSIs.
pub const QUALITY_SPLIT_VALUE: f64 = 16.0;

/// Builds an APF-UNETR setup: quadtree patching at `patch` with sequence
/// length chosen from the data (nearest power-of-four grid, pad or drop).
pub fn apf_unetr_setup(
    pairs: &[(GrayImage, GrayImage)],
    res: usize,
    patch: usize,
    split_at: usize,
    lr: f32,
    seed: u64,
) -> SegSetup {
    // Measure the natural sequence lengths on the images, then fix L to the
    // nearest power-of-four grid around the MEDIAN: Algorithm 1 randomly
    // drops patches from longer-than-L images and pads shorter ones, so L
    // is a budget, not a maximum.
    let probe = AdaptivePatcher::new(
        PatcherConfig::for_resolution(res)
            .with_patch_size(patch)
            .with_split_value(QUALITY_SPLIT_VALUE),
    );
    let mut lens: Vec<usize> = pairs.iter().map(|(img, _)| probe.tree(img).len()).collect();
    lens.sort_unstable();
    let median_len = lens.get(lens.len() / 2).copied().unwrap_or(16);
    let side = grid_side_for(median_len);
    let l = side * side;
    let patcher = AdaptivePatcher::new(
        PatcherConfig::for_resolution(res)
            .with_patch_size(patch)
            .with_split_value(QUALITY_SPLIT_VALUE)
            .with_target_len(l),
    );
    let ds = TokenSegDataset::adaptive(pairs, &patcher);
    let train = ds.subset(&(0..split_at).collect::<Vec<_>>());
    let val = ds.subset(&(split_at..pairs.len()).collect::<Vec<_>>());
    let cfg = UnetrConfig::small(side, patch, GridOrder::Morton);
    let model = Unetr2d::new(cfg, seed);
    SegSetup {
        trainer: SegTrainer::new(model, AdamWConfig { lr, ..Default::default() }),
        train,
        val,
        seq_len: l,
        patch,
    }
}

/// Builds a uniform-grid UNETR setup at `patch`.
pub fn uniform_unetr_setup(
    pairs: &[(GrayImage, GrayImage)],
    res: usize,
    patch: usize,
    split_at: usize,
    lr: f32,
    seed: u64,
) -> SegSetup {
    let side = res / patch;
    let ds = TokenSegDataset::uniform(pairs, patch);
    let train = ds.subset(&(0..split_at).collect::<Vec<_>>());
    let val = ds.subset(&(split_at..pairs.len()).collect::<Vec<_>>());
    let cfg = UnetrConfig::small(side, patch, GridOrder::RowMajor);
    let model = Unetr2d::new(cfg, seed);
    SegSetup {
        trainer: SegTrainer::new(model, AdamWConfig { lr, ..Default::default() }),
        train,
        val,
        seq_len: side * side,
        patch,
    }
}

/// Outcome of a quick training run.
#[derive(Debug, Clone, Serialize)]
pub struct RunOutcome {
    /// Best validation dice over all epochs (%), the number papers report.
    pub dice: f64,
    /// Final-epoch validation dice (%).
    pub final_dice: f64,
    /// Mean wall-clock seconds per image of training.
    pub sec_per_image: f64,
    /// Sequence length used.
    pub seq_len: usize,
    /// Epoch at which `dice_target` was first reached (None = never).
    pub epochs_to_target: Option<usize>,
    /// Full per-epoch history.
    pub history: Vec<EpochStats>,
}

/// Trains a setup for `epochs` epochs and summarizes.
pub fn run_training(
    setup: &mut SegSetup,
    epochs: usize,
    batch: usize,
    dice_target: f64,
) -> RunOutcome {
    let mut history = Vec::with_capacity(epochs);
    let mut epochs_to_target = None;
    for e in 0..epochs {
        let stats = setup.trainer.run_epoch(&setup.train, &setup.val, batch, true);
        if epochs_to_target.is_none() && stats.val_dice >= dice_target {
            epochs_to_target = Some(e);
        }
        history.push(stats);
    }
    let final_dice = history.last().map(|s| s.val_dice).unwrap_or(0.0);
    let dice = history.iter().map(|s| s.val_dice).fold(0.0, f64::max);
    let total_s: f64 = history.iter().map(|s| s.train_seconds).sum();
    let images = (setup.train.len() * epochs).max(1);
    RunOutcome {
        dice,
        final_dice,
        sec_per_image: total_s / images as f64,
        seq_len: setup.seq_len,
        epochs_to_target,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_side_picks_nearest_power_of_two() {
        assert_eq!(grid_side_for(1), 1);
        assert_eq!(grid_side_for(16), 4);
        // Slightly above a square: prefer dropping a few patches...
        assert_eq!(grid_side_for(17), 4);
        assert_eq!(grid_side_for(4097), 64);
        // ...but not more than ~25%: far above, round up and pad.
        assert_eq!(grid_side_for(30), 8);
        assert_eq!(grid_side_for(283), 16);
        assert_eq!(grid_side_for(400), 32);
    }

    #[test]
    fn image_comparisons_include_dimensions() {
        let a = GrayImage::from_fn(4, 4, |x, y| (x + 4 * y) as f32);
        let mut off = a.clone();
        off.set(2, 1, a.get(2, 1) + 0.5);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
        assert_eq!(max_abs_diff(&a, &off), 0.5);
        assert!(bits_equal(&a, &a) && !bits_equal(&a, &off));
        // The first 16 values agree, so a zip over the buffers sees no
        // difference; the 4x8 image is still not the 4x4 one.
        let tall = GrayImage::from_fn(4, 8, |x, y| (x + 4 * y) as f32);
        assert_eq!(&tall.data()[..16], a.data());
        assert_eq!(max_abs_diff(&a, &tall), f32::INFINITY);
        assert!(!bits_equal(&a, &tall));
        let mut nan = a.clone();
        nan.set(0, 0, f32::NAN);
        assert_eq!(max_abs_diff(&a, &nan), f32::INFINITY);
    }

    #[test]
    fn apf_setup_has_shorter_sequences_than_uniform() {
        let pairs = paip_pairs(64, 3);
        let apf = apf_unetr_setup(&pairs, 64, 4, 2, 1e-3, 1);
        let uni = uniform_unetr_setup(&pairs, 64, 4, 2, 1e-3, 1);
        assert!(apf.seq_len < uni.seq_len, "{} vs {}", apf.seq_len, uni.seq_len);
        assert_eq!(apf.train.len(), 2);
        assert_eq!(apf.val.len(), 1);
    }

    #[test]
    fn quick_run_produces_history() {
        let pairs = paip_pairs(64, 3);
        let mut setup = apf_unetr_setup(&pairs, 64, 8, 2, 1e-3, 2);
        let out = run_training(&mut setup, 2, 2, 101.0);
        assert_eq!(out.history.len(), 2);
        assert!(out.sec_per_image > 0.0);
        assert!(out.epochs_to_target.is_none());
    }
}
