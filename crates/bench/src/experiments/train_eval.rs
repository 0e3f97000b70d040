//! The one training loop of the quality experiments: build a model per
//! seed, train it for a number of epochs on a train/validation split,
//! score dice after every epoch, and summarise the seeds as mean ± 95 % CI.
//!
//! A [`Split`] owns the data and knows how to run one epoch of one kind of
//! trainer: token segmentation ([`TokenSplit`]), binary image
//! segmentation ([`ImageSplit`]), multi-class token segmentation
//! ([`McSplit`]) and multi-class image segmentation ([`ImageMcSplit`]).

use std::time::Instant;

use apf_imaging::image::GrayImage;
use apf_models::rearrange::GridOrder;
use apf_models::unetr::{Unetr2d, UnetrConfig};
use apf_train::data::TokenSegDataset;
use apf_train::imageseg::{stack_images, ImageSegModel, ImageSegTrainer};
use apf_train::mcseg::{mc_batch, McSample, McSegTrainer};
use apf_train::optim::AdamWConfig;
use apf_train::trainer::{SegTrainer, TokenSegModel};
use serde::Serialize;

use crate::harness::{grid_side, quality_patcher, LenPick};

/// An `(image, mask)` pair.
type Pair = (GrayImage, GrayImage);

/// AdamW at the learning rate every quality experiment trains with.
pub fn adamw() -> AdamWConfig {
    AdamWConfig { lr: 3e-3, ..Default::default() }
}

/// What one epoch measured: the mean training loss over its steps, the
/// validation loss (`None` where the trainer measures none), the
/// validation dice (%) after it, and the wall-clock training seconds per
/// image.
#[derive(Clone, Debug, Serialize)]
pub struct Epoch {
    pub train_loss: f64,
    pub val_loss: Option<f64>,
    pub val_dice: f64,
    pub sec_per_image: f64,
}

/// A train/validation split that runs epochs of trainer `T`.
pub trait Split<T> {
    /// Trains `trainer` for one epoch, then evaluates it on the
    /// validation images.
    fn epoch(&self, trainer: &mut T) -> Epoch;
    /// Sequence length `L` the model sees; 0 for image models.
    fn seq_len(&self) -> usize {
        0
    }
}

/// Token sequences for a UNETR: adaptive (APF) or uniform patches on a
/// `side × side` token grid (`L = side²`) of `patch`-pixel patches, folded
/// onto the decoder grid in `order`.
#[derive(Clone)]
pub struct TokenSplit {
    pub train: TokenSegDataset,
    pub val: TokenSegDataset,
    pub side: usize,
    pub patch: usize,
    pub order: GridOrder,
}

impl TokenSplit {
    /// APF patches at `patch`, with `L` sized to the median natural
    /// length (Algorithm 1 pads shorter images and drops from longer ones).
    pub fn adaptive(pairs: &[Pair], res: usize, patch: usize, split_at: usize) -> Self {
        let side = grid_side(pairs.iter().map(|(img, _)| img), res, patch, LenPick::Median);
        Self::fixed_len(pairs, res, patch, split_at, side)
    }

    /// APF patches at `patch`, padded or dropped to `L = side²`.
    pub fn fixed_len(pairs: &[Pair], res: usize, patch: usize, split_at: usize, side: usize) -> Self {
        let ds = TokenSegDataset::adaptive(pairs, &quality_patcher(res, patch, Some(side * side)));
        Self::new(ds, split_at, side, patch, GridOrder::Morton)
    }

    /// A uniform grid of `patch`-sized patches.
    pub fn uniform(pairs: &[Pair], res: usize, patch: usize, split_at: usize) -> Self {
        let ds = TokenSegDataset::uniform(pairs, patch);
        Self::new(ds, split_at, res / patch, patch, GridOrder::RowMajor)
    }

    fn new(ds: TokenSegDataset, split_at: usize, side: usize, patch: usize, order: GridOrder) -> Self {
        let subset = |idx: std::ops::Range<usize>| ds.subset(&idx.collect::<Vec<_>>());
        TokenSplit { train: subset(0..split_at), val: subset(split_at..ds.len()), side, patch, order }
    }

    /// A small UNETR for this split's grid, seeded with `seed`.
    pub fn unetr(&self, seed: u64) -> SegTrainer<Unetr2d> {
        let cfg = UnetrConfig::small(self.side, self.patch, self.order);
        SegTrainer::new(Unetr2d::new(cfg, seed), adamw())
    }
}

impl<M: TokenSegModel> Split<SegTrainer<M>> for TokenSplit {
    fn seq_len(&self) -> usize {
        self.side * self.side
    }
    fn epoch(&self, trainer: &mut SegTrainer<M>) -> Epoch {
        let s = trainer.run_epoch(&self.train, &self.val, 2, true);
        let sec_per_image = s.train_seconds / self.train.len().max(1) as f64;
        Epoch { train_loss: s.train_loss, val_loss: Some(s.val_loss), val_dice: s.val_dice, sec_per_image }
    }
}

/// Runs `step` over `n` items, timing the loop; returns the mean loss and
/// the seconds per item.
fn timed_steps(n: usize, mut step: impl FnMut(usize) -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let total = (0..n).map(&mut step).fold(0.0, |sum, loss| sum + loss);
    (total / n as f64, t0.elapsed().as_secs_f64() / n as f64)
}

/// `(image, mask)` pairs for U-Net and TransUNet, one image per step.
pub struct ImageSplit<'a> {
    pub train: &'a [Pair],
    pub val: &'a [Pair],
}

impl<M: ImageSegModel> Split<ImageSegTrainer<M>> for ImageSplit<'_> {
    fn epoch(&self, trainer: &mut ImageSegTrainer<M>) -> Epoch {
        let (train_loss, sec_per_image) = timed_steps(self.train.len(), |i| {
            let (img, mask) = &self.train[i];
            trainer.step_binary(&stack_images(&[img]), &stack_images(&[mask]))
        });
        Epoch { train_loss, val_loss: None, val_dice: trainer.evaluate_binary(self.val), sec_per_image }
    }
}

/// Multi-class token samples, one sample per step.
pub struct McSplit<'a> {
    pub train: &'a [McSample],
    pub val: &'a [McSample],
}

impl<M: TokenSegModel> Split<McSegTrainer<M>> for McSplit<'_> {
    fn seq_len(&self) -> usize {
        self.train.first().map_or(0, |s| s.tokens.dims()[0])
    }
    fn epoch(&self, trainer: &mut McSegTrainer<M>) -> Epoch {
        let (train_loss, sec_per_image) = timed_steps(self.train.len(), |i| {
            let (x, y) = mc_batch(self.train, &[i]);
            trainer.step(&x, &y)
        });
        Epoch { train_loss, val_loss: None, val_dice: trainer.evaluate(self.val), sec_per_image }
    }
}

/// `(image, per-pixel labels)` pairs over `classes` logit channels
/// (foreground classes + background), one image per step.
pub struct ImageMcSplit<'a> {
    pub train: &'a [(GrayImage, Vec<u8>)],
    pub val: &'a [(GrayImage, Vec<u8>)],
    pub classes: usize,
}

impl<M: ImageSegModel> Split<ImageSegTrainer<M>> for ImageMcSplit<'_> {
    fn epoch(&self, trainer: &mut ImageSegTrainer<M>) -> Epoch {
        let (train_loss, sec_per_image) = timed_steps(self.train.len(), |i| {
            let (img, labels) = &self.train[i];
            trainer.step_multiclass(&stack_images(&[img]), labels, self.classes)
        });
        let val_dice = trainer.evaluate_multiclass(self.val, self.classes);
        Epoch { train_loss, val_loss: None, val_dice, sec_per_image }
    }
}

/// Mean of a sample with its 95 % confidence half-width: Student t over
/// `n - 1` degrees of freedom, `None` for a single value.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Summary {
    pub mean: f64,
    pub ci95: Option<f64>,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n.max(1) as f64;
        let ci95 = (n > 1).then(|| {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            t975(n - 1) * (var / n as f64).sqrt()
        });
        Summary { mean, ci95 }
    }

    /// `mean ± ci95` with `digits` decimals.
    pub fn show(&self, digits: usize) -> String {
        let ci = self.ci95.map_or(String::new(), |ci| format!(" ± {ci:.digits$}"));
        format!("{:.digits$}{ci}", self.mean)
    }
}

/// The two-sided 95 % Student-t quantile: tabulated up to 10 degrees of
/// freedom, then the Cornish-Fisher expansion (within 0.003 beyond).
fn t975(df: usize) -> f64 {
    const T: [f64; 10] =
        [12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060, 2.2622, 2.2281];
    T.get(df - 1).copied().unwrap_or_else(|| {
        let (z, d) = (1.959964f64, df as f64);
        let (z3, z5) = (z.powi(3), z.powi(5));
        z + (z3 + z) / (4.0 * d) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * d * d)
    })
}

/// One seed's run: its best validation dice (%) over the epochs (the
/// number papers report), the dice after the last epoch, training seconds
/// per image, the sequence length `L` (0 for image models) and every epoch.
#[derive(Clone, Debug, Serialize)]
pub struct SeedRun {
    pub seed: u64,
    pub best_dice: f64,
    pub final_dice: f64,
    pub sec_per_image: f64,
    pub seq_len: usize,
    pub history: Vec<Epoch>,
}

/// A model trained once per seed on one split: the seeds' summaries and
/// their runs, in seed order.
#[derive(Clone, Debug, Serialize)]
pub struct TrainEval {
    pub best_dice: Summary,
    pub final_dice: Summary,
    pub sec_per_image: Summary,
    pub runs: Vec<SeedRun>,
}

/// Trains `build(seed)` for `epochs` epochs on `split`; returns the run
/// and the trained trainer.
pub fn train_seed<T, S: Split<T>>(build: impl Fn(u64) -> T, split: &S, epochs: usize, seed: u64) -> (SeedRun, T) {
    let mut trainer = build(seed);
    let history: Vec<Epoch> = (0..epochs).map(|_| split.epoch(&mut trainer)).collect();
    let run = SeedRun {
        seed,
        best_dice: history.iter().map(|e| e.val_dice).fold(0.0, f64::max),
        final_dice: history.last().map_or(0.0, |e| e.val_dice),
        sec_per_image: history.iter().map(|e| e.sec_per_image).sum::<f64>() / epochs.max(1) as f64,
        seq_len: split.seq_len(),
        history,
    };
    (run, trainer)
}

/// Trains `build(seed)` on `split` for every seed in `seeds` and
/// summarises the runs.
pub fn train_eval<T, S: Split<T>>(build: impl Fn(u64) -> T, split: &S, epochs: usize, seeds: &[u64]) -> TrainEval {
    let runs: Vec<SeedRun> = seeds.iter().map(|&s| train_seed(&build, split, epochs, s).0).collect();
    let of = |f: fn(&SeedRun) -> f64| Summary::of(&runs.iter().map(f).collect::<Vec<_>>());
    let (best_dice, final_dice) = (of(|r| r.best_dice), of(|r| r.final_dice));
    TrainEval { best_dice, final_dice, sec_per_image: of(|r| r.sec_per_image), runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::paip_pairs;

    #[test]
    fn ci_matches_hand_computed_student_t() {
        // n = 2: s = sqrt(2), s / sqrt(2) = 1, t(0.975, 1) = 12.7062.
        let two = Summary::of(&[1.0, 3.0]);
        assert_eq!(two.mean, 2.0);
        assert!((two.ci95.unwrap() - 12.7062).abs() < 1e-12, "{two:?}");
        // n = 5: s² = 2.5, s / sqrt(5) = sqrt(0.5), t(0.975, 4) = 2.7764.
        let five = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(five.mean, 3.0);
        assert!((five.ci95.unwrap() - 2.7764 * 0.5f64.sqrt()).abs() < 1e-12, "{five:?}");
        // n = 1: a mean, no interval.
        assert_eq!(Summary::of(&[7.5]), Summary { mean: 7.5, ci95: None });
        // Past the table the expansion stays close to the exact quantile.
        assert!((t975(11) - 2.2010).abs() < 3e-3 && (t975(30) - 2.0423).abs() < 1e-3);
    }

    #[test]
    fn train_eval_reports_every_seed_and_epoch() {
        let pairs = paip_pairs(64, 3);
        let split = TokenSplit::adaptive(&pairs, 64, 8, 2);
        let out = train_eval(|s| split.unetr(s), &split, 2, &[1, 2]);
        assert_eq!(out.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), [1, 2]);
        for r in &out.runs {
            assert_eq!(r.history.len(), 2);
            assert_eq!(r.seq_len, split.side * split.side);
            assert!(r.sec_per_image > 0.0 && r.best_dice >= r.final_dice);
        }
        assert!(out.best_dice.ci95.is_some());
    }
}
