//! Figure 4: training and validation stability.
//!
//! (Top, a-c) At one resolution and matched model complexity, APF lets the
//! same UNETR use a much smaller patch size; its loss curve converges lower
//! and more stably than U-Net and large-patch uniform UNETR.
//! (Bottom, d-f) Uniform UNETR with patch sizes {small, medium, large}:
//! smaller patches converge more stably.

use apf_models::unet::{UNet, UnetConfig};
use apf_train::imageseg::ImageSegTrainer;
use serde::Serialize;

use super::train_eval::{adamw, train_seed, Epoch, ImageSplit, TokenSplit};
use crate::harness::paip_pairs;
use crate::{print_table, SoakReport};

/// Seed of the model comparison (top row).
const SEED: u64 = 5;
/// Seed of the patch-size sweep (bottom row).
const SWEEP_SEED: u64 = 9;

/// One curve set. `val_loss` is `null` for an epoch whose trainer
/// measures no validation loss (the image models).
#[derive(Serialize)]
struct Series {
    label: String,
    train_loss: Vec<f64>,
    val_loss: Vec<Option<f64>>,
    val_dice: Vec<f64>,
}

impl Series {
    fn new(label: String, history: &[Epoch]) -> Series {
        Series {
            label,
            train_loss: history.iter().map(|e| e.train_loss).collect(),
            val_loss: history.iter().map(|e| e.val_loss).collect(),
            val_dice: history.iter().map(|e| e.val_dice).collect(),
        }
    }

    /// Mean absolute epoch-to-epoch change of the train loss over the
    /// last half of training.
    fn jitter(&self) -> f64 {
        let tail = &self.train_loss[self.train_loss.len() / 2..];
        tail.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / tail.len().max(2) as f64
    }

    fn last_loss(&self) -> f64 {
        self.train_loss.last().copied().unwrap_or(0.0)
    }
}

pub fn run(quick: bool) -> SoakReport {
    let (res, samples, epochs) = if quick { (64, 4, 3) } else { (128, 16, 15) };
    let split = samples - (samples / 4).max(1);
    let pairs = paip_pairs(res, samples);
    let mut all = Vec::new();

    println!("Fig. 4 (top): U-Net vs uniform UNETR-{} vs APF-UNETR-2 at {res}^2", res / 8);
    let images = ImageSplit { train: &pairs[..split], val: &pairs[split..] };
    let unet = |s| ImageSegTrainer::new(UNet::new(UnetConfig::small(1, 1), s), adamw());
    all.push(Series::new("U-Net".into(), &train_seed(unet, &images, epochs, SEED).0.history));
    let big_patch = (res / 8).max(8);
    let data = TokenSplit::uniform(&pairs, res, big_patch, split);
    let history = train_seed(|s| data.unetr(s), &data, epochs, SEED).0.history;
    all.push(Series::new(format!("UNETR-{big_patch} (uniform)"), &history));
    let data = TokenSplit::adaptive(&pairs, res, 2, split);
    let history = train_seed(|s| data.unetr(s), &data, epochs, SEED).0.history;
    all.push(Series::new("APF-UNETR-2".into(), &history));

    let sweep: &[usize] = if quick { &[8, 16] } else { &[4, 8, 16] };
    println!("Fig. 4 (bottom): uniform UNETR patch sweep {sweep:?}");
    for &p in sweep {
        let data = TokenSplit::uniform(&pairs, res, p, split);
        let history = train_seed(|s| data.unetr(s), &data, epochs, SWEEP_SEED).0.history;
        all.push(Series::new(format!("UNETR-{p} sweep"), &history));
    }

    let rows: Vec<Vec<String>> = all
        .iter()
        .map(|s| {
            let losses = [s.train_loss.first().copied().unwrap_or(0.0), s.last_loss(), s.jitter()];
            let dice = format!("{:.1}", s.val_dice.last().copied().unwrap_or(0.0));
            let losses = losses.map(|l| format!("{l:.4}"));
            [s.label.clone()].into_iter().chain(losses).chain([dice]).collect()
        })
        .collect();
    let headers = ["series", "loss@0", "loss@end", "tail jitter", "final dice %"];
    print_table("Fig. 4 — convergence and stability summary", &headers, &rows);
    let sizes = [("res", res), ("samples", samples), ("epochs", epochs)];
    let mut report = super::report("fig4", SEED, quick, &sizes);
    let apf = all[2].last_loss();
    let lowest = apf < all[0].last_loss() && apf < all[1].last_loss();
    report.record("apf_final_loss_below_unet_and_uniform", lowest);
    let (smallest, largest) = (&all[3], &all[all.len() - 1]);
    report.record("smaller_uniform_patch_steadier", smallest.jitter() <= largest.jitter());
    report.detail("series", &all);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_series_carries_an_unmeasured_validation_loss() {
        let pairs = paip_pairs(32, 3);
        let images = ImageSplit { train: &pairs[..2], val: &pairs[2..] };
        let unet = |s| ImageSegTrainer::new(UNet::new(UnetConfig::small(1, 1), s), adamw());
        let image_series = Series::new("U-Net".into(), &train_seed(unet, &images, 2, 1).0.history);
        let data = TokenSplit::uniform(&pairs, 32, 8, 2);
        let history = train_seed(|s| data.unetr(s), &data, 2, 1).0.history;
        let token_series = Series::new("UNETR-8".into(), &history);
        // The image trainers measure no validation loss: every epoch is
        // archived as null, never as a made-up number.
        assert_eq!(image_series.val_loss, [None, None]);
        assert!(serde_json::to_string(&image_series).unwrap().contains("\"val_loss\":[null,null]"));
        // The token trainers measure one every epoch.
        assert!(token_series.val_loss.iter().all(|l| l.is_some_and(f64::is_finite)));
    }
}
