//! Figure 2: qualitative segmentation masks.
//!
//! Trains U-Net, uniform UNETR and APF-UNETR on generated pathology images
//! and renders input / ground truth / per-model predictions as PGM/PPM
//! files under `results/fig2/` for visual comparison (a red overlay marks
//! the predicted lesion).

use apf_core::patchify::reconstruct_mask;
use apf_imaging::image::GrayImage;
use apf_imaging::io::{write_pgm, write_ppm_overlay};
use apf_models::unet::{UNet, UnetConfig};
use apf_train::imageseg::ImageSegTrainer;
use apf_train::metrics::dice_score;
use serde::Serialize;

use super::train_eval::{adamw, train_seed, ImageSplit, TokenSplit};
use crate::harness::paip_pairs;
use crate::report::results_dir;
use crate::SoakReport;

const SEED: u64 = 7;

#[derive(Serialize)]
struct Out {
    model: String,
    dice_on_rendered_sample: f64,
    file: String,
}

fn threshold(img: &GrayImage) -> GrayImage {
    let on = |x, y| if img.get(x, y) > 0.5 { 1.0 } else { 0.0 };
    GrayImage::from_fn(img.width(), img.height(), on)
}

pub fn run(quick: bool) -> SoakReport {
    let (res, samples, epochs) = if quick { (64, 4, 2) } else { (128, 16, 20) };
    let split = samples - 1; // render the held-out last sample
    let pairs = paip_pairs(res, samples);
    let (probe_img, probe_mask) = pairs.last().expect("samples >= 1").clone();

    let dir = results_dir().join("fig2");
    std::fs::create_dir_all(&dir).expect("create fig2 dir");
    write_pgm(&probe_img, dir.join("input.pgm")).expect("write input");
    write_ppm_overlay(&probe_img, &probe_mask, dir.join("ground_truth.ppm")).expect("write gt");
    let mut out = Vec::new();
    let mut render = |model: String, file: &str, probs: &GrayImage| {
        let pred = threshold(probs);
        let file = dir.join(file);
        write_ppm_overlay(&probe_img, &pred, &file).expect("write");
        let dice = dice_score(&pred, &probe_mask, 0.5);
        println!("  {model:<14} dice {dice:.1}%  -> {}", file.display());
        out.push(Out { model, dice_on_rendered_sample: dice, file: file.display().to_string() });
    };

    println!("training U-Net ...");
    let images = ImageSplit { train: &pairs[..split], val: &pairs[split..] };
    let unet = |s| ImageSegTrainer::new(UNet::new(UnetConfig::small(1, 1), s), adamw());
    let trainer = train_seed(unet, &images, epochs, SEED).1;
    render("U-Net".into(), "pred_unet.ppm", &trainer.predict_binary(&probe_img));

    // Uniform UNETR at the large patch the budget allows, then APF-UNETR at
    // the small patch.
    let patch = (res / 8).max(8);
    let uniform = TokenSplit::uniform(&pairs, res, patch, split);
    let apf = TokenSplit::adaptive(&pairs, res, 4, split);
    for (model, file, data) in [
        (format!("UNETR-{patch}"), format!("pred_unetr{patch}.ppm"), uniform),
        ("APF-UNETR-4".into(), "pred_apf_unetr4.ppm".into(), apf),
    ] {
        println!("training {model} ...");
        let trainer = train_seed(|s| data.unetr(s), &data, epochs, SEED).1;
        let sample = &data.val.samples[data.val.len() - 1];
        render(model, &file, &reconstruct_mask(&sample.seq, &trainer.predict(&sample.tokens)));
    }

    let sizes = [("res", res), ("samples", samples), ("epochs", epochs)];
    let mut report = super::report("fig2", SEED, quick, &sizes);
    // At high resolution uniform patching is forced to coarse patches and
    // loses boundary detail; APF keeps fine patches where the detail is.
    let dice = |i: usize| out[i].dice_on_rendered_sample;
    report.record("apf_dice_ge_uniform_on_rendered_sample", dice(2) >= dice(1));
    report.record("apf_dice_ge_unet_on_rendered_sample", dice(2) >= dice(0));
    report.detail("renders", &out);
    report
}
