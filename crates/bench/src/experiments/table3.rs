//! Table III: segmentation quality (dice) of APF-UNETR at several minimal
//! patch sizes against UNETR / TransUNet / U-Net baselines.
//!
//! The paper's table spans 512² - 65,536² on up to 2,048 GPUs; this
//! reproduces the *structure* of one resolution block at CPU scale (128²,
//! 64² quick): every model trains from scratch on the same generated
//! pathology split, once per seed, and the APF rows also report the
//! quadtree depth.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_models::transunet::{TransUnet, TransUnetConfig};
use apf_models::unet::{UNet, UnetConfig};
use apf_train::imageseg::ImageSegTrainer;
use serde::Serialize;

use super::train_eval::{adamw, train_eval, ImageSplit, TokenSplit, TrainEval};
use crate::harness::paip_pairs;
use crate::{print_table, SoakReport};

/// Model seeds; the first is the one single-seed runs used.
const SEEDS: [u64; 5] = [11, 12, 13, 14, 15];

#[derive(Serialize)]
struct Row {
    model: String,
    patch: usize,
    depth: u8,
    eval: TrainEval,
}

pub fn run(quick: bool) -> SoakReport {
    let (res, samples, epochs) = if quick { (64, 4, 2) } else { (128, 20, 25) };
    let split = samples - (samples / 4).max(1);
    let pairs = paip_pairs(res, samples);
    let val = samples - split;
    println!("Table III block at {res}^2 ({split} train / {val} val, {epochs} epochs, 5 seeds)");
    let mut out: Vec<Row> = Vec::new();
    for &p in if quick { &[4][..] } else { &[2, 4, 8] } {
        println!("training APF-UNETR patch {p} ...");
        let data = TokenSplit::adaptive(&pairs, res, p, split);
        let probe = AdaptivePatcher::new(PatcherConfig::for_resolution(res).with_patch_size(p));
        let depth = probe.tree(&pairs[0].0).max_depth_reached;
        let eval = train_eval(|s| data.unetr(s), &data, epochs, &SEEDS);
        out.push(Row { model: "APF(+UNETR)".into(), patch: p, depth, eval });
    }
    for &p in if quick { &[16][..] } else { &[8, 16] } {
        println!("training uniform UNETR patch {p} ...");
        let data = TokenSplit::uniform(&pairs, res, p, split);
        let eval = train_eval(|s| data.unetr(s), &data, epochs, &SEEDS);
        out.push(Row { model: "UNETR".into(), patch: p, depth: 0, eval });
    }
    let images = ImageSplit { train: &pairs[..split], val: &pairs[split..] };
    println!("training TransUNet ...");
    let transunet = |s| ImageSegTrainer::new(TransUnet::new(TransUnetConfig::small(1, 1, res), s), adamw());
    let eval = train_eval(transunet, &images, epochs, &SEEDS);
    out.push(Row { model: "TransUNet".into(), patch: 0, depth: 0, eval });
    println!("training U-Net ...");
    let unet = |s| ImageSegTrainer::new(UNet::new(UnetConfig::small(1, 1), s), adamw());
    let eval = train_eval(unet, &images, epochs, &SEEDS);
    out.push(Row { model: "U-Net".into(), patch: 0, depth: 0, eval });

    let dash = |v: usize| if v > 0 { v.to_string() } else { "-".into() };
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            let e = &r.eval;
            let (seq_len, sec) = (e.runs[0].seq_len, e.sec_per_image.mean);
            let cells = [r.model.clone(), dash(r.patch), dash(seq_len), dash(r.depth as usize)];
            let stats = [format!("{sec:.3}"), e.best_dice.show(2), e.final_dice.show(2)];
            cells.into_iter().chain(stats).collect()
        })
        .collect();
    let headers = ["model", "patch", "seq len", "depth", "sec/img", "best dice %", "final dice %"];
    print_table(&format!("Table III — segmentation quality at {res}^2 (measured, mean ± 95% CI)"), &headers, &rows);
    println!(
        "\nPaper 512^2 block: APF-2 78.32 / APF-4 77.88 / APF-8 75.17 vs UNETR-4 77.31 / \
         UNETR-8 75.23 / UNETR-16 74.88 / TransUNet 73.32 / U-Net 70.32 (avg +4.11%)."
    );
    let best = |keep: &dyn Fn(&Row) -> bool| {
        out.iter().filter(|r| keep(r)).map(|r| r.eval.best_dice.mean).fold(f64::NEG_INFINITY, f64::max)
    };
    let apf = |r: &Row| r.model.starts_with("APF");
    let (best_apf, best_base) = (best(&apf), best(&|r| !apf(r)));
    println!("best APF dice {best_apf:.2} vs best baseline {best_base:.2}");
    let sizes = [("res", res), ("samples", samples), ("epochs", epochs), ("seeds", SEEDS.len())];
    let mut report = super::report("table3", SEEDS[0], quick, &sizes);
    report.detail("rows", &out);
    report.record("apf_dice_ge_best_baseline", best_apf >= best_base);
    let unet = |r: &Row| r.model == "U-Net";
    report.record("transformers_beat_unet", best(&|r| !unet(r)) > best(&unet));
    let shorter = |r: &Row| r.eval.runs[0].seq_len < (res / r.patch).pow(2);
    report.record("apf_sequence_shorter_than_uniform_grid", out.iter().filter(|r| apf(r)).all(shorter));
    report
}
