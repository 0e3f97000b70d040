//! Figure 1: the APF pipeline walk-through on one pathology image —
//! uniform patching vs adaptive patching at the same minimal patch size,
//! ending with a training comparison of the same model on both.
//!
//! Paper example (512² PAIP, patch 4): 4,096 uniform patches vs 424
//! adaptive patches (~9.6x sequence reduction), ~12.7x end-to-end training
//! speedup at the same dice.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};

use super::train_eval::{train_seed, SeedRun, TokenSplit};
use crate::harness::paip_pairs;
use crate::{print_table, SoakReport};

const PATCH: usize = 4;
const SEED: u64 = 7;

pub fn run(quick: bool) -> SoakReport {
    let (res, samples, epochs) = if quick { (64, 4, 2) } else { (128, 16, 12) };
    println!("Fig. 1: APF pipeline walk-through at {res}^2, patch {PATCH}");

    // --- Step-by-step pre-processing on one sample ---
    let pairs = paip_pairs(res, samples);
    let probe = AdaptivePatcher::new(PatcherConfig::for_resolution(res).with_patch_size(PATCH));
    let (seq, timing) = probe.timed_patchify(&pairs[0].0);
    let uniform_n = (res / PATCH) * (res / PATCH);
    let stages = [timing.blur_s, timing.canny_s, timing.quadtree_s, timing.extract_s];
    println!("  blur / Canny / quadtree / Z-order + extract: {:.4?} s", stages);
    let reduction = uniform_n as f64 / seq.len() as f64;
    let n = seq.len();
    println!("  => {n} adaptive patches vs {uniform_n} uniform patches ({reduction:.1}x reduction)");

    // --- Train both pipelines on the same data ---
    let split = samples - samples / 4 - 1;
    println!("\nTraining APF-UNETR ({split} train / {} val, {epochs} epochs)...", samples - split);
    let data = TokenSplit::adaptive(&pairs, res, PATCH, split);
    let apf = train_seed(|s| data.unetr(s), &data, epochs, SEED).0;
    println!("Training uniform UNETR (same patch size, same model)...");
    let data = TokenSplit::uniform(&pairs, res, PATCH, split);
    let uni = train_seed(|s| data.unetr(s), &data, epochs, SEED).0;

    let speedup = uni.sec_per_image / apf.sec_per_image;
    let row = |name: String, r: &SeedRun, spd: f64| {
        let (dice, sec) = (r.best_dice, r.sec_per_image);
        let stats = [format!("{dice:.2}"), format!("{sec:.3}"), format!("{spd:.1}x")];
        [name, r.seq_len.to_string()].into_iter().chain(stats).collect::<Vec<_>>()
    };
    print_table(
        "Fig. 1 — same model, two patchings (measured on this machine)",
        &["pipeline", "seq len", "dice %", "sec/image", "speedup"],
        &[row(format!("APF-{PATCH}"), &apf, speedup), row(format!("UNETR-{PATCH}"), &uni, 1.0)],
    );
    println!("\nPaper (512^2): 4096 -> 424 patches (~9.6x), ~12.7x end-to-end speedup at equal dice.");
    let sizes = [("res", res), ("samples", samples), ("epochs", epochs)];
    let mut report = super::report("fig1", SEED, quick, &sizes);
    report.count("uniform_seq", uniform_n as f64);
    report.count("adaptive_seq_raw", seq.len() as f64);
    report.count("adaptive_seq_padded", apf.seq_len as f64);
    report.count("reduction", reduction);
    report.count("apf_dice", apf.best_dice);
    report.count("uniform_dice", uni.best_dice);
    report.count("apf_sec_per_image", apf.sec_per_image);
    report.count("uniform_sec_per_image", uni.sec_per_image);
    report.count("speedup", speedup);
    report.record("adaptive_sequence_shorter_than_uniform", seq.len() < uniform_n);
    report.record("apf_faster_per_image", speedup > 1.0);
    report.record("apf_dice_ge_uniform", apf.best_dice >= uni.best_dice);
    report
}
