//! Table I: the long-sequence method taxonomy, backed by *measured*
//! scaling exponents on this machine.
//!
//! Table I in the paper is a qualitative summary (method, merits, best-case
//! complexity). Its quantitative core, measured:
//!
//! 1. dense attention cost scales ~quadratically in sequence length
//!    (the problem every method attacks);
//! 2. windowed (Swin-style) attention scales ~linearly (a blocking method);
//! 3. APF pre-processing cost scales ~linearly in *pixels* and its output
//!    sequence grows sub-quadratically, while leaving the attention
//!    mechanism untouched.

use std::time::Instant;

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_models::params::ParamSet;
use apf_models::transformer::MultiHeadAttention;
use apf_tensor::prelude::*;

use crate::harness::fit_power_law;
use crate::{print_table, SoakReport};

/// Mean seconds of one attention forward over `windows` independent
/// sequences of `len` tokens (one window is dense attention).
fn time_attention(windows: usize, len: usize, dim: usize, reps: usize) -> f64 {
    let mut ps = ParamSet::new();
    let attn = MultiHeadAttention::new(&mut ps, "a", dim, 4, 1);
    let x = Tensor::rand_uniform([windows, len, dim], -1.0, 1.0, 2);
    let forward = || {
        let mut g = Graph::new();
        let bp = ps.bind(&mut g);
        let xv = g.constant(x.clone());
        let _ = attn.forward(&mut g, &bp, xv);
    };
    forward(); // warm-up
    let t0 = Instant::now();
    (0..reps).for_each(|_| forward());
    t0.elapsed().as_secs_f64() / reps as f64
}

pub fn run(quick: bool) -> SoakReport {
    let (dim, reps) = (64, if quick { 2 } else { 5 });
    let seqs: &[usize] = if quick { &[64, 256, 1024] } else { &[64, 256, 1024, 4096] };
    println!("Measuring dense vs windowed attention scaling (dim {dim}, {reps} reps)...");
    let (mut dense, mut windowed) = (Vec::new(), Vec::new());
    for &s in seqs {
        let td = time_attention(1, s, dim, reps);
        let tw = time_attention(s / 64.min(s), 64.min(s), dim, reps);
        println!("  N={s:>5}: dense {td:.5}s, windowed {tw:.5}s");
        dense.push((s as f64, td));
        windowed.push((s as f64, tw));
    }
    // Skip the smallest point when fitting (overhead-dominated).
    let (e_dense, e_win) = (fit_power_law(&dense[1..]).0, fit_power_law(&windowed[1..]).0);

    println!("Measuring APF pre-processing scaling...");
    let res_list: &[usize] = if quick { &[128, 256, 512] } else { &[256, 512, 1024, 2048] };
    let (mut prep, mut seq_growth) = (Vec::new(), Vec::new());
    for &r in res_list {
        let img = PaipGenerator::new(PaipConfig::at_resolution(r)).generate(0).image;
        let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(r).with_patch_size(4));
        let t0 = Instant::now();
        let (seq, _) = patcher.timed_patchify(&img);
        let t = t0.elapsed().as_secs_f64();
        println!("  Z={r:>5}: preprocess {t:.4}s, seq len {}", seq.len());
        prep.push(((r * r) as f64, t));
        seq_growth.push((r as f64, seq.len() as f64));
    }
    let (e_prep, e_seq) = (fit_power_law(&prep).0, fit_power_law(&seq_growth).0);

    let row = |a: &str, b: &str, c: String, d: &str| vec![a.into(), b.into(), c, d.into()];
    let apf = format!("pixels^{e_prep:.2}; seq ~ Z^{e_seq:.2}");
    print_table(
        "Table I — long-sequence methods: claimed vs measured scaling",
        &["approach", "claimed", "measured", "what changes"],
        &[
            row("Dense attention (ViT)", "O(N^2)", format!("N^{e_dense:.2}"), "attention itself"),
            row("Windowed (Swin-style)", "O(N)", format!("N^{e_win:.2}"), "modified attention"),
            row("Approximation (Linformer etc.)", "O(N)", "not built".into(), "modified attention"),
            row("Hierarchical (HIPT etc.)", "O(N log N)", "see table5".into(), "multiple models"),
            row("APF (pre-processing)", "O(log^2 N) best", apf, "model intact"),
        ],
    );
    let mut r = super::report("table1", 0, quick, &[("reps", reps)]);
    r.count("dense_attention_exponent", e_dense);
    r.count("windowed_attention_exponent", e_win);
    r.count("apf_preprocess_exponent_in_pixels", e_prep);
    r.count("apf_sequence_growth_exponent", e_seq);
    r.record("dense_attention_grows_faster_than_windowed", e_dense > e_win);
    r.record("apf_sequence_growth_subquadratic", e_seq < 2.0);
    r
}
