//! Figure 3: the quadtree split value `v` controls the average patch size
//! and the sequence length approximately linearly.
//!
//! Paper series (PAIP): split values [20, 50, 100] give average patch sizes
//! [9.37, 20.21, 30.73] and average sequence lengths [677.7, 286.9, 127.5].

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_core::stats::{mean, PatchStats};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use serde::Serialize;

use crate::{print_table, SoakReport};

/// The paper's series at 512²: (split value, avg patch size, avg seq len).
const PAPER: [(f64, f64, f64); 3] = [(20.0, 9.37, 677.7), (50.0, 20.21, 286.9), (100.0, 30.73, 127.5)];

#[derive(Serialize)]
struct Row {
    split_value: f64,
    avg_patch_size: f64,
    avg_seq_len: f64,
    paper_patch_size: f64,
    paper_seq_len: f64,
    /// `(patch side, count)` over the first image's leaves.
    first_image_histogram: Vec<(u32, usize)>,
}

pub fn run(quick: bool) -> SoakReport {
    let (res, samples) = if quick { (128, 2) } else { (512, 8) };
    println!("Fig. 3: split value sweep on {samples} PAIP-like images at {res}^2");
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    let images: Vec<_> = (0..samples).map(|i| gen.generate(i).image).collect();

    let mut out = Vec::new();
    for (v, paper_patch_size, paper_seq_len) in PAPER {
        let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(res).with_split_value(v));
        let stats: Vec<PatchStats> = images.iter().map(|img| PatchStats::from_tree(&patcher.tree(img))).collect();
        let sizes: Vec<f64> = stats.iter().map(|s| s.average_patch_size).collect();
        let lens: Vec<f64> = stats.iter().map(|s| s.sequence_length as f64).collect();
        out.push(Row {
            first_image_histogram: stats[0].size_histogram.clone(),
            split_value: v,
            avg_patch_size: mean(&sizes),
            avg_seq_len: mean(&lens),
            paper_patch_size,
            paper_seq_len,
        });
    }
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            let (size, len) = (r.avg_patch_size, r.avg_seq_len);
            let (paper_size, paper_len) = (r.paper_patch_size, r.paper_seq_len);
            let v = r.split_value.to_string();
            let paper = [format!("{paper_size:.2}"), format!("{paper_len:.1}")];
            [v, format!("{size:.2}"), format!("{len:.1}")].into_iter().chain(paper).collect()
        })
        .collect();
    let headers = ["v", "avg patch", "avg seq len", "paper patch", "paper seq len"];
    print_table("Fig. 3 — split value vs avg patch size / sequence length", &headers, &rows);
    // Halving v should roughly halve the average patch size, and the
    // sequence grows roughly linearly as the patch shrinks.
    let growth = out[0].avg_seq_len / out[2].avg_seq_len;
    println!("\nsequence growth v=20 vs v=100: {growth:.1}x (paper: {:.1}x)", 677.7 / 127.5);
    let mut report = super::report("fig3", 0, quick, &[("res", res), ("samples", samples)]);
    report.count("seq_growth_v20_over_v100", growth);
    report.detail("rows", &out);
    let longer = out.windows(2).all(|w| w[0].avg_seq_len > w[1].avg_seq_len);
    report.record("seq_len_grows_as_split_value_falls", longer);
    let larger = out.windows(2).all(|w| w[0].avg_patch_size < w[1].avg_patch_size);
    report.record("patch_size_grows_with_split_value", larger);
    report
}
