//! §IV-G.3: APF pre-processing overhead per resolution.
//!
//! Paper: processing the PAIP dataset at resolutions [512, 1024, 4096,
//! 32768, 65536] took [4.2, 7.6, 37.2, 127.4, 286.6] seconds total —
//! negligible against hours of training. The same pipeline (blur -> Canny
//! -> quadtree -> extraction) is measured per image on this machine, up to
//! a memory-bounded maximum resolution, with the per-stage split.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use serde::Serialize;

use crate::{print_table, SoakReport};

#[derive(Serialize)]
struct Row {
    resolution: usize,
    blur_s: f64,
    canny_s: f64,
    quadtree_s: f64,
    extract_s: f64,
    total_s: f64,
    seq_len: usize,
}

pub fn run(quick: bool) -> SoakReport {
    let max_res = if quick { 512 } else { 4096 };
    println!("Pre-processing overhead per image (this machine, single image per resolution)");
    let out: Vec<Row> = [256usize, 512, 1024, 2048, 4096, 8192]
        .into_iter()
        .filter(|&r| r <= max_res)
        .map(|res| {
            let image = PaipGenerator::new(PaipConfig::at_resolution(res)).generate(0).image;
            let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(res));
            let (seq, t) = patcher.timed_patchify(&image);
            let (blur_s, canny_s, quadtree_s, extract_s) = (t.blur_s, t.canny_s, t.quadtree_s, t.extract_s);
            Row { resolution: res, blur_s, canny_s, quadtree_s, extract_s, total_s: t.total_s(), seq_len: seq.len() }
        })
        .collect();
    let rows: Vec<Vec<String>> = out
        .iter()
        .map(|r| {
            let secs = [r.blur_s, r.canny_s, r.quadtree_s, r.extract_s, r.total_s].map(|s| format!("{s:.3}"));
            [r.resolution.to_string()].into_iter().chain(secs).chain([r.seq_len.to_string()]).collect()
        })
        .collect();
    let headers = ["Z", "blur", "canny", "quadtree", "extract", "total", "seq len"];
    print_table("§IV-G.3 — APF pre-processing overhead (seconds per image)", &headers, &rows);
    println!(
        "\nPaper (whole PAIP dataset): 512 -> 4.2s, 1024 -> 7.6s, 4096 -> 37.2s, \
         32768 -> 127.4s, 65536 -> 286.6s."
    );
    let mut report = super::report("overhead", 0, quick, &[("max_res", max_res)]);
    report.detail("rows", &out);
    let grows = out.windows(2).all(|w| w[0].total_s < w[1].total_s);
    report.record("overhead_grows_with_resolution", grows);
    report
}
