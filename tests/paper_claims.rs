//! Scaled-down verification of the paper's headline claims, as integration
//! tests across the whole workspace.

use std::time::Instant;

use apf::core::{uniform_sequence_length, AdaptivePatcher, PatcherConfig};
use apf::distsim::cost::{step_cost, ModelDims};
use apf::imaging::paip::{PaipConfig, PaipGenerator};
use apf::models::params::ParamSet;
use apf::models::transformer::MultiHeadAttention;
use apf::tensor::prelude::*;

#[test]
fn claim_attention_cost_is_quadratic_in_sequence_length() {
    // §II-B: total attention cost is O((Z/P)^4) in the uniform grid — i.e.
    // quadratic in N. Measure actual wall-clock exponent.
    let dim = 32;
    let mut ps = ParamSet::new();
    let attn = MultiHeadAttention::new(&mut ps, "a", dim, 2, 1);
    let time_at = |n: usize| {
        let x = Tensor::rand_uniform([1, n, dim], -1.0, 1.0, 2);
        // Warm-up.
        {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let xv = g.constant(x.clone());
            let _ = attn.forward(&mut g, &bp, xv);
        }
        let t0 = Instant::now();
        for _ in 0..3 {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let xv = g.constant(x.clone());
            let _ = attn.forward(&mut g, &bp, xv);
        }
        t0.elapsed().as_secs_f64() / 3.0
    };
    let t1 = time_at(512);
    let t2 = time_at(2048);
    let exponent = (t2 / t1).log2() / 2.0; // 4x N
    assert!(
        exponent > 1.4,
        "attention should scale super-linearly; measured N^{:.2}",
        exponent
    );
}

#[test]
fn claim_same_cost_allows_8x_smaller_patches() {
    // Intro: "at the same resolution, a model using APF can employ nearly
    // 8x smaller patch sizes ... while maintaining the same cost".
    // Verify on generated pathology: APF token count at patch P/8 stays
    // within ~2x of the uniform token count at patch P.
    let res = 512;
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    let img = gen.generate(0).image;

    let uniform_p32 = uniform_sequence_length(res, 32); // 256 tokens
    let apf_p4 = AdaptivePatcher::new(
        PatcherConfig::for_resolution(res).with_patch_size(4),
    )
    .patchify(&img)
    .len();
    assert!(
        (apf_p4 as f64) < uniform_p32 as f64 * 2.0,
        "APF at patch 4 has {} tokens vs uniform patch 32's {} — more than 2x",
        apf_p4,
        uniform_p32
    );
}

#[test]
fn claim_cost_model_reproduces_fourth_power_law() {
    // §II-B: uniform-grid cost is O([Z/P]^4). Doubling Z at fixed P must
    // quadruple N and ~16x the quadratic attention FLOPs.
    let dims = ModelDims::vit_base(4);
    let n1 = (512usize / 4).pow(2);
    let n2 = (1024usize / 4).pow(2);
    let q1 = step_cost(&dims, n1).quadratic_flops;
    let q2 = step_cost(&dims, n2).quadratic_flops;
    assert!(((q2 / q1) - 16.0).abs() < 0.5, "ratio {}", q2 / q1);
}

#[test]
fn claim_preprocessing_overhead_is_negligible() {
    // §IV-G.3: pre-processing is negligible vs training. Compare one
    // pre-processing pass against one forward+backward training step on
    // the SAME image's uniform token sequence.
    let res = 128;
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    let sample = gen.generate(0);
    let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(res).with_patch_size(4));
    let t0 = Instant::now();
    let _ = patcher.patchify(&sample.image);
    let prep = t0.elapsed().as_secs_f64();

    use apf::models::rearrange::GridOrder;
    use apf::models::unetr::{Unetr2d, UnetrConfig};
    use apf::train::data::TokenSegDataset;
    use apf::train::optim::AdamWConfig;
    use apf::train::trainer::SegTrainer;
    let ds = TokenSegDataset::uniform(&[(sample.image.clone(), sample.mask.clone())], 4);
    let model = Unetr2d::new(UnetrConfig::small(res / 4, 4, GridOrder::RowMajor), 1);
    let mut tr = SegTrainer::new(model, AdamWConfig::default());
    let (x, y) = ds.batch(&[0]);
    let t1 = Instant::now();
    tr.step(&x, &y);
    let step = t1.elapsed().as_secs_f64();
    // One uniform training step costs many times one pre-processing pass;
    // amortized over epochs the overhead vanishes.
    assert!(
        step > prep * 3.0,
        "training step {:.4}s vs preprocessing {:.4}s",
        step,
        prep
    );
}

#[test]
fn claim_split_value_halving_roughly_halves_patch_size() {
    // Fig. 3's linearity, asserted as a property.
    let gen = PaipGenerator::new(PaipConfig::at_resolution(256));
    let img = gen.generate(1).image;
    let size_at = |v: f64| {
        AdaptivePatcher::new(PatcherConfig::for_resolution(256).with_split_value(v))
            .tree(&img)
            .average_patch_size()
    };
    let s20 = size_at(20.0);
    let s50 = size_at(50.0);
    let s100 = size_at(100.0);
    assert!(s20 < s50 && s50 < s100, "{} {} {}", s20, s50, s100);
    // Ratio comparable to the paper's 9.37 : 20.21 : 30.73 (i.e. roughly
    // halving, certainly within [0.3, 0.8] per step).
    for r in [s20 / s50, s50 / s100] {
        assert!((0.3..0.85).contains(&r), "ratio {}", r);
    }
}

#[test]
fn claim_quadtree_worst_case_is_uniform_grid() {
    // §III-A: "the worst case ... becomes like uniform grid patching".
    use apf::imaging::GrayImage;
    use apf::core::{QuadTree, QuadTreeConfig, SplitCriterion};
    let all_detail = GrayImage::from_raw(64, 64, vec![1.0; 64 * 64]);
    let cfg = QuadTreeConfig {
        criterion: SplitCriterion::EdgeCount { split_value: 1.0 },
        max_depth: 4,
        min_leaf: 2,
    };
    let tree = QuadTree::build(&all_detail, &cfg);
    assert_eq!(tree.len(), 4usize.pow(4)); // exactly the uniform grid
    assert!(tree.leaves.iter().all(|l| l.size == 4));
}

#[test]
fn claim_z_order_keeps_neighbours_close() {
    // §III-A: the Z-order curve keeps geometrically affine patches close in
    // the sequence. Quantify: mean sequence distance of spatially adjacent
    // same-size leaves must beat a row-major ordering of the same leaves.
    let gen = PaipGenerator::new(PaipConfig::at_resolution(256));
    let img = gen.generate(2).image;
    let tree = AdaptivePatcher::new(PatcherConfig::for_resolution(256)).tree(&img);
    let leaves = &tree.leaves; // Z-ordered
    let mut row_major: Vec<_> = leaves.clone();
    row_major.sort_by_key(|l| (l.y, l.x));

    let mean_adjacent_distance = |order: &[apf::core::LeafRegion]| -> f64 {
        let index: std::collections::HashMap<(u32, u32), usize> = order
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.x, l.y), i))
            .collect();
        let mut total = 0.0;
        let mut count = 0;
        for (i, l) in order.iter().enumerate() {
            // Right neighbour of the same size, if it exists.
            if let Some(&j) = index.get(&(l.x + l.size, l.y)) {
                total += (i as f64 - j as f64).abs();
                count += 1;
            }
            // Bottom neighbour.
            if let Some(&j) = index.get(&(l.x, l.y + l.size)) {
                total += (i as f64 - j as f64).abs();
                count += 1;
            }
        }
        total / count.max(1) as f64
    };
    let z = mean_adjacent_distance(leaves);
    let rm = mean_adjacent_distance(&row_major);
    assert!(
        z < rm,
        "Z-order adjacency distance {:.1} should beat row-major {:.1}",
        z,
        rm
    );
}
