//! Property tests: the streaming (out-of-core) quadtree builder and patch
//! extractor agree exactly with the in-memory `apf-core` pipeline over
//! random images, tile sizes, cache budgets, and quadtree configurations,
//! and both builders agree with Eq. 6 itself, evaluated by counting edge
//! pixels one by one.
//!
//! Equivalence is exact (not approximate) for the two pixel families the
//! production paths feed the builder: binary detail maps (Canny output)
//! and dyadic-quantized grayscale, whose partial f64 sums are exactly
//! representable in any accumulation order.

use std::sync::Arc;

use apf_core::{extract_patches, LeafRegion, QuadTree, QuadTreeConfig, SplitCriterion};
use apf_gigapixel::{
    build_streaming_quadtree, extract_patches_streaming, write_tiled, Residency, TileCache,
    TileStore,
};
use apf_imaging::{canny, gaussian_blur, CannyConfig, GrayImage};
use apf_telemetry::Telemetry;
use proptest::prelude::*;

/// Sparse random binary "edge" image (the Canny-map shape of the
/// production path).
fn binary_image(z: usize, density: f64, seed: u64) -> GrayImage {
    GrayImage::from_fn(z, z, |x, y| {
        let h = seed
            .wrapping_add((x as u64) << 32 | y as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if ((h >> 33) as f64 / (1u64 << 31) as f64) < density {
            1.0
        } else {
            0.0
        }
    })
}

/// Random grayscale quantized to multiples of 1/256 — every pixel, square,
/// and partial sum is exactly representable in f64.
fn quantized_image(z: usize, seed: u64) -> GrayImage {
    GrayImage::from_fn(z, z, |x, y| {
        let h = seed
            .wrapping_add((x as u64) << 32 | y as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 40) & 0xFF) as f32 / 256.0
    })
}

/// Writes `img` into a fresh tiled container and wraps it in a cache.
fn cache_of(img: &GrayImage, tile: usize, budget_tiles: usize, name: String) -> TileCache {
    let dir = std::env::temp_dir().join("apf_gigapixel_equiv_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_tiled(&path, img.width(), img.height(), tile, |_, _, x0, y0, w, h| {
        img.crop(x0, y0, w, h).into_data()
    })
    .unwrap();
    let tel = Telemetry::disabled();
    let res = Residency::new(&tel);
    let store = Arc::new(TileStore::open(&path).unwrap());
    TileCache::new(store, budget_tiles * tile * tile * 4, tel, res)
}

/// Eq. 6 as written: a quadrant splits while it holds more than
/// `split_value` edge pixels, counted one by one with no integral image or
/// pyramid, its depth is below `max_depth` and its halves are at least
/// `min_leaf` wide. Returns the leaves in Z order.
fn eq6_leaves(edges: &GrayImage, split_value: f64, cfg: &QuadTreeConfig) -> Vec<LeafRegion> {
    fn visit(
        edges: &GrayImage,
        split_value: f64,
        cfg: &QuadTreeConfig,
        leaf: LeafRegion,
        out: &mut Vec<LeafRegion>,
    ) {
        let LeafRegion { x, y, size, depth } = leaf;
        let count = (y..y + size)
            .flat_map(|yy| (x..x + size).map(move |xx| (xx, yy)))
            .filter(|&(xx, yy)| edges.get(xx as usize, yy as usize) != 0.0)
            .count();
        if depth < cfg.max_depth && size >= 2 * cfg.min_leaf && count as f64 > split_value {
            let half = size / 2;
            for (dx, dy) in [(0, 0), (half, 0), (0, half), (half, half)] {
                let child = LeafRegion { x: x + dx, y: y + dy, size: half, depth: depth + 1 };
                visit(edges, split_value, cfg, child, out);
            }
        } else {
            out.push(leaf);
        }
    }
    let mut out = Vec::new();
    let root = LeafRegion { x: 0, y: 0, size: edges.width() as u32, depth: 0 };
    visit(edges, split_value, cfg, root, &mut out);
    out.sort_by_key(LeafRegion::morton);
    out
}

/// Asserts full structural equality between the two builds and between the
/// two patch extractions.
fn assert_equivalent(img: &GrayImage, cache: &TileCache, cfg: &QuadTreeConfig, pm: usize) {
    let dense = QuadTree::try_build(img, cfg).unwrap();
    let streamed = build_streaming_quadtree(cache, cfg, &Telemetry::disabled()).unwrap();

    assert_eq!(dense.leaves, streamed.leaves, "leaf sets differ");
    assert_eq!(dense.nodes_visited, streamed.nodes_visited);
    assert_eq!(dense.max_depth_reached, streamed.max_depth_reached);
    for w in streamed.leaves.windows(2) {
        assert!(w[0].morton() < w[1].morton(), "Morton order broken");
    }

    let dense_seq = extract_patches(img, &dense.leaves, pm);
    let streamed_seq = extract_patches_streaming(cache, &streamed.leaves, pm).unwrap();
    assert_eq!(dense_seq.len(), streamed_seq.len());
    assert_eq!(
        dense_seq.to_tensor().to_vec(),
        streamed_seq.to_tensor().to_vec(),
        "patch tensors differ"
    );
    for (a, b) in dense_seq.patches.iter().zip(&streamed_seq.patches) {
        assert_eq!(a.region, b.region);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_matches_in_memory_on_binary_maps(
        zexp in 5usize..8,          // 32..128
        texp in 4usize..7,          // tile 16..64
        budget_tiles in 1usize..6,  // exercise eviction under tiny budgets
        density in 0.0f64..0.25,
        split in 1.0f64..48.0,
        depth in 1u8..8,
        min_leaf in 1u32..5,
        balance in 0usize..2,
        pm in 1usize..3,            // pm = 2 or 4 after shift
        seed in 0u64..1000,
    ) {
        let z = 1 << zexp;
        let tile = 1 << texp;
        let img = binary_image(z, density, seed);
        let cfg = QuadTreeConfig {
            criterion: SplitCriterion::EdgeCount { split_value: split },
            max_depth: depth,
            min_leaf,
            balance_2to1: balance == 1,
        };
        let cache = cache_of(&img, tile, budget_tiles, format!("bin_{z}_{tile}_{seed}.apt1"));
        assert_equivalent(&img, &cache, &cfg, 1 << pm);
    }

    /// Both builders give Eq. 6's leaves on random binary maps and on
    /// Canny edge maps of blurred random images, at the edge values of
    /// `min_leaf` (1 and half the image) and `max_depth` (0, 1 and 255).
    #[test]
    fn both_builders_match_eq6_counted_pixel_by_pixel(
        zexp in 1usize..8,          // 2..128
        texp in 1usize..6,          // tile 2..32
        canny_map in 0usize..2,
        density in 0.0f64..0.3,
        split_pick in 0usize..4,
        split in 0.0f64..40.0,
        depth_pick in 0usize..4,
        leaf_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let z = 1usize << zexp;
        let edges = if canny_map == 1 {
            let noise = quantized_image(z, seed);
            canny(&gaussian_blur(&noise, 3, 0.0), CannyConfig { low: 20.0, high: 60.0 })
        } else {
            binary_image(z, density, seed)
        };
        let split_value = [0.0, split, split.floor(), -1.0][split_pick];
        let max_depth = [0u8, 1, 255, 1 + (seed % 7) as u8][depth_pick];
        let min_leaf = [1u32, (z / 2) as u32, 2][leaf_pick].min((z / 2) as u32);
        let cfg = QuadTreeConfig {
            criterion: SplitCriterion::EdgeCount { split_value },
            max_depth,
            min_leaf,
            balance_2to1: false,
        };
        let want = eq6_leaves(&edges, split_value, &cfg);
        prop_assert_eq!(&QuadTree::try_build(&edges, &cfg).unwrap().leaves, &want);
        let cache = cache_of(&edges, 1 << texp, 3, format!("eq6_{z}_{texp}_{seed}.apt1"));
        let streamed = build_streaming_quadtree(&cache, &cfg, &Telemetry::disabled()).unwrap();
        prop_assert_eq!(&streamed.leaves, &want);
    }

    #[test]
    fn streaming_matches_in_memory_on_variance_criterion(
        zexp in 5usize..8,
        texp in 4usize..7,
        budget_tiles in 1usize..6,
        threshold in 0.0f64..0.1,
        depth in 1u8..8,
        balance in 0usize..2,
        seed in 0u64..1000,
    ) {
        let z = 1 << zexp;
        let tile = 1 << texp;
        let img = quantized_image(z, seed);
        let cfg = QuadTreeConfig {
            criterion: SplitCriterion::Variance { threshold },
            max_depth: depth,
            min_leaf: 2,
            balance_2to1: balance == 1,
        };
        let cache = cache_of(&img, tile, budget_tiles, format!("var_{z}_{tile}_{seed}.apt1"));
        assert_equivalent(&img, &cache, &cfg, 4);
    }
}
