//! Property tests: the streaming (out-of-core) quadtree build and patch
//! extractor agree exactly with the in-memory `apf-core` pipeline over
//! random images, tile sizes, cache budgets under eviction pressure, and
//! quadtree configurations. The builder itself is checked against Eq. 6
//! counted pixel by pixel in `apf-core`'s `eq6_oracle` tests.
//!
//! Equivalence is exact (not approximate) at every tile side for the two
//! pixel families the production paths feed the builder: binary detail
//! maps (Canny output) and dyadic-quantized grayscale, whose partial f64
//! sums are exactly representable in any accumulation order. For
//! unquantized values it is exact at tile sides no smaller than the base
//! cell, as the `stream_tree` module doc states.

use std::sync::Arc;

use apf_core::{extract_patches, QuadTree, QuadTreeConfig, SplitCriterion};
use apf_gigapixel::{
    build_streaming_quadtree, extract_patches_streaming, write_tiled, Residency, TileCache,
    TileStore,
};
use apf_imaging::GrayImage;
use apf_telemetry::Telemetry;
use proptest::prelude::*;

/// Seeded random image: `f(h)` of a 64-bit hash `h` of each position.
fn hashed_image(z: usize, seed: u64, f: impl Fn(u64) -> f32) -> GrayImage {
    GrayImage::from_fn(z, z, |x, y| {
        f(seed.wrapping_add((x as u64) << 32 | y as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    })
}

/// Sparse random binary "edge" image (the Canny-map shape of the
/// production path).
fn binary_image(z: usize, density: f64, seed: u64) -> GrayImage {
    hashed_image(z, seed, |h| {
        if ((h >> 33) as f64 / (1u64 << 31) as f64) < density { 1.0 } else { 0.0 }
    })
}

/// Random grayscale quantized to multiples of 1/256 — every pixel, square,
/// and partial sum is exactly representable in f64.
fn quantized_image(z: usize, seed: u64) -> GrayImage {
    hashed_image(z, seed, |h| ((h >> 40) & 0xFF) as f32 / 256.0)
}

/// Random grayscale that is not dyadic, so its sums round in f64.
fn unquantized_image(z: usize, seed: u64) -> GrayImage {
    hashed_image(z, seed, |h| (h >> 40) as f32 / 16_777_213.0)
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
        pm in 1usize..3,            // pm = 2 or 4 after shift
        seed in 0u64..1000,
    ) {
        let z = 1 << zexp;
        let tile = 1 << texp;
        let img = binary_image(z, density, seed);
        let criterion = SplitCriterion::EdgeCount { split_value: split };
        let cfg = QuadTreeConfig { criterion, max_depth: depth, min_leaf };
        let cache = cache_of(&img, tile, budget_tiles, format!("bin_{z}_{tile}_{seed}.apt1"));
        assert_equivalent(&img, &cache, &cfg, 1 << pm);
    }

    #[test]
    fn streaming_matches_in_memory_on_variance_criterion(
        zexp in 5usize..8,
        texp in 4usize..7,
        budget_tiles in 1usize..6,
        threshold in 0.0f64..0.1,
        depth in 1u8..8,
        seed in 0u64..1000,
    ) {
        let z = 1 << zexp;
        let tile = 1 << texp;
        let img = quantized_image(z, seed);
        let criterion = SplitCriterion::Variance { threshold };
        let cfg = QuadTreeConfig { criterion, max_depth: depth, min_leaf: 2 };
        let cache = cache_of(&img, tile, budget_tiles, format!("var_{z}_{tile}_{seed}.apt1"));
        assert_equivalent(&img, &cache, &cfg, 4);
    }

    /// Unquantized values under the variance criterion: the trees are
    /// bit-identical at every tile side no smaller than the base cell
    /// `max(next_pow2(2 * min_leaf), z >> (max_depth - 1))`, exactly the
    /// configurations the `stream_tree` module doc claims.
    #[test]
    fn streaming_matches_in_memory_on_unquantized_values_from_the_base_cell_up(
        zexp in 4usize..8,
        texp in 0usize..8,
        budget_tiles in 1usize..6,
        threshold in 0.0f64..0.1,
        min_leaf in 1u32..5,
        depth_pick in 0usize..3,
        seed in 0u64..1000,
    ) {
        let z = 1usize << zexp;
        let max_depth = [1u8, 255, 1 + (seed % 8) as u8][depth_pick];
        let deepest = z.checked_shr(max_depth as u32 - 1).unwrap_or(0);
        let cell = (2 * min_leaf as usize).next_power_of_two().max(deepest);
        let tile = (1usize << texp).max(cell);
        let img = unquantized_image(z, seed);
        let criterion = SplitCriterion::Variance { threshold };
        let cfg = QuadTreeConfig { criterion, max_depth, min_leaf };
        let cache = cache_of(&img, tile, budget_tiles, format!("raw_{z}_{tile}_{seed}.apt1"));
        assert_equivalent(&img, &cache, &cfg, 4);
    }
}
