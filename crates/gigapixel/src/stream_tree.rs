//! Streaming quadtree construction over a tiled store.
//!
//! [`build_streaming_quadtree`] runs the one quadtree builder,
//! [`QuadTree::try_build_tiled`], with the bounded [`TileCache`] as its tile
//! source, so the detail image is never resident densely. Phase A streams
//! every tile once into per-tile sum pyramids and a pyramid over the tile
//! grid; phase B re-reads a tile only to descend inside it.
//!
//! The equality contract with [`QuadTree::try_build`], which is the same
//! builder over one resident tile:
//!
//! - For any finite `f32` values the two trees are bit-identical whenever
//!   the tile side (capped at the image side `Z`) is at least the base
//!   cell `max(next_pow2(2 * min_leaf), Z >> (max_depth - 1))`. Every
//!   quadrant sum then comes from the same addition tree: base cells
//!   summed row-major, then 2x2 merges in NW, NE, SW, SE order.
//! - Below that tile side the base cell shrinks to the tile, which changes
//!   the order of the additions. Sums stay exact, and the trees identical,
//!   whenever partial sums are exactly representable in `f64`: binary
//!   detail maps (the Canny output of the production path) and values
//!   quantized to dyadic fractions. Other values may then round
//!   differently when a quadrant sits exactly at the split threshold.

use apf_core::{LeafRegion, Patch, PatchSequence, QuadTree, QuadTreeConfig};
use apf_imaging::resize::box_project;
use apf_telemetry::Telemetry;

use crate::cache::TileCache;
use crate::error::GigapixelError;

/// Builds a quadtree over the image in `cache`'s store without ever
/// materializing it densely. See the module docs for the equality contract
/// with [`QuadTree::try_build`].
pub fn build_streaming_quadtree(
    cache: &TileCache,
    cfg: &QuadTreeConfig,
    tel: &Telemetry,
) -> Result<QuadTree, GigapixelError> {
    let _span = tel.span("gigapixel.stream_tree");
    let build_s = tel.histogram(
        "apf_gigapixel_tree_build_seconds",
        "Streaming quadtree construction (both phases)",
    );
    let _t = build_s.start_timer();

    let g = cache.geometry();
    let z = QuadTree::validate_geometry(g.width, g.height, cfg)?;
    let tile = g.tile_size.min(z);
    if !tile.is_power_of_two() {
        return Err(GigapixelError::Unsupported {
            detail: format!("streaming quadtree needs a power-of-two tile side, store has {}", g.tile_size),
        });
    }
    QuadTree::try_build_tiled(z, tile, cfg, |tx, ty| cache.get(tx, ty))
}

/// Projects Z-ordered leaves to `pm x pm` patches by reading each leaf
/// region through the cache — the out-of-core counterpart of
/// [`apf_core::extract_patches`], and bit-identical to it because a cached
/// region read reproduces the dense crop exactly.
pub fn extract_patches_streaming(
    cache: &TileCache,
    leaves: &[LeafRegion],
    pm: usize,
) -> Result<PatchSequence, GigapixelError> {
    assert!(pm >= 1, "patch size must be positive");
    let mut patches = Vec::with_capacity(leaves.len());
    for leaf in leaves {
        let s = leaf.size as usize;
        let crop = cache.read_region(leaf.x as usize, leaf.y as usize, s, s)?;
        let mut pixels = vec![0.0; pm * pm];
        box_project(crop.data(), s, s, s, pm, pm, &mut pixels);
        patches.push(Patch { pixels, region: Some(*leaf) });
    }
    Ok(PatchSequence { patches, patch_size: pm, resolution: cache.geometry().width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::write_tiled;
    use crate::residency::Residency;
    use crate::store::TileStore;
    use apf_core::{PatchError, SplitCriterion};
    use apf_imaging::image::GrayImage;
    use std::sync::Arc;

    /// Writes `img` into a tiled store and wraps it in a small cache.
    fn cache_of(img: &GrayImage, tile: usize, name: &str) -> TileCache {
        let dir = std::env::temp_dir().join("apf_gigapixel_tree_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_tiled(&path, img.width(), img.height(), tile, |_tx, _ty, x0, y0, w, h| {
            img.crop(x0, y0, w, h).into_data()
        })
        .unwrap();
        let tel = Telemetry::disabled();
        let store = Arc::new(TileStore::open(&path).unwrap());
        // Budget of four tiles: the build must work under eviction pressure.
        TileCache::new(store, 4 * tile * tile * 4, tel.clone(), Residency::new(&tel))
    }

    fn sparse_binary(z: usize, seed: u64) -> GrayImage {
        GrayImage::from_fn(z, z, |x, y| {
            let h = seed
                .wrapping_add((x as u64) << 32 | y as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            if (h >> 60) == 0 {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn streaming_tree_is_bit_identical_on_binary_detail() {
        for (z, tile) in [(256usize, 64usize), (128, 32), (64, 64), (32, 64)] {
            let img = sparse_binary(z, z as u64);
            let criterion = SplitCriterion::EdgeCount { split_value: 6.0 };
            let cfg = QuadTreeConfig { criterion, max_depth: 7, min_leaf: 2 };
            let dense = QuadTree::try_build(&img, &cfg).unwrap();
            let cache = cache_of(&img, tile, &format!("bin_{z}_{tile}.apt1"));
            let streamed = build_streaming_quadtree(&cache, &cfg, &Telemetry::disabled()).unwrap();
            assert_eq!(dense.leaves, streamed.leaves, "z={z} tile={tile}");
            assert_eq!(dense.nodes_visited, streamed.nodes_visited);
            assert_eq!(dense.max_depth_reached, streamed.max_depth_reached);
            assert_eq!(dense.stats, streamed.stats);
        }
    }

    #[test]
    fn streaming_tree_is_bit_identical_on_quantized_variance() {
        // Pixels quantized to /256: all sums exact in f64, so the variance
        // criterion decides identically.
        let z = 128;
        let img = GrayImage::from_fn(z, z, |x, y| {
            if x >= 64 && y < 64 {
                ((x * 31 + y * 17) % 256) as f32 / 256.0
            } else {
                0.25
            }
        });
        let criterion = SplitCriterion::Variance { threshold: 0.01 };
        let cfg = QuadTreeConfig { criterion, max_depth: 6, min_leaf: 2 };
        let dense = QuadTree::try_build(&img, &cfg).unwrap();
        let cache = cache_of(&img, 32, "var.apt1");
        let streamed = build_streaming_quadtree(&cache, &cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(dense.leaves, streamed.leaves);
        assert_eq!(dense.stats, streamed.stats);
        assert!(dense.len() > 4, "variance test should actually subdivide");
    }

    #[test]
    fn streaming_patches_match_dense_extraction() {
        let z = 128;
        let img = GrayImage::from_fn(z, z, |x, y| ((x * 13 + y * 7) % 16) as f32 / 15.0);
        let detail = sparse_binary(z, 9);
        let criterion = SplitCriterion::EdgeCount { split_value: 4.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 6, min_leaf: 2 };
        let tree = QuadTree::try_build(&detail, &cfg).unwrap();
        let dense_seq = apf_core::extract_patches(&img, &tree.leaves, 4);
        let cache = cache_of(&img, 32, "patches.apt1");
        let stream_seq = extract_patches_streaming(&cache, &tree.leaves, 4).unwrap();
        assert_eq!(dense_seq.len(), stream_seq.len());
        for (a, b) in dense_seq.patches.iter().zip(stream_seq.patches.iter()) {
            assert_eq!(a.pixels, b.pixels);
            assert_eq!(a.region, b.region);
        }
    }

    #[test]
    fn validation_mirrors_in_memory_builder() {
        let img = GrayImage::from_fn(96, 64, |_, _| 0.0);
        let cache = cache_of(&img, 32, "notsquare.apt1");
        let cfg = QuadTreeConfig::default();
        match build_streaming_quadtree(&cache, &cfg, &Telemetry::disabled()) {
            Err(GigapixelError::Patch(PatchError::NotSquare { width: 96, height: 64 })) => {}
            other => panic!("expected NotSquare, got {other:?}"),
        }

        let mut nan = GrayImage::new(64, 64);
        nan.set(40, 33, f32::NAN);
        let cache = cache_of(&nan, 32, "nan.apt1");
        match build_streaming_quadtree(&cache, &cfg, &Telemetry::disabled()) {
            Err(GigapixelError::Patch(PatchError::NonFinitePixel { x: 40, y: 33, .. })) => {}
            other => panic!("expected NonFinitePixel, got {other:?}"),
        }
    }
}
