//! The quadtree builder against Eq. 6 itself, evaluated by counting edge
//! pixels one by one: resident (`QuadTree::try_build`) and tiled
//! (`QuadTree::try_build_tiled` over crops of the image) at every tile side.

use apf_core::{LeafRegion, PatchError, QuadTree, QuadTreeConfig, SplitCriterion};
use apf_imaging::{canny, gaussian_blur, CannyConfig, GrayImage};
use proptest::prelude::*;

/// Seeded hash of a pixel position, uniform in `0..2^64`.
fn hash(seed: u64, x: usize, y: usize) -> u64 {
    seed.wrapping_add((x as u64) << 32 | y as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Sparse random binary "edge" image (the Canny-map shape of the
/// production path).
fn binary_image(z: usize, density: f64, seed: u64) -> GrayImage {
    GrayImage::from_fn(z, z, |x, y| {
        if ((hash(seed, x, y) >> 33) as f64 / (1u64 << 31) as f64) < density {
            1.0
        } else {
            0.0
        }
    })
}

/// Eq. 6 as written: a quadrant splits while it holds more than
/// `split_value` edge pixels, counted one by one with no pyramid, its depth
/// is below `max_depth` and its halves are at least `min_leaf` wide.
/// Returns the leaves in Z order.
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

/// The builder over `tile x tile` crops of `img`.
fn tiled_build(img: &GrayImage, tile: usize, cfg: &QuadTreeConfig) -> QuadTree {
    let z = img.width();
    QuadTree::try_build_tiled(z, tile, cfg, |tx, ty| {
        let (x0, y0) = (tx as usize * tile, ty as usize * tile);
        Ok::<_, PatchError>(img.crop(x0, y0, tile, tile).into_data())
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Resident and tiled builds give Eq. 6's leaves on random binary maps
    /// and on Canny edge maps of blurred random images, at every tile side,
    /// at the edge values of `min_leaf` (1 and half the image) and
    /// `max_depth` (0, 1 and 255).
    #[test]
    fn every_tile_side_matches_eq6_counted_pixel_by_pixel(
        zexp in 1usize..8,          // 2..128
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
            let noise =
                GrayImage::from_fn(z, z, |x, y| ((hash(seed, x, y) >> 40) & 0xFF) as f32 / 256.0);
            canny(&gaussian_blur(&noise, 3, 0.0), CannyConfig { low: 20.0, high: 60.0 })
        } else {
            binary_image(z, density, seed)
        };
        let split_value = [0.0, split, split.floor(), -1.0][split_pick];
        let max_depth = [0u8, 1, 255, 1 + (seed % 7) as u8][depth_pick];
        let min_leaf = [1u32, (z / 2) as u32, 2][leaf_pick].min((z / 2) as u32);
        let criterion = SplitCriterion::EdgeCount { split_value };
        let cfg = QuadTreeConfig { criterion, max_depth, min_leaf };
        let want = eq6_leaves(&edges, split_value, &cfg);
        let resident = QuadTree::try_build(&edges, &cfg).unwrap();
        prop_assert_eq!(&resident.leaves, &want);
        for tile in (0..=zexp).map(|k| 1usize << k) {
            let tiled = tiled_build(&edges, tile, &cfg);
            prop_assert_eq!(&tiled.leaves, &want, "tile {}", tile);
            prop_assert_eq!(tiled.nodes_visited, resident.nodes_visited);
            prop_assert_eq!(tiled.max_depth_reached, resident.max_depth_reached);
        }
    }
}
