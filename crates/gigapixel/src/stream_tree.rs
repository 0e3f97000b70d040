//! Streaming quadtree construction over a tiled store.
//!
//! The in-memory [`QuadTree::try_build`] needs the whole detail image plus
//! its integral table resident — ~2.5x the dense image bytes. This builder
//! produces the *same tree* while touching tiles through the bounded cache:
//!
//! 1. **Phase A (one streaming pass)**: per-tile detail sums (and squared
//!    sums for the variance criterion) are accumulated into a coarse
//!    pyramid whose base is the tile grid and whose levels merge 2x2
//!    children, so any aligned power-of-two quadrant *at or above* tile
//!    granularity is a pyramid lookup.
//! 2. **Phase B (top-down subdivision)**: the same recursion as the
//!    in-memory builder. Quadrants at or above the tile side read the
//!    pyramid; smaller quadrants always lie inside a single tile (both are
//!    aligned powers of two), which is fetched through the cache and
//!    summarized by a tile-local [`IntegralImage`]. The Z-order descent
//!    visits each tile's interior contiguously, so a one-slot memo keeps at
//!    most one tile's integral alive.
//!
//! Both builders route every split decision through
//! [`apf_core::SplitCriterion::exceeds`] and finish through [`QuadTree::from_leaves`],
//! so they can only diverge if their quadrant sums diverge. Sums are exact
//! (hence the trees bit-identical) whenever partial sums are exactly
//! representable in `f64` — in particular for the paper's production path,
//! where the detail image is a *binary* Canny edge map, and for pixel
//! values quantized to dyadic fractions. For arbitrary `f32` images the
//! two builds may round differently only when a quadrant sits exactly at
//! the split threshold.

use apf_core::{LeafRegion, Patch, PatchError, PatchSequence, QuadTree, QuadTreeConfig};
use apf_imaging::image::GrayImage;
use apf_imaging::integral::IntegralImage;
use apf_imaging::resize::box_project;
use apf_telemetry::Telemetry;

use crate::cache::TileCache;
use crate::error::GigapixelError;

/// One pyramid level: `side x side` cells of `cell`-pixel quadrant sums.
struct Level {
    cell: usize,
    side: usize,
    sum: Vec<f64>,
    sq: Option<Vec<f64>>,
}

struct Descent<'a> {
    cache: &'a TileCache,
    cfg: &'a QuadTreeConfig,
    levels: Vec<Level>,
    teff: usize,
    need_sq: bool,
    leaves: Vec<LeafRegion>,
    nodes_visited: usize,
    max_depth_reached: u8,
    // (tx, ty) -> tile-local integrals; single slot because the Z-order
    // descent finishes one tile before entering the next.
    tile_memo: Option<(u32, u32, IntegralImage, Option<IntegralImage>)>,
}

impl Descent<'_> {
    fn quadrant_sums(
        &mut self,
        x: u32,
        y: u32,
        size: u32,
    ) -> Result<(f64, Option<f64>), GigapixelError> {
        let s = size as usize;
        if s >= self.teff {
            // Aligned quadrant at or above tile granularity: pyramid lookup.
            let k = (s / self.teff).trailing_zeros() as usize;
            let lvl = &self.levels[k];
            debug_assert_eq!(lvl.cell, s);
            let cx = x as usize / s;
            let cy = y as usize / s;
            let i = cy * lvl.side + cx;
            return Ok((lvl.sum[i], lvl.sq.as_ref().map(|v| v[i])));
        }
        // Sub-tile quadrant: x and size are powers of two with size < tile
        // side, so the quadrant cannot straddle a tile boundary.
        let tx = (x as usize / self.teff) as u32;
        let ty = (y as usize / self.teff) as u32;
        let memo_matches = matches!(self.tile_memo, Some((mx, my, ..)) if (mx, my) == (tx, ty));
        if !memo_matches {
            let data = self.cache.get(tx, ty)?;
            let tile = GrayImage::from_raw(self.teff, self.teff, data.as_ref().clone());
            let sums = IntegralImage::new(&tile);
            let sq_sums = if self.need_sq {
                let sq = GrayImage::from_raw(
                    self.teff,
                    self.teff,
                    tile.data().iter().map(|&v| v * v).collect(),
                );
                Some(IntegralImage::new(&sq))
            } else {
                None
            };
            self.tile_memo = Some((tx, ty, sums, sq_sums));
        }
        let (_, _, sums, sq_sums) = self.tile_memo.as_ref().unwrap();
        let lx = x as usize - tx as usize * self.teff;
        let ly = y as usize - ty as usize * self.teff;
        Ok((
            sums.rect_sum(lx, ly, s, s),
            sq_sums.as_ref().map(|t| t.rect_sum(lx, ly, s, s)),
        ))
    }

    fn subdivide(&mut self, x: u32, y: u32, size: u32, depth: u8) -> Result<(), GigapixelError> {
        self.nodes_visited += 1;
        self.max_depth_reached = self.max_depth_reached.max(depth);

        let can_split = depth < self.cfg.max_depth && size >= 2 * self.cfg.min_leaf && size >= 2;
        let wants_split = if can_split {
            let (sum, sq) = self.quadrant_sums(x, y, size)?;
            self.cfg
                .criterion
                .exceeds(sum, sq, (size as usize * size as usize) as f64)
                .map_err(GigapixelError::Patch)?
        } else {
            false
        };
        if !wants_split {
            self.leaves.push(LeafRegion { x, y, size, depth });
            return Ok(());
        }
        let half = size / 2;
        // Same NW, NE, SW, SE order as the in-memory builder.
        self.subdivide(x, y, half, depth + 1)?;
        self.subdivide(x + half, y, half, depth + 1)?;
        self.subdivide(x, y + half, half, depth + 1)?;
        self.subdivide(x + half, y + half, size - half, depth + 1)
    }
}

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
    let (w, h) = (g.width, g.height);
    // Mirror QuadTree::try_build's validation order and error types.
    if w == 0 || h == 0 {
        return Err(PatchError::Empty { width: w, height: h }.into());
    }
    if w != h {
        return Err(PatchError::NotSquare { width: w, height: h }.into());
    }
    let z = w;
    if !z.is_power_of_two() {
        return Err(PatchError::NonPowerOfTwo { size: z }.into());
    }
    assert!(cfg.min_leaf >= 1, "min_leaf must be at least 1");
    if z < 2 * cfg.min_leaf as usize {
        return Err(PatchError::TooSmall { size: z, min_required: 2 * cfg.min_leaf as usize }.into());
    }
    let teff = g.tile_size.min(z);
    if !teff.is_power_of_two() {
        return Err(GigapixelError::Unsupported {
            detail: format!("streaming quadtree needs a power-of-two tile side, store has {}", g.tile_size),
        });
    }
    let need_sq = matches!(cfg.criterion, apf_core::SplitCriterion::Variance { .. });

    // Phase A: stream every tile once, accumulating the base pyramid level
    // and validating finiteness (the in-memory builder validates the whole
    // image before subdividing; we do the same, tile-granular).
    let side = z / teff;
    let mut base_sum = vec![0.0f64; side * side];
    let mut base_sq = if need_sq { Some(vec![0.0f64; side * side]) } else { None };
    for ty in 0..side as u32 {
        for tx in 0..side as u32 {
            let data = cache.get(tx, ty)?;
            let mut sum = 0.0f64;
            let mut sq = 0.0f64;
            for (i, &v) in data.iter().enumerate() {
                if !v.is_finite() {
                    return Err(PatchError::from(apf_imaging::ImageError::NonFinitePixel {
                        x: tx as usize * teff + i % teff,
                        y: ty as usize * teff + i / teff,
                        value: v,
                    })
                    .into());
                }
                sum += v as f64;
                if need_sq {
                    sq += (v * v) as f64;
                }
            }
            let i = ty as usize * side + tx as usize;
            base_sum[i] = sum;
            if let Some(b) = base_sq.as_mut() {
                b[i] = sq;
            }
        }
    }
    let mut levels = vec![Level { cell: teff, side, sum: base_sum, sq: base_sq }];
    while levels.last().unwrap().side > 1 {
        let prev = levels.last().unwrap();
        let ps = prev.side;
        let ns = ps / 2;
        let mut sum = vec![0.0f64; ns * ns];
        let mut sq = prev.sq.as_ref().map(|_| vec![0.0f64; ns * ns]);
        for cy in 0..ns {
            for cx in 0..ns {
                let mut s4 = 0.0;
                let mut q4 = 0.0;
                for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let j = (2 * cy + dy) * ps + 2 * cx + dx;
                    s4 += prev.sum[j];
                    if let Some(pq) = prev.sq.as_ref() {
                        q4 += pq[j];
                    }
                }
                sum[cy * ns + cx] = s4;
                if let Some(nq) = sq.as_mut() {
                    nq[cy * ns + cx] = q4;
                }
            }
        }
        levels.push(Level { cell: levels.last().unwrap().cell * 2, side: ns, sum, sq });
    }

    // Phase B: identical top-down subdivision, then the shared tail.
    let mut d = Descent {
        cache,
        cfg,
        levels,
        teff,
        need_sq,
        leaves: Vec::new(),
        nodes_visited: 0,
        max_depth_reached: 0,
        tile_memo: None,
    };
    d.subdivide(0, 0, z as u32, 0)?;
    Ok(QuadTree::from_leaves(z, cfg, d.leaves, d.max_depth_reached, d.nodes_visited))
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
    use apf_core::SplitCriterion;
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
            for balance in [false, true] {
                let cfg = QuadTreeConfig {
                    criterion: SplitCriterion::EdgeCount { split_value: 6.0 },
                    max_depth: 7,
                    min_leaf: 2,
                    balance_2to1: balance,
                };
                let dense = QuadTree::try_build(&img, &cfg).unwrap();
                let cache = cache_of(&img, tile, &format!("bin_{z}_{tile}_{balance}.apt1"));
                let streamed =
                    build_streaming_quadtree(&cache, &cfg, &Telemetry::disabled()).unwrap();
                assert_eq!(dense.leaves, streamed.leaves, "z={z} tile={tile}");
                assert_eq!(dense.nodes_visited, streamed.nodes_visited);
                assert_eq!(dense.max_depth_reached, streamed.max_depth_reached);
                assert_eq!(dense.stats, streamed.stats);
            }
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
        let cfg = QuadTreeConfig {
            criterion: SplitCriterion::Variance { threshold: 0.01 },
            max_depth: 6,
            min_leaf: 2,
            balance_2to1: false,
        };
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
        let cfg = QuadTreeConfig {
            criterion: SplitCriterion::EdgeCount { split_value: 4.0 },
            max_depth: 6,
            min_leaf: 2,
            balance_2to1: false,
        };
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
