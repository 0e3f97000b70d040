//! Quadtree partitioning of an image by detail density (Eq. 6 of the paper).
//!
//! A quadrant `Q_h` is subdivided into `{Q_NW, Q_NE, Q_SW, Q_SE}` while the
//! detail measure inside it exceeds the split value `v` and the depth bound
//! `H` has not been reached. With the paper's edge-count criterion the detail
//! measure is the number of Canny edge pixels in the quadrant, read in O(1)
//! from a pyramid of aligned quadrant sums.
//!
//! There is one builder, [`QuadTree::try_build_tiled`], which reads the
//! detail map tile by tile. [`QuadTree::try_build`] runs it over one
//! resident tile; the out-of-core builder in `apf-gigapixel` runs it over a
//! bounded tile cache.

use apf_imaging::image::GrayImage;
use serde::{Deserialize, Serialize};

use crate::error::PatchError;
use crate::morton::morton_encode;

/// When to subdivide a quadrant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SplitCriterion {
    /// Paper's Eq. 6: split while the quadrant contains more than
    /// `split_value` detail pixels (Canny edge pixels).
    EdgeCount {
        /// The split value `v`.
        split_value: f64,
    },
    /// Ablation criterion: split while the pixel-intensity variance inside
    /// the quadrant exceeds `threshold`. Shows the framework is agnostic to
    /// the detail measure.
    Variance {
        /// Variance threshold in intensity units².
        threshold: f64,
    },
}

impl SplitCriterion {
    /// The split decision given aggregate statistics of a quadrant: `sum` is
    /// the sum of detail values over the quadrant, `sq_sum` the sum of their
    /// squares (required by [`SplitCriterion::Variance`], ignored by
    /// [`SplitCriterion::EdgeCount`]) and `area` the pixel count.
    ///
    /// This is the single source of truth for Eq. 6: every split decision
    /// of [`QuadTree::try_build_tiled`] goes through it.
    #[inline]
    pub fn exceeds(&self, sum: f64, sq_sum: Option<f64>, area: f64) -> Result<bool, PatchError> {
        match *self {
            SplitCriterion::EdgeCount { split_value } => Ok(sum > split_value),
            SplitCriterion::Variance { threshold } => {
                let mean = sum / area;
                let mean_sq = sq_sum.ok_or(PatchError::MissingSquaredIntegral)? / area;
                Ok((mean_sq - mean * mean).max(0.0) > threshold)
            }
        }
    }
}

/// Quadtree construction parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QuadTreeConfig {
    /// Split rule (Eq. 6 uses edge counts).
    pub criterion: SplitCriterion,
    /// Maximum depth `H`; the root is depth 0.
    pub max_depth: u8,
    /// Smallest allowed leaf side in pixels (paper goes down to 2).
    pub min_leaf: u32,
}

impl Default for QuadTreeConfig {
    fn default() -> Self {
        QuadTreeConfig {
            criterion: SplitCriterion::EdgeCount { split_value: 100.0 },
            max_depth: 9,
            min_leaf: 2,
        }
    }
}

/// One leaf quadrant of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeafRegion {
    /// Left pixel coordinate.
    pub x: u32,
    /// Top pixel coordinate.
    pub y: u32,
    /// Side length in pixels (always a power of two for power-of-two
    /// images).
    pub size: u32,
    /// Depth at which the leaf sits (root = 0).
    pub depth: u8,
}

impl LeafRegion {
    /// Morton code of the leaf's corner pixel; aligned quadrants sorted by
    /// this key follow the Z-curve.
    #[inline]
    pub fn morton(&self) -> u64 {
        morton_encode(self.x, self.y)
    }

    /// Pixel area of the leaf.
    #[inline]
    pub fn area(&self) -> u64 {
        self.size as u64 * self.size as u64
    }
}

/// Leaf and depth statistics of a built tree, computed once at the end of
/// construction (after Z-sorting) and stored on the
/// tree, so consumers — stats reports, bench binaries, telemetry gauges —
/// read them instead of re-walking the leaves.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TreeStats {
    /// Number of leaves (the adaptive sequence length before pad/drop).
    pub leaf_count: usize,
    /// Mean leaf side length in pixels (reported in Fig. 3).
    pub average_patch_size: f64,
    /// Smallest leaf side present (0 for an empty tree).
    pub min_leaf_size: u32,
    /// Largest leaf side present (0 for an empty tree).
    pub max_leaf_size: u32,
    /// Leaf side -> count, ascending by side.
    pub size_histogram: Vec<(u32, usize)>,
    /// Leaf depth -> count, ascending by depth.
    pub depth_histogram: Vec<(u8, usize)>,
}

impl TreeStats {
    /// Statistics of an empty leaf set.
    pub fn empty() -> TreeStats {
        TreeStats {
            leaf_count: 0,
            average_patch_size: 0.0,
            min_leaf_size: 0,
            max_leaf_size: 0,
            size_histogram: Vec::new(),
            depth_histogram: Vec::new(),
        }
    }

    /// One pass over the final leaf set.
    pub fn compute(leaves: &[LeafRegion]) -> TreeStats {
        if leaves.is_empty() {
            return TreeStats::empty();
        }
        let mut size_hist = std::collections::BTreeMap::new();
        let mut depth_hist = std::collections::BTreeMap::new();
        let mut size_sum = 0u64;
        for l in leaves {
            *size_hist.entry(l.size).or_insert(0usize) += 1;
            *depth_hist.entry(l.depth).or_insert(0usize) += 1;
            size_sum += l.size as u64;
        }
        TreeStats {
            leaf_count: leaves.len(),
            average_patch_size: size_sum as f64 / leaves.len() as f64,
            min_leaf_size: *size_hist.keys().next().unwrap(),
            max_leaf_size: *size_hist.keys().next_back().unwrap(),
            size_histogram: size_hist.into_iter().collect(),
            depth_histogram: depth_hist.into_iter().collect(),
        }
    }
}

/// A built quadtree: Z-ordered leaves plus build statistics.
#[derive(Debug, Clone)]
pub struct QuadTree {
    /// Image side length the tree was built over.
    pub resolution: usize,
    /// Leaves in Morton (Z-curve) order.
    pub leaves: Vec<LeafRegion>,
    /// Deepest level that actually occurred.
    pub max_depth_reached: u8,
    /// Total quadrants examined during the build.
    pub nodes_visited: usize,
    /// Leaf/depth statistics, frozen at build time.
    pub stats: TreeStats,
}

impl QuadTree {
    /// Builds the tree over a detail image (for [`SplitCriterion::EdgeCount`]
    /// this is the binary Canny edge map; for variance it is the image
    /// itself).
    ///
    /// # Panics
    /// Panics on any input [`QuadTree::try_build`] rejects (zero-sized,
    /// non-square, non-power-of-two, too small, or non-finite images).
    pub fn build(detail: &GrayImage, cfg: &QuadTreeConfig) -> QuadTree {
        Self::try_build(detail, cfg).unwrap_or_else(|e| panic!("quadtree build failed: {e}"))
    }

    /// Fallible tree construction: validates the detail image and returns a
    /// typed [`PatchError`] instead of panicking, so serving paths can turn
    /// bad input into a structured rejection. This is
    /// [`QuadTree::try_build_tiled`] over one resident tile, the whole image.
    pub fn try_build(detail: &GrayImage, cfg: &QuadTreeConfig) -> Result<QuadTree, PatchError> {
        let z = Self::validate_geometry(detail.width(), detail.height(), cfg)?;
        Self::try_build_tiled(z, z, cfg, |_, _| Ok(detail.data()))
    }

    /// The geometry every build requires, checked in this order: no zero
    /// side, square, power-of-two side, side at least `2 * min_leaf`.
    /// Returns the side `Z`.
    ///
    /// # Panics
    /// Panics if `cfg.min_leaf` is 0.
    pub fn validate_geometry(
        width: usize,
        height: usize,
        cfg: &QuadTreeConfig,
    ) -> Result<usize, PatchError> {
        if width == 0 || height == 0 {
            return Err(PatchError::Empty { width, height });
        }
        if width != height {
            return Err(PatchError::NotSquare { width, height });
        }
        if !width.is_power_of_two() {
            return Err(PatchError::NonPowerOfTwo { size: width });
        }
        assert!(cfg.min_leaf >= 1, "min_leaf must be at least 1");
        let min_required = 2 * cfg.min_leaf as usize;
        if width < min_required {
            return Err(PatchError::TooSmall { size: width, min_required });
        }
        Ok(width)
    }

    /// The quadtree builder. It reads the `z x z` detail map as aligned
    /// `tile x tile` tiles: `fetch(tx, ty)` returns the row-major pixels of
    /// the tile whose corner is `(tx * tile, ty * tile)`.
    ///
    /// Phase A fetches each tile once and builds its sum pyramid: base
    /// cells sum their pixels in `f64`, row-major, and each level above
    /// sums 2x2 cells in NW, NE, SW, SE order. Base cells are the smallest
    /// quadrant whose split is ever decided, `max(next_pow2(2 * min_leaf),
    /// z >> (max_depth - 1))`, capped at the tile side. The tile totals
    /// feed the same pyramid over the tile grid, so the addition tree
    /// behind every sum depends only on the base cell. Phase B runs Eq. 6
    /// top-down on those sums, re-fetching a tile only to descend inside
    /// it; the last tile's pyramid stays in a one-slot memo.
    ///
    /// The first tile holding a non-finite pixel fails the build with
    /// [`PatchError::NonFinitePixel`] at its first one in row-major order.
    ///
    /// Callers check `z` with [`QuadTree::validate_geometry`] first.
    ///
    /// # Panics
    /// Panics unless `z` and `tile` are powers of two with `tile <= z`, and
    /// every fetched tile holds `tile * tile` pixels.
    pub fn try_build_tiled<P, E>(
        z: usize,
        tile: usize,
        cfg: &QuadTreeConfig,
        mut fetch: impl FnMut(u32, u32) -> Result<P, E>,
    ) -> Result<QuadTree, E>
    where
        P: std::ops::Deref,
        P::Target: AsRef<[f32]>,
        E: From<PatchError>,
    {
        assert!(
            z.is_power_of_two() && tile.is_power_of_two() && tile <= z,
            "a {z}x{z} quadtree cannot be built from {tile}x{tile} tiles"
        );
        let cell = base_cell(z, tile, cfg);
        let need_sq = matches!(cfg.criterion, SplitCriterion::Variance { .. });
        let mut summed = |tx: u32, ty: u32| -> Result<Sums, E> {
            let pixels = fetch(tx, ty)?;
            Ok(tile_sums((*pixels).as_ref(), tile, cell, need_sq, (tx, ty))?)
        };
        let mut d = Descent::sum_tiles(z, tile, cfg, &mut summed)?;
        d.subdivide(&mut summed, 0, 0, z as u32, 0)?;
        let mut leaves = d.leaves;
        leaves.sort_by_key(LeafRegion::morton);
        Ok(QuadTree {
            resolution: z,
            stats: TreeStats::compute(&leaves),
            leaves,
            max_depth_reached: d.max_depth_reached,
            nodes_visited: d.nodes_visited,
        })
    }

    /// Number of leaves (the adaptive sequence length before pad/drop).
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the tree has no leaves (never happens for valid builds).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Mean leaf side length in pixels (reported in Fig. 3), read from the
    /// statistics frozen at build time.
    pub fn average_patch_size(&self) -> f64 {
        self.stats.average_patch_size
    }

    /// Verifies the partition invariant: leaves are disjoint and tile the
    /// full image exactly. O(n log n); used by tests and debug assertions.
    pub fn validate_partition(&self) -> Result<(), String> {
        let total: u64 = self.leaves.iter().map(LeafRegion::area).sum();
        let expect = (self.resolution * self.resolution) as u64;
        if total != expect {
            return Err(format!("leaf areas sum to {} != {}", total, expect));
        }
        for l in &self.leaves {
            if l.x + l.size > self.resolution as u32 || l.y + l.size > self.resolution as u32 {
                return Err(format!("leaf {:?} out of bounds", l));
            }
        }
        // Exact disjointness via a coverage bitmap for sizes where the
        // bitmap is affordable; combined with the exact area check above,
        // "every pixel covered at most once" + "areas sum to the image"
        // implies a perfect tiling.
        if self.resolution <= 4096 {
            let z = self.resolution;
            let mut covered = vec![false; z * z];
            for l in &self.leaves {
                for y in l.y..l.y + l.size {
                    let row = y as usize * z;
                    for x in l.x..l.x + l.size {
                        let i = row + x as usize;
                        if covered[i] {
                            return Err(format!("pixel ({}, {}) covered twice", x, y));
                        }
                        covered[i] = true;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Side of a pyramid's base cell: the smallest quadrant whose split is ever
/// decided (at least `2 * min_leaf` wide, at depth below `max_depth`),
/// capped at the tile side.
fn base_cell(z: usize, tile: usize, cfg: &QuadTreeConfig) -> usize {
    let deepest = match cfg.max_depth {
        0 => z,
        d => z.checked_shr(d as u32 - 1).unwrap_or(0),
    };
    (2 * cfg.min_leaf as usize).next_power_of_two().max(deepest).min(tile)
}

/// Aligned power-of-two quadrant sums over a square region: level 0 holds
/// the sums of `side x side` cells of `cell` pixels, and each level above
/// sums 2x2 cells of the one below in NW, NE, SW, SE order, up to one cell.
struct SumPyramid {
    cell: usize,
    side: usize,
    /// Offset of each level in `sums`, base first.
    starts: Vec<usize>,
    sums: Vec<f64>,
}

impl SumPyramid {
    /// Stacks the levels above `side x side` base sums.
    fn new(cell: usize, side: usize, mut sums: Vec<f64>) -> SumPyramid {
        let mut starts = vec![0];
        let mut s = side;
        while s > 1 {
            let start = *starts.last().unwrap();
            for cy in (0..s).step_by(2) {
                for cx in (0..s).step_by(2) {
                    let nw = start + cy * s + cx;
                    sums.push(sums[nw] + sums[nw + 1] + sums[nw + s] + sums[nw + s + 1]);
                }
            }
            starts.push(start + s * s);
            s /= 2;
        }
        SumPyramid { cell, side, starts, sums }
    }

    /// The pyramid of `f(pixel)` over a row-major `tile x tile` tile; each
    /// base cell sums its pixels row-major.
    fn of_tile(pixels: &[f32], tile: usize, cell: usize, f: impl Fn(f32) -> f64) -> SumPyramid {
        let side = tile / cell;
        let mut sums = vec![0.0; side * side];
        for (y, row) in pixels.chunks_exact(tile).enumerate() {
            let cells = &mut sums[y / cell * side..][..side];
            for (acc, run) in cells.iter_mut().zip(row.chunks_exact(cell)) {
                for &v in run {
                    *acc += f(v);
                }
            }
        }
        SumPyramid::new(cell, side, sums)
    }

    /// The sum over the aligned `size`-pixel quadrant at `(x, y)` from the
    /// region's corner; `size` is a power of two from `cell` up.
    fn get(&self, x: usize, y: usize, size: usize) -> f64 {
        let k = (size / self.cell).trailing_zeros() as usize;
        self.sums[self.starts[k] + y / size * (self.side >> k) + x / size]
    }

    fn total(&self) -> f64 {
        self.get(0, 0, self.cell * self.side)
    }
}

/// Pyramids of a region's values and, for the variance criterion, of their
/// squares.
type Sums = (SumPyramid, Option<SumPyramid>);

/// Phase A for tile `(tx, ty)`. A non-finite pixel makes the total
/// non-finite (sums of finite `f32`s cannot overflow `f64`), and only then
/// are the pixels scanned for the first one.
fn tile_sums(
    pixels: &[f32],
    tile: usize,
    cell: usize,
    need_sq: bool,
    (tx, ty): (u32, u32),
) -> Result<Sums, PatchError> {
    assert_eq!(pixels.len(), tile * tile, "a {tile}x{tile} tile has {} pixels", pixels.len());
    let sum = SumPyramid::of_tile(pixels, tile, cell, |v| v as f64);
    if !sum.total().is_finite() {
        let i = pixels.iter().position(|v| !v.is_finite()).expect("a non-finite term");
        return Err(PatchError::NonFinitePixel {
            x: tx as usize * tile + i % tile,
            y: ty as usize * tile + i / tile,
            value: pixels[i],
        });
    }
    let sq = need_sq.then(|| SumPyramid::of_tile(pixels, tile, cell, |v| v as f64 * v as f64));
    Ok((sum, sq))
}

/// Phase B's state: the pyramids over the tile grid, the memo slot and the
/// subdivision output.
struct Descent<'a> {
    cfg: &'a QuadTreeConfig,
    tile: usize,
    grid: Sums,
    memo: ((u32, u32), Sums),
    leaves: Vec<LeafRegion>,
    nodes_visited: usize,
    max_depth_reached: u8,
}

impl<'a> Descent<'a> {
    /// Phase A: sums every tile once, in row-major tile order, and stacks
    /// the tile totals into the grid pyramids.
    fn sum_tiles<E>(
        z: usize,
        tile: usize,
        cfg: &'a QuadTreeConfig,
        summed: &mut impl FnMut(u32, u32) -> Result<Sums, E>,
    ) -> Result<Descent<'a>, E> {
        let side = z / tile;
        let (mut sum, mut sq) = (Vec::with_capacity(side * side), Vec::new());
        let mut memo = None;
        for ty in 0..side as u32 {
            for tx in 0..side as u32 {
                let sums = summed(tx, ty)?;
                sum.push(sums.0.total());
                sq.extend(sums.1.as_ref().map(SumPyramid::total));
                memo = Some(((tx, ty), sums));
            }
        }
        let need_sq = matches!(cfg.criterion, SplitCriterion::Variance { .. });
        let grid_sq = need_sq.then(|| SumPyramid::new(tile, side, sq));
        Ok(Descent {
            cfg,
            tile,
            grid: (SumPyramid::new(tile, side, sum), grid_sq),
            memo: memo.expect("a validated image has at least one tile"),
            leaves: Vec::new(),
            nodes_visited: 0,
            max_depth_reached: 0,
        })
    }

    /// Sums over an aligned quadrant: from the grid pyramids at or above
    /// tile size, else from the pyramids of the one tile that holds it.
    fn quadrant_sums<E>(
        &mut self,
        summed: &mut impl FnMut(u32, u32) -> Result<Sums, E>,
        x: usize,
        y: usize,
        size: usize,
    ) -> Result<(f64, Option<f64>), E> {
        let ((sum, sq), x, y) = if size >= self.tile {
            (&self.grid, x, y)
        } else {
            let t = ((x / self.tile) as u32, (y / self.tile) as u32);
            if self.memo.0 != t {
                self.memo = (t, summed(t.0, t.1)?);
            }
            (&self.memo.1, x % self.tile, y % self.tile)
        };
        Ok((sum.get(x, y, size), sq.as_ref().map(|q| q.get(x, y, size))))
    }

    /// Eq. 6, top-down.
    fn subdivide<E: From<PatchError>>(
        &mut self,
        summed: &mut impl FnMut(u32, u32) -> Result<Sums, E>,
        x: u32,
        y: u32,
        size: u32,
        depth: u8,
    ) -> Result<(), E> {
        self.nodes_visited += 1;
        self.max_depth_reached = self.max_depth_reached.max(depth);

        let cfg = self.cfg;
        let can_split = depth < cfg.max_depth && size >= 2 * cfg.min_leaf && size >= 2;
        let wants_split = can_split && {
            let s = size as usize;
            let (sum, sq) = self.quadrant_sums(summed, x as usize, y as usize, s)?;
            cfg.criterion.exceeds(sum, sq, (s * s) as f64)?
        };
        if !wants_split {
            self.leaves.push(LeafRegion { x, y, size, depth });
            return Ok(());
        }
        let half = size / 2;
        // NW, NE, SW, SE — the Z order that keeps one tile's descent
        // contiguous; leaves are Z-sorted afterwards.
        self.subdivide(summed, x, y, half, depth + 1)?;
        self.subdivide(summed, x + half, y, half, depth + 1)?;
        self.subdivide(summed, x, y + half, half, depth + 1)?;
        self.subdivide(summed, x + half, y + half, half, depth + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_cross(z: usize) -> GrayImage {
        // Edges along the two centre lines.
        GrayImage::from_fn(z, z, |x, y| {
            if x == z / 2 || y == z / 2 {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn flat_image_yields_single_leaf() {
        let img = GrayImage::new(64, 64);
        let tree = QuadTree::build(&img, &QuadTreeConfig::default());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.leaves[0].size, 64);
        tree.validate_partition().unwrap();
    }

    #[test]
    fn detail_forces_subdivision() {
        let img = edge_cross(64);
        let criterion = SplitCriterion::EdgeCount { split_value: 4.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 6, min_leaf: 2 };
        let tree = QuadTree::build(&img, &cfg);
        assert!(tree.len() > 16, "expected many leaves, got {}", tree.len());
        tree.validate_partition().unwrap();
        // Small leaves hug the cross; large leaves fill the quiet corners.
        let sizes: Vec<u32> = tree.leaves.iter().map(|l| l.size).collect();
        assert!(sizes.contains(&2));
        assert!(sizes.iter().any(|&s| s >= 8));
    }

    #[test]
    fn depth_limit_is_respected() {
        let img = edge_cross(64);
        for h in [1u8, 2, 3] {
            let criterion = SplitCriterion::EdgeCount { split_value: 0.5 };
            let cfg = QuadTreeConfig { criterion, max_depth: h, min_leaf: 1 };
            let tree = QuadTree::build(&img, &cfg);
            assert!(tree.leaves.iter().all(|l| l.depth <= h));
            assert_eq!(tree.max_depth_reached, h);
            tree.validate_partition().unwrap();
        }
    }

    #[test]
    fn min_leaf_is_respected() {
        let img = edge_cross(64);
        let criterion = SplitCriterion::EdgeCount { split_value: 0.5 };
        let cfg = QuadTreeConfig { criterion, max_depth: 12, min_leaf: 4 };
        let tree = QuadTree::build(&img, &cfg);
        assert!(tree.leaves.iter().all(|l| l.size >= 4));
    }

    #[test]
    fn split_value_controls_sequence_length() {
        let img = edge_cross(128);
        let len_at = |v: f64| {
            let criterion = SplitCriterion::EdgeCount { split_value: v };
            let cfg = QuadTreeConfig { criterion, max_depth: 10, min_leaf: 2 };
            QuadTree::build(&img, &cfg).len()
        };
        // Halving the split value must not shorten the sequence.
        assert!(len_at(20.0) >= len_at(50.0));
        assert!(len_at(50.0) >= len_at(100.0));
        assert!(len_at(20.0) > len_at(200.0));
    }

    #[test]
    fn leaves_are_z_ordered() {
        let img = edge_cross(64);
        let tree = QuadTree::build(&img, &QuadTreeConfig::default());
        for pair in tree.leaves.windows(2) {
            assert!(pair[0].morton() < pair[1].morton());
        }
    }

    #[test]
    fn worst_case_uniform_detail_degenerates_to_grid() {
        // Detail everywhere: quadtree == uniform grid at the depth bound
        // (paper: "the worst case becomes like uniform grid patching").
        let img = GrayImage::from_raw(32, 32, vec![1.0; 1024]);
        let criterion = SplitCriterion::EdgeCount { split_value: 3.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 3, min_leaf: 1 };
        let tree = QuadTree::build(&img, &cfg);
        assert_eq!(tree.len(), 64); // 4^3
        assert!(tree.leaves.iter().all(|l| l.size == 4));
    }

    #[test]
    fn variance_criterion_splits_textured_regions() {
        let img = GrayImage::from_fn(64, 64, |x, y| {
            if x < 32 {
                0.5 // flat half
            } else {
                ((x + y) % 2) as f32 // checkerboard half
            }
        });
        let criterion = SplitCriterion::Variance { threshold: 0.01 };
        let cfg = QuadTreeConfig { criterion, max_depth: 4, min_leaf: 2 };
        let tree = QuadTree::build(&img, &cfg);
        tree.validate_partition().unwrap();
        // Flat side keeps big leaves; textured side is shredded.
        let left_max = tree.leaves.iter().filter(|l| l.x < 32).map(|l| l.size).max().unwrap();
        let right_max = tree.leaves.iter().filter(|l| l.x >= 32).map(|l| l.size).max().unwrap();
        assert!(left_max > right_max);
    }

    #[test]
    fn average_patch_size_single_leaf() {
        let img = GrayImage::new(16, 16);
        let tree = QuadTree::build(&img, &QuadTreeConfig::default());
        assert_eq!(tree.average_patch_size(), 16.0);
    }

    #[test]
    fn try_build_rejects_malformed_images_with_typed_errors() {
        use crate::error::PatchError;
        let cfg = QuadTreeConfig::default();
        assert_eq!(
            QuadTree::try_build(&GrayImage::new(0, 0), &cfg).unwrap_err(),
            PatchError::Empty { width: 0, height: 0 }
        );
        assert_eq!(
            QuadTree::try_build(&GrayImage::new(64, 32), &cfg).unwrap_err(),
            PatchError::NotSquare { width: 64, height: 32 }
        );
        assert_eq!(
            QuadTree::try_build(&GrayImage::new(48, 48), &cfg).unwrap_err(),
            PatchError::NonPowerOfTwo { size: 48 }
        );
        assert_eq!(
            QuadTree::try_build(&GrayImage::new(2, 2), &cfg).unwrap_err(),
            PatchError::TooSmall { size: 2, min_required: 4 }
        );
        // The first non-finite pixel in row-major order is the one named.
        let mut nan = GrayImage::new(16, 16);
        nan.set(5, 9, f32::NAN);
        nan.set(2, 11, f32::INFINITY);
        assert!(matches!(
            QuadTree::try_build(&nan, &cfg).unwrap_err(),
            PatchError::NonFinitePixel { x: 5, y: 9, .. }
        ));
    }

    #[test]
    fn stored_stats_match_a_fresh_walk() {
        let criterion = SplitCriterion::EdgeCount { split_value: 4.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 6, min_leaf: 2 };
        let tree = QuadTree::build(&edge_cross(64), &cfg);
        assert_eq!(tree.stats, TreeStats::compute(&tree.leaves));
        assert_eq!(tree.stats.leaf_count, tree.len());
        assert!(tree.stats.min_leaf_size <= tree.stats.max_leaf_size);
        let total: usize = tree.stats.size_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, tree.len());
        let total_d: usize = tree.stats.depth_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total_d, tree.len());
        assert_eq!(TreeStats::compute(&[]), TreeStats::empty());
    }

    /// On an integer-valued map every aligned quadrant sum the pyramids
    /// hold equals a brute-force `f64` sum, at every tile side, and every
    /// quadrant the descent decides is at least a base cell wide.
    #[test]
    fn pyramid_sums_match_brute_force() {
        let z = 16usize;
        let img = GrayImage::from_fn(z, z, |x, y| ((x * 7 + y * 3) % 5) as f32 - 1.0);
        let brute = |x: usize, y: usize, s: usize| {
            let (mut sum, mut sq) = (0.0, 0.0);
            for yy in y..y + s {
                for xx in x..x + s {
                    let v = img.get(xx, yy) as f64;
                    sum += v;
                    sq += v * v;
                }
            }
            (sum, Some(sq))
        };
        for min_leaf in [1u32, 2, 3, z as u32 / 2] {
            for max_depth in [0u8, 1, 255] {
                let criterion = SplitCriterion::Variance { threshold: 0.0 };
                let cfg = QuadTreeConfig { criterion, max_depth, min_leaf };
                for tile in [1usize, 4, z] {
                    let cell = base_cell(z, tile, &cfg);
                    let mut summed = |tx: u32, ty: u32| {
                        let crop = img.crop(tx as usize * tile, ty as usize * tile, tile, tile);
                        tile_sums(crop.data(), tile, cell, true, (tx, ty))
                    };
                    let mut d = Descent::sum_tiles(z, tile, &cfg, &mut summed).unwrap();
                    for size in (0..=z.trailing_zeros()).map(|k| 1usize << k) {
                        let depth = (z / size).trailing_zeros() as u8;
                        let decided = depth < max_depth && size >= 2 * min_leaf as usize;
                        assert!(!decided || size >= base_cell(z, z, &cfg), "{cfg:?}: {size}");
                        if size < cell {
                            continue;
                        }
                        for y in (0..z).step_by(size) {
                            for x in (0..z).step_by(size) {
                                let got = d.quadrant_sums(&mut summed, x, y, size).unwrap();
                                assert_eq!(got, brute(x, y, size), "{cfg:?} tile {tile} {x},{y}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn try_build_matches_build_on_valid_input() {
        let img = edge_cross(64);
        let cfg = QuadTreeConfig::default();
        let a = QuadTree::build(&img, &cfg);
        let b = QuadTree::try_build(&img, &cfg).unwrap();
        assert_eq!(a.leaves, b.leaves);
    }

    #[test]
    #[should_panic(expected = "quadtree build failed")]
    fn build_panics_with_typed_message_on_bad_input() {
        QuadTree::build(&GrayImage::new(10, 10), &QuadTreeConfig::default());
    }
}
