//! Sequence statistics reported by the paper (Fig. 3, Tables II/III).

use serde::Serialize;

use crate::quadtree::QuadTree;

/// Summary of one quadtree's patching outcome.
#[derive(Debug, Clone, Serialize)]
pub struct PatchStats {
    /// Image resolution Z.
    pub resolution: usize,
    /// Adaptive sequence length (leaf count).
    pub sequence_length: usize,
    /// Mean leaf side in pixels.
    pub average_patch_size: f64,
    /// Deepest subdivision level reached.
    pub max_depth: u8,
    /// Histogram of leaf side -> count, ascending by side.
    pub size_histogram: Vec<(u32, usize)>,
    /// Reduction factor vs. the uniform grid at the smallest leaf size.
    pub reduction_vs_uniform: f64,
}

impl PatchStats {
    /// Statistics for a built tree, read from the leaf/depth summary the
    /// tree froze at build time (no re-walk of the leaves).
    pub fn from_tree(tree: &QuadTree) -> PatchStats {
        let s = &tree.stats;
        let min_size = s.min_leaf_size.max(1);
        let uniform = (tree.resolution / min_size as usize).pow(2);
        PatchStats {
            resolution: tree.resolution,
            sequence_length: s.leaf_count,
            average_patch_size: s.average_patch_size,
            max_depth: tree.max_depth_reached,
            size_histogram: s.size_histogram.clone(),
            reduction_vs_uniform: uniform as f64 / s.leaf_count.max(1) as f64,
        }
    }
}

/// Mean of a slice of f64 (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values (used for the paper's geomean speedup).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::{QuadTree, QuadTreeConfig, SplitCriterion};
    use apf_imaging::image::GrayImage;

    #[test]
    fn stats_of_flat_image() {
        let tree = QuadTree::build(&GrayImage::new(32, 32), &QuadTreeConfig::default());
        let s = PatchStats::from_tree(&tree);
        assert_eq!(s.sequence_length, 1);
        assert_eq!(s.average_patch_size, 32.0);
        assert_eq!(s.size_histogram, vec![(32, 1)]);
        assert_eq!(s.reduction_vs_uniform, 1.0);
    }

    #[test]
    fn reduction_reflects_detail_concentration() {
        let edges = GrayImage::from_fn(64, 64, |x, y| {
            if x == 32 || y == 32 {
                1.0
            } else {
                0.0
            }
        });
        let criterion = SplitCriterion::EdgeCount { split_value: 4.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 5, min_leaf: 2 };
        let tree = QuadTree::build(&edges, &cfg);
        let s = PatchStats::from_tree(&tree);
        // Uniform 2x2 grid would be 1024 patches; APF should use far fewer.
        assert!(s.sequence_length < 1024 / 2, "seq len {}", s.sequence_length);
        assert!(s.reduction_vs_uniform > 2.0);
        let total: usize = s.size_histogram.iter().map(|(_, c)| c).sum();
        assert_eq!(total, s.sequence_length);
    }

    #[test]
    fn geomean_matches_known_value() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
