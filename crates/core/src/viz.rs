//! Visualization of quadtree decompositions: renders leaf boundaries onto
//! an image (the mixed-scale grid shown in the paper's Fig. 1).

use apf_imaging::image::GrayImage;

use crate::quadtree::{LeafRegion, QuadTree};

/// Draws the boundary of every leaf onto a copy of `img` with pixel value
/// `ink` (e.g. 0.0 for black lines on a bright slide).
pub fn draw_leaf_grid(img: &GrayImage, leaves: &[LeafRegion], ink: f32) -> GrayImage {
    let mut out = img.clone();
    let (w, h) = (img.width(), img.height());
    for l in leaves {
        let x0 = l.x as usize;
        let y0 = l.y as usize;
        let x1 = (l.x + l.size - 1) as usize;
        let y1 = (l.y + l.size - 1) as usize;
        if x1 >= w || y1 >= h {
            continue;
        }
        for x in x0..=x1 {
            out.set(x, y0, ink);
            out.set(x, y1, ink);
        }
        for y in y0..=y1 {
            out.set(x0, y, ink);
            out.set(x1, y, ink);
        }
    }
    out
}

/// Renders the tree's *leaf size* as an intensity map: small (detailed)
/// leaves bright, large (quiet) leaves dark — a heat map of where APF
/// spends its tokens.
pub fn leaf_size_map(tree: &QuadTree) -> GrayImage {
    let z = tree.resolution;
    let mut out = GrayImage::new(z, z);
    let max_size = tree.leaves.iter().map(|l| l.size).max().unwrap_or(1) as f32;
    let min_size = tree.leaves.iter().map(|l| l.size).min().unwrap_or(1) as f32;
    let denom = (max_size.log2() - min_size.log2()).max(1e-6);
    for l in &tree.leaves {
        let heat = 1.0 - ((l.size as f32).log2() - min_size.log2()).max(0.0) / denom;
        for y in l.y..l.y + l.size {
            for x in l.x..l.x + l.size {
                out.set(x as usize, y as usize, heat);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::QuadTreeConfig;

    fn demo_tree() -> (GrayImage, QuadTree) {
        let img = GrayImage::from_fn(32, 32, |x, y| if x == 16 || y == 16 { 1.0 } else { 0.2 });
        let criterion = crate::quadtree::SplitCriterion::EdgeCount { split_value: 4.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 4, min_leaf: 2 };
        let tree = QuadTree::build(&img, &cfg);
        (img, tree)
    }

    #[test]
    fn grid_lines_are_drawn_at_leaf_borders() {
        let (img, tree) = demo_tree();
        let drawn = draw_leaf_grid(&img, &tree.leaves, 0.0);
        // The image border is always a leaf border.
        assert_eq!(drawn.get(0, 0), 0.0);
        assert_eq!(drawn.get(31, 31), 0.0);
        // Interior pixels of large leaves keep their value.
        let big = tree.leaves.iter().max_by_key(|l| l.size).unwrap();
        if big.size >= 4 {
            let cx = (big.x + big.size / 2) as usize;
            let cy = (big.y + big.size / 2) as usize;
            assert_eq!(drawn.get(cx, cy), img.get(cx, cy));
        }
    }

    #[test]
    fn size_map_bright_where_detailed() {
        let (_, tree) = demo_tree();
        let map = leaf_size_map(&tree);
        // Near the cross (detail) the map is brighter than at the corners.
        let near_detail = map.get(16, 15);
        let corner = map.get(2, 2);
        assert!(near_detail > corner, "{} vs {}", near_detail, corner);
        let (lo, hi) = map.min_max();
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn single_leaf_map_is_uniform() {
        let img = GrayImage::new(16, 16);
        let tree = QuadTree::build(&img, &QuadTreeConfig::default());
        let map = leaf_size_map(&tree);
        let (lo, hi) = map.min_max();
        assert_eq!(lo, hi);
    }
}
