//! From quadtree leaves to a fixed-size patch sequence (paper §III-A,
//! steps 3-6 of Algorithm 1).
//!
//! Every leaf — whatever its side length — is projected to the same minimal
//! patch size `P_m` by area averaging, the Z-ordered sequence is then
//! randomly dropped or zero-padded to a fixed length `L`, and the result can
//! be flattened into a `[L, P_m * P_m]` token tensor for any transformer.

use apf_imaging::image::GrayImage;
use apf_imaging::resize::box_project;
use apf_tensor::tensor::Tensor;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::quadtree::LeafRegion;

/// One projected patch: `pm x pm` pixels plus the leaf it came from.
#[derive(Debug, Clone)]
pub struct Patch {
    /// Row-major `pm * pm` pixel block.
    pub pixels: Vec<f32>,
    /// Source region in the original image; `None` for padding patches.
    pub region: Option<LeafRegion>,
}

/// A Z-ordered sequence of uniform-size patches extracted from one image.
#[derive(Debug, Clone)]
pub struct PatchSequence {
    /// Patches in Z order (padding, if any, at the tail).
    pub patches: Vec<Patch>,
    /// Patch side length `P_m`.
    pub patch_size: usize,
    /// Source image resolution.
    pub resolution: usize,
}

impl PatchSequence {
    /// Number of patches (including padding).
    pub fn len(&self) -> usize {
        self.patches.len()
    }

    /// True if the sequence contains no patches.
    pub fn is_empty(&self) -> bool {
        self.patches.is_empty()
    }

    /// Number of non-padding patches.
    pub fn real_len(&self) -> usize {
        self.patches.iter().filter(|p| p.region.is_some()).count()
    }

    /// Flattens into a `[len, P_m * P_m]` token tensor.
    pub fn to_tensor(&self) -> Tensor {
        let d = self.patch_size * self.patch_size;
        let mut data = Vec::with_capacity(self.len() * d);
        for p in &self.patches {
            debug_assert_eq!(p.pixels.len(), d);
            data.extend_from_slice(&p.pixels);
        }
        Tensor::new([self.len(), d], data)
    }

    /// Per-token scale feature: `log2(leaf size)` normalized by `log2(Z)`,
    /// zero for padding. Models may append this as an extra input channel.
    pub fn scale_features(&self) -> Vec<f32> {
        self.scale_features_impl()
    }

    /// Per-token padding mask: `true` for real patches, `false` for the
    /// zero padding appended by [`PatchSequence::fixed_length`]. Feed to
    /// attention key-masking (`MultiHeadAttention::forward_with_key_mask`
    /// in `apf-models`) so padding cannot dilute real tokens' attention.
    pub fn padding_mask(&self) -> Vec<bool> {
        self.patches.iter().map(|p| p.region.is_some()).collect()
    }

    fn scale_features_impl(&self) -> Vec<f32> {
        let logz = (self.resolution as f32).log2();
        self.patches
            .iter()
            .map(|p| {
                p.region
                    .map(|r| (r.size as f32).log2() / logz)
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Enforces a fixed length `L`: randomly drops surplus patches (keeping
    /// Z order) or appends zero padding. Deterministic in `seed`.
    pub fn fixed_length(&self, target: usize, seed: u64) -> PatchSequence {
        let d = self.patch_size * self.patch_size;
        let mut patches: Vec<Patch>;
        if self.len() > target {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut keep: Vec<usize> = (0..self.len()).collect();
            keep.shuffle(&mut rng);
            keep.truncate(target);
            keep.sort_unstable(); // preserve Z order among the survivors
            patches = keep.into_iter().map(|i| self.patches[i].clone()).collect();
        } else {
            patches = self.patches.clone();
            patches.resize(
                target,
                Patch {
                    pixels: vec![0.0; d],
                    region: None,
                },
            );
        }
        PatchSequence {
            patches,
            patch_size: self.patch_size,
            resolution: self.resolution,
        }
    }
}

/// Projects each leaf of `leaves` onto a `pm x pm` patch by area-averaging
/// its image region in place. Leaves must already be Z-ordered.
pub fn extract_patches(img: &GrayImage, leaves: &[LeafRegion], pm: usize) -> PatchSequence {
    assert!(pm >= 1, "patch size must be positive");
    let w = img.width();
    let patches: Vec<Patch> = leaves
        .iter()
        .map(|leaf| {
            let (x, y, s) = (leaf.x as usize, leaf.y as usize, leaf.size as usize);
            assert!(x + s <= w && y + s <= img.height(), "leaf outside the image");
            let mut pixels = vec![0.0; pm * pm];
            box_project(&img.data()[y * w + x..], w, s, s, pm, pm, &mut pixels);
            Patch {
                pixels,
                region: Some(*leaf),
            }
        })
        .collect();
    PatchSequence {
        patches,
        patch_size: pm,
        resolution: img.width(),
    }
}

/// Like [`extract_patches`] but with nearest-neighbour sampling — required
/// for *label* images, where area averaging would invent classes.
pub fn extract_patches_nearest(img: &GrayImage, leaves: &[LeafRegion], pm: usize) -> PatchSequence {
    assert!(pm >= 1, "patch size must be positive");
    let patches: Vec<Patch> = leaves
        .iter()
        .map(|leaf| {
            let crop = img.crop(leaf.x as usize, leaf.y as usize, leaf.size as usize, leaf.size as usize);
            let proj = if leaf.size as usize == pm {
                crop
            } else {
                apf_imaging::resize::resize_nearest(&crop, pm, pm)
            };
            Patch {
                pixels: proj.data().to_vec(),
                region: Some(*leaf),
            }
        })
        .collect();
    PatchSequence {
        patches,
        patch_size: pm,
        resolution: img.width(),
    }
}

/// Paints per-patch predictions back onto the full-resolution canvas:
/// each patch's `pm x pm` prediction is rescaled (nearest) to its leaf
/// region. Padding patches are ignored. The inverse of [`extract_patches`]
/// for label masks.
pub fn reconstruct_mask(seq: &PatchSequence, preds: &Tensor) -> GrayImage {
    let pm = seq.patch_size;
    let d = pm * pm;
    assert_eq!(
        preds.numel(),
        seq.len() * d,
        "predictions must be [L, pm*pm]"
    );
    let z = seq.resolution;
    let mut out = GrayImage::new(z, z);
    for (patch, pred) in seq.patches.iter().zip(preds.data().chunks_exact(d)) {
        let Some(r) = patch.region else { continue };
        let s = r.size as usize;
        for yy in 0..s {
            let py = yy * pm / s;
            for xx in 0..s {
                let px = xx * pm / s;
                out.set(r.x as usize + xx, r.y as usize + yy, pred[py * pm + px]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::{QuadTree, QuadTreeConfig, SplitCriterion};

    fn demo_tree(z: usize) -> (GrayImage, QuadTree) {
        let img = GrayImage::from_fn(z, z, |x, y| ((x * 13 + y * 7) % 16) as f32 / 15.0);
        let edges = GrayImage::from_fn(z, z, |x, y| {
            if x == z / 2 || y == z / 2 {
                1.0
            } else {
                0.0
            }
        });
        let criterion = SplitCriterion::EdgeCount { split_value: 8.0 };
        let cfg = QuadTreeConfig { criterion, max_depth: 5, min_leaf: 2 };
        (img, QuadTree::build(&edges, &cfg))
    }

    #[test]
    fn extraction_matches_leaf_count_and_size() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4);
        assert_eq!(seq.len(), tree.len());
        assert!(seq.patches.iter().all(|p| p.pixels.len() == 16));
        assert_eq!(seq.real_len(), seq.len());
    }

    #[test]
    fn same_size_leaf_is_copied_verbatim() {
        let img = GrayImage::from_fn(8, 8, |x, y| (y * 8 + x) as f32 / 63.0);
        let leaf = LeafRegion { x: 4, y: 0, size: 4, depth: 1 };
        let seq = extract_patches(&img, &[leaf], 4);
        let expect = img.crop(4, 0, 4, 4);
        assert_eq!(seq.patches[0].pixels, expect.data());
    }

    #[test]
    fn large_leaf_is_area_averaged() {
        let img = GrayImage::from_fn(4, 4, |x, _| if x < 2 { 0.0 } else { 1.0 });
        let leaf = LeafRegion { x: 0, y: 0, size: 4, depth: 0 };
        let seq = extract_patches(&img, &[leaf], 2);
        assert_eq!(seq.patches[0].pixels, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn to_tensor_shape() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4);
        let t = seq.to_tensor();
        assert_eq!(t.dims(), &[seq.len(), 16]);
    }

    #[test]
    fn fixed_length_pads_with_zero_patches() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4);
        let target = seq.len() + 5;
        let padded = seq.fixed_length(target, 1);
        assert_eq!(padded.len(), target);
        assert_eq!(padded.real_len(), seq.len());
        assert!(padded.patches[target - 1].pixels.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fixed_length_drops_preserving_order() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4);
        let target = seq.len() / 2;
        let dropped = seq.fixed_length(target, 7);
        assert_eq!(dropped.len(), target);
        // Surviving patches must still be Z-ordered.
        let mortons: Vec<u64> = dropped
            .patches
            .iter()
            .filter_map(|p| p.region.map(|r| r.morton()))
            .collect();
        for w in mortons.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Deterministic in the seed.
        let again = seq.fixed_length(target, 7);
        let r1: Vec<_> = dropped.patches.iter().map(|p| p.region).collect();
        let r2: Vec<_> = again.patches.iter().map(|p| p.region).collect();
        assert_eq!(r1, r2);
        let other = seq.fixed_length(target, 8);
        let r3: Vec<_> = other.patches.iter().map(|p| p.region).collect();
        assert_ne!(r1, r3);
    }

    #[test]
    fn padding_mask_marks_pads_only() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4).fixed_length(tree.len() + 3, 0);
        let mask = seq.padding_mask();
        assert_eq!(mask.len(), tree.len() + 3);
        assert_eq!(mask.iter().filter(|&&m| m).count(), tree.len());
        assert!(mask[..tree.len()].iter().all(|&m| m));
        assert!(mask[tree.len()..].iter().all(|&m| !m));
    }

    #[test]
    fn scale_features_normalized() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4).fixed_length(tree.len() + 2, 0);
        let f = seq.scale_features();
        assert_eq!(f.len(), tree.len() + 2);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(f[f.len() - 1], 0.0); // padding
    }

    #[test]
    fn reconstruct_inverts_extract_for_constant_patches() {
        // A mask that is constant inside every leaf reconstructs exactly.
        let (_, tree) = demo_tree(64);
        let mask = GrayImage::from_fn(64, 64, |x, y| {
            // Constant per quadrant of the image.
            if x < 32 && y < 32 {
                1.0
            } else {
                0.0
            }
        });
        let seq = extract_patches(&mask, &tree.leaves, 4);
        let rec = reconstruct_mask(&seq, &seq.to_tensor());
        for y in 0..64 {
            for x in 0..64 {
                assert_eq!(rec.get(x, y), mask.get(x, y), "at ({}, {})", x, y);
            }
        }
    }

    #[test]
    fn reconstruct_ignores_padding() {
        let (img, tree) = demo_tree(64);
        let seq = extract_patches(&img, &tree.leaves, 4).fixed_length(tree.len() + 3, 0);
        let rec = reconstruct_mask(&seq, &seq.to_tensor());
        assert_eq!(rec.width(), 64);
    }
}
