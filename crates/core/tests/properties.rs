//! Property-based tests of APF invariants.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_core::{
    crc32, crc32_bytewise, extract_patches, morton_decode, morton_encode, uniform_patches, Crc32,
    PatchError, QuadTree, QuadTreeConfig, SplitCriterion,
};
use apf_imaging::GrayImage;
use proptest::prelude::*;

/// Random detail image: sparse random "edge" pixels.
fn detail_image(z: usize, density: f64, seed: u64) -> GrayImage {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn morton_round_trip(x in 0u32..1_000_000, y in 0u32..1_000_000) {
        prop_assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
    }

    #[test]
    fn morton_preserves_quadrant_order(x1 in 0u32..256, y1 in 0u32..256, x2 in 0u32..256, y2 in 0u32..256) {
        // If (x1,y1) is in an earlier half-plane split at every level where
        // they differ, its code is smaller; weak form: equality iff equal.
        let c1 = morton_encode(x1, y1);
        let c2 = morton_encode(x2, y2);
        prop_assert_eq!(c1 == c2, (x1, y1) == (x2, y2));
    }

    #[test]
    fn quadtree_is_always_a_partition(
        zexp in 4usize..8,
        density in 0.0f64..0.2,
        split in 1.0f64..64.0,
        depth in 1u8..8,
        seed in 0u64..1000,
    ) {
        let z = 1 << zexp;
        let img = detail_image(z, density, seed);
        let criterion = SplitCriterion::EdgeCount { split_value: split };
        let cfg = QuadTreeConfig { criterion, max_depth: depth, min_leaf: 2 };
        let tree = QuadTree::build(&img, &cfg);
        prop_assert!(tree.validate_partition().is_ok());
        // Z-ordering is strict.
        for w in tree.leaves.windows(2) {
            prop_assert!(w[0].morton() < w[1].morton());
        }
        // Depth and size bounds.
        for l in &tree.leaves {
            prop_assert!(l.depth <= depth);
            prop_assert!(l.size >= 2);
        }
    }

    #[test]
    fn leaf_detail_is_below_split_or_at_limit(
        zexp in 4usize..7,
        density in 0.0f64..0.3,
        split in 1.0f64..32.0,
        seed in 0u64..100,
    ) {
        // Every leaf either satisfies the stop criterion or hit a limit.
        let z = 1 << zexp;
        let img = detail_image(z, density, seed);
        let criterion = SplitCriterion::EdgeCount { split_value: split };
        let cfg = QuadTreeConfig { criterion, max_depth: 10, min_leaf: 2 };
        let tree = QuadTree::build(&img, &cfg);
        for l in &tree.leaves {
            let mut count = 0.0;
            for y in l.y..l.y + l.size {
                for x in l.x..l.x + l.size {
                    count += img.get(x as usize, y as usize);
                }
            }
            let stopped_by_limit = l.size < 2 * cfg.min_leaf || l.depth == cfg.max_depth;
            prop_assert!(
                count as f64 <= split || stopped_by_limit,
                "leaf {:?} has {} edges > v={} without hitting a limit",
                l, count, split
            );
        }
    }

    #[test]
    fn patch_sequence_lengths_consistent(zexp in 4usize..7, pm in 1usize..5, seed in 0u64..50) {
        let z = 1 << zexp;
        let img = detail_image(z, 0.05, seed);
        let tree = QuadTree::build(&img, &QuadTreeConfig::default());
        let pm = 1 << pm; // powers of two
        let seq = extract_patches(&img, &tree.leaves, pm);
        prop_assert_eq!(seq.len(), tree.len());
        let t = seq.to_tensor();
        prop_assert_eq!(t.dims(), &[tree.len(), pm * pm]);
    }

    #[test]
    fn fixed_length_is_exact_and_deterministic(target in 1usize..200, seed in 0u64..20) {
        let img = detail_image(64, 0.1, 3);
        let tree = QuadTree::build(&img, &QuadTreeConfig::default());
        let seq = extract_patches(&img, &tree.leaves, 4);
        let fixed = seq.fixed_length(target, seed);
        prop_assert_eq!(fixed.len(), target);
        let again = seq.fixed_length(target, seed);
        let a: Vec<_> = fixed.patches.iter().map(|p| p.region).collect();
        let b: Vec<_> = again.patches.iter().map(|p| p.region).collect();
        prop_assert_eq!(a, b);
        prop_assert!(fixed.real_len() <= seq.len());
    }

    #[test]
    fn uniform_patching_round_trips(zexp in 3usize..6, pexp in 1usize..3) {
        let z = 1 << zexp;
        let p = 1 << pexp;
        prop_assume!(p <= z);
        let img = detail_image(z, 0.5, 9);
        let seq = uniform_patches(&img, p);
        prop_assert_eq!(seq.len(), (z / p) * (z / p));
        let rec = apf_core::uniform_reconstruct(&seq.to_tensor(), z, p);
        prop_assert_eq!(rec.data(), img.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn try_patchify_never_panics_and_classifies_every_input(
        shape_kind in 0u32..4,
        zexp in 2usize..8,
        wa in 0usize..130,
        hb in 0usize..130,
        textured in 0u32..2,
        density in 0.0f64..0.3,
        seed in 0u64..50,
        poison_kind in 0u32..4,
        px in 0usize..200,
        py in 0usize..200,
    ) {
        // Deliberately mix valid shapes with every way a shape can be
        // wrong — independent uniform draws would almost never produce a
        // valid power-of-two square, starving the success branch.
        let (w, h) = match shape_kind {
            0 => (1usize << zexp, 1usize << zexp), // valid
            1 => (1usize << zexp, (1usize << zexp) / 2), // non-square
            2 => (wa, wa),                         // square, maybe non-pow2
            _ => (wa, hb),                         // anything, incl. empty
        };
        // Constant or textured image; optionally poisoned with one
        // non-finite pixel at a clamped position.
        let mut img = if textured == 0 {
            GrayImage::from_fn(w, h, |_, _| 0.5)
        } else {
            GrayImage::from_fn(w, h, |x, y| {
                let hh = seed
                    .wrapping_add((x as u64) << 32 | y as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                if ((hh >> 33) as f64 / (1u64 << 31) as f64) < density { 1.0 } else { 0.0 }
            })
        };
        let poisoned = poison_kind > 0 && w > 0 && h > 0;
        if poisoned {
            let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][poison_kind as usize - 1];
            img.set(px % w, py % h, v);
        }
        let patcher = AdaptivePatcher::new(
            PatcherConfig::for_resolution(w.max(h).max(1)).with_patch_size(4),
        );
        // `min_leaf` is 2, so 4 is the smallest acceptable side.
        match patcher.try_patchify(&img) {
            Ok(seq) => {
                // Acceptance implies the preconditions actually held...
                prop_assert!(w == h && w.is_power_of_two() && w >= 4 && !poisoned);
                prop_assert!(!seq.is_empty());
                // ...and the output is a Z-ordered partition.
                let mortons: Vec<u64> = seq
                    .patches
                    .iter()
                    .filter_map(|p| p.region.map(|r| r.morton()))
                    .collect();
                prop_assert_eq!(mortons.len(), seq.len());
                for pair in mortons.windows(2) {
                    prop_assert!(pair[0] < pair[1]);
                }
                let tree = patcher.try_tree(&img).unwrap();
                prop_assert!(tree.validate_partition().is_ok());
                let covered: u64 = tree.leaves.iter().map(|l| l.area()).sum();
                prop_assert_eq!(covered, (w * h) as u64);
            }
            // Rejection must name the *first* violated precondition, in
            // validation order.
            Err(e) => match e {
                PatchError::Empty { .. } => prop_assert!(w == 0 || h == 0),
                PatchError::NotSquare { .. } => prop_assert!(w != h),
                PatchError::NonPowerOfTwo { .. } => {
                    prop_assert!(w == h && !w.is_power_of_two())
                }
                PatchError::TooSmall { .. } => {
                    prop_assert!(w == h && w.is_power_of_two() && w < 4)
                }
                PatchError::NonFinitePixel { x, y, value } => {
                    prop_assert!(poisoned);
                    prop_assert!(!value.is_finite());
                    prop_assert!(!img.get(x, y).is_finite());
                }
                PatchError::MissingSquaredIntegral => {
                    prop_assert!(false, "variance integral error from an edge-count build")
                }
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dispatched `Crc32` equals the byte-wise reference for any
    /// length, any start offset (unaligned slices) and any way of
    /// splitting the stream across `update` calls.
    #[test]
    fn crc32_matches_bytewise_reference(
        len in 0usize..4096,
        start in 0usize..16,
        seed in 0u64..u64::MAX,
        splits in proptest::collection::vec(0usize..4096, 1..=3),
    ) {
        let mix = |i: usize| seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let backing: Vec<u8> = (0..start + len).map(|i| (mix(i) >> 56) as u8).collect();
        let data = &backing[start..];
        let reference = crc32_bytewise(data);
        prop_assert_eq!(crc32(data), reference);

        let mut cuts: Vec<usize> = splits.iter().map(|&s| s % (len + 1)).collect();
        cuts.sort_unstable();
        let mut h = Crc32::new();
        let mut at = 0;
        for cut in cuts.into_iter().chain([len]) {
            h.update(&data[at..cut]);
            at = cut;
        }
        prop_assert_eq!(h.finalize(), reference);
    }
}
