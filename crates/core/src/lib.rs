//! # apf-core
//!
//! The Adaptive Patch Framework (APF) — the primary contribution of
//! *"Adaptive Patching for High-resolution Image Segmentation with
//! Transformers"* (SC 2024).
//!
//! APF replaces the uniform grid patching of vision transformers with an
//! AMR-style adaptive decomposition:
//!
//! 1. Gaussian-blur the image and extract Canny edges ([`pipeline`]).
//! 2. Build a quadtree over the edge map, subdividing quadrants whose edge
//!    count exceeds a split value `v`, up to depth `H` ([`quadtree`], Eq. 6).
//! 3. Order the leaves along a Morton Z-curve ([`morton`]).
//! 4. Project every leaf to one minimal patch size `P_m` and randomly
//!    drop/pad to a fixed length `L` ([`patchify`]).
//!
//! The resulting `[L, P_m²]` token sequence feeds any transformer encoder
//! unchanged — typically orders of magnitude shorter than the uniform grid
//! at the same minimal patch size ([`uniform`] is the baseline).
//!
//! ```
//! use apf_core::{AdaptivePatcher, PatcherConfig};
//! use apf_imaging::GrayImage;
//!
//! // A quiet image with one busy corner.
//! let img = GrayImage::from_fn(128, 128, |x, y| {
//!     if x < 32 && y < 32 { ((x ^ y) % 5) as f32 / 4.0 } else { 0.8 }
//! });
//! let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(128));
//! let seq = patcher.patchify(&img);
//! assert!(seq.len() < (128 / 4) * (128 / 4)); // shorter than uniform 4x4 grid
//! ```

pub mod crc32;
pub mod error;
pub mod fault;
pub mod morton;
pub mod patchify;
pub mod pipeline;
pub mod quadtree;
pub mod stats;
pub mod uniform;
pub mod viz;

pub use crc32::{crc32, crc32_f32, Crc32};
pub use error::PatchError;
pub use fault::{Fault, FaultPlan};
pub use morton::{morton_decode, morton_encode};
pub use patchify::{extract_patches, reconstruct_mask, Patch, PatchSequence};
pub use pipeline::{AdaptivePatcher, PatcherConfig, PreprocessTiming};
pub use quadtree::{LeafRegion, QuadTree, QuadTreeConfig, SplitCriterion, TreeStats};
pub use stats::{geomean, PatchStats};
pub use viz::{draw_leaf_grid, leaf_size_map};
pub use uniform::{uniform_patches, uniform_reconstruct, uniform_sequence_length};
