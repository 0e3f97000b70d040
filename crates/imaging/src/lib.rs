//! # apf-imaging
//!
//! Image processing primitives and synthetic dataset generators for the APF
//! reproduction.
//!
//! The processing half implements exactly the pre-processing chain of
//! Algorithm 1 in the paper: [`filter::gaussian_blur`] -> [`canny::canny`],
//! plus the [`resize`] projections used to bring mixed-scale patches to a
//! common size. The quadtree's edge counts are summed in `apf-core`.
//!
//! The generator half substitutes for the access-gated datasets: [`paip`]
//! produces pathology-like slides (detail concentrated at lesion/vessel
//! boundaries) and [`btcv`] produces 13-organ abdominal-CT-like slice stacks.
//! Both are fully deterministic given a seed, so every experiment in the
//! workspace is reproducible bit-for-bit.

pub mod btcv;
pub mod canny;
pub mod filter;
pub mod image;
pub mod io;
pub mod noise;
pub mod paip;
pub mod resize;

pub use canny::{canny, CannyConfig};
pub use filter::gaussian_blur;
pub use image::{GrayImage, ImageError};
pub use resize::{resize_area, resize_bilinear, resize_nearest};
