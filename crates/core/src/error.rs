//! Typed errors for the adaptive-patching pipeline entry points.
//!
//! The quadtree and patcher historically panicked on malformed input, which
//! is fine for offline experiments but unacceptable for a serving path where
//! a single bad request must become a structured rejection, not a dead
//! worker. [`PatchError`] names exactly which precondition failed.

use apf_imaging::ImageError;

/// Why an image cannot be adaptively patched.
#[derive(Debug, Clone, PartialEq)]
pub enum PatchError {
    /// The image has a zero side.
    Empty {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
    },
    /// The quadtree requires square images.
    NotSquare {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
    },
    /// The side length is not a power of two, so quadrant halving cannot
    /// tile the image exactly.
    NonPowerOfTwo {
        /// The offending side length.
        size: usize,
    },
    /// The image is smaller than the minimum splittable size.
    TooSmall {
        /// The offending side length.
        size: usize,
        /// Smallest acceptable side (`2 * min_leaf`).
        min_required: usize,
    },
    /// A pixel is NaN or infinite; edge counts and variances over it would
    /// poison every ancestor quadrant's split decision.
    NonFinitePixel {
        /// Pixel x coordinate.
        x: usize,
        /// Pixel y coordinate.
        y: usize,
        /// The offending value.
        value: f32,
    },
    /// The variance split criterion was evaluated without the sum of
    /// squared pixel values (internal invariant violation).
    MissingSquaredIntegral,
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::Empty { width, height } => {
                write!(f, "cannot patch a {width}x{height} image with a zero side")
            }
            PatchError::NotSquare { width, height } => {
                write!(f, "quadtree requires square images, got {width}x{height}")
            }
            PatchError::NonPowerOfTwo { size } => {
                write!(f, "quadtree requires a power-of-two side, got {size}")
            }
            PatchError::TooSmall { size, min_required } => {
                write!(f, "image side {size} is below the minimum {min_required}")
            }
            PatchError::NonFinitePixel { x, y, value } => {
                write!(f, "pixel ({x}, {y}) is non-finite ({value})")
            }
            PatchError::MissingSquaredIntegral => {
                write!(f, "variance criterion requires the sum of squared pixel values")
            }
        }
    }
}

impl std::error::Error for PatchError {}

impl From<ImageError> for PatchError {
    fn from(e: ImageError) -> Self {
        match e {
            ImageError::ZeroDimension { width, height } => PatchError::Empty { width, height },
            ImageError::BufferSizeMismatch { width, height, .. } => {
                // A mismatched buffer can only reach core through a raw
                // construction bypassing `try_from_raw`; report the geometry.
                PatchError::Empty { width, height }
            }
            ImageError::NonFinitePixel { x, y, value } => {
                PatchError::NonFinitePixel { x, y, value }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failed_precondition() {
        let e = PatchError::NonPowerOfTwo { size: 48 };
        assert!(e.to_string().contains("power-of-two"));
        assert!(e.to_string().contains("48"));
        let e = PatchError::NonFinitePixel { x: 3, y: 7, value: f32::NAN };
        assert!(e.to_string().contains("(3, 7)"));
    }

    #[test]
    fn image_errors_convert() {
        let e: PatchError =
            ImageError::NonFinitePixel { x: 1, y: 2, value: f32::INFINITY }.into();
        assert!(matches!(e, PatchError::NonFinitePixel { x: 1, y: 2, .. }));
    }
}
