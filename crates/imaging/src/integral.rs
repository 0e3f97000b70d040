//! Summed-area table for O(1) rectangle sums.
//!
//! The quadtree's split criterion (Eq. 6 of the paper) counts edge pixels
//! inside a quadrant; with an integral image every split decision is O(1),
//! making the whole quadtree build O(P log P) in the number of pixels.

use crate::image::GrayImage;

/// Summed-area table over an image. Entry `(x, y)` stores the sum of all
/// pixels in `[0, x) x [0, y)` (exclusive), in `f64` to avoid cancellation on
/// 64K² images.
pub struct IntegralImage {
    width: usize,
    height: usize,
    table: Vec<f64>,
}

impl IntegralImage {
    /// Builds the table in one pass.
    pub fn new(img: &GrayImage) -> Self {
        let w = img.width();
        let h = img.height();
        let tw = w + 1;
        let mut table = vec![0.0f64; tw * (h + 1)];
        for y in 0..h {
            let mut row_sum = 0.0f64;
            for x in 0..w {
                row_sum += img.get(x, y) as f64;
                table[(y + 1) * tw + x + 1] = table[y * tw + x + 1] + row_sum;
            }
        }
        IntegralImage { width: w, height: h, table }
    }

    /// Source image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Source image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sum of pixels in the rectangle starting at `(x, y)` with size
    /// `(w, h)`. The rectangle must lie inside the image.
    pub fn rect_sum(&self, x: usize, y: usize, w: usize, h: usize) -> f64 {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "rect_sum out of bounds: ({}, {}) + ({}, {}) in {}x{}",
            x,
            y,
            w,
            h,
            self.width,
            self.height
        );
        let tw = self.width + 1;
        let a = self.table[y * tw + x];
        let b = self.table[y * tw + x + w];
        let c = self.table[(y + h) * tw + x];
        let d = self.table[(y + h) * tw + x + w];
        d - b - c + a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(img: &GrayImage, x: usize, y: usize, w: usize, h: usize) -> f64 {
        let mut s = 0.0f64;
        for yy in y..y + h {
            for xx in x..x + w {
                s += img.get(xx, yy) as f64;
            }
        }
        s
    }

    #[test]
    fn rect_sums_match_brute_force() {
        let img = GrayImage::from_fn(13, 9, |x, y| ((x * 7 + y * 3) % 5) as f32 * 0.25);
        let ii = IntegralImage::new(&img);
        for (x, y, w, h) in [(0, 0, 13, 9), (0, 0, 1, 1), (3, 2, 5, 4), (12, 8, 1, 1), (6, 0, 7, 9)] {
            let fast = ii.rect_sum(x, y, w, h);
            let slow = brute(&img, x, y, w, h);
            assert!((fast - slow).abs() < 1e-6, "({},{},{},{}): {} vs {}", x, y, w, h, fast, slow);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_rect_panics() {
        let ii = IntegralImage::new(&GrayImage::new(4, 4));
        ii.rect_sum(2, 2, 3, 3);
    }
}
