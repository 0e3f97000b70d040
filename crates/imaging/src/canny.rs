//! Canny edge detection (gradient, non-maximum suppression, hysteresis).
//!
//! Follows the classical pipeline of Canny (1986): Sobel gradients,
//! direction-quantized non-maximum suppression, double thresholding with
//! hysteresis linking. Thresholds follow the paper's convention of 8-bit
//! gradient magnitudes (e.g. `[100, 200]`), applied to `[0, 1]` images by
//! scaling magnitudes by 255.

use serde::{Deserialize, Serialize};

use crate::filter::sobel;
use crate::image::GrayImage;

/// Canny configuration: hysteresis thresholds on 8-bit-scaled gradient
/// magnitude.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CannyConfig {
    /// Weak-edge threshold (paper default 100).
    pub low: f32,
    /// Strong-edge threshold (paper default 200).
    pub high: f32,
}

impl Default for CannyConfig {
    fn default() -> Self {
        // The thresholds used throughout the paper's experiments.
        CannyConfig { low: 100.0, high: 200.0 }
    }
}

/// Runs Canny edge detection on a (typically pre-blurred) image.
///
/// Returns a binary image: 1.0 on edge pixels, 0.0 elsewhere.
pub fn canny(img: &GrayImage, cfg: CannyConfig) -> GrayImage {
    let (gx, gy) = sobel(img);
    canny_from_gradients(&gx, &gy, cfg)
}

/// Canny's stages after Sobel: magnitude, non-maximum suppression and
/// hysteresis over given `(gx, gy)` gradients.
pub(crate) fn canny_from_gradients(gx: &GrayImage, gy: &GrayImage, cfg: CannyConfig) -> GrayImage {
    assert!(cfg.low <= cfg.high, "canny: low threshold above high");
    let (w, h) = (gx.width(), gx.height());

    // Gradient magnitude scaled to the 8-bit convention.
    let mut mag = vec![0.0f32; w * h];
    for ((m, &x), &y) in mag.iter_mut().zip(gx.data()).zip(gy.data()) {
        *m = (x * x + y * y).sqrt() * 255.0;
    }
    let mag = GrayImage::from_raw(w, h, mag);

    // Non-maximum suppression along the quantized gradient direction.
    let mut nms = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            let m = mag.get(x, y);
            if m < cfg.low {
                continue;
            }
            let dx = gx.get(x, y);
            let dy = gy.get(x, y);
            // Quantize direction to one of 4 sectors (0, 45, 90, 135 deg).
            let angle = dy.atan2(dx).to_degrees().rem_euclid(180.0);
            let (ox, oy): (isize, isize) = if !(22.5..157.5).contains(&angle) {
                (1, 0)
            } else if angle < 67.5 {
                (1, 1)
            } else if angle < 112.5 {
                (0, 1)
            } else {
                (-1, 1)
            };
            let m1 = mag.get_clamped(x as isize + ox, y as isize + oy);
            let m2 = mag.get_clamped(x as isize - ox, y as isize - oy);
            if m >= m1 && m >= m2 {
                nms[y * w + x] = m;
            }
        }
    }

    // Double threshold + hysteresis: BFS from strong pixels through weak ones.
    const STRONG: u8 = 2;
    const WEAK: u8 = 1;
    let mut class = vec![0u8; w * h];
    let mut stack = Vec::new();
    for (i, &m) in nms.iter().enumerate() {
        if m >= cfg.high {
            class[i] = STRONG;
            stack.push(i);
        } else if m >= cfg.low {
            class[i] = WEAK;
        }
    }
    let mut out = vec![0.0f32; w * h];
    while let Some(i) = stack.pop() {
        if out[i] == 1.0 {
            continue;
        }
        out[i] = 1.0;
        let (x, y) = (i % w, i / w);
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = x as isize + dx;
                let ny = y as isize + dy;
                if nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
                    continue;
                }
                let ni = ny as usize * w + nx as usize;
                if class[ni] == WEAK && out[ni] == 0.0 {
                    class[ni] = STRONG;
                    stack.push(ni);
                }
            }
        }
    }
    GrayImage::from_raw(w, h, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::gaussian_blur;

    #[test]
    fn flat_image_has_no_edges() {
        let img = GrayImage::from_raw(16, 16, vec![0.5; 256]);
        let e = canny(&img, CannyConfig::default());
        assert_eq!(e.coverage(0.5), 0.0);
    }

    #[test]
    fn step_edge_is_detected_thin() {
        let img = GrayImage::from_fn(32, 32, |x, _| if x < 16 { 0.0 } else { 1.0 });
        let e = canny(&img, CannyConfig::default());
        // An edge exists near x = 16 in every row...
        for y in 2..30 {
            let hits: usize = (14..19).filter(|&x| e.get(x, y) > 0.5).count();
            assert!(hits >= 1, "row {} missing edge", y);
            // ...and NMS keeps it at most 2 px wide.
            assert!(hits <= 2, "row {} edge too thick: {}", y, hits);
        }
        // Nothing far from the boundary.
        assert_eq!(e.get(4, 16), 0.0);
        assert_eq!(e.get(28, 16), 0.0);
    }

    #[test]
    fn hysteresis_links_weak_to_strong() {
        // A ramp edge whose magnitude varies along the edge: weak segments
        // connected to strong ones must survive.
        let img = GrayImage::from_fn(32, 32, |x, y| {
            let amp = 0.45 + 0.55 * (y as f32 / 31.0);
            if x < 16 {
                0.0
            } else {
                amp
            }
        });
        let e = canny(&img, CannyConfig { low: 60.0, high: 300.0 });
        // Strong at the bottom (high amplitude), weak at top; the column
        // should still be connected through most rows.
        let edge_rows = (0..32)
            .filter(|&y| (14..19).any(|x| e.get(x, y) > 0.5))
            .count();
        assert!(edge_rows > 24, "hysteresis dropped edge: {} rows", edge_rows);
    }

    #[test]
    fn weak_only_noise_is_suppressed() {
        // Shallow step producing only weak responses -> no edges at all.
        let img = GrayImage::from_fn(16, 16, |x, _| if x < 8 { 0.5 } else { 0.56 });
        let e = canny(&img, CannyConfig { low: 100.0, high: 200.0 });
        assert_eq!(e.coverage(0.5), 0.0);
    }

    #[test]
    fn circle_produces_closed_contour() {
        let img = GrayImage::from_fn(64, 64, |x, y| {
            let dx = x as f32 - 32.0;
            let dy = y as f32 - 32.0;
            if (dx * dx + dy * dy).sqrt() < 20.0 {
                1.0
            } else {
                0.0
            }
        });
        let blurred = gaussian_blur(&img, 3, 0.0);
        let e = canny(&blurred, CannyConfig::default());
        // Edge pixel count should approximate the circumference (2*pi*20).
        let count = e.data().iter().filter(|&&v| v > 0.5).count();
        assert!(count > 80 && count < 400, "edge count {}", count);
    }
}
