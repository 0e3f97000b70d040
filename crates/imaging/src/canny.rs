//! Canny edge detection (gradient, non-maximum suppression, hysteresis).
//!
//! Follows the classical pipeline of Canny (1986): Sobel gradients,
//! direction-quantized non-maximum suppression, double thresholding with
//! hysteresis linking. Thresholds follow the paper's convention of 8-bit
//! gradient magnitudes (e.g. `[100, 200]`), applied to `[0, 1]` images by
//! scaling magnitudes by 255.
//!
//! Every pixel costs one pass: Sobel rows stream through a three-row ring
//! of `gx`, `gy` and magnitude, non-maximum suppression of a row writes
//! its `u8` class straight into the hysteresis map, and only the output
//! image is full-frame f32. Each pixel evaluates the per-pixel definition's
//! expressions (no fused multiply-add), and the direction sector is the
//! `atan2` definition's, so the edge map is bit-identical to the per-pixel
//! `atan2` Canny kept in this module's tests as the oracle.

use serde::{Deserialize, Serialize};

use crate::filter::pad_row;
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

const WEAK: u8 = 1;
const STRONG: u8 = 2;

/// Pixels per run that non-maximum suppression skips at once when every
/// magnitude in it is below the low threshold.
const RUN: usize = 16;

/// One Sobel row: gradients and their 8-bit-scaled magnitude.
struct GradRow {
    gx: Vec<f32>,
    gy: Vec<f32>,
    mag: Vec<f32>,
}

impl GradRow {
    fn new(w: usize) -> Self {
        GradRow { gx: vec![0.0; w], gy: vec![0.0; w], mag: vec![0.0; w] }
    }

    /// Sobel row `y` of the `w`-wide image `src` with replicate borders;
    /// `pad` holds the rows above, at and below `y`, each padded by one
    /// pixel, so `p(dx, dy)` of the per-pixel definition is
    /// `pad[dy + 1][x + 1 + dx]`.
    fn fill(&mut self, src: &[f32], w: usize, y: usize, pad: &mut [Vec<f32>; 3]) {
        let h = src.len() / w;
        let row = |y: usize| &src[y * w..(y + 1) * w];
        pad_row(row(y.saturating_sub(1)), 1, &mut pad[0]);
        pad_row(row(y), 1, &mut pad[1]);
        pad_row(row((y + 1).min(h - 1)), 1, &mut pad[2]);
        let [up, mid, down] = pad;
        let (ul, uc, ur) = (&up[..w], &up[1..w + 1], &up[2..]);
        let (ml, mr) = (&mid[..w], &mid[2..]);
        let (dl, dc, dr) = (&down[..w], &down[1..w + 1], &down[2..]);
        let (gxr, gyr, mag) = (&mut self.gx[..w], &mut self.gy[..w], &mut self.mag[..w]);
        for x in 0..w {
            let gx = (ur[x] + 2.0 * mr[x] + dr[x]) - (ul[x] + 2.0 * ml[x] + dl[x]);
            let gy = (dl[x] + 2.0 * dc[x] + dr[x]) - (ul[x] + 2.0 * uc[x] + ur[x]);
            gxr[x] = gx;
            gyr[x] = gy;
            mag[x] = (gx * gx + gy * gy).sqrt() * 255.0;
        }
    }
}

/// Runs Canny edge detection on a (typically pre-blurred) image.
///
/// Returns a binary image: 1.0 on edge pixels, 0.0 elsewhere.
pub fn canny(img: &GrayImage, cfg: CannyConfig) -> GrayImage {
    assert!(cfg.low <= cfg.high, "canny: low threshold above high");
    let (w, h) = (img.width(), img.height());
    let src = img.data();
    // Double threshold of a suppressed magnitude; a pixel that loses
    // non-maximum suppression classifies as magnitude 0.
    let class_of = |m: f32| if m >= cfg.high { STRONG } else if m >= cfg.low { WEAK } else { 0 };
    let mut class = vec![class_of(0.0); w * h];
    let mut stack = Vec::new();

    // Ring slot `r % 3` holds Sobel row `r`: row `y + 1` is computed before
    // row `y` is suppressed, overwriting row `y - 2`.
    let mut ring = [GradRow::new(w), GradRow::new(w), GradRow::new(w)];
    let mut pad = [vec![0.0f32; w + 2], vec![0.0; w + 2], vec![0.0; w + 2]];
    if h > 0 {
        ring[0].fill(src, w, 0, &mut pad);
    }
    let skip_runs = cfg.low > 0.0;
    let below_low = |run: &[f32]| run.iter().fold(true, |all, &m| all & (m < cfg.low));
    for (y, crow) in class.chunks_mut(w).enumerate() {
        if y + 1 < h {
            ring[(y + 1) % 3].fill(src, w, y + 1, &mut pad);
        }
        let (up, mid) = (&ring[y.saturating_sub(1) % 3], &ring[y % 3]);
        let down = &ring[(y + 1).min(h - 1) % 3];
        let clamp = |x: usize, d: isize| (x as isize + d).clamp(0, w as isize - 1) as usize;
        let mut x = 0;
        while x < w {
            if skip_runs && x + RUN <= w && below_low(&mid.mag[x..x + RUN]) {
                x += RUN;
                continue;
            }
            let m = mid.mag[x];
            // A NaN magnitude is a candidate by definition but never
            // survives `m >= m1`, so skipping it changes nothing.
            if m >= cfg.low {
                // Neighbours along the gradient's sector, clamped to the image.
                let (ox, oy) = sector(mid.gx[x], mid.gy[x]);
                let (m1, m2) = if oy == 0 {
                    (mid.mag[clamp(x, ox)], mid.mag[clamp(x, -ox)])
                } else {
                    (down.mag[clamp(x, ox)], up.mag[clamp(x, -ox)])
                };
                if m >= m1 && m >= m2 {
                    crow[x] = class_of(m);
                    if crow[x] == STRONG {
                        stack.push(y * w + x);
                    }
                }
            }
            x += 1;
        }
    }

    // Hysteresis: promote every weak pixel 8-connected to a strong one.
    while let Some(i) = stack.pop() {
        let (x, y) = (i % w, i / w);
        for ny in y.saturating_sub(1)..=(y + 1).min(h - 1) {
            for nx in x.saturating_sub(1)..=(x + 1).min(w - 1) {
                let ni = ny * w + nx;
                if class[ni] == WEAK {
                    class[ni] = STRONG;
                    stack.push(ni);
                }
            }
        }
    }
    GrayImage::from_raw(w, h, class.iter().map(|&c| if c == STRONG { 1.0 } else { 0.0 }).collect())
}

/// `tan 22.5°` and `tan 67.5°`: the sector borders as `|dy| / |dx|`.
const TAN_22_5: f64 = std::f64::consts::SQRT_2 - 1.0;
const TAN_67_5: f64 = std::f64::consts::SQRT_2 + 1.0;

/// Relative half-width of the guard band around each sector border.
const BAND: f64 = 1.0 / 1024.0;

/// The non-maximum suppression sector of gradient `(dx, dy)` as the offset
/// `(ox, oy)` of one neighbour along it: [`atan2_sector`] without `atan2`.
///
/// The borders at 22.5°, 67.5°, 112.5° and 157.5° are where `|dy| / |dx|`
/// (exact to an `f64` ulp: no finite `f32` ratio under- or overflows
/// there) equals `tan 22.5°` or `tan 67.5°`, so that ratio and the signs
/// pick the exact sector. The `atan2` rule rounds in `atan2`,
/// `to_degrees` and `rem_euclid`, which moves a border by under 1e-6
/// relative (4.8e-7 at worst over 2.4e9 near-border pairs), so it can
/// only differ from the exact sector inside the ±1/1024 band around a
/// border. Such a ratio, and a zero or non-finite one, takes the `atan2`
/// rule itself.
fn sector(dx: f32, dy: f32) -> (isize, isize) {
    let t = f64::from(dy.abs()) / f64::from(dx.abs());
    let near = |border: f64| (t / border - 1.0).abs() <= BAND;
    if t > 0.0 && t.is_finite() && !near(TAN_22_5) && !near(TAN_67_5) {
        return if t < TAN_22_5 {
            (1, 0)
        } else if t > TAN_67_5 {
            (0, 1)
        } else if (dx > 0.0) == (dy > 0.0) {
            (1, 1)
        } else {
            (-1, 1)
        };
    }
    atan2_sector(dx, dy)
}

/// The defining sector rule: quantize `atan2(dy, dx)` to one of 4 sectors
/// (0, 45, 90, 135 degrees).
fn atan2_sector(dx: f32, dy: f32) -> (isize, isize) {
    let angle = dy.atan2(dx).to_degrees().rem_euclid(180.0);
    if !(22.5..157.5).contains(&angle) {
        (1, 0)
    } else if angle < 67.5 {
        (1, 1)
    } else if angle < 112.5 {
        (0, 1)
    } else {
        (-1, 1)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::filter::gaussian_blur;
    use proptest::prelude::*;

    /// The per-pixel Sobel definition: every tap reads its source through
    /// `get_clamped`.
    fn sobel_reference(img: &GrayImage) -> (GrayImage, GrayImage) {
        let p = |x: usize, y: usize, dx: isize, dy: isize| {
            img.get_clamped(x as isize + dx, y as isize + dy)
        };
        let (w, h) = (img.width(), img.height());
        let gx = GrayImage::from_fn(w, h, |x, y| {
            (p(x, y, 1, -1) + 2.0 * p(x, y, 1, 0) + p(x, y, 1, 1))
                - (p(x, y, -1, -1) + 2.0 * p(x, y, -1, 0) + p(x, y, -1, 1))
        });
        let gy = GrayImage::from_fn(w, h, |x, y| {
            (p(x, y, -1, 1) + 2.0 * p(x, y, 0, 1) + p(x, y, 1, 1))
                - (p(x, y, -1, -1) + 2.0 * p(x, y, 0, -1) + p(x, y, 1, -1))
        });
        (gx, gy)
    }

    /// The per-pixel `atan2` Canny: full-frame Sobel, magnitude, `atan2`
    /// sector and non-maximum suppression at every candidate, double
    /// threshold, then hysteresis from the strong pixels. The oracle for
    /// `canny`.
    pub(crate) fn canny_reference(img: &GrayImage, cfg: CannyConfig) -> GrayImage {
        let (gx, gy) = sobel_reference(img);
        let (w, h) = (gx.width(), gx.height());
        let mag = GrayImage::from_fn(w, h, |x, y| {
            let (dx, dy) = (gx.get(x, y), gy.get(x, y));
            (dx * dx + dy * dy).sqrt() * 255.0
        });
        let mut nms = vec![0.0f32; w * h];
        for y in 0..h {
            for x in 0..w {
                let m = mag.get(x, y);
                if m < cfg.low {
                    continue;
                }
                let (ox, oy) = atan2_sector(gx.get(x, y), gy.get(x, y));
                let m1 = mag.get_clamped(x as isize + ox, y as isize + oy);
                let m2 = mag.get_clamped(x as isize - ox, y as isize - oy);
                if m >= m1 && m >= m2 {
                    nms[y * w + x] = m;
                }
            }
        }
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
                    let (nx, ny) = (x as isize + dx, y as isize + dy);
                    if (dx, dy) == (0, 0) || nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
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

    pub(crate) fn bits(img: &GrayImage) -> Vec<u32> {
        img.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `v` moved by `k` ulp (toward +inf for positive `k`), for positive
    /// finite `v`.
    fn ulps(v: f32, k: i32) -> f32 {
        f32::from_bits((v.to_bits() as i64 + k as i64) as u32)
    }

    /// A gradient component that is special: ±0, subnormal, infinite or NaN.
    fn special(pick: usize) -> f32 {
        let specials = [0.0, -0.0, 1e-45, -1e-45, 1e-40, f32::MIN_POSITIVE, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        specials[pick % specials.len()]
    }

    /// `|dy| / |dx|` within `k` ulp of a sector border, or at a relative
    /// offset `rel` from it (the guard band's edges), in sign quadrant `q`.
    fn near_border(dx: f32, border: f64, k: i32, rel: f64, q: usize) -> (f32, f32) {
        let dy = ulps(((dx as f64) * border * (1.0 + rel)) as f32, k);
        let (sx, sy) = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)][q % 4];
        (sx * dx, sy * dy)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The ratio test picks `atan2_sector`'s sector: within ±2 ulp of
        /// both borders, at and just outside the guard band, at random
        /// ratios, in all four sign quadrants, and for ±0, subnormal,
        /// infinite and NaN components.
        #[test]
        fn sector_matches_atan2_definition(
            mag_exp in -140i32..127,
            mant in 1.0f32..2.0,
            k in -2i32..=2,
            side in 0usize..6,
            q in 0usize..4,
            ratio in 0.0f64..8.0,
            pick in 0usize..9,
        ) {
            let dx = mant * 2f32.powi(mag_exp);
            prop_assume!(dx.is_finite() && dx > 0.0);
            let band_edges = [0.0, 0.0, BAND, -BAND, BAND * (1.0 + 1e-6), -BAND * (1.0 + 1e-6)];
            for border in [TAN_22_5, TAN_67_5] {
                let (gx, gy) = near_border(dx, border, k, band_edges[side], q);
                prop_assert_eq!(sector(gx, gy), atan2_sector(gx, gy), "gx {:e} gy {:e}", gx, gy);
            }
            let (gx, gy) = near_border(dx, ratio, 0, 0.0, q);
            prop_assert_eq!(sector(gx, gy), atan2_sector(gx, gy), "gx {:e} gy {:e}", gx, gy);
            let (s, t) = (special(pick), special(pick + q + 1));
            for (gx, gy) in [(s, dx), (dx, s), (s, t)] {
                prop_assert_eq!(sector(gx, gy), atan2_sector(gx, gy), "gx {:e} gy {:e}", gx, gy);
            }
        }

        /// The row-streamed Canny is bit-identical to the per-pixel `atan2`
        /// oracle. Pixels whose gradient sits within ±2 ulp of a sector
        /// border (in all four sign quadrants) or is ±0, subnormal,
        /// infinite or NaN are planted among random ones; shapes include
        /// 1×N, N×1 and widths off the 16-pixel skip run; configs include
        /// `low <= 0` and `low == high`.
        #[test]
        fn canny_matches_atan2_oracle_bits(
            w in 1usize..=70,
            h in 1usize..=24,
            flat in 0usize..3,
            base in prop::collection::vec(-1.0f32..2.0, 70 * 24),
            plants in prop::collection::vec(0usize..70 * 24, 6),
            kind in prop::collection::vec(0usize..64, 6),
            amp in 0.2f32..2.0,
            cfg_pick in 0usize..5,
        ) {
            // Binary images (two cases in three) give few distinct
            // magnitudes: long runs below `low` for the skip path, and
            // candidates exactly at the 510 thresholds below.
            let binary = |v: f32| if flat == 0 { v } else { (v > 1.5) as u8 as f32 };
            let mut px: Vec<f32> = base[..w * h].iter().map(|&v| binary(v)).collect();
            for (&at, &kind) in plants.iter().zip(&kind) {
                let (cx, cy) = (at % w, at / w % h);
                if cx == 0 || cy == 0 || cx + 1 >= w || cy + 1 >= h {
                    continue;
                }
                // All-zero 3×3 block but for the right and lower pixels, so
                // the centre's gradient is exactly `(2·a, 2·b)`.
                let (a, b) = if kind < 40 {
                    let border = if kind % 2 == 0 { TAN_22_5 } else { TAN_67_5 };
                    near_border(amp, border, (kind / 2 % 5) as i32 - 2, 0.0, kind / 10)
                } else {
                    (if kind % 2 == 0 { amp } else { special(kind) }, special(kind / 2))
                };
                for dy in 0..3 {
                    px[(cy + dy - 1) * w + cx - 1..(cy + dy - 1) * w + cx + 2].fill(0.0);
                }
                px[cy * w + cx + 1] = a;
                px[(cy + 1) * w + cx] = b;
            }
            let img = GrayImage::from_raw(w, h, px);
            let cfg = [
                CannyConfig::default(),
                CannyConfig { low: 0.0, high: 200.0 },
                CannyConfig { low: -5.0, high: 0.0 },
                // 510 = 2·255, the magnitude beside an isolated 1 in a
                // binary image: candidates exactly at the threshold.
                CannyConfig { low: 510.0, high: 510.0 },
                CannyConfig { low: 30.0, high: 90.0 },
            ][cfg_pick];
            prop_assert_eq!(bits(&canny(&img, cfg)), bits(&canny_reference(&img, cfg)));
        }
    }

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
