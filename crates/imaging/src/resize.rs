//! Image rescaling: box-filter (area-average) downscale, nearest and
//! bilinear resampling.
//!
//! APF projects every quadtree leaf — whatever its size — onto a single
//! minimal patch size `P_m`; area averaging is the natural projection for
//! downscale factors > 1 and is also used to derive lower-resolution dataset
//! variants from high-resolution sources.

use crate::image::GrayImage;

/// Area-average resample to an arbitrary target size: [`box_project`]
/// over the whole image.
///
/// Each output pixel averages the axis-aligned source rectangle it covers
/// (exact box filter, fractional edges included). For integer upscales this
/// degenerates to nearest-neighbour replication.
pub fn resize_area(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
    assert!(out_w > 0 && out_h > 0, "resize to zero size");
    let mut out = vec![0.0f32; out_w * out_h];
    box_project(img.data(), img.width(), img.width(), img.height(), out_w, out_h, &mut out);
    GrayImage::from_raw(out_w, out_h, out)
}

/// Exact box projection of the `w x h` region at the start of `src` (rows
/// `stride` apart) onto the row-major `out_w x out_h` buffer `out`, read in
/// place. Each output pixel is the overlap-weighted mean of the source
/// rectangle it covers, accumulated in `f64` in row-major source order
/// over the pixels it overlaps; the same size is a plain copy.
///
/// # Panics
/// Panics if the region or `out` is too small for the given sizes.
pub fn box_project(
    src: &[f32],
    stride: usize,
    w: usize,
    h: usize,
    out_w: usize,
    out_h: usize,
    out: &mut [f32],
) {
    assert!(w > 0 && h > 0 && out_w > 0 && out_h > 0, "box projection of an empty region");
    assert!(w <= stride && (h - 1) * stride + w <= src.len(), "box projection region out of bounds");
    assert_eq!(out.len(), out_w * out_h, "box projection output size mismatch");
    if (w, h) == (out_w, out_h) {
        for (o, s) in out.chunks_mut(w).zip(src.chunks(stride)) {
            o.copy_from_slice(&s[..w]);
        }
        return;
    }
    let (cols, rows) = (Spans::new(w, out_w), Spans::new(h, out_h));
    for (i, o) in out.iter_mut().enumerate() {
        let ((y0, wys), (x0, wxs)) = (rows.get(i / out_w), cols.get(i % out_w));
        let (mut acc, mut area) = (0.0f64, 0.0f64);
        for (y, &wy) in (y0..).zip(wys) {
            for (&v, &wx) in src[y * stride + x0..].iter().zip(wxs) {
                acc += (v as f64) * wx * wy;
                area += wx * wy;
            }
        }
        *o = if area > 0.0 { (acc / area) as f32 } else { 0.0 };
    }
}

/// The source pixels each output pixel of one axis overlaps: output `o` of
/// `m` covers `[o·n/m, (o+1)·n/m)` of `n` source pixels, so it overlaps
/// pixels `start[o]..` with the positive weights `weights[off[o]..off[o + 1]]`.
struct Spans {
    start: Vec<usize>,
    off: Vec<usize>,
    weights: Vec<f64>,
}

impl Spans {
    fn new(n: usize, m: usize) -> Self {
        let s = n as f64 / m as f64;
        let mut spans = Spans { start: Vec::with_capacity(m), off: vec![0], weights: Vec::new() };
        for o in 0..m {
            let (a0, a1) = (o as f64 * s, (o + 1) as f64 * s);
            let first = a0.floor() as usize;
            // Overlaps of `[a0, a1)` with pixels `first..`: all positive,
            // as `a0 < first + 1` and `a1` lies beyond the last pixel's start.
            let last = (a1.ceil() as usize).min(n);
            spans.weights.extend((first..last).map(|i| ((i + 1) as f64).min(a1) - (i as f64).max(a0)));
            spans.start.push(first);
            spans.off.push(spans.weights.len());
        }
        spans
    }

    fn get(&self, o: usize) -> (usize, &[f64]) {
        (self.start[o], &self.weights[self.off[o]..self.off[o + 1]])
    }
}

/// Nearest-neighbour resample (used for label masks, where averaging would
/// invent classes).
pub fn resize_nearest(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
    assert!(out_w > 0 && out_h > 0, "resize to zero size");
    let sx = img.width() as f64 / out_w as f64;
    let sy = img.height() as f64 / out_h as f64;
    GrayImage::from_fn(out_w, out_h, |x, y| {
        let srcx = (((x as f64 + 0.5) * sx) as usize).min(img.width() - 1);
        let srcy = (((y as f64 + 0.5) * sy) as usize).min(img.height() - 1);
        img.get(srcx, srcy)
    })
}

/// Bilinear resample (used for qualitative figure rendering).
pub fn resize_bilinear(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
    assert!(out_w > 0 && out_h > 0, "resize to zero size");
    let sx = (img.width().max(2) - 1) as f32 / (out_w.max(2) - 1) as f32;
    let sy = (img.height().max(2) - 1) as f32 / (out_h.max(2) - 1) as f32;
    GrayImage::from_fn(out_w, out_h, |x, y| {
        let fx = x as f32 * sx;
        let fy = y as f32 * sy;
        let x0 = fx.floor() as isize;
        let y0 = fy.floor() as isize;
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let p00 = img.get_clamped(x0, y0);
        let p10 = img.get_clamped(x0 + 1, y0);
        let p01 = img.get_clamped(x0, y0 + 1);
        let p11 = img.get_clamped(x0 + 1, y0 + 1);
        p00 * (1.0 - tx) * (1.0 - ty) + p10 * tx * (1.0 - ty) + p01 * (1.0 - tx) * ty + p11 * tx * ty
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel definition of an area resize: every output pixel
    /// recomputes the overlap of every source pixel of its rectangle
    /// `[x0, x1) x [y0, y1)`. The oracle for `box_project`.
    fn box_average(img: &GrayImage, x0: f64, y0: f64, x1: f64, y1: f64) -> f32 {
        let overlap = |a0: f64, a1: f64, b0: f64, b1: f64| (a1.min(b1) - a0.max(b0)).max(0.0);
        let ix0 = x0.floor() as usize;
        let iy0 = y0.floor() as usize;
        let ix1 = (x1.ceil() as usize).min(img.width());
        let iy1 = (y1.ceil() as usize).min(img.height());
        let mut acc = 0.0f64;
        let mut area = 0.0f64;
        for y in iy0..iy1 {
            let wy = overlap(y as f64, y as f64 + 1.0, y0, y1);
            if wy <= 0.0 {
                continue;
            }
            for x in ix0..ix1 {
                let wx = overlap(x as f64, x as f64 + 1.0, x0, x1);
                if wx <= 0.0 {
                    continue;
                }
                acc += (img.get(x, y) as f64) * wx * wy;
                area += wx * wy;
            }
        }
        if area > 0.0 {
            (acc / area) as f32
        } else {
            0.0
        }
    }

    /// The per-pixel area resize of `img` (a copy at the same size).
    fn resize_area_reference(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
        if (out_w, out_h) == (img.width(), img.height()) {
            return img.clone();
        }
        let sx = img.width() as f64 / out_w as f64;
        let sy = img.height() as f64 / out_h as f64;
        GrayImage::from_fn(out_w, out_h, |ox, oy| {
            box_average(img, ox as f64 * sx, oy as f64 * sy, (ox + 1) as f64 * sx, (oy + 1) as f64 * sy)
        })
    }

    /// Bit patterns with every NaN as one: Rust leaves the sign and payload
    /// of a NaN that arithmetic produces unspecified, so two compilations of
    /// the same expression may differ there and nowhere else.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// Pixels that stress the `f64` accumulation: ordinary values, ±0,
    /// subnormals, values near `f32::MAX`, infinities and NaN.
    fn pixel() -> impl Strategy<Value = f32> {
        prop_oneof![
            -2.0f32..2.0,
            -2.0f32..2.0,
            -1e3f32..1e3,
            Just(0.0f32),
            Just(-0.0f32),
            0.0f32..f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE..0.0f32,
            1e30f32..f32::MAX,
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::NAN),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `box_project` over a region of a larger image, and
        /// `resize_area` over a whole image, are bit-identical to the
        /// per-pixel `box_average` definition for integer, fractional
        /// and upscaling factors, `pm = 1` and the identity size.
        #[test]
        fn box_projection_matches_per_pixel_definition_bits(
            side in 1usize..=24,
            aspect in 0usize..3,
            out_pick in 0usize..6,
            out_free in 1usize..=30,
            ox in 0usize..6,
            oy in 0usize..6,
            margin in 0usize..5,
            pool in prop::collection::vec(pixel(), 36 * 36),
        ) {
            let (w, h) = (side, [side, (side + 3) / 2, side + 5][aspect]);
            // Square outputs at an integer factor, the identity, pm = 1, an
            // upscale, or a free (usually fractional) size.
            let out_w = [(w / 2).max(1), w, 1, 2 * w, out_free, (w / 4).max(1)][out_pick];
            let out_h = if out_pick == 4 { 1 + out_free * 7 % 30 } else { out_w };
            let stride = ox + w + margin;
            let full = GrayImage::from_raw(stride, oy + h, pool[..stride * (oy + h)].to_vec());
            let region = full.crop(ox, oy, w, h);
            let want = resize_area_reference(&region, out_w, out_h);
            let mut got = vec![0.0f32; out_w * out_h];
            box_project(&full.data()[oy * stride + ox..], stride, w, h, out_w, out_h, &mut got);
            prop_assert_eq!(bits(&got), bits(want.data()));
            prop_assert_eq!(bits(resize_area(&region, out_w, out_h).data()), bits(want.data()));
        }
    }

    #[test]
    fn area_downscale_by_two_averages_blocks() {
        let img = GrayImage::from_raw(4, 2, vec![0., 1., 2., 3., 4., 5., 6., 7.]);
        let half = resize_area(&img, 2, 1);
        assert_eq!(half.data(), &[(0. + 1. + 4. + 5.) / 4.0, (2. + 3. + 6. + 7.) / 4.0]);
    }

    #[test]
    fn area_resize_preserves_mean() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 31 + y * 17) % 7) as f32 / 6.0);
        let small = resize_area(&img, 5, 3); // non-integer factor
        assert!((img.mean() - small.mean()).abs() < 0.02);
    }

    #[test]
    fn identity_resize_is_noop() {
        let img = GrayImage::from_fn(7, 5, |x, y| (x + y) as f32);
        assert_eq!(resize_area(&img, 7, 5), img);
    }

    #[test]
    fn nearest_keeps_label_values() {
        // A 2-class mask must stay binary through nearest resize.
        let img = GrayImage::from_fn(9, 9, |x, _| if x > 4 { 1.0 } else { 0.0 });
        let r = resize_nearest(&img, 4, 4);
        for &v in r.data() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let img = GrayImage::from_raw(2, 1, vec![0.0, 1.0]);
        let up = resize_bilinear(&img, 3, 1);
        assert!((up.get(1, 0) - 0.5).abs() < 1e-5);
    }
}
