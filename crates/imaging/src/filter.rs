//! Separable Gaussian blur.
//!
//! The blur works on whole rows: each source row is replicate-padded once
//! into a scratch buffer, then one axpy per kernel tap runs across the
//! row, so the inner loops are straight slices the compiler vectorises
//! across pixels. Every pixel still evaluates the per-pixel definition's
//! scalar expression in its tap order, with no fused multiply-add, so the
//! output is bit-identical to that definition (kept in this module's tests
//! as the oracle), and everything downstream of it (Canny, the quadtree,
//! the streamed gigapixel build) stays exact. Sobel gradients are fused
//! into [`crate::canny::canny`], which pads rows the same way.

use crate::image::GrayImage;

/// A 1D Gaussian kernel of odd size `k`.
///
/// With `sigma <= 0` the OpenCV convention is used:
/// `sigma = 0.3 * ((k - 1) * 0.5 - 1) + 0.8` — this matches the paper's
/// `GaussianBlur(x; k)` with `sigma = 0`.
pub fn gaussian_kernel(k: usize, sigma: f32) -> Vec<f32> {
    assert!(k % 2 == 1, "Gaussian kernel size must be odd");
    let sigma = if sigma > 0.0 {
        sigma
    } else {
        0.3 * ((k as f32 - 1.0) * 0.5 - 1.0) + 0.8
    };
    let half = (k / 2) as isize;
    let mut kernel: Vec<f32> = (-half..=half)
        .map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f32 = kernel.iter().sum();
    for v in &mut kernel {
        *v /= sum;
    }
    kernel
}

/// Separable Gaussian blur with kernel size `k` and standard deviation
/// `sigma` (`sigma = 0` selects the size-derived default). Border pixels use
/// replicate padding.
pub fn gaussian_blur(img: &GrayImage, k: usize, sigma: f32) -> GrayImage {
    if k <= 1 {
        return img.clone();
    }
    let kernel = gaussian_kernel(k, sigma);
    let half = k / 2;
    let (w, h) = (img.width(), img.height());

    // Horizontal pass: pad each row once, then one axpy per tap.
    let mut tmp = vec![0.0f32; w * h];
    let mut pad = vec![0.0f32; w + 2 * half];
    for (row, src) in tmp.chunks_mut(w).zip(img.data().chunks(w)) {
        pad_row(src, half, &mut pad);
        for (i, &kv) in kernel.iter().enumerate() {
            axpy(kv, &pad[i..i + w], row);
        }
    }

    // Vertical pass: the same per-tap axpy over clamped source rows.
    let mut out = vec![0.0f32; w * h];
    for (y, row) in out.chunks_mut(w).enumerate() {
        for (i, &kv) in kernel.iter().enumerate() {
            let sy = (y + i).saturating_sub(half).min(h - 1);
            axpy(kv, &tmp[sy * w..(sy + 1) * w], row);
        }
    }
    GrayImage::from_raw(w, h, out)
}

/// `out[x] += k * src[x]`: a separate multiply and add, never fused, so
/// each pixel rounds exactly as the per-pixel definition does.
#[inline]
fn axpy(k: f32, src: &[f32], out: &mut [f32]) {
    for (o, &p) in out.iter_mut().zip(src) {
        *o += k * p;
    }
}

/// Writes `src` into `pad` with `half` replicated border pixels on each
/// side: `pad[j] == src[clamp(j - half, 0, len - 1)]`.
pub(crate) fn pad_row(src: &[f32], half: usize, pad: &mut [f32]) {
    let w = src.len();
    pad[..half].fill(src[0]);
    pad[half..half + w].copy_from_slice(src);
    pad[half + w..].fill(src[w - 1]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canny::tests::{bits, canny_reference};
    use crate::canny::{canny, CannyConfig};
    use proptest::prelude::*;

    /// The per-pixel blur definition: every tap of every pixel reads its
    /// source through `get_clamped`. The oracle for `gaussian_blur`.
    fn gaussian_blur_reference(img: &GrayImage, k: usize, sigma: f32) -> GrayImage {
        if k <= 1 {
            return img.clone();
        }
        let kernel = gaussian_kernel(k, sigma);
        let half = (k / 2) as isize;
        let (w, h) = (img.width(), img.height());
        let tmp = GrayImage::from_fn(w, h, |x, y| {
            let mut s = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                s += kv * img.get_clamped(x as isize + i as isize - half, y as isize);
            }
            s
        });
        GrayImage::from_fn(w, h, |x, y| {
            let mut s = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                s += kv * tmp.get_clamped(x as isize, y as isize + i as isize - half);
            }
            s
        })
    }

    /// Pixels that stress rounding: ±0.0, subnormals of both signs,
    /// ordinary negative and positive values, and values near `f32::MAX`.
    fn pixel() -> impl Strategy<Value = f32> {
        prop_oneof![
            -2.0f32..2.0,
            Just(0.0f32),
            Just(-0.0f32),
            0.0f32..f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE..0.0f32,
            -1e3f32..1e3,
            1e30f32..f32::MAX,
            -f32::MAX..-1e30f32,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The row-sliced blur and the row-streamed Canny are
        /// bit-identical to the per-pixel definitions (Canny's being the
        /// `atan2` oracle), borders, odd shapes and kernels wider than the
        /// image included.
        #[test]
        fn filters_match_per_pixel_reference_bits(
            w in 1usize..=40,
            h in 1usize..=40,
            k_half in 0usize..7,
            sigma in prop_oneof![Just(0.0f32), Just(0.5f32), Just(2.0f32)],
            pool in prop::collection::vec(pixel(), 40 * 40),
        ) {
            let img = GrayImage::from_raw(w, h, pool[..w * h].to_vec());
            let k = 2 * k_half + 1;
            let blurred = gaussian_blur(&img, k, sigma);
            prop_assert_eq!(bits(&blurred), bits(&gaussian_blur_reference(&img, k, sigma)));
            for src in [&img, &blurred] {
                let cfg = CannyConfig::default();
                prop_assert_eq!(bits(&canny(src, cfg)), bits(&canny_reference(src, cfg)));
            }
        }
    }

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        for k in [3, 5, 7, 9] {
            let kern = gaussian_kernel(k, 0.0);
            let sum: f32 = kern.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for i in 0..k / 2 {
                assert!((kern[i] - kern[k - 1 - i]).abs() < 1e-6);
            }
            assert!(kern[k / 2] >= kern[0]);
        }
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_kernel_panics() {
        gaussian_kernel(4, 1.0);
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayImage::from_raw(8, 8, vec![0.37; 64]);
        let b = gaussian_blur(&img, 5, 0.0);
        for &v in b.data() {
            assert!((v - 0.37).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_preserves_mean_energy() {
        // Replicate padding keeps total mass approximately constant for
        // smooth images; check the mean moves by < 1%.
        let img = GrayImage::from_fn(32, 32, |x, y| {
            0.5 + 0.4 * ((x as f32 / 8.0).sin() * (y as f32 / 8.0).cos())
        });
        let b = gaussian_blur(&img, 7, 0.0);
        assert!((img.mean() - b.mean()).abs() < 0.01);
    }

    #[test]
    fn blur_reduces_variance() {
        let img = GrayImage::from_fn(32, 32, |x, y| ((x + y) % 2) as f32);
        let b = gaussian_blur(&img, 5, 0.0);
        let var = |im: &GrayImage| {
            let m = im.mean();
            im.data().iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / im.data().len() as f32
        };
        assert!(var(&b) < var(&img) * 0.2);
    }
}
