//! Synthetic PAIP-like pathology sample generator.
//!
//! The real PAIP 2019 dataset (liver-cancer whole-slide images, up to ~64K²)
//! is access-gated, so this module procedurally generates samples with the
//! *statistical structure APF exploits*:
//!
//! - a mostly-empty bright background (glass slide),
//! - a large tissue region with smooth mid-frequency texture,
//! - dark vessel-like ridges inside the tissue,
//! - lesion blobs with irregular boundaries and *finer* texture than the
//!   surrounding tissue (higher-octave noise), which serve as the
//!   segmentation targets.
//!
//! Detail (hence Canny edge density) is concentrated at tissue/vessel/lesion
//! boundaries: adaptive patching collapses the background into a handful of
//! large patches while keeping small patches around detail — exactly the
//! regime the paper evaluates. The number of noise octaves grows with
//! resolution, so higher-resolution renders genuinely contain more detail
//! (like real WSIs) rather than being smooth upsamples.
//!
//! All sampling is deterministic in `(seed, sample_index)`.

use crate::image::GrayImage;
use crate::noise::{fbm, value_noise};

/// Configuration for the PAIP-like generator.
#[derive(Debug, Clone)]
pub struct PaipConfig {
    /// Square image resolution Z (image is Z x Z).
    pub resolution: usize,
    /// Number of lesion blobs per sample.
    pub lesions: usize,
    /// Master seed; combined with the sample index.
    pub seed: u64,
    /// Texture octave count (more octaves = more fine detail). Chosen from
    /// the resolution by [`PaipConfig::at_resolution`].
    pub octaves: usize,
    /// Approximate fraction of the image diagonal occupied by the tissue
    /// blob (0.3 - 0.5 is realistic).
    pub tissue_extent: f32,
}

impl PaipConfig {
    /// Sensible defaults for a given resolution, with octave count growing
    /// logarithmically so detail scales like a real slide scan.
    pub fn at_resolution(resolution: usize) -> Self {
        assert!(resolution >= 32, "resolution too small to be meaningful");
        let octaves = ((resolution as f32).log2() as usize).saturating_sub(4).clamp(3, 10);
        PaipConfig {
            resolution,
            lesions: 4,
            seed: 0x9A19,
            octaves,
            tissue_extent: 0.42,
        }
    }

    /// Same configuration with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One generated sample: the slide image and its binary lesion mask.
#[derive(Debug, Clone)]
pub struct PaipSample {
    /// Grayscale slide image in `[0, 1]`.
    pub image: GrayImage,
    /// Binary lesion mask (1.0 inside lesions).
    pub mask: GrayImage,
}

/// Lesion blob description in normalized (0..1000) slide coordinates.
#[derive(Debug, Clone, Copy)]
struct Blob {
    cx: f32,
    cy: f32,
    r: f32,
    seed: u64,
}

impl Blob {
    /// Signed distance-like inclusion test with an fBm-perturbed boundary.
    #[inline]
    fn contains(&self, u: f32, v: f32) -> bool {
        let dx = u - self.cx;
        let dy = v - self.cy;
        let d = (dx * dx + dy * dy).sqrt();
        if d > self.r * 1.45 {
            return false;
        }
        let wobble = (fbm(self.seed, u, v, self.r * 0.9, 3, 0.55) - 0.5) * 0.7 * self.r;
        d < self.r + wobble
    }
}

/// Deterministic generator of PAIP-like samples.
pub struct PaipGenerator {
    cfg: PaipConfig,
}

impl PaipGenerator {
    /// Creates a generator from a configuration.
    pub fn new(cfg: PaipConfig) -> Self {
        PaipGenerator { cfg }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &PaipConfig {
        &self.cfg
    }

    /// Generates sample `index` (image + lesion mask).
    pub fn generate(&self, index: usize) -> PaipSample {
        self.generate_textured(index, 0)
    }

    /// Generates sample `index` with a texture-class offset; class 0 is the
    /// segmentation dataset, classes 0..6 form the classification dataset
    /// (Table V divides PAIP into six organ categories by texture).
    pub fn generate_textured(&self, index: usize, class: usize) -> PaipSample {
        let z = self.cfg.resolution;
        self.generate_region(index, class, 0, 0, z, z)
    }

    /// Generates only the `w x h` window of sample `index` whose top-left
    /// corner sits at `(x0, y0)` in full-slide pixel coordinates.
    ///
    /// Every pixel is shaded from its *absolute* slide coordinate, so the
    /// output is bit-identical to cropping [`PaipGenerator::generate_textured`]
    /// at the same rectangle. This is what lets the out-of-core tile store
    /// stream a 16K²+ slide one tile at a time (peak memory = one tile)
    /// without ever materializing the dense image.
    ///
    /// # Panics
    /// Panics if the window exceeds the configured resolution.
    pub fn generate_region(
        &self,
        index: usize,
        class: usize,
        x0: usize,
        y0: usize,
        w: usize,
        h: usize,
    ) -> PaipSample {
        let z = self.cfg.resolution;
        assert!(
            x0 + w <= z && y0 + h <= z,
            "region {}x{}+{}+{} exceeds slide resolution {}",
            w,
            h,
            x0,
            y0,
            z
        );
        let sample_seed = self
            .cfg
            .seed
            .wrapping_add(index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((class as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
        let blobs = self.lesion_blobs(sample_seed);
        // Per-class texture signature: frequency and contrast differ per
        // organ category, which is what a classifier must pick up.
        let tissue_scale = 120.0 * (1.0 + class as f32 * 0.35);
        let lesion_scale = 24.0 / (1.0 + class as f32 * 0.2);
        let tissue_dark = 0.52 - class as f32 * 0.03;

        let octaves = self.cfg.octaves;
        let extent = self.cfg.tissue_extent;
        // Slide coordinates are normalized by the *full* resolution, never
        // the window size — region generation must sample the same (u, v)
        // lattice as a dense render.
        let inv = 1000.0 / z as f32;

        let mut img = vec![0.0f32; w * h];
        let mut mask = vec![0.0f32; w * h];
        img.chunks_mut(w)
            .zip(mask.chunks_mut(w))
            .enumerate()
            .for_each(|(dy, (irow, mrow))| {
                let v = (y0 + dy) as f32 * inv;
                for dx in 0..w {
                    let u = (x0 + dx) as f32 * inv;
                    let (pix, m) = Self::shade(
                        sample_seed,
                        u,
                        v,
                        extent,
                        octaves,
                        tissue_scale,
                        lesion_scale,
                        tissue_dark,
                        &blobs,
                    );
                    irow[dx] = pix;
                    mrow[dx] = m;
                }
            });
        PaipSample {
            image: GrayImage::from_raw(w, h, img),
            mask: GrayImage::from_raw(w, h, mask),
        }
    }

    /// Lesion blob layout for a sample, placed inside the tissue region.
    fn lesion_blobs(&self, sample_seed: u64) -> Vec<Blob> {
        (0..self.cfg.lesions)
            .map(|i| {
                let s = sample_seed.wrapping_add((i as u64).wrapping_mul(6_364_136_223_846_793_005));
                let angle = value_noise(s, 13.7, 71.3, 1.0) * std::f32::consts::TAU;
                let dist = 60.0 + value_noise(s, 99.1, 4.2, 1.0) * 180.0;
                Blob {
                    cx: 500.0 + angle.cos() * dist,
                    cy: 500.0 + angle.sin() * dist,
                    r: 40.0 + value_noise(s, 5.5, 55.5, 1.0) * 70.0,
                    seed: s,
                }
            })
            .collect()
    }

    /// Computes one pixel: returns `(intensity, lesion_mask)`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn shade(
        seed: u64,
        u: f32,
        v: f32,
        extent: f32,
        octaves: usize,
        tissue_scale: f32,
        lesion_scale: f32,
        tissue_dark: f32,
        blobs: &[Blob],
    ) -> (f32, f32) {
        // Tissue region: a big wobbly blob centred on the slide.
        let dx = u - 500.0;
        let dy = v - 500.0;
        let d = (dx * dx + dy * dy).sqrt();
        let tissue_r = extent * 1000.0;
        let tissue_wobble = (fbm(seed ^ 0xA11CE, u, v, 280.0, 3, 0.5) - 0.5) * 220.0;
        let in_tissue = d < tissue_r + tissue_wobble;

        if !in_tissue {
            // Glass background: bright, almost featureless.
            let bg = 0.93 + 0.04 * value_noise(seed ^ 0xB0B, u, v, 300.0);
            return (bg, 0.0);
        }

        // Base tissue texture.
        let t = fbm(seed ^ 0x7155, u, v, tissue_scale, octaves, 0.55);
        let mut pix = tissue_dark + 0.30 * t;

        // Vessels: ridged noise produces thin connected dark curves.
        let ridge = 1.0 - (2.0 * fbm(seed ^ 0xE55E1, u, v, 170.0, 4, 0.5) - 1.0).abs();
        if ridge > 0.965 {
            pix *= 0.45;
        }

        // Lesions: finer texture, slightly darker, irregular boundary.
        let mut in_lesion = false;
        for b in blobs {
            if b.contains(u, v) {
                in_lesion = true;
                break;
            }
        }
        if in_lesion {
            let fine = fbm(seed ^ 0x1E51, u, v, lesion_scale, octaves, 0.6);
            pix = 0.30 + 0.25 * fine + 0.10 * t;
            return (pix.clamp(0.0, 1.0), 1.0);
        }
        (pix.clamp(0.0, 1.0), 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
        let a = gen.generate(3);
        let b = gen.generate(3);
        assert_eq!(a.image.data(), b.image.data());
        assert_eq!(a.mask.data(), b.mask.data());
        let c = gen.generate(4);
        assert_ne!(a.image.data(), c.image.data());
    }

    #[test]
    fn mask_is_binary_and_nonempty() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(128));
        let s = gen.generate(0);
        for &v in s.mask.data() {
            assert!(v == 0.0 || v == 1.0);
        }
        let cov = s.mask.coverage(0.5);
        assert!(cov > 0.005 && cov < 0.6, "lesion coverage {}", cov);
    }

    #[test]
    fn image_values_in_unit_range() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
        let s = gen.generate(1);
        let (lo, hi) = s.image.min_max();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn background_is_smoother_than_lesions() {
        // Average local variation outside tissue should be far below inside
        // lesions — this is the property the quadtree exploits.
        let gen = PaipGenerator::new(PaipConfig::at_resolution(256));
        let s = gen.generate(2);
        let mut bg_var = 0.0f64;
        let mut bg_n = 0usize;
        let mut le_var = 0.0f64;
        let mut le_n = 0usize;
        for y in 1..255 {
            for x in 1..255 {
                let dv = (s.image.get(x, y) - s.image.get(x - 1, y)).abs() as f64;
                // Background = bright pixels far from tissue.
                if s.image.get(x, y) > 0.9 {
                    bg_var += dv;
                    bg_n += 1;
                } else if s.mask.get(x, y) > 0.5 {
                    le_var += dv;
                    le_n += 1;
                }
            }
        }
        assert!(bg_n > 1000 && le_n > 1000);
        let bg = bg_var / bg_n as f64;
        let le = le_var / le_n as f64;
        assert!(le > bg * 3.0, "lesion detail {} vs background {}", le, bg);
    }

    #[test]
    fn region_generation_matches_dense_crop_bitwise() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(128));
        for class in [0usize, 2] {
            let dense = gen.generate_textured(7, class);
            // Tile the slide 32x32 and compare every tile, plus one
            // unaligned interior window.
            for (x0, y0, w, h) in [
                (0, 0, 32, 32),
                (96, 0, 32, 32),
                (32, 64, 32, 32),
                (96, 96, 32, 32),
                (17, 41, 50, 23),
            ] {
                let region = gen.generate_region(7, class, x0, y0, w, h);
                let img_crop = dense.image.crop(x0, y0, w, h);
                let mask_crop = dense.mask.crop(x0, y0, w, h);
                assert_eq!(region.image.data(), img_crop.data(), "image window {x0},{y0}");
                assert_eq!(region.mask.data(), mask_crop.data(), "mask window {x0},{y0}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds slide resolution")]
    fn region_out_of_bounds_panics() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
        let _ = gen.generate_region(0, 0, 40, 0, 32, 32);
    }

    #[test]
    fn texture_classes_differ() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(64));
        let a = gen.generate_textured(0, 0);
        let b = gen.generate_textured(0, 3);
        let diff: f32 = a
            .image
            .data()
            .iter()
            .zip(b.image.data())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / (64.0 * 64.0);
        assert!(diff > 0.01, "classes indistinguishable: {}", diff);
    }

    #[test]
    fn resolution_scales_content_not_layout() {
        // The same sample at 2x resolution must have the same gross
        // structure: mask coverage within a small tolerance.
        let lo = PaipGenerator::new(PaipConfig::at_resolution(64)).generate(5);
        let hi = PaipGenerator::new(PaipConfig::at_resolution(128)).generate(5);
        let c1 = lo.mask.coverage(0.5);
        let c2 = hi.mask.coverage(0.5);
        assert!((c1 - c2).abs() < 0.05, "{} vs {}", c1, c2);
    }
}
