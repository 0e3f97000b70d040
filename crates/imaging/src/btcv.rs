//! Synthetic BTCV-like abdominal CT generator.
//!
//! The BTCV multi-organ challenge (30 subjects, 13 annotated organs, 512²
//! slices) is challenge-gated; this module generates axial-CT-like slice
//! stacks with the same *task shape*: 13 foreground classes laid out in an
//! anatomically-inspired arrangement, per-slice extents that wax and wane
//! along the cranio-caudal axis, per-organ HU-like intensities, and CT noise.
//!
//! Predictions are made slice-by-slice in 2D and re-assembled into a 3D
//! volume, exactly as the paper does for APF on BTCV.

use crate::image::GrayImage;
use crate::noise::fbm;

/// Number of foreground organ classes in BTCV.
pub const NUM_ORGANS: usize = 13;

/// Organ names matching the BTCV label convention (index = class - 1).
pub const ORGAN_NAMES: [&str; NUM_ORGANS] = [
    "spleen",
    "right kidney",
    "left kidney",
    "gallbladder",
    "esophagus",
    "liver",
    "stomach",
    "aorta",
    "inferior vena cava",
    "portal & splenic veins",
    "pancreas",
    "right adrenal gland",
    "left adrenal gland",
];

/// One organ's geometric/intensity template in normalized coordinates
/// (`u, v` in 0..1000, `z` in 0..1 along the scan axis).
#[derive(Debug, Clone, Copy)]
struct OrganTemplate {
    class: u8,
    cu: f32,
    cv: f32,
    /// Semi-axes of the base ellipse.
    ru: f32,
    rv: f32,
    /// Slice range where the organ exists.
    z0: f32,
    z1: f32,
    /// Base intensity in [0, 1] (CT window normalized).
    intensity: f32,
}

/// The fixed abdominal layout. Positions are loosely anatomical: liver on
/// the patient's right (image left), spleen opposite, kidneys posterior,
/// aorta/IVC midline, etc. Draw order = template order; later entries paint
/// over earlier ones.
const LAYOUT: [OrganTemplate; NUM_ORGANS] = [
    OrganTemplate { class: 6, cu: 360.0, cv: 430.0, ru: 230.0, rv: 190.0, z0: 0.05, z1: 0.70, intensity: 0.58 }, // liver
    OrganTemplate { class: 7, cu: 620.0, cv: 470.0, ru: 150.0, rv: 120.0, z0: 0.15, z1: 0.75, intensity: 0.42 }, // stomach
    OrganTemplate { class: 1, cu: 720.0, cv: 380.0, ru: 110.0, rv: 90.0, z0: 0.10, z1: 0.55, intensity: 0.52 },  // spleen
    OrganTemplate { class: 2, cu: 380.0, cv: 640.0, ru: 80.0, rv: 65.0, z0: 0.35, z1: 0.85, intensity: 0.50 },   // right kidney
    OrganTemplate { class: 3, cu: 650.0, cv: 640.0, ru: 80.0, rv: 65.0, z0: 0.35, z1: 0.85, intensity: 0.50 },   // left kidney
    OrganTemplate { class: 4, cu: 460.0, cv: 500.0, ru: 45.0, rv: 35.0, z0: 0.30, z1: 0.60, intensity: 0.30 },   // gallbladder
    OrganTemplate { class: 5, cu: 510.0, cv: 560.0, ru: 25.0, rv: 25.0, z0: 0.00, z1: 0.35, intensity: 0.38 },   // esophagus
    OrganTemplate { class: 8, cu: 530.0, cv: 610.0, ru: 32.0, rv: 32.0, z0: 0.00, z1: 1.00, intensity: 0.72 },   // aorta
    OrganTemplate { class: 9, cu: 470.0, cv: 600.0, ru: 28.0, rv: 28.0, z0: 0.00, z1: 1.00, intensity: 0.62 },   // IVC
    OrganTemplate { class: 10, cu: 560.0, cv: 520.0, ru: 70.0, rv: 22.0, z0: 0.25, z1: 0.60, intensity: 0.60 },  // portal veins
    OrganTemplate { class: 11, cu: 540.0, cv: 555.0, ru: 110.0, rv: 35.0, z0: 0.40, z1: 0.70, intensity: 0.46 }, // pancreas
    OrganTemplate { class: 12, cu: 420.0, cv: 565.0, ru: 25.0, rv: 15.0, z0: 0.30, z1: 0.50, intensity: 0.44 },  // right adrenal
    OrganTemplate { class: 13, cu: 610.0, cv: 565.0, ru: 25.0, rv: 15.0, z0: 0.30, z1: 0.50, intensity: 0.44 },  // left adrenal
];

/// One CT slice with per-pixel class labels (0 = background).
#[derive(Debug, Clone)]
pub struct CtSlice {
    /// Normalized CT intensity image.
    pub image: GrayImage,
    /// Row-major class labels, 0..=13.
    pub labels: Vec<u8>,
}

/// Configuration for the BTCV-like generator.
#[derive(Debug, Clone)]
pub struct BtcvConfig {
    /// Square slice resolution (BTCV is 512).
    pub resolution: usize,
    /// Slices per subject (BTCV has 80 - 225).
    pub slices: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for BtcvConfig {
    fn default() -> Self {
        BtcvConfig { resolution: 512, slices: 96, seed: 0xB7C4 }
    }
}

impl BtcvConfig {
    /// Scaled-down configuration for fast experiments.
    pub fn small(resolution: usize, slices: usize) -> Self {
        BtcvConfig { resolution, slices, seed: 0xB7C4 }
    }
}

/// Deterministic generator of BTCV-like subjects.
pub struct BtcvGenerator {
    cfg: BtcvConfig,
}

impl BtcvGenerator {
    /// Creates a generator from a configuration.
    pub fn new(cfg: BtcvConfig) -> Self {
        BtcvGenerator { cfg }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &BtcvConfig {
        &self.cfg
    }

    /// Generates one slice of one subject. `slice_idx` must be below
    /// `cfg.slices`.
    pub fn slice(&self, subject: usize, slice_idx: usize) -> CtSlice {
        assert!(slice_idx < self.cfg.slices, "slice index out of range");
        let res = self.cfg.resolution;
        let z = (slice_idx as f32 + 0.5) / self.cfg.slices as f32;
        let seed = self
            .cfg
            .seed
            .wrapping_add(subject as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Subject-specific anatomy jitter: organs shift and scale a little.
        let jitter = |t: &OrganTemplate| {
            let ju = (fbm(seed ^ (t.class as u64), 1.0, 2.0, 1.0, 1, 0.5) - 0.5) * 60.0;
            let jv = (fbm(seed ^ (t.class as u64), 9.0, 4.0, 1.0, 1, 0.5) - 0.5) * 60.0;
            let js = 0.85 + 0.3 * fbm(seed ^ (t.class as u64), 3.0, 8.0, 1.0, 1, 0.5);
            (ju, jv, js)
        };
        let organs: Vec<(OrganTemplate, f32, f32, f32)> =
            LAYOUT.iter().map(|t| (*t, jitter(t).0, jitter(t).1, jitter(t).2)).collect();

        let inv = 1000.0 / res as f32;
        let mut img = vec![0.0f32; res * res];
        let mut labels = vec![0u8; res * res];
        img.chunks_mut(res)
            .zip(labels.chunks_mut(res))
            .enumerate()
            .for_each(|(y, (irow, lrow))| {
                let v = y as f32 * inv;
                for x in 0..res {
                    let u = x as f32 * inv;
                    let (pix, label) = Self::shade(seed, u, v, z, &organs);
                    irow[x] = pix;
                    lrow[x] = label;
                }
            });
        CtSlice {
            image: GrayImage::from_raw(res, res, img),
            labels,
        }
    }

    /// Generates a full subject: all slices, cranio-caudal order.
    pub fn subject(&self, subject: usize) -> Vec<CtSlice> {
        (0..self.cfg.slices).map(|i| self.slice(subject, i)).collect()
    }

    #[inline]
    fn shade(seed: u64, u: f32, v: f32, z: f32, organs: &[(OrganTemplate, f32, f32, f32)]) -> (f32, u8) {
        // Body cross-section: a large soft ellipse.
        let bu = (u - 500.0) / 430.0;
        let bv = (v - 520.0) / 340.0;
        let body = bu * bu + bv * bv;
        if body > 1.0 {
            return (0.02, 0); // air
        }

        // Soft-tissue base with CT-like noise, plus a fat rim near the skin.
        let mut pix = 0.34 + 0.05 * fbm(seed ^ 0xC7, u, v, 40.0, 3, 0.5);
        if body > 0.82 {
            pix = 0.22 + 0.03 * fbm(seed ^ 0xFA7, u, v, 30.0, 2, 0.5);
        }
        let mut label = 0u8;

        for (t, ju, jv, js) in organs {
            if z < t.z0 || z > t.z1 {
                continue;
            }
            // Organ extent waxes/wanes along z like a lens.
            let zt = (z - t.z0) / (t.z1 - t.z0);
            let scale = (std::f32::consts::PI * zt).sin().max(0.0) * js;
            if scale < 0.15 {
                continue;
            }
            let du = (u - (t.cu + ju)) / (t.ru * scale);
            let dv = (v - (t.cv + jv)) / (t.rv * scale);
            let d = du * du + dv * dv;
            // Wobbly boundary.
            let wob = 1.0 + (fbm(seed ^ (t.class as u64 * 131), u, v, 60.0, 2, 0.5) - 0.5) * 0.35;
            if d < wob {
                label = t.class;
                pix = t.intensity + 0.04 * fbm(seed ^ (t.class as u64 * 977), u, v, 25.0, 3, 0.5);
            }
        }
        (pix.clamp(0.0, 1.0), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_subject_dependent() {
        let gen = BtcvGenerator::new(BtcvConfig::small(64, 8));
        let a = gen.slice(0, 4);
        let b = gen.slice(0, 4);
        assert_eq!(a.image.data(), b.image.data());
        assert_eq!(a.labels, b.labels);
        let c = gen.slice(1, 4);
        assert_ne!(a.image.data(), c.image.data());
    }

    #[test]
    fn labels_in_range_and_multiclass() {
        let gen = BtcvGenerator::new(BtcvConfig::small(128, 16));
        let mid = gen.slice(0, 8);
        let mut present = [false; NUM_ORGANS + 1];
        for &l in &mid.labels {
            assert!(l as usize <= NUM_ORGANS);
            present[l as usize] = true;
        }
        let organ_count = present[1..].iter().filter(|&&p| p).count();
        assert!(organ_count >= 5, "only {} organs visible mid-scan", organ_count);
    }

    #[test]
    fn organ_extent_varies_along_z() {
        // The liver (class 6) should be larger mid-range than near its
        // z-extent boundaries.
        let gen = BtcvGenerator::new(BtcvConfig::small(96, 20));
        let count = |s: &CtSlice| s.labels.iter().filter(|&&l| l == 6).count();
        let near_start = count(&gen.slice(0, 2));
        let mid = count(&gen.slice(0, 7));
        assert!(mid > near_start, "liver mid {} <= start {}", mid, near_start);
    }

    #[test]
    fn subject_has_expected_slices() {
        let gen = BtcvGenerator::new(BtcvConfig::small(32, 5));
        assert_eq!(gen.subject(0).len(), 5);
    }

    #[test]
    fn organ_names_cover_all_classes() {
        assert_eq!(ORGAN_NAMES.len(), NUM_ORGANS);
        let classes: Vec<u8> = LAYOUT.iter().map(|t| t.class).collect();
        for c in 1..=NUM_ORGANS as u8 {
            assert!(classes.contains(&c), "class {} missing from layout", c);
        }
    }
}
