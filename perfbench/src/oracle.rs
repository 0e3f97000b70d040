//! Offline references for every served answer.
//!
//! Each reference is computed with the same public calls and the same model
//! seed as the serving path, but outside the engine:
//!
//! * patch requests: `tokens` and `positive_fraction`, exact on the solo
//!   path; on padded batches the same positive pixel count, give or take
//!   the reference's logits within [`PADDED_NOISE`] of zero;
//! * slides: every output tile's CRC against a serial
//!   [`SlideSegmenter::segment_store`] run;
//! * training: finite losses whose mean over the last tenth of steps lies
//!   below the mean over the first tenth.

use std::path::Path;
use std::sync::Arc;

use apf_core::patchify::PatchSequence;
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_gigapixel::{
    GigapixelError, Residency, SlideSegmenter, StitchConfig, TileCache, TileStore,
};
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::vit::ViTSegmenter;
use apf_serve::{
    coarse_uniform_sequence, CacheKey, ContentKey, DegradationPolicy, Tier, VariantKey,
};
use apf_telemetry::Telemetry;
use apf_tensor::prelude::*;

/// What a patch request is answered with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchAnswer {
    /// Tokens run through the encoder.
    pub tokens: u64,
    /// Fraction of predicted logits above zero.
    pub positive_fraction: f32,
}

/// Largest distance a padded batch may move a logit from its solo value.
/// The batched-vs-solo property tests of the serving crate hold outputs to
/// 1e-5; this leaves a tenfold margin.
pub const PADDED_NOISE: f32 = 1e-4;

/// An offline reference answer, with what a padded batch may change in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// The solo answer.
    pub answer: PatchAnswer,
    /// Output pixels: tokens × `P_m²`.
    pub pixels: u64,
    /// Pixels with a positive logit.
    pub positive: u64,
    /// Pixels whose logit lies within [`PADDED_NOISE`] of zero: the only
    /// ones whose sign a padded batch can flip.
    pub near_zero: u64,
}

/// Runs the served forward on an already budgeted sequence.
fn answer_for(model: &ViTSegmenter, seq: &PatchSequence, pm: usize) -> Reference {
    let l = seq.len();
    let mut g = Graph::new();
    let bp = model.params.bind(&mut g);
    let x = g.constant(seq.to_tensor().reshape([1, l, pm * pm]));
    let y = model
        .forward_cancellable(&mut g, &bp, x, &CancelToken::new())
        .expect("a reference forward has no deadline");
    let vals = g.value(y).to_vec();
    let positive = vals.iter().filter(|v| **v > 0.0).count();
    Reference {
        answer: PatchAnswer {
            tokens: l as u64,
            positive_fraction: positive as f32 / vals.len().max(1) as f32,
        },
        pixels: vals.len() as u64,
        positive: positive as u64,
        near_zero: vals.iter().filter(|v| v.abs() <= PADDED_NOISE).count() as u64,
    }
}

fn adaptive_sequence(img: &GrayImage, pm: usize) -> PatchSequence {
    AdaptivePatcher::new(PatcherConfig::for_resolution(img.width()).with_patch_size(pm))
        .try_patchify(img)
        .expect("benchmark inputs are valid images")
}

/// Which serving path answered, which decides how the random drop is
/// seeded when a sequence exceeds its tier's budget.
#[derive(Debug, Clone, Copy)]
pub enum ServedBy {
    /// The solo worker loop seeds the drop with the request id.
    Solo {
        /// The engine-side request id.
        id: u64,
    },
    /// The batch scheduler seeds it with the content-addressed cache key.
    Batch,
}

/// Reference answer for `img` served at `tier` under `policy` by a model
/// whose positional table holds `seq_len` tokens.
pub fn served_reference(
    model: &ViTSegmenter,
    img: &GrayImage,
    pm: usize,
    tier: Tier,
    policy: &DegradationPolicy,
    seq_len: usize,
    path: ServedBy,
) -> Reference {
    let budget = policy.budget_for(tier, img.width()).min(seq_len).max(1);
    let seq = match tier {
        Tier::Coarse => coarse_uniform_sequence(img, policy.coarse_leaf, pm),
        Tier::Full | Tier::Reduced => adaptive_sequence(img, pm),
    };
    let drop_seed = match path {
        ServedBy::Solo { id } => id,
        ServedBy::Batch => CacheKey {
            content: ContentKey::of_image(img),
            variant: VariantKey {
                tier_rank: tier.rank(),
                patch_size: pm as u16,
                budget: budget as u32,
                coarse_leaf: policy.coarse_leaf,
            },
        }
        .drop_seed(),
    };
    let seq = if seq.len() > budget {
        seq.fixed_length(budget, drop_seed)
    } else {
        seq
    };
    answer_for(model, &seq, pm)
}

/// The tier a wire status's rank names.
pub fn tier_of_rank(rank: u8) -> Tier {
    match rank {
        0 => Tier::Full,
        1 => Tier::Reduced,
        _ => Tier::Coarse,
    }
}

/// Whether a served answer matches its reference. Solo answers must match
/// bit for bit. `padded` answers came out of a batch that may have been
/// padded to a longer member, so their logits may differ in the last bits:
/// the positive pixel count may then move only by the reference's
/// near-zero pixels, which is no slack at all when no logit is that close.
pub fn answer_matches(served: PatchAnswer, reference: &Reference, padded: bool) -> bool {
    if served.tokens != reference.answer.tokens {
        return false;
    }
    if !padded {
        return served.positive_fraction.to_bits() == reference.answer.positive_fraction.to_bits();
    }
    let positive = (f64::from(served.positive_fraction) * reference.pixels as f64).round();
    (positive - reference.positive as f64).abs() <= reference.near_zero as f64
}

/// CRC-32 of every tile payload of a finished container, row-major.
pub fn container_crcs(path: &Path) -> Result<Vec<u32>, GigapixelError> {
    let store = TileStore::open(path)?;
    let g = store.geometry();
    let mut crcs = Vec::with_capacity(g.tile_count());
    for ty in 0..g.tiles_y() {
        for tx in 0..g.tiles_x() {
            crcs.push(apf_core::crc32(&store.read_tile_bytes(tx, ty)?));
        }
    }
    Ok(crcs)
}

/// The stitch parameters a slide request is served with.
#[derive(Debug, Clone, Copy)]
pub struct SlideGeometry {
    /// Window side in pixels.
    pub window: usize,
    /// Blend halo in pixels.
    pub halo: usize,
    /// Minimal patch size `P_m`.
    pub patch_size: usize,
    /// Tokens per window (the model's sequence length).
    pub seq_len: usize,
    /// Tile-cache byte budget for reading the slide.
    pub cache_budget_bytes: usize,
}

/// Serial stitched reference of the slide at `slide`, written to `out` and
/// reduced to its tile CRCs (the container is removed afterwards).
pub fn serial_slide_reference(
    model: &ViTSegmenter,
    slide: &Path,
    out: &Path,
    stitch: &SlideGeometry,
) -> Result<Vec<u32>, GigapixelError> {
    let tel = Telemetry::disabled();
    let residency = Residency::new(&tel);
    let store = Arc::new(TileStore::open(slide)?);
    let cache = TileCache::new(
        store,
        stitch.cache_budget_bytes,
        tel.clone(),
        residency.clone(),
    );
    let mut cfg = StitchConfig::for_window(stitch.window, stitch.halo, stitch.seq_len);
    cfg.patcher.patch_size = stitch.patch_size;
    SlideSegmenter::new(model, cfg, tel).segment_store(&cache, out, &residency, || false)?;
    let crcs = container_crcs(out);
    let _ = std::fs::remove_file(out);
    crcs
}

/// Whether a loss trajectory shows training working: every loss finite,
/// at least two steps, and the mean of the last tenth of steps below the
/// mean of the first tenth.
pub fn training_converges(losses: &[f64]) -> bool {
    if losses.len() < 2 || losses.iter().any(|l| !l.is_finite()) {
        return false;
    }
    let tenth = (losses.len() / 10).max(1);
    let first = losses[..tenth].iter().sum::<f64>() / tenth as f64;
    let last = losses[losses.len() - tenth..].iter().sum::<f64>() / tenth as f64;
    last < first
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_models::vit::ViTConfig;

    fn image(seed: usize) -> GrayImage {
        GrayImage::from_fn(64, 64, |x, y| {
            ((x * 7 + y * 13 + seed * 31) % 97) as f32 / 96.0
        })
    }

    #[test]
    fn a_perturbed_patch_answer_is_flagged() {
        let model = ViTSegmenter::new(ViTConfig::tiny(16, 64), 7);
        let policy = DegradationPolicy::default();
        let reference = served_reference(
            &model,
            &image(1),
            4,
            Tier::Full,
            &policy,
            64,
            ServedBy::Solo { id: 3 },
        );
        let answer = reference.answer;
        assert_eq!(reference.pixels, answer.tokens * 16);
        assert!(answer_matches(answer, &reference, false));
        assert!(answer_matches(answer, &reference, true));
        let nudged = PatchAnswer {
            positive_fraction: f32::from_bits(answer.positive_fraction.to_bits() ^ 1),
            ..answer
        };
        assert!(
            !answer_matches(nudged, &reference, false),
            "one ulp off must fail on the solo path"
        );
        assert!(
            answer_matches(nudged, &reference, true),
            "padded answers tolerate float noise below one pixel"
        );
        let wrong_len = PatchAnswer {
            tokens: answer.tokens + 1,
            ..answer
        };
        assert!(!answer_matches(wrong_len, &reference, true));
        let one_pixel = PatchAnswer {
            positive_fraction: (reference.positive + 1) as f32 / reference.pixels as f32,
            ..answer
        };
        assert_eq!(
            answer_matches(one_pixel, &reference, true),
            reference.near_zero >= 1,
            "a padded answer may move only by the near-zero pixels"
        );
    }

    #[test]
    fn padded_slack_is_the_near_zero_pixels_of_one_token() {
        // One token of 4×4 pixels, 12 positive, none near zero.
        let reference = Reference {
            answer: PatchAnswer {
                tokens: 1,
                positive_fraction: 12.0 / 16.0,
            },
            pixels: 16,
            positive: 12,
            near_zero: 0,
        };
        let at = |positive: f32| PatchAnswer {
            tokens: 1,
            positive_fraction: positive / 16.0,
        };
        assert!(answer_matches(at(12.0), &reference, true));
        assert!(!answer_matches(at(11.0), &reference, true));
        assert!(!answer_matches(at(13.0), &reference, true));
        assert!(
            !answer_matches(at(12.0 - 8.0), &reference, true),
            "a 0.5 shift"
        );
        let unsure = Reference {
            near_zero: 1,
            ..reference
        };
        assert!(answer_matches(at(11.0), &unsure, true));
        assert!(!answer_matches(at(10.0), &unsure, true));
    }

    #[test]
    fn a_perturbed_training_curve_is_flagged() {
        let falling: Vec<f64> = (0..40).map(|i| 1.0 - i as f64 * 0.01).collect();
        assert!(training_converges(&falling));
        let rising: Vec<f64> = falling.iter().rev().copied().collect();
        assert!(!training_converges(&rising));
        let mut nan = falling.clone();
        nan[17] = f64::NAN;
        assert!(!training_converges(&nan));
        assert!(!training_converges(&[0.5]));
    }

    #[test]
    fn a_perturbed_slide_reference_is_flagged() {
        let dir = std::env::temp_dir().join(format!("perfbench_oracle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let slide = dir.join("slide.apt1");
        let img = GrayImage::from_fn(128, 128, |x, y| ((x * 5 + y * 3) % 41) as f32 / 40.0);
        apf_gigapixel::write_tiled(&slide, 128, 128, 32, |_, _, x0, y0, w, h| {
            img.crop(x0, y0, w, h).into_data()
        })
        .unwrap();
        let model = ViTSegmenter::new(ViTConfig::tiny(16, 48), 7);
        let geom = SlideGeometry {
            window: 64,
            halo: 8,
            patch_size: 4,
            seq_len: 48,
            cache_budget_bytes: 1 << 20,
        };
        let a = serial_slide_reference(&model, &slide, &dir.join("a.apt1"), &geom).unwrap();
        let b = serial_slide_reference(&model, &slide, &dir.join("b.apt1"), &geom).unwrap();
        assert_eq!(a, b, "the serial stitch is deterministic");
        let mut perturbed = a.clone();
        perturbed[0] ^= 1;
        assert_ne!(perturbed, a);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
