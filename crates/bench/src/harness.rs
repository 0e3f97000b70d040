//! Shared experiment scaffolding: dataset builders, image comparisons and
//! the fixed-length patcher the quality experiments train on.

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::image::GrayImage;
use apf_imaging::paip::{PaipConfig, PaipGenerator};

/// Generates `n` PAIP-like `(image, mask)` pairs at `res`.
pub fn paip_pairs(res: usize, n: usize) -> Vec<(GrayImage, GrayImage)> {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(res));
    (0..n)
        .map(|i| {
            let s = gen.generate(i);
            (s.image, s.mask)
        })
        .collect()
}

/// Largest absolute per-pixel difference between `a` and `b`:
/// `f32::INFINITY` when their dimensions differ or a difference is NaN, so
/// a stitched output of the wrong size can never pass as a match.
pub fn max_abs_diff(a: &GrayImage, b: &GrayImage) -> f32 {
    if (a.width(), a.height()) != (b.width(), b.height()) {
        return f32::INFINITY;
    }
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, |m, d| if d.is_nan() { f32::INFINITY } else { m.max(d) })
}

/// Whether `a` and `b` have the same dimensions and the same bits in every
/// pixel.
pub fn bits_equal(a: &GrayImage, b: &GrayImage) -> bool {
    (a.width(), a.height()) == (b.width(), b.height())
        && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Power-of-two grid side for a target token count.
///
/// Algorithm 1 pads *or randomly drops* to the fixed length `L`, so we pick
/// the power-of-two side whose square is closest in relative terms: dropping
/// up to ~25% of patches is preferred over padding the sequence by up to 4x
/// (which would negate APF's sequence reduction).
pub fn grid_side_for(tokens: usize) -> usize {
    let mut side = 1usize;
    while side * side < tokens {
        side *= 2;
    }
    let down = side / 2;
    if down >= 1 && tokens as f64 <= (down * down) as f64 * 1.33 {
        down
    } else {
        side
    }
}

/// Split value used by the scaled-down quality experiments: finer than the
/// paper's 100 because synthetic slides at 64-256px have proportionally
/// fewer edge pixels per quadrant than 512-65,536px WSIs.
pub(crate) const QUALITY_SPLIT_VALUE: f64 = 16.0;

/// The quality experiments' patcher at minimal patch `patch`: natural
/// lengths when `target_len` is `None`, padded or dropped to it otherwise.
pub(crate) fn quality_patcher(res: usize, patch: usize, target_len: Option<usize>) -> AdaptivePatcher {
    let cfg = PatcherConfig::for_resolution(res)
        .with_patch_size(patch)
        .with_split_value(QUALITY_SPLIT_VALUE);
    AdaptivePatcher::new(if let Some(l) = target_len { cfg.with_target_len(l) } else { cfg })
}

/// Which natural sequence length the fixed length `L` is sized to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LenPick {
    /// The median: `L` is a budget, so longer images drop patches.
    Median,
    /// The maximum: no image drops a patch.
    Max,
}

/// Grid side `s` (so `L = s²`) for `images` at minimal patch `patch`: the
/// natural leaf counts are probed, `pick` chooses one and
/// [`grid_side_for`] rounds it to a power-of-two grid. 16 tokens when
/// there is no image.
pub(crate) fn grid_side<'a>(imgs: impl IntoIterator<Item = &'a GrayImage>, res: usize, patch: usize, pick: LenPick) -> usize {
    let probe = quality_patcher(res, patch, None);
    let mut lens: Vec<usize> = imgs.into_iter().map(|img| probe.tree(img).len()).collect();
    lens.sort_unstable();
    let len = match pick {
        LenPick::Median => lens.get(lens.len() / 2),
        LenPick::Max => lens.last(),
    };
    grid_side_for(len.copied().unwrap_or(16))
}

/// Least-squares fit of `y ~ e^c · x^k` in log-log space; returns `(k, c)`.
pub(crate) fn fit_power_law(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    (slope, (sy - slope * sx) / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_side_picks_nearest_power_of_two() {
        assert_eq!(grid_side_for(1), 1);
        assert_eq!(grid_side_for(16), 4);
        // Slightly above a square: prefer dropping a few patches...
        assert_eq!(grid_side_for(17), 4);
        assert_eq!(grid_side_for(4097), 64);
        // ...but not more than ~25%: far above, round up and pad.
        assert_eq!(grid_side_for(30), 8);
        assert_eq!(grid_side_for(283), 16);
        assert_eq!(grid_side_for(400), 32);
    }

    #[test]
    fn image_comparisons_include_dimensions() {
        let a = GrayImage::from_fn(4, 4, |x, y| (x + 4 * y) as f32);
        let mut off = a.clone();
        off.set(2, 1, a.get(2, 1) + 0.5);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
        assert_eq!(max_abs_diff(&a, &off), 0.5);
        assert!(bits_equal(&a, &a) && !bits_equal(&a, &off));
        // The first 16 values agree, so a zip over the buffers sees no
        // difference; the 4x8 image is still not the 4x4 one.
        let tall = GrayImage::from_fn(4, 8, |x, y| (x + 4 * y) as f32);
        assert_eq!(&tall.data()[..16], a.data());
        assert_eq!(max_abs_diff(&a, &tall), f32::INFINITY);
        assert!(!bits_equal(&a, &tall));
        let mut nan = a.clone();
        nan.set(0, 0, f32::NAN);
        assert_eq!(max_abs_diff(&a, &nan), f32::INFINITY);
    }

    #[test]
    fn max_pick_never_gives_a_smaller_grid_than_median() {
        let pairs = paip_pairs(64, 5);
        let images = || pairs.iter().map(|(img, _)| img);
        let median = grid_side(images(), 64, 4, LenPick::Median);
        let max = grid_side(images(), 64, 4, LenPick::Max);
        assert!(median <= max && max < 64 / 4, "median {median}, max {max}");
        assert_eq!(grid_side(std::iter::empty(), 64, 4, LenPick::Max), 4);
    }

    #[test]
    fn power_law_fit_recovers_exponent_and_scale() {
        let pts: Vec<(f64, f64)> = [2.0f64, 4.0, 8.0].iter().map(|&x| (x, 3.0 * x * x)).collect();
        let (k, c) = fit_power_law(&pts);
        assert!((k - 2.0).abs() < 1e-12 && (c - 3f64.ln()).abs() < 1e-12, "{k} {c}");
    }
}
