//! The Adaptive Patch Framework pipeline (Algorithm 1, lines 3-6):
//! Gaussian blur -> Canny edges -> quadtree -> Z-order patch extraction ->
//! optional pad/drop to a fixed sequence length.

use std::time::Instant;

use apf_imaging::canny::{canny, CannyConfig};
use apf_imaging::filter::gaussian_blur;
use apf_imaging::image::GrayImage;
use apf_telemetry::{Gauge, Histogram, Telemetry};
use serde::{Deserialize, Serialize};

use crate::error::PatchError;
use crate::patchify::{extract_patches, PatchSequence};
use crate::quadtree::{QuadTree, QuadTreeConfig, SplitCriterion};

/// The paper's per-resolution hyper-parameter table (§III-A and §IV-B):
/// resolutions, Gaussian kernel sizes, and quadtree depth limits.
pub const PAPER_RESOLUTIONS: [usize; 7] = [512, 1024, 4096, 8192, 16384, 32768, 65536];
/// Gaussian kernel size per [`PAPER_RESOLUTIONS`] entry.
pub const PAPER_KERNELS: [usize; 7] = [3, 3, 5, 7, 9, 11, 13];
/// Quadtree depth limit `H` per [`PAPER_RESOLUTIONS`] entry.
pub const PAPER_DEPTHS: [u8; 7] = [9, 10, 12, 13, 14, 15, 16];

/// Full configuration of the APF pre-processing pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatcherConfig {
    /// Gaussian blur kernel size `k` (odd; paper uses 3-13 by resolution).
    pub kernel: usize,
    /// Gaussian sigma; 0 derives it from `k` (the paper's `sigma = 0`).
    pub sigma: f32,
    /// Canny hysteresis thresholds (paper: `[100, 200]`).
    pub canny: CannyConfig,
    /// Quadtree split rule, depth limit, and minimum leaf.
    pub quadtree: QuadTreeConfig,
    /// Minimal patch size `P_m` every leaf is projected to.
    pub patch_size: usize,
    /// If set, pad/drop the sequence to exactly this length `L`.
    pub target_len: Option<usize>,
    /// Seed for the random drop in [`PatchSequence::fixed_length`].
    pub drop_seed: u64,
}

impl PatcherConfig {
    /// The paper's hyper-parameters for a given resolution (nearest table
    /// entry at or below `resolution`), with `P_m = 4` and no fixed length.
    pub fn for_resolution(resolution: usize) -> Self {
        let idx = PAPER_RESOLUTIONS
            .iter()
            .rposition(|&r| r <= resolution)
            .unwrap_or(0);
        PatcherConfig {
            kernel: PAPER_KERNELS[idx],
            sigma: 0.0,
            canny: CannyConfig::default(),
            quadtree: QuadTreeConfig {
                criterion: SplitCriterion::EdgeCount { split_value: 100.0 },
                max_depth: PAPER_DEPTHS[idx],
                min_leaf: 2,
            },
            patch_size: 4,
            target_len: None,
            drop_seed: 0,
        }
    }

    /// Sets the projected patch size `P_m`.
    pub fn with_patch_size(mut self, pm: usize) -> Self {
        self.patch_size = pm;
        self
    }

    /// Sets the fixed sequence length `L`.
    pub fn with_target_len(mut self, len: usize) -> Self {
        self.target_len = Some(len);
        self
    }

    /// Sets the quadtree split value `v`.
    pub fn with_split_value(mut self, v: f64) -> Self {
        self.quadtree.criterion = SplitCriterion::EdgeCount { split_value: v };
        self
    }
}

/// Wall-clock breakdown of one pre-processing run (overhead experiment,
/// §IV-G.3).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PreprocessTiming {
    /// Gaussian blur seconds.
    pub blur_s: f64,
    /// Canny seconds.
    pub canny_s: f64,
    /// Quadtree build seconds.
    pub quadtree_s: f64,
    /// Patch projection seconds.
    pub extract_s: f64,
}

impl PreprocessTiming {
    /// Total pre-processing seconds.
    pub fn total_s(&self) -> f64 {
        self.blur_s + self.canny_s + self.quadtree_s + self.extract_s
    }
}

/// Telemetry handles for the pre-processing hot path. All handles are inert
/// (one branch per use) when the patcher was built without telemetry.
#[derive(Clone, Default)]
struct CoreMetrics {
    tel: Telemetry,
    stage_blur_s: Histogram,
    stage_canny_s: Histogram,
    stage_quadtree_s: Histogram,
    stage_extract_s: Histogram,
    tree_leaves: Histogram,
    tree_depth: Histogram,
    seq_len_pre: Histogram,
    seq_len_post: Histogram,
    last_leaves: Gauge,
    last_max_depth: Gauge,
    last_avg_patch: Gauge,
    last_min_leaf: Gauge,
    last_max_leaf: Gauge,
}

impl CoreMetrics {
    fn new(tel: Telemetry) -> Self {
        let stage = |s: String| vec![("stage", s)];
        CoreMetrics {
            stage_blur_s: tel.histogram_with(
                "apf_core_patchify_stage_seconds",
                stage("blur".to_string()),
                "Per-stage pre-processing time",
            ),
            stage_canny_s: tel.histogram_with(
                "apf_core_patchify_stage_seconds",
                stage("canny".to_string()),
                "Per-stage pre-processing time",
            ),
            stage_quadtree_s: tel.histogram_with(
                "apf_core_patchify_stage_seconds",
                stage("quadtree".to_string()),
                "Per-stage pre-processing time",
            ),
            stage_extract_s: tel.histogram_with(
                "apf_core_patchify_stage_seconds",
                stage("extract".to_string()),
                "Per-stage pre-processing time",
            ),
            tree_leaves: tel.histogram(
                "apf_core_tree_leaf_count",
                "Quadtree leaf count (adaptive sequence length) per build",
            ),
            tree_depth: tel.histogram(
                "apf_core_tree_max_depth_levels",
                "Deepest subdivision level reached per build",
            ),
            seq_len_pre: tel.histogram(
                "apf_core_sequence_len_pre_tokens",
                "Sequence length before pad/drop",
            ),
            seq_len_post: tel.histogram(
                "apf_core_sequence_len_post_tokens",
                "Sequence length after pad/drop",
            ),
            last_leaves: tel.gauge(
                "apf_core_last_tree_leaf_count",
                "Leaf count of the most recent quadtree build",
            ),
            last_max_depth: tel.gauge(
                "apf_core_last_tree_max_depth_levels",
                "Max depth of the most recent quadtree build",
            ),
            last_avg_patch: tel.gauge(
                "apf_core_last_tree_avg_patch_pixels",
                "Mean leaf side of the most recent quadtree build",
            ),
            last_min_leaf: tel.gauge(
                "apf_core_last_tree_min_leaf_pixels",
                "Smallest leaf side of the most recent quadtree build",
            ),
            last_max_leaf: tel.gauge(
                "apf_core_last_tree_max_leaf_pixels",
                "Largest leaf side of the most recent quadtree build",
            ),
            tel,
        }
    }

    /// Publishes the build-time statistics stored on a tree.
    fn observe_tree(&self, tree: &QuadTree) {
        self.tree_leaves.record(tree.stats.leaf_count as f64);
        self.tree_depth.record(tree.max_depth_reached as f64);
        self.last_leaves.set(tree.stats.leaf_count as f64);
        self.last_max_depth.set(tree.max_depth_reached as f64);
        self.last_avg_patch.set(tree.stats.average_patch_size);
        self.last_min_leaf.set(tree.stats.min_leaf_size as f64);
        self.last_max_leaf.set(tree.stats.max_leaf_size as f64);
    }
}

/// The APF pre-processor: turns images into mixed-scale patch sequences.
///
/// Stateless and cheap to clone; one instance can serve a whole dataset.
#[derive(Clone)]
pub struct AdaptivePatcher {
    cfg: PatcherConfig,
    metrics: CoreMetrics,
}

impl std::fmt::Debug for AdaptivePatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePatcher")
            .field("cfg", &self.cfg)
            .field("telemetry", &self.metrics.tel)
            .finish()
    }
}

impl AdaptivePatcher {
    /// Creates a patcher from a configuration, without telemetry.
    pub fn new(cfg: PatcherConfig) -> Self {
        Self::with_telemetry(cfg, Telemetry::disabled())
    }

    /// Creates a patcher whose stage timings, tree statistics, and sequence
    /// lengths are recorded into `tel` (inert if `tel` is disabled).
    pub fn with_telemetry(cfg: PatcherConfig, tel: Telemetry) -> Self {
        assert!(cfg.kernel % 2 == 1, "blur kernel must be odd");
        assert!(cfg.patch_size >= 1);
        AdaptivePatcher { cfg, metrics: CoreMetrics::new(tel) }
    }

    /// The patcher's configuration.
    pub fn config(&self) -> &PatcherConfig {
        &self.cfg
    }

    /// Runs blur -> Canny -> quadtree and returns the tree (no patch
    /// extraction). Useful for statistics-only passes (Fig. 3, Table II
    /// sequence lengths).
    ///
    /// # Panics
    /// Panics on input [`AdaptivePatcher::try_tree`] rejects.
    pub fn tree(&self, img: &GrayImage) -> QuadTree {
        self.try_tree(img)
            .unwrap_or_else(|e| panic!("adaptive patching failed: {e}"))
    }

    /// Fallible blur -> Canny -> quadtree. Validates the *input* image
    /// (geometry and finiteness) before any processing, so malformed
    /// requests become a typed [`PatchError`] instead of a panic deep in
    /// the blur, Canny, or tree-build stages.
    pub fn try_tree(&self, img: &GrayImage) -> Result<QuadTree, PatchError> {
        Self::validate_input(img, &self.cfg.quadtree)?;
        let blurred = {
            let _span = self.metrics.tel.span("core.blur");
            let _t = self.metrics.stage_blur_s.start_timer();
            gaussian_blur(img, self.cfg.kernel, self.cfg.sigma)
        };
        let edges = {
            let _span = self.metrics.tel.span("core.canny");
            let _t = self.metrics.stage_canny_s.start_timer();
            canny(&blurred, self.cfg.canny)
        };
        let tree = {
            let _span = self.metrics.tel.span("core.quadtree");
            let _t = self.metrics.stage_quadtree_s.start_timer();
            QuadTree::try_build(&edges, &self.cfg.quadtree)?
        };
        self.metrics.observe_tree(&tree);
        Ok(tree)
    }

    /// The geometry/finiteness preconditions [`AdaptivePatcher::try_tree`]
    /// enforces, exposed so admission control can reject a request before
    /// paying for blur and Canny.
    pub fn validate_input(img: &GrayImage, cfg: &QuadTreeConfig) -> Result<(), PatchError> {
        QuadTree::validate_geometry(img.width(), img.height(), cfg)?;
        img.validate_finite().map_err(PatchError::from)
    }

    /// Full Algorithm-1 pre-processing of one image.
    ///
    /// # Panics
    /// Panics on input [`AdaptivePatcher::try_patchify`] rejects.
    pub fn patchify(&self, img: &GrayImage) -> PatchSequence {
        self.try_patchify(img)
            .unwrap_or_else(|e| panic!("adaptive patching failed: {e}"))
    }

    /// Fallible Algorithm-1 pre-processing: typed rejection instead of a
    /// panic on malformed images.
    pub fn try_patchify(&self, img: &GrayImage) -> Result<PatchSequence, PatchError> {
        let _span = self.metrics.tel.span("core.patchify");
        let tree = self.try_tree(img)?;
        let seq = {
            let _span = self.metrics.tel.span("core.extract");
            let _t = self.metrics.stage_extract_s.start_timer();
            extract_patches(img, &tree.leaves, self.cfg.patch_size)
        };
        self.metrics.seq_len_pre.record(seq.len() as f64);
        let seq = match self.cfg.target_len {
            Some(len) => seq.fixed_length(len, self.cfg.drop_seed),
            None => seq,
        };
        self.metrics.seq_len_post.record(seq.len() as f64);
        Ok(seq)
    }

    /// Pre-processes an image together with its ground-truth mask: both are
    /// patched over the *same* leaves, so token `i` of the image sequence
    /// aligns with token `i` of the mask sequence.
    pub fn patchify_with_mask(&self, img: &GrayImage, mask: &GrayImage) -> (PatchSequence, PatchSequence) {
        assert_eq!(img.width(), mask.width());
        assert_eq!(img.height(), mask.height());
        let tree = self.tree(img);
        let xs = extract_patches(img, &tree.leaves, self.cfg.patch_size);
        let ys = extract_patches(mask, &tree.leaves, self.cfg.patch_size);
        match self.cfg.target_len {
            Some(len) => (
                xs.fixed_length(len, self.cfg.drop_seed),
                ys.fixed_length(len, self.cfg.drop_seed),
            ),
            None => (xs, ys),
        }
    }

    /// Like [`AdaptivePatcher::patchify_with_mask`] but samples the mask
    /// with nearest-neighbour projection, preserving integer class labels
    /// (multi-class segmentation, e.g. BTCV organ maps).
    pub fn patchify_with_labels(&self, img: &GrayImage, labels: &GrayImage) -> (PatchSequence, PatchSequence) {
        assert_eq!(img.width(), labels.width());
        assert_eq!(img.height(), labels.height());
        let tree = self.tree(img);
        let xs = extract_patches(img, &tree.leaves, self.cfg.patch_size);
        let ys = crate::patchify::extract_patches_nearest(labels, &tree.leaves, self.cfg.patch_size);
        match self.cfg.target_len {
            Some(len) => (
                xs.fixed_length(len, self.cfg.drop_seed),
                ys.fixed_length(len, self.cfg.drop_seed),
            ),
            None => (xs, ys),
        }
    }

    /// Like [`AdaptivePatcher::patchify`] but returns a stage-by-stage
    /// wall-clock breakdown (the paper's overhead experiment).
    pub fn timed_patchify(&self, img: &GrayImage) -> (PatchSequence, PreprocessTiming) {
        let _span = self.metrics.tel.span("core.patchify");
        let mut t = PreprocessTiming::default();
        let t0 = Instant::now();
        let blurred = gaussian_blur(img, self.cfg.kernel, self.cfg.sigma);
        t.blur_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let edges = canny(&blurred, self.cfg.canny);
        t.canny_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let tree = QuadTree::build(&edges, &self.cfg.quadtree);
        t.quadtree_s = t2.elapsed().as_secs_f64();
        self.metrics.observe_tree(&tree);

        let t3 = Instant::now();
        let seq = extract_patches(img, &tree.leaves, self.cfg.patch_size);
        self.metrics.seq_len_pre.record(seq.len() as f64);
        let seq = match self.cfg.target_len {
            Some(len) => seq.fixed_length(len, self.cfg.drop_seed),
            None => seq,
        };
        t.extract_s = t3.elapsed().as_secs_f64();
        self.metrics.seq_len_post.record(seq.len() as f64);

        // The same wall-clock figures flow into the registry histograms, so
        // timed and untimed paths report through one substrate.
        self.metrics.stage_blur_s.record(t.blur_s);
        self.metrics.stage_canny_s.record(t.canny_s);
        self.metrics.stage_quadtree_s.record(t.quadtree_s);
        self.metrics.stage_extract_s.record(t.extract_s);
        (seq, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_imaging::paip::{PaipConfig, PaipGenerator};

    #[test]
    fn paper_hyperparameters_lookup() {
        let c = PatcherConfig::for_resolution(512);
        assert_eq!(c.kernel, 3);
        assert_eq!(c.quadtree.max_depth, 9);
        let c = PatcherConfig::for_resolution(4096);
        assert_eq!(c.kernel, 5);
        assert_eq!(c.quadtree.max_depth, 12);
        let c = PatcherConfig::for_resolution(65536);
        assert_eq!(c.kernel, 13);
        assert_eq!(c.quadtree.max_depth, 16);
        // In-between resolutions round down.
        let c = PatcherConfig::for_resolution(2048);
        assert_eq!(c.kernel, 3);
    }

    #[test]
    fn apf_shortens_pathology_sequences() {
        // The headline property: far fewer patches than the uniform grid at
        // the same minimal patch size.
        let gen = PaipGenerator::new(PaipConfig::at_resolution(256));
        let sample = gen.generate(0);
        let patcher = AdaptivePatcher::new(
            PatcherConfig::for_resolution(256).with_patch_size(4),
        );
        let seq = patcher.patchify(&sample.image);
        let uniform = (256 / 4) * (256 / 4);
        assert!(
            seq.len() * 2 < uniform,
            "APF {} vs uniform {}",
            seq.len(),
            uniform
        );
    }

    #[test]
    fn mask_sequence_aligns_with_image_sequence() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(128));
        let s = gen.generate(1);
        let patcher = AdaptivePatcher::new(
            PatcherConfig::for_resolution(128)
                .with_patch_size(4)
                .with_target_len(128),
        );
        let (xs, ys) = patcher.patchify_with_mask(&s.image, &s.mask);
        assert_eq!(xs.len(), 128);
        assert_eq!(ys.len(), 128);
        for (a, b) in xs.patches.iter().zip(ys.patches.iter()) {
            assert_eq!(a.region, b.region);
        }
    }

    #[test]
    fn timed_patchify_reports_positive_times() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(128));
        let s = gen.generate(2);
        let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(128));
        let (seq, timing) = patcher.timed_patchify(&s.image);
        assert!(!seq.is_empty());
        assert!(timing.total_s() > 0.0);
        assert!(timing.total_s() < 60.0);
    }

    #[test]
    fn try_patchify_rejects_bad_inputs_and_accepts_good_ones() {
        let patcher = AdaptivePatcher::new(PatcherConfig::for_resolution(128));
        // Non-square.
        let err = patcher.try_patchify(&GrayImage::new(64, 32)).unwrap_err();
        assert_eq!(err, crate::error::PatchError::NotSquare { width: 64, height: 32 });
        // NaN pixel.
        let mut nan = GrayImage::new(64, 64);
        nan.set(1, 2, f32::NAN);
        assert!(matches!(
            patcher.try_patchify(&nan).unwrap_err(),
            crate::error::PatchError::NonFinitePixel { x: 1, y: 2, .. }
        ));
        // Valid input round-trips identically to the panicking path.
        let gen = PaipGenerator::new(PaipConfig::at_resolution(128));
        let s = gen.generate(4);
        let a = patcher.patchify(&s.image);
        let b = patcher.try_patchify(&s.image).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn telemetry_records_stages_tree_stats_and_seq_lengths() {
        let gen = PaipGenerator::new(PaipConfig::at_resolution(128));
        let s = gen.generate(5);
        let tel = Telemetry::enabled();
        let patcher = AdaptivePatcher::with_telemetry(
            PatcherConfig::for_resolution(128).with_target_len(64),
            tel.clone(),
        );
        let seq = patcher.try_patchify(&s.image).unwrap();
        assert_eq!(seq.len(), 64);

        let snap = tel.snapshot();
        for stage in ["blur", "canny", "quadtree", "extract"] {
            let m = snap
                .get("apf_core_patchify_stage_seconds", &[("stage", stage)])
                .unwrap_or_else(|| panic!("missing stage {stage}"));
            assert_eq!(m.histogram.as_ref().unwrap().count, 1, "{stage}");
        }
        let tree = patcher.tree(&s.image);
        let leaves = snap.get("apf_core_last_tree_leaf_count", &[]).unwrap();
        assert_eq!(leaves.value, tree.stats.leaf_count as f64);
        let post = snap.get("apf_core_sequence_len_post_tokens", &[]).unwrap();
        assert_eq!(post.histogram.as_ref().unwrap().max, 64.0);

        // Span tree: core.patchify wraps the stage spans.
        let names: Vec<&str> = tel.trace_events().iter().map(|e| e.name).collect();
        for n in ["core.patchify", "core.blur", "core.canny", "core.quadtree", "core.extract"] {
            assert!(names.contains(&n), "missing span {n} in {names:?}");
        }
        // Disabled telemetry records nothing and changes nothing.
        let plain = AdaptivePatcher::new(PatcherConfig::for_resolution(128).with_target_len(64));
        assert_eq!(plain.try_patchify(&s.image).unwrap().len(), 64);
    }

    #[test]
    fn split_value_sweep_monotone_on_real_texture() {
        // Fig. 3's driver property on a generated pathology slide.
        let gen = PaipGenerator::new(PaipConfig::at_resolution(256));
        let s = gen.generate(3);
        let mut lens = Vec::new();
        for v in [20.0, 50.0, 100.0] {
            let p = AdaptivePatcher::new(
                PatcherConfig::for_resolution(256).with_split_value(v),
            );
            lens.push(p.tree(&s.image).len());
        }
        assert!(lens[0] >= lens[1] && lens[1] >= lens[2], "{:?}", lens);
        assert!(lens[0] > lens[2], "{:?}", lens);
    }
}
