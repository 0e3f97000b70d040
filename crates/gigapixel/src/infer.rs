//! Sliding-window whole-slide inference with weighted-blend stitching.
//!
//! A slide of side `Z` is segmented by running the ordinary APF pipeline
//! (blur -> Canny -> quadtree -> patchify -> ViT) on overlapping `W x W`
//! windows and blending the per-window logit maps into a tiled output
//! store. Each window's contribution is weighted by a separable ramp that
//! falls off linearly over the `halo` pixels nearest the window edge, so
//! seams are dominated by whichever window sees the pixel farthest from
//! its border. Because window positions form a grid, the total weight at a
//! pixel factorizes as `WX(x) * WY(y)` — two precomputed 1-D profiles —
//! which is what lets the accumulator hold a *single* weighted-logit plane
//! (a rolling band of rows, flushed to the output store as the window
//! frontier passes) instead of a logit plane plus a weight plane.
//!
//! Peak residency is therefore `O(W * Z)` for the band plus the tile-cache
//! budget, independent of `Z²`; the `soak --scenario slide` gate proves
//! this at 16K² against a budget that is 1/8 of the dense image bytes.
//!
//! [`SlideSegmenter::segment_dense`] runs the *same* windowed algorithm on
//! an in-memory image, performing the identical f32 additions in the
//! identical order — the stitched out-of-core output is bit-equal to it,
//! which the bench's 2K² cross-check exercises (gated at 1e-5).

use std::collections::BTreeMap;
use std::path::Path;

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_core::reconstruct_mask;
use apf_imaging::GrayImage;
use apf_models::vit::ViTSegmenter;
use apf_tensor::prelude::*;
use apf_telemetry::{Counter, Histogram, Telemetry};

use crate::cache::TileCache;
use crate::error::GigapixelError;
use crate::residency::{Residency, ResidencyCharge};
use crate::store::TileStoreWriter;

/// Stitched whole-slide inference parameters.
#[derive(Debug, Clone)]
pub struct StitchConfig {
    /// Window side `W` fed to the patcher (power of two).
    pub window: usize,
    /// Blend ramp length in pixels; adjacent windows overlap by `2 * halo`.
    pub halo: usize,
    /// Per-window APF pre-processing. `target_len` is forced to `seq_len`.
    pub patcher: PatcherConfig,
    /// Fixed token budget per window; must equal the model's `seq_len`.
    pub seq_len: usize,
    /// Tile side of the output logit store.
    pub out_tile: usize,
}

impl StitchConfig {
    /// A config for `window`-pixel windows with the paper's hyper-parameters
    /// at that resolution and a fixed `seq_len` token budget.
    pub fn for_window(window: usize, halo: usize, seq_len: usize) -> Self {
        let patcher = PatcherConfig::for_resolution(window)
            .with_patch_size(4)
            .with_target_len(seq_len);
        StitchConfig { window, halo, patcher, seq_len, out_tile: 512 }
    }

    /// Distance between window origins.
    pub fn stride(&self) -> usize {
        self.window - 2 * self.halo
    }
}

/// Outcome of one stitched drive.
#[derive(Debug, Clone)]
pub struct StitchReport {
    /// Windows inferred.
    pub windows: usize,
    /// Tokens pushed through the model (windows x seq_len).
    pub tokens: usize,
    /// Fraction of slide pixels with positive blended logit.
    pub positive_fraction: f64,
    /// Slide side length.
    pub resolution: usize,
}

/// Window origin positions along one axis: stride steps plus a final
/// window flush against the far edge.
pub(crate) fn window_positions(z: usize, w: usize, stride: usize) -> Vec<usize> {
    if w >= z {
        return vec![0];
    }
    let mut xs: Vec<usize> = (0..).map(|i| i * stride).take_while(|&x| x + w < z).collect();
    xs.push(z - w);
    xs
}

/// Per-window 1-D blend profile: linear ramp over `halo` pixels at each
/// edge, flat 1.0 in the middle, strictly positive everywhere.
pub(crate) fn blend_profile(w: usize, halo: usize) -> Vec<f32> {
    (0..w)
        .map(|i| {
            let edge = i.min(w - 1 - i);
            (((edge + 1) as f32) / ((halo + 1) as f32)).min(1.0)
        })
        .collect()
}

/// Total blend weight along one axis: the sum of every window's profile.
pub(crate) fn axis_weight(z: usize, positions: &[usize], profile: &[f32]) -> Vec<f32> {
    let mut wsum = vec![0.0f32; z];
    for &p in positions {
        for (i, &v) in profile.iter().enumerate() {
            wsum[p + i] += v;
        }
    }
    wsum
}

/// Abstracts "read a window" so the out-of-core drive and the in-memory
/// reference run the exact same stitching code.
trait RegionSource {
    fn resolution(&self) -> usize;
    fn read(&self, x: usize, y: usize, w: usize, h: usize) -> Result<GrayImage, GigapixelError>;
}

impl RegionSource for &TileCache {
    fn resolution(&self) -> usize {
        self.geometry().width
    }
    fn read(&self, x: usize, y: usize, w: usize, h: usize) -> Result<GrayImage, GigapixelError> {
        self.read_region(x, y, w, h)
    }
}

impl RegionSource for &GrayImage {
    fn resolution(&self) -> usize {
        self.width()
    }
    fn read(&self, x: usize, y: usize, w: usize, h: usize) -> Result<GrayImage, GigapixelError> {
        if x + w > self.width() || y + h > self.height() {
            return Err(GigapixelError::RegionOutOfBounds {
                x,
                y,
                w,
                h,
                width: self.width(),
                height: self.height(),
            });
        }
        Ok(self.crop(x, y, w, h))
    }
}

/// Rolling band of accumulator rows, allocated on first touch and flushed
/// once the window frontier passes them.
pub(crate) struct RowBand {
    pub(crate) z: usize,
    pub(crate) rows: BTreeMap<usize, Vec<f32>>,
    pub(crate) residency: Residency,
}

impl RowBand {
    pub(crate) fn new(z: usize, residency: Residency) -> Self {
        RowBand { z, rows: BTreeMap::new(), residency }
    }

    pub(crate) fn row_mut(&mut self, y: usize) -> &mut Vec<f32> {
        let z = self.z;
        let residency = &self.residency;
        self.rows.entry(y).or_insert_with(|| {
            residency.add(z * 4);
            vec![0.0f32; z]
        })
    }

    /// Removes and returns row `y` (zeros if it was never touched).
    pub(crate) fn take_row(&mut self, y: usize) -> Vec<f32> {
        match self.rows.remove(&y) {
            Some(r) => {
                self.residency.sub(self.z * 4);
                r
            }
            None => vec![0.0f32; self.z],
        }
    }
}

/// Adds one window's weighted logits into the band. Shared verbatim by the
/// serial drive and the distributed merge loop: identical f32 additions in
/// identical order is what makes the two outputs bit-equal.
pub(crate) fn blend_window(
    band: &mut RowBand,
    profile: &[f32],
    logits: &GrayImage,
    wx: usize,
    wy: usize,
    w: usize,
) {
    for dy in 0..w {
        let wrow = profile[dy];
        let row = band.row_mut(wy + dy);
        let lrow = &logits.data()[dy * w..(dy + 1) * w];
        for dx in 0..w {
            row[wx + dx] += wrow * profile[dx] * lrow[dx];
        }
    }
}

/// Removes row `y` from the band and normalizes it by the separable total
/// blend weight. Shared by the serial and distributed drives.
pub(crate) fn finalize_row(band: &mut RowBand, wsum: &[f32], y: usize) -> Vec<f32> {
    let mut row = band.take_row(y);
    let wy_f = wsum[y];
    for (x, v) in row.iter_mut().enumerate() {
        *v /= wsum[x] * wy_f;
    }
    row
}

/// Cuts finalized rows into the output container one tile row at a time:
/// stages `tile_size` rows (fewer at the bottom edge), then writes one tile
/// per column. Shared by the serial and distributed drives, so both write
/// the same bytes; a stitch checkpoint saves and restores its fields.
pub(crate) struct RowStager {
    pub(crate) writer: TileStoreWriter,
    /// Normalized rows emitted but not yet cut into tiles, each charged
    /// to the residency ledger.
    pub(crate) staged: Vec<Vec<f32>>,
    /// Slide row of `staged[0]`.
    pub(crate) first: usize,
    /// Output pixels written so far with a positive logit.
    pub(crate) positive: usize,
    residency: Residency,
}

impl RowStager {
    /// A stager with nothing staged.
    pub(crate) fn new(writer: TileStoreWriter, residency: Residency) -> Self {
        RowStager::resume(writer, Vec::new(), 0, 0, residency)
    }

    /// A stager continuing from checkpointed state; charges the restored
    /// rows.
    pub(crate) fn resume(
        writer: TileStoreWriter,
        staged: Vec<Vec<f32>>,
        first: usize,
        positive: usize,
        residency: Residency,
    ) -> Self {
        residency.add(staged.len() * writer.geometry().width * 4);
        RowStager { writer, staged, first, positive, residency }
    }

    /// Stages row `y` (rows arrive in increasing order), writing the tile
    /// row once it is complete.
    pub(crate) fn push(&mut self, y: usize, row: Vec<f32>) -> Result<(), GigapixelError> {
        let geom = self.writer.geometry();
        let (z, t) = (geom.width, geom.tile_size);
        if self.staged.is_empty() {
            self.first = y;
        }
        self.residency.add(z * 4);
        self.staged.push(row);
        if self.staged.len() == t || y + 1 == geom.height {
            let ty = (self.first / t) as u32;
            for tx in 0..geom.tiles_x() {
                let (tw, _) = geom.tile_dims(tx, ty);
                let x0 = tx as usize * t;
                let mut tile = Vec::with_capacity(tw * self.staged.len());
                for row in &self.staged {
                    tile.extend_from_slice(&row[x0..x0 + tw]);
                }
                self.positive += tile.iter().filter(|&&v| v > 0.0).count();
                self.writer.write_tile(tx, ty, &tile)?;
            }
            self.residency.sub(self.staged.len() * z * 4);
            self.staged.clear();
        }
        Ok(())
    }
}

/// Drives stitched whole-slide inference with a borrowed model.
pub struct SlideSegmenter<'m> {
    model: &'m ViTSegmenter,
    pub(crate) cfg: StitchConfig,
    pub(crate) tel: Telemetry,
    patcher: AdaptivePatcher,
    pub(crate) windows_total: Counter,
    pub(crate) window_s: Histogram,
}

impl<'m> SlideSegmenter<'m> {
    /// Builds a driver. `cfg.seq_len` must equal the model's sequence
    /// length; `cfg.window` must be a power of two with a positive stride.
    pub fn new(model: &'m ViTSegmenter, cfg: StitchConfig, tel: Telemetry) -> Self {
        assert!(cfg.window.is_power_of_two(), "window side must be a power of two");
        assert!(cfg.window > 2 * cfg.halo, "halo must leave a positive stride");
        assert!(cfg.out_tile > 0, "output tile side must be positive");
        let mut patcher_cfg = cfg.patcher.clone();
        patcher_cfg.target_len = Some(cfg.seq_len);
        SlideSegmenter {
            model,
            patcher: AdaptivePatcher::with_telemetry(patcher_cfg, tel.clone()),
            windows_total: tel.counter(
                "apf_gigapixel_windows_total",
                "Sliding windows inferred by the stitcher",
            ),
            window_s: tel.histogram(
                "apf_gigapixel_window_seconds",
                "Per-window read + patchify + forward + blend",
            ),
            cfg,
            tel,
        }
    }

    /// The stitch configuration.
    pub fn config(&self) -> &StitchConfig {
        &self.cfg
    }

    /// Patchifies one window and returns its `W x W` logit map plus the
    /// token count pushed through the model.
    pub(crate) fn infer_window(&self, img: &GrayImage, wx: usize, wy: usize) -> Result<(GrayImage, usize), GigapixelError> {
        let seq = self.patcher.try_patchify(img)?;
        let l = seq.len();
        debug_assert_eq!(l, self.cfg.seq_len);
        let d = self.cfg.patcher.patch_size * self.cfg.patcher.patch_size;
        let tokens = seq.to_tensor().reshape([1, l, d]);
        let mut g = Graph::new();
        let bp = self.model.params.bind(&mut g);
        let x = g.constant(tokens);
        let y = self.model.forward(&mut g, &bp, x);
        let out = g.value(y);
        if out.has_non_finite() {
            return Err(GigapixelError::NonFiniteLogits { window_x: wx, window_y: wy });
        }
        Ok((reconstruct_mask(&seq, out), l))
    }

    /// Generic stitched drive: reads windows from `src`, blends weighted
    /// logits into a rolling row band, and hands finalized (normalized)
    /// rows to `emit` in strictly increasing row order.
    fn drive<S: RegionSource>(
        &self,
        src: S,
        residency: &Residency,
        cancel: &mut dyn FnMut() -> bool,
        emit: &mut dyn FnMut(usize, Vec<f32>) -> Result<(), GigapixelError>,
    ) -> Result<StitchReport, GigapixelError> {
        let z = src.resolution();
        let w = self.cfg.window;
        if z < w {
            return Err(GigapixelError::Unsupported {
                detail: format!("slide side {z} is smaller than the {w}-pixel window"),
            });
        }
        let positions = window_positions(z, w, self.cfg.stride());
        let profile = blend_profile(w, self.cfg.halo);
        let wsum = axis_weight(z, &positions, &profile);
        let windows_total = positions.len() * positions.len();

        let mut band = RowBand::new(z, residency.clone());
        let mut done = 0usize;
        let mut tokens = 0usize;
        let mut flushed = 0usize; // rows already emitted
        for (wyi, &wy) in positions.iter().enumerate() {
            for &wx in positions.iter() {
                if cancel() {
                    return Err(GigapixelError::Cancelled {
                        windows_done: done,
                        windows_total,
                    });
                }
                let _span = self.tel.span("gigapixel.window");
                let _t = self.window_s.start_timer();
                let img = src.read(wx, wy, w, w)?;
                let _charge = ResidencyCharge::new(residency, w * w * 4 * 2); // window + logits
                let (logits, l) = self.infer_window(&img, wx, wy)?;
                tokens += l;
                blend_window(&mut band, &profile, &logits, wx, wy, w);
                done += 1;
                self.windows_total.inc();
            }
            // Rows strictly above the next window row are final.
            let frontier = positions.get(wyi + 1).copied().unwrap_or(z + 1).min(z);
            while flushed < frontier {
                emit(flushed, finalize_row(&mut band, &wsum, flushed))?;
                flushed += 1;
            }
        }
        while flushed < z {
            emit(flushed, finalize_row(&mut band, &wsum, flushed))?;
            flushed += 1;
        }
        Ok(StitchReport { windows: done, tokens, positive_fraction: 0.0, resolution: z })
    }

    /// Segments the slide behind `cache` into a tiled logit store at
    /// `out_path`. `cancel` is polled between windows (serving deadlines).
    /// Returns the report; peak memory is visible on `residency`.
    pub fn segment_store(
        &self,
        cache: &TileCache,
        out_path: impl AsRef<Path>,
        residency: &Residency,
        mut cancel: impl FnMut() -> bool,
    ) -> Result<StitchReport, GigapixelError> {
        let _span = self.tel.span("gigapixel.segment");
        let z = cache.geometry().width;
        let t = self.cfg.out_tile;
        let mut rows = RowStager::new(TileStoreWriter::create(out_path, z, z, t)?, residency.clone());
        let report = self.drive(cache, residency, &mut cancel, &mut |y, row| rows.push(y, row))?;
        rows.writer.finish()?;
        Ok(StitchReport {
            positive_fraction: rows.positive as f64 / (z as f64 * z as f64),
            ..report
        })
    }

    /// The identical windowed algorithm over a dense in-memory image —
    /// the reference the out-of-core path is cross-checked against, and a
    /// convenient way to run stitched inference on images that do fit.
    pub fn segment_dense(&self, img: &GrayImage) -> Result<(GrayImage, StitchReport), GigapixelError> {
        let tel = Telemetry::disabled();
        let residency = Residency::new(&tel);
        let z = img.width();
        let mut plane = vec![0.0f32; z * img.height()];
        let mut positive = 0usize;
        let report = {
            let mut emit = |y: usize, row: Vec<f32>| -> Result<(), GigapixelError> {
                positive += row.iter().filter(|&&v| v > 0.0).count();
                plane[y * z..(y + 1) * z].copy_from_slice(&row);
                Ok(())
            };
            let mut cancel = || false;
            self.drive(img, &residency, &mut cancel, &mut emit)?
        };
        let out = GrayImage::from_raw(z, img.height(), plane);
        let pf = positive as f64 / (z as f64 * img.height() as f64);
        Ok((out, StitchReport { positive_fraction: pf, ..report }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::write_tiled;
    use crate::store::TileStore;
    use apf_models::vit::ViTConfig;
    use std::sync::Arc;

    fn slide_image(z: usize) -> GrayImage {
        GrayImage::from_fn(z, z, |x, y| {
            let cx = x as f32 - z as f32 / 2.0;
            let cy = y as f32 - z as f32 / 2.0;
            if (cx * cx + cy * cy).sqrt() < z as f32 / 3.0 {
                0.3 + 0.2 * (((x * 7 + y * 13) % 16) as f32 / 15.0)
            } else {
                0.95
            }
        })
    }

    fn cache_for(img: &GrayImage, tile: usize, name: &str, tel: &Telemetry) -> (TileCache, Residency) {
        let dir = std::env::temp_dir().join("apf_gigapixel_infer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_tiled(&path, img.width(), img.height(), tile, |_, _, x0, y0, w, h| {
            img.crop(x0, y0, w, h).into_data()
        })
        .unwrap();
        let res = Residency::new(tel);
        let store = Arc::new(TileStore::open(&path).unwrap());
        (TileCache::new(store, 8 * tile * tile * 4, tel.clone(), res.clone()), res)
    }

    fn tiny_model(seq_len: usize) -> ViTSegmenter {
        ViTSegmenter::new(ViTConfig::tiny(16, seq_len), 7)
    }

    #[test]
    fn window_positions_cover_and_clamp() {
        assert_eq!(window_positions(256, 256, 192), vec![0]);
        assert_eq!(window_positions(512, 256, 192), vec![0, 192, 256]);
        let xs = window_positions(1024, 256, 192);
        assert_eq!(*xs.last().unwrap(), 768);
        for w in xs.windows(2) {
            assert!(w[1] - w[0] <= 192);
        }
    }

    #[test]
    fn blend_weights_are_positive_everywhere() {
        let w = 64;
        let halo = 8;
        let positions = window_positions(256, w, w - 2 * halo);
        let wsum = axis_weight(256, &positions, &blend_profile(w, halo));
        assert!(wsum.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn stitched_store_matches_dense_reference_bitwise() {
        let z = 128;
        let img = slide_image(z);
        let tel = Telemetry::enabled();
        let (cache, res) = cache_for(&img, 32, "stitch.apt1", &tel);
        let model = tiny_model(48);
        let mut cfg = StitchConfig::for_window(64, 8, 48);
        cfg.out_tile = 32;
        let seg = SlideSegmenter::new(&model, cfg, tel.clone());

        let out_path = std::env::temp_dir().join("apf_gigapixel_infer_test/out.apt1");
        let report = seg.segment_store(&cache, &out_path, &res, || false).unwrap();
        let (dense, dense_report) = seg.segment_dense(&img).unwrap();
        assert_eq!(report.windows, 9); // positions [0, 48, 64] each axis
        assert_eq!(report.windows, dense_report.windows);
        assert_eq!(report.tokens, 9 * 48);
        assert!((report.positive_fraction - dense_report.positive_fraction).abs() < 1e-12);

        let out = TileStore::open(&out_path).unwrap();
        let g = out.geometry();
        for ty in 0..g.tiles_y() {
            for tx in 0..g.tiles_x() {
                let tile = out.read_tile(tx, ty).unwrap();
                let (tw, th) = g.tile_dims(tx, ty);
                let crop = dense.crop(tx as usize * 32, ty as usize * 32, tw, th);
                assert_eq!(&tile, crop.data(), "tile ({tx}, {ty})");
            }
        }
        // Telemetry saw the windows (9 stitched + 9 from the dense drive).
        let snap = tel.snapshot();
        assert_eq!(snap.get("apf_gigapixel_windows_total", &[]).unwrap().value, 18.0);
        // All transient residency was released.
        assert_eq!(res.current(), cache.resident_bytes());
        assert!(res.peak() > 0);
    }

    #[test]
    fn single_window_slide_equals_direct_inference() {
        // When the window covers the whole slide there is one window with
        // weight 1 everywhere: stitched output == plain patchify+forward+
        // reconstruct, i.e. the existing full-image path.
        let z = 64;
        let img = slide_image(z);
        let tel = Telemetry::disabled();
        let (cache, res) = cache_for(&img, 32, "single.apt1", &tel);
        let model = tiny_model(32);
        let mut cfg = StitchConfig::for_window(64, 8, 32);
        cfg.out_tile = 64;
        let seg = SlideSegmenter::new(&model, cfg.clone(), tel.clone());
        let out_path = std::env::temp_dir().join("apf_gigapixel_infer_test/single_out.apt1");
        seg.segment_store(&cache, &out_path, &res, || false).unwrap();

        let patcher_cfg = cfg.patcher.clone().with_target_len(32);
        let patcher = AdaptivePatcher::new(patcher_cfg);
        let seq = patcher.try_patchify(&img).unwrap();
        let tokens = seq.to_tensor().reshape([1, 32, 16]);
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(tokens);
        let y = model.forward(&mut g, &bp, x);
        let direct = reconstruct_mask(&seq, g.value(y));

        let out = TileStore::open(&out_path).unwrap();
        let tile = out.read_tile(0, 0).unwrap();
        let max_diff = tile
            .iter()
            .zip(direct.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff <= 1e-5, "stitched vs full-image diff {max_diff}");
    }

    #[test]
    fn cancellation_between_windows_is_typed() {
        let z = 128;
        let img = slide_image(z);
        let tel = Telemetry::disabled();
        let (cache, res) = cache_for(&img, 32, "cancel.apt1", &tel);
        let model = tiny_model(32);
        let seg = SlideSegmenter::new(&model, StitchConfig::for_window(64, 8, 32), tel);
        let out_path = std::env::temp_dir().join("apf_gigapixel_infer_test/cancel_out.apt1");
        let mut calls = 0;
        let r = seg.segment_store(&cache, &out_path, &res, || {
            calls += 1;
            calls > 3
        });
        match r {
            Err(GigapixelError::Cancelled { windows_done: 3, windows_total: 9 }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The aborted drive must not leave a final output file behind.
        assert!(!out_path.exists());
    }
}
