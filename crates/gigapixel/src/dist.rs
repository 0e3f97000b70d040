//! Distributed, crash-safe stitched whole-slide inference.
//!
//! [`SlideSegmenter::segment_store_distributed`] shards the sliding-window
//! schedule of the serial drive across a pool of stitch workers running on
//! the distsim work-stealing fabric ([`apf_distsim::fabric`]): each worker
//! reads windows through the shared [`TileCache`], runs per-window
//! inference independently, and sends its logit map to the merge loop,
//! which blends completed windows into the rolling accumulator band **in
//! strict row-major window order**. Per-window inference is a pure
//! function of the window pixels (deterministic kernels, fixed
//! accumulation order), and the band only ever sees the same f32
//! additions in the same order as the serial drive — so the distributed
//! output is bit-identical to [`SlideSegmenter::segment_store`] no matter
//! how windows were scheduled, stolen, or re-run after a worker death.
//!
//! Crash safety: with a checkpoint path configured, the merge loop
//! periodically persists its stitch progress — merged-window count, the
//! live accumulator band, staged (normalized, not yet tiled) rows, and
//! the output store's durable tile high-water mark with per-tile CRCs —
//! through the APF2 checkpoint machinery (per-tensor CRC32, whole-file
//! trailer CRC, atomic temp+rename, primary/`.prev` rotation). A kill at
//! window `k` resumes from the last checkpoint, re-runs only the windows
//! merged since, and produces a byte-identical output container; a
//! corrupt primary checkpoint falls back to `.prev`, and a corrupt or
//! missing partial output falls back to a fresh start — never a panic,
//! never a silently corrupt store.

use std::collections::BTreeMap;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use apf_distsim::fabric::{
    install_quiet_fabric_panics, FabricFaultKind, Next, StealScheduler, FABRIC_THREAD_PREFIX,
};
use apf_core::fault::FaultPlan;
use apf_imaging::GrayImage;
use apf_models::checkpoint::{load_with_state, save_with_state, TrainState};
use apf_models::ParamSet;
use apf_telemetry::{current_trace_id, TraceContext};
use apf_tensor::prelude::*;

use crate::cache::TileCache;
use crate::error::GigapixelError;
use crate::infer::{
    axis_weight, blend_profile, blend_window, finalize_row, window_positions, RowBand,
    RowStager, SlideSegmenter, StitchReport,
};
use crate::residency::{Residency, ResidencyCharge};
use crate::store::TileStoreWriter;

/// Stitch-checkpoint schema version (bumped on layout changes).
const STITCH_SCHEMA: u64 = 1;

/// Options for [`SlideSegmenter::segment_store_distributed`].
#[derive(Debug, Clone)]
pub struct DistStitchOptions {
    /// Stitch worker threads (>= 1).
    pub workers: usize,
    /// Where stitch progress is checkpointed; `None` disables crash
    /// safety (a failed drive restarts from scratch).
    pub checkpoint_path: Option<PathBuf>,
    /// Merged windows between checkpoints (0 = only on cancellation).
    pub checkpoint_every: usize,
    /// Resume from `checkpoint_path` if a valid checkpoint (or its
    /// `.prev` rotation) and partial output are found.
    pub resume: bool,
    /// Injected stitch-worker panics and stragglers, keyed
    /// `(worker, nth-window-started)`.
    pub faults: FaultPlan<FabricFaultKind>,
    /// Crash the nth checkpoint write (0-based) this run: the primary is
    /// left torn on disk after rotation, simulating a non-atomic
    /// filesystem, and the drive dies with a typed error.
    pub checkpoint_crash_at: Option<u64>,
    /// Kill the drive abruptly after this many windows merged this run
    /// (no parting checkpoint — resume replays from the last periodic one).
    pub kill_after_windows: Option<usize>,
    /// Merge-loop poll interval: how often cancellation is re-checked
    /// while no window completion arrives (a stalled worker must not
    /// stall the deadline).
    pub poll: Duration,
}

impl DistStitchOptions {
    /// Defaults for `workers` workers: checkpoint every 8 windows once a
    /// path is set, no resume, no faults, 25 ms cancellation poll.
    pub fn new(workers: usize) -> Self {
        DistStitchOptions {
            workers,
            checkpoint_path: None,
            checkpoint_every: 8,
            resume: false,
            faults: FaultPlan::none(),
            checkpoint_crash_at: None,
            kill_after_windows: None,
            poll: Duration::from_millis(25),
        }
    }

    /// Sets the checkpoint path (builder style).
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }
}

/// Outcome of one distributed stitched drive.
#[derive(Debug, Clone)]
pub struct DistStitchReport {
    /// The stitch totals (windows/tokens include any resumed prefix).
    pub stitch: StitchReport,
    /// Worker threads used.
    pub workers: usize,
    /// Windows stolen across workers.
    pub steals: u64,
    /// Workers lost to contained panics.
    pub worker_panics: u64,
    /// Merged-window count the drive resumed from (`None` = fresh run).
    pub resumed_at: Option<usize>,
    /// Checkpoints written this run.
    pub checkpoints_written: u64,
    /// Total checkpoint bytes written this run.
    pub checkpoint_bytes: u64,
    /// Per-window `(worker, seconds)` for windows inferred this run, in
    /// merge order — the cost samples the scaling bench calibrates on.
    pub window_seconds: Vec<(usize, f64)>,
}

/// Public summary of a stitch checkpoint, for inspection and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StitchCheckpointInfo {
    /// Windows merged when the checkpoint was taken.
    pub merged: usize,
    /// Accumulator rows already emitted (normalized + staged or tiled).
    pub flushed: usize,
    /// Output tiles durably written.
    pub tiles_written: usize,
    /// Slide side length.
    pub resolution: usize,
}

/// Parses a stitch checkpoint and returns its progress summary. Any
/// corruption — truncation, bit flips, bad magic — surfaces as a typed
/// [`GigapixelError::Checkpoint`]; a valid APF2 file that is not a stitch
/// checkpoint surfaces as [`GigapixelError::Unsupported`]. Never panics.
pub fn load_stitch_checkpoint(path: impl AsRef<Path>) -> Result<StitchCheckpointInfo, GigapixelError> {
    let mut params = ParamSet::new();
    let state = load_with_state(&mut params, path.as_ref())?;
    let snap = StitchSnapshot::from_state(&state)?;
    Ok(StitchCheckpointInfo {
        merged: snap.merged,
        flushed: snap.flushed,
        tiles_written: snap.tile_crcs.len(),
        resolution: snap.fingerprint.z as usize,
    })
}

/// Geometry + schedule identity a checkpoint must match to be resumable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    z: u64,
    window: u64,
    halo: u64,
    seq_len: u64,
    out_tile: u64,
}

impl Fingerprint {
    fn check(&self, required: &Fingerprint) -> Result<(), GigapixelError> {
        let fields = [
            ("z", self.z, required.z),
            ("window", self.window, required.window),
            ("halo", self.halo, required.halo),
            ("seq_len", self.seq_len, required.seq_len),
            ("out_tile", self.out_tile, required.out_tile),
        ];
        for (field, stored, req) in fields {
            if stored != req {
                return Err(GigapixelError::CheckpointMismatch { field, stored, required: req });
            }
        }
        Ok(())
    }
}

/// Everything the merge loop needs to continue from mid-drive.
struct StitchSnapshot {
    fingerprint: Fingerprint,
    merged: usize,
    flushed: usize,
    staged_first: usize,
    /// Normalized rows emitted but not yet cut into tiles.
    staged: Vec<Vec<f32>>,
    /// Live (pre-normalization) accumulator rows.
    band: Vec<(usize, Vec<f32>)>,
    /// CRCs of the durable row-major tile prefix in the output temp file.
    tile_crcs: Vec<u32>,
    tokens: usize,
    positive: usize,
    /// Trace id of the drive that wrote the checkpoint (0 = untraced);
    /// lets a resumed drive link its fresh trace back to the original.
    trace_id: u64,
}

fn missing(field: &str) -> GigapixelError {
    GigapixelError::Unsupported {
        detail: format!("APF2 file is not a stitch checkpoint: missing {field}"),
    }
}

impl StitchSnapshot {
    fn to_state(&self) -> TrainState {
        let fp = &self.fingerprint;
        let mut counters: Vec<(String, u64)> = vec![
            ("stitch.schema".into(), STITCH_SCHEMA),
            ("stitch.z".into(), fp.z),
            ("stitch.window".into(), fp.window),
            ("stitch.halo".into(), fp.halo),
            ("stitch.seq_len".into(), fp.seq_len),
            ("stitch.out_tile".into(), fp.out_tile),
            ("stitch.merged".into(), self.merged as u64),
            ("stitch.flushed".into(), self.flushed as u64),
            ("stitch.staged_first".into(), self.staged_first as u64),
            ("stitch.staged_rows".into(), self.staged.len() as u64),
            ("stitch.tiles_written".into(), self.tile_crcs.len() as u64),
            ("stitch.tokens".into(), self.tokens as u64),
            ("stitch.positive".into(), self.positive as u64),
            ("stitch.trace_id".into(), self.trace_id),
        ];
        for (i, &crc) in self.tile_crcs.iter().enumerate() {
            counters.push((format!("out.crc.{i}"), crc as u64));
        }
        let z = fp.z as usize;
        let mut aux: Vec<(String, Tensor)> = self
            .band
            .iter()
            .map(|(y, row)| (format!("band.{y}"), Tensor::new([z], row.clone())))
            .collect();
        if !self.staged.is_empty() {
            let mut flat = Vec::with_capacity(self.staged.len() * z);
            for row in &self.staged {
                flat.extend_from_slice(row);
            }
            aux.push(("staged".into(), Tensor::new([self.staged.len(), z], flat)));
        }
        TrainState { aux, counters, scalars: Vec::new() }
    }

    fn from_state(state: &TrainState) -> Result<StitchSnapshot, GigapixelError> {
        let get = |name: &str| state.counter(name).ok_or_else(|| missing(name));
        let schema = get("stitch.schema")?;
        if schema != STITCH_SCHEMA {
            return Err(GigapixelError::CheckpointMismatch {
                field: "schema",
                stored: schema,
                required: STITCH_SCHEMA,
            });
        }
        let fingerprint = Fingerprint {
            z: get("stitch.z")?,
            window: get("stitch.window")?,
            halo: get("stitch.halo")?,
            seq_len: get("stitch.seq_len")?,
            out_tile: get("stitch.out_tile")?,
        };
        let z = fingerprint.z as usize;
        let tiles_written = get("stitch.tiles_written")? as usize;
        let mut tile_crcs = Vec::with_capacity(tiles_written);
        for i in 0..tiles_written {
            tile_crcs.push(get(&format!("out.crc.{i}"))? as u32);
        }
        let staged_rows = get("stitch.staged_rows")? as usize;
        let staged: Vec<Vec<f32>> = if staged_rows > 0 {
            let t = state.tensor("staged").ok_or_else(|| missing("staged"))?;
            let flat = t.to_vec();
            if flat.len() != staged_rows * z {
                return Err(GigapixelError::Unsupported {
                    detail: format!(
                        "staged tensor holds {} values, expected {} rows of {}",
                        flat.len(),
                        staged_rows,
                        z
                    ),
                });
            }
            flat.chunks(z).map(|c| c.to_vec()).collect()
        } else {
            Vec::new()
        };
        let mut band: Vec<(usize, Vec<f32>)> = Vec::new();
        for (name, t) in &state.aux {
            if let Some(y) = name.strip_prefix("band.").and_then(|s| s.parse::<usize>().ok()) {
                let row = t.to_vec();
                if row.len() != z {
                    return Err(GigapixelError::Unsupported {
                        detail: format!("band row {y} holds {} values, expected {z}", row.len()),
                    });
                }
                band.push((y, row));
            }
        }
        band.sort_by_key(|(y, _)| *y);
        Ok(StitchSnapshot {
            fingerprint,
            merged: get("stitch.merged")? as usize,
            flushed: get("stitch.flushed")? as usize,
            staged_first: get("stitch.staged_first")? as usize,
            staged,
            band,
            tile_crcs,
            tokens: get("stitch.tokens")? as usize,
            positive: get("stitch.positive")? as usize,
            // Absent in pre-tracing checkpoints: treat as untraced.
            trace_id: state.counter("stitch.trace_id").unwrap_or(0),
        })
    }
}

/// `.prev` rotation slot next to a checkpoint path.
fn prev_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("stitch.apf2");
    path.with_file_name(format!("{name}.prev"))
}

/// Rotates the primary checkpoint to `.prev` and atomically writes a new
/// primary. Returns the bytes written.
fn rotate_and_save(path: &Path, state: &TrainState) -> Result<u64, GigapixelError> {
    if path.exists() {
        fs::rename(path, prev_path(path))
            .map_err(GigapixelError::io("rotating stitch checkpoint"))?;
    }
    save_with_state(&ParamSet::new(), state, path)
        .map_err(GigapixelError::io("writing stitch checkpoint"))?;
    Ok(fs::metadata(path).map(|m| m.len()).unwrap_or(0))
}

/// Loads a resumable snapshot: primary first, `.prev` on any primary
/// failure. `Ok(None)` means fresh start (no checkpoint on disk, or both
/// slots unusable — the latter counted by the caller's fallback metric).
fn load_snapshot(
    path: &Path,
    required: &Fingerprint,
) -> (Option<StitchSnapshot>, bool /* fell back or failed */) {
    let try_load = |p: &Path| -> Result<StitchSnapshot, GigapixelError> {
        let mut params = ParamSet::new();
        let state = load_with_state(&mut params, p)?;
        let snap = StitchSnapshot::from_state(&state)?;
        snap.fingerprint.check(required)?;
        Ok(snap)
    };
    match try_load(path) {
        Ok(snap) => (Some(snap), false),
        Err(_) => match try_load(&prev_path(path)) {
            Ok(snap) => (Some(snap), true),
            Err(_) => (None, path.exists() || prev_path(path).exists()),
        },
    }
}

/// A completed window traveling from a stitch worker to the merge loop.
struct WindowDone {
    k: usize,
    worker: usize,
    secs: f64,
    result: Result<(GrayImage, usize), GigapixelError>,
}

/// Mutable stitch progress owned by the merge loop.
struct Progress {
    band: RowBand,
    rows: RowStager,
    flushed: usize,
    merged: usize,
    tokens: usize,
}

impl Progress {
    /// Snapshot for checkpointing; `flush_to_disk` must already have run
    /// so `written_prefix_crcs` is a durable high-water mark.
    fn snapshot(&self, fp: Fingerprint) -> StitchSnapshot {
        StitchSnapshot {
            fingerprint: fp,
            merged: self.merged,
            flushed: self.flushed,
            staged_first: self.rows.first,
            staged: self.rows.staged.clone(),
            band: self.band.rows.iter().map(|(&y, r)| (y, r.clone())).collect(),
            tile_crcs: self.rows.writer.written_prefix_crcs(),
            tokens: self.tokens,
            positive: self.rows.positive,
            trace_id: current_trace_id(),
        }
    }
}

impl<'m> SlideSegmenter<'m> {
    /// Distributed variant of [`SlideSegmenter::segment_store`]: same
    /// output (bit-identical), windows inferred by `opts.workers`
    /// work-stealing workers, optional crash-safe checkpoints and resume.
    /// `cancel` is polled per *completed* window and at every
    /// `opts.poll` while waiting, so a stalled worker cannot outlive a
    /// deadline.
    pub fn segment_store_distributed(
        &self,
        cache: &TileCache,
        out_path: impl AsRef<Path>,
        residency: &Residency,
        opts: &DistStitchOptions,
        mut cancel: impl FnMut() -> bool,
    ) -> Result<DistStitchReport, GigapixelError> {
        assert!(opts.workers > 0, "distributed stitcher needs at least one worker");
        install_quiet_fabric_panics();
        let _span = self.tel.span("gigapixel.segment_distributed");
        let out_path = out_path.as_ref();
        let z = cache.geometry().width;
        let w = self.cfg.window;
        if z < w {
            return Err(GigapixelError::Unsupported {
                detail: format!("slide side {z} is smaller than the {w}-pixel window"),
            });
        }
        let positions = window_positions(z, w, self.cfg.stride());
        let profile = blend_profile(w, self.cfg.halo);
        let wsum = axis_weight(z, &positions, &profile);
        let n = positions.len();
        let windows_total = n * n;
        let t = self.cfg.out_tile;
        let fp = Fingerprint {
            z: z as u64,
            window: w as u64,
            halo: self.cfg.halo as u64,
            seq_len: self.cfg.seq_len as u64,
            out_tile: t as u64,
        };

        let steals_total = self
            .tel
            .counter("apf_gigapixel_windows_stolen_total", "Windows stolen across stitch workers");
        let panics_total = self.tel.counter(
            "apf_gigapixel_stitch_worker_panics_total",
            "Stitch workers lost to contained panics",
        );
        let resumes_total = self
            .tel
            .counter("apf_gigapixel_stitch_resumes_total", "Drives resumed from a checkpoint");
        let fallback_total = self.tel.counter(
            "apf_gigapixel_stitch_resume_fallback_total",
            "Resumes that fell back past an unusable checkpoint or partial output",
        );
        let ckpt_total = self
            .tel
            .counter("apf_gigapixel_stitch_checkpoints_total", "Stitch checkpoints written");
        let ckpt_bytes_total = self.tel.counter(
            "apf_gigapixel_stitch_checkpoint_bytes_total",
            "Bytes written to stitch checkpoints",
        );

        // ---- resume -------------------------------------------------------
        let mut resumed_at = None;
        let mut restored: Option<(StitchSnapshot, TileStoreWriter)> = None;
        if opts.resume {
            if let Some(ckpt) = opts.checkpoint_path.as_deref() {
                let (snap, fell_back) = load_snapshot(ckpt, &fp);
                if fell_back {
                    fallback_total.inc();
                }
                if let Some(snap) = snap {
                    match TileStoreWriter::resume_partial(out_path, z, z, t, &snap.tile_crcs) {
                        Ok(writer) => {
                            resumed_at = Some(snap.merged);
                            resumes_total.inc();
                            // Link this run's fresh trace back to the drive
                            // that wrote the checkpoint.
                            if snap.trace_id != 0 {
                                let (from, merged) = (snap.trace_id, snap.merged);
                                self.tel.annotate("gigapixel.resumed_from", Some(from), None);
                                self.tel.flight("stitch_resume", || {
                                    format!("from_trace={from:#x} merged={merged}")
                                });
                            }
                            restored = Some((snap, writer));
                        }
                        // Unusable partial output (missing temp file, torn
                        // or corrupt payload): restart from scratch rather
                        // than stitching onto bad bytes.
                        Err(_) => fallback_total.inc(),
                    }
                }
            }
        }
        let mut progress = match restored {
            Some((snap, writer)) => {
                let mut band = RowBand::new(z, residency.clone());
                for (y, row) in snap.band {
                    band.row_mut(y).copy_from_slice(&row);
                }
                Progress {
                    band,
                    rows: RowStager::resume(
                        writer,
                        snap.staged,
                        snap.staged_first,
                        snap.positive,
                        residency.clone(),
                    ),
                    flushed: snap.flushed,
                    merged: snap.merged,
                    tokens: snap.tokens,
                }
            }
            None => Progress {
                band: RowBand::new(z, residency.clone()),
                rows: RowStager::new(TileStoreWriter::create(out_path, z, z, t)?, residency.clone()),
                flushed: 0,
                merged: 0,
                tokens: 0,
            },
        };

        // ---- distribute ---------------------------------------------------
        let start_k = progress.merged;
        let sched = StealScheduler::new(windows_total - start_k, opts.workers);
        let (res_tx, res_rx) = mpsc::channel::<WindowDone>();
        let mut window_seconds: Vec<(usize, f64)> = Vec::new();
        let mut checkpoints_written = 0u64;
        let mut checkpoint_bytes = 0u64;
        let mut merged_this_run = 0usize;

        // OS threads do not inherit the caller's trace context; hand it to
        // the stitch workers explicitly so their window spans parent under
        // the drive span.
        let ctx = TraceContext::current();

        let merge_outcome: Result<(), GigapixelError> = std::thread::scope(|scope| {
            for wi in 0..opts.workers {
                let tx = res_tx.clone();
                let sched = &sched;
                let positions = &positions;
                let faults = &opts.faults;
                let panics_total = panics_total.clone();
                let worker_s = self.tel.histogram_with(
                    "apf_gigapixel_worker_window_seconds",
                    vec![("worker", wi.to_string())],
                    "Per-window read + patchify + forward, by stitch worker",
                );
                std::thread::Builder::new()
                    .name(format!("{}-{}", FABRIC_THREAD_PREFIX, wi))
                    .spawn_scoped(scope, move || {
                        // The stitch workers are the parallelism: their
                        // kernels run inline, not on the shared pool.
                        apf_tensor::kernels::mark_thread_inline();
                        let _ctx_guard = ctx.map(TraceContext::install);
                        let mut nth = 0u64;
                        loop {
                            match sched.next(wi) {
                                Next::Done => break,
                                Next::Wait => std::thread::sleep(Duration::from_millis(1)),
                                Next::Item(i) => {
                                    let k = start_k + i;
                                    let fault = faults.fault_for(wi, nth);
                                    nth += 1;
                                    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                                        // Inside the unwind boundary: a
                                        // panicking window still flushes its
                                        // span, marked truncated. Windows run
                                        // off their dealt worker (steals,
                                        // death re-queues) carry a "steal"
                                        // note.
                                        let _wspan = if sched.dealt_owner(i) == wi {
                                            self.tel.span_id("gigapixel.window_infer", k as u64)
                                        } else {
                                            self.tel.span_noted(
                                                "gigapixel.window_infer",
                                                k as u64,
                                                "steal",
                                            )
                                        };
                                        sched.inject(fault, wi, i);
                                        let t0 = Instant::now();
                                        let (wx, wy) = (positions[k % n], positions[k / n]);
                                        let result = cache.read_region(wx, wy, w, w).and_then(
                                            |img| {
                                                let _charge = ResidencyCharge::new(
                                                    residency,
                                                    w * w * 4 * 2, // window + logits
                                                );
                                                self.infer_window(&img, wx, wy)
                                            },
                                        );
                                        (result, t0.elapsed().as_secs_f64())
                                    }));
                                    match ran {
                                        Ok((result, secs)) => {
                                            worker_s.record(secs);
                                            // Send failure = merge loop gone
                                            // (abort); just exit.
                                            if tx
                                                .send(WindowDone { k, worker: wi, secs, result })
                                                .is_err()
                                            {
                                                break;
                                            }
                                            sched.complete(wi);
                                        }
                                        Err(_) => {
                                            panics_total.inc();
                                            self.tel.flight("stitch_worker_panic", || {
                                                format!("worker={wi} window={k}")
                                            });
                                            sched.worker_died(wi);
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                    })
                    .expect("spawn stitch worker");
            }
            drop(res_tx);

            // ---- merge loop (strict window order) -------------------------
            let mut pending: BTreeMap<usize, WindowDone> = BTreeMap::new();
            let mut next_k = start_k;
            let result = 'merge: loop {
                if next_k == windows_total {
                    break Ok(());
                }
                let msg = match res_rx.recv_timeout(opts.poll) {
                    Ok(msg) => msg,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Satellite fix: the deadline is re-checked even
                        // while every in-flight window is stalled.
                        if cancel() {
                            break Err(GigapixelError::Cancelled {
                                windows_done: next_k,
                                windows_total,
                            });
                        }
                        if sched.exhausted() {
                            break Err(GigapixelError::WorkersExhausted {
                                windows_done: next_k,
                                windows_total,
                            });
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        break Err(GigapixelError::WorkersExhausted {
                            windows_done: next_k,
                            windows_total,
                        });
                    }
                };
                pending.insert(msg.k, msg);
                while let Some(done) = pending.remove(&next_k) {
                    let _span = self.tel.span_id("gigapixel.window_merge", next_k as u64);
                    let (logits, l) = match done.result {
                        Ok(ok) => ok,
                        Err(e) => break 'merge Err(e),
                    };
                    let k = next_k;
                    let (wx, wy) = (positions[k % n], positions[k / n]);
                    blend_window(&mut progress.band, &profile, &logits, wx, wy, w);
                    progress.tokens += l;
                    progress.merged += 1;
                    merged_this_run += 1;
                    next_k += 1;
                    self.windows_total.inc();
                    self.window_s.record(done.secs);
                    window_seconds.push((done.worker, done.secs));

                    // Row-flush once a window row completes (same frontier
                    // rule as the serial drive).
                    if k % n == n - 1 {
                        let wyi = k / n;
                        let frontier = positions.get(wyi + 1).copied().unwrap_or(z + 1).min(z);
                        while progress.flushed < frontier {
                            let y = progress.flushed;
                            let row = finalize_row(&mut progress.band, &wsum, y);
                            progress.rows.push(y, row)?;
                            progress.flushed += 1;
                        }
                    }

                    // Injected abrupt kill: no parting checkpoint, output
                    // temp preserved exactly as a real kill would.
                    if opts.kill_after_windows == Some(merged_this_run) {
                        break 'merge Err(GigapixelError::InjectedCrash {
                            windows_merged: progress.merged,
                            site: "kill",
                        });
                    }

                    // Periodic checkpoint.
                    let due = opts.checkpoint_path.is_some()
                        && opts.checkpoint_every > 0
                        && merged_this_run.is_multiple_of(opts.checkpoint_every);
                    if due {
                        let ckpt = opts.checkpoint_path.as_deref().expect("checked is_some");
                        progress.rows.writer.flush_to_disk()?;
                        let state = progress.snapshot(fp).to_state();
                        if opts.checkpoint_crash_at == Some(checkpoints_written) {
                            // Simulate a torn write on a non-atomic
                            // filesystem: rotate, then leave garbage at the
                            // primary slot and die.
                            if ckpt.exists() {
                                fs::rename(ckpt, prev_path(ckpt))
                                    .map_err(GigapixelError::io("rotating stitch checkpoint"))?;
                            }
                            fs::write(ckpt, b"APF2 torn checkpoint write")
                                .map_err(GigapixelError::io("writing torn checkpoint"))?;
                            break 'merge Err(GigapixelError::InjectedCrash {
                                windows_merged: progress.merged,
                                site: "checkpoint_write",
                            });
                        }
                        let bytes = rotate_and_save(ckpt, &state)?;
                        checkpoints_written += 1;
                        checkpoint_bytes += bytes;
                        ckpt_total.inc();
                        ckpt_bytes_total.add(bytes);
                        let merged_now = progress.merged;
                        self.tel.flight("stitch_checkpoint", || {
                            format!("merged={merged_now} bytes={bytes}")
                        });
                    }

                    // Satellite fix: cancellation polled per *completed*
                    // window, not per submitted one.
                    if cancel() {
                        break 'merge Err(GigapixelError::Cancelled {
                            windows_done: next_k,
                            windows_total,
                        });
                    }
                }
            };
            sched.abort();
            // Drain without blocking so late senders never wedge on a full
            // channel (mpsc is unbounded, but be explicit about intent).
            while res_rx.try_recv().is_ok() {}
            result
        });
        steals_total.add(sched.steals());

        // ---- disposition of the partial output ---------------------------
        match merge_outcome {
            Ok(()) => {}
            Err(e) => {
                residency.sub((progress.rows.staged.len() + progress.band.rows.len()) * z * 4);
                let resumable = matches!(
                    e,
                    GigapixelError::Cancelled { .. }
                        | GigapixelError::WorkersExhausted { .. }
                        | GigapixelError::InjectedCrash { .. }
                );
                if resumable {
                    if let Some(ckpt) = opts.checkpoint_path.as_deref() {
                        // A parting checkpoint preserves the merged prefix
                        // for resume — except for the injected abrupt kill,
                        // which by definition gets no goodbye.
                        let abrupt =
                            matches!(e, GigapixelError::InjectedCrash { .. });
                        if !abrupt {
                            progress.rows.writer.flush_to_disk()?;
                            let bytes = rotate_and_save(ckpt, &progress.snapshot(fp).to_state())?;
                            ckpt_total.inc();
                            ckpt_bytes_total.add(bytes);
                        }
                        progress.rows.writer.suspend()?;
                        return Err(e);
                    }
                }
                // Non-resumable (or checkpointing disabled): the writer's
                // Drop removes the temp file; no partial output survives.
                return Err(e);
            }
        }

        debug_assert_eq!(progress.flushed, z, "all rows flushed on success");
        progress.rows.writer.finish()?;
        Ok(DistStitchReport {
            stitch: StitchReport {
                windows: progress.merged,
                tokens: progress.tokens,
                positive_fraction: progress.rows.positive as f64 / (z as f64 * z as f64),
                resolution: z,
            },
            workers: opts.workers,
            steals: sched.steals(),
            worker_panics: sched.deaths(),
            resumed_at,
            checkpoints_written,
            checkpoint_bytes,
            window_seconds,
        })
    }
}
