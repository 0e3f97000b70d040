//! Distributed stitched inference: bit-identity with the serial drive,
//! contained worker faults, and crash-safe resume — the inference analogue
//! of the distsim `fault_recovery` demo.
//!
//! The headline invariant: however the drive is scheduled, stolen,
//! killed, and resumed, the bytes of the output container are identical
//! to an uninterrupted serial run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apf_core::fault::FaultPlan;
use apf_distsim::fabric::FabricFaultKind;
use apf_gigapixel::{
    load_stitch_checkpoint, write_tiled, DistStitchOptions, GigapixelError, Residency,
    SlideSegmenter, StitchConfig, TileCache, TileStore,
};
use apf_imaging::GrayImage;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_telemetry::Telemetry;

const SEQ_LEN: usize = 48;

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

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("apf_gigapixel_kill_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cache_for(img: &GrayImage, name: &str, tel: &Telemetry) -> (TileCache, Residency) {
    let path = test_dir().join(name);
    write_tiled(&path, img.width(), img.height(), 32, |_, _, x0, y0, w, h| {
        img.crop(x0, y0, w, h).into_data()
    })
    .unwrap();
    let res = Residency::new(tel);
    let store = Arc::new(TileStore::open(&path).unwrap());
    (TileCache::new(store, 16 * 32 * 32 * 4, tel.clone(), res.clone()), res)
}

fn tiny_model() -> ViTSegmenter {
    ViTSegmenter::new(ViTConfig::tiny(16, SEQ_LEN), 7)
}

fn stitch_cfg() -> StitchConfig {
    let mut cfg = StitchConfig::for_window(64, 8, SEQ_LEN);
    cfg.out_tile = 32;
    cfg
}

/// Reads every tile of a finished container as raw f32 bit patterns.
fn store_bits(path: &Path) -> Vec<Vec<u32>> {
    let store = TileStore::open(path).unwrap();
    let g = store.geometry();
    let mut tiles = Vec::new();
    for ty in 0..g.tiles_y() {
        for tx in 0..g.tiles_x() {
            tiles.push(store.read_tile(tx, ty).unwrap().iter().map(|v| v.to_bits()).collect());
        }
    }
    tiles
}

/// Serial reference output for `img`, written once per test file name.
fn serial_reference(img: &GrayImage, name: &str) -> PathBuf {
    let tel = Telemetry::disabled();
    let (cache, res) = cache_for(img, &format!("{name}_serial_in.apt1"), &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join(format!("{name}_serial_out.apt1"));
    seg.segment_store(&cache, &out, &res, || false).unwrap();
    out
}

#[test]
fn distributed_output_is_bit_identical_to_serial() {
    let img = slide_image(128); // 9 windows at 64/8
    let serial_out = serial_reference(&img, "ident");
    let tel = Telemetry::enabled();
    let (cache, res) = cache_for(&img, "ident_in.apt1", &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join("ident_out.apt1");
    let report = seg
        .segment_store_distributed(&cache, &out, &res, &DistStitchOptions::new(3), || false)
        .unwrap();
    assert_eq!(report.stitch.windows, 9);
    assert_eq!(report.stitch.tokens, 9 * SEQ_LEN);
    assert_eq!(report.resumed_at, None);
    assert_eq!(report.window_seconds.len(), 9);
    assert_eq!(store_bits(&serial_out), store_bits(&out), "distributed != serial");
    // Residency from the merge loop's transient state was all released.
    assert_eq!(res.current(), cache.resident_bytes());
}

#[test]
fn kill_at_window_k_resumes_bit_identically() {
    let img = slide_image(128);
    let serial_out = serial_reference(&img, "kill");
    let tel = Telemetry::enabled();
    let (cache, res) = cache_for(&img, "kill_in.apt1", &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join("kill_out.apt1");
    let _ = std::fs::remove_file(&out);
    let ckpt = test_dir().join("kill.ckpt.apf2");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(test_dir().join("kill.ckpt.apf2.prev"));

    // Run 1: checkpoint every 2 windows, killed after merging 5. The run
    // is traced so its checkpoints carry the trace id.
    let run1 = tel.new_trace().expect("tracing defaults to on");
    let mut opts = DistStitchOptions::new(2).with_checkpoint(&ckpt);
    opts.checkpoint_every = 2;
    opts.kill_after_windows = Some(5);
    let err = {
        let _g = run1.install();
        seg.segment_store_distributed(&cache, &out, &res, &opts, || false).unwrap_err()
    };
    match err {
        GigapixelError::InjectedCrash { windows_merged: 5, site: "kill" } => {}
        other => panic!("expected injected kill, got {other:?}"),
    }
    assert!(!out.exists(), "no final container after a crash");
    let info = load_stitch_checkpoint(&ckpt).unwrap();
    assert_eq!(info.merged, 4, "last periodic checkpoint before the kill");
    assert_eq!(info.resolution, 128);

    // Run 2: resume from the checkpoint, no faults, under a fresh trace.
    let run2 = tel.new_trace().expect("tracing defaults to on");
    assert_ne!(run1.trace_id, run2.trace_id);
    let mut opts = DistStitchOptions::new(2).with_checkpoint(&ckpt);
    opts.checkpoint_every = 2;
    opts.resume = true;
    let report = {
        let _g = run2.install();
        seg.segment_store_distributed(&cache, &out, &res, &opts, || false).unwrap()
    };
    assert_eq!(report.resumed_at, Some(4));
    assert_eq!(report.stitch.windows, 9, "report covers resumed prefix too");
    assert_eq!(report.stitch.tokens, 9 * SEQ_LEN);
    assert_eq!(report.window_seconds.len(), 5, "only windows 4..9 re-ran");
    assert_eq!(store_bits(&serial_out), store_bits(&out), "resumed run != serial");

    let snap = tel.snapshot();
    assert_eq!(snap.get("apf_gigapixel_stitch_resumes_total", &[]).unwrap().value, 1.0);
    assert!(snap.get("apf_gigapixel_stitch_checkpoints_total", &[]).unwrap().value >= 2.0);
    assert!(snap.get("apf_gigapixel_stitch_checkpoint_bytes_total", &[]).unwrap().value > 0.0);

    // The resumed run is a fresh trace, linked to the killed run by a
    // `resumed_from` annotation carrying the original trace id.
    let resumed: Vec<_> = tel
        .trace_events()
        .into_iter()
        .filter(|e| e.name == "gigapixel.resumed_from")
        .collect();
    assert_eq!(resumed.len(), 1, "exactly one resume annotation");
    assert_eq!(resumed[0].trace_id, run2.trace_id, "annotation lives in the fresh trace");
    assert_eq!(resumed[0].id, Some(run1.trace_id), "annotation names the original trace");
    let flights: Vec<_> =
        tel.flight_events().into_iter().filter(|f| f.kind == "stitch_resume").collect();
    assert_eq!(flights.len(), 1);
    assert!(flights[0].detail.contains(&format!("{:#x}", run1.trace_id)));
}

#[test]
fn checkpoint_write_crash_falls_back_to_prev_rotation() {
    let img = slide_image(128);
    let serial_out = serial_reference(&img, "torn");
    let tel = Telemetry::enabled();
    let (cache, res) = cache_for(&img, "torn_in.apt1", &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join("torn_out.apt1");
    let _ = std::fs::remove_file(&out);
    let ckpt = test_dir().join("torn.ckpt.apf2");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(test_dir().join("torn.ckpt.apf2.prev"));

    // Run 1: the second checkpoint write (at merged=4) tears the primary
    // after rotating the first (merged=2) checkpoint to `.prev`.
    let mut opts = DistStitchOptions::new(2).with_checkpoint(&ckpt);
    opts.checkpoint_every = 2;
    opts.checkpoint_crash_at = Some(1);
    let err = seg
        .segment_store_distributed(&cache, &out, &res, &opts, || false)
        .unwrap_err();
    match err {
        GigapixelError::InjectedCrash { site: "checkpoint_write", .. } => {}
        other => panic!("expected injected checkpoint crash, got {other:?}"),
    }
    // The torn primary is typed, never a panic.
    match load_stitch_checkpoint(&ckpt) {
        Err(GigapixelError::Checkpoint(_)) => {}
        other => panic!("expected a typed checkpoint error, got {other:?}"),
    }

    // Run 2: resume skips the torn primary and restarts from `.prev`.
    let mut opts = DistStitchOptions::new(2).with_checkpoint(&ckpt);
    opts.checkpoint_every = 2;
    opts.resume = true;
    let report = seg
        .segment_store_distributed(&cache, &out, &res, &opts, || false)
        .unwrap();
    assert_eq!(report.resumed_at, Some(2), "resumed from the .prev checkpoint");
    assert_eq!(store_bits(&serial_out), store_bits(&out), "fallback resume != serial");
    let snap = tel.snapshot();
    assert!(snap.get("apf_gigapixel_stitch_resume_fallback_total", &[]).unwrap().value >= 1.0);
}

#[test]
fn injected_worker_panics_and_stragglers_do_not_corrupt_output() {
    let img = slide_image(128);
    let serial_out = serial_reference(&img, "faulty");
    let tel = Telemetry::enabled();
    let (cache, res) = cache_for(&img, "faulty_in.apt1", &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join("faulty_out.apt1");
    let mut opts = DistStitchOptions::new(3);
    opts.faults = FaultPlan::none()
        .with_burst(1, 0, 1, FabricFaultKind::Straggler { delay_ms: 10 })
        .with_burst(2, 1, 1, FabricFaultKind::Panic);
    let report = seg
        .segment_store_distributed(&cache, &out, &res, &opts, || false)
        .unwrap();
    assert_eq!(report.stitch.windows, 9);
    assert!(report.worker_panics <= 1);
    assert_eq!(store_bits(&serial_out), store_bits(&out), "faulted run != serial");
}

#[test]
fn all_workers_dead_is_a_typed_error_with_no_final_output() {
    let img = slide_image(128);
    let tel = Telemetry::disabled();
    let (cache, res) = cache_for(&img, "dead_in.apt1", &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join("dead_out.apt1");
    let _ = std::fs::remove_file(&out);
    let mut opts = DistStitchOptions::new(2);
    // Every window any worker starts panics: the pool must empty and the
    // drive must report it instead of hanging.
    opts.faults = FaultPlan::none()
        .with_burst(0, 0, 9, FabricFaultKind::Panic)
        .with_burst(1, 0, 9, FabricFaultKind::Panic);
    let err = seg
        .segment_store_distributed(&cache, &out, &res, &opts, || false)
        .unwrap_err();
    match err {
        GigapixelError::WorkersExhausted { windows_done: 0, windows_total: 9 } => {}
        other => panic!("expected WorkersExhausted, got {other:?}"),
    }
    assert!(!out.exists(), "no final container after pool exhaustion");
}

#[test]
fn deadline_fires_while_a_worker_stalls() {
    let img = slide_image(128);
    let tel = Telemetry::disabled();
    let (cache, res) = cache_for(&img, "stall_in.apt1", &tel);
    let model = tiny_model();
    let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
    let out = test_dir().join("stall_out.apt1");
    let _ = std::fs::remove_file(&out);
    let mut opts = DistStitchOptions::new(2);
    opts.poll = Duration::from_millis(5);
    // Whichever worker starts first stalls for far longer than the
    // deadline; cancellation must fire from the merge loop's poll, not
    // wait for a window to complete.
    opts.faults = FaultPlan::none()
        .with_burst(0, 0, 1, FabricFaultKind::Straggler { delay_ms: 2_000 })
        .with_burst(1, 0, 1, FabricFaultKind::Straggler { delay_ms: 2_000 });
    let t0 = Instant::now();
    let err = seg
        .segment_store_distributed(&cache, &out, &res, &opts, || {
            t0.elapsed() > Duration::from_millis(50)
        })
        .unwrap_err();
    assert!(matches!(err, GigapixelError::Cancelled { .. }), "got {err:?}");
    assert!(
        t0.elapsed() < Duration::from_millis(1_500),
        "cancellation waited out the stalled worker: {:?}",
        t0.elapsed()
    );
    assert!(!out.exists());
}
