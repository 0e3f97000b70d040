//! Property tests for APF2 stitch-checkpoint robustness (satellite of the
//! distributed-stitching PR): arbitrary truncation or byte corruption of a
//! checkpoint must surface as a *typed* error — never a panic — and a
//! corrupted primary must never stop resume from falling back to the last
//! valid `.prev` rotation.
//!
//! The fixture is a real checkpoint pair produced by a killed distributed
//! drive (checkpoint every 2 windows, killed after 5), so the corrupted
//! bytes exercise exactly the format the driver writes in production.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use apf_gigapixel::{
    load_stitch_checkpoint, write_tiled, DistStitchOptions, GigapixelError, Residency,
    SlideSegmenter, StitchConfig, TileCache, TileStore,
};
use apf_imaging::GrayImage;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_telemetry::Telemetry;
use proptest::prelude::*;

const SEQ_LEN: usize = 48;
const Z: usize = 128;

fn slide_image() -> GrayImage {
    GrayImage::from_fn(Z, Z, |x, y| {
        let cx = x as f32 - Z as f32 / 2.0;
        let cy = y as f32 - Z as f32 / 2.0;
        if (cx * cx + cy * cy).sqrt() < Z as f32 / 3.0 {
            0.3 + 0.2 * (((x * 7 + y * 13) % 16) as f32 / 15.0)
        } else {
            0.95
        }
    })
}

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("apf_gigapixel_ckpt_corruption_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stitch_cfg() -> StitchConfig {
    let mut cfg = StitchConfig::for_window(64, 8, SEQ_LEN);
    cfg.out_tile = 32;
    cfg
}

fn tiny_model() -> ViTSegmenter {
    ViTSegmenter::new(ViTConfig::tiny(16, SEQ_LEN), 7)
}

fn cache_for(tel: &Telemetry) -> (TileCache, Residency) {
    let res = Residency::new(tel);
    let store = Arc::new(TileStore::open(test_dir().join("prop_in.apt1")).unwrap());
    (TileCache::new(store, 16 * 32 * 32 * 4, tel.clone(), res.clone()), res)
}

/// Byte images of a real mid-run state: primary checkpoint (merged=4),
/// `.prev` rotation (merged=2), the suspended partial output store, and
/// the bit pattern of an uninterrupted serial run for the final oracle.
struct Fixture {
    primary: Vec<u8>,
    prev: Vec<u8>,
    partial_tmp: Vec<u8>,
    serial_bits: Vec<Vec<u32>>,
}

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

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let img = slide_image();
        let input = test_dir().join("prop_in.apt1");
        write_tiled(&input, Z, Z, 32, |_, _, x0, y0, w, h| {
            img.crop(x0, y0, w, h).into_data()
        })
        .unwrap();
        let tel = Telemetry::disabled();
        let (cache, res) = cache_for(&tel);
        let model = tiny_model();
        let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());

        let serial_out = test_dir().join("prop_serial.apt1");
        seg.segment_store(&cache, &serial_out, &res, || false).unwrap();
        let serial_bits = store_bits(&serial_out);

        let out = test_dir().join("prop_out.apt1");
        let _ = std::fs::remove_file(&out);
        let ckpt = test_dir().join("prop.ckpt.apf2");
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(test_dir().join("prop.ckpt.apf2.prev"));
        let mut opts = DistStitchOptions::new(2).with_checkpoint(&ckpt);
        opts.checkpoint_every = 2;
        opts.kill_after_windows = Some(5);
        let err = seg
            .segment_store_distributed(&cache, &out, &res, &opts, || false)
            .unwrap_err();
        assert!(matches!(err, GigapixelError::InjectedCrash { .. }));

        Fixture {
            primary: std::fs::read(&ckpt).unwrap(),
            prev: std::fs::read(test_dir().join("prop.ckpt.apf2.prev")).unwrap(),
            partial_tmp: std::fs::read(test_dir().join(".prop_out.apt1.tmp")).unwrap(),
            serial_bits,
        }
    })
}

/// Any corruption must map to one of the typed checkpoint error variants.
fn assert_typed(res: Result<apf_gigapixel::StitchCheckpointInfo, GigapixelError>) {
    match res {
        Err(GigapixelError::Checkpoint(_))
        | Err(GigapixelError::CheckpointMismatch { .. })
        | Err(GigapixelError::Unsupported { .. }) => {}
        Ok(info) => panic!("corrupted checkpoint decoded as valid: {info:?}"),
        Err(other) => panic!("corruption surfaced as a non-checkpoint error: {other:?}"),
    }
}

#[test]
fn fixture_checkpoints_are_valid_before_corruption() {
    let fix = fixture();
    let path = test_dir().join("sanity.ckpt.apf2");
    std::fs::write(&path, &fix.primary).unwrap();
    let info = load_stitch_checkpoint(&path).unwrap();
    assert_eq!(info.merged, 4);
    std::fs::write(&path, &fix.prev).unwrap();
    let info = load_stitch_checkpoint(&path).unwrap();
    assert_eq!(info.merged, 2);
    assert_eq!(info.resolution, Z);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at any length — including zero and mid-tensor cuts —
    /// yields a typed error, never a panic.
    #[test]
    fn truncated_checkpoint_is_typed_error(frac in 0.0f64..1.0) {
        let fix = fixture();
        let cut = ((fix.primary.len() as f64) * frac) as usize;
        prop_assume!(cut < fix.primary.len());
        let path = test_dir().join("trunc.ckpt.apf2");
        std::fs::write(&path, &fix.primary[..cut]).unwrap();
        assert_typed(load_stitch_checkpoint(&path));
    }

    /// Flipping any bits of any single byte — header, tensor payload,
    /// per-tensor CRC, or the trailer itself — yields a typed error.
    #[test]
    fn bit_flipped_checkpoint_is_typed_error(idx in 0usize..usize::MAX, mask in 1u8..255) {
        let fix = fixture();
        let mut bytes = fix.primary.clone();
        let idx = idx % bytes.len();
        bytes[idx] ^= mask;
        let path = test_dir().join("flip.ckpt.apf2");
        std::fs::write(&path, &bytes).unwrap();
        assert_typed(load_stitch_checkpoint(&path));
    }
}

proptest! {
    // Each case re-runs the tail of the slide through the model, so keep
    // the case count small; the cheap decode-level properties above carry
    // the breadth.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// However the primary checkpoint is corrupted, resume falls back to
    /// the `.prev` rotation and still finishes bit-identical to serial.
    #[test]
    fn resume_falls_back_to_last_valid_checkpoint(idx in 0usize..usize::MAX, mask in 1u8..255) {
        let fix = fixture();
        let mut corrupt = fix.primary.clone();
        let idx = idx % corrupt.len();
        corrupt[idx] ^= mask;

        let ckpt = test_dir().join("fallback.ckpt.apf2");
        let out = test_dir().join("fallback_out.apt1");
        let _ = std::fs::remove_file(&out);
        std::fs::write(&ckpt, &corrupt).unwrap();
        std::fs::write(test_dir().join("fallback.ckpt.apf2.prev"), &fix.prev).unwrap();
        std::fs::write(test_dir().join(".fallback_out.apt1.tmp"), &fix.partial_tmp).unwrap();

        let tel = Telemetry::enabled();
        let (cache, res) = cache_for(&tel);
        let model = tiny_model();
        let seg = SlideSegmenter::new(&model, stitch_cfg(), tel.clone());
        let mut opts = DistStitchOptions::new(2).with_checkpoint(&ckpt);
        opts.checkpoint_every = 2;
        opts.resume = true;
        let report = seg
            .segment_store_distributed(&cache, &out, &res, &opts, || false)
            .unwrap();
        prop_assert_eq!(report.resumed_at, Some(2));
        prop_assert_eq!(&store_bits(&out), &fix.serial_bits);
        let snap = tel.snapshot();
        prop_assert!(
            snap.get("apf_gigapixel_stitch_resume_fallback_total", &[]).unwrap().value >= 1.0
        );
    }
}
