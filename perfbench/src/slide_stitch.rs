//! `slide_stitch`: a slide file becomes a stitched container.
//!
//! A PAIP slide is streamed into an `APT1` container in set-up. A closed
//! loop keeps one slide request in flight through
//! [`ServeEngine::submit_slide`] with two stitch workers and a tile-cache
//! budget below the slide's size. Tile reads and CRC checks, the tile
//! cache, per-window patchify and forward, the blend, the output writes
//! and the distsim work-stealing fabric run only here. Every output
//! container is checked tile by tile against a serial stitch of the same
//! slide made in set-up.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use apf_core::pipeline::AdaptivePatcher;
use apf_gigapixel::{Residency, StitchConfig, TileCache, TileStore, TileStoreWriter};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_serve::{DegradationPolicy, Outcome, ServeConfig, ServeEngine, SlideRequest, Tier};
use apf_telemetry::Telemetry;
use apf_tensor::prelude::*;

use crate::calib::HostSpeed;
use crate::layers::{core_probe, layer_probe, time_ms, Budget, ModelDims};
use crate::oracle::{container_crcs, serial_slide_reference, SlideGeometry};
use crate::report::{RunReport, Values};
use crate::stats::{hist, hist_mean, mean, median, tail, value};
use crate::{
    record_overhead, repeated_setup, traced_split, traced_telemetry, write_trace, Options,
    MODEL_SEED,
};

#[derive(Debug, Clone, Copy)]
struct Config {
    slide: usize,
    tile: usize,
    geom: SlideGeometry,
    model: ViTConfig,
    stitch_workers: usize,
    slo_ms: f64,
    setup_reps: usize,
}

fn config(smoke: bool) -> Config {
    if smoke {
        Config {
            slide: 256,
            tile: 64,
            geom: SlideGeometry {
                window: 64,
                halo: 8,
                patch_size: 4,
                seq_len: 48,
                cache_budget_bytes: 8 * 64 * 64 * 4,
            },
            model: ViTConfig::tiny(16, 48),
            stitch_workers: 2,
            slo_ms: 30_000.0,
            setup_reps: 1,
        }
    } else {
        Config {
            slide: 4096,
            tile: 512,
            // A quarter of the slide's 64 MiB of pixels.
            geom: SlideGeometry {
                window: 512,
                halo: 32,
                patch_size: 4,
                seq_len: 256,
                cache_budget_bytes: 16 << 20,
            },
            model: ViTConfig::small(16, 256),
            stitch_workers: 2,
            slo_ms: 10_000.0,
            setup_reps: 1,
        }
    }
}

/// The slide, where outputs go, and the serial reference's tile CRCs.
struct Inputs {
    slide: PathBuf,
    output: PathBuf,
    reference: Vec<u32>,
}

/// Streams the seeded PAIP slide into an `APT1` container, one tile row at
/// a time, the row's tiles rendered on two threads.
fn write_slide(path: &PathBuf, seed: u64, cfg: &Config) -> std::io::Result<()> {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(cfg.slide).with_seed(seed));
    let mut writer = TileStoreWriter::create(path, cfg.slide, cfg.slide, cfg.tile)
        .map_err(std::io::Error::other)?;
    let g = writer.geometry();
    for ty in 0..g.tiles_y() {
        let tiles: Vec<Vec<f32>> = thread::scope(|sc| {
            let gen = &gen;
            let halves: Vec<_> = (0..2u32)
                .map(|part| {
                    sc.spawn(move || {
                        (0..g.tiles_x())
                            .filter(|tx| tx % 2 == part)
                            .map(|tx| {
                                let (w, h) = g.tile_dims(tx, ty);
                                let (x0, y0) = (tx as usize * cfg.tile, ty as usize * cfg.tile);
                                (
                                    tx,
                                    gen.generate_region(0, 0, x0, y0, w, h).image.into_data(),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut row: Vec<(u32, Vec<f32>)> = halves
                .into_iter()
                .flat_map(|h| h.join().expect("tile renderer"))
                .collect();
            row.sort_by_key(|(tx, _)| *tx);
            row.into_iter().map(|(_, data)| data).collect()
        });
        for (tx, data) in tiles.iter().enumerate() {
            writer
                .write_tile(tx as u32, ty, data)
                .map_err(std::io::Error::other)?;
        }
    }
    writer.finish().map_err(std::io::Error::other)
}

fn prepare(opts: &Options, cfg: &Config) -> std::io::Result<Inputs> {
    let slide = opts.scratch("slide", "apt1");
    write_slide(&slide, opts.seed, cfg)?;
    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
    let reference = serial_slide_reference(
        &model,
        &slide,
        &opts.scratch("reference", "apt1"),
        &cfg.geom,
    )
    .map_err(std::io::Error::other)?;
    Ok(Inputs {
        slide,
        output: opts.scratch("output", "apt1"),
        reference,
    })
}

fn start_engine(cfg: &Config, tel: &Telemetry) -> ServeEngine {
    ServeEngine::start(ServeConfig {
        workers: 2,
        patch_size: cfg.geom.patch_size,
        model: cfg.model,
        model_seed: MODEL_SEED,
        policy: DegradationPolicy {
            full_len: cfg.geom.seq_len,
            reduced_len: cfg.geom.seq_len / 2,
            ..DegradationPolicy::default()
        },
        telemetry: tel.clone(),
        ..ServeConfig::small()
    })
}

#[derive(Debug, Clone, Copy)]
struct Record {
    latency_ms: f64,
    ok: bool,
    full_tier: bool,
    windows: usize,
    tokens: usize,
}

/// How this workload's slide time follows the two-core probe: over ten
/// runs across quiet and busy spells, the raw median grew as the probe time
/// to the power 0.57 (log-log fit; tile reads, CRCs, blending and writes
/// suffer less from a busy host than the probe's arithmetic).
const ELASTICITY: f64 = 0.5;

/// Probes taken between two slides. One probe lasts about 2 ms and a slide
/// about 2 s, and consecutive probes between slides read 1.6–2.6 ms in the
/// same spell, so slides are scaled by the median of all the run's probes,
/// three at each point, rather than by the probes next to each one.
fn probe(host: &mut HostSpeed) {
    for _ in 0..3 {
        host.probe_cores();
    }
}

/// Closed loop, one slide in flight, until the slides' summed latency
/// reaches `seconds` (at least one slide); also returns the probes. Output
/// checks run between requests, outside the latencies; so do the
/// host-speed probes, before the first slide and after each one.
fn measure(
    s: &Inputs,
    engine: &ServeEngine,
    cfg: &Config,
    seconds: f64,
    tel: &Telemetry,
) -> (Vec<Record>, HostSpeed) {
    let mut records = Vec::new();
    let mut busy = 0.0;
    let mut host = HostSpeed::new(ELASTICITY);
    probe(&mut host);
    while records.is_empty() || busy < seconds {
        let id = records.len() as u64;
        let request = SlideRequest {
            id,
            slide_path: s.slide.clone(),
            output_path: s.output.clone(),
            window: cfg.geom.window,
            halo: cfg.geom.halo,
            cache_budget_bytes: cfg.geom.cache_budget_bytes,
            deadline_ms: None,
            stitch_workers: cfg.stitch_workers,
            checkpoint_path: None,
            resume: false,
        };
        let (resp, elapsed) = {
            let _span = tel.span_id("bench.slide", id);
            let t0 = Instant::now();
            let resp = engine
                .submit_slide(request)
                .wait()
                .expect("the engine answers every submission");
            (resp, t0.elapsed().as_secs_f64())
        };
        busy += elapsed;
        let latency_ms = elapsed * 1e3;
        probe(&mut host);
        let (ok, windows, tokens) = match resp.outcome {
            Outcome::SlideCompleted {
                windows, tokens, ..
            } => {
                let _span = tel.span_id("bench.verify", id);
                (
                    container_crcs(&s.output).is_ok_and(|crcs| crcs == s.reference),
                    windows,
                    tokens,
                )
            }
            _ => (false, 0, 0),
        };
        remove_file(&s.output);
        records.push(Record {
            latency_ms,
            ok,
            full_tier: resp.tier == Tier::Full,
            windows,
            tokens,
        });
    }
    (records, host)
}

/// Runs the workload.
pub fn run(opts: &Options) -> std::io::Result<RunReport> {
    let cfg = config(opts.smoke);
    let mut values = Values::new();
    let mut stamp = vec![
        ("model", format!("{:?}", cfg.model)),
        (
            "input",
            format!(
                "PAIP {0}x{0} slide in APT1 tiles of {1}; window {2}, halo {3}, {4} tokens per window",
                cfg.slide, cfg.tile, cfg.geom.window, cfg.geom.halo, cfg.geom.seq_len
            ),
        ),
        ("load", format!("closed loop, one slide in flight, {} stitch workers", cfg.stitch_workers)),
        ("tile_cache_budget_bytes", cfg.geom.cache_budget_bytes.to_string()),
        ("slo_ms", cfg.slo_ms.to_string()),
    ];
    let (inputs, records) = if opts.trace {
        let (untraced_s, traced_s) = traced_split(opts.seconds);
        // One slide and reference serve both phases; only the engine differs.
        let inputs = prepare(opts, &cfg)?;
        let base = start_engine(&cfg, &Telemetry::disabled());
        let (r0, _) = measure(&inputs, &base, &cfg, untraced_s, &Telemetry::disabled());
        base.shutdown();
        let tel = traced_telemetry();
        let engine = start_engine(&cfg, &tel);
        let (records, _) = measure(&inputs, &engine, &cfg, traced_s, &tel);
        engine.shutdown();
        record_overhead(&mut values, mean(&lat(&r0)), mean(&lat(&records)));
        layer_metrics(&inputs, &cfg, &records, &tel, &mut values);
        let trace = write_trace(opts, &tel)?;
        stamp.push(("trace_file", trace.display().to_string()));
        (inputs, records)
    } else {
        let ((inputs, engine), setup_s) = repeated_setup(cfg.setup_reps, || {
            Ok((
                prepare(opts, &cfg)?,
                start_engine(&cfg, &Telemetry::disabled()),
            ))
        })?;
        values.insert("setup_s", setup_s);
        let (records, host) = measure(&inputs, &engine, &cfg, opts.seconds, &Telemetry::disabled());
        engine.shutdown();
        let latencies = lat(&records);
        let ok = records
            .iter()
            .filter(|r| r.ok && r.full_tier && r.latency_ms <= cfg.slo_ms)
            .count();
        let p50 = host.scale_run(median(&latencies));
        values.insert("lat_p50_ms", p50);
        values.insert("lat_tail_ms", host.scale_run(tail(&latencies)));
        values.insert("ops_per_s", 1e3 / p50);
        stamp.push(("raw_lat_p50_ms", median(&latencies).to_string()));
        stamp.push(("host_probe_ms", host.median_ms().to_string()));
        values.insert("slo_ok_share", ok as f64 / records.len() as f64);
        (inputs, records)
    };
    remove_file(&inputs.slide);
    let latencies = lat(&records);
    let mpix = (cfg.slide * cfg.slide) as f64 / 1e6;
    stamp.push(("latency_samples", latencies.len().to_string()));
    stamp.push((
        "slide_mpix_per_s",
        (mpix * records.len() as f64 / (latencies.iter().sum::<f64>() * 1e-3)).to_string(),
    ));
    stamp.push((
        "tier_mix",
        format!(
            "full {} of {}",
            records.iter().filter(|r| r.full_tier).count(),
            records.len()
        ),
    ));
    stamp.push((
        "cache_hit_rate",
        "n/a (slides bypass the preprocessing cache)".to_string(),
    ));
    stamp.push((
        "repeat_share",
        "1 (the same slide every request)".to_string(),
    ));
    let failed = records.iter().filter(|r| !r.ok).count() as u64;
    Ok(RunReport {
        attempted: records.len() as u64,
        failed,
        correct: failed == 0,
        values,
        stamp,
    })
}

/// Removes a scratch file; a file that is already gone is fine.
fn remove_file(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
}

fn lat(records: &[Record]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.latency_ms)
        .collect()
}

fn layer_metrics(
    s: &Inputs,
    cfg: &Config,
    records: &[Record],
    tel: &Telemetry,
    values: &mut Values,
) {
    let snap = tel.snapshot();
    let _probe = tel.span("bench.probe");
    let slides = records.len().max(1) as f64;
    let busy_s: f64 = records.iter().map(|r| r.latency_ms * 1e-3).sum();
    // The stitch fabric labels its window histogram by worker.
    let per_worker: Vec<(f64, u64)> = (0..cfg.stitch_workers)
        .filter_map(|w| {
            hist(
                &snap,
                "apf_gigapixel_worker_window_seconds",
                &[("worker", &w.to_string())],
            )
        })
        .map(|h| (h.sum, h.count))
        .collect();
    let window_s: f64 = per_worker.iter().map(|(s, _)| s).sum();
    let windows_run: u64 = per_worker.iter().map(|(_, c)| c).sum();
    values.insert(
        "gigapixel.window_ms",
        window_s * 1e3 / windows_run.max(1) as f64,
    );
    values.insert(
        "gigapixel.windows",
        mean(&records.iter().map(|r| r.windows as f64).collect::<Vec<_>>()),
    );
    values.insert(
        "gigapixel.tokens",
        mean(&records.iter().map(|r| r.tokens as f64).collect::<Vec<_>>()),
    );
    values.insert(
        "gigapixel.peak_resident_mb",
        value(&snap, "apf_gigapixel_resident_peak_bytes", &[]) / (1 << 20) as f64,
    );
    let hits = value(&snap, "apf_gigapixel_cache_hits_total", &[]);
    let misses = value(&snap, "apf_gigapixel_cache_misses_total", &[]);
    values.insert(
        "gigapixel.tile_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    values.insert(
        "distsim.stolen",
        value(&snap, "apf_gigapixel_windows_stolen_total", &[]) / slides,
    );
    values.insert(
        "distsim.busy_share",
        window_s / (cfg.stitch_workers as f64 * busy_s.max(1e-9)),
    );
    values.insert(
        "tier.full",
        records.iter().filter(|r| r.full_tier).count() as f64,
    );

    let admission = hist_mean(&snap, "apf_serve_admission_latency_seconds", &[], 1e3);
    let queue = hist(&snap, "apf_serve_queue_wait_seconds", &[]);
    let queue_mean = queue.as_ref().map_or(0.0, |h| h.mean() * 1e3);
    values.insert("engine.admission_ms", admission);
    values.insert(
        "engine.queue_wait_p50_ms",
        queue.as_ref().map_or(0.0, |h| h.quantile(0.5) * 1e3),
    );
    values.insert(
        "engine.queue_wait_p99_ms",
        queue.as_ref().map_or(0.0, |h| h.quantile(0.99) * 1e3),
    );
    let inference = hist_mean(&snap, "apf_serve_inference_latency_seconds", &[], 1e3);
    values.insert("engine.inference_ms", inference);
    let slide_ms = busy_s * 1e3 / slides;
    values.insert(
        "engine.unattributed_ms",
        slide_ms - admission - queue_mean - inference,
    );
    // What the stitch workers' windows do not cover: merge, blend, output
    // writes, imbalance between the two workers, and the engine around it.
    let attributed =
        window_s / cfg.stitch_workers as f64 + (admission + queue_mean) * 1e-3 * slides;
    values.insert(
        "trace.unattributed_share",
        1.0 - attributed / busy_s.max(1e-9),
    );

    // Tile reads with CRC verification, straight from the store.
    let store = TileStore::open(&s.slide).expect("slide container");
    let g = store.geometry();
    let tiles: Vec<(u32, u32)> = (0..g.tiles_y())
        .flat_map(|ty| (0..g.tiles_x()).map(move |tx| (tx, ty)))
        .collect();
    let mut read_ms = Vec::new();
    for &(tx, ty) in tiles.iter().take(16) {
        read_ms.push(time_ms(|| store.read_tile(tx, ty).expect("valid tile")));
    }
    let tile_ms = median(&read_ms);
    values.insert("gigapixel.tile_read_ms", tile_ms);
    values.insert(
        "gigapixel.tile_mb_per_s",
        (cfg.tile * cfg.tile * 4) as f64 / (1 << 20) as f64 / (tile_ms * 1e-3),
    );

    // Per-window patchify and forward on windows read through the cache.
    let residency = Residency::new(&Telemetry::disabled());
    let cache = TileCache::new(
        Arc::new(store),
        cfg.geom.cache_budget_bytes,
        Telemetry::disabled(),
        residency,
    );
    let stride = cfg.geom.window - 2 * cfg.geom.halo;
    let windows: Vec<GrayImage> = (0..4)
        .map(|k| {
            let x = (k * stride * 3) % (cfg.slide - cfg.geom.window);
            cache
                .read_region(
                    x,
                    cfg.slide / 2 - cfg.geom.window / 2,
                    cfg.geom.window,
                    cfg.geom.window,
                )
                .expect("in bounds")
        })
        .collect();
    let mut stitch = StitchConfig::for_window(cfg.geom.window, cfg.geom.halo, cfg.geom.seq_len);
    stitch.patcher.patch_size = cfg.geom.patch_size;
    stitch.patcher.target_len = Some(cfg.geom.seq_len);
    let patcher = AdaptivePatcher::new(stitch.patcher.clone());
    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
    let (mut patchify_ms, mut forward_ms) = (vec![], vec![]);
    for w in &windows {
        patchify_ms.push(time_ms(|| patcher.try_patchify(w).expect("valid window")));
        let seq = patcher.try_patchify(w).expect("valid window");
        let pd = cfg.geom.patch_size * cfg.geom.patch_size;
        forward_ms.push(time_ms(|| {
            let mut graph = Graph::new();
            let bp = model.params.bind(&mut graph);
            let x = graph.constant(seq.to_tensor().reshape([1, seq.len(), pd]));
            let y = model.forward(&mut graph, &bp, x);
            graph.value(y).data().len()
        }));
    }
    values.insert("gigapixel.window_patchify_ms", median(&patchify_ms));
    values.insert("gigapixel.window_forward_ms", median(&forward_ms));

    // One output container's writes at the served geometry.
    let out = s.output.with_extension("probe.apt1");
    let tile_data = vec![0.5f32; cfg.tile * cfg.tile];
    let t0 = Instant::now();
    let mut writer =
        TileStoreWriter::create(&out, cfg.slide, cfg.slide, cfg.tile).expect("writable scratch");
    for ty in 0..g.tiles_y() {
        for tx in 0..g.tiles_x() {
            let (w, h) = g.tile_dims(tx, ty);
            writer
                .write_tile(tx, ty, &tile_data[..w * h])
                .expect("tile write");
        }
    }
    writer.finish().expect("container finish");
    values.insert("gigapixel.write_ms", t0.elapsed().as_secs_f64() * 1e3);
    remove_file(&out);

    core_probe(
        &windows,
        cfg.geom.patch_size,
        Budget::Exactly(cfg.geom.seq_len),
        values,
    );
    layer_probe(
        ModelDims {
            dim: cfg.model.dim,
            heads: cfg.model.heads,
            patch_dim: cfg.geom.patch_size * cfg.geom.patch_size,
            seq_len: cfg.model.seq_len,
            tokens: cfg.geom.seq_len,
            batch: 1,
        },
        values,
    );
}
