//! `train_unetr`: back-to-back UNETR training steps.
//!
//! One thread calls [`SegTrainer::step`] on batches of adaptively patched
//! PAIP image/mask pairs prepared in set-up. Backward, AdamW and the
//! convolutional decoder run nowhere else; serving-only changes should
//! leave this workload flat.

use std::thread;
use std::time::Instant;

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;
use apf_models::params::ParamSet;
use apf_models::rearrange::GridOrder;
use apf_models::transformer::TransformerEncoder;
use apf_models::unetr::{TokenGridDecoder, Unetr2d, UnetrConfig};
use apf_telemetry::Telemetry;
use apf_tensor::kernels::conv::conv2d;
use apf_tensor::prelude::*;
use apf_train::data::TokenSegDataset;
use apf_train::optim::AdamWConfig;
use apf_train::trainer::SegTrainer;

use crate::calib::HostSpeed;
use crate::layers::{core_probe, layer_probe, time_ms, Budget, ModelDims};
use crate::oracle::training_converges;
use crate::report::{RunReport, Values};
use crate::stats::{hist_mean, hist_sum, mean, median, tail};
use crate::{
    record_overhead, repeated_setup, traced_split, traced_telemetry, write_trace, Options,
};

/// Seed of the trained model's initial weights.
const INIT_SEED: u64 = 3;

#[derive(Debug, Clone, Copy)]
struct Config {
    pairs: usize,
    resolution: usize,
    model: UnetrConfig,
    batch: usize,
    lr: f32,
    slo_ms: f64,
    setup_reps: usize,
}

fn config(smoke: bool) -> Config {
    if smoke {
        Config {
            pairs: 4,
            resolution: 64,
            model: UnetrConfig::tiny(4, 4, GridOrder::Morton),
            batch: 2,
            lr: 1e-3,
            slo_ms: 30_000.0,
            setup_reps: 1,
        }
    } else {
        Config {
            pairs: 8,
            resolution: 512,
            model: UnetrConfig::small(16, 4, GridOrder::Morton),
            batch: 4,
            lr: 1e-3,
            slo_ms: 2_000.0,
            setup_reps: 5,
        }
    }
}

struct Setup {
    images: Vec<GrayImage>,
    data: TokenSegDataset,
    trainer: SegTrainer<Unetr2d>,
}

fn setup(seed: u64, cfg: &Config, tel: &Telemetry) -> Setup {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(cfg.resolution).with_seed(seed));
    let pairs: Vec<(GrayImage, GrayImage)> = thread::scope(|sc| {
        let gen = &gen;
        let halves: Vec<_> = (0..2)
            .map(|part| {
                sc.spawn(move || {
                    (0..cfg.pairs)
                        .filter(|i| i % 2 == part)
                        .map(|i| (i, gen.generate(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<_> = halves
            .into_iter()
            .flat_map(|h| h.join().expect("pair generator"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, s)| (s.image, s.mask)).collect()
    });
    let patcher = AdaptivePatcher::new(
        PatcherConfig::for_resolution(cfg.resolution)
            .with_patch_size(cfg.model.patch)
            .with_target_len(cfg.model.seq_len()),
    );
    let data = TokenSegDataset::adaptive(&pairs, &patcher);
    let model = Unetr2d::new(cfg.model, INIT_SEED);
    let opt = AdamWConfig {
        lr: cfg.lr,
        ..AdamWConfig::default()
    };
    let trainer = SegTrainer::with_telemetry(model, opt, tel.clone());
    Setup {
        images: pairs.into_iter().map(|(img, _)| img).collect(),
        data,
        trainer,
    }
}

/// How the step time follows the stepping thread's probe: over ten runs,
/// the raw median grew as the probe time to the power 1.05 (log-log fit);
/// the step is dense arithmetic, like the probe.
const ELASTICITY: f64 = 1.0;

struct Measured {
    step_ms: Vec<f64>,
    /// `step_ms` at the reference host speed ([`crate::calib`]).
    scaled_ms: Vec<f64>,
    losses: Vec<f64>,
    host: HostSpeed,
}

/// Steps until `seconds` have passed (at least two steps), cycling through
/// seeded batch orders. The stepping thread probes its speed before the
/// first step and after each one.
fn measure(s: &mut Setup, seed: u64, cfg: &Config, seconds: f64, tel: &Telemetry) -> Measured {
    let mut m = Measured {
        step_ms: vec![],
        scaled_ms: vec![],
        losses: vec![],
        host: HostSpeed::new(ELASTICITY),
    };
    let start = Instant::now();
    let mut before = m.host.probe_thread();
    let mut epoch = 0u64;
    'outer: loop {
        for idx in s.data.epoch_batches(cfg.batch, seed.wrapping_add(epoch)) {
            if idx.len() < cfg.batch {
                continue;
            }
            if m.losses.len() >= 2 && start.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
            let (x, y) = s.data.batch(&idx);
            let _span = tel.span_id("bench.step", m.losses.len() as u64);
            let t0 = Instant::now();
            let loss = s.trainer.step(&x, &y);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let after = m.host.probe_thread();
            m.step_ms.push(ms);
            m.scaled_ms.push(m.host.scale(ms, before, after));
            m.losses.push(loss);
            before = after;
        }
        epoch += 1;
    }
    m
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
                "{0} PAIP {1}x{1} image/mask pairs, adaptive patches, L={2}",
                cfg.pairs,
                cfg.resolution,
                cfg.model.seq_len()
            ),
        ),
        (
            "load",
            format!(
                "back-to-back SegTrainer::step, batch {}, 1 thread, AdamW lr {}",
                cfg.batch, cfg.lr
            ),
        ),
        ("slo_ms", cfg.slo_ms.to_string()),
    ];
    let m = if opts.trace {
        let (untraced_s, traced_s) = traced_split(opts.seconds);
        let mut base = setup(opts.seed, &cfg, &Telemetry::disabled());
        let m0 = measure(
            &mut base,
            opts.seed,
            &cfg,
            untraced_s,
            &Telemetry::disabled(),
        );
        drop(base);
        let tel = traced_telemetry();
        let mut s = setup(opts.seed, &cfg, &tel);
        let m = measure(&mut s, opts.seed, &cfg, traced_s, &tel);
        record_overhead(&mut values, mean(&m0.step_ms), mean(&m.step_ms));
        layer_metrics(&s, &cfg, &m, &tel, &mut values);
        let trace = write_trace(opts, &tel)?;
        stamp.push(("trace_file", trace.display().to_string()));
        m
    } else {
        let (mut s, setup_s) = repeated_setup(cfg.setup_reps, || {
            Ok(setup(opts.seed, &cfg, &Telemetry::disabled()))
        })?;
        values.insert("setup_s", setup_s);
        let m = measure(
            &mut s,
            opts.seed,
            &cfg,
            opts.seconds,
            &Telemetry::disabled(),
        );
        let ok = m
            .step_ms
            .iter()
            .zip(&m.losses)
            .filter(|(t, l)| l.is_finite() && **t <= cfg.slo_ms)
            .count();
        let p50 = median(&m.scaled_ms);
        values.insert("lat_p50_ms", p50);
        values.insert("lat_tail_ms", tail(&m.scaled_ms));
        values.insert("ops_per_s", 1e3 / p50);
        stamp.push(("raw_lat_p50_ms", median(&m.step_ms).to_string()));
        stamp.push(("host_probe_ms", m.host.median_ms().to_string()));

        values.insert("slo_ok_share", ok as f64 / m.step_ms.len() as f64);
        m
    };
    let converges = training_converges(&m.losses);
    let non_finite = m.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    let total_ms: f64 = m.step_ms.iter().sum();
    stamp.push(("latency_samples", m.step_ms.len().to_string()));
    stamp.push((
        "train_img_per_s",
        (cfg.batch as f64 * m.step_ms.len() as f64 / (total_ms * 1e-3)).to_string(),
    ));
    stamp.push((
        "loss_first_last",
        format!("{} {}", m.losses[0], m.losses[m.losses.len() - 1]),
    ));
    stamp.push((
        "cache_hit_rate",
        "n/a (no serving cache on the training path)".to_string(),
    ));
    stamp.push((
        "tier_mix",
        "n/a (training has no degradation tiers)".to_string(),
    ));
    // A curve that fails the trend check fails the run's last step.
    let failed = non_finite + u64::from(!converges && non_finite == 0);
    Ok(RunReport {
        attempted: m.losses.len() as u64,
        failed,
        correct: converges && non_finite == 0,
        values,
        stamp,
    })
}

fn layer_metrics(s: &Setup, cfg: &Config, m: &Measured, tel: &Telemetry, values: &mut Values) {
    let snap = tel.snapshot();
    let _probe = tel.span("bench.probe");
    let phase = |p: &str| hist_mean(&snap, "apf_train_step_phase_seconds", &[("phase", p)], 1e3);
    values.insert("train.forward_ms", phase("forward"));
    values.insert("train.backward_ms", phase("backward"));
    values.insert("train.optimizer_ms", phase("optimizer"));
    let phases: f64 = ["forward", "backward", "optimizer"]
        .iter()
        .map(|p| hist_sum(&snap, "apf_train_step_phase_seconds", &[("phase", p)]))
        .sum();
    let wall = m.step_ms.iter().sum::<f64>() * 1e-3;
    values.insert(
        "trace.unattributed_share",
        if wall > 0.0 { 1.0 - phases / wall } else { 0.0 },
    );

    let (b, l, d) = (cfg.batch, cfg.model.seq_len(), cfg.model.dim);
    let mut ps = ParamSet::new();
    let encoder = TransformerEncoder::new(&mut ps, "enc", d, cfg.model.depth, cfg.model.heads, 1);
    let decoder = TokenGridDecoder::new(&mut ps, "dec", cfg.model, 2);
    let hidden_in = Tensor::rand_uniform([b, l, d], -1.0, 1.0, 3);
    values.insert(
        "models.unetr_encoder_ms",
        time_ms(|| {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let x = g.constant(hidden_in.clone());
            let (out, _) = encoder.forward_with_skips(&mut g, &bp, x);
            g.value(out).data().len()
        }),
    );
    let stages = cfg.model.stages();
    values.insert(
        "models.unetr_decoder_ms",
        time_ms(|| {
            let mut g = Graph::new();
            let bp = ps.bind(&mut g);
            let hidden: Vec<Var> = (0..=stages)
                .map(|_| g.constant(hidden_in.clone()))
                .collect();
            let y = decoder.forward(&mut g, &bp, &hidden, b, true);
            g.value(y).data().len()
        }),
    );
    // The last fuse convolution of the decoder: 3x3 over the full-resolution
    // token grid.
    let side = cfg.model.grid_side * cfg.model.patch;
    let ch = (cfg.model.decoder_ch >> stages).max(4);
    let x = Tensor::rand_uniform([b, 2 * ch, side, side], -1.0, 1.0, 4);
    let w = Tensor::rand_uniform([ch, 2 * ch, 3, 3], -1.0, 1.0, 5);
    let geom = ConvGeom {
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let conv_ms = time_ms(|| conv2d(&x, &w, None, geom));
    let flops = 2.0 * (b * ch * side * side * 2 * ch * 9) as f64;
    values.insert("tensor.conv_gflops", flops / (conv_ms * 1e-3) / 1e9);

    core_probe(
        &s.images[..s.images.len().min(4)],
        cfg.model.patch,
        Budget::Exactly(l),
        values,
    );
    layer_probe(
        ModelDims {
            dim: d,
            heads: cfg.model.heads,
            patch_dim: cfg.model.patch * cfg.model.patch,
            seq_len: l,
            tokens: l,
            batch: b,
        },
        values,
    );
}
