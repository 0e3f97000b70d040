//! `wire_unique`: every request a distinct crop, over APFW1 on loopback.
//!
//! Two client threads, one [`WireClient`] each, run a closed loop against a
//! [`WireServer`] in front of a two-worker [`ServeEngine`] with batching
//! off, so the solo worker loop serves every request. Each request is a
//! distinct crop cut at a seeded offset from a few PAIP slides generated in
//! set-up, so the preprocessing cache could never hit: wire codec, blur,
//! Canny, quadtree, extract and the solo forward do nearly all the work.

use std::collections::HashSet;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_serve::wire::frame::{read_frame, Frame, FrameKind, DEFAULT_MAX_PAYLOAD};
use apf_serve::{
    ClientConfig, ContentKey, DegradationPolicy, QuotaConfig, QuotaLimit, ServeConfig, ServeEngine,
    WireClient, WireConfig, WireRequest, WireServer, WireStatus,
};
use apf_telemetry::Telemetry;

use crate::calib::HostSpeed;
use crate::layers::{core_probe, forward_probe, layer_probe, time_ms, Budget, ModelDims};
use crate::oracle::{answer_matches, served_reference, tier_of_rank, PatchAnswer, ServedBy};
use crate::report::{RunReport, Values};
use crate::stats::{hist, hist_mean, mean, median, tail};
use crate::{
    record_overhead, repeated_setup, traced_split, traced_telemetry, write_trace, Options,
    MODEL_SEED,
};

/// Sizes of one configuration (full or smoke).
#[derive(Debug, Clone, Copy)]
struct Config {
    crop: usize,
    slide: usize,
    slides: usize,
    model: ViTConfig,
    budget: usize,
    clients: usize,
    slo_ms: f64,
    setup_reps: usize,
}

fn config(smoke: bool) -> Config {
    if smoke {
        Config {
            crop: 64,
            slide: 128,
            slides: 2,
            model: ViTConfig::tiny(16, 64),
            budget: 64,
            clients: 2,
            slo_ms: 5_000.0,
            setup_reps: 1,
        }
    } else {
        Config {
            crop: 512,
            slide: 1024,
            slides: 3,
            model: ViTConfig::small(16, 256),
            budget: 256,
            clients: 2,
            slo_ms: 1_000.0,
            setup_reps: 3,
        }
    }
}

const PATCH: usize = 4;

/// Source slides plus the running front door.
struct Setup {
    slides: Arc<Vec<GrayImage>>,
    engine: Arc<ServeEngine>,
    server: WireServer,
}

impl Setup {
    fn shutdown(self) {
        self.server.drain();
        if let Ok(engine) = Arc::try_unwrap(self.engine) {
            engine.shutdown();
        }
    }
}

fn generate_slides(seed: u64, cfg: &Config) -> Vec<GrayImage> {
    let make = |k: usize| {
        let paip = PaipConfig::at_resolution(cfg.slide)
            .with_seed(seed.wrapping_mul(31).wrapping_add(k as u64));
        PaipGenerator::new(paip).generate(0).image
    };
    thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.slides).map(|k| s.spawn(move || make(k))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("slide generator"))
            .collect()
    })
}

fn policy(cfg: &Config) -> DegradationPolicy {
    DegradationPolicy {
        full_len: cfg.budget,
        reduced_len: cfg.budget / 2,
        ..DegradationPolicy::default()
    }
}

fn setup(seed: u64, cfg: &Config, tel: &Telemetry) -> std::io::Result<Setup> {
    let slides = Arc::new(generate_slides(seed, cfg));
    let engine = Arc::new(ServeEngine::start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        patch_size: PATCH,
        model: cfg.model,
        model_seed: MODEL_SEED,
        policy: policy(cfg),
        telemetry: tel.clone(),
        ..ServeConfig::small()
    }));
    let server = WireServer::start(
        Arc::clone(&engine),
        WireConfig {
            quota: QuotaConfig {
                default_limit: QuotaLimit::unlimited(),
                overrides: vec![],
            },
            telemetry: tel.clone(),
            ..WireConfig::default()
        },
    )?;
    Ok(Setup {
        slides,
        engine,
        server,
    })
}

/// The `i`-th crop of a run: distinct offsets for distinct `i`, drawn by
/// an affine permutation of every (slide, x, y) position the slides offer.
fn crop_offset(seed: u64, i: u64, cfg: &Config) -> (usize, usize, usize) {
    let span = (cfg.slide - cfg.crop + 1) as u64;
    let positions = cfg.slides as u64 * span * span;
    // A stride that is prime and larger than `positions` is coprime to it,
    // so `i -> (a * i + b) mod positions` never repeats within a period.
    const STRIDE: u128 = 2_147_483_647;
    let n = positions as u128;
    let j = ((STRIDE * (i as u128 % n) + seed as u128 % n) % n) as u64;
    let slide = (j / (span * span)) as usize;
    let rest = j % (span * span);
    (slide, (rest % span) as usize, (rest / span) as usize)
}

fn crop(slides: &[GrayImage], seed: u64, i: u64, cfg: &Config) -> GrayImage {
    let (s, x, y) = crop_offset(seed, i, cfg);
    slides[s].crop(x, y, cfg.crop, cfg.crop)
}

/// One attempted request.
#[derive(Debug, Clone)]
struct Record {
    /// Input index (which crop).
    input: u64,
    /// The engine-side request id the answer was computed under.
    id: u64,
    latency_ms: f64,
    answer: Option<(PatchAnswer, u8)>,
    /// Which phase of the loop the request ran in.
    phase: usize,
}

struct Measured {
    records: Vec<Record>,
    retries: u64,
    /// Probes before the first phase and after each one.
    host: HostSpeed,
    /// Wall time of each phase, from the clients' release until the last
    /// one's final answer.
    phase_ms: Vec<f64>,
}

/// Length of one phase of the closed loop. Between phases both clients
/// wait while the host's speed is probed on both cores ([`crate::calib`]);
/// busy and quiet spells of the host last seconds, so a phase sees the
/// speed its neighbouring probes measured.
const PHASE_S: f64 = 0.5;

/// How this workload's request time follows the two-core probe: over ten
/// runs across quiet and busy spells, the raw median grew as the probe time
/// to the power 0.51 (log-log fit; the probe's arithmetic suffers more from
/// a busy host than the socket, image and thread hand-off work here does).
const ELASTICITY: f64 = 0.5;

fn measure(
    s: &Setup,
    seed: u64,
    cfg: &Config,
    seconds: f64,
    tel: &Telemetry,
    first_input: u64,
) -> Measured {
    let addr = s.server.local_addr();
    let next = AtomicU64::new(first_input);
    let phases = (seconds / PHASE_S).ceil().max(1.0) as usize;
    let phase = Duration::from_secs_f64(seconds / phases as f64);
    // The clients and the probing thread meet at the start and end of each
    // phase.
    let gate = Barrier::new(cfg.clients + 1);
    let mut host = HostSpeed::new(ELASTICITY);
    let mut phase_ms = Vec::with_capacity(phases);
    let per_client: Vec<(Vec<Record>, u64)> = thread::scope(|sc| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let next = &next;
                let slides = &s.slides;
                let gate = &gate;
                sc.spawn(move || {
                    let mut client = WireClient::connect(
                        addr,
                        ClientConfig {
                            seed: seed ^ (c as u64 + 1),
                            read_timeout_ms: 30_000,
                            attempt_budget_ms: 60_000,
                            max_attempts: 3,
                            telemetry: tel.clone(),
                            ..ClientConfig::default()
                        },
                    );
                    let mut out = Vec::new();
                    for p in 0..phases {
                        gate.wait();
                        let end = Instant::now() + phase;
                        while Instant::now() < end {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let img = crop(slides, seed, i, cfg);
                            let request = WireRequest::Segment {
                                deadline_ms: 0,
                                width: img.width() as u32,
                                height: img.height() as u32,
                                pixels: img.into_data(),
                            };
                            let _span = tel.span_id("bench.wire_request", i);
                            let t0 = Instant::now();
                            let result = client.call(&request);
                            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                            let answer = match result {
                                Ok(WireStatus::Ok {
                                    tokens,
                                    positive_fraction,
                                    tier,
                                }) => Some((
                                    PatchAnswer {
                                        tokens,
                                        positive_fraction,
                                    },
                                    tier,
                                )),
                                _ => None,
                            };
                            // The answering attempt's frame id is the request id.
                            let id = client.stats().attempts - 1;
                            out.push(Record {
                                input: i,
                                id,
                                latency_ms,
                                answer,
                                phase: p,
                            });
                        }
                        gate.wait();
                    }
                    (out, client.stats().retries)
                })
            })
            .collect();
        for _ in 0..phases {
            host.probe_cores();
            gate.wait();
            let t0 = Instant::now();
            gate.wait();
            phase_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        host.probe_cores();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let retries = per_client.iter().map(|(_, r)| r).sum();
    let records: Vec<Record> = per_client.into_iter().flat_map(|(r, _)| r).collect();
    Measured {
        records,
        retries,
        host,
        phase_ms,
    }
}

/// Checks every answer against its offline reference and collects every
/// input's content key (two threads, after the engine stopped). Returns
/// the per-record verdicts and whether no two inputs shared a content key.
fn verify(slides: &[GrayImage], seed: u64, cfg: &Config, records: &[Record]) -> (Vec<bool>, bool) {
    let checked: Vec<(ContentKey, bool)> = thread::scope(|sc| {
        let chunk = records.len().div_ceil(2).max(1);
        let handles: Vec<_> = records
            .chunks(chunk)
            .map(|part| {
                sc.spawn(move || {
                    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
                    let policy = policy(cfg);
                    part.iter()
                        .map(|r| {
                            let img = crop(slides, seed, r.input, cfg);
                            let ok = r.answer.is_some_and(|(served, tier)| {
                                let path = ServedBy::Solo { id: r.id };
                                let tier = tier_of_rank(tier);
                                let seq_len = cfg.model.seq_len;
                                let reference = served_reference(
                                    &model, &img, PATCH, tier, &policy, seq_len, path,
                                );
                                answer_matches(served, &reference, false)
                            });
                            (ContentKey::of_image(&img), ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    let distinct = checked.iter().map(|(k, _)| k).collect::<HashSet<_>>().len() == checked.len();
    (checked.into_iter().map(|(_, ok)| ok).collect(), distinct)
}

fn latencies(m: &Measured) -> Vec<f64> {
    m.records
        .iter()
        .filter(|r| r.answer.is_some())
        .map(|r| r.latency_ms)
        .collect()
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
                "{0}x{0} crops of {1} PAIP {2}x{2} slides, all distinct",
                cfg.crop, cfg.slides, cfg.slide
            ),
        ),
        (
            "load",
            format!(
                "closed loop, {} clients, 1 connection each, APFW1 loopback",
                cfg.clients
            ),
        ),
        (
            "engine",
            format!("2 workers, batching off, token budget {}", cfg.budget),
        ),
        ("slo_ms", cfg.slo_ms.to_string()),
    ];
    let (records, distinct, verdicts) = if opts.trace {
        let (untraced_s, traced_s) = traced_split(opts.seconds);
        let base = setup(opts.seed, &cfg, &Telemetry::disabled())?;
        let m0 = measure(
            &base,
            opts.seed,
            &cfg,
            untraced_s,
            &Telemetry::disabled(),
            0,
        );
        base.shutdown();
        let tel = traced_telemetry();
        let s = setup(opts.seed, &cfg, &tel)?;
        let m = measure(&s, opts.seed, &cfg, traced_s, &tel, m0.records.len() as u64);
        let metrics = s.engine.metrics();
        let slides = Arc::clone(&s.slides);
        s.shutdown();
        record_overhead(&mut values, mean(&latencies(&m0)), mean(&latencies(&m)));
        let (verdicts, distinct) = verify(&slides, opts.seed, &cfg, &m.records);
        layer_metrics(&slides, opts.seed, &cfg, &m, &tel, &mut values);
        values.insert("tier.full", metrics.tier_full as f64);
        values.insert("tier.reduced", metrics.tier_reduced as f64);
        values.insert("tier.coarse", metrics.tier_coarse as f64);
        values.insert("batch.occupancy_mean", 1.0);
        values.insert("batch.forwards", metrics.completed as f64);
        let trace = write_trace(opts, &tel)?;
        stamp.push(("trace_file", trace.display().to_string()));
        (m.records, distinct, verdicts)
    } else {
        let (s, setup_s) = repeated_setup(cfg.setup_reps, || {
            setup(opts.seed, &cfg, &Telemetry::disabled())
        })?;
        values.insert("setup_s", setup_s);
        let m = measure(&s, opts.seed, &cfg, opts.seconds, &Telemetry::disabled(), 0);
        let metrics = s.engine.metrics();
        let slides = Arc::clone(&s.slides);
        s.shutdown();
        let (verdicts, distinct) = verify(&slides, opts.seed, &cfg, &m.records);
        let scaled: Vec<f64> = m
            .records
            .iter()
            .filter(|r| r.answer.is_some())
            .map(|r| m.host.scale(r.latency_ms, r.phase, r.phase + 1))
            .collect();
        // Completions the oracle accepted, over the phases' time at the
        // reference speed.
        let accepted = verdicts.iter().filter(|v| **v).count();
        let reference_s: f64 = m
            .phase_ms
            .iter()
            .enumerate()
            .map(|(p, &ms)| m.host.scale(ms, p, p + 1) * 1e-3)
            .sum();
        let ok = m
            .records
            .iter()
            .zip(&verdicts)
            .filter(|(r, v)| {
                **v && r.answer.is_some_and(|(_, tier)| tier == 0) && r.latency_ms <= cfg.slo_ms
            })
            .count();
        values.insert("lat_p50_ms", median(&scaled));
        values.insert("lat_tail_ms", tail(&scaled));
        values.insert("ops_per_s", accepted as f64 / reference_s);
        let raw: Vec<f64> = m
            .records
            .iter()
            .filter(|r| r.answer.is_some())
            .map(|r| r.latency_ms)
            .collect();
        stamp.push(("raw_lat_p50_ms", median(&raw).to_string()));
        stamp.push(("host_probe_ms", m.host.median_ms().to_string()));
        let toks: Vec<f64> = m
            .records
            .iter()
            .filter_map(|r| r.answer.map(|(a, _)| a.tokens as f64))
            .collect();
        stamp.push(("tokens_mean", mean(&toks).to_string()));
        values.insert("slo_ok_share", ok as f64 / m.records.len().max(1) as f64);
        stamp.push((
            "tier_mix",
            format!(
                "full {} reduced {} coarse {}",
                metrics.tier_full, metrics.tier_reduced, metrics.tier_coarse
            ),
        ));
        stamp.push(("latency_samples", scaled.len().to_string()));
        (m.records, distinct, verdicts)
    };
    let failed = verdicts.iter().filter(|v| !**v).count() as u64;
    stamp.push((
        "cache_hit_rate",
        "0 (cache off; every input distinct)".to_string(),
    ));
    stamp.push(("repeat_share", "0".to_string()));
    stamp.push(("distinct_content_keys", distinct.to_string()));
    Ok(RunReport {
        attempted: records.len() as u64,
        failed,
        correct: failed == 0 && distinct && !records.is_empty(),
        values,
        stamp,
    })
}

/// Per-layer metrics of the traced phase.
fn layer_metrics(
    slides: &[GrayImage],
    seed: u64,
    cfg: &Config,
    m: &Measured,
    tel: &Telemetry,
    values: &mut Values,
) {
    let snap = tel.snapshot();
    let sample: Vec<GrayImage> = (0..4u64).map(|i| crop(slides, seed, i, cfg)).collect();
    let _probe = tel.span("bench.probe");
    // Wire codec on the same bytes the clients send.
    let (mut enc, mut dec, mut kb) = (vec![], vec![], vec![]);
    for (k, img) in sample.iter().enumerate() {
        let request = WireRequest::Segment {
            deadline_ms: 0,
            width: img.width() as u32,
            height: img.height() as u32,
            pixels: img.data().to_vec(),
        };
        let bytes = Frame::new(FrameKind::Segment, 0, k as u64, request.encode()).encode();
        kb.push(bytes.len() as f64 / 1024.0);
        enc.push(time_ms(|| {
            Frame::new(FrameKind::Segment, 0, k as u64, request.encode()).encode()
        }));
        dec.push(time_ms(|| {
            let frame =
                read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_PAYLOAD).expect("valid frame");
            match WireRequest::decode(frame.kind, &frame.payload).expect("valid payload") {
                WireRequest::Segment {
                    width,
                    height,
                    pixels,
                    ..
                } => GrayImage::try_from_raw(width as usize, height as usize, pixels)
                    .expect("valid image"),
                WireRequest::Slide { .. } => unreachable!("segment frames decode to segments"),
            }
        }));
    }
    let reply = WireStatus::Ok {
        tokens: 1,
        positive_fraction: 0.5,
        tier: 0,
    };
    let reply_ms = time_ms(|| {
        let bytes = Frame::new(FrameKind::Response, 0, 1, reply.encode()).encode();
        let frame = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_PAYLOAD).expect("valid frame");
        WireStatus::decode(&frame.payload).expect("valid status")
    });
    let wire_ms = median(&enc) + median(&dec) + reply_ms;
    values.insert("wire.req_kb", median(&kb));
    values.insert("wire.encode_ms", median(&enc));
    values.insert("wire.decode_ms", median(&dec));
    values.insert("wire.reply_us", reply_ms * 1e3);
    values.insert("wire.retries", m.retries as f64);

    let admission = hist_mean(&snap, "apf_serve_admission_latency_seconds", &[], 1e3);
    let queue = hist(&snap, "apf_serve_queue_wait_seconds", &[]);
    let queue_mean = queue.as_ref().map_or(0.0, |h| h.mean() * 1e3);
    let inference = hist_mean(&snap, "apf_serve_inference_latency_seconds", &[], 1e3);
    let client = mean(&latencies(m));
    let unattributed = client - wire_ms - admission - queue_mean - inference;
    values.insert("engine.admission_ms", admission);
    values.insert(
        "engine.queue_wait_p50_ms",
        queue.as_ref().map_or(0.0, |h| h.quantile(0.5) * 1e3),
    );
    values.insert(
        "engine.queue_wait_p99_ms",
        queue.as_ref().map_or(0.0, |h| h.quantile(0.99) * 1e3),
    );
    values.insert("engine.inference_ms", inference);
    values.insert("engine.unattributed_ms", unattributed);
    values.insert(
        "trace.unattributed_share",
        if client > 0.0 {
            unattributed / client
        } else {
            0.0
        },
    );

    let tokens: Vec<f64> = m
        .records
        .iter()
        .filter_map(|r| r.answer.map(|(a, _)| a.tokens as f64))
        .collect();
    let served_l = median(&tokens).round() as usize;
    core_probe(&sample, PATCH, Budget::AtMost(cfg.budget), values);
    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
    forward_probe(&model, PATCH * PATCH, served_l, values);
    layer_probe(
        ModelDims {
            dim: cfg.model.dim,
            heads: cfg.model.heads,
            patch_dim: PATCH * PATCH,
            seq_len: cfg.model.seq_len,
            tokens: served_l,
            batch: 1,
        },
        values,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crop_offsets_never_repeat_within_a_run() {
        let cfg = config(false);
        let mut seen = HashSet::new();
        for i in 0..20_000 {
            let (s, x, y) = crop_offset(42, i, &cfg);
            assert!(s < cfg.slides && x + cfg.crop <= cfg.slide && y + cfg.crop <= cfg.slide);
            assert!(seen.insert((s, x, y)), "offset repeated at input {i}");
        }
    }
}
