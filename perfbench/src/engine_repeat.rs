//! `engine_repeat`: open-loop Poisson arrivals of a few repeated crops
//! through the batched, cached engine.
//!
//! One generator thread submits through [`ServeEngine::submit`] on a seeded
//! Poisson schedule at a fixed rate; one collector thread waits on the
//! tickets. Latency runs from each request's due time, so a stalled
//! generator shows as latency, and the generator's lateness is reported.
//! The pool holds 8 distinct 64² crops, so after the first few requests
//! every preprocessing lookup hits the content-addressed cache: queue,
//! batch scheduler, cache and per-request graph set-up dominate.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::paip::{PaipConfig, PaipGenerator};
use apf_imaging::GrayImage;
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_serve::{
    BatchConfig, CacheKey, ContentKey, DegradationPolicy, Outcome, PatchCache, SegRequest,
    ServeConfig, ServeEngine, Ticket, Tier, VariantKey,
};
use apf_telemetry::Telemetry;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::layers::{
    batched_forward_probe, core_probe, forward_probe, layer_probe, time_ms, Budget, ModelDims,
};
use crate::oracle::{answer_matches, served_reference, PatchAnswer, Reference, ServedBy};
use crate::report::{RunReport, Values};
use crate::stats::{hist, hist_mean, mean, median, quantile, slice_quantile, tail};
use crate::{
    record_overhead, repeated_setup, traced_split, traced_telemetry, write_trace, Options,
    MODEL_SEED,
};

/// Requests per second of the open loop: about half the rate at which the
/// engine's backlog starts to grow on a busy 2-core x86-64 host, a quarter
/// of it on a quiet one (see README).
pub const RATE: f64 = 2_500.0;

/// Open-loop rate of the smoke runs.
const SMOKE_RATE: f64 = 200.0;

/// Slices of the run whose tails `lat_tail_ms` is taken over. A run
/// answers about 37 500 requests, so each of 25 slices (0.6 s) still holds
/// 1 500 and its tail is a true p99.
const TAIL_SLICES: usize = 25;

/// Which of the slice tails `lat_tail_ms` reports: the 10th percentile, so
/// the tail that recurs in nine slices of ten. A worker descheduled by the
/// shared host for 15 ms delays about 40 answers, enough to set a slice's
/// p99, and such hiccups reach most slices of a busy run; the README lists
/// how far each candidate statistic spread over ten runs.
const TAIL_SLICE_RANK: f64 = 0.1;

#[derive(Debug, Clone, Copy)]
struct Config {
    pool: usize,
    crop: usize,
    slide: usize,
    model: ViTConfig,
    budget: usize,
    max_batch: usize,
    linger_ms: u64,
    queue_capacity: usize,
    slo_ms: f64,
    setup_reps: usize,
}

fn config(smoke: bool) -> Config {
    Config {
        pool: 8,
        crop: 64,
        slide: 1024,
        model: ViTConfig::tiny(16, 64),
        budget: 64,
        max_batch: 16,
        linger_ms: 2,
        queue_capacity: 4096,
        slo_ms: if smoke { 5_000.0 } else { 50.0 },
        // One set-up takes ~20 ms, and its time shifts between levels that
        // last a few hundred milliseconds each; 150 of them span several
        // levels.
        setup_reps: if smoke { 1 } else { 150 },
    }
}

const PATCH: usize = 4;

struct Setup {
    pool: Arc<Vec<GrayImage>>,
    policy: DegradationPolicy,
    /// Full-tier reference of every pool item.
    references: Vec<Reference>,
    engine: ServeEngine,
}

/// Patch counts of the pool's crops, half each. Crops of the tissue
/// region patch to 1, 4 or (rarely) 7 tokens, and the share of 4-token
/// crops ranged 17–57 % over six seeds; a pool drawn freely held one to six
/// of them, and its median latency moved with that mix by up to 25 % from
/// seed to seed. A fixed mix keeps the work the same for every seed, and
/// still mixes lengths in a batch, so the padded, masked forward runs.
const POOL_TOKENS: [usize; 2] = [1, 4];

/// Distinct crops from the tissue region of a seeded PAIP slide, half of
/// them patching to each count of [`POOL_TOKENS`].
fn make_pool(seed: u64, cfg: &Config) -> Vec<GrayImage> {
    let gen = PaipGenerator::new(PaipConfig::at_resolution(cfg.slide).with_seed(seed));
    let patcher =
        AdaptivePatcher::new(PatcherConfig::for_resolution(cfg.crop).with_patch_size(PATCH));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let (lo, hi) = (cfg.slide / 4, cfg.slide * 3 / 4 - cfg.crop);
    let mut pool = Vec::with_capacity(cfg.pool);
    let mut keys = HashSet::new();
    let mut wanted = POOL_TOKENS.map(|_| cfg.pool / POOL_TOKENS.len());
    while pool.len() < cfg.pool {
        let (x, y) = (rng.gen_range(lo..=hi), rng.gen_range(lo..=hi));
        let img = gen.generate_region(0, 0, x, y, cfg.crop, cfg.crop).image;
        let tokens = patcher.try_patchify(&img).map_or(0, |seq| seq.len());
        let Some(k) = POOL_TOKENS.iter().position(|&t| t == tokens) else {
            continue;
        };
        if wanted[k] > 0 && keys.insert(ContentKey::of_image(&img)) {
            wanted[k] -= 1;
            pool.push(img);
        }
    }
    pool
}

fn setup(seed: u64, cfg: &Config, tel: &Telemetry) -> Setup {
    let pool = make_pool(seed, cfg);
    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
    let policy = DegradationPolicy {
        full_len: cfg.budget,
        reduced_len: cfg.budget / 2,
        ..DegradationPolicy::default()
    };
    let seq_len = cfg.model.seq_len;
    let references = pool
        .iter()
        .map(|img| {
            served_reference(
                &model,
                img,
                PATCH,
                Tier::Full,
                &policy,
                seq_len,
                ServedBy::Batch,
            )
        })
        .collect();
    let engine = ServeEngine::start(ServeConfig {
        workers: 2,
        queue_capacity: cfg.queue_capacity,
        patch_size: PATCH,
        model: cfg.model,
        model_seed: MODEL_SEED,
        policy: policy.clone(),
        batch: BatchConfig::enabled(cfg.max_batch, cfg.linger_ms),
        telemetry: tel.clone(),
        ..ServeConfig::small()
    });
    Setup {
        pool: Arc::new(pool),
        policy,
        references,
        engine,
    }
}

/// Seeded Poisson arrival offsets (seconds) over `seconds`, with the pool
/// index each arrival requests.
fn schedule(seed: u64, rate: f64, seconds: f64, pool: usize) -> Vec<(f64, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA11);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t, rng.gen_range(0..pool)));
    }
}

#[derive(Debug, Clone, Copy)]
struct Record {
    item: usize,
    /// Due time, seconds from the window start.
    due_s: f64,
    /// Due time to response, milliseconds.
    latency_ms: f64,
    /// How far behind schedule the generator submitted, milliseconds.
    late_ms: f64,
    answer: Option<PatchAnswer>,
    tier: Tier,
}

struct Measured {
    records: Vec<Record>,
    repeat_share: f64,
}

fn measure(s: &Setup, seed: u64, rate: f64, seconds: f64, tel: &Telemetry) -> Measured {
    let plan = schedule(seed, rate, seconds, s.pool.len());
    let mut seen = HashSet::new();
    let repeats = plan.iter().filter(|(_, item)| !seen.insert(*item)).count();
    let expected = plan.len();
    let repeat_share = repeats as f64 / plan.len().max(1) as f64;
    let (tx, rx) = mpsc::channel::<(usize, f64, f64, Ticket)>();
    let records = thread::scope(|sc| {
        let collector = sc.spawn(move || {
            let mut records = Vec::with_capacity(expected);
            records.extend(rx.into_iter().map(|(item, due_s, late_ms, ticket)| {
                let resp = ticket.wait().expect("the engine answers every submission");
                let answer = match resp.outcome {
                    Outcome::Completed {
                        tokens,
                        positive_fraction,
                    } => Some(PatchAnswer {
                        tokens: tokens as u64,
                        positive_fraction,
                    }),
                    _ => None,
                };
                Record {
                    item,
                    due_s,
                    latency_ms: late_ms + resp.latency_ms,
                    late_ms,
                    answer,
                    tier: resp.tier,
                }
            }));
            records
        });
        let start = Instant::now();
        for (k, &(at, item)) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let late_ms = due.elapsed().as_secs_f64() * 1e3;
            let _span = tel.span_id("bench.submit", k as u64);
            let ticket = s.engine.submit(SegRequest {
                id: k as u64,
                image: s.pool[item].clone(),
                deadline_ms: None,
            });
            tx.send((item, at, late_ms, ticket))
                .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    Measured {
        records,
        repeat_share,
    }
}

/// Checks every answer against the reference of its pool item at the tier
/// it was served at. Batches pad shorter members up to the longest, so
/// answers compare as padded ones (see [`answer_matches`]).
fn verdicts(s: &Setup, cfg: &Config, m: &Measured) -> Vec<bool> {
    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
    let mut degraded = std::collections::HashMap::new();
    m.records
        .iter()
        .map(|r| {
            r.answer.is_some_and(|a| {
                let reference = if r.tier == Tier::Full {
                    s.references[r.item]
                } else {
                    *degraded.entry((r.item, r.tier.rank())).or_insert_with(|| {
                        let img = &s.pool[r.item];
                        served_reference(
                            &model,
                            img,
                            PATCH,
                            r.tier,
                            &s.policy,
                            cfg.model.seq_len,
                            ServedBy::Batch,
                        )
                    })
                };
                answer_matches(a, &reference, true)
            })
        })
        .collect()
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
    let rate = if opts.smoke { SMOKE_RATE } else { RATE };
    let mut values = Values::new();
    let mut stamp = vec![
        ("model", format!("{:?}", cfg.model)),
        (
            "input",
            format!(
                "pool of {0} distinct {1}x{1} PAIP crops, repeated",
                cfg.pool, cfg.crop
            ),
        ),
        (
            "load",
            format!("open loop, Poisson {rate} req/s, 1 generator + 1 collector thread"),
        ),
        (
            "engine",
            format!(
                "2 workers, batching max {} linger {} ms, cache on",
                cfg.max_batch, cfg.linger_ms
            ),
        ),
        ("slo_ms", cfg.slo_ms.to_string()),
    ];
    let (s, m) = if opts.trace {
        let (untraced_s, traced_s) = traced_split(opts.seconds);
        let base = setup(opts.seed, &cfg, &Telemetry::disabled());
        let m0 = measure(&base, opts.seed, rate, untraced_s, &Telemetry::disabled());
        base.engine.shutdown();
        let tel = traced_telemetry();
        let s = setup(opts.seed, &cfg, &tel);
        let m = measure(&s, opts.seed, rate, traced_s, &tel);
        record_overhead(&mut values, mean(&latencies(&m0)), mean(&latencies(&m)));
        layer_metrics(&s, &cfg, &m, &tel, &mut values);
        let trace = write_trace(opts, &tel)?;
        stamp.push(("trace_file", trace.display().to_string()));
        (s, m)
    } else {
        let (s, setup_s) = repeated_setup(cfg.setup_reps, || {
            Ok(setup(opts.seed, &cfg, &Telemetry::disabled()))
        })?;
        values.insert("setup_s", setup_s);
        let m = measure(&s, opts.seed, rate, opts.seconds, &Telemetry::disabled());
        (s, m)
    };
    let verdict = verdicts(&s, &cfg, &m);
    let cache = s.engine.cache_stats().unwrap_or_default();
    let batch = s.engine.batch_stats();
    let report = s.engine.shutdown();
    let lat = latencies(&m);
    if !opts.trace {
        let ok = m
            .records
            .iter()
            .zip(&verdict)
            .filter(|(r, v)| **v && r.tier == Tier::Full && r.latency_ms <= cfg.slo_ms)
            .count();
        // Correct answers completed inside the window, per second of it.
        let done = m
            .records
            .iter()
            .zip(&verdict)
            .filter(|(r, v)| **v && r.due_s + r.latency_ms / 1e3 < opts.seconds)
            .count();
        values.insert("lat_p50_ms", median(&lat));
        values.insert(
            "lat_tail_ms",
            slice_quantile(&lat, TAIL_SLICES, TAIL_SLICE_RANK, tail),
        );
        values.insert("ops_per_s", done as f64 / opts.seconds);
        values.insert("slo_ok_share", ok as f64 / m.records.len().max(1) as f64);
    }
    let late: Vec<f64> = m.records.iter().map(|r| r.late_ms).collect();
    stamp.push(("latency_samples", lat.len().to_string()));
    stamp.push(("cache_hit_rate", cache.hit_rate().to_string()));
    stamp.push(("repeat_share", m.repeat_share.to_string()));
    stamp.push((
        "generator_late_ms_p50_p99",
        format!("{} {}", median(&late), quantile(&late, 0.99)),
    ));
    stamp.push((
        "tier_mix",
        format!(
            "full {} reduced {} coarse {}",
            report.metrics.tier_full, report.metrics.tier_reduced, report.metrics.tier_coarse
        ),
    ));
    if let Some(b) = batch {
        stamp.push(("batch_occupancy_mean", b.mean_occupancy.to_string()));
    }
    let failed = verdict.iter().filter(|v| !**v).count() as u64;
    Ok(RunReport {
        attempted: m.records.len() as u64,
        failed,
        correct: failed == 0 && !m.records.is_empty(),
        values,
        stamp,
    })
}

fn layer_metrics(s: &Setup, cfg: &Config, m: &Measured, tel: &Telemetry, values: &mut Values) {
    let snap = tel.snapshot();
    let _probe = tel.span("bench.probe");
    let metrics = s.engine.metrics();
    let cache = s.engine.cache_stats().unwrap_or_default();
    let batch = s.engine.batch_stats();
    let occupancy = batch.as_ref().map_or(0.0, |b| b.mean_occupancy);
    values.insert("batch.occupancy_mean", occupancy);
    values.insert(
        "batch.forwards",
        batch.as_ref().map_or(0.0, |b| b.batches as f64),
    );
    let linger = hist_mean(&snap, "apf_serve_batch_linger_seconds", &[], 1e3);
    values.insert("batch.linger_ms", linger);
    values.insert("cache.hit_rate", cache.hit_rate());
    values.insert("cache.coalesced", cache.coalesced as f64);
    values.insert("cache.evictions", cache.evictions as f64);
    values.insert("cache.repeat_share", m.repeat_share);
    let late: Vec<f64> = m.records.iter().map(|r| r.late_ms).collect();
    values.insert("gen.late_p50_ms", median(&late));
    values.insert("gen.late_p99_ms", quantile(&late, 0.99));
    values.insert("tier.full", metrics.tier_full as f64);
    values.insert("tier.reduced", metrics.tier_reduced as f64);
    values.insert("tier.coarse", metrics.tier_coarse as f64);

    let admission = hist_mean(&snap, "apf_serve_admission_latency_seconds", &[], 1e3);
    let queue = hist(&snap, "apf_serve_queue_wait_seconds", &[]);
    let queue_mean = queue.as_ref().map_or(0.0, |h| h.mean() * 1e3);
    // Per batch: every member waits for the whole padded forward.
    let inference = hist_mean(&snap, "apf_serve_inference_latency_seconds", &[], 1e3);
    let client = mean(&latencies(m));
    // The seed of a batch waits the whole linger window, later members part
    // of it; with arrivals spread evenly over the window a member waits
    // half of it on average.
    let k = occupancy.max(1.0);
    let linger_share = (1.0 + (k - 1.0) / 2.0) / k;
    let unattributed =
        client - mean(&late) - admission - queue_mean - linger_share * linger - inference;
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

    // A cache hit, standalone: the pool's first crop, already resident.
    let key = CacheKey {
        content: ContentKey::of_image(&s.pool[0]),
        variant: VariantKey {
            tier_rank: 0,
            patch_size: PATCH as u16,
            budget: cfg.budget as u32,
            coarse_leaf: 16,
        },
    };
    let probe_cache = PatchCache::new(1 << 20, &Telemetry::disabled());
    let build = || {
        AdaptivePatcher::new(PatcherConfig::for_resolution(cfg.crop).with_patch_size(PATCH))
            .try_patchify(&s.pool[0])
    };
    probe_cache.get_or_build(key, build).expect("valid crop");
    let lookup_ms = time_ms(|| probe_cache.get_or_build(key, build).expect("resident").1);
    values.insert("cache.lookup_us", lookup_ms * 1e3);

    let tokens: Vec<f64> = m
        .records
        .iter()
        .filter_map(|r| r.answer.map(|a| a.tokens as f64))
        .collect();
    let served_l = median(&tokens).round().max(1.0) as usize;
    core_probe(&s.pool, PATCH, Budget::AtMost(cfg.budget), values);
    let model = ViTSegmenter::new(cfg.model, MODEL_SEED);
    forward_probe(&model, PATCH * PATCH, served_l, values);
    batched_forward_probe(
        &model,
        PATCH * PATCH,
        served_l,
        occupancy.round().max(1.0) as usize,
        values,
    );
    layer_probe(
        ModelDims {
            dim: cfg.model.dim,
            heads: cfg.model.heads,
            patch_dim: PATCH * PATCH,
            seq_len: cfg.model.seq_len,
            tokens: served_l,
            batch: occupancy.round().max(1.0) as usize,
        },
        values,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_swapped_pool_answer_is_flagged() {
        let cfg = config(false);
        let s = setup(1, &cfg, &Telemetry::disabled());
        s.engine.shutdown();
        let refs = &s.references;
        assert!(refs.iter().all(|r| answer_matches(r.answer, r, true)));
        let mut tokens: Vec<u64> = refs.iter().map(|r| r.answer.tokens).collect();
        tokens.sort_unstable();
        assert_eq!(
            tokens,
            [1, 1, 1, 1, 4, 4, 4, 4],
            "the pool's token mix is fixed"
        );
        // Every pair of pool items whose answers differ: handing one
        // item's answer to the other's request must fail the oracle.
        let mut distinct_pairs = 0;
        for (i, a) in refs.iter().enumerate() {
            for b in &refs[i + 1..] {
                if a.answer != b.answer {
                    distinct_pairs += 1;
                    assert!(!answer_matches(a.answer, b, true), "{a:?} vs {b:?}");
                    assert!(!answer_matches(b.answer, a, true), "{b:?} vs {a:?}");
                }
            }
        }
        assert!(distinct_pairs > 0, "the pool's answers differ: {refs:?}");
    }

    #[test]
    fn schedule_is_seeded_and_poisson_shaped() {
        let a = schedule(9, 1000.0, 2.0, 8);
        assert_eq!(a.len(), schedule(9, 1000.0, 2.0, 8).len());
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_ne!(a[0].0, schedule(10, 1000.0, 2.0, 8)[0].0);
    }
}
