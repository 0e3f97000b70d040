//! Engine-level behavior of the batch scheduler: batches form from what is
//! already queued, repeated slides hit the preprocessing cache, a request
//! that expires while queued is a typed `Queued`-stage miss that is never
//! forwarded while a stall past every member's deadline cancels the
//! forward, an injected NaN stays confined to its batch sample, the budget
//! drop is seeded as documented, batching leaves the backpressure hint
//! alone, and a lone request never waits for company.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use apf_core::fault::{Fault, FaultPlan};
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::vit::ViTSegmenter;
use apf_serve::engine::load_aware_retry_after;
use apf_serve::{
    BatchConfig, CacheKey, ContentKey, DeadlineStage, FailureReason, InferenceFaultKind, Outcome,
    SegRequest, ServeConfig, ServeEngine, SlideRequest, VariantKey,
};
use apf_tensor::prelude::*;

fn test_image(seed: u64) -> GrayImage {
    GrayImage::from_fn(64, 64, move |x, y| (((x as u64 ^ y as u64) + seed) % 16) as f32 / 15.0)
}

/// Starts a one-worker engine whose first dispatch, a blocker, stalls
/// `blocker_ms`, and returns once the worker has taken it. Requests
/// submitted next sit in the queue together, so the worker gathers them as
/// one batch when the stall ends. The blocker is a slide request: a slide
/// never gathers company, so no member can slip into its dispatch. Its file
/// does not exist, so it is answered `InvalidInput` after the stall. `later`
/// schedules worker 0's faults from its second dispatch on.
fn engine_behind_blocker(
    mut cfg: ServeConfig,
    blocker_ms: u64,
    later: &[(u64, InferenceFaultKind)],
) -> ServeEngine {
    cfg.workers = 1;
    let stall = InferenceFaultKind::SlowInference { delay_ms: blocker_ms };
    let mut faults = vec![Fault { lane: 0, nth: 0, kind: stall }];
    faults.extend(later.iter().map(|&(nth, kind)| Fault { lane: 0, nth, kind }));
    cfg.faults = FaultPlan::new(faults);
    let engine = ServeEngine::start(cfg);
    let missing = PathBuf::from("no-such-slide.apt");
    let blocker = SlideRequest::serial(u64::MAX, missing.clone(), missing, 64, 8, 1 << 20, None);
    drop(engine.submit_slide(blocker));
    while engine.queue_depth() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    engine
}

/// A burst of requests queued together against one worker must be served
/// by *fewer forwards than requests*: the whole point of the scheduler.
/// Every response still completes individually.
#[test]
fn bursts_form_multi_request_batches() {
    let engine = engine_behind_blocker(ServeConfig::small_batched(8), 100, &[]);
    let tickets: Vec<_> = (0..8)
        .map(|i| engine.submit(SegRequest { id: i, image: test_image(i), deadline_ms: None }))
        .collect();
    for t in tickets {
        let resp = t.wait().expect("engine responds");
        assert!(matches!(resp.outcome, Outcome::Completed { .. }), "got {:?}", resp.outcome);
    }
    let report = engine.shutdown();
    let batch = report.batch.expect("batched engine reports batch stats");
    assert_eq!(batch.batched_requests, 8);
    assert!(
        batch.batches < 8,
        "8 queued requests must share forwards, got {} batches",
        batch.batches
    );
    assert!(batch.max_occupancy >= 2, "max occupancy {}", batch.max_occupancy);
    assert!(batch.mean_occupancy > 1.0, "mean occupancy {}", batch.mean_occupancy);
    assert_eq!(report.metrics.completed, 8);
    assert!(report.cache.is_some());
}

/// A repeated-slide workload: the same pixels submitted over and over hit
/// the content-addressed cache after the first build (>= 90% hit rate, the
/// serving acceptance bar).
#[test]
fn repeated_slides_hit_the_preprocessing_cache() {
    let mut cfg = ServeConfig::small_batched(8);
    // Deep queue keeps every request below the degradation threshold, so
    // all 20 share one (content, variant) cache key.
    cfg.queue_capacity = 64;
    let engine = ServeEngine::start(cfg);
    let image = test_image(42);
    let tickets: Vec<_> = (0..20)
        .map(|i| engine.submit(SegRequest { id: i, image: image.clone(), deadline_ms: None }))
        .collect();
    for t in tickets {
        let resp = t.wait().expect("engine responds");
        assert!(matches!(resp.outcome, Outcome::Completed { .. }), "got {:?}", resp.outcome);
    }
    let stats = engine.cache_stats().expect("batched engine exposes cache stats");
    assert_eq!(stats.misses, 1, "one build for one distinct slide, stats {stats:?}");
    assert!(
        stats.hit_rate() >= 0.90,
        "repeated slides must reach >= 90% hit rate, got {:.3}",
        stats.hit_rate()
    );
    let report = engine.shutdown();
    assert_eq!(report.cache.expect("cache stats in report").misses, 1);
}

/// A request that expires while queued behind a stalled dispatch is
/// answered `DeadlineExceeded { stage: Queued }` when the worker gathers it,
/// and is never forwarded: its batch-mate completes alone, and the batch
/// counters do not count it.
#[test]
fn a_request_expired_in_the_queue_is_never_forwarded() {
    let engine = engine_behind_blocker(ServeConfig::small_batched(8), 200, &[]);
    let a = engine.submit(SegRequest { id: 1, image: test_image(1), deadline_ms: None });
    // Dies ~150 ms before the stall ends and the worker gathers it.
    let b = engine.submit(SegRequest { id: 2, image: test_image(2), deadline_ms: Some(50) });
    let resp_b = b.wait().expect("engine responds");
    assert_eq!(resp_b.outcome, Outcome::DeadlineExceeded { stage: DeadlineStage::Queued });
    let resp_a = a.wait().expect("engine responds");
    assert!(matches!(resp_a.outcome, Outcome::Completed { .. }), "got {:?}", resp_a.outcome);
    let report = engine.shutdown();
    assert_eq!(report.metrics.deadline_queued, 1);
    let batch = report.batch.expect("batch stats");
    assert_eq!((batch.batches, batch.batched_requests), (1, 1), "{batch:?}");
}

/// A NaN injected into one batch member must not leak into the others:
/// attention is block-diagonal per sample and every other layer is
/// token-local, so exactly one response reports `NonFinite` and the rest
/// complete normally.
#[test]
fn injected_nan_stays_confined_to_its_batch_sample() {
    let nan = (1, InferenceFaultKind::NonFiniteOutput);
    let engine = engine_behind_blocker(ServeConfig::small_batched(4), 100, &[nan]);
    let tickets: Vec<_> = (0..4)
        .map(|i| engine.submit(SegRequest { id: i, image: test_image(i), deadline_ms: None }))
        .collect();
    let mut non_finite = 0;
    let mut completed = 0;
    for t in tickets {
        match t.wait().expect("engine responds").outcome {
            Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput } => non_finite += 1,
            Outcome::Completed { .. } => completed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(non_finite, 1, "the fault poisons exactly one sample");
    assert_eq!(completed, 3, "batch-mates of the poisoned sample still complete");
    let batch = engine.shutdown().batch.expect("batch stats");
    assert_eq!(batch.max_occupancy, 4, "the four requests must share one forward: {batch:?}");
}

/// Batching leaves the backpressure hint alone: a batched engine and a
/// plain one give the same hint at equal queue depth, idle or backed up.
#[test]
fn batching_leaves_the_retry_hint_unchanged() {
    let plain = engine_behind_blocker(ServeConfig::small(), 300, &[]);
    let batched = engine_behind_blocker(ServeConfig::small_batched(4), 300, &[]);
    assert_eq!(batched.retry_after_hint(), plain.retry_after_hint());
    let mut tickets = Vec::new();
    for id in 0..6 {
        for engine in [&plain, &batched] {
            tickets.push(engine.submit(SegRequest { id, image: test_image(id), deadline_ms: None }));
        }
    }
    assert_eq!((plain.queue_depth(), batched.queue_depth()), (6, 6));
    let hint = plain.retry_after_hint();
    assert_eq!(hint, load_aware_retry_after(25, 6, 16));
    assert!(hint > 25, "a backed-up queue must raise the hint");
    assert_eq!(batched.retry_after_hint(), hint);
    plain.shutdown();
    batched.shutdown();
}

/// Outcomes of requests with `deadlines` (ms) queued together behind a
/// 50 ms blocker on a one-worker engine, whose next dispatch stalls 300 ms,
/// past every deadline used below. The deadlines are still alive when the
/// worker gathers the requests.
fn stalled_outcomes(cfg: ServeConfig, deadlines: &[Option<u64>]) -> Vec<Outcome> {
    let stall = (1, InferenceFaultKind::SlowInference { delay_ms: 300 });
    let engine = engine_behind_blocker(cfg, 50, &[stall]);
    let submit = |(id, &deadline_ms)| {
        engine.submit(SegRequest { id, image: test_image(id), deadline_ms })
    };
    let tickets: Vec<_> = (0..).zip(deadlines).map(submit).collect();
    tickets.into_iter().map(|t| t.wait().expect("engine responds").outcome).collect()
}

const CANCELLED: Outcome =
    Outcome::DeadlineExceeded { stage: DeadlineStage::Inference { completed_blocks: 0 } };

/// At the default batches of one, a stall past the deadline cancels the
/// forward before its first encoder block.
#[test]
fn default_engine_cancels_a_forward_whose_deadline_passed() {
    assert_eq!(stalled_outcomes(ServeConfig::small(), &[Some(150)]), [CANCELLED]);
}

/// A batch is cancelled only once every member has expired, and then every
/// member reports the `Inference` stage; one member without a deadline
/// carries the whole batch to completion.
#[test]
fn a_batch_is_cancelled_only_when_every_member_has_expired() {
    let cfg = ServeConfig::small_batched(4);
    assert_eq!(stalled_outcomes(cfg.clone(), &[Some(150); 3]), [CANCELLED; 3]);
    let outcomes = stalled_outcomes(cfg, &[Some(150), None, Some(150)]);
    assert!(
        outcomes.iter().all(|o| matches!(o, Outcome::Completed { .. })),
        "got {outcomes:?}"
    );
}

/// A Full-tier request over its token budget is served bit-identically to
/// the offline forward on `fixed_length(budget, seed)`, where the seed is
/// the request id without a cache and the content key's with one.
#[test]
fn budget_drop_is_seeded_by_request_id_without_a_cache_and_by_content_with_one() {
    let image = GrayImage::from_fn(64, 64, |x, y| (((x / 3) ^ (y / 5)) & 1) as f32);
    let (id, budget) = (77, 16);
    let mut answers = Vec::new();
    for batch in [BatchConfig::default(), BatchConfig::enabled(1, 0)] {
        let mut cfg = ServeConfig { batch, ..ServeConfig::small() };
        cfg.policy.full_len = budget;
        let engine = ServeEngine::start(cfg.clone());
        let served = engine.submit(SegRequest { id, image: image.clone(), deadline_ms: None });
        let served = served.wait().expect("engine responds").outcome;
        engine.shutdown();
        let pc = PatcherConfig::for_resolution(64).with_patch_size(cfg.patch_size);
        let seq = AdaptivePatcher::new(pc).try_patchify(&image).expect("valid image");
        assert!(seq.len() > budget, "the budget must drop tokens, got {}", seq.len());
        let variant = VariantKey { tier_rank: 0, patch_size: 4, budget: 16, coarse_leaf: 16 };
        let content = ContentKey::of_image(&image);
        let cached = cfg.batch.cache_budget_bytes > 0;
        let drop_seed = if cached { CacheKey { content, variant }.drop_seed() } else { id };
        let seq = seq.fixed_length(budget, drop_seed);
        let model = ViTSegmenter::new(cfg.model, cfg.model_seed);
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(seq.to_tensor().reshape([1, budget, cfg.patch_size * cfg.patch_size]));
        let y = model.forward_cancellable(&mut g, &bp, x, &CancelToken::new()).unwrap();
        let vals = g.value(y).to_vec();
        let positive = vals.iter().filter(|v| **v > 0.0).count();
        let positive_fraction = positive as f32 / vals.len() as f32;
        assert_eq!(served, Outcome::Completed { tokens: budget, positive_fraction });
        answers.push(positive_fraction);
    }
    assert_ne!(answers[0], answers[1], "the two seeds must select different tokens here");
}

/// A lone request on a batched engine completes at once. `enabled`'s
/// second argument once set a linger window; if a worker waited on it
/// again, this 60 s value would blow the 5 s bound.
#[test]
fn a_lone_request_never_waits_for_company() {
    let engine = ServeEngine::start(ServeConfig {
        batch: BatchConfig::enabled(8, 60_000),
        ..ServeConfig::small()
    });
    let t0 = Instant::now();
    let ticket = engine.submit(SegRequest { id: 1, image: test_image(1), deadline_ms: None });
    let outcome = ticket.wait().expect("engine responds").outcome;
    assert!(matches!(outcome, Outcome::Completed { .. }), "got {outcome:?}");
    assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    engine.shutdown();
}
