//! Engine-level behavior of the batch scheduler: batches actually form,
//! repeated slides hit the preprocessing cache, deadline expiry inside the
//! linger window is a typed `Batching`-stage miss while a stall past every
//! member's deadline cancels the forward, an injected NaN stays confined to
//! its batch sample, the budget drop is seeded as documented, and
//! backpressure hints grow once a linger window stands between admission
//! and inference.

use std::time::Duration;

use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_imaging::GrayImage;
use apf_models::cancel::CancelToken;
use apf_models::vit::ViTSegmenter;
use apf_serve::{
    batch_aware_retry_after, BatchConfig, CacheKey, ContentKey, DeadlineStage, FailureReason,
    InferenceFault, InferenceFaultKind, Outcome, SegRequest, ServeConfig, ServeEngine,
    ServeFaultPlan, VariantKey,
};
use apf_tensor::prelude::*;

fn test_image(seed: u64) -> GrayImage {
    GrayImage::from_fn(64, 64, move |x, y| (((x as u64 ^ y as u64) + seed) % 16) as f32 / 15.0)
}

/// A burst of requests against one worker with a generous linger window
/// must be served by *fewer forwards than requests*: the whole point of the
/// scheduler. Every response still completes individually.
#[test]
fn bursts_form_multi_request_batches() {
    let mut cfg = ServeConfig::small_batched(8, 80);
    cfg.workers = 1;
    let engine = ServeEngine::start(cfg);
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
        "8 near-simultaneous requests must share forwards, got {} batches",
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
    let mut cfg = ServeConfig::small_batched(8, 10);
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

/// A request whose deadline dies *inside* the linger window — alive when it
/// joined the forming batch, expired by close — is evicted with the typed
/// `Batching` stage, while its batch-mates are unaffected.
#[test]
fn linger_window_expiry_is_a_typed_batching_eviction() {
    let mut cfg = ServeConfig::small_batched(8, 400);
    cfg.workers = 1;
    let engine = ServeEngine::start(cfg);
    // Seed the batch with an undeadlined request, then give the worker time
    // to pop it and start the 400ms gather.
    let a = engine.submit(SegRequest { id: 1, image: test_image(1), deadline_ms: None });
    std::thread::sleep(Duration::from_millis(50));
    // Joins the forming batch well inside its 100ms deadline; the batch
    // closes ~350ms later, long after that deadline died.
    let b = engine.submit(SegRequest { id: 2, image: test_image(2), deadline_ms: Some(100) });
    let resp_b = b.wait().expect("engine responds");
    assert!(
        matches!(
            resp_b.outcome,
            Outcome::DeadlineExceeded { stage: DeadlineStage::Batching }
        ),
        "expected a Batching-stage deadline miss, got {:?}",
        resp_b.outcome
    );
    let resp_a = a.wait().expect("engine responds");
    assert!(matches!(resp_a.outcome, Outcome::Completed { .. }), "got {:?}", resp_a.outcome);
    let report = engine.shutdown();
    assert_eq!(report.metrics.deadline_batching, 1);
    assert_eq!(report.batch.expect("batch stats").deadline_evictions, 1);
}

/// A NaN injected into one batch member must not leak into the others:
/// attention is block-diagonal per sample and every other layer is
/// token-local, so exactly one response reports `NonFinite` and the rest
/// complete normally.
#[test]
fn injected_nan_stays_confined_to_its_batch_sample() {
    let mut cfg = ServeConfig::small_batched(4, 80);
    cfg.workers = 1;
    cfg.faults = ServeFaultPlan::new(vec![InferenceFault {
        worker: 0,
        nth: 0,
        kind: InferenceFaultKind::NonFiniteOutput,
    }]);
    let engine = ServeEngine::start(cfg);
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
}

/// With batching enabled the retry hint grows by at least one linger
/// window: even an empty queue cannot serve faster than a batch can close.
#[test]
fn retry_hints_account_for_the_linger_window() {
    let plain = ServeEngine::start(ServeConfig::small());
    let batched = ServeEngine::start(ServeConfig::small_batched(4, 50));
    let base = plain.retry_after_hint();
    let hinted = batched.retry_after_hint();
    assert!(
        hinted >= base + 50,
        "batched hint {hinted} must exceed base {base} by the 50ms linger"
    );
    assert_eq!(hinted, batch_aware_retry_after(base, batched.queue_depth(), 4, 50));
    plain.shutdown();
    batched.shutdown();
}

/// Outcomes of requests with `deadlines` (ms) submitted at once to a
/// one-worker engine whose first dispatch stalls 300 ms, past every
/// deadline used below.
fn stalled_outcomes(mut cfg: ServeConfig, deadlines: &[Option<u64>]) -> Vec<Outcome> {
    cfg.workers = 1;
    let stall = InferenceFaultKind::SlowInference { delay_ms: 300 };
    cfg.faults = ServeFaultPlan::none().with_burst(0, 0, 1, stall);
    let engine = ServeEngine::start(cfg);
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
    let cfg = ServeConfig::small_batched(4, 50);
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
