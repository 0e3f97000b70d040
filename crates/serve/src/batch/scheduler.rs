//! The serving worker loop: every request the engine admits is served
//! here. Each worker:
//!
//! 1. **Seeds** a batch with the next queued request (or the carry-over from
//!    the previous window — see below). A seed whose deadline has passed is
//!    answered `DeadlineExceeded { stage: Queued }` without being
//!    dispatched. Slides are dispatched alone immediately: a whole-slide
//!    stitch is minutes of work and would hold a linger window hostage.
//! 2. **Gathers** compatible requests until the batch holds `max_batch`
//!    requests or `batch_linger` has elapsed since the seed, whichever comes
//!    first. Compatible = image payload at the *same degradation tier*; the
//!    first incompatible pop becomes the seed of the next batch (the queue
//!    has no push-front, so the scheduler carries it across iterations). At
//!    the default `max_batch` 1 / linger 0 nothing is gathered.
//! 3. **Evicts**, when the batch lingered, members whose deadline expired
//!    while it formed, responding with `DeadlineExceeded { stage: Batching }`
//!    — one stale request never rides (or delays) a fresh batch.
//! 4. **Runs** one padded multi-request forward: sequences come from the
//!    content-addressed [`PatchCache`] when one is configured, are padded to
//!    the batch's longest length, and a per-request key-padding mask keeps
//!    padding out of every sample's attention. Attention is block-diagonal
//!    per sample, so each response equals its solo forward (bit-exact when
//!    nothing is padded, e.g. any batch of one).
//!
//! Deadlines also bind mid-forward: the forward's cancel token carries the
//! latest member deadline (none if any member has none), so the encoder
//! stops between blocks only once every member has expired, and every
//! member is then answered `DeadlineExceeded { stage: Inference }`. A batch
//! of one is therefore cancelled exactly when its request's deadline passes.
//!
//! Fault-injection indexing: `nth` counts *dispatches* on the worker
//! (batches plus slides), which equals requests at batches of one. A
//! `WorkerPanic` fault fails the whole nth batch, which is exactly the
//! blast radius a real mid-forward panic would have.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use apf_core::patchify::PatchSequence;
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_models::cancel::CancelToken;
use apf_models::vit::ViTSegmenter;
use apf_tensor::prelude::*;
use apf_telemetry::{Counter, Histogram, Telemetry, TraceContext};
use serde::Serialize;

use crate::breaker::CircuitBreaker;
use crate::degrade::{coarse_uniform_sequence, Tier};
use crate::engine::{run_slide, Payload, QueuedRequest, ServeConfig, ServeTel, Shared, WorkerReport};
use crate::fault::InferenceFaultKind;
use crate::queue::Popped;
use crate::request::{DeadlineStage, FailureReason, Outcome};

use super::cache::{CacheKey, ContentKey, PatchCache, VariantKey};

/// Exact batch counters shared by all workers, mirrored outside the
/// telemetry registry so reports stay available with telemetry disabled.
#[derive(Debug, Default)]
pub struct BatchStats {
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_occupancy: AtomicU64,
    deadline_evictions: AtomicU64,
    solo_slides: AtomicU64,
}

/// Snapshot of [`BatchStats`] for reports.
#[derive(Debug, Clone, Serialize)]
pub struct BatchStatsSnapshot {
    /// Image forwards executed (a batch of one counts).
    pub batches: u64,
    /// Image requests served through those forwards.
    pub batched_requests: u64,
    /// Largest batch ever executed.
    pub max_occupancy: u64,
    /// Requests evicted from a forming batch by their deadline.
    pub deadline_evictions: u64,
    /// Slide requests dispatched solo (never batched).
    pub solo_slides: u64,
    /// Mean requests per executed batch (0 when no batch ran).
    pub mean_occupancy: f64,
}

impl BatchStats {
    /// Clones the counters into a serializable snapshot.
    pub fn snapshot(&self) -> BatchStatsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        let batched_requests = self.batched_requests.load(Ordering::Relaxed);
        BatchStatsSnapshot {
            batches,
            batched_requests,
            max_occupancy: self.max_occupancy.load(Ordering::Relaxed),
            deadline_evictions: self.deadline_evictions.load(Ordering::Relaxed),
            solo_slides: self.solo_slides.load(Ordering::Relaxed),
            mean_occupancy: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
        }
    }
}

/// Registry handles for the batching hot path; inert when telemetry is
/// disabled. Created once per engine and shared by its workers.
#[derive(Clone)]
pub(crate) struct BatchTel {
    pub(crate) occupancy: Histogram,
    pub(crate) linger_s: Histogram,
    pub(crate) batches: Counter,
    pub(crate) deadline_evictions: Counter,
}

impl BatchTel {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        BatchTel {
            occupancy: tel.histogram(
                "apf_serve_batch_occupancy_count",
                "Requests per executed batch forward",
            ),
            linger_s: tel.histogram(
                "apf_serve_batch_linger_seconds",
                "Time each batch spent forming (seed pop to close)",
            ),
            batches: tel.counter(
                "apf_serve_batches_total",
                "Image forwards executed (a batch of one counts)",
            ),
            deadline_evictions: tel.counter(
                "apf_serve_batch_deadline_evictions_total",
                "Requests evicted from a forming batch by their deadline",
            ),
        }
    }
}

/// Extends a base (quota / queue-load) backoff hint with the delay a new
/// request would actually see under batching: every `max_batch` requests
/// already queued ahead of it is roughly one more linger window before its
/// batch even closes. Monotone non-decreasing in `depth`; with an empty
/// queue only one linger window is added.
pub fn batch_aware_retry_after(
    base_ms: u64,
    depth: usize,
    max_batch: usize,
    batch_linger_ms: u64,
) -> u64 {
    let windows = (depth / max_batch.max(1)) as u64 + 1;
    base_ms.saturating_add(batch_linger_ms.saturating_mul(windows))
}

pub(crate) fn batch_worker_loop(
    idx: usize,
    shared: &Shared,
    cfg: &ServeConfig,
    cache: Option<&PatchCache>,
    btel: &BatchTel,
    stats: &BatchStats,
) -> WorkerReport {
    let model = ViTSegmenter::new(cfg.model, cfg.model_seed);
    let mut breaker = CircuitBreaker::new(cfg.breaker);
    let mut processed: u64 = 0;
    // Fault-plan index: one tick per dispatch (batch or slide).
    let mut dispatches: u64 = 0;
    // Breaker transitions already mirrored into the registry; the breaker
    // itself stays telemetry-free.
    let mut transitions_seen = 0usize;
    // A popped request incompatible with the forming batch; it seeds the
    // next one (the bounded queue has no push-front).
    let mut carry: Option<QueuedRequest> = None;
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    // Without a linger window there is no forming stage to miss a deadline
    // in: an expired member meets the forward's cancel token instead.
    let lingers = cfg.batch.max_batch > 1 && cfg.batch.batch_linger_ms > 0;
    loop {
        // allow() can itself transition (open -> half-open after cooldown).
        let allowed = breaker.allow();
        mirror_transitions(&breaker, &mut transitions_seen, &shared.tm);
        if !allowed {
            // Open breaker: out of rotation for this poll tick.
            thread::sleep(poll);
            continue;
        }
        let seed = match carry.take() {
            Some(q) => q,
            None => match shared.queue.pop_timeout(poll) {
                Popped::Closed => break,
                Popped::Empty => continue,
                Popped::Item(q) => q,
            },
        };
        shared.tm.queue_wait_s.record(seed.submitted.elapsed().as_secs_f64());
        shared.tm.queue_depth.set(shared.queue.len() as f64);
        // Blown already? Don't waste inference on it — and don't blame the
        // worker: deadline misses never feed the breaker.
        if seed.deadline.is_some_and(|d| Instant::now() >= d) {
            let _ctx_guard = seed.trace.map(TraceContext::install);
            let _req_span = shared.tm.tel.span_id("serve.request", seed.payload.id());
            let outcome = Outcome::DeadlineExceeded { stage: DeadlineStage::Queued };
            shared.respond(seed, outcome, Some(idx));
            continue;
        }
        let mut batch = vec![seed];
        if matches!(batch[0].payload, Payload::Image(_)) {
            // Gather: close at max_batch or linger expiry, whichever first.
            let formed_at = Instant::now();
            let close_at = formed_at + Duration::from_millis(cfg.batch.batch_linger_ms);
            while batch.len() < cfg.batch.max_batch {
                let now = Instant::now();
                if now >= close_at {
                    break;
                }
                match shared.queue.pop_timeout(close_at - now) {
                    // Closed-and-drained still has this batch to serve; the
                    // next outer pop observes Closed again and exits.
                    Popped::Closed | Popped::Empty => break,
                    Popped::Item(q) => {
                        shared.tm.queue_wait_s.record(q.submitted.elapsed().as_secs_f64());
                        if q.deadline.is_some_and(|d| Instant::now() >= d) {
                            // Expired before joining any batch: a queue-stage
                            // miss, same as an expired seed.
                            shared.respond(
                                q,
                                Outcome::DeadlineExceeded { stage: DeadlineStage::Queued },
                                Some(idx),
                            );
                            continue;
                        }
                        let compatible =
                            matches!(q.payload, Payload::Image(_)) && q.tier == batch[0].tier;
                        if compatible {
                            batch.push(q);
                        } else {
                            carry = Some(q);
                            break;
                        }
                    }
                }
            }
            shared.tm.queue_depth.set(shared.queue.len() as f64);
            btel.linger_s.record(formed_at.elapsed().as_secs_f64());
            if lingers {
                // Deadline eviction at close: a member that expired while
                // the batch formed is answered typed and dropped, never
                // forwarded.
                let now = Instant::now();
                let (expired, ready): (Vec<_>, Vec<_>) =
                    batch.into_iter().partition(|q| q.deadline.is_some_and(|d| now >= d));
                for q in expired {
                    stats.deadline_evictions.fetch_add(1, Ordering::Relaxed);
                    btel.deadline_evictions.inc();
                    shared.tm.tel.flight("batch_deadline_eviction", || {
                        format!("worker={idx} id={}", q.payload.id())
                    });
                    shared.respond(
                        q,
                        Outcome::DeadlineExceeded { stage: DeadlineStage::Batching },
                        Some(idx),
                    );
                }
                if ready.is_empty() {
                    continue;
                }
                batch = ready;
            }
            btel.batches.inc();
            btel.occupancy.record(batch.len() as f64);
            stats.batches.fetch_add(1, Ordering::Relaxed);
            stats.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
            stats.max_occupancy.fetch_max(batch.len() as u64, Ordering::Relaxed);
        } else {
            stats.solo_slides.fetch_add(1, Ordering::Relaxed);
        }
        let fault = cfg.faults.fault_for(idx, dispatches);
        if fault.is_some() {
            shared.tm.faults_injected.inc();
        }
        dispatches += 1;
        processed += batch.len() as u64;
        // The dispatch's spans join the first member's trace (queue
        // handoff); run_batch installs every other member's trace around
        // its own patchify span.
        let id = batch[0].payload.id();
        let _ctx_guard = batch[0].trace.map(TraceContext::install);
        let _req_span = shared.tm.tel.span_id("serve.request", id);
        let outcomes = {
            let _span = shared.tm.tel.span_id("serve.inference", id);
            let _t = shared.tm.inference_s.start_timer();
            catch_unwind(AssertUnwindSafe(|| match &batch[0].payload {
                Payload::Slide(req) => {
                    vec![run_slide(&model, req, batch[0].deadline, fault, cfg, &shared.tm)]
                }
                Payload::Image(_) => run_batch(&model, &batch, fault, cfg, &shared.tm, cache),
            }))
            .unwrap_or_else(|_| {
                // The contained panic is exactly what the black box exists
                // for: record it, then freeze the preceding window to disk.
                shared.tm.tel.flight("worker_panic", || format!("worker={idx} id={id}"));
                if let Some(dir) = &cfg.flight_dump_dir {
                    let _ = shared.tm.tel.dump_flight(dir, &format!("panic_w{idx}_{id}"));
                }
                vec![Outcome::WorkerFailure { reason: FailureReason::Panicked }; batch.len()]
            })
        };
        // Deadline misses and validation failures indict the request, not
        // the worker.
        if outcomes.iter().any(|o| matches!(o, Outcome::WorkerFailure { .. })) {
            breaker.record_failure();
        } else if outcomes
            .iter()
            .any(|o| matches!(o, Outcome::Completed { .. } | Outcome::SlideCompleted { .. }))
        {
            breaker.record_success();
        }
        mirror_transitions(&breaker, &mut transitions_seen, &shared.tm);
        for (q, outcome) in batch.into_iter().zip(outcomes) {
            shared.respond(q, outcome, Some(idx));
        }
    }
    mirror_transitions(&breaker, &mut transitions_seen, &shared.tm);
    WorkerReport {
        worker: idx,
        processed,
        trips: breaker.trips(),
        recoveries: breaker.recoveries(),
        final_state: breaker.state(),
        transitions: breaker.transitions().to_vec(),
    }
}

/// Mirrors the breaker transitions not yet seen into the registry.
fn mirror_transitions(breaker: &CircuitBreaker, seen: &mut usize, tm: &ServeTel) {
    for t in &breaker.transitions()[*seen..] {
        tm.record_breaker_transition(t.to);
    }
    *seen = breaker.transitions().len();
}

/// One padded multi-request forward over a tier-homogeneous batch of image
/// requests. Runs inside the worker's unwind barrier; a panic here
/// (injected or real) becomes a `WorkerFailure { Panicked }` for every
/// member. Returns one outcome per request, aligned with `batch`.
fn run_batch(
    model: &ViTSegmenter,
    batch: &[QueuedRequest],
    fault: Option<InferenceFaultKind>,
    cfg: &ServeConfig,
    tm: &ServeTel,
    cache: Option<&PatchCache>,
) -> Vec<Outcome> {
    if let Some(InferenceFaultKind::SlowInference { delay_ms }) = fault {
        thread::sleep(Duration::from_millis(delay_ms));
    }
    if let Some(InferenceFaultKind::WorkerPanic) = fault {
        panic!("injected worker panic (fault plan)");
    }
    let pm = cfg.patch_size;
    let tier = batch[0].tier;
    let seqs: Vec<Result<Arc<PatchSequence>, String>> = batch
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let req = match &q.payload {
                Payload::Image(r) => r,
                Payload::Slide(_) => unreachable!("slides are never batched"),
            };
            let budget = cfg
                .policy
                .budget_for(tier, req.image.width())
                .min(cfg.model.seq_len)
                .max(1);
            // The first member's trace is already installed around the
            // dispatch; installing it again would lift its patchify span out
            // from under serve.inference.
            let _ctx_guard = q.trace.filter(|_| i > 0).map(TraceContext::install);
            let _span = tm.tel.span_id("serve.patchify", req.id);
            // The budgeted sequence — the unit the cache memoizes. Budgets
            // are enforced by dropping, never padding: a shorter sequence
            // plus prefix positions is strictly cheaper than padding back to
            // `L`. validate_input already passed at admission, but tier
            // logic must stay total: surface patchify errors, don't panic.
            let img = &req.image;
            let build = |drop_seed| -> Result<PatchSequence, String> {
                let seq = match tier {
                    Tier::Coarse => coarse_uniform_sequence(img, cfg.policy.coarse_leaf, pm),
                    Tier::Full | Tier::Reduced => {
                        let pc = PatcherConfig::for_resolution(img.width()).with_patch_size(pm);
                        // Core stage spans nest inside this request's tree.
                        AdaptivePatcher::with_telemetry(pc, tm.tel.clone())
                            .try_patchify(img)
                            .map_err(|e| e.to_string())?
                    }
                };
                Ok(if seq.len() > budget { seq.fixed_length(budget, drop_seed) } else { seq })
            };
            let Some(cache) = cache else {
                // No cache, no hashing: the drop is seeded by the request id.
                return build(req.id).map(Arc::new);
            };
            // Memoized by content: a repeated slide skips blur, Canny,
            // quadtree, and projection; identical in-flight requests build
            // once (single-flight) even across workers. The drop is seeded
            // by content, so the entry is valid for every requester.
            let key = CacheKey {
                content: ContentKey::of_image(img),
                variant: VariantKey {
                    tier_rank: tier.rank(),
                    patch_size: pm as u16,
                    budget: budget as u32,
                    coarse_leaf: cfg.policy.coarse_leaf,
                },
            };
            cache.get_or_build(key, || build(key.drop_seed())).map(|(seq, _)| seq)
        })
        .collect();
    let mut outcomes: Vec<Option<Outcome>> = seqs
        .iter()
        .map(|s| s.as_ref().err().map(|reason| Outcome::InvalidInput { reason: reason.clone() }))
        .collect();
    let live: Vec<(usize, &Arc<PatchSequence>)> = seqs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.as_ref().ok().map(|seq| (i, seq)))
        .collect();
    if !live.is_empty() {
        let b = live.len();
        let l_max = live.iter().map(|(_, s)| s.len()).max().expect("non-empty live set");
        let d_in = pm * pm;
        let mut data = vec![0.0f32; b * l_max * d_in];
        let mut masks: Vec<Vec<bool>> = Vec::with_capacity(b);
        let mut any_padding = false;
        for (bi, (_, seq)) in live.iter().enumerate() {
            let rows = seq.to_tensor().to_vec();
            data[bi * l_max * d_in..bi * l_max * d_in + rows.len()].copy_from_slice(&rows);
            let mut mask = seq.padding_mask();
            if mask.len() < l_max {
                mask.resize(l_max, false);
            }
            if mask.iter().any(|&real| !real) {
                any_padding = true;
            }
            masks.push(mask);
        }
        if let Some(InferenceFaultKind::NonFiniteOutput) = fault {
            // Poison one activation of the *first* request. Attention is
            // block-diagonal per sample, so the NaN must stay confined to
            // that request's slice — the other members still complete.
            data[0] = f32::NAN;
        }
        // An all-real mask is the identity; skip it so uniform batches (and
        // every batch of one) run the exact unmasked solo graph, bit for bit.
        let key_mask = if any_padding { Some(masks.as_slice()) } else { None };
        // Cancel only once every member has expired: the latest member
        // deadline, or none if any member has none.
        let latest = live.iter().try_fold(None, |acc: Option<Instant>, (i, _)| {
            Some(acc.max(Some(batch[*i].deadline?)))
        });
        let cancel = latest.flatten().map_or_else(CancelToken::new, CancelToken::with_deadline);
        let _fwd_span = tm.tel.span_id("serve.forward", batch[live[0].0].payload.id());
        let mut g = Graph::new();
        let bp = model.params.bind(&mut g);
        let x = g.constant(Tensor::new([b, l_max, d_in], data));
        let y = match model.forward_masked(&mut g, &bp, x, key_mask, &cancel) {
            Ok(y) => y,
            Err(c) => {
                let stage = DeadlineStage::Inference { completed_blocks: c.completed_blocks };
                let cancelled = Outcome::DeadlineExceeded { stage };
                return outcomes.into_iter().map(|o| o.unwrap_or(cancelled.clone())).collect();
            }
        };
        let out = g.value(y);
        let c = out.dims()[2];
        let vals = out.to_vec();
        for (bi, (i, seq)) in live.iter().enumerate() {
            let l = seq.len();
            let slice = &vals[bi * l_max * c..bi * l_max * c + l * c];
            outcomes[*i] = Some(if slice.iter().any(|v| !v.is_finite()) {
                Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput }
            } else {
                let positive = slice.iter().filter(|v| **v > 0.0).count();
                Outcome::Completed {
                    tokens: l,
                    positive_fraction: positive as f32 / slice.len().max(1) as f32,
                }
            });
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every batch member got an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_grows_with_queue_depth_and_linger() {
        // One linger window minimum, one more per max_batch of queued work.
        assert_eq!(batch_aware_retry_after(25, 0, 16, 2), 27);
        assert_eq!(batch_aware_retry_after(25, 15, 16, 2), 27);
        assert_eq!(batch_aware_retry_after(25, 16, 16, 2), 29);
        assert_eq!(batch_aware_retry_after(25, 64, 16, 2), 35);
        // Monotone in depth.
        let mut last = 0;
        for depth in 0..200 {
            let h = batch_aware_retry_after(25, depth, 8, 3);
            assert!(h >= last, "hint regressed at depth {depth}");
            last = h;
        }
        // Degenerate knobs neither divide by zero nor overflow.
        assert_eq!(batch_aware_retry_after(10, 5, 0, 1), 16);
        assert_eq!(batch_aware_retry_after(u64::MAX, 100, 4, u64::MAX), u64::MAX);
    }

    #[test]
    fn batch_stats_snapshot_computes_mean_occupancy() {
        let stats = BatchStats::default();
        assert_eq!(stats.snapshot().mean_occupancy, 0.0);
        stats.batches.store(4, Ordering::Relaxed);
        stats.batched_requests.store(14, Ordering::Relaxed);
        stats.max_occupancy.store(6, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert!((snap.mean_occupancy - 3.5).abs() < 1e-12);
        assert_eq!(snap.max_occupancy, 6);
    }
}
