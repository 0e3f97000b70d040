//! The serving engine: admission control, worker pool, breakers, tiers.
//!
//! One `ServeEngine` owns a bounded queue and a pool of worker threads,
//! each holding its own replica of the segmentation model (same seed ->
//! identical weights) and its own circuit breaker. Every worker runs the
//! one loop in [`crate::batch::scheduler`]; at the default [`BatchConfig`]
//! each batch holds one request. The request path is:
//!
//! ```text
//! submit --> validate --> tier(queue depth) --> try_push ----> worker pool
//!    |           |                                 |               |
//!    |      InvalidInput                    Rejected{retry}        |
//!    |                                                             v
//!    |                deadline check -> gather what is queued (max_batch)
//!    |                            -> patchify(tier budget, cache if any)
//!    |                            -> cancellable padded forward -> NaN guard
//!    +---- Ticket <------------------------------ SegResponse ----+
//! ```
//!
//! Every path responds through the ticket channel; no request is dropped
//! silently, and every response carries the tier it was admitted at.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::thread;
use std::time::{Duration, Instant};

use apf_core::fault::FaultPlan;
use apf_core::pipeline::{AdaptivePatcher, PatcherConfig};
use apf_gigapixel::{
    DistStitchOptions, GigapixelError, Residency, SlideSegmenter, StitchConfig, TileCache,
    TileStore,
};
use apf_models::vit::{ViTConfig, ViTSegmenter};
use apf_telemetry::{Counter, Gauge, Histogram, Telemetry, TraceContext};
use serde::Serialize;

use crate::batch::scheduler::{batch_worker_loop, BatchStats, BatchTel};
use crate::batch::{BatchConfig, BatchStatsSnapshot, CacheStats, PatchCache};
use crate::breaker::{BreakerConfig, BreakerState, BreakerTransition};
use crate::degrade::{DegradationPolicy, Tier};
use crate::fault::InferenceFaultKind;
use crate::queue::BoundedQueue;
use crate::request::{
    DeadlineStage, FailureReason, Outcome, SegRequest, SegResponse, SlideRequest, Ticket,
};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (model replicas).
    pub workers: usize,
    /// Admission queue bound; pushes beyond it are rejected.
    pub queue_capacity: usize,
    /// Minimal patch size `P_m`; the model's `patch_dim` must be `P_m^2`.
    pub patch_size: usize,
    /// Model hyper-parameters shared by all replicas.
    pub model: ViTConfig,
    /// Weight seed; all workers use the same seed (true replicas).
    pub model_seed: u64,
    /// Deadline applied when a request does not bring its own.
    pub default_deadline_ms: Option<u64>,
    /// Backoff hint returned with `Rejected` outcomes.
    pub retry_after_ms: u64,
    /// Worker poll period (queue wait and open-breaker idle sleep).
    pub poll_ms: u64,
    /// Per-worker breaker tuning.
    pub breaker: BreakerConfig,
    /// Queue-depth -> tier mapping and per-tier budgets.
    pub policy: DegradationPolicy,
    /// Injected fault schedule keyed `(worker, nth dispatch)` (empty in
    /// production use).
    pub faults: FaultPlan<InferenceFaultKind>,
    /// Batch scheduler + preprocessing-cache knobs. The default serves
    /// every request alone, uncached.
    pub batch: BatchConfig,
    /// Telemetry sink for the engine's gauges, histograms, counters, and
    /// spans. [`Telemetry::disabled`] keeps the hot path at one branch per
    /// instrumentation point.
    pub telemetry: Telemetry,
    /// Where the flight recorder dumps its window when a worker panic is
    /// contained; `None` disables file dumps (events still accumulate in
    /// the in-memory ring).
    pub flight_dump_dir: Option<PathBuf>,
}

impl ServeConfig {
    /// A small engine for tests: 2 workers, tiny model, 16-deep queue.
    pub fn small() -> Self {
        let policy = DegradationPolicy::default();
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            patch_size: 4,
            model: ViTConfig::tiny(16, policy.full_len),
            model_seed: 7,
            default_deadline_ms: None,
            retry_after_ms: 25,
            poll_ms: 2,
            breaker: BreakerConfig::default(),
            policy,
            faults: FaultPlan::none(),
            batch: BatchConfig::default(),
            telemetry: Telemetry::disabled(),
            flight_dump_dir: None,
        }
    }

    /// [`ServeConfig::small`] with multi-request batches and the
    /// preprocessing cache — the test/bench shorthand for the batched
    /// engine.
    pub fn small_batched(max_batch: usize) -> Self {
        ServeConfig { batch: BatchConfig::enabled(max_batch, 0), ..Self::small() }
    }
}

/// Registry handles for the serving hot path; all inert when the engine was
/// configured with a disabled [`Telemetry`].
#[derive(Clone)]
pub(crate) struct ServeTel {
    pub(crate) tel: Telemetry,
    pub(crate) queue_depth: Gauge,
    admission_s: Histogram,
    pub(crate) queue_wait_s: Histogram,
    pub(crate) inference_s: Histogram,
    request_s: Histogram,
    requests_total: Counter,
    pub(crate) faults_injected: Counter,
    tier_full: Counter,
    tier_reduced: Counter,
    tier_coarse: Counter,
    outcome_completed: Counter,
    outcome_slide_completed: Counter,
    outcome_rejected: Counter,
    outcome_invalid: Counter,
    outcome_deadline_queued: Counter,
    outcome_deadline_inference: Counter,
    outcome_deadline_stitching: Counter,
    outcome_worker_panic: Counter,
    outcome_non_finite: Counter,
    breaker_to_open: Counter,
    breaker_to_half_open: Counter,
    breaker_to_closed: Counter,
}

impl ServeTel {
    fn new(tel: Telemetry) -> Self {
        let tier = |t: &'static str| {
            tel.counter_with(
                "apf_serve_responses_total",
                vec![("tier", t.to_string())],
                "Responses by degradation tier",
            )
        };
        let outcome = |o: &'static str| {
            tel.counter_with(
                "apf_serve_outcomes_total",
                vec![("outcome", o.to_string())],
                "Responses by outcome class",
            )
        };
        let breaker_to = |s: &'static str| {
            tel.counter_with(
                "apf_serve_breaker_transitions_total",
                vec![("to", s.to_string())],
                "Circuit-breaker state transitions by destination state",
            )
        };
        ServeTel {
            queue_depth: tel.gauge(
                "apf_serve_queue_depth",
                "Admission queue depth after the most recent push/pop",
            ),
            admission_s: tel.histogram(
                "apf_serve_admission_latency_seconds",
                "Time spent in submit(): validation + tiering + enqueue",
            ),
            queue_wait_s: tel.histogram(
                "apf_serve_queue_wait_seconds",
                "Submission-to-worker-pop wait",
            ),
            inference_s: tel.histogram(
                "apf_serve_inference_latency_seconds",
                "Worker-side inference time (patchify + forward)",
            ),
            request_s: tel.histogram(
                "apf_serve_request_latency_seconds",
                "Submission-to-response latency, all outcomes",
            ),
            requests_total: tel.counter("apf_serve_requests_total", "Requests submitted"),
            faults_injected: tel.counter(
                "apf_serve_faults_injected_total",
                "Faults the injection plan actually fired",
            ),
            tier_full: tier("full"),
            tier_reduced: tier("reduced"),
            tier_coarse: tier("coarse"),
            outcome_completed: outcome("completed"),
            outcome_slide_completed: outcome("slide_completed"),
            outcome_rejected: outcome("rejected"),
            outcome_invalid: outcome("invalid_input"),
            outcome_deadline_queued: outcome("deadline_queued"),
            outcome_deadline_inference: outcome("deadline_inference"),
            outcome_deadline_stitching: outcome("deadline_stitching"),
            outcome_worker_panic: outcome("worker_panic"),
            outcome_non_finite: outcome("non_finite_output"),
            breaker_to_open: breaker_to("open"),
            breaker_to_half_open: breaker_to("half_open"),
            breaker_to_closed: breaker_to("closed"),
            tel,
        }
    }

    fn record_response(&self, resp: &SegResponse) {
        self.request_s.record(resp.latency_ms / 1e3);
        match resp.tier {
            Tier::Full => self.tier_full.inc(),
            Tier::Reduced => self.tier_reduced.inc(),
            Tier::Coarse => self.tier_coarse.inc(),
        }
        match &resp.outcome {
            Outcome::Completed { .. } => self.outcome_completed.inc(),
            Outcome::SlideCompleted { .. } => self.outcome_slide_completed.inc(),
            Outcome::Rejected { .. } => self.outcome_rejected.inc(),
            Outcome::InvalidInput { .. } => self.outcome_invalid.inc(),
            Outcome::DeadlineExceeded { stage: DeadlineStage::Queued } => {
                self.outcome_deadline_queued.inc()
            }
            Outcome::DeadlineExceeded { stage: DeadlineStage::Inference { .. } } => {
                self.outcome_deadline_inference.inc()
            }
            Outcome::DeadlineExceeded { stage: DeadlineStage::Stitching { .. } } => {
                self.outcome_deadline_stitching.inc()
            }
            Outcome::WorkerFailure { reason: FailureReason::Panicked } => {
                self.outcome_worker_panic.inc()
            }
            Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput } => {
                self.outcome_non_finite.inc()
            }
        }
    }

    pub(crate) fn record_breaker_transition(&self, to: BreakerState) {
        match to {
            BreakerState::Open => self.breaker_to_open.inc(),
            BreakerState::HalfOpen => self.breaker_to_half_open.inc(),
            BreakerState::Closed => self.breaker_to_closed.inc(),
        }
        self.tel.flight("breaker_transition", || format!("to={to:?}"));
    }
}

/// Aggregate outcome counters, filled as responses are issued.
#[derive(Debug, Default, Clone, Serialize)]
pub struct ServeMetrics {
    /// Requests submitted (every one gets exactly one response).
    pub submitted: u64,
    /// Successful inferences.
    pub completed: u64,
    /// Successful whole-slide stitched inferences.
    pub slides_completed: u64,
    /// Admission rejections (queue full or closed).
    pub rejected: u64,
    /// Typed validation failures.
    pub invalid_input: u64,
    /// Deadlines blown while queued.
    pub deadline_queued: u64,
    /// Deadlines blown mid-forward (cooperative cancellation).
    pub deadline_inference: u64,
    /// Deadlines blown between stitching windows of a slide request.
    pub deadline_stitching: u64,
    /// Worker panics contained by the unwind barrier.
    pub worker_panics: u64,
    /// NaN/Inf outputs caught by the output guard.
    pub non_finite_outputs: u64,
    /// Responses served at the full tier.
    pub tier_full: u64,
    /// Responses served at the reduced tier.
    pub tier_reduced: u64,
    /// Responses served at the coarse tier.
    pub tier_coarse: u64,
}

impl ServeMetrics {
    fn record(&mut self, resp: &SegResponse) {
        match &resp.outcome {
            Outcome::Completed { .. } => self.completed += 1,
            Outcome::SlideCompleted { .. } => self.slides_completed += 1,
            Outcome::Rejected { .. } => self.rejected += 1,
            Outcome::InvalidInput { .. } => self.invalid_input += 1,
            Outcome::DeadlineExceeded { stage: DeadlineStage::Queued } => {
                self.deadline_queued += 1
            }
            Outcome::DeadlineExceeded { stage: DeadlineStage::Inference { .. } } => {
                self.deadline_inference += 1
            }
            Outcome::DeadlineExceeded { stage: DeadlineStage::Stitching { .. } } => {
                self.deadline_stitching += 1
            }
            Outcome::WorkerFailure { reason: FailureReason::Panicked } => self.worker_panics += 1,
            Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput } => {
                self.non_finite_outputs += 1
            }
        }
        match resp.tier {
            Tier::Full => self.tier_full += 1,
            Tier::Reduced => self.tier_reduced += 1,
            Tier::Coarse => self.tier_coarse += 1,
        }
    }

    /// Responses issued so far (should equal `submitted` after shutdown).
    pub fn responses(&self) -> u64 {
        self.completed
            + self.slides_completed
            + self.rejected
            + self.invalid_input
            + self.deadline_queued
            + self.deadline_inference
            + self.deadline_stitching
            + self.worker_panics
            + self.non_finite_outputs
    }
}

/// One worker's lifetime summary, including its breaker history.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Requests this worker pulled off the queue.
    pub processed: u64,
    /// Breaker trips (closed/half-open -> open).
    pub trips: u32,
    /// Breaker recoveries (half-open -> closed).
    pub recoveries: u32,
    /// Breaker state at shutdown.
    pub final_state: BreakerState,
    /// Full transition log.
    pub transitions: Vec<BreakerTransition>,
}

/// What `shutdown()` returns: the proof material for the soak gate.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Aggregate outcome counters.
    pub metrics: ServeMetrics,
    /// Per-worker summaries.
    pub workers: Vec<WorkerReport>,
    /// Highest queue depth ever observed.
    pub max_queue_depth: usize,
    /// The configured bound `max_queue_depth` must respect.
    pub queue_capacity: usize,
    /// Batch scheduler counters; always present.
    pub batch: Option<BatchStatsSnapshot>,
    /// Preprocessing-cache counters; `None` when the cache is off.
    pub cache: Option<CacheStats>,
}

/// What a queue slot carries: an in-memory image request or an on-disk
/// whole-slide request. Both flow through the same admission control,
/// tiering, deadline handling, breaker, and response bookkeeping.
pub(crate) enum Payload {
    Image(SegRequest),
    Slide(SlideRequest),
}

impl Payload {
    pub(crate) fn id(&self) -> u64 {
        match self {
            Payload::Image(r) => r.id,
            Payload::Slide(r) => r.id,
        }
    }
}

pub(crate) struct QueuedRequest {
    pub(crate) payload: Payload,
    pub(crate) submitted: Instant,
    pub(crate) deadline: Option<Instant>,
    depth_at_admission: usize,
    pub(crate) tier: Tier,
    tx: mpsc::Sender<SegResponse>,
    // Captured at admission from the submitting thread; the worker that
    // pops this request installs it so worker-side spans join the trace
    // that crossed the wire.
    pub(crate) trace: Option<TraceContext>,
}

pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<QueuedRequest>,
    metrics: Mutex<ServeMetrics>,
    submitted: AtomicU64,
    // Tier handed to the most recent admission (rank), for tier-change
    // flight events. usize::MAX = nothing admitted yet.
    last_tier_rank: AtomicUsize,
    pub(crate) tm: ServeTel,
}

impl Shared {
    /// Locks the aggregate counters, recovering from poison: a worker that
    /// panicked while holding this lock (fault injection can arrange it)
    /// must degrade to possibly-stale counters, not turn every later
    /// request into a `PoisonError` panic cascade.
    fn lock_metrics(&self) -> std::sync::MutexGuard<'_, ServeMetrics> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Clones the counters and stamps in the submission count (which lives
    /// in an atomic, not under the metrics lock).
    fn snapshot_metrics(&self) -> ServeMetrics {
        let mut m = self.lock_metrics().clone();
        m.submitted = self.submitted.load(Ordering::Relaxed);
        m
    }

    pub(crate) fn respond(&self, q: QueuedRequest, outcome: Outcome, worker: Option<usize>) {
        let resp = SegResponse {
            id: q.payload.id(),
            tier: q.tier,
            depth_at_admission: q.depth_at_admission,
            outcome,
            worker,
            latency_ms: q.submitted.elapsed().as_secs_f64() * 1e3,
        };
        self.lock_metrics().record(&resp);
        self.tm.record_response(&resp);
        // A dropped ticket is the caller's prerogative; ignore send errors.
        let _ = q.tx.send(resp);
    }
}

/// Suppress panic backtraces from engine worker threads: injected and real
/// worker panics are contained by the unwind barrier and surface as
/// `WorkerFailure` responses + breaker records, so stderr noise is just
/// noise. All other threads keep the default hook.
fn install_quiet_worker_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = thread::current()
                .name()
                .is_some_and(|n| n.starts_with("apf-serve-worker"));
            if !on_worker {
                prev(info);
            }
        }));
    });
}

/// The resilient inference engine.
pub struct ServeEngine {
    shared: Arc<Shared>,
    cfg: ServeConfig,
    handles: Vec<thread::JoinHandle<WorkerReport>>,
    // The shared preprocessing cache (absent at a zero budget) and the exact
    // batch counters, surfaced through the report.
    cache: Option<Arc<PatchCache>>,
    batch_stats: Arc<BatchStats>,
}

impl ServeEngine {
    /// Starts the worker pool.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert_eq!(
            cfg.model.patch_dim,
            cfg.patch_size * cfg.patch_size,
            "model patch_dim must equal patch_size^2"
        );
        assert!(
            cfg.policy.full_len <= cfg.model.seq_len,
            "full-tier budget exceeds the positional table"
        );
        install_quiet_worker_panics();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            metrics: Mutex::new(ServeMetrics::default()),
            submitted: AtomicU64::new(0),
            last_tier_rank: AtomicUsize::new(usize::MAX),
            tm: ServeTel::new(cfg.telemetry.clone()),
        });
        let cache = (cfg.batch.cache_budget_bytes > 0)
            .then(|| Arc::new(PatchCache::new(cfg.batch.cache_budget_bytes, &cfg.telemetry)));
        let batch_stats = Arc::new(BatchStats::default());
        let btel = BatchTel::new(&cfg.telemetry);
        let handles = (0..cfg.workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                let cache = cache.clone();
                let stats = Arc::clone(&batch_stats);
                let btel = btel.clone();
                thread::Builder::new()
                    .name(format!("apf-serve-worker-{idx}"))
                    .spawn(move || {
                        // One of `cfg.workers` parallel workers: its kernels
                        // run inline so the cores are not oversubscribed.
                        apf_tensor::kernels::mark_thread_inline();
                        batch_worker_loop(idx, &shared, &cfg, cache.as_deref(), &btel, &stats)
                    })
                    .expect("spawn worker")
            })
            .collect();
        ServeEngine { shared, cfg, handles, cache, batch_stats }
    }

    /// Submits a request. Never blocks: validation failures and queue-full
    /// backpressure come back *through the ticket* as immediate responses,
    /// so callers handle every outcome in one place.
    pub fn submit(&self, req: SegRequest) -> Ticket {
        // Cheap static validation before the request costs anyone anything.
        let quad = PatcherConfig::for_resolution(req.image.width().max(1)).quadtree;
        let invalid = AdaptivePatcher::validate_input(&req.image, &quad)
            .err()
            .map(|e| e.to_string());
        let deadline_ms = req.deadline_ms;
        self.admit(Payload::Image(req), deadline_ms, invalid)
    }

    /// Submits a whole-slide request: same admission control, tiering, and
    /// deadline handling as [`ServeEngine::submit`], but the worker runs
    /// the out-of-core stitcher over the on-disk container instead of an
    /// in-memory forward pass. The response arrives through the ticket as
    /// [`Outcome::SlideCompleted`] (or a typed failure).
    pub fn submit_slide(&self, req: SlideRequest) -> Ticket {
        // Static validation of the stitch geometry; the container itself is
        // validated by the worker when it opens the store (admission must
        // not do file I/O).
        let invalid = if !req.window.is_power_of_two() {
            Some(format!("window side {} is not a power of two", req.window))
        } else if req.window <= 2 * req.halo {
            Some(format!(
                "halo {} leaves window {} with no positive stride",
                req.halo, req.window
            ))
        } else if req.cache_budget_bytes == 0 {
            Some("tile cache budget must be positive".to_string())
        } else if !(1..=32).contains(&req.stitch_workers) {
            Some(format!(
                "stitch worker count {} outside supported range 1..=32",
                req.stitch_workers
            ))
        } else {
            None
        };
        let deadline_ms = req.deadline_ms;
        self.admit(Payload::Slide(req), deadline_ms, invalid)
    }

    /// Shared admission path: tiering, deadline stamping, and enqueue (or
    /// the immediate typed response when `invalid` is set / the queue is
    /// full).
    fn admit(&self, payload: Payload, deadline_ms: Option<u64>, invalid: Option<String>) -> Ticket {
        let tm = &self.shared.tm;
        let _admit_span = tm.tel.span_id("serve.submit", payload.id());
        let _admit_timer = tm.admission_s.start_timer();
        tm.requests_total.inc();
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let depth = self.shared.queue.len();
        let tier = self.cfg.policy.tier_for_depth(depth, self.cfg.queue_capacity);
        let deadline_ms = deadline_ms.or(self.cfg.default_deadline_ms);
        let now = Instant::now();
        let id = payload.id();
        tm.tel.flight("admission", || format!("id={id} tier={tier:?} depth={depth}"));
        let prev_rank = self.shared.last_tier_rank.swap(tier.rank() as usize, Ordering::Relaxed);
        if prev_rank != usize::MAX && prev_rank != tier.rank() as usize {
            tm.tel.flight("tier_change", || format!("from_rank={prev_rank} to={tier:?}"));
        }
        let q = QueuedRequest {
            payload,
            submitted: now,
            deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            depth_at_admission: depth,
            tier,
            tx,
            trace: TraceContext::current(),
        };
        if let Some(reason) = invalid {
            self.shared.respond(q, Outcome::InvalidInput { reason }, None);
            return Ticket { rx };
        }
        if let Err((q, _push_err)) = self.shared.queue.try_push(q) {
            let retry_after_ms = self.retry_after_hint();
            self.shared.respond(q, Outcome::Rejected { retry_after_ms }, None);
        }
        self.shared.tm.queue_depth.set(self.shared.queue.len() as f64);
        Ticket { rx }
    }

    /// Current queue depth (what the next submission's tier will be based
    /// on).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The configured queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Load-aware backoff hint: the configured base scaled by how full the
    /// queue currently is, so backoff-honoring clients spread their retries
    /// instead of reconverging on an already-drowning engine. Front doors
    /// reuse this hint for their own refusals (quota, drain `GoAway`).
    /// Batching does not change it: no batch waits for company.
    pub fn retry_after_hint(&self) -> u64 {
        let depth = self.shared.queue.len();
        load_aware_retry_after(self.cfg.retry_after_ms, depth, self.shared.queue.capacity())
    }

    /// Preprocessing-cache counters; `None` when the cache is off.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Batch scheduler counters; always present.
    pub fn batch_stats(&self) -> Option<BatchStatsSnapshot> {
        Some(self.batch_stats.snapshot())
    }

    /// Snapshot of the aggregate counters.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.snapshot_metrics()
    }

    /// Drain hook for front doors: closes the admission queue without
    /// joining the workers. Queued requests still complete (or hit their
    /// deadlines); later submissions come back as `Rejected` immediately.
    /// Idempotent, and [`ServeEngine::shutdown`] still works afterwards.
    pub fn close_admission(&self) {
        self.shared.queue.close();
    }

    /// Closes admission, lets workers drain the queue, joins them, and
    /// returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.queue.close();
        let workers: Vec<WorkerReport> = self
            .handles
            .drain(..)
            .map(|h| h.join().expect("worker thread must not die: panics are contained inside it"))
            .collect();
        ServeReport {
            metrics: self.shared.snapshot_metrics(),
            workers,
            max_queue_depth: self.shared.queue.max_depth(),
            queue_capacity: self.shared.queue.capacity(),
            batch: Some(self.batch_stats.snapshot()),
            cache: self.cache.as_ref().map(|c| c.stats()),
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // `shutdown()` drains `handles`; this only fires when the engine is
        // dropped without it (e.g. a panicking test) — don't leak threads.
        self.shared.queue.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Scales the configured backoff base by queue fullness: the multiplier is
/// `ceil(depth / (capacity/4))` (quarter-of-capacity quantiles), clamped to
/// at least 1. An empty queue returns the base; a full one returns 4x the
/// base. Monotone non-decreasing in `depth`, which the unit test pins.
pub fn load_aware_retry_after(base_ms: u64, depth: usize, capacity: usize) -> u64 {
    let quantile = (capacity / 4).max(1);
    let multiplier = depth.div_ceil(quantile).max(1) as u64;
    base_ms.saturating_mul(multiplier)
}

/// One whole-slide stitched inference under a deadline. Runs inside the
/// worker's unwind barrier; the deadline is polled
/// between windows, so a blown deadline abandons the drive cooperatively
/// (and the unfinished output container is removed, never half-written).
pub(crate) fn run_slide(
    model: &ViTSegmenter,
    req: &SlideRequest,
    deadline: Option<Instant>,
    cfg: &ServeConfig,
    tm: &ServeTel,
) -> Outcome {
    let _span = tm.tel.span_id("serve.slide", req.id);
    // Container validation (magic, version, index checksum) happens here on
    // the worker, not at admission: it is file I/O.
    let store = match TileStore::open(&req.slide_path) {
        Ok(s) => Arc::new(s),
        Err(e) => return Outcome::InvalidInput { reason: e.to_string() },
    };
    let residency = Residency::new(&tm.tel);
    let cache = TileCache::new(store, req.cache_budget_bytes, tm.tel.clone(), residency.clone());
    let mut stitch = StitchConfig::for_window(req.window, req.halo, cfg.model.seq_len);
    stitch.patcher.patch_size = cfg.patch_size;
    let seg = SlideSegmenter::new(model, stitch, tm.tel.clone());
    let cancel = || deadline.is_some_and(|d| Instant::now() >= d);
    // Serial in-worker drive unless the caller asked for sharded stitching
    // or crash-safety; a checkpoint path alone routes distributed so the
    // single-worker resumable path exists too.
    let result = if req.stitch_workers > 1 || req.checkpoint_path.is_some() {
        let mut opts = DistStitchOptions::new(req.stitch_workers);
        opts.checkpoint_path = req.checkpoint_path.clone();
        opts.resume = req.resume;
        seg.segment_store_distributed(&cache, &req.output_path, &residency, &opts, cancel)
            .map(|r| r.stitch)
    } else {
        seg.segment_store(&cache, &req.output_path, &residency, cancel)
    };
    match result {
        Ok(r) => Outcome::SlideCompleted {
            windows: r.windows,
            tokens: r.tokens,
            positive_fraction: r.positive_fraction,
        },
        Err(GigapixelError::Cancelled { windows_done, windows_total }) => {
            Outcome::DeadlineExceeded {
                stage: DeadlineStage::Stitching { windows_done, windows_total },
            }
        }
        Err(GigapixelError::NonFiniteLogits { .. }) => {
            Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput }
        }
        // The whole window pool died: that is a worker-side failure, and
        // the breaker should hear about it like an in-process panic.
        Err(GigapixelError::WorkersExhausted { .. }) => {
            Outcome::WorkerFailure { reason: FailureReason::Panicked }
        }
        // Corrupt containers, bad geometry, and patch validation failures
        // all indict the request, not the worker.
        Err(e) => Outcome::InvalidInput { reason: e.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::fault::Fault;
    use apf_imaging::GrayImage;

    fn test_image(seed: u64) -> GrayImage {
        GrayImage::from_fn(64, 64, |x, y| {
            let v = ((x * 7 + y * 13) as u64 ^ seed) % 97;
            v as f32 / 96.0
        })
    }

    #[test]
    fn happy_path_completes_at_full_tier() {
        let engine = ServeEngine::start(ServeConfig::small());
        let tickets: Vec<Ticket> = (0..4)
            .map(|id| {
                engine.submit(SegRequest { id, image: test_image(id), deadline_ms: None })
            })
            .collect();
        for t in tickets {
            let r = t.wait().expect("every request gets a response");
            match r.outcome {
                Outcome::Completed { tokens, .. } => {
                    assert!((1..=64).contains(&tokens), "budget violated: {tokens}");
                }
                other => panic!("expected completion, got {other:?}"),
            }
            assert!(r.latency_ms >= 0.0);
            assert!(r.worker.is_some());
        }
        let report = engine.shutdown();
        assert_eq!(report.metrics.completed, 4);
        assert_eq!(report.metrics.responses(), 4);
        assert_eq!(report.metrics.tier_full, 4);
    }

    #[test]
    fn malformed_inputs_get_typed_rejections_and_engine_keeps_serving() {
        let engine = ServeEngine::start(ServeConfig::small());
        // Non-square.
        let r = engine
            .submit(SegRequest { id: 1, image: GrayImage::new(64, 32), deadline_ms: None })
            .wait()
            .unwrap();
        assert!(matches!(r.outcome, Outcome::InvalidInput { .. }));
        // NaN pixel.
        let mut nan = test_image(0);
        nan.set(3, 4, f32::NAN);
        let r = engine
            .submit(SegRequest { id: 2, image: nan, deadline_ms: None })
            .wait()
            .unwrap();
        match &r.outcome {
            Outcome::InvalidInput { reason } => assert!(reason.contains("non-finite")),
            other => panic!("expected invalid input, got {other:?}"),
        }
        // Non-power-of-two.
        let r = engine
            .submit(SegRequest { id: 3, image: GrayImage::new(48, 48), deadline_ms: None })
            .wait()
            .unwrap();
        assert!(matches!(r.outcome, Outcome::InvalidInput { .. }));
        // Still healthy afterwards.
        let r = engine
            .submit(SegRequest { id: 4, image: test_image(4), deadline_ms: None })
            .wait()
            .unwrap();
        assert!(matches!(r.outcome, Outcome::Completed { .. }));
        let report = engine.shutdown();
        assert_eq!(report.metrics.invalid_input, 3);
        assert_eq!(report.metrics.completed, 1);
    }

    #[test]
    fn zero_deadline_requests_are_deadline_exceeded_not_failed() {
        let engine = ServeEngine::start(ServeConfig::small());
        let r = engine
            .submit(SegRequest { id: 9, image: test_image(9), deadline_ms: Some(0) })
            .wait()
            .unwrap();
        assert!(
            matches!(r.outcome, Outcome::DeadlineExceeded { .. }),
            "got {:?}",
            r.outcome
        );
        let report = engine.shutdown();
        // Deadline misses never count as worker failures.
        assert_eq!(report.metrics.worker_panics, 0);
        assert_eq!(report.metrics.non_finite_outputs, 0);
        assert!(report.workers.iter().all(|w| w.trips == 0));
    }

    #[test]
    fn full_queue_rejects_with_backpressure_and_bound_holds() {
        let mut cfg = ServeConfig::small();
        cfg.workers = 1;
        cfg.queue_capacity = 4;
        // Slow every request down so the queue actually fills.
        let slow = InferenceFaultKind::SlowInference { delay_ms: 30 };
        cfg.faults = FaultPlan::none().with_burst(0, 0, 200, slow);
        let engine = ServeEngine::start(cfg);
        let tickets: Vec<Ticket> = (0..24)
            .map(|id| {
                engine.submit(SegRequest { id, image: test_image(id), deadline_ms: None })
            })
            .collect();
        let responses: Vec<SegResponse> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let rejected = responses
            .iter()
            .filter(|r| {
                // Rejections happen at (or near) a full queue, so the
                // load-aware hint must exceed the configured base.
                matches!(r.outcome, Outcome::Rejected { retry_after_ms } if retry_after_ms >= 25)
            })
            .count();
        assert!(rejected > 0, "flooding a 4-deep queue must reject something");
        let report = engine.shutdown();
        assert!(
            report.max_queue_depth <= report.queue_capacity,
            "queue bound violated: {} > {}",
            report.max_queue_depth,
            report.queue_capacity
        );
        assert_eq!(report.metrics.responses(), 24);
    }

    #[test]
    fn load_degrades_tiers_monotonically_with_depth() {
        let mut cfg = ServeConfig::small();
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        let slow = InferenceFaultKind::SlowInference { delay_ms: 25 };
        cfg.faults = FaultPlan::none().with_burst(0, 0, 100, slow);
        let engine = ServeEngine::start(cfg);
        let tickets: Vec<Ticket> = (0..8)
            .map(|id| {
                engine.submit(SegRequest { id, image: test_image(id), deadline_ms: None })
            })
            .collect();
        let responses: Vec<SegResponse> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // Tier must be a monotone function of the admission depth the
        // engine recorded, across all responses.
        let mut by_depth: Vec<(usize, u8)> = responses
            .iter()
            .map(|r| (r.depth_at_admission, r.tier.rank()))
            .collect();
        by_depth.sort();
        for w in by_depth.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "tier not monotone in depth: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // With a 1-worker engine slowed to 25ms/request and 8 instant
        // submissions into an 8-deep queue, depth must have climbed enough
        // to leave Full at least once.
        assert!(
            responses.iter().any(|r| r.tier != Tier::Full),
            "no degradation observed under definite overload"
        );
        engine.shutdown();
    }

    #[test]
    fn breaker_trips_on_panic_burst_and_recovers() {
        let mut cfg = ServeConfig::small();
        cfg.workers = 1;
        cfg.breaker = BreakerConfig { failure_threshold: 2, cooldown_polls: 3, half_open_successes: 2 };
        cfg.faults = FaultPlan::none().with_burst(0, 1, 2, InferenceFaultKind::WorkerPanic);
        let engine = ServeEngine::start(cfg);
        let tickets: Vec<Ticket> = (0..8)
            .map(|id| {
                engine.submit(SegRequest { id, image: test_image(id), deadline_ms: None })
            })
            .collect();
        let responses: Vec<SegResponse> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let panicked = responses
            .iter()
            .filter(|r| {
                matches!(r.outcome, Outcome::WorkerFailure { reason: FailureReason::Panicked })
            })
            .count();
        assert_eq!(panicked, 2, "exactly the burst panics");
        let completed = responses
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
            .count();
        assert_eq!(completed, 6, "everything else completes after recovery");
        let report = engine.shutdown();
        let w = &report.workers[0];
        assert!(w.trips >= 1, "breaker never tripped");
        assert!(w.recoveries >= 1, "breaker never recovered");
        assert_eq!(w.final_state, BreakerState::Closed);
        // The transition log shows the full cycle.
        let tos: Vec<BreakerState> = w.transitions.iter().map(|t| t.to).collect();
        assert!(tos.windows(3).any(|w| {
            w == [BreakerState::Open, BreakerState::HalfOpen, BreakerState::Closed]
        }));
    }

    #[test]
    fn telemetry_registry_mirrors_serve_metrics_and_traces_requests() {
        let tel = Telemetry::enabled();
        let mut cfg = ServeConfig::small();
        cfg.telemetry = tel.clone();
        let engine = ServeEngine::start(cfg);
        let tickets: Vec<Ticket> = (0..6)
            .map(|id| {
                let img = if id == 5 { GrayImage::new(48, 48) } else { test_image(id) };
                engine.submit(SegRequest { id, image: img, deadline_ms: None })
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let report = engine.shutdown();
        let snap = tel.snapshot();

        // Counters agree with the mutex-guarded ServeMetrics.
        let get = |name: &str, labels: &[(&str, &str)]| {
            snap.get(name, labels).map_or(0.0, |m| m.value) as u64
        };
        assert_eq!(get("apf_serve_requests_total", &[]), 6);
        assert_eq!(
            get("apf_serve_outcomes_total", &[("outcome", "completed")]),
            report.metrics.completed
        );
        assert_eq!(
            get("apf_serve_outcomes_total", &[("outcome", "invalid_input")]),
            report.metrics.invalid_input
        );
        assert_eq!(
            get("apf_serve_responses_total", &[("tier", "full")]),
            report.metrics.tier_full
        );
        // Latency histograms saw every response; queue-wait only the popped.
        let req_lat = snap.get("apf_serve_request_latency_seconds", &[]).unwrap();
        assert_eq!(req_lat.histogram.as_ref().unwrap().count, 6);
        assert_eq!(
            snap.get("apf_serve_admission_latency_seconds", &[])
                .unwrap()
                .histogram
                .as_ref()
                .unwrap()
                .count,
            6
        );

        // At least one completed request produced a span tree:
        // serve.request > serve.inference > serve.patchify > core.* and
        // serve.forward, all tagged with the same request id.
        let evs = tel.trace_events();
        let id = evs
            .iter()
            .find(|e| e.name == "serve.forward")
            .expect("forward span")
            .id
            .expect("forward spans carry the request id");
        for name in ["serve.request", "serve.inference", "serve.patchify"] {
            assert!(
                evs.iter().any(|e| e.name == name && e.id == Some(id)),
                "missing {name} for request {id}"
            );
        }
        assert!(evs.iter().any(|e| e.name == "core.quadtree"));

        // Exposition is prefixed and parseable quantities.
        let text = tel.render_prometheus();
        assert!(text.contains("apf_serve_requests_total 6"));
        apf_telemetry::validate_jsonl(&tel.trace_jsonl()).unwrap();
    }

    fn write_test_slide(name: &str, z: usize, tile: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("apf_serve_slide_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let img = GrayImage::from_fn(z, z, |x, y| {
            let v = ((x * 7 + y * 13) as u64) % 97;
            v as f32 / 96.0
        });
        apf_gigapixel::write_tiled(&path, z, z, tile, |_, _, x0, y0, w, h| {
            img.crop(x0, y0, w, h).into_data()
        })
        .unwrap();
        path
    }

    #[test]
    fn slide_requests_complete_and_write_the_stitched_container() {
        let slide = write_test_slide("in.apt1", 128, 32);
        let out = std::env::temp_dir().join("apf_serve_slide_test/out.apt1");
        let mut cfg = ServeConfig::small();
        cfg.model = ViTConfig::tiny(16, 48);
        cfg.policy.full_len = 48;
        let engine = ServeEngine::start(cfg);
        let r = engine
            .submit_slide(SlideRequest {
                id: 11,
                slide_path: slide,
                output_path: out.clone(),
                window: 64,
                halo: 8,
                cache_budget_bytes: 8 * 32 * 32 * 4,
                deadline_ms: None,
                stitch_workers: 1,
                checkpoint_path: None,
                resume: false,
            })
            .wait()
            .unwrap();
        match r.outcome {
            Outcome::SlideCompleted { windows, tokens, positive_fraction } => {
                assert_eq!(windows, 9); // positions [0, 48, 64] on each axis
                assert_eq!(tokens, 9 * 48);
                assert!((0.0..=1.0).contains(&positive_fraction));
            }
            other => panic!("expected slide completion, got {other:?}"),
        }
        let store = apf_gigapixel::TileStore::open(&out).unwrap();
        assert_eq!(store.geometry().width, 128);
        let report = engine.shutdown();
        assert_eq!(report.metrics.slides_completed, 1);
        assert_eq!(report.metrics.responses(), 1);
    }

    #[test]
    fn slide_geometry_is_validated_at_admission_without_touching_disk() {
        let engine = ServeEngine::start(ServeConfig::small());
        let bogus = std::path::PathBuf::from("/nonexistent/slide.apt1");
        let cases: [(usize, usize, usize, &str); 3] = [
            (48, 4, 1024, "power of two"),   // non-pow2 window
            (64, 32, 1024, "stride"),        // halo consumes the window
            (64, 8, 0, "budget"),            // zero cache budget
        ];
        for (i, (window, halo, budget, needle)) in cases.into_iter().enumerate() {
            let r = engine
                .submit_slide(SlideRequest {
                    id: i as u64,
                    slide_path: bogus.clone(),
                    output_path: bogus.clone(),
                    window,
                    halo,
                    cache_budget_bytes: budget,
                    deadline_ms: None,
                    stitch_workers: 1,
                    checkpoint_path: None,
                    resume: false,
                })
                .wait()
                .unwrap();
            match &r.outcome {
                Outcome::InvalidInput { reason } => {
                    assert!(reason.contains(needle), "case {i}: {reason}");
                }
                other => panic!("case {i}: expected invalid input, got {other:?}"),
            }
            // Rejected at admission: no worker ever saw it.
            assert!(r.worker.is_none());
        }
        engine.shutdown();
    }

    #[test]
    fn missing_slide_container_is_a_typed_worker_response() {
        let engine = ServeEngine::start(ServeConfig::small());
        let r = engine
            .submit_slide(SlideRequest {
                id: 1,
                slide_path: "/nonexistent/slide.apt1".into(),
                output_path: std::env::temp_dir().join("apf_serve_slide_test/never.apt1"),
                window: 64,
                halo: 8,
                cache_budget_bytes: 1 << 20,
                deadline_ms: None,
                stitch_workers: 1,
                checkpoint_path: None,
                resume: false,
            })
            .wait()
            .unwrap();
        match &r.outcome {
            Outcome::InvalidInput { reason } => assert!(reason.contains("opening tile store")),
            other => panic!("expected invalid input, got {other:?}"),
        }
        assert!(r.worker.is_some(), "container errors surface from the worker");
        engine.shutdown();
    }

    #[test]
    fn slide_deadline_cancels_between_windows_and_removes_partial_output() {
        let slide = write_test_slide("deadline.apt1", 128, 32);
        let out = std::env::temp_dir().join("apf_serve_slide_test/deadline_out.apt1");
        let mut cfg = ServeConfig::small();
        cfg.workers = 1;
        cfg.model = ViTConfig::tiny(16, 48);
        cfg.policy.full_len = 48;
        // Stall the worker past the deadline before the drive starts: the
        // first between-window cancellation check then fires deterministically.
        cfg.faults = FaultPlan::new(vec![Fault {
            lane: 0,
            nth: 0,
            kind: InferenceFaultKind::SlowInference { delay_ms: 400 },
        }]);
        let engine = ServeEngine::start(cfg);
        let r = engine
            .submit_slide(SlideRequest {
                id: 5,
                slide_path: slide,
                output_path: out.clone(),
                window: 64,
                halo: 8,
                cache_budget_bytes: 1 << 20,
                deadline_ms: Some(150),
                stitch_workers: 1,
                checkpoint_path: None,
                resume: false,
            })
            .wait()
            .unwrap();
        match r.outcome {
            Outcome::DeadlineExceeded {
                stage: DeadlineStage::Stitching { windows_done: 0, windows_total: 9 },
            } => {}
            // The queue pop itself may cross the deadline on a slow machine.
            Outcome::DeadlineExceeded { stage: DeadlineStage::Queued } => {}
            other => panic!("expected a deadline outcome, got {other:?}"),
        }
        assert!(!out.exists(), "cancelled drive must not leave an output container");
        let report = engine.shutdown();
        // Deadline misses never count against the worker's breaker.
        assert!(report.workers.iter().all(|w| w.trips == 0));
    }

    #[test]
    fn stitch_worker_count_is_validated_at_admission() {
        let engine = ServeEngine::start(ServeConfig::small());
        for workers in [0usize, 33] {
            let r = engine
                .submit_slide(SlideRequest {
                    stitch_workers: workers,
                    ..SlideRequest::serial(
                        workers as u64,
                        "/nonexistent/slide.apt1".into(),
                        "/nonexistent/out.apt1".into(),
                        64,
                        8,
                        1 << 20,
                        None,
                    )
                })
                .wait()
                .unwrap();
            match &r.outcome {
                Outcome::InvalidInput { reason } => {
                    assert!(reason.contains("stitch worker count"), "{reason}");
                }
                other => panic!("expected invalid input for {workers} workers, got {other:?}"),
            }
            assert!(r.worker.is_none(), "rejected at admission, not on a worker");
        }
        engine.shutdown();
    }

    #[test]
    fn distributed_slide_requests_match_the_serial_drive_and_resume() {
        let slide = write_test_slide("dist_in.apt1", 128, 32);
        let dir = std::env::temp_dir().join("apf_serve_slide_test");
        let serial_out = dir.join("dist_serial_out.apt1");
        let dist_out = dir.join("dist_dist_out.apt1");
        let ckpt = dir.join("dist.ckpt.apf2");
        for p in [&serial_out, &dist_out, &ckpt, &dir.join("dist.ckpt.apf2.prev")] {
            let _ = std::fs::remove_file(p);
        }
        let mut cfg = ServeConfig::small();
        cfg.model = ViTConfig::tiny(16, 48);
        cfg.policy.full_len = 48;

        // Reference: the serial in-worker drive.
        let engine = ServeEngine::start(cfg.clone());
        let r = engine
            .submit_slide(SlideRequest::serial(
                1,
                slide.clone(),
                serial_out.clone(),
                64,
                8,
                8 * 32 * 32 * 4,
                None,
            ))
            .wait()
            .unwrap();
        assert!(matches!(r.outcome, Outcome::SlideCompleted { windows: 9, .. }), "{r:?}");
        engine.shutdown();

        // Run 1: distributed + checkpointed, cancelled before any window
        // completes (the injected stall eats the whole deadline).
        let mut stalled = cfg.clone();
        stalled.workers = 1;
        stalled.faults = FaultPlan::new(vec![Fault {
            lane: 0,
            nth: 0,
            kind: InferenceFaultKind::SlowInference { delay_ms: 400 },
        }]);
        let engine = ServeEngine::start(stalled);
        let mut req = SlideRequest::serial(
            2,
            slide.clone(),
            dist_out.clone(),
            64,
            8,
            8 * 32 * 32 * 4,
            Some(150),
        );
        req.stitch_workers = 2;
        req.checkpoint_path = Some(ckpt.clone());
        let r = engine.submit_slide(req).wait().unwrap();
        assert!(
            matches!(r.outcome, Outcome::DeadlineExceeded { .. }),
            "expected a deadline outcome, got {r:?}"
        );
        assert!(!dist_out.exists(), "no final container after cancellation");
        engine.shutdown();

        // Run 2: resubmit with resume; the drive picks up the checkpoint
        // (or starts fresh if cancellation beat the first write) and the
        // result is bit-identical to the serial drive.
        let engine = ServeEngine::start(cfg);
        let mut req = SlideRequest::serial(
            3,
            slide,
            dist_out.clone(),
            64,
            8,
            8 * 32 * 32 * 4,
            None,
        );
        req.stitch_workers = 2;
        req.checkpoint_path = Some(ckpt);
        req.resume = true;
        let r = engine.submit_slide(req).wait().unwrap();
        match r.outcome {
            Outcome::SlideCompleted { windows, tokens, .. } => {
                assert_eq!(windows, 9);
                assert_eq!(tokens, 9 * 48);
            }
            other => panic!("expected slide completion, got {other:?}"),
        }
        engine.shutdown();

        let (sa, sb) = (
            apf_gigapixel::TileStore::open(&serial_out).unwrap(),
            apf_gigapixel::TileStore::open(&dist_out).unwrap(),
        );
        let g = sa.geometry();
        for ty in 0..g.tiles_y() {
            for tx in 0..g.tiles_x() {
                let (ta, tb) =
                    (sa.read_tile(tx, ty).unwrap(), sb.read_tile(tx, ty).unwrap());
                assert!(
                    ta.iter().zip(&tb).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "distributed serve output diverged from serial at tile ({tx},{ty})"
                );
            }
        }
    }

    #[test]
    fn retry_after_hint_is_monotone_in_depth_and_scales_with_load() {
        // Monotone non-decreasing in depth at several capacities, and the
        // endpoints are pinned: base at depth 0, 4x base at a full queue.
        for capacity in [1usize, 4, 8, 16, 100] {
            let mut last = 0;
            for depth in 0..=capacity {
                let hint = load_aware_retry_after(25, depth, capacity);
                assert!(
                    hint >= last,
                    "hint not monotone: depth {depth}/{capacity} gave {hint} after {last}"
                );
                last = hint;
            }
            assert_eq!(load_aware_retry_after(25, 0, capacity), 25);
            // The 4x-at-full scaling needs at least 4 queue slots to exist.
            if capacity >= 4 {
                assert!(load_aware_retry_after(25, capacity, capacity) >= 25 * 4 / 2);
            }
        }
        assert_eq!(load_aware_retry_after(25, 16, 16), 100);
        // Saturates instead of overflowing.
        assert_eq!(load_aware_retry_after(u64::MAX, 16, 16), u64::MAX);
    }

    #[test]
    fn poisoned_metrics_mutex_does_not_cascade() {
        let engine = ServeEngine::start(ServeConfig::small());
        // Poison the metrics mutex the way a panicking fault would: panic
        // while holding the guard (on a scratch thread, so the test itself
        // survives).
        let shared = Arc::clone(&engine.shared);
        let _ = std::thread::Builder::new()
            .name("apf-serve-worker-poison".into()) // quiet hook eats the backtrace
            .spawn(move || {
                let _guard = shared.metrics.lock().unwrap();
                panic!("injected panic while holding the metrics lock");
            })
            .unwrap()
            .join();
        assert!(engine.shared.metrics.lock().is_err(), "mutex must actually be poisoned");
        // Every later request must still serve, and metrics stay readable.
        for id in 0..4 {
            let r = engine
                .submit(SegRequest { id, image: test_image(id), deadline_ms: None })
                .wait()
                .expect("engine must answer after poisoning");
            assert!(matches!(r.outcome, Outcome::Completed { .. }), "{:?}", r.outcome);
        }
        assert_eq!(engine.metrics().completed, 4);
        let report = engine.shutdown();
        assert_eq!(report.metrics.completed, 4);
        assert_eq!(report.metrics.responses(), 4);
    }

    #[test]
    fn close_admission_rejects_new_requests_but_drains_queued_work() {
        let engine = ServeEngine::start(ServeConfig::small());
        let before = engine
            .submit(SegRequest { id: 0, image: test_image(0), deadline_ms: None })
            .wait()
            .unwrap();
        assert!(matches!(before.outcome, Outcome::Completed { .. }));
        engine.close_admission();
        engine.close_admission(); // idempotent
        let after = engine
            .submit(SegRequest { id: 1, image: test_image(1), deadline_ms: None })
            .wait()
            .unwrap();
        assert!(
            matches!(after.outcome, Outcome::Rejected { .. }),
            "closed admission must reject, got {:?}",
            after.outcome
        );
        let report = engine.shutdown();
        assert_eq!(report.metrics.completed, 1);
        assert_eq!(report.metrics.rejected, 1);
    }

    #[test]
    fn injected_nan_is_caught_by_the_output_guard() {
        let mut cfg = ServeConfig::small();
        cfg.workers = 1;
        cfg.faults = FaultPlan::new(vec![Fault {
            lane: 0,
            nth: 0,
            kind: InferenceFaultKind::NonFiniteOutput,
        }]);
        let engine = ServeEngine::start(cfg);
        let r = engine
            .submit(SegRequest { id: 0, image: test_image(0), deadline_ms: None })
            .wait()
            .unwrap();
        assert!(matches!(
            r.outcome,
            Outcome::WorkerFailure { reason: FailureReason::NonFiniteOutput }
        ));
        let report = engine.shutdown();
        assert_eq!(report.metrics.non_finite_outputs, 1);
    }
}
