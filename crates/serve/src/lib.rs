//! `apf-serve`: resilient inference serving for APF segmentation.
//!
//! A high-resolution segmentation service has a luxury most services lack:
//! its unit of work is *elastic*. The APF patch budget (sequence length
//! `L`) trades accuracy for latency smoothly, so an overloaded engine can
//! degrade the *work per request* before it starts refusing requests
//! outright. This crate builds a small multi-threaded serving engine
//! around that idea, with the reliability staples wired in:
//!
//! * **Admission control** — a bounded queue; full means an explicit
//!   [`request::Outcome::Rejected`] with a retry hint, never unbounded
//!   memory growth ([`queue`]).
//! * **Deadlines** — cooperative cancellation checked between transformer
//!   blocks, so a blown deadline abandons the forward pass mid-stack
//!   instead of finishing work nobody will wait for ([`engine`]).
//! * **Circuit breakers** — a worker that keeps panicking or emitting
//!   NaN is taken out of rotation, cooled down, probed, and restored
//!   ([`breaker`]).
//! * **Graceful degradation** — queue depth drives a tier: full patch
//!   budget, then a reduced `target_len`, then a coarse uniform grid that
//!   skips edge analysis entirely ([`degrade`]).
//! * **Deterministic fault injection** — a seeded plan of panics, NaNs,
//!   and slowdowns keyed per worker, so soak runs replay exactly
//!   ([`fault`]).
//! * **A hardened socket front door** — the `APFW1` framed wire protocol
//!   over TCP with per-connection deadlines, per-tenant token-bucket
//!   quotas, graceful drain with terminal `GoAway`s, and a retrying
//!   backoff-aware client ([`wire`]).
//! * **Continuous batching + content-addressed caching** — every worker
//!   runs the batch scheduler (batches of one by default); opted in, it
//!   drains the queue into padded multi-request forwards (per-request
//!   key-padding masks keep every answer numerically equivalent to its solo
//!   forward),
//!   and a byte-budgeted cache keyed by image content memoizes quadtree
//!   builds across repeated slides with single-flight dedup ([`batch`]).
//!
//! ```
//! use apf_imaging::GrayImage;
//! use apf_serve::{SegRequest, ServeConfig, ServeEngine};
//!
//! let engine = ServeEngine::start(ServeConfig::small());
//! let image = GrayImage::from_fn(64, 64, |x, y| ((x ^ y) % 16) as f32 / 15.0);
//! let ticket = engine.submit(SegRequest { id: 1, image, deadline_ms: None });
//! let response = ticket.wait().expect("engine always responds");
//! assert_eq!(response.outcome.label(), "completed");
//! let report = engine.shutdown();
//! assert_eq!(report.metrics.completed, 1);
//! ```

pub mod batch;
pub mod breaker;
pub mod degrade;
pub mod engine;
pub mod fault;
pub mod queue;
pub mod request;
pub mod wire;

pub use batch::{
    batch_aware_retry_after, BatchConfig, BatchStatsSnapshot, CacheKey, CacheOutcome, CacheStats,
    ContentKey, PatchCache, VariantKey,
};
pub use breaker::{BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker};
pub use degrade::{coarse_uniform_sequence, DegradationPolicy, Tier};
pub use engine::{ServeConfig, ServeEngine, ServeMetrics, ServeReport, WorkerReport};
pub use fault::{InferenceFault, InferenceFaultKind, ServeFaultPlan, ServeFaultRates};
pub use queue::{BoundedQueue, Popped, PushError};
pub use request::{
    DeadlineStage, FailureReason, Outcome, SegRequest, SegResponse, SlideRequest, Ticket,
};
pub use wire::{
    ClientConfig, ClientError, NetFaultPlan, QuotaConfig, QuotaLimit, WireClient, WireConfig,
    WireError, WireRequest, WireServer, WireStatus,
};
