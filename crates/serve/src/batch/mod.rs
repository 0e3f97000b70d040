//! Continuous batching + content-addressed preprocessing cache.
//!
//! The paper's fixed-length Morton-ordered patch sequences make
//! cross-request batching natural: every admitted request is a same-shape
//! token sequence, so a padded multi-request forward with per-request
//! key-padding masks amortizes one graph build, one parameter bind, and
//! one SGEMM sweep over many requests — without changing any answer
//! (attention is block-diagonal per batch sample, so each response is
//! numerically equivalent to its solo forward; batch size 1 is bit-exact).
//!
//! Two cooperating pieces:
//!
//! * [`scheduler`] — the engine's only worker loop. It drains the
//!   admission queue into batches closed at `max_batch` requests or
//!   `batch_linger` expiry, whichever comes first; the default (`max_batch`
//!   1, no linger) serves each request alone. Batches are homogeneous per
//!   degradation tier (the tier decides the patch budget, and mixing
//!   budgets would cross-subsidize latency); slides never batch. Requests
//!   whose deadline expires while a batch lingers are evicted with a typed
//!   `DeadlineExceeded { stage: Batching }` instead of dragging the whole
//!   batch past its SLO.
//! * [`cache`] — a bounded content-addressed cache of preprocessed patch
//!   sequences, keyed by image content hash / `APT1` tile CRCs plus the
//!   preprocessing knobs, with byte-budgeted LRU eviction and single-flight
//!   deduplication of identical in-flight builds.

pub mod cache;
pub mod scheduler;

pub use cache::{CacheKey, CacheOutcome, CacheStats, ContentKey, PatchCache, VariantKey};
pub use scheduler::{batch_aware_retry_after, BatchStatsSnapshot};

/// Knobs of the batch scheduler and its preprocessing cache. The default
/// serves every request alone (`max_batch` 1, no linger) with no cache.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Close a forming batch once it holds this many requests.
    pub max_batch: usize,
    /// Close a forming batch this long after its first request even if it
    /// is not full — the latency a lightly loaded request donates to
    /// throughput.
    pub batch_linger_ms: u64,
    /// Byte budget of the content-addressed preprocessing cache; `0`
    /// disables caching (every request rebuilds its quadtree, and nothing
    /// is hashed).
    pub cache_budget_bytes: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 1, batch_linger_ms: 0, cache_budget_bytes: 0 }
    }
}

impl BatchConfig {
    /// Batches of up to `max_batch` requests gathered for at most
    /// `batch_linger_ms`, with a 64 MiB preprocessing cache.
    pub fn enabled(max_batch: usize, batch_linger_ms: u64) -> Self {
        BatchConfig { max_batch: max_batch.max(1), batch_linger_ms, cache_budget_bytes: 64 << 20 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_serve_batches_of_one_without_a_cache() {
        let cfg = BatchConfig::default();
        assert_eq!((cfg.max_batch, cfg.batch_linger_ms, cfg.cache_budget_bytes), (1, 0, 0));
    }

    #[test]
    fn enabled_clamps_max_batch_to_one() {
        let cfg = BatchConfig::enabled(0, 5);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.batch_linger_ms, 5);
        assert!(cfg.cache_budget_bytes > 0);
    }
}
