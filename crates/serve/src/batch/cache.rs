//! Content-addressed preprocessing cache with single-flight deduplication.
//!
//! Quadtree construction is deterministic in the input tile bytes: the same
//! pixels under the same patcher knobs always yield the same Morton-ordered
//! patch sequence. That makes preprocessing memoizable by *content*, not by
//! request id — a repeated slide (the dominant pattern when a pathology
//! viewer pans and re-pans the same region) skips blur, Canny, quadtree,
//! and patch projection entirely.
//!
//! The key carries the design: it is derived from the raw pixel bytes
//! (or, for `APT1` containers, the per-tile CRC-32s the store already
//! maintains) plus every preprocessing knob that shapes the output.
//! Geometry, a CRC-32, and an independent 64-bit FNV-1a are folded into the
//! key, so two buffers must collide in *both* checksums *and* share
//! geometry and knobs before they can alias.
//!
//! Storage is the shared [`apf_core::lru::Lru`]: entries are charged their
//! approximate resident bytes, the least recently used are evicted before
//! an insert so `resident <= budget` always holds, an entry bigger than the
//! whole budget is returned uncached, and racing identical requests
//! single-flight onto one build. A failed build caches nothing, so a typed
//! validation error propagates instead of being memoized.

use std::sync::Arc;

use apf_core::crc32::{crc32, Crc32};
use apf_core::le::for_each_le_block;
use apf_core::lru::{Lru, LruMetrics};
use apf_core::patchify::PatchSequence;
use apf_imaging::GrayImage;
use apf_telemetry::Telemetry;
use serde::Serialize;

pub use apf_core::lru::{CacheOutcome, CacheStats};

/// Content identity of one input image / tile region. Derived from bytes,
/// never from request ids, so identical pixels always address the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ContentKey {
    /// Input width in pixels (geometry is part of identity).
    pub width: u32,
    /// Input height in pixels.
    pub height: u32,
    /// CRC-32 of the little-endian pixel bytes — the same polynomial the
    /// `APT1` tile index stores, so container CRCs can seed keys directly.
    pub crc: u32,
    /// Independent FNV-1a 64-bit hash of the same bytes.
    pub fnv: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// Continues an FNV-1a 64-bit hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl ContentKey {
    /// Keys an in-memory image by its raw pixel bytes.
    /// Both hashes read the same stack blocks, so the image is never copied.
    pub fn of_image(img: &GrayImage) -> Self {
        let mut crc = Crc32::new();
        let mut fnv = FNV_OFFSET;
        for_each_le_block(img.data(), |bytes| {
            crc.update(bytes);
            fnv = fnv1a(fnv, bytes);
        });
        ContentKey {
            width: img.width() as u32,
            height: img.height() as u32,
            crc: crc.finalize(),
            fnv,
        }
    }

    /// Keys an `APT1` tile region by the per-tile payload CRCs the
    /// container's index already holds — no tile needs to be read to decide
    /// whether its preprocessing is cached.
    pub fn of_tile_crcs(width: u32, height: u32, tile_crcs: &[u32]) -> Self {
        let mut bytes = Vec::with_capacity(tile_crcs.len() * 4);
        for c in tile_crcs {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        ContentKey { width, height, crc: crc32(&bytes), fnv: fnv1a(FNV_OFFSET, &bytes) }
    }
}

/// The preprocessing knobs that shape the cached sequence. Two requests for
/// the same pixels under different tiers/budgets must not share an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct VariantKey {
    /// Degradation tier rank (coarse skips the edge pipeline entirely).
    pub tier_rank: u8,
    /// Minimal patch size `P_m`.
    pub patch_size: u16,
    /// Token budget the sequence was clamped to.
    pub budget: u32,
    /// Coarse-tier uniform leaf side (ignored by the full/reduced paths
    /// but kept in the key unconditionally for simplicity).
    pub coarse_leaf: u32,
}

/// Full cache key: content identity x preprocessing variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CacheKey {
    /// What the pixels are.
    pub content: ContentKey,
    /// How they are preprocessed.
    pub variant: VariantKey,
}

impl CacheKey {
    /// Deterministic content-derived seed for the random Z-order drop:
    /// identical content + variant always drops the same patches, which is
    /// what makes the cached sequence reusable across requests.
    pub fn drop_seed(&self) -> u64 {
        self.content.fnv
            ^ ((self.content.crc as u64) << 32)
            ^ self.variant.budget as u64
            ^ ((self.variant.tier_rank as u64) << 56)
    }
}

/// Telemetry handles under the serving cache's metric names; all inert
/// when the engine telemetry is disabled.
fn metrics(tel: &Telemetry) -> LruMetrics {
    let outcome = |o: &'static str| {
        tel.counter_with(
            "apf_serve_batch_cache_lookups_total",
            vec![("outcome", o.to_string())],
            "Preprocessing-cache lookups by outcome",
        )
    };
    LruMetrics {
        hits: outcome("hit"),
        misses: outcome("miss"),
        coalesced: outcome("coalesced"),
        evictions: tel.counter(
            "apf_serve_batch_cache_evictions_total",
            "Preprocessing-cache entries evicted by the byte budget",
        ),
        resident_bytes: tel.gauge(
            "apf_serve_batch_cache_resident_bytes",
            "Bytes of patch sequences resident in the preprocessing cache",
        ),
        resident_entries: tel.gauge(
            "apf_serve_batch_cache_resident_entries",
            "Entries resident in the preprocessing cache",
        ),
    }
}

/// Approximate resident bytes of a cached sequence: pixel payload plus
/// per-patch bookkeeping overhead.
fn sequence_bytes(seq: &PatchSequence) -> usize {
    let d = seq.patch_size * seq.patch_size;
    seq.len() * (d * 4 + 48)
}

/// Bounded content-addressed cache of preprocessed patch sequences.
pub struct PatchCache {
    lru: Lru<CacheKey, PatchSequence>,
}

impl PatchCache {
    /// Creates a cache holding at most `budget_bytes` of patch sequences.
    pub fn new(budget_bytes: usize, tel: &Telemetry) -> Self {
        PatchCache { lru: Lru::new(budget_bytes, sequence_bytes, metrics(tel)) }
    }

    /// Snapshot of the exact counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }

    /// Looks up `key`, building it with `build` on a miss; see
    /// [`Lru::get_or_build`] for the single-flight and failure rules.
    pub fn get_or_build<E>(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<PatchSequence, E>,
    ) -> Result<(Arc<PatchSequence>, CacheOutcome), E> {
        self.lru.get_or_build(key, build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apf_core::patchify::Patch;

    fn seq_of(pm: usize, n: usize, fill: f32) -> PatchSequence {
        PatchSequence {
            patches: (0..n)
                .map(|_| Patch { pixels: vec![fill; pm * pm], region: None })
                .collect(),
            patch_size: pm,
            resolution: 64,
        }
    }

    fn key(crc: u32, fnv: u64) -> CacheKey {
        CacheKey {
            content: ContentKey { width: 64, height: 64, crc, fnv },
            variant: VariantKey { tier_rank: 0, patch_size: 4, budget: 64, coarse_leaf: 16 },
        }
    }

    #[test]
    fn distinct_variants_do_not_share_entries() {
        let cache = PatchCache::new(1 << 20, &Telemetry::disabled());
        let mut k2 = key(7, 7);
        k2.variant.budget = 32;
        cache.get_or_build::<()>(key(7, 7), || Ok(seq_of(4, 8, 0.0))).unwrap();
        let (_, o) = cache.get_or_build::<()>(k2, || Ok(seq_of(4, 4, 0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn sequences_are_weighed_and_evicted_under_the_budget() {
        // 8 patches of 4x4 weigh 8 x (64 + 48) = 896 bytes: two fit in 1800.
        let cache = PatchCache::new(1800, &Telemetry::disabled());
        for i in 0..3 {
            cache.get_or_build::<()>(key(i, 0), || Ok(seq_of(4, 8, 0.0))).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.resident_bytes, s.resident_entries, s.evictions), (2 * 896, 2, 1));
        let (_, o) = cache.get_or_build::<()>(key(0, 0), || Ok(seq_of(4, 8, 0.0))).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "the least recently used entry was the victim");
    }

    #[test]
    fn image_keys_match_the_byte_copy_formula() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        // Sizes below, at and across the 1024-pixel hashing block.
        for (w, h) in [(1, 1), (7, 3), (32, 32), (33, 31), (64, 64), (100, 41)] {
            let pixels = (0..w * h).map(|_| rng.gen::<f32>() * 2.0 - 0.5).collect();
            let img = GrayImage::from_raw(w, h, pixels);
            let bytes: Vec<u8> = img.data().iter().flat_map(|v| v.to_le_bytes()).collect();
            let copied = ContentKey {
                width: w as u32,
                height: h as u32,
                crc: crc32(&bytes),
                fnv: fnv1a(FNV_OFFSET, &bytes),
            };
            assert_eq!(ContentKey::of_image(&img), copied, "{w}x{h}");
        }
    }

    #[test]
    fn content_keys_fold_geometry_and_both_hashes() {
        let a = GrayImage::from_fn(8, 8, |x, y| (x * 8 + y) as f32 / 63.0);
        let mut b = a.clone();
        b.set(3, 3, 0.123);
        let (ka, kb) = (ContentKey::of_image(&a), ContentKey::of_image(&b));
        assert_ne!(ka, kb);
        assert_eq!(ka, ContentKey::of_image(&a));
        // Tile-CRC keys: order matters, content matters.
        let t1 = ContentKey::of_tile_crcs(128, 128, &[1, 2, 3]);
        let t2 = ContentKey::of_tile_crcs(128, 128, &[3, 2, 1]);
        assert_ne!(t1, t2);
        assert_eq!(t1, ContentKey::of_tile_crcs(128, 128, &[1, 2, 3]));
    }
}
