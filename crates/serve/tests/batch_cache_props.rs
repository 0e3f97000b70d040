//! Property tests of the content-addressed preprocessing cache: key
//! discrimination (distinct bytes never alias), determinism (identical
//! slides always hit), the byte-budget invariant under arbitrary insert
//! sequences of real patch sequences, and single-flight build deduplication
//! under a real race. The eviction order itself is property-tested against
//! a reference model where it lives, in `apf_core::lru`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use apf_core::patchify::{Patch, PatchSequence};
use apf_imaging::GrayImage;
use apf_serve::{CacheKey, CacheOutcome, ContentKey, PatchCache, VariantKey};
use apf_telemetry::Telemetry;
use proptest::prelude::*;

fn variant() -> VariantKey {
    VariantKey { tier_rank: 0, patch_size: 4, budget: 64, coarse_leaf: 16 }
}

fn seq_of(pm: usize, n: usize, fill: f32) -> PatchSequence {
    PatchSequence {
        patches: (0..n).map(|_| Patch { pixels: vec![fill; pm * pm], region: None }).collect(),
        patch_size: pm,
        resolution: 64,
    }
}

/// Resident bytes one cached `seq_of(pm, n, _)` entry costs (pixel payload
/// plus per-patch bookkeeping), mirroring the cache's own accounting.
fn entry_bytes(pm: usize, n: usize) -> usize {
    n * (pm * pm * 4 + 48)
}

fn image_from(side: usize, pixels: &[u8]) -> GrayImage {
    GrayImage::from_fn(side, side, |x, y| pixels[y * side + x] as f32 / 255.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two images that differ in any pixel byte produce different content
    /// keys: geometry plus CRC-32 plus an independent FNV-1a must *all*
    /// collide before distinct tile bytes can alias.
    #[test]
    fn distinct_pixel_bytes_never_alias(
        pixels in prop::collection::vec(0u8..255, 64),
        flip_at in 0usize..64,
        delta in 1u8..255,
    ) {
        let a = image_from(8, &pixels);
        let mut altered = pixels.clone();
        altered[flip_at] = altered[flip_at].wrapping_add(delta);
        let b = image_from(8, &altered);
        prop_assert_ne!(ContentKey::of_image(&a), ContentKey::of_image(&b));
    }

    /// Same geometry, same bytes, different shape: a 4x16 buffer reshaped
    /// to 8x8 carries identical bytes but must not share a key.
    #[test]
    fn tile_crc_keys_fold_order_geometry_and_content(
        crcs in prop::collection::vec(0u32..u32::MAX, 2..8),
        w in 1u32..1024,
        h in 1u32..1024,
    ) {
        let base = ContentKey::of_tile_crcs(w, h, &crcs);
        // Deterministic.
        prop_assert_eq!(base, ContentKey::of_tile_crcs(w, h, &crcs));
        // Geometry is identity.
        prop_assert_ne!(base, ContentKey::of_tile_crcs(w + 1, h, &crcs));
        // Tile order is identity (same multiset, reversed order).
        let mut rev = crcs.clone();
        rev.reverse();
        if rev != crcs {
            prop_assert_ne!(base, ContentKey::of_tile_crcs(w, h, &rev));
        }
        // Any single-CRC perturbation changes the key.
        let mut bumped = crcs.clone();
        bumped[0] = bumped[0].wrapping_add(1);
        prop_assert_ne!(base, ContentKey::of_tile_crcs(w, h, &bumped));
    }

    /// An identical slide always hits: first lookup builds, every later
    /// lookup of the same pixels + knobs is a hit on the same entry.
    #[test]
    fn identical_slides_always_hit(
        pixels in prop::collection::vec(0u8..255, 64),
        repeats in 1usize..6,
    ) {
        let cache = PatchCache::new(1 << 20, &Telemetry::disabled());
        let img = image_from(8, &pixels);
        let key = CacheKey { content: ContentKey::of_image(&img), variant: variant() };
        let (first, o) = cache.get_or_build::<()>(key, || Ok(seq_of(4, 8, 0.5))).unwrap();
        prop_assert_eq!(o, CacheOutcome::Miss);
        for _ in 0..repeats {
            let rebuilt = CacheKey { content: ContentKey::of_image(&img), variant: variant() };
            let (again, o) = cache
                .get_or_build::<()>(rebuilt, || panic!("identical slide must not rebuild"))
                .unwrap();
            prop_assert_eq!(o, CacheOutcome::Hit);
            prop_assert!(Arc::ptr_eq(&first, &again));
        }
        prop_assert!(cache.stats().hit_rate() >= repeats as f64 / (repeats + 1) as f64 - 1e-9);
    }

    /// The byte budget is an invariant, not a target: after every insert in
    /// an arbitrary sequence of entry sizes, resident bytes stay within
    /// budget (oversize entries are returned uncached, smaller ones evict
    /// LRU victims to fit), and an entry that fits is resident at its full
    /// weight right after its build.
    #[test]
    fn eviction_respects_the_byte_budget(
        sizes in prop::collection::vec(1usize..24, 1..32),
        budget_entries in 1usize..8,
    ) {
        let pm = 4;
        let budget = entry_bytes(pm, 8) * budget_entries;
        let cache = PatchCache::new(budget, &Telemetry::disabled());
        for (i, &n) in sizes.iter().enumerate() {
            let key = CacheKey {
                content: ContentKey { width: 64, height: 64, crc: i as u32, fnv: i as u64 },
                variant: variant(),
            };
            cache.get_or_build::<()>(key, || Ok(seq_of(pm, n, 0.25))).unwrap();
            let resident = cache.stats().resident_bytes as usize;
            prop_assert!(resident <= budget, "budget violated after insert {}: {} > {}", i, resident, budget);
            if entry_bytes(pm, n) <= budget {
                prop_assert!(resident >= entry_bytes(pm, n), "insert {} not resident", i);
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, sizes.len() as u64);
        prop_assert!(stats.resident_bytes <= budget as u64);
    }
}

/// A genuine single-flight race: many threads look up the same key whose
/// build takes real time. Exactly one build must run; every thread gets the
/// same entry; the racers are classified as coalesced (waited on the
/// in-flight build) or hits (arrived after insert).
#[test]
fn single_flight_race_builds_exactly_once() {
    for round in 0..8u32 {
        let cache = Arc::new(PatchCache::new(1 << 20, &Telemetry::disabled()));
        let builds = Arc::new(AtomicUsize::new(0));
        let key = CacheKey {
            content: ContentKey { width: 64, height: 64, crc: round, fnv: round as u64 },
            variant: variant(),
        };
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || {
                    cache
                        .get_or_build::<()>(key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(20));
                            Ok(seq_of(4, 8, 0.125))
                        })
                        .unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight must build once");
        let (first, _) = &results[0];
        assert!(results.iter().all(|(seq, _)| Arc::ptr_eq(first, seq)));
        let misses = results.iter().filter(|(_, o)| *o == CacheOutcome::Miss).count();
        assert_eq!(misses, 1, "exactly one builder");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }
}
