//! Byte-budgeted, single-flight LRU cache: the one structure under both
//! the out-of-core tile cache and the serving preprocessing cache.
//!
//! Values are shared as `Arc<V>` and charged the bytes a caller-supplied
//! weigher reports. One policy holds for every owner:
//!
//! * **Evict first** — admitting an entry evicts least-recently-used
//!   entries until it fits, then inserts it, so `resident <= budget` holds
//!   after every operation. An entry larger than the whole budget is
//!   returned to its caller uncached.
//! * **Single-flight** — concurrent [`Lru::get_or_build`] calls for one key
//!   run one build; the rest wait and share its value. A build that fails
//!   (or panics) caches nothing and wakes every waiter, who then build for
//!   themselves, so an error is never memoised.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use apf_telemetry::{Counter, Gauge};
use serde::Serialize;

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CacheOutcome {
    /// Entry was resident; no work done.
    Hit,
    /// This caller built the entry.
    Miss,
    /// Another caller was already building the same key; this one waited
    /// and shares the result (a deduplicated miss).
    Coalesced,
}

/// Counters mirrored outside the telemetry registry so reports stay exact
/// when telemetry is disabled.
#[derive(Debug, Default, Clone, Serialize)]
pub struct CacheStats {
    /// Lookups satisfied from a resident entry.
    pub hits: u64,
    /// Lookups that found no resident entry.
    pub misses: u64,
    /// Lookups deduplicated onto another caller's in-flight build.
    pub coalesced: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Builds that failed (typed errors propagate, nothing is cached).
    pub build_failures: u64,
    /// Entries too large to ever cache (left uncached).
    pub oversize_rejections: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

impl CacheStats {
    /// Hit fraction over all completed lookups (coalesced waits count as
    /// hits for the "work skipped" interpretation).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }
}

/// Telemetry handles the cache keeps current, registered by the owner
/// under its own metric names; `Default` is all inert. The counters track
/// the [`CacheStats`] fields of the same names, the gauges the resident
/// bytes and entries.
#[derive(Clone, Default)]
pub struct LruMetrics {
    pub hits: Counter,
    pub misses: Counter,
    pub coalesced: Counter,
    pub evictions: Counter,
    pub resident_bytes: Gauge,
    pub resident_entries: Gauge,
}

/// A ledger outside the cache charged for the bytes the cache holds.
/// Evictions are released before the entry that caused them is charged.
pub trait Charge: Send + Sync {
    /// An entry of `bytes` became resident.
    fn add(&self, bytes: usize);
    /// An entry of `bytes` was evicted.
    fn sub(&self, bytes: usize);
}

enum Slot<V> {
    /// A builder is running; waiters block on the condvar.
    Building,
    /// Resident value, its byte charge and its recency stamp.
    Ready { value: Arc<V>, bytes: usize, stamp: u64 },
}

struct Inner<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Resident keys by last use, oldest first.
    recency: BTreeMap<u64, K>,
    clock: u64,
    resident_bytes: usize,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V> Inner<K, V> {
    /// The resident value of `key`, made most recently used.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let Some(Slot::Ready { value, stamp, .. }) = self.slots.get_mut(key) else {
            return None;
        };
        self.clock += 1;
        let k = self.recency.remove(stamp).expect("resident key has a stamp");
        *stamp = self.clock;
        self.recency.insert(self.clock, k);
        Some(Arc::clone(value))
    }
}

/// Byte-budgeted LRU of `Arc<V>` values with single-flight builds.
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
    budget: usize,
    weigh: fn(&V) -> usize,
    metrics: LruMetrics,
    charge: Option<Box<dyn Charge>>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A cache holding at most `budget_bytes`, charging each value
    /// `weigh(&value)` bytes.
    pub fn new(budget_bytes: usize, weigh: fn(&V) -> usize, metrics: LruMetrics) -> Self {
        let inner = Inner {
            slots: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            resident_bytes: 0,
            stats: CacheStats::default(),
        };
        let ready = Condvar::new();
        Lru { inner: Mutex::new(inner), ready, budget: budget_bytes, weigh, metrics, charge: None }
    }

    /// Also charges every resident byte to `charge`.
    pub fn with_charge(self, charge: impl Charge + 'static) -> Self {
        Lru { charge: Some(Box::new(charge)), ..self }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bytes currently resident (always within the budget).
    pub fn resident_bytes(&self) -> usize {
        self.lock().resident_bytes
    }

    /// Snapshot of the exact counters.
    pub fn stats(&self) -> CacheStats {
        let st = self.lock();
        let resident_entries = st.recency.len() as u64;
        CacheStats { resident_bytes: st.resident_bytes as u64, resident_entries, ..st.stats.clone() }
    }

    /// Evicts least-recently-used entries until `value` fits, then makes it
    /// resident — unless it exceeds the whole budget.
    fn admit(&self, st: &mut Inner<K, V>, key: K, value: Arc<V>) {
        let bytes = (self.weigh)(&value);
        if bytes > self.budget {
            st.stats.oversize_rejections += 1;
            return;
        }
        while st.resident_bytes + bytes > self.budget {
            let (_, victim) = st.recency.pop_first().expect("resident bytes imply an entry");
            if let Some(Slot::Ready { bytes: freed, .. }) = st.slots.remove(&victim) {
                st.resident_bytes -= freed;
                st.stats.evictions += 1;
                self.metrics.evictions.inc();
                self.charge.iter().for_each(|c| c.sub(freed));
            }
        }
        st.clock += 1;
        st.recency.insert(st.clock, key.clone());
        st.slots.insert(key, Slot::Ready { value, bytes, stamp: st.clock });
        st.resident_bytes += bytes;
        self.charge.iter().for_each(|c| c.add(bytes));
        self.metrics.resident_bytes.set(st.resident_bytes as f64);
        self.metrics.resident_entries.set(st.recency.len() as f64);
    }

    /// Looks up `key`, building it with `build` on a miss. Exactly one
    /// caller builds per key at a time; racers wait and share the result.
    /// An error goes to the builder only: the waiters are woken and retry
    /// the build themselves, and nothing is cached.
    pub fn get_or_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, CacheOutcome), E> {
        let mut waited = false;
        let mut st = self.lock();
        loop {
            if let Some(value) = st.touch(&key) {
                if waited {
                    st.stats.coalesced += 1;
                    self.metrics.coalesced.inc();
                    return Ok((value, CacheOutcome::Coalesced));
                }
                st.stats.hits += 1;
                self.metrics.hits.inc();
                return Ok((value, CacheOutcome::Hit));
            }
            if !st.slots.contains_key(&key) {
                break; // absent: this caller builds
            }
            waited = true;
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.slots.insert(key.clone(), Slot::Building);
        drop(st);
        let mut flight = Flight { lru: self, key: &key, landed: false };
        let built = build();
        flight.landed = true;
        let mut st = self.lock();
        st.slots.remove(&key);
        let result = match built {
            Err(e) => {
                st.stats.build_failures += 1;
                Err(e)
            }
            Ok(value) => {
                st.stats.misses += 1;
                self.metrics.misses.inc();
                let value = Arc::new(value);
                self.admit(&mut st, key.clone(), Arc::clone(&value));
                Ok((value, CacheOutcome::Miss))
            }
        };
        drop(st);
        self.ready.notify_all();
        result
    }
}

/// Frees an in-flight slot whose build unwound, so its waiters build for
/// themselves instead of waiting on a builder that is gone.
struct Flight<'a, K: Eq + Hash + Clone, V> {
    lru: &'a Lru<K, V>,
    key: &'a K,
    landed: bool,
}

impl<K: Eq + Hash + Clone, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        if !self.landed {
            self.lru.lock().slots.remove(self.key);
            self.lru.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Values are their own byte charge.
    fn cache(budget: usize) -> Lru<u32, usize> {
        Lru::new(budget, |&b| b, LruMetrics::default())
    }

    #[test]
    fn hit_after_miss_and_stats_track() {
        let c = cache(1 << 20);
        let (a, o1) = c.get_or_build::<()>(1, || Ok(896)).unwrap();
        let (b, o2) = c.get_or_build::<()>(1, || panic!("must not rebuild")).unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Hit));
        assert!(Arc::ptr_eq(&a, &b));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident_bytes, s.resident_entries), (1, 1, 896, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn eviction_respects_budget_and_prefers_lru() {
        let c = cache(1800); // fits two 896-byte entries
        c.get_or_build::<()>(1, || Ok(896)).unwrap();
        c.get_or_build::<()>(2, || Ok(896)).unwrap();
        c.get_or_build::<()>(1, || panic!("resident")).unwrap(); // key 2 is now LRU
        c.get_or_build::<()>(3, || Ok(896)).unwrap();
        assert!(c.resident_bytes() <= 1800);
        let (_, o1) = c.get_or_build::<()>(1, || panic!("evicted the MRU")).unwrap();
        let (_, o2) = c.get_or_build::<()>(2, || Ok(896)).unwrap();
        assert_eq!((o1, o2, c.stats().evictions), (CacheOutcome::Hit, CacheOutcome::Miss, 2));
    }

    #[test]
    fn oversize_entries_are_returned_but_never_cached() {
        let c = cache(100);
        let (v, o) = c.get_or_build::<()>(9, || Ok(896)).unwrap();
        assert_eq!((*v, o, c.resident_bytes()), (896, CacheOutcome::Miss, 0));
        assert_eq!(c.stats().oversize_rejections, 1);
    }

    #[test]
    fn failed_or_panicking_builds_are_not_cached() {
        let c = cache(1 << 20);
        assert_eq!(c.get_or_build(5, || Err("bad pixels")).unwrap_err(), "bad pixels");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.get_or_build::<()>(5, || panic!("builder died"))
        }));
        assert!(unwound.is_err());
        // The key is free again: a later build succeeds.
        let (_, o) = c.get_or_build::<()>(5, || Ok(16)).unwrap();
        assert_eq!((o, c.stats().build_failures), (CacheOutcome::Miss, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary `get_or_build` sequences (succeeding or failing) with
        /// arbitrary byte sizes, oversize included, agree after every
        /// operation with a naive model — a `Vec` of `(key, bytes)`, least
        /// recently used first: the same outcomes, the same resident keys
        /// in the same order, the same evictions, within budget.
        #[test]
        fn matches_naive_reference_model(
            budget in 0usize..4096,
            ops in prop::collection::vec(0u32..u32::MAX, 1..64),
        ) {
            let c = cache(budget);
            let mut model: Vec<(u32, usize)> = Vec::new();
            let mut evictions = 0u64;
            for (step, &op) in ops.iter().enumerate() {
                let (key, bytes) = (op % 8, (op >> 8) as usize % (budget + budget / 2 + 2));
                let succeeds = (op >> 4) % 4 != 0;
                let r = c.get_or_build(key, || if succeeds { Ok(bytes) } else { Err(step) });
                let expect = match model.iter().position(|e| e.0 == key) {
                    Some(i) => {
                        let e = model.remove(i);
                        model.push(e);
                        Ok((e.1, CacheOutcome::Hit))
                    }
                    None if succeeds => {
                        if bytes <= budget {
                            while model.iter().map(|e| e.1).sum::<usize>() + bytes > budget {
                                model.remove(0);
                                evictions += 1;
                            }
                            model.push((key, bytes));
                        }
                        Ok((bytes, CacheOutcome::Miss))
                    }
                    None => Err(step),
                };
                prop_assert_eq!(r.map(|(v, o)| (*v, o)), expect);
                let keys: Vec<u32> = c.lock().recency.values().copied().collect();
                prop_assert_eq!(keys, model.iter().map(|e| e.0).collect::<Vec<_>>());
                let resident: usize = model.iter().map(|e| e.1).sum();
                let s = c.stats();
                prop_assert_eq!((s.evictions, s.resident_bytes), (evictions, resident as u64));
                prop_assert!(c.resident_bytes() <= budget);
            }
        }
    }
}
