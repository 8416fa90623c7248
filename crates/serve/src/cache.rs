//! The deterministic LRU prediction cache, which holds calibrated cost
//! models.
//!
//! Calibrating the transfer model is `predict`'s costly step, and its
//! result is a pure function of (target machine, the target's stored
//! content, model family): the least-squares fit is deterministic over
//! key-ordered training pairs. So the cache holds the **calibrated
//! model**, keyed by exactly those three, with the content named by the
//! store's fingerprint of the target's sets. Every source priced on a
//! target shares one fit; a put that re-publishes identical content, or
//! writes another machine, invalidates nothing; any real change to the
//! target's content yields a new key, so a stale model is never served.
//! The key holds no store generation.
//!
//! Recency is a logical clock (one tick per access), not wall time, so
//! eviction order is a deterministic function of the access sequence —
//! the property tests replay sequences against a reference model. Hit,
//! miss and eviction totals are kept both locally (for `Stats` replies)
//! and in telemetry (`serve.cache.*`).

use np_models::transfer::TransferModel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// Cache key: everything a calibration depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Machine whose stored sets calibrate the model.
    pub target: String,
    /// Fingerprint of the target's stored content: FNV-1a over the
    /// content digests of its sets in key order.
    pub fingerprint: u64,
    /// Model family identifier ([`crate::proto::MODEL_ID`]).
    pub model: String,
}

/// A calibrated cost model and the number of stored sets it was fitted
/// from.
pub struct Calibration {
    /// The fitted model.
    pub model: TransferModel,
    /// Training-set size of the calibration.
    pub training_sets: u64,
}

struct Slot<V> {
    value: V,
    stamp: u64,
}

struct Inner<V> {
    capacity: usize,
    tick: u64,
    entries: HashMap<CacheKey, Slot<V>>,
}

/// Bounded LRU cache with deterministic eviction. The server stores
/// shared [`Calibration`]s; the eviction logic does not look at values.
pub struct PredictionCache<V = Arc<Calibration>> {
    inner: Mutex<Inner<V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> PredictionCache<V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        PredictionCache {
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                tick: 0,
                entries: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks a key up, refreshing its recency on hit.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(slot) => {
                slot.stamp = tick;
                self.hits.fetch_add(1, SeqCst);
                np_telemetry::counter!("serve.cache.hit").inc();
                Some(slot.value.clone())
            }
            None => {
                self.misses.fetch_add(1, SeqCst);
                np_telemetry::counter!("serve.cache.miss").inc();
                None
            }
        }
    }

    /// Inserts a value, evicting the least-recently-used entry when the
    /// cache is full. Stamps are unique (one per access), so the victim
    /// is unambiguous and eviction order is deterministic.
    pub fn insert(&self, key: CacheKey, value: V) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= inner.capacity {
            if let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, SeqCst);
                np_telemetry::counter!("serve.cache.evict").inc();
            }
        }
        inner.entries.insert(key, Slot { value, stamp: tick });
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entries
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .capacity
    }

    /// Hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(SeqCst)
    }

    /// Misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(SeqCst)
    }

    /// Evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fingerprint: u64) -> CacheKey {
        CacheKey {
            target: "dl580".to_string(),
            fingerprint,
            model: "m".to_string(),
        }
    }

    /// A stand-in cached value: eviction never looks at values.
    #[derive(Clone)]
    struct Priced {
        cost: f64,
    }

    fn cost(v: f64) -> Priced {
        Priced { cost: v }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = PredictionCache::new(4);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), cost(10.0));
        assert_eq!(cache.get(&key(1)).map(|c| c.cost), Some(10.0));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_bound_and_lru_eviction() {
        let cache = PredictionCache::new(2);
        cache.insert(key(1), cost(1.0));
        cache.insert(key(2), cost(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), cost(3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = PredictionCache::new(2);
        cache.insert(key(1), cost(1.0));
        cache.insert(key(2), cost(2.0));
        cache.insert(key(2), cost(2.5)); // overwrite, still full but no eviction
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&key(2)).map(|c| c.cost), Some(2.5));
    }

    #[test]
    fn distinct_targets_are_distinct_entries() {
        let cache = PredictionCache::new(4);
        let mut young = key(7);
        young.target = "ring".to_string();
        cache.insert(key(7), cost(1.0));
        assert!(cache.get(&young).is_none(), "target is part of the key");
    }
}
