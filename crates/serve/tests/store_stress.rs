//! Concurrency stress for the sharded store and properties of the LRU
//! prediction cache.
//!
//! The store test is seeded and deterministic in its *data* (what every
//! writer writes is a pure function of its ids) while the thread
//! interleaving is whatever the scheduler produces — the assertions hold
//! for every interleaving: no put is lost, and every snapshot a reader
//! observes is sorted and contains only values some writer actually
//! wrote. The cache tests replay generated access sequences against a
//! reference LRU model, which is exactly what "deterministic eviction"
//! promises: the cache is a function of the access sequence.

use np_serve::cache::{CacheKey, PredictionCache};
use np_serve::proto::{IndicatorKey, IndicatorSet, QueryReq};
use np_serve::store::ShardedStore;
use np_simulator::HwEvent;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

const WRITERS: u64 = 4;
const KEYS_PER_WRITER: u64 = 32;
const VERSIONS: u64 = 3;

/// Encodes (writer, key, version) into a cycles value so a reader can
/// check any observed set against what writers are allowed to write.
fn cycles_of(writer: u64, key: u64, version: u64) -> f64 {
    (writer * 1_000_000 + key * 1_000 + version) as f64
}

fn stress_set(writer: u64, key: u64, version: u64) -> IndicatorSet {
    let mut indicators = BTreeMap::new();
    indicators.insert(HwEvent::L1dMiss, (key * 7 + version) as f64);
    indicators.insert(HwEvent::L3Miss, (writer + 1) as f64);
    IndicatorSet {
        key: IndicatorKey {
            machine: format!("m{writer}"),
            program: "stress".to_string(),
            param: key,
        },
        seed: writer * 100 + key,
        cycles: cycles_of(writer, key, version),
        indicators,
        memhist: None,
        phases: None,
    }
}

#[test]
fn concurrent_writers_and_readers_lose_nothing() {
    let store = Arc::new(ShardedStore::new(8));
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for version in 0..VERSIONS {
                    for key in 0..KEYS_PER_WRITER {
                        store.put(stress_set(w, key, version));
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..4u64)
        .map(|r| {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let machine = format!("m{}", r % WRITERS);
                let mut snapshots = 0u64;
                // At least 50 snapshots even if the writers win the race
                // and finish before this thread is first scheduled.
                while snapshots < 50 || !done.load(SeqCst) {
                    let got = store.query(&QueryReq::machine(&machine));
                    // Stable snapshot: sorted by key, no duplicates, and
                    // every value is one some writer legitimately wrote.
                    for pair in got.windows(2) {
                        assert!(pair[0].key < pair[1].key, "unsorted or duplicated snapshot");
                    }
                    for set in &got {
                        let w: u64 = machine[1..].parse().unwrap();
                        let version = set.cycles as u64 % 1_000;
                        assert!(version < VERSIONS, "cycles {} never written", set.cycles);
                        assert_eq!(set.cycles, cycles_of(w, set.key.param, version));
                    }
                    snapshots += 1;
                }
                snapshots
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, SeqCst);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader observed no snapshots");
    }

    // No lost updates: every key is present, holding its *last* write
    // (per-key writes come from a single writer in version order).
    assert_eq!(store.len(), (WRITERS * KEYS_PER_WRITER) as usize);
    assert_eq!(store.generation(), WRITERS * KEYS_PER_WRITER * VERSIONS);
    for w in 0..WRITERS {
        for key in 0..KEYS_PER_WRITER {
            let got = store
                .get(&IndicatorKey {
                    machine: format!("m{w}"),
                    program: "stress".to_string(),
                    param: key,
                })
                .unwrap_or_else(|| panic!("lost put m{w}/stress/{key}"));
            assert_eq!(got.cycles, cycles_of(w, key, VERSIONS - 1));
        }
    }
}

// ---------------------------------------------------------------------
// LRU cache properties, checked against a reference model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..10).prop_map(Op::Get),
        (0u64..10).prop_map(Op::Insert)
    ]
}

/// Reference LRU: a recency-ordered vector (last = most recent).
struct RefLru {
    cap: usize,
    order: Vec<u64>,
}

impl RefLru {
    fn get(&mut self, d: u64) -> bool {
        match self.order.iter().position(|&x| x == d) {
            Some(pos) => {
                let v = self.order.remove(pos);
                self.order.push(v);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, d: u64) -> bool {
        if let Some(pos) = self.order.iter().position(|&x| x == d) {
            self.order.remove(pos);
            self.order.push(d);
            return false;
        }
        let evicted = if self.order.len() >= self.cap {
            self.order.remove(0);
            true
        } else {
            false
        };
        self.order.push(d);
        evicted
    }
}

fn cache_key(fingerprint: u64) -> CacheKey {
    CacheKey {
        target: "dl580".to_string(),
        fingerprint,
        model: "transfer-linear-v1".to_string(),
    }
}

/// A stand-in cached value: eviction never looks at values.
#[derive(Clone)]
struct Cached {
    cost: f64,
}

fn cached(fingerprint: u64) -> Cached {
    Cached {
        cost: fingerprint as f64 * 3.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying any access sequence, the cache agrees with the
    /// reference model on every hit/miss, never exceeds capacity, and
    /// evicts exactly the reference's victims (same count, and the
    /// surviving membership matches).
    #[test]
    fn cache_tracks_reference_lru(
        ops in proptest::collection::vec(op(), 0..120),
        cap in 1usize..6,
    ) {
        let cache: PredictionCache<Cached> = PredictionCache::new(cap);
        let mut reference = RefLru { cap, order: Vec::new() };
        for o in &ops {
            match *o {
                Op::Get(d) => {
                    let hit = cache.get(&cache_key(d)).is_some();
                    prop_assert_eq!(hit, reference.get(d));
                    if hit {
                        prop_assert_eq!(cache.get(&cache_key(d)).map(|c| c.cost),
                                        Some(cached(d).cost));
                        reference.get(d); // mirror the extra touch
                    }
                }
                Op::Insert(d) => {
                    let before = cache.evictions();
                    cache.insert(cache_key(d), cached(d));
                    prop_assert_eq!(cache.evictions() - before,
                                    u64::from(reference.insert(d)));
                }
            }
            prop_assert!(cache.len() <= cap, "capacity bound violated");
            prop_assert_eq!(cache.len(), reference.order.len());
        }
        // Final membership must match the reference exactly.
        let survivors = reference.order.clone();
        for d in 0u64..10 {
            prop_assert_eq!(cache.get(&cache_key(d)).is_some(), survivors.contains(&d));
        }
    }

    /// The content digest is stable across a serde round-trip (so a set
    /// stored through the wire caches identically to one stored
    /// in-process) and sensitive to the fields a prediction depends on.
    #[test]
    fn digest_is_roundtrip_stable_and_content_sensitive(
        param in 0u64..1_000,
        cycles in 1.0f64..1e9,
        misses in 0.0f64..1e6,
    ) {
        let mut indicators = BTreeMap::new();
        indicators.insert(HwEvent::L1dMiss, misses);
        let set = IndicatorSet {
            key: IndicatorKey {
                machine: "dl580".to_string(),
                program: "stream".to_string(),
                param,
            },
            seed: 42,
            cycles,
            indicators,
            memhist: None,
            phases: None,
        };
        let wire = serde_json::to_string(&set).unwrap();
        let back: IndicatorSet = serde_json::from_str(&wire).unwrap();
        prop_assert_eq!(back.digest(), set.digest());

        let mut touched = back.clone();
        touched.cycles += 1.0;
        prop_assert!(touched.digest() != set.digest());
    }
}
