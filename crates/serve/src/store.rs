//! The sharded indicator store.
//!
//! N shards, each an independent `RwLock<HashMap>`, with deterministic
//! FNV-1a key routing — writers only serialize against readers of the
//! same shard, so a put-heavy client cannot stall the query path. A
//! batched query frame is answered in **one pass per shard**: every
//! shard's read lock is taken once and each stored entry is tested
//! against all filters of the batch while the lock is held, instead of
//! re-walking the store per query.
//!
//! Iteration results are **stable snapshots**: matching sets are returned
//! sorted by key as `Arc` clones taken under the lock, so a reader's
//! result is internally consistent even while writers land on other
//! shards. Each entry keeps its set's content digest beside it, computed
//! on first use rather than in `put` (digesting an 18-indicator set,
//! which serializes it, took 5–6 µs on a 2-vCPU host against 0.3–0.6 µs
//! for the put), so `ShardedStore::machine_snapshot` can fingerprint a
//! machine's content without re-digesting what did not change. The
//! prediction cache keys calibrated models on that fingerprint: a put
//! that re-publishes identical content, or writes another machine,
//! leaves every cached model valid. A monotonically increasing
//! *generation* counter still counts every write for `put` and `stats`
//! replies.

use crate::proto::{fnv1a64, IndicatorKey, IndicatorSet, PutReply, QueryReq};
use np_models::transfer::Indicators;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock, RwLock};

/// One stored set and its content digest, filled on first use.
struct Entry {
    set: Arc<IndicatorSet>,
    digest: OnceLock<u64>,
}

impl Entry {
    fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.set.digest())
    }
}

type Shard = RwLock<HashMap<IndicatorKey, Entry>>;

/// The concurrent indicator store.
pub struct ShardedStore {
    shards: Vec<Shard>,
    generation: AtomicU64,
}

/// One machine's stored sets, read in one pass per shard, and a
/// fingerprint of their content.
pub(crate) struct MachineSnapshot {
    /// The machine's sets in ascending key order.
    sets: Vec<Arc<IndicatorSet>>,
    /// FNV-1a over the sets' content digests in key order. Digests cover
    /// keys, so equal fingerprints mean equal stored content.
    fingerprint: u64,
}

impl MachineSnapshot {
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Calibration pairs `(indicators, cycles)` in key order.
    pub(crate) fn training_pairs(&self) -> Vec<(Indicators, f64)> {
        pairs_of(&self.sets)
    }
}

fn pairs_of(sets: &[Arc<IndicatorSet>]) -> Vec<(Indicators, f64)> {
    sets.iter()
        .map(|s| (s.indicators.clone(), s.cycles))
        .collect()
}

impl ShardedStore {
    /// Creates a store with `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1);
        ShardedStore {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Current generation (number of puts since creation).
    pub fn generation(&self) -> u64 {
        self.generation.load(SeqCst)
    }

    fn shard_of(&self, key: &IndicatorKey) -> &Shard {
        let mut bytes = Vec::with_capacity(key.machine.len() + key.program.len() + 10);
        bytes.extend_from_slice(key.machine.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(key.program.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&key.param.to_le_bytes());
        let idx = (fnv1a64(&bytes) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Stores (or replaces) a set, bumping the generation. The set's
    /// digest is left for its first reader to compute.
    pub fn put(&self, set: IndicatorSet) -> PutReply {
        let shard = self.shard_of(&set.key);
        let entry = Entry {
            set: Arc::new(set),
            digest: OnceLock::new(),
        };
        let mut map = shard.write().unwrap_or_else(|p| p.into_inner());
        let replaced = map.insert(entry.set.key.clone(), entry).is_some();
        let generation = self.generation.fetch_add(1, SeqCst) + 1;
        PutReply {
            replaced,
            generation,
        }
    }

    /// Exact-key lookup.
    pub fn get(&self, key: &IndicatorKey) -> Option<Arc<IndicatorSet>> {
        let map = self.shard_of(key).read().unwrap_or_else(|p| p.into_inner());
        map.get(key).map(|entry| Arc::clone(&entry.set))
    }

    /// All sets matching the filter, sorted by key.
    pub fn query(&self, q: &QueryReq) -> Vec<Arc<IndicatorSet>> {
        let mut batch = self.query_batch(std::slice::from_ref(q));
        batch.pop().unwrap_or_default()
    }

    /// Answers a whole batch of queries in one pass per shard: each
    /// shard's read lock is taken once, and every entry is matched
    /// against all filters while it is held. Results are per-query,
    /// sorted by key.
    pub fn query_batch(&self, queries: &[QueryReq]) -> Vec<Vec<Arc<IndicatorSet>>> {
        let mut out: Vec<Vec<Arc<IndicatorSet>>> = vec![Vec::new(); queries.len()];
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|p| p.into_inner());
            for (key, entry) in map.iter() {
                for (qi, q) in queries.iter().enumerate() {
                    if q.matches(key) {
                        out[qi].push(Arc::clone(&entry.set));
                    }
                }
            }
        }
        for sets in &mut out {
            sets.sort_by(|a, b| a.key.cmp(&b.key));
        }
        out
    }

    /// Total stored sets.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calibration pairs `(indicators, cycles)` from every set stored for
    /// `machine`, in ascending key order. The deterministic order matters:
    /// the transfer fit's greedy feature selection is order-sensitive, so
    /// a fixed order makes server-side fits reproducible by clients.
    pub fn training_pairs(&self, machine: &str) -> Vec<(Indicators, f64)> {
        pairs_of(&self.query(&QueryReq::machine(machine)))
    }

    /// Every set stored for `machine`, in ascending key order, with the
    /// fingerprint of that content — one read lock per shard. Digests not
    /// yet known are computed under the read lock, once per stored set.
    pub(crate) fn machine_snapshot(&self, machine: &str) -> MachineSnapshot {
        let mut found: Vec<(Arc<IndicatorSet>, u64)> = Vec::new();
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|p| p.into_inner());
            for (key, entry) in map.iter() {
                if key.machine == machine {
                    found.push((Arc::clone(&entry.set), entry.digest()));
                }
            }
        }
        found.sort_by(|a, b| a.0.key.cmp(&b.0.key));
        let mut bytes = Vec::with_capacity(found.len() * 8);
        for (_, digest) in &found {
            bytes.extend_from_slice(&digest.to_le_bytes());
        }
        MachineSnapshot {
            fingerprint: fnv1a64(&bytes),
            sets: found.into_iter().map(|(set, _)| set).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::tests::sample_set;

    fn key(machine: &str, program: &str, param: u64) -> IndicatorKey {
        IndicatorKey {
            machine: machine.to_string(),
            program: program.to_string(),
            param,
        }
    }

    #[test]
    fn put_get_replace() {
        let store = ShardedStore::new(4);
        let r = store.put(sample_set("dl580", "stream", 1));
        assert!(!r.replaced);
        assert_eq!(r.generation, 1);
        let r = store.put(sample_set("dl580", "stream", 1));
        assert!(r.replaced);
        assert_eq!(r.generation, 2);
        assert_eq!(store.len(), 1);
        assert!(store.get(&key("dl580", "stream", 1)).is_some());
        assert!(store.get(&key("dl580", "stream", 2)).is_none());
    }

    #[test]
    fn queries_return_sorted_snapshots() {
        let store = ShardedStore::new(3);
        for param in [5, 1, 9, 3] {
            store.put(sample_set("dl580", "stream", param));
            store.put(sample_set("ring", "stride", param));
        }
        let got = store.query(&QueryReq::machine("dl580"));
        let params: Vec<u64> = got.iter().map(|s| s.key.param).collect();
        assert_eq!(params, vec![1, 3, 5, 9]);
        assert_eq!(store.query(&QueryReq::any()).len(), 8);
    }

    #[test]
    fn batch_matches_individual_queries() {
        let store = ShardedStore::new(5);
        for param in 0..10 {
            store.put(sample_set("a", "p", param));
            store.put(sample_set("b", "q", param));
        }
        let queries = vec![
            QueryReq::any(),
            QueryReq::machine("a"),
            QueryReq {
                machine: Some("b".to_string()),
                program: Some("q".to_string()),
                param: Some(7),
            },
            QueryReq::machine("absent"),
        ];
        let batch = store.query_batch(&queries);
        for (q, got) in queries.iter().zip(&batch) {
            let single = store.query(q);
            let a: Vec<&IndicatorKey> = got.iter().map(|s| &s.key).collect();
            let b: Vec<&IndicatorKey> = single.iter().map(|s| &s.key).collect();
            assert_eq!(a, b);
        }
        assert_eq!(batch[0].len(), 20);
        assert_eq!(batch[1].len(), 10);
        assert_eq!(batch[2].len(), 1);
        assert!(batch[3].is_empty());
    }

    #[test]
    fn single_shard_store_works() {
        let store = ShardedStore::new(0); // clamped to 1
        assert_eq!(store.shard_count(), 1);
        store.put(sample_set("a", "p", 0));
        assert_eq!(store.query(&QueryReq::any()).len(), 1);
    }

    #[test]
    fn training_pairs_are_key_ordered() {
        let store = ShardedStore::new(4);
        for param in [9, 2, 5] {
            store.put(sample_set("dl580", "stream", param));
        }
        let pairs = store.training_pairs("dl580");
        assert_eq!(pairs.len(), 3);
        let costs: Vec<f64> = pairs.iter().map(|(_, c)| *c).collect();
        assert_eq!(costs, vec![1.0e6 + 2.0, 1.0e6 + 5.0, 1.0e6 + 9.0]);
    }

    #[test]
    fn machine_snapshot_is_key_ordered_and_matches_training_pairs() {
        let store = ShardedStore::new(4);
        for param in [9, 2, 5] {
            store.put(sample_set("dl580", "stream", param));
            store.put(sample_set("ring", "stride", param));
        }
        let snap = store.machine_snapshot("dl580");
        let params: Vec<u64> = snap.sets.iter().map(|s| s.key.param).collect();
        assert_eq!(params, vec![2, 5, 9]);
        assert_eq!(snap.training_pairs(), store.training_pairs("dl580"));
        assert!(store.machine_snapshot("absent").sets.is_empty());
    }

    #[test]
    fn fingerprint_follows_content_not_writes() {
        let store = ShardedStore::new(4);
        for param in 0..4 {
            store.put(sample_set("dl580", "stream", param));
        }
        let before = store.machine_snapshot("dl580").fingerprint();
        // Re-publishing identical content or writing another machine
        // leaves the fingerprint alone, though both bump the generation.
        store.put(sample_set("dl580", "stream", 2));
        store.put(sample_set("ring", "stride", 2));
        assert_eq!(store.generation(), 6);
        assert_eq!(store.machine_snapshot("dl580").fingerprint(), before);
        // A content change moves it; restoring the content restores it.
        let mut changed = sample_set("dl580", "stream", 2);
        changed.cycles += 1.0;
        store.put(changed);
        assert_ne!(store.machine_snapshot("dl580").fingerprint(), before);
        store.put(sample_set("dl580", "stream", 2));
        assert_eq!(store.machine_snapshot("dl580").fingerprint(), before);
        // So does adding a set.
        store.put(sample_set("dl580", "stream", 4));
        assert_ne!(store.machine_snapshot("dl580").fingerprint(), before);
    }

    #[test]
    fn put_leaves_the_digest_to_its_first_reader() {
        let store = ShardedStore::new(1);
        store.put(sample_set("dl580", "stream", 1));
        let digest_known = |store: &ShardedStore| {
            let map = store.shards[0].read().unwrap();
            map.values().all(|entry| entry.digest.get().is_some())
        };
        assert!(!digest_known(&store));
        store.machine_snapshot("dl580");
        assert!(digest_known(&store));
        assert_eq!(
            store.shards[0]
                .read()
                .unwrap()
                .values()
                .next()
                .map(Entry::digest),
            Some(sample_set("dl580", "stream", 1).digest())
        );
    }
}
