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
//! Iteration results are **stable snapshots**: matches are returned
//! sorted by key as `Arc` clones taken under the lock, so a reader's
//! result is internally consistent even while writers land on other
//! shards. Each entry keeps its set's compact JSON text and the content
//! digest of that text beside it, computed by the set's first reader
//! rather than in `put` (serializing an 18-indicator set took 2.7–3.9 µs
//! on a 2-vCPU host against about 0.5 µs for a put). A set written but
//! never read costs no encode, and a set read many times costs one: the
//! server splices the stored text into every query reply, and
//! `ShardedStore::machine_snapshot` fingerprints a machine's content
//! without re-digesting what did not change. A put replaces the whole
//! entry, so no reader sees the text of content that was overwritten.
//! The prediction cache keys calibrated models on that fingerprint: a put
//! that re-publishes identical content, or writes another machine,
//! leaves every cached model valid. A monotonically increasing
//! *generation* counter still counts every write for `put` and `stats`
//! replies.

use crate::proto::{fnv1a64, IndicatorKey, IndicatorSet, PutReply, QueryReq};
use np_models::transfer::Indicators;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, OnceLock, RwLock};

/// One stored set and its encoding, filled by its first reader.
struct Entry {
    set: Arc<IndicatorSet>,
    encoded: OnceLock<Encoded>,
}

/// A stored set's compact JSON, byte for byte what `serde_json::to_string`
/// writes, and the FNV-1a digest of that text: `IndicatorSet::digest`.
struct Encoded {
    json: Arc<str>,
    digest: u64,
}

impl Entry {
    fn encoded(&self) -> &Encoded {
        self.encoded.get_or_init(|| {
            np_telemetry::counter!("serve.store.encodes").inc();
            let json = serde::Writer::document(&*self.set, false);
            Encoded {
                digest: fnv1a64(json.as_bytes()),
                json: json.into(),
            }
        })
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
    /// encoding is left for its first reader to compute.
    pub fn put(&self, set: IndicatorSet) -> PutReply {
        let shard = self.shard_of(&set.key);
        let entry = Entry {
            set: Arc::new(set),
            encoded: OnceLock::new(),
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
        self.walk(queries, |entry| Arc::clone(&entry.set), |set| &set.key)
    }

    /// [`ShardedStore::query_batch`], answered with each matching set's
    /// stored compact JSON instead of the set: the text a reply splices.
    /// Encodings not yet known are computed under the read lock, once per
    /// stored set.
    pub(crate) fn query_batch_json(&self, queries: &[QueryReq]) -> Vec<Vec<Arc<str>>> {
        let found = self.walk(
            queries,
            |entry| (Arc::clone(&entry.set), Arc::clone(&entry.encoded().json)),
            |(set, _)| &set.key,
        );
        found
            .into_iter()
            .map(|sets| sets.into_iter().map(|(_, json)| json).collect())
            .collect()
    }

    /// Tests every entry against all `queries` in one pass per shard and
    /// takes `pick` of each match while its shard's read lock is held.
    /// Per query, the picks come back in ascending order of `key`.
    fn walk<T>(
        &self,
        queries: &[QueryReq],
        pick: impl Fn(&Entry) -> T,
        key: impl Fn(&T) -> &IndicatorKey,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = queries.iter().map(|_| Vec::new()).collect();
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|p| p.into_inner());
            for (k, entry) in map.iter() {
                for (qi, q) in queries.iter().enumerate() {
                    if q.matches(k) {
                        out[qi].push(pick(entry));
                    }
                }
            }
        }
        for found in &mut out {
            found.sort_by(|a, b| key(a).cmp(key(b)));
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
        let query = QueryReq::machine(machine);
        let found = self
            .walk(
                std::slice::from_ref(&query),
                |entry| (Arc::clone(&entry.set), entry.encoded().digest),
                |(set, _)| &set.key,
            )
            .pop()
            .unwrap_or_default();
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
        // The stored texts are those sets' encodings, in the same order.
        let texts = store.query_batch_json(&queries);
        for (sets, texts) in batch.iter().zip(&texts) {
            let want: Vec<String> = sets
                .iter()
                .map(|s| serde_json::to_string(&**s).unwrap())
                .collect();
            let got: Vec<&str> = texts.iter().map(|t| &**t).collect();
            assert_eq!(got, want);
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
        // A content change moves it. The query after the put serves the
        // new content, whose stored digest is the new content's.
        let mut changed = sample_set("dl580", "stream", 2);
        changed.cycles += 1.0;
        store.put(changed.clone());
        let exact = QueryReq {
            param: Some(2),
            ..QueryReq::machine("dl580")
        };
        let served = store.query_batch_json(std::slice::from_ref(&exact));
        let text = serde_json::to_string(&changed).unwrap();
        assert_eq!(served, vec![vec![Arc::<str>::from(text)]]);
        let digest = stored_digest(&store, &changed.key);
        assert_eq!(digest, Some(changed.digest()));
        assert_ne!(digest, Some(sample_set("dl580", "stream", 2).digest()));
        let moved = store.machine_snapshot("dl580").fingerprint();
        assert_ne!(moved, before);
        // An identical re-put keeps the moved fingerprint; restoring the
        // content restores the first.
        store.put(changed);
        assert_eq!(store.machine_snapshot("dl580").fingerprint(), moved);
        store.put(sample_set("dl580", "stream", 2));
        assert_eq!(store.machine_snapshot("dl580").fingerprint(), before);
        // So does adding a set.
        store.put(sample_set("dl580", "stream", 4));
        assert_ne!(store.machine_snapshot("dl580").fingerprint(), before);
    }

    /// The digest stored beside `key`'s set, computed if not yet known.
    fn stored_digest(store: &ShardedStore, key: &IndicatorKey) -> Option<u64> {
        let map = store.shard_of(key).read().unwrap();
        map.get(key).map(|entry| entry.encoded().digest)
    }

    #[test]
    fn put_leaves_the_digest_to_its_first_reader() {
        let store = ShardedStore::new(1);
        let set = sample_set("dl580", "stream", 1);
        store.put(set.clone());
        let encoding_known = |store: &ShardedStore| {
            let map = store.shards[0].read().unwrap();
            map.values().all(|entry| entry.encoded.get().is_some())
        };
        assert!(!encoding_known(&store));
        store.machine_snapshot("dl580");
        assert!(encoding_known(&store));
        assert_eq!(stored_digest(&store, &set.key), Some(set.digest()));
        // A query's text is the one the digest was taken over.
        let served = store.query_batch_json(&[QueryReq::any()]);
        assert_eq!(served[0].len(), 1);
        assert_eq!(fnv1a64(served[0][0].as_bytes()), set.digest());
    }
}
