//! Set-associative cache with LRU replacement.
//!
//! One implementation serves L1d, L2 and L3; the engine wires geometry and
//! latencies. Lines are identified by their line address (`vaddr /
//! line_bytes`); the model is virtually indexed throughout, which is sound
//! because the simulator gives every program run its own address space.
//!
//! # Layout
//!
//! The ways live in three parallel arrays: packed tags, LRU stamps and one
//! flag byte per way. A probe reads only the tags, one `u64` compare per
//! way (128 bytes for a 16-way set); stamps are touched on hits and victim
//! scans, flags on hits and installs.
//!
//! A tag word is `line | epoch << epoch_shift`. A line address is below
//! `2^64 / line_bytes`, so the top `log2(line_bytes)` bits of the word are
//! free (6 bits for 64-byte lines) and carry the epoch the way was written
//! in. [`SetAssocCache::reset`] bumps the epoch, which makes every way
//! stale in O(1): a probe for `line` compares against `line | current
//! epoch` and so never matches a stale way. The all-ones epoch is never
//! used, so `EMPTY` (`u64::MAX`) never equals a live tag; when the epoch
//! counter would reach it, `reset` rewrites the tag array for real and
//! starts again at 0 — O(1) amortised. With 1-byte lines no bit is free,
//! every reset clears the tags, and only the line `u64::MAX` is
//! unrepresentable.
//!
//! # Ownership mark
//!
//! Every write (a write probe or a dirty install) marks its way *owned*;
//! [`SetAssocCache::downgrade`], invalidation and eviction clear the mark.
//! The engine reads the mark on L1 only, to let a store skip the coherence
//! directory when the line is already this core's exclusive dirty line
//! (see `engine.rs`).

use crate::config::CacheGeometry;

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line present.
    Hit {
        /// The line was installed by a prefetch and this is its first
        /// demand hit (used for `L2PrefetchHit` accounting).
        first_prefetch_hit: bool,
        /// The way carried the ownership mark before this probe.
        owned: bool,
    },
    /// Line absent.
    Miss,
}

/// A set-associative, write-allocate, writeback cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    /// `sets - 1` when `sets` is a power of two; 0 selects the modulo
    /// path (the DL580 L3 has 36864 sets, which is not a power of two).
    set_mask: u64,
    /// `sets × ways` packed tag words (see the module docs).
    tags: Vec<u64>,
    /// LRU stamp per way; larger = more recently used.
    stamps: Vec<u64>,
    /// [`PREFETCHED`] | [`DIRTY`] | [`OWNED`] per way.
    flags: Vec<u8>,
    clock: u64,
    /// Bit position of the epoch field; 64 when no bit is free.
    epoch_shift: u32,
    /// Current epoch, `0..=max_epoch`.
    epoch: u64,
    /// Last usable epoch: the epoch field's all-ones value minus one.
    max_epoch: u64,
    /// `epoch << epoch_shift`, ORed into every tag this epoch writes.
    epoch_tag: u64,
    /// `1 << epoch_shift` (saturated): a word `w` is live this epoch iff
    /// `w ^ epoch_tag < line_limit`.
    line_limit: u64,
}

/// Result of installing a line: the evicted victim, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the evicted line.
    pub line_addr: u64,
    /// Whether the victim was dirty (needs writeback).
    pub dirty: bool,
}

/// Tag word of an empty way.
const EMPTY: u64 = u64::MAX;
/// Installed by a prefetch, cleared on the first demand hit.
const PREFETCHED: u8 = 1;
/// Modified: the eviction needs a writeback.
const DIRTY: u8 = 2;
/// Written since the last downgrade (see the module docs).
const OWNED: u8 = 4;

impl SetAssocCache {
    /// Builds a cache from its geometry. Arbitrary set counts are allowed
    /// (the DL580's 45 MiB 20-way L3 has 36864 sets).
    pub fn new(geo: CacheGeometry) -> Self {
        let sets = geo.sets() as usize;
        assert!(sets > 0, "cache must have at least one set");
        assert!(geo.ways > 0);
        let ways = geo.ways as usize;
        // The high bits a line address never uses.
        let epoch_bits = geo.line_bytes.max(1).ilog2();
        let epoch_shift = 64 - epoch_bits;
        SetAssocCache {
            sets,
            ways,
            line_bytes: geo.line_bytes as u64,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            tags: vec![EMPTY; sets * ways],
            stamps: vec![0; sets * ways],
            flags: vec![0; sets * ways],
            clock: 0,
            epoch_shift,
            epoch: 0,
            max_epoch: (1u64 << epoch_bits).saturating_sub(2),
            epoch_tag: 0,
            line_limit: 1u64.checked_shl(epoch_shift).unwrap_or(u64::MAX),
        }
    }

    /// Invalidates every line and restarts the LRU clock — equivalent to
    /// a freshly built cache, in O(1) amortised. The epoch bump makes every
    /// existing way stale, and stale ways behave exactly like empty ones
    /// in every probe and victim scan (a victim scan stops at the first
    /// empty-or-stale way, just as a fresh scan stops at the first empty
    /// one). When the epoch field is used up the tag array is cleared for
    /// real, so reuse counts are unbounded.
    pub fn reset(&mut self) {
        self.clock = 0;
        if self.epoch == self.max_epoch {
            self.tags.fill(EMPTY);
            self.epoch = 0;
        } else {
            self.epoch += 1;
        }
        self.epoch_tag = self.epoch.checked_shl(self.epoch_shift).unwrap_or(0);
    }

    /// Line address for a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes
    }

    /// First way index of the set holding `line`.
    #[inline]
    fn base_of(&self, line: u64) -> usize {
        let set = if self.set_mask != 0 {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        };
        set * self.ways
    }

    /// Looks up the line of `addr` this epoch, as `(key, base, way)`:
    /// `key` is the line's tag word, `base` the first way of its set and
    /// `way` its index when resident.
    #[inline]
    fn find(&self, addr: u64) -> (u64, usize, Option<usize>) {
        let line = self.line_of(addr);
        let key = line | self.epoch_tag;
        let base = self.base_of(line);
        let hit = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == key)
            .map(|w| base + w);
        (key, base, hit)
    }

    /// Whether tag word `word` holds a line of the current epoch.
    #[inline]
    fn live(&self, word: u64) -> bool {
        word ^ self.epoch_tag < self.line_limit
    }

    /// Probes for the line containing `addr`, updating LRU on hit and
    /// marking it dirty and owned when `write` is set.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> Probe {
        self.clock += 1;
        let (_, _, hit) = self.find(addr);
        let Some(i) = hit else {
            return Probe::Miss;
        };
        self.stamps[i] = self.clock;
        let f = self.flags[i];
        self.flags[i] = (f & !PREFETCHED) | if write { DIRTY | OWNED } else { 0 };
        Probe::Hit {
            first_prefetch_hit: f & PREFETCHED != 0,
            owned: f & OWNED != 0,
        }
    }

    /// Checks residency without updating any state.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).2.is_some()
    }

    /// Installs the line containing `addr`, returning the eviction (if the
    /// victim way held a valid line). `prefetched` tags prefetch installs,
    /// `dirty` marks write-allocated lines (and owns them).
    pub fn install(&mut self, addr: u64, prefetched: bool, dirty: bool) -> Option<Eviction> {
        self.clock += 1;
        let (key, base, hit) = self.find(addr);
        let written = if dirty { DIRTY | OWNED } else { 0 };

        // Already present (e.g. racing prefetch): refresh in place.
        if let Some(i) = hit {
            self.stamps[i] = self.clock;
            let keep = if prefetched { PREFETCHED } else { 0 };
            self.flags[i] = (self.flags[i] & (keep | DIRTY | OWNED)) | written;
            return None;
        }

        // Choose victim: the first empty-or-stale way, else LRU.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            if !self.live(self.tags[i]) {
                victim = i;
                break;
            }
            if self.stamps[i] < best {
                best = self.stamps[i];
                victim = i;
            }
        }
        let word = self.tags[victim];
        let evicted = self.live(word).then(|| Eviction {
            line_addr: word ^ self.epoch_tag,
            dirty: self.flags[victim] & DIRTY != 0,
        });
        self.tags[victim] = key;
        self.stamps[victim] = self.clock;
        self.flags[victim] = if prefetched { PREFETCHED } else { 0 } | written;
        evicted
    }

    /// Invalidates the line containing `addr` (coherence), returning whether
    /// it was present and dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let i = self.find(addr).2?;
        self.tags[i] = EMPTY;
        let dirty = self.flags[i] & DIRTY != 0;
        self.flags[i] = 0;
        Some(dirty)
    }

    /// Clears the ownership mark of the line containing `addr`, if resident
    /// (another core read it: the line is shared from now on).
    pub fn downgrade(&mut self, addr: u64) {
        if let Some(i) = self.find(addr).2 {
            self.flags[i] &= !OWNED;
        }
    }

    /// Evicts one pseudo-random valid line (used to model interrupt cache
    /// pollution). `salt` seeds the choice deterministically.
    pub fn evict_random(&mut self, salt: u64) {
        let set = (salt % self.sets as u64) as usize;
        let way = (salt >> 32) as usize % self.ways;
        let i = set * self.ways + way;
        self.tags[i] = EMPTY;
        self.flags[i] = 0;
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| self.live(t)).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn small() -> SetAssocCache {
        // 4 sets × 2 ways × 64 B = 512 B.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = small();
        assert_eq!(c.access(0x100, false), Probe::Miss);
        assert!(c.install(0x100, false, false).is_none());
        assert!(matches!(c.access(0x100, false), Probe::Hit { .. }));
        // Same line, different byte.
        assert!(matches!(c.access(0x13F, false), Probe::Hit { .. }));
        // Next line misses.
        assert_eq!(c.access(0x140, false), Probe::Miss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (set = line & 3):
        // lines 0, 4, 8 (addresses 0, 0x100, 0x200).
        c.install(0x000, false, false);
        c.install(0x100, false, false);
        // Touch line 0 so line 4 (0x100) is LRU.
        c.access(0x000, false);
        let ev = c.install(0x200, false, false).expect("must evict");
        assert_eq!(ev.line_addr, c.line_of(0x100));
        assert!(c.contains(0x000));
        assert!(!c.contains(0x100));
        assert!(c.contains(0x200));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.install(0x000, false, false);
        c.access(0x000, true); // dirty it
        c.install(0x100, false, false);
        let ev = c.install(0x200, false, false).unwrap();
        assert_eq!(ev.line_addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn prefetch_flag_cleared_on_first_hit() {
        let mut c = small();
        c.install(0x100, true, false);
        match c.access(0x100, false) {
            Probe::Hit {
                first_prefetch_hit, ..
            } => assert!(first_prefetch_hit),
            other => panic!("{other:?}"),
        }
        match c.access(0x100, false) {
            Probe::Hit {
                first_prefetch_hit, ..
            } => assert!(!first_prefetch_hit),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.install(0x100, false, false);
        c.access(0x100, true);
        assert_eq!(c.invalidate(0x100), Some(true));
        assert_eq!(c.invalidate(0x100), None);
        assert!(!c.contains(0x100));
    }

    #[test]
    fn occupancy_and_capacity() {
        let mut c = small();
        assert_eq!(c.capacity_lines(), 8);
        assert_eq!(c.occupancy(), 0);
        c.install(0x000, false, false);
        c.install(0x040, false, false);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn reinstall_does_not_evict() {
        let mut c = small();
        c.install(0x100, false, false);
        assert!(c.install(0x100, false, true).is_none());
        // Dirty flag merged.
        assert_eq!(c.invalidate(0x100), Some(true));
    }

    #[test]
    fn evict_random_removes_at_most_one() {
        let mut c = small();
        c.install(0x000, false, false);
        c.install(0x040, false, false);
        let before = c.occupancy();
        c.evict_random(0xDEAD_BEEF_0000_0001);
        assert!(c.occupancy() >= before - 1);
    }

    #[test]
    fn reset_is_equivalent_to_a_fresh_cache() {
        // Dirty the cache thoroughly, reset, and check that a scripted
        // access sequence behaves identically to a never-used cache —
        // including victim choice and eviction reporting.
        let mut used = small();
        for i in 0..16u64 {
            used.install(i * 64, i % 3 == 0, i % 2 == 0);
            used.access(i * 64, i % 5 == 0);
        }
        used.reset();
        let mut fresh = small();
        assert_eq!(used.occupancy(), 0);
        for i in 0..16u64 {
            let addr = i * 64;
            assert_eq!(used.access(addr, false), fresh.access(addr, false), "{i}");
            assert_eq!(
                used.install(addr, false, i % 2 == 0),
                fresh.install(addr, false, i % 2 == 0),
                "{i}"
            );
        }
        assert_eq!(used.occupancy(), fresh.occupancy());
        // And a second reset keeps working (epochs advance).
        used.reset();
        assert_eq!(used.occupancy(), 0);
        assert_eq!(used.access(0, false), Probe::Miss);
    }

    #[test]
    fn resets_across_epoch_wraps_match_a_fresh_cache() {
        // 64-byte lines leave 6 epoch bits: 63 epochs per tag clear. Run
        // well past several wraps with a stale line planted every epoch.
        let mut used = small();
        for round in 0..200u64 {
            used.install(round % 16 * 64, false, true);
            used.reset();
            assert_eq!(used.occupancy(), 0, "round {round}");
            let mut fresh = small();
            for i in 0..12u64 {
                let addr = (i * 7 % 16) * 64;
                assert_eq!(used.access(addr, false), fresh.access(addr, false));
                assert_eq!(
                    used.install(addr, false, i % 3 == 0),
                    fresh.install(addr, false, i % 3 == 0)
                );
            }
            assert_eq!(used.occupancy(), fresh.occupancy());
        }
    }

    #[test]
    fn small_lines_keep_exact_semantics() {
        // 1-byte lines leave no epoch bit (every reset clears the tags),
        // 2- and 32-byte lines a few; line addresses up to the widest the
        // line size allows must behave as in any other cache.
        for line_bytes in [1u32, 2, 32] {
            let geo = CacheGeometry {
                size_bytes: 8 * line_bytes as u64,
                ways: 2,
                line_bytes,
            };
            let mut c = SetAssocCache::new(geo);
            let top = u64::MAX / line_bytes as u64 - 1; // a high line address
            for round in 0..300 {
                for line in [0, 1, top, top - 4] {
                    let addr = line * line_bytes as u64;
                    assert_eq!(
                        c.access(addr, false),
                        Probe::Miss,
                        "{line_bytes} B, round {round}"
                    );
                    c.install(addr, false, false);
                    assert!(c.contains(addr));
                }
                // Set 0 holds line 0; lines 4 and 8 map there too, so the
                // second of them evicts line 0, the least recently used.
                assert_eq!(c.install(4 * line_bytes as u64, false, false), None);
                let ev = c.install(8 * line_bytes as u64, false, false);
                assert_eq!(ev.map(|e| e.line_addr), Some(0), "{line_bytes} B");
                c.reset();
                assert_eq!(c.occupancy(), 0);
            }
        }
    }

    #[test]
    fn writes_own_lines_until_downgraded_or_removed() {
        let owned = |p: Probe| matches!(p, Probe::Hit { owned: true, .. });
        let mut c = small();
        // A dirty install owns the line; a clean one does not.
        c.install(0x000, false, true);
        c.install(0x040, false, false);
        assert!(owned(c.access(0x000, false)));
        assert!(!owned(c.access(0x040, false)));
        // A write probe owns; a downgrade clears the mark, not the data.
        c.access(0x040, true);
        assert!(owned(c.access(0x040, false)));
        c.downgrade(0x040);
        assert!(!owned(c.access(0x040, false)));
        assert_eq!(c.invalidate(0x040), Some(true));
        // A prefetch refresh keeps the mark; reinstalling after an
        // invalidation starts unowned.
        c.install(0x000, true, false);
        assert!(owned(c.access(0x000, false)));
        c.invalidate(0x000);
        c.install(0x000, false, false);
        assert!(!owned(c.access(0x000, false)));
        // A random eviction clears the way outright.
        let mut one = SetAssocCache::new(CacheGeometry {
            size_bytes: 64,
            ways: 1,
            line_bytes: 64,
        });
        one.install(0x000, false, true);
        one.evict_random(0x1234);
        assert_eq!(one.access(0x000, true), Probe::Miss);
    }

    #[test]
    fn capacity_eviction_working_set_larger_than_cache() {
        let mut c = small();
        // 16 distinct lines into an 8-line cache: at most 8 survive.
        for i in 0..16u64 {
            c.install(i * 64, false, false);
        }
        assert_eq!(c.occupancy(), 8);
    }
}
