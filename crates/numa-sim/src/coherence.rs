//! MESI-style coherence directory.
//!
//! Tracks, per cache line, which cores may hold the line in their private
//! (L1+L2) caches and whether one of them holds it modified. The engine
//! consults the directory on every private-cache miss and on every store
//! that does not hit an owned L1 line, producing the coherence events the
//! paper's NUMA analysis needs: `HitmTransfer` (modified line served
//! cache-to-cache, perf c2c's headline event), `CoherenceInvalidation` and
//! `SnoopRequest`.
//!
//! The directory is a superset tracker: entries are cleaned when dirty
//! lines are written back on eviction, and spurious sharers (lines silently
//! evicted clean) only cost extra snoops, never correctness — the same
//! trade real directory caches make.
//!
//! # Layout
//!
//! Entries are kept per *sector* of [`SECTOR_LINES`] consecutive lines: one
//! hash-table lookup serves a whole sector, and the last sector touched is
//! memoised, so a scan pays one lookup per eight lines. Sectors live in a
//! slab indexed by an `IntHasher` table; a sector whose lines all become
//! untracked goes back to a free list, so the directory stays as small as
//! the set of lines the private caches hold. An untracked line and a
//! default entry (no sharers, no owner) answer every query the same way,
//! so sectoring is invisible to callers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, non-cryptographic hasher for integer keys (line, sector and
/// page numbers): one folded 64×64→128-bit multiply, which spreads both
/// sequential and power-of-two-strided keys over all hash bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let p = ((self.0 ^ n) as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by integers through [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// What the directory found when a core requested a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirLookup {
    /// No other private cache holds the line.
    Uncached,
    /// Other cores hold it clean; `sharer_count` of them.
    Shared {
        /// Number of other sharers.
        sharer_count: u32,
    },
    /// Another core holds it modified — a HITM transfer is required.
    Modified {
        /// The owning core.
        owner: u32,
    },
}

/// Consecutive lines sharing one directory entry.
pub const SECTOR_LINES: usize = 8;

/// `owners` value of a line nobody holds modified.
const NO_OWNER: u8 = u8::MAX;

/// Sharing state of [`SECTOR_LINES`] consecutive lines.
#[derive(Debug, Clone)]
struct Sector {
    /// Per line, the bitmask of cores that may hold it (up to 128 cores).
    sharers: [u128; SECTOR_LINES],
    /// Per line, the core holding it modified, or [`NO_OWNER`]. A line's
    /// owner is always one of its sharers.
    owners: [u8; SECTOR_LINES],
    /// Bit `i` set iff line `i` has a sharer; the sector is freed at 0.
    live: u8,
}

impl Default for Sector {
    fn default() -> Self {
        Sector {
            sharers: [0; SECTOR_LINES],
            owners: [NO_OWNER; SECTOR_LINES],
            live: 0,
        }
    }
}

impl Sector {
    /// What `core` finds on line `i` before its own registration.
    #[inline]
    fn lookup(&self, i: usize, core: u32) -> DirLookup {
        match self.owners[i] {
            owner if owner != NO_OWNER && owner as u32 != core => DirLookup::Modified {
                owner: owner as u32,
            },
            _ => {
                let others = self.sharers[i] & !(1u128 << core);
                if others == 0 {
                    DirLookup::Uncached
                } else {
                    DirLookup::Shared {
                        sharer_count: others.count_ones(),
                    }
                }
            }
        }
    }
}

/// Memo key meaning "no sector memoised" (sector numbers are below 2^61).
const NO_SECTOR: u64 = u64::MAX;

/// The machine-wide coherence directory.
#[derive(Debug)]
pub struct Directory {
    /// Sector number → slot in `sectors`.
    index: IntMap<u64, u32>,
    sectors: Vec<Sector>,
    /// Slots of freed sectors, all back at their default state.
    free: Vec<u32>,
    /// The last sector looked up and its slot.
    memo: (u64, u32),
    /// [`Directory::record_write`] calls since the last clear.
    writes: u64,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory {
            index: IntMap::default(),
            sectors: Vec::new(),
            free: Vec::new(),
            memo: (NO_SECTOR, 0),
            writes: 0,
        }
    }

    /// The slot of `sector`, if tracked.
    #[inline]
    fn find(&mut self, sector: u64) -> Option<usize> {
        if self.memo.0 == sector {
            return Some(self.memo.1 as usize);
        }
        let slot = *self.index.get(&sector)?;
        self.memo = (sector, slot);
        Some(slot as usize)
    }

    /// The slot of `sector`, allocating a default sector when untracked.
    #[inline]
    fn find_or_insert(&mut self, sector: u64) -> usize {
        if let Some(slot) = self.find(sector) {
            return slot;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.sectors.push(Sector::default());
            (self.sectors.len() - 1) as u32
        });
        self.index.insert(sector, slot);
        self.memo = (sector, slot);
        slot as usize
    }

    /// Records that `core` now holds `line` (read access). Returns what the
    /// requester found, *before* its own registration.
    pub fn record_read(&mut self, line: u64, core: u32) -> DirLookup {
        let slot = self.find_or_insert(line / SECTOR_LINES as u64);
        let i = (line % SECTOR_LINES as u64) as usize;
        let s = &mut self.sectors[slot];
        let result = s.lookup(i, core);
        // A read downgrades a foreign dirty owner to sharer.
        if let DirLookup::Modified { .. } = result {
            s.owners[i] = NO_OWNER;
        }
        s.sharers[i] |= 1u128 << core;
        s.live |= 1 << i;
        result
    }

    /// Records that `core` writes `line`: all other sharers are
    /// invalidated. Returns `(lookup_before, invalidated_cores)`, the
    /// latter as a bitmask of core ids.
    pub fn record_write(&mut self, line: u64, core: u32) -> (DirLookup, u128) {
        self.writes += 1;
        let slot = self.find_or_insert(line / SECTOR_LINES as u64);
        let i = (line % SECTOR_LINES as u64) as usize;
        let s = &mut self.sectors[slot];
        let before = s.lookup(i, core);
        let invalidated = s.sharers[i] & !(1u128 << core);
        s.sharers[i] = 1u128 << core;
        s.owners[i] = core as u8;
        s.live |= 1 << i;
        (before, invalidated)
    }

    /// Records that `core` dropped `line` from its private caches
    /// (eviction/writeback). Cleans the entry when nobody holds it.
    pub fn record_evict(&mut self, line: u64, core: u32) {
        let sector = line / SECTOR_LINES as u64;
        let Some(slot) = self.find(sector) else {
            return;
        };
        let i = (line % SECTOR_LINES as u64) as usize;
        let s = &mut self.sectors[slot];
        s.sharers[i] &= !(1u128 << core);
        if s.owners[i] as u32 == core {
            s.owners[i] = NO_OWNER;
        }
        if s.sharers[i] == 0 {
            s.live &= !(1 << i);
            if s.live == 0 {
                self.index.remove(&sector);
                self.free.push(slot as u32);
                self.memo = (NO_SECTOR, 0);
            }
        }
    }

    /// Number of tracked lines (for memory/diagnostic purposes).
    pub fn tracked_lines(&self) -> usize {
        self.index
            .values()
            .map(|&slot| self.sectors[slot as usize].live.count_ones() as usize)
            .sum()
    }

    /// Number of tracked sectors: the table's live entries.
    pub fn tracked_sectors(&self) -> usize {
        self.index.len()
    }

    /// Number of [`Directory::record_write`] calls since the last clear.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Clears all state (between runs), keeping the allocations.
    pub fn clear(&mut self) {
        self.index.clear();
        self.sectors.clear();
        self.free.clear();
        self.memo = (NO_SECTOR, 0);
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reader_finds_uncached() {
        let mut d = Directory::new();
        assert_eq!(d.record_read(10, 0), DirLookup::Uncached);
        assert_eq!(d.record_read(10, 1), DirLookup::Shared { sharer_count: 1 });
        assert_eq!(d.record_read(10, 2), DirLookup::Shared { sharer_count: 2 });
    }

    #[test]
    fn re_read_by_same_core_is_uncached_view() {
        let mut d = Directory::new();
        d.record_read(10, 0);
        // Core 0 reading again sees no *other* sharers.
        assert_eq!(d.record_read(10, 0), DirLookup::Uncached);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.record_read(10, 0);
        d.record_read(10, 1);
        d.record_read(10, 2);
        let (before, inv) = d.record_write(10, 0);
        assert_eq!(before, DirLookup::Shared { sharer_count: 2 });
        assert_eq!(inv, 0b110);
        // Subsequent read by core 1 sees a modified line at core 0.
        assert_eq!(d.record_read(10, 1), DirLookup::Modified { owner: 0 });
    }

    #[test]
    fn read_downgrades_dirty_owner() {
        let mut d = Directory::new();
        d.record_write(10, 0);
        assert_eq!(d.record_read(10, 1), DirLookup::Modified { owner: 0 });
        // After the downgrade the line is shared, not modified.
        assert_eq!(d.record_read(10, 2), DirLookup::Shared { sharer_count: 2 });
    }

    #[test]
    fn write_after_write_transfers_ownership() {
        let mut d = Directory::new();
        d.record_write(10, 0);
        let (before, inv) = d.record_write(10, 1);
        assert_eq!(before, DirLookup::Modified { owner: 0 });
        assert_eq!(inv, 0b1);
        let (before2, _) = d.record_write(10, 1);
        assert_eq!(before2, DirLookup::Uncached); // sole owner rewrites
    }

    #[test]
    fn eviction_cleans_entries() {
        let mut d = Directory::new();
        d.record_read(10, 0);
        d.record_read(10, 1);
        assert_eq!(d.tracked_lines(), 1);
        d.record_evict(10, 0);
        assert_eq!(d.tracked_lines(), 1);
        d.record_evict(10, 1);
        assert_eq!(d.tracked_lines(), 0);
        // Fresh read is uncached again.
        assert_eq!(d.record_read(10, 2), DirLookup::Uncached);
    }

    #[test]
    fn evicting_dirty_owner_clears_dirty_state() {
        let mut d = Directory::new();
        d.record_write(10, 3);
        d.record_evict(10, 3);
        assert_eq!(d.record_read(10, 0), DirLookup::Uncached);
    }

    #[test]
    fn high_core_ids_supported() {
        let mut d = Directory::new();
        d.record_read(10, 127);
        assert_eq!(d.record_read(10, 0), DirLookup::Shared { sharer_count: 1 });
        let (before, inv) = d.record_write(10, 127);
        assert_eq!(before, DirLookup::Shared { sharer_count: 1 });
        assert_eq!(inv, 1);
        assert_eq!(d.record_read(10, 0), DirLookup::Modified { owner: 127 });
    }

    #[test]
    fn lines_of_one_sector_are_independent() {
        let mut d = Directory::new();
        // Lines 16..24 share a sector; 24 starts the next one.
        d.record_write(16, 0);
        d.record_read(17, 1);
        assert_eq!(d.tracked_sectors(), 1);
        assert_eq!(d.tracked_lines(), 2);
        assert_eq!(d.record_read(17, 2), DirLookup::Shared { sharer_count: 1 });
        assert_eq!(d.record_read(16, 2), DirLookup::Modified { owner: 0 });
        assert_eq!(d.record_read(23, 2), DirLookup::Uncached);
        d.record_read(24, 2);
        assert_eq!(d.tracked_sectors(), 2);
        assert_eq!(d.tracked_lines(), 4);
    }

    #[test]
    fn emptied_sectors_are_freed_and_reused_clean() {
        let mut d = Directory::new();
        d.record_write(8, 3);
        d.record_read(9, 4);
        // Evicting an untracked line or a non-sharer changes nothing.
        d.record_evict(1000, 3);
        d.record_evict(8, 4);
        assert_eq!(d.tracked_lines(), 2);
        d.record_evict(8, 3);
        assert_eq!(d.tracked_sectors(), 1);
        d.record_evict(9, 4);
        assert_eq!((d.tracked_sectors(), d.tracked_lines()), (0, 0));
        // The freed slot serves another sector with no state carried over.
        assert_eq!(d.record_read(800, 0), DirLookup::Uncached);
        assert_eq!(d.record_read(808, 5), DirLookup::Uncached);
        assert_eq!(d.record_read(9, 5), DirLookup::Uncached);
        assert_eq!(d.tracked_sectors(), 3);
    }

    #[test]
    fn clear_forgets_everything_and_counts_writes() {
        let mut d = Directory::new();
        d.record_write(10, 0);
        d.record_write(10, 0);
        assert_eq!(d.writes(), 2);
        d.clear();
        assert_eq!((d.tracked_lines(), d.writes()), (0, 0));
        assert_eq!(d.record_read(10, 1), DirLookup::Uncached);
    }

    #[test]
    fn int_hasher_spreads_strided_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IntHasher>::default();
        // Page-strided sector numbers must not collide in the low bits a
        // table indexes by.
        let low: std::collections::HashSet<u64> =
            (0..256u64).map(|k| build.hash_one(k << 9) & 0xff).collect();
        assert!(low.len() > 128, "{} distinct low bytes", low.len());
    }
}
