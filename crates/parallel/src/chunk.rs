//! Deterministic chunk assignment.
//!
//! A [`Chunker`] is a pure function of `(items, chunk_size)`: chunk `c`
//! covers the contiguous index range `[c·size, min((c+1)·size, items))`.
//! Nothing about the host — thread count, load, scheduling — moves a
//! chunk boundary, which is half of the pool's determinism contract (the
//! other half is merging results back in chunk order).

use std::ops::Range;

/// A deterministic partition of `0..items` into contiguous chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunker {
    items: usize,
    chunk_size: usize,
}

/// Target useful work per chunk for the adaptive policy, in nanoseconds
/// (~1 ms). Below this floor the fixed per-chunk overhead — one queue
/// round-trip, one deposit lock, one output vector — stops being
/// negligible next to the work itself, which is exactly the measured
/// regression the committed bench baseline showed for the campaign.
pub const TARGET_CHUNK_NS: u64 = 1_000_000;

/// The adaptive chunk size implied by a measured per-item cost: large
/// enough that one chunk carries at least `target_ns` of work (the work
/// floor), but never so large that the `remaining` items stop spreading
/// across every worker. The tail chunk may undercut the floor — there is
/// nothing left to pad it with — and so may every chunk when the floor
/// exceeds the fair per-worker share, where balance beats amortisation.
pub fn auto_chunk_size(
    remaining: usize,
    workers: usize,
    per_item_ns: u64,
    target_ns: u64,
) -> usize {
    let floor = (target_ns / per_item_ns.max(1)).max(1);
    let floor = usize::try_from(floor).unwrap_or(usize::MAX);
    let fair_share = remaining.div_ceil(workers.max(1)).max(1);
    floor.min(fair_share)
}

impl Chunker {
    /// A chunker with an explicit chunk size (clamped to at least 1).
    pub fn new(items: usize, chunk_size: usize) -> Chunker {
        Chunker {
            items,
            chunk_size: chunk_size.max(1),
        }
    }

    /// Total items partitioned.
    pub fn items(&self) -> usize {
        self.items
    }

    /// The chunk size (the last chunk may be shorter).
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.items.div_ceil(self.chunk_size)
    }

    /// The index range of chunk `c`.
    pub fn bounds(&self, c: usize) -> Range<usize> {
        let lo = (c * self.chunk_size).min(self.items);
        let hi = ((c + 1) * self.chunk_size).min(self.items);
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_index_exactly_once_in_order() {
        for items in [0, 1, 7, 64, 100] {
            for size in [1, 3, 7, 64, 1000] {
                let c = Chunker::new(items, size);
                let mut seen = Vec::new();
                for i in 0..c.chunk_count() {
                    seen.extend(c.bounds(i));
                }
                let expect: Vec<usize> = (0..items).collect();
                assert_eq!(seen, expect, "items {items} size {size}");
            }
        }
    }

    #[test]
    fn zero_chunk_size_clamped() {
        let c = Chunker::new(10, 0);
        assert_eq!(c.chunk_size(), 1);
        assert_eq!(c.chunk_count(), 10);
    }

    #[test]
    fn empty_input_has_no_chunks() {
        let c = Chunker::new(0, 8);
        assert_eq!(c.chunk_count(), 0);
    }

    #[test]
    fn out_of_range_chunk_is_empty() {
        let c = Chunker::new(10, 4);
        assert_eq!(c.chunk_count(), 3);
        assert!(c.bounds(99).is_empty());
    }
}
