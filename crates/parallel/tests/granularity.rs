//! Property tests for the adaptive chunk-granularity policy.
//!
//! The policy (`auto_chunk_size` + the pool's probe-then-size producer)
//! exists to keep per-chunk overhead amortised: every chunk should carry
//! at least the target amount of measured work unless spreading the
//! remainder across workers demands smaller chunks, or the tail simply
//! runs out of items. These properties pin that floor, prove the emitted
//! chunks are a lossless partition, and prove that merge order is
//! invariant under any thread count and interleaving — i.e. the adaptive
//! geometry cannot leak into results.

use np_parallel::{auto_chunk_size, Pool, TARGET_CHUNK_NS};
use proptest::prelude::*;

/// Injective task so any lost/duplicated/reordered item shows up.
fn task(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9) ^ 0x5A5A
}

/// [`task`], but the items whose seeded hash falls in the lowest quarter
/// yield the thread a few times first, so each seed finishes chunks in
/// another order.
fn perturbed(seed: u64, i: usize) -> u64 {
    let h =
        (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    if h >> 62 == 0 {
        for _ in 0..3 {
            std::thread::yield_now();
        }
    }
    task(i)
}

/// Replays the adaptive producer's sizing loop deterministically: given a
/// fixed per-item cost, emit the chunk sizes the producer would emit
/// after its probe phase.
fn sized_chunks(items: usize, workers: usize, per_item_ns: u64, target_ns: u64) -> Vec<usize> {
    let mut out = Vec::new();
    let mut next = 0usize;
    while next < items {
        let size = auto_chunk_size(items - next, workers, per_item_ns, target_ns);
        let hi = (next + size).min(items);
        out.push(hi - next);
        next = hi;
    }
    out
}

proptest! {
    #[test]
    fn chunks_never_undercut_the_work_floor_except_the_tail(
        items in 1usize..5_000,
        workers in 1usize..17,
        per_item_ns in 1u64..5_000_000,
    ) {
        let target = TARGET_CHUNK_NS;
        let sizes = sized_chunks(items, workers, per_item_ns, target);
        let floor = ((target / per_item_ns).max(1) as usize).min(items.div_ceil(workers).max(1));
        for (i, &size) in sizes.iter().enumerate() {
            if i + 1 < sizes.len() {
                // Every non-tail chunk meets the floor: either ≥ target
                // worth of work, or the fair per-worker share when that
                // is smaller (balance beats amortisation). The fair
                // share can only shrink as items are consumed, so the
                // initial floor is a valid lower bound divided by at
                // most itself — assert against the per-step floor.
                prop_assert!(
                    size >= 1,
                    "chunk {i} of {} is empty (sizes {sizes:?})",
                    sizes.len()
                );
                if floor > 1 {
                    // Re-derive the exact floor at this step.
                    let consumed: usize = sizes[..i].iter().sum();
                    let remaining = items - consumed;
                    let step_floor = ((target / per_item_ns).max(1) as usize)
                        .min(remaining.div_ceil(workers).max(1));
                    prop_assert!(
                        size >= step_floor,
                        "chunk {i} has {size} items, floor {step_floor} (sizes {sizes:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn sized_chunks_partition_losslessly(
        items in 0usize..5_000,
        workers in 1usize..17,
        per_item_ns in 1u64..5_000_000,
        target_ns in 1u64..10_000_000,
    ) {
        let sizes = sized_chunks(items, workers, per_item_ns, target_ns);
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(total, items, "sizes {:?}", sizes);
        prop_assert!(sizes.iter().all(|&s| s >= 1));
    }

    #[test]
    fn auto_chunk_size_is_positive_and_bounded(
        remaining in 1usize..100_000,
        workers in 0usize..32,
        per_item_ns in 0u64..u64::MAX,
        target_ns in 0u64..u64::MAX,
    ) {
        let size = auto_chunk_size(remaining, workers, per_item_ns, target_ns);
        prop_assert!(size >= 1);
        prop_assert!(size <= remaining.div_ceil(workers.max(1)).max(1));
    }

    #[test]
    fn adaptive_merge_is_permutation_invariant_across_thread_counts(
        items in 0usize..400,
        threads in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        // No fixed chunk_size → the adaptive path (probes + measured
        // sizing). Whatever geometry and interleaving the run actually
        // produced, the merged output must equal the sequential loop —
        // and therefore agree across thread counts.
        let expect: Vec<u64> = (0..items).map(task).collect();
        let got = Pool::new(threads).run(items, |i| perturbed(seed, i));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn adaptive_profile_covers_every_chunk_exactly_once(
        items in 1usize..300,
        threads in 2usize..7,
    ) {
        let report = Pool::new(threads).run_report(items, task);
        // Profiles land one per chunk, in chunk order, and the queue
        // moved exactly that many chunks.
        for (chunk, p) in report.profile.iter().enumerate() {
            prop_assert_eq!(p.chunk, chunk);
        }
        prop_assert_eq!(report.queue.pops, report.profile.len() as u64);
        prop_assert_eq!(report.queue.pushes, report.queue.pops);
    }
}

#[test]
fn adaptive_chunking_amortises_cheap_items() {
    // ~16k near-free items at 4 threads: the probe phase may emit up to
    // 2×workers size-1 chunks, but once the measured cost comes back the
    // producer must emit large chunks — far fewer total chunks than
    // items. This is the counted (not timed) signature of granularity
    // control: a regression to per-item chunks would emit 16384.
    let items = 16_384usize;
    let report = Pool::new(4).run_report(items, task);
    let chunks = report.profile.len();
    assert!(
        chunks < items / 4,
        "adaptive path emitted {chunks} chunks for {items} items"
    );
    assert_eq!(report.results, (0..items).map(task).collect::<Vec<_>>());
}
