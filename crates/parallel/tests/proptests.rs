//! Property-based tests for the np-parallel determinism contract.
//!
//! These are the proofs the crate docs lean on: chunking is a partition
//! for *every* `(items, chunk_size)`, and merged output equals the
//! sequential loop for *every* `(items, threads, chunk_size, seed)`, where
//! the seed picks which items stall before they return.

use np_parallel::{Chunker, Pool, PoolConfig};
use proptest::prelude::*;

/// The task every property runs: cheap, injective in `i`, so a lost,
/// duplicated or reordered item is always visible in the output.
fn task(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9) ^ 0xABCD
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

fn pool(threads: usize, chunk_size: usize) -> Pool {
    Pool::with_config(PoolConfig {
        threads,
        chunk_size: Some(chunk_size),
    })
}

proptest! {
    #[test]
    fn chunks_partition_the_index_space(items in 0usize..500, size in 0usize..64) {
        let c = Chunker::new(items, size);
        let mut covered = Vec::new();
        for chunk in 0..c.chunk_count() {
            covered.extend(c.bounds(chunk));
        }
        let expect: Vec<usize> = (0..items).collect();
        prop_assert_eq!(covered, expect);
    }

    #[test]
    fn merged_output_equals_sequential_for_any_geometry(
        items in 0usize..200,
        threads in 1usize..9,
        size in 1usize..32,
        seed in 0u64..u64::MAX,
    ) {
        let expect: Vec<u64> = (0..items).map(task).collect();
        let got = pool(threads, size).run(items, |i| perturbed(seed, i));
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn map_agrees_with_run_for_any_input(
        values in proptest::collection::vec(-1_000_000i64..1_000_000, 0..120),
        threads in 1usize..6,
    ) {
        let p = Pool::new(threads);
        let by_map = p.map(&values, |&v| v.wrapping_mul(3));
        let by_run = p.run(values.len(), |i| values[i].wrapping_mul(3));
        prop_assert_eq!(by_map, by_run);
    }
}
