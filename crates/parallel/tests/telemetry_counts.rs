//! The pool's telemetry against its counted work: `par.tasks` counts the
//! chunks a run executed, `par.idle_ns` takes one sample per queue pop,
//! and `par.steal` never exceeds the chunks there were to take.
//!
//! Telemetry counters are process-global, so this binary holds a single
//! test: a second test in the same process could run a pool while this
//! one reads its before/after deltas.

use np_parallel::{Pool, PoolConfig};

/// `(par.tasks, par.steal, par.idle_ns sample count)` right now.
fn counts() -> (u64, u64, u64) {
    let registry = np_telemetry::global();
    (
        registry.counter("par.tasks").get(),
        registry.counter("par.steal").get(),
        registry.histogram("par.idle_ns").count(),
    )
}

/// Cheap, injective work so a lost or duplicated item shows up.
fn task(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9) ^ 0x7E1E
}

#[test]
fn pool_counters_track_executed_chunks() {
    np_telemetry::set_enabled(true);
    let inline = Pool::new(1);
    let fixed = Pool::with_config(PoolConfig {
        threads: 4,
        chunk_size: Some(3),
    });
    let adaptive = Pool::new(4);
    // (label, pool, items, whether chunks pass through the queue)
    let runs = [
        ("inline", &inline, 40, false),
        ("fixed", &fixed, 60, true),
        ("adaptive", &adaptive, 4096, true),
    ];
    for (label, pool, items, queued) in runs {
        let before = counts();
        let report = pool.run_report(items, task);
        let after = counts();
        assert_eq!(report.results, (0..items).map(task).collect::<Vec<_>>());
        let chunks = report.profile.len() as u64;
        assert!(chunks > 0, "{label}: no chunk executed");
        assert_eq!(after.0 - before.0, chunks, "{label}: par.tasks");
        let pops = if queued { chunks } else { 0 };
        assert_eq!(after.2 - before.2, pops, "{label}: par.idle_ns samples");
        assert!(
            after.1 - before.1 <= pops,
            "{label}: par.steal rose by {} over {chunks} chunks",
            after.1 - before.1
        );
    }
    np_telemetry::set_enabled(false);
}
