//! Pool-lifecycle stress: the failure-path half of the determinism
//! contract.
//!
//! Three promises under test. A panicking task surfaces as a typed error
//! (or re-raises) without poisoning the pool — the same value keeps
//! working afterwards. Shutdown drains the queue: every submitted chunk
//! executes even when workers heavily outnumber cores. And an injected
//! [`Fault::Delay`] stalling arbitrary tasks changes only timing, never
//! the merged order — delays are exactly the nondeterminism the merge is
//! supposed to erase.

use np_parallel::{Pool, PoolConfig, PoolError};
use np_resilience::fault::{Fault, FaultInjector, ScriptedFaults};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::Duration;

#[test]
fn repeated_panics_never_poison_the_pool() {
    let pool = Pool::new(4);
    for round in 0..20u64 {
        let bad = (round as usize * 7) % 50;
        let err = pool
            .try_run(50, |i| {
                if i == bad {
                    panic!("round {round} item {i}");
                }
                Ok(i as u64 + round)
            })
            .unwrap_err();
        match err {
            PoolError::Panic { index, .. } => assert_eq!(index, bad),
            other => panic!("expected panic error, got {other}"),
        }
        // Immediately after the failure the pool does clean work.
        let clean: Vec<u64> = pool.run(10, |i| i as u64 * round);
        assert_eq!(clean, (0..10).map(|i| i * round).collect::<Vec<u64>>());
    }
}

#[test]
fn mixed_task_errors_and_panics_pick_the_earliest_item() {
    let pool = Pool::with_config(PoolConfig {
        threads: 8,
        chunk_size: Some(3),
    });
    // A panic at 30 and a task error at 12: index order decides, not
    // completion order, so the Err(12) must win every time.
    for _ in 0..10 {
        let err = pool
            .try_run(60, |i| match i {
                30 => panic!("later panic"),
                12 => Err("earlier error".to_string()),
                _ => Ok(i),
            })
            .unwrap_err();
        assert_eq!(
            err,
            PoolError::Task {
                index: 12,
                message: "earlier error".to_string()
            }
        );
    }
}

#[test]
fn shutdown_drains_every_queued_chunk() {
    // Many more chunks than queue capacity and many more workers than
    // cores: the close/drain path is exercised hard, and the executed-item
    // count must still be exact.
    let executed = AtomicUsize::new(0);
    let pool = Pool::with_config(PoolConfig {
        threads: 16,
        chunk_size: Some(1),
    });
    let out = pool.run(300, |i| {
        executed.fetch_add(1, SeqCst);
        i
    });
    assert_eq!(out, (0..300).collect::<Vec<_>>());
    assert_eq!(executed.load(SeqCst), 300);
}

#[test]
fn injected_delays_never_reorder_merged_output() {
    // Script a pile of delays and let tasks consume them in whatever
    // order the scheduler produces: some tasks stall, some do not, and
    // which-stalls-where varies per run. The merged output may not.
    let faults =
        ScriptedFaults::new().inject_n("pool.task", Fault::Delay(Duration::from_millis(2)), 40);
    let expect: Vec<u64> = (0..120).map(|i| i as u64 * 11).collect();
    let pool = Pool::with_config(PoolConfig {
        threads: 6,
        chunk_size: Some(2),
    });
    let got = pool.run(120, |i| {
        if let Some(Fault::Delay(d)) = faults.next("pool.task") {
            std::thread::sleep(d);
        }
        i as u64 * 11
    });
    assert_eq!(got, expect);
    assert_eq!(faults.remaining(), 0, "all scripted delays consumed");
}

#[test]
fn concurrent_pools_do_not_interfere() {
    // Two pools driven from two threads at once: per-call scoped state
    // means there is nothing shared to corrupt.
    let results = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for run in 0..4u64 {
            let results = &results;
            s.spawn(move || {
                let pool = Pool::new(3);
                let out = pool.run(80, |i| i as u64 + run * 1000);
                results.lock().unwrap().push((run, out));
            });
        }
    });
    let runs = results.into_inner().unwrap();
    assert_eq!(runs.len(), 4);
    for (run, out) in runs {
        let expect: Vec<u64> = (0..80).map(|i| i + run * 1000).collect();
        assert_eq!(out, expect, "pool run {run}");
    }
}
