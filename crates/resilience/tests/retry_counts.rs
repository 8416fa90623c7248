//! `RetryPolicy::run` against its counted attempts: the operation sees
//! attempts 1, 2, … in order, and `resilience.retries` rises once per
//! attempt after the first, whether the loop succeeds, exhausts or stops
//! at a permanent failure.
//!
//! Telemetry counters are process-global, so this binary holds a single
//! test: a second test in the same process could retry while this one
//! reads its before/after deltas.

use np_resilience::{RetryError, RetryPolicy};

fn retries() -> u64 {
    np_telemetry::global().counter("resilience.retries").get()
}

#[test]
fn retries_counter_tracks_attempts_after_the_first() {
    np_telemetry::set_enabled(true);

    // Two transient failures, then success, under 5 attempts.
    let before = retries();
    let mut seen = Vec::new();
    let out = RetryPolicy::immediate(5).run(
        |attempt| {
            seen.push(attempt);
            if attempt < 3 {
                Err("flaky")
            } else {
                Ok(attempt)
            }
        },
        |_| true,
    );
    assert_eq!(out.unwrap(), 3);
    assert_eq!(seen, [1, 2, 3]);
    assert_eq!(retries() - before, 2, "success on attempt 3");

    // Always transient, under 4 attempts.
    let before = retries();
    let mut calls = 0u32;
    let out: Result<(), _> = RetryPolicy::immediate(4).run(
        |_| {
            calls += 1;
            Err("always")
        },
        |_| true,
    );
    assert_eq!(calls, 4);
    assert!(
        matches!(
            out,
            Err(RetryError::Exhausted {
                attempts: 4,
                last: "always"
            })
        ),
        "{out:?}"
    );
    assert_eq!(retries() - before, 3, "exhausted after 4 attempts");

    // A permanent failure stops at once.
    let before = retries();
    let mut calls = 0u32;
    let out: Result<(), _> = RetryPolicy::immediate(5).run(
        |_| {
            calls += 1;
            Err("fatal")
        },
        |_| false,
    );
    assert_eq!(calls, 1);
    assert!(
        matches!(out, Err(RetryError::Permanent("fatal"))),
        "{out:?}"
    );
    assert_eq!(retries() - before, 0, "permanent failure");

    np_telemetry::set_enabled(false);
}
